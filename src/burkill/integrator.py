"""Norm-limit, k-limit and refinement-limit estimation for interval functions.

The supremum over all divisions is uncomputable, so estimates search a
finite candidate family per norm bound e: uniform dyadic grids, the
function's special points, special points with minimal midpoint fill, and
a midpoint-jittered variant.  Upper estimates are therefore lower bounds
of the true upper limit (and lower estimates upper bounds of the true
lower limit); the fixtures publish special points that make the bounds
tight.  Reported traces are suffix-tightened: a division of norm below a
fine bound is also admissible at every coarser bound.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from itertools import chain, compress, count, islice, repeat
from operator import is_, is_not, or_
from typing import Optional, Sequence

from .catalog import INF, IntervalFunction, xsum
from .core import (
    DEFAULT_CONVENTION,
    Division,
    Dyadic,
    Interval,
    Region,
    _component_runs,
    division_from_points,
    dmid,
    floor_log2,
)
from .errors import BudgetExceeded

Lock = tuple[bool, bool]  # junction convention: (left_closed, right_closed)

# estimates beyond this magnitude read as divergent
DIVERGENCE_THRESHOLD = 1e12
CONVENTION_MODES = ("optimize", "fixed")


def _default_schedule() -> tuple[Dyadic, ...]:
    return tuple(Dyadic(1, k) for k in range(3, 15))


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the division search.

    e_schedule is non-empty and strictly decreasing; grids use spacing
    e/grid_density.  convention_mode "optimize" picks extremal brackets per
    interval, and "fixed" applies the default ")[" convention at every
    junction.  tol_float is the convergence tolerance of every verdict.
    """

    e_schedule: tuple[Dyadic, ...] = field(default_factory=_default_schedule)
    grid_density: int = 2
    use_special_points: bool = True
    convention_mode: str = "optimize"
    tol_float: float = 1e-6
    max_points: int = 200_000

    def __post_init__(self):
        if not self.e_schedule:
            raise ValueError("e_schedule must not be empty")
        if self.grid_density <= 0:
            raise ValueError("grid_density must be positive")
        if self.max_points <= 0:
            raise ValueError(f"max_points, the point budget of a candidate, "
                             f"must be positive, not {self.max_points!r}")
        if not 0 <= self.tol_float < INF:
            raise ValueError(f"tol_float, the convergence tolerance, must be "
                             f"a finite number >= 0, not {self.tol_float!r}")
        if self.convention_mode not in CONVENTION_MODES:
            raise ValueError(f"convention_mode must be one of "
                             f"{CONVENTION_MODES}, not {self.convention_mode!r}")
        prev = None
        for e in self.e_schedule:
            if e.num <= 0 or (prev is not None and not e < prev):
                raise ValueError("e_schedule must be positive and decreasing")
            prev = e

    def finest(self) -> Dyadic:
        return self.e_schedule[-1]


@dataclass(frozen=True)
class Verdict:
    kind: str                      # converged | diverging | oscillating
    value: Optional[float] = None
    upper: Optional[float] = None
    lower: Optional[float] = None
    tol: Optional[float] = None

    def __str__(self) -> str:
        if self.kind == "converged":
            return f"converged({self.value!r}, tol={self.tol})"
        if self.kind == "diverging":
            return f"diverging({self.value!r})"
        return f"oscillating(upper={self.upper!r}, lower={self.lower!r})"


@dataclass
class LevelEstimate:
    e: Dyadic
    upper: float
    lower: float
    # the winners, as handles that build their divisions when first read
    handle_upper: Optional[Witness] = None
    handle_lower: Optional[Witness] = None
    # per-level values before suffix tightening; growth across levels is the
    # divergence signal, since the true d(e) could only tighten downward
    raw_upper: Optional[float] = None
    raw_lower: Optional[float] = None

    @property
    def witness_upper(self) -> Optional[Division]:
        return self.handle_upper and self.handle_upper.division

    @property
    def witness_lower(self) -> Optional[Division]:
        return self.handle_lower and self.handle_lower.division


@dataclass
class LimitReport:
    """Per-level upper/lower estimates with witnesses and a verdict."""

    levels: list[LevelEstimate]
    verdict: Verdict

    @property
    def upper(self) -> float:
        return self.levels[-1].upper

    @property
    def lower(self) -> float:
        return self.levels[-1].lower


@dataclass
class DefectReport:
    """Additivity-defect scan result at one point."""

    point: Dyadic
    trace: list[tuple[Dyadic, float]]
    c: float
    sigma: float


# ---------------------------------------------------------------------------
# Riemann sums and the per-interval bracket optimizer
# ---------------------------------------------------------------------------

def riemann_sum(g: IntervalFunction, division: Division) -> float:
    """Sum of g over the intervals of a division (extended real)."""
    return xsum(g(iv) for iv in division)


_VARIANTS = ((False, False), (False, True), (True, False), (True, True))
_ALL = (0, 1, 2, 3)
_LOCKS = (None, *_VARIANTS)              # no lock, or a junction lock
# per pair of locks at a span's two ends, the indices into _VARIANTS of
# the variants that honour them
_ALLOWED = {(llock, rlock): tuple(
    k for k, (lc, rc) in enumerate(_VARIANTS)
    if (llock is None or lc == llock[1]) and (rlock is None or rc == rlock[0]))
    for llock in _LOCKS for rlock in _LOCKS}


class Candidate:
    """A candidate point set: integer keys at the exponent ex (key k stands
    for the point k/2^ex), and the (start, stop) index ranges of its runs.
    Consecutive keys of a run bound one interval.  A division's keys are
    sorted, with one run per region component."""

    __slots__ = ("keys", "ex", "runs")

    def __init__(self, keys: list[int], ex: int,
                 runs: list[tuple[int, int]]):
        self.keys, self.ex, self.runs = keys, ex, runs

    @property
    def points(self) -> list[Dyadic]:
        """The points as Dyadics, built anew on each read."""
        ex = self.ex
        return [Dyadic(k, ex) for k in self.keys]


def _score(g: IntervalFunction, cand: Candidate, memo: dict, locks: dict,
           absolute: bool = False):
    """One pass over a candidate's spans that scores both senses.

    memo maps a span's integer endpoints to g's value when g is bracket
    independent, else to its four variant values (a list while a locked
    trace has filled only some), filled as they are needed by g.span
    straight from the keys, span by span in order.  A span with a locked
    end is limited to the variants the junction locks allow: it evaluates
    and scores only those.  Per span, each sense takes the first allowed
    variant unless a later one is strictly better.  absolute scores |g|
    off the same values.
    Returns the values and the variant indices chosen in the max and the
    min sense; a bracket-independent g shares one list between the senses,
    and None stands for the open variant on every span.
    """
    keys, ex, span = cand.keys, cand.ex, g.span
    free = g.bracket_independent
    vals: list = []                      # values, or rows of variant values
    limits: dict = {}                    # span index -> its allowed variants
    for start, stop in cand.runs:
        ks = keys[start:stop]
        pairs = list(zip(ks, ks[1:]))
        got = list(map(memo.get, pairs))
        base = len(vals)
        if locks:
            lk = list(map(locks.get, ks))
            ends = list(map(is_not, lk, repeat(None)))
            for i in compress(count(), map(or_, ends, ends[1:])):
                allowed = _ALLOWED.get((lk[i], lk[i + 1]))
                if allowed is None:          # a lock that is not a Lock
                    a, b = Dyadic(ks[i], ex), Dyadic(ks[i + 1], ex)
                    raise ValueError(f"conflicting locks at {a}..{b}")
                limits[base + i] = allowed
        # a run's spans are distinct, and one that an earlier run shares
        # (a pack pool's runs can) is in the memo by now
        if free:
            for i in compress(count(), map(is_, got, repeat(None))):
                key = pairs[i]
                got[i] = memo[key] = span(*key, ex, False, False)
        else:
            # a row is a tuple once it holds every variant; a limited span
            # leaves a list with None for the variants it did not need
            for i in compress(count(), map(is_not, map(type, got),
                                           repeat(tuple))):
                key, row = pairs[i], got[i] or [None] * 4
                for k in limits.get(base + i, _ALL):
                    if row[k] is None:
                        row[k] = span(*key, ex, *_VARIANTS[k])
                got[i] = memo[key] = row if None in row else tuple(row)
        vals += got
    if free:
        if absolute:
            vals = list(map(abs, vals))
        choice = None
        if limits:                       # the first allowed variant
            choice = [0] * len(vals)
            for i, allowed in limits.items():
                choice[i] = allowed[0]
        return vals, vals, choice, choice
    for i, allowed in limits.items():    # the allowed variants alone
        row = vals[i]
        vals[i] = tuple([row[k] for k in allowed])
    if absolute:                         # |values|, in rows as they are
        vals = ([tuple(map(abs, row)) for row in vals] if limits else
                list(zip(*[map(abs, chain.from_iterable(vals))] * 4)))
    # max and min keep the first value unless a later one is strictly
    # better, so ties and NaN resolve to the first allowed variant
    ups, lows = list(map(max, vals)), list(map(min, vals))
    up_k = list(map(tuple.index, vals, ups))
    low_k = list(map(tuple.index, vals, lows))
    for i, allowed in limits.items():    # back to indices into _VARIANTS
        up_k[i], low_k[i] = allowed[up_k[i]], allowed[low_k[i]]
    return ups, lows, up_k, low_k


class Witness:
    """The division of a candidate's spans with the chosen variants (None:
    the open variant on every span), built the first time it is read."""

    __slots__ = ("region", "cand", "choice", "_division")

    def __init__(self, region: Region, cand: Candidate,
                 choice: Optional[list[int]]):
        self.region, self.cand, self.choice = region, cand, choice
        self._division: Optional[Division] = None

    @property
    def division(self) -> Division:
        if self._division is None:
            pts, raw = self.cand.points, Interval.raw
            kinds = iter(self.choice or [0] * len(pts))
            self._division = Division(self.region, [
                raw(pts[i], pts[i + 1], *_VARIANTS[next(kinds)])
                for start, stop in self.cand.runs
                for i in range(start, stop - 1)], tuple(pts))
        return self._division


def extremal_sum(
    g: IntervalFunction,
    points: Sequence[Dyadic],
    region: Region,
    sense: str = "max",
) -> tuple[float, Division]:
    """Exact optimum of the Riemann sum over all bracket assignments.

    Assignments are unconstrained across intervals, so the optimum is the
    sum of per-interval optima over each span's four variants.  Ties break
    to the lexicographically smallest assignment, open before closed, left
    to right.
    """
    if sense not in ("max", "min"):
        raise ValueError("sense must be 'max' or 'min'")
    runs, start = [], 0
    for run in _component_runs(region, points):
        runs.append((start, start + len(run)))
        start += len(run)
    ex = max((p.exp for p in points), default=0)
    keys = [_key(p, ex) for p in points]
    cand = Candidate(keys, ex, runs)
    ups, lows, up_k, low_k = _score(g, cand, {}, {})
    if sense == "max":
        return xsum(ups), Witness(region, cand, up_k).division
    return xsum(lows), Witness(region, cand, low_k).division


def brute_force_extremal(
    g: IntervalFunction,
    points: Sequence[Dyadic],
    region: Region,
    sense: str = "max",
) -> float:
    """Exhaustive 4**m oracle for extremal_sum (small m only)."""
    import numpy as np

    base = division_from_points(region, points)
    rows = []
    for iv in base:
        rows.append([g(Interval(iv.lo, iv.hi, lc, rc))
                     for lc, rc in _VARIANTS])
    acc = np.zeros((1,))
    for row in rows:
        acc = (acc[:, None] + np.asarray(row)[None, :]).reshape(-1)
    return float(acc.max() if sense == "max" else acc.min())


# ---------------------------------------------------------------------------
# Candidate point sets, built on integer keys at one exponent per level
# ---------------------------------------------------------------------------

def _key(p: Dyadic, ex: int) -> int:
    """p * 2**ex, an integer when ex >= p.exp."""
    return p.num << (ex - p.exp)


def _comp_keys(region: Region, ex: int) -> list[tuple[int, int]]:
    return [(_key(lo, ex), _key(hi, ex)) for lo, hi in region.components]


def _level_exponent(region: Region, e: Dyadic, exps: Sequence[int]) -> int:
    """An exponent that holds e, the region's ends, the exponents exps and
    every midpoint a fill below e inserts in one of the region's gaps."""
    ex = max(e.exp, *exps, *(p.exp for p in region.endpoints()))
    ek = _key(e, ex)
    return ex + max(((hi - lo) // ek).bit_length()
                    for lo, hi in _comp_keys(region, ex))


def _grid_spacing(e: Dyadic, density: int) -> Dyadic:
    """Largest power of two not above e/density."""
    k = floor_log2(e)
    spacing = Dyadic(1, -k)
    target = e.as_fraction()
    while spacing.as_fraction() * density > target:
        spacing = spacing.half()
    return spacing


def _check_grid(region: Region, spacing: Dyadic, cap: int) -> None:
    """Fail unless the grid at spacing, with each component's right end,
    fits the point budget cap.  It counts on integers, before the grid or
    g's special points are built: a wide region's special points can be as
    many as its grid's."""
    ex = max(spacing.exp, *(p.exp for p in region.endpoints()))
    sp = _key(spacing, ex)
    if sum((hi - lo + sp - 1) // sp + 1
           for lo, hi in _comp_keys(region, ex)) > cap:
        raise BudgetExceeded(f"grid needs more than {cap} points")


def _check_finest_grid(region: Region, cfg: SearchConfig) -> None:
    """_check_grid at the finest norm bound of cfg, for the searches that
    ask g for its special points at that bound."""
    _check_grid(region, _grid_spacing(cfg.finest(), cfg.grid_density),
                cfg.max_points)


def _grid_keys(comps: list[tuple[int, int]], start: int,
               step: int) -> list[int]:
    """Keys lo + start + j*step below hi, component by component."""
    return [k for lo, hi in comps for k in range(lo + start, hi, step)]


def _fill_keys(keys: list[int], comps: list[tuple[int, int]], ek: int,
               cap: int) -> tuple[list[int], list[tuple[int, int]]]:
    """Insert points into sorted distinct keys until every in-component gap
    is below ek; keys outside the components are dropped.

    A gap is cut into 2**d equal parts, d the fewest halvings that bring it
    below ek: the points recursive bisection inserts, so the keys' exponent
    must hold them.  Bisection checks the budget before each split, which
    fails exactly when len(out) + 2**d - 2 > cap.  Returns the keys and
    each component's (start, stop) range in them.
    """
    out: list[int] = []
    runs: list[tuple[int, int]] = []
    for lo, hi in comps:
        i, j = bisect_left(keys, lo), bisect_right(keys, hi)
        start = len(out)
        for a, b in zip(islice(keys, i, j), islice(keys, i + 1, j)):
            out.append(a)
            d = ((b - a) // ek).bit_length()
            if d:
                if len(out) + (1 << d) - 2 > cap:
                    raise BudgetExceeded(f"fill needs more than {cap} points")
                step = (b - a) >> d
                out.extend(range(a + step, b, step))
        out += keys[max(i, j - 1):j]
        runs.append((start, len(out)))
    return out, runs


def _fill(key_sets, region: Region, e: Dyadic, ex: int, cap: int,
          fixed: Sequence[int] = ()) -> list[Candidate]:
    """The candidates of key sets at the exponent ex (_level_exponent):
    each set with the fixed keys and the region's ends, clipped to the
    components and filled below e, without repeats.  A Candidate among
    the sets is one this filler already gave, and is taken as it is."""
    comps, ek = _comp_keys(region, ex), _key(e, ex)
    fixed = [*fixed, *(k for comp in comps for k in comp)]
    out: list[Candidate] = []
    for cand in key_sets:
        if not isinstance(cand, Candidate):
            keys, runs = _fill_keys(sorted(set(cand).union(fixed)), comps, ek,
                                    cap)
            cand = Candidate(keys, ex, runs)
        if all(cand.keys != c.keys for c in out):
            out.append(cand)
    return out


def candidate_point_sets(
    g: IntervalFunction,
    region: Region,
    e: Dyadic,
    cfg: SearchConfig,
    extra: Sequence[Dyadic] = (),
) -> list[Candidate]:
    """The candidate family at norm bound e, all gaps strictly below e.

    The family: the grid, the offset grid, the grid with the special
    points, the special points alone and the latter with every gap's
    midpoint (the jitter), each with the extra points and filled below e,
    without repeats.  Every candidate keys its points at one exponent.
    """
    spacing = _grid_spacing(e, cfg.grid_density)
    _check_grid(region, spacing, cfg.max_points)
    specials = (g.special_points(region, e) if cfg.use_special_points else [])
    # the offset grid avoids interior alignment points (e.g. the origin);
    # one exponent holds its half step, the special and extra points,
    # every fill midpoint and, one halving further, every jitter midpoint
    ex = _level_exponent(region, e, [spacing.exp + 1, *(
        p.exp for p in (*specials, *extra))]) + 1
    comps, sp = _comp_keys(region, ex), _key(spacing, ex)
    fixed = [_key(p, ex) for p in extra]
    grid = _grid_keys(comps, 0, sp)
    sets = [grid, _grid_keys(comps, sp >> 1, sp)]
    if specials:
        spec = [_key(p, ex) for p in specials]
        filled = _fill([spec], region, e, ex, cfg.max_points, fixed)[0]
        keys = filled.keys
        # the filler drops the midpoints that fall in the region's gaps
        sets += [grid + spec, filled,
                 keys + [(a + b) >> 1 for a, b in zip(keys, keys[1:])]]
    return _fill(sets, region, e, ex, cfg.max_points, fixed)


# ---------------------------------------------------------------------------
# Norm-limits
# ---------------------------------------------------------------------------

def _search_levels(g: IntervalFunction, cfg: SearchConfig,
                   traces: Sequence[tuple],
                   level) -> list[list[LevelEstimate]]:
    """Untightened level estimates of several traces over shared candidates.

    level(e) is the selection rule: it gives the region and the candidates
    at norm bound e, all keyed at one exponent.  A trace is
    (locks_for_level or None, absolute): its junction locks per level, and
    whether it scores |g| instead of g; convention_mode "fixed" puts the
    default convention at every point instead.  At each level every
    candidate is scored once per trace, all against one memo of g's values
    that is dropped when the level ends.  A candidate replaces a trace's
    best only on a strict improvement; the winners' divisions are built
    only when they are read.
    """
    out: list[list[LevelEstimate]] = [[] for _ in traces]
    fixed = cfg.convention_mode == "fixed"
    for e in cfg.e_schedule:
        level_locks = [lf(e) if lf else {} for lf, _ in traces]
        region, cands = level(e)
        ex = cands[0].ex
        ilocks = [{_key(p, ex): lock for p, lock in locks.items()
                   if p.exp <= ex} for locks in level_locks]
        memo: dict = {}
        best = [[-INF, INF, None, None] for _ in traces]
        for cand in cands:
            every = (dict.fromkeys(cand.keys, DEFAULT_CONVENTION)
                     if fixed else None)
            for (_, absolute), locks, b in zip(traces, ilocks, best):
                ups, lows, up_k, low_k = _score(g, cand, memo, every or locks,
                                                absolute)
                up = xsum(ups)
                low = up if lows is ups else xsum(lows)
                if up > b[0]:
                    b[0], b[2] = up, Witness(region, cand, up_k)
                if low < b[1]:
                    b[1], b[3] = low, Witness(region, cand, low_k)
        for levels, b in zip(out, best):
            levels.append(LevelEstimate(e, *b))
    return out


def _norm_search(
    g: IntervalFunction,
    region: Region,
    cfg: Optional[SearchConfig],
    traces: Sequence[tuple],
    extra_points: Sequence[Dyadic] = (),
    mandatory_for_level=None,
) -> list[LimitReport]:
    """Norm-limit reports of several traces over the candidate family of
    each level, with the extra points and the level's mandatory points."""
    cfg = cfg or SearchConfig()
    if region.is_empty:
        raise ValueError("region is empty")

    def level(e: Dyadic):
        mandatory = mandatory_for_level(e) if mandatory_for_level else []
        return region, candidate_point_sets(g, region, e, cfg,
                                            [*extra_points, *mandatory])

    return [_tightened_report(levels, cfg.tol_float)
            for levels in _search_levels(g, cfg, traces, level)]


def _tightened_report(levels: list[LevelEstimate], tol: float) -> LimitReport:
    """Record each level's raw values, suffix-tighten the trace in place,
    witness handles along (a division admissible at a fine bound is
    admissible at every coarser one), and judge it against tol."""
    for lv in levels:
        lv.raw_upper, lv.raw_lower = lv.upper, lv.lower
    for i in range(len(levels) - 2, -1, -1):
        fine, coarse = levels[i + 1], levels[i]
        if fine.upper > coarse.upper:
            coarse.upper = fine.upper
            coarse.handle_upper = fine.handle_upper
        if fine.lower < coarse.lower:
            coarse.lower = fine.lower
            coarse.handle_lower = fine.handle_lower
    return LimitReport(levels, _verdict(levels, tol))


def _growth_diverging(values: list[float]) -> bool:
    if values[-1] > DIVERGENCE_THRESHOLD:
        return True
    tail = values[-4:]
    if len(tail) < 4:
        return False
    return all(b >= 1.5 * a and b > a + 1e-12 for a, b in zip(tail, tail[1:])
               ) and tail[0] > 0


def _verdict(levels: list[LevelEstimate], tol: float) -> Verdict:
    # divergence here is by magnitude alone; sustained-growth detection
    # belongs to the variation verdicts, where saturation cannot occur
    ups = [lv.upper for lv in levels]
    lows = [lv.lower for lv in levels]
    up, low = ups[-1], lows[-1]
    if up > DIVERGENCE_THRESHOLD:
        if low < -DIVERGENCE_THRESHOLD:
            return Verdict("oscillating", upper=INF, lower=-INF)
        return Verdict("diverging", value=INF)
    if low < -DIVERGENCE_THRESHOLD:
        return Verdict("diverging", value=-INF)
    stabilized = (len(levels) >= 2
                  and abs(ups[-1] - ups[-2]) <= tol
                  and abs(lows[-1] - lows[-2]) <= tol)
    if abs(up - low) <= tol and stabilized:
        return Verdict("converged", value=0.5 * (up + low), tol=tol)
    return Verdict("oscillating", upper=up, lower=low)


def estimate_norm_limits(
    g: IntervalFunction,
    region: Region,
    cfg: Optional[SearchConfig] = None,
    extra_points: Sequence[Dyadic] = (),
) -> LimitReport:
    """Estimate the upper and lower norm-limits of g over a region.

    For each e in the schedule the upper estimate is the largest extremal
    sum over the candidate family; the verdict compares the finest-level
    envelope against the tolerance.
    """
    return _norm_search(g, region, cfg, [(None, False)], extra_points)[0]


def _iterated_search(build, region: Region, cfg: SearchConfig,
                     bracket_independent: bool, special_points=None):
    """The shared builder of iterated limits: an inner report per outer
    span, and one-level outer searches of bounds read off them.

    inner(a, b, ex, *brackets) is build's report on the span a/2^ex ..
    b/2^ex, cached by the span's keys reduced to their lowest exponent and
    by the brackets; build gets the reduced keys.  bound(read, best, e) is
    the report at the one norm bound e of the column bound best(read(a, b,
    ex, *v) for v in variants), which is bracket independent, so a search
    sums only the sense it reads.  The variants are ")[" alone under
    convention_mode "fixed", else the open variant when the integrand is
    bracket independent, else all four.
    """
    variants = (((True, False),) if cfg.convention_mode == "fixed"
                else _VARIANTS[:1] if bracket_independent else _VARIANTS)
    cache: dict = {}

    def inner(a: int, b: int, ex: int, *brackets) -> LimitReport:
        s = min(ex, ((a | b) & -(a | b)).bit_length() - 1)
        key = (a >> s, b >> s, ex - s, *brackets)
        if key not in cache:
            cache[key] = build(*key)
        return cache[key]

    def bound(read, best, e: Dyadic) -> LimitReport:
        g = IntervalFunction(
            "column_bound", span=lambda a, b, ex, lc, rc: best(
                read(a, b, ex, *v) for v in variants),
            bracket_independent=True, special_points=special_points)
        return estimate_norm_limits(g, region, replace(cfg, e_schedule=(e,)))

    return inner, bound


def _permanent_schedule(g: IntervalFunction, region: Region,
                        permanent: Sequence[tuple[Dyadic, Optional[Lock]]]):
    """Per-level junction locks and mandatory points: the permanent points
    in the region, extended along g's singular-point enumeration."""
    supplied = [(p, lock) for p, lock in permanent if region.contains_point(p)]

    def merged(e: Dyadic) -> list[tuple[Dyadic, Optional[Lock]]]:
        out = dict(supplied)
        for p, lock in g.singular_schedule(region, e):
            out.setdefault(p, lock)
        return list(out.items())

    def locks_for(e: Dyadic) -> dict:
        return {p: lock for p, lock in merged(e) if lock is not None}

    def mandatory_for(e: Dyadic) -> list[Dyadic]:
        return [p for p, _ in merged(e)]

    return locks_for, mandatory_for


def estimate_k_limits(
    g: IntervalFunction,
    region: Region,
    permanent: Sequence[tuple[Dyadic, Optional[Lock]]],
    cfg: Optional[SearchConfig] = None,
) -> LimitReport:
    """Norm-limits over divisions holding permanent points with fixed
    conventions.

    An empty permanent list reduces exactly to estimate_norm_limits.  When
    the function publishes a singular-point enumeration, the permanent
    list is extended along it as e shrinks (the joint limit is monotone in
    both parameters, so the path does not matter); a lock of None keeps
    the point mandatory with free brackets.
    """
    if not permanent:
        return estimate_norm_limits(g, region, cfg)
    locks_for, mandatory_for = _permanent_schedule(g, region, permanent)
    return _norm_search(g, region, cfg, [(locks_for, False)],
                        mandatory_for_level=mandatory_for)[0]


def k_chain_reports(
    g: IntervalFunction,
    region: Region,
    permanent: Sequence[tuple[Dyadic, Optional[Lock]]],
    cfg: Optional[SearchConfig] = None,
) -> tuple[LimitReport, LimitReport]:
    """Norm and k reports over shared candidates.

    One level loop builds the candidates once, with the k run's mandatory
    points, and scores the locked k run and the free norm run against one
    memo, so the chain lower_N <= lower_k <= upper_k <= upper_N holds at
    every level by construction: the k assignments are a subset of the
    free ones.
    """
    locks_for, mandatory_for = _permanent_schedule(g, region, permanent)
    k_rep, n_rep = _norm_search(g, region, cfg,
                                [(locks_for, False), (None, False)],
                                mandatory_for_level=mandatory_for)
    return n_rep, k_rep


def estimate_sigma_limit(
    g: IntervalFunction,
    region: Region,
    cfg: Optional[SearchConfig] = None,
) -> LimitReport:
    """Limit over the refinement order: divisions containing a base
    division's points.

    Builds a nested chain of point sets and takes the bracket-assignment
    envelope at each stage; the limit exists when the envelope collapses.
    """
    cfg = cfg or SearchConfig()
    if region.is_empty:
        raise ValueError("region is empty")
    chain, cex = [], 0           # the last stage's keys at their exponent

    def level(e: Dyadic):
        nonlocal chain, cex
        spacing = _grid_spacing(e, cfg.grid_density)
        _check_grid(region, spacing, cfg.max_points)
        specials = (g.special_points(region, e) if cfg.use_special_points
                    else [])
        ex = _level_exponent(region, e, [cex, spacing.exp,
                                         *(p.exp for p in specials)])
        keys = _grid_keys(_comp_keys(region, ex), 0, _key(spacing, ex))
        keys += [k << (ex - cex) for k in chain]
        keys += [_key(p, ex) for p in specials]
        stage, = _fill([keys], region, e, ex, cfg.max_points)
        # the smallest exponent that holds the chain, so that the fill depth
        # is not added again at every level
        shift = min(ex, *((k & -k).bit_length() - 1 for k in stage.keys if k))
        chain, cex = [k >> shift for k in stage.keys], ex - shift
        return region, [stage]

    levels, = _search_levels(g, cfg, [(None, False)], level)
    return LimitReport(levels, _verdict(levels, cfg.tol_float))


# ---------------------------------------------------------------------------
# Additivity defects and the singularity scan
# ---------------------------------------------------------------------------

def _split_scores(whole: list[float], left: list[float],
                  right: list[float]) -> tuple[float, float]:
    """The split defect over the bracket choices, and the two-sided defect
    max(split defect, pair spread), from the variant values."""
    # max keeps 0.0 unless a later value is strictly larger, so NaN is skipped
    c = max([0.0] + [abs(w - a - b) for w in whole for a in left
                     for b in right])
    sums = [a + b for a in left for b in right]
    return c, max(c, max(sums) - min(sums))


def _triple_values(g: IntervalFunction, x: int, y: int, z: int, ex: int,
                   memo: dict) -> list[list[float]]:
    """g over the bracket variants of x..z, x..y and y..z, keys at ex, in
    canonical order: the open variant alone when g is bracket independent,
    since the others equal it.  memo maps each key pair already seen to
    them."""
    variants = _VARIANTS[:1] if g.bracket_independent else _VARIANTS
    out = []
    for key in ((x, z), (x, y), (y, z)):
        if key not in memo:
            memo[key] = [g.span(*key, ex, lc, rc) for lc, rc in variants]
        out.append(memo[key])
    return out


def additivity_defect(g: IntervalFunction, x: Dyadic, y: Dyadic,
                      z: Dyadic) -> float:
    """Maximum of |g(x..z) - g(x..y) - g(y..z)| over the 64 bracket choices."""
    if not (x < y < z):
        raise ValueError("need x < y < z")
    ex = max(x.exp, y.exp, z.exp)
    return _split_scores(*_triple_values(
        g, _key(x, ex), _key(y, ex), _key(z, ex), ex, {}))[0]


def _probe_grid(region: Region) -> list[Dyadic]:
    """17 evenly spaced points per component, both ends included."""
    out: list[Dyadic] = []
    for lo, hi in region.components:
        spacing = (hi - lo) * Dyadic(1, 4)
        p = lo
        while p <= hi:
            out.append(p)
            p = p + spacing
    return out


def scan_candidates(g: IntervalFunction, region: Region,
                    cfg: SearchConfig) -> list[Dyadic]:
    """Points to probe: special-point midpoints first (accumulation points
    live there), then the specials, then a coarse grid; capped at 64."""
    _check_finest_grid(region, cfg)
    specials = g.special_points(region, cfg.finest())
    mids = [dmid(a, b) for a, b in zip(specials, specials[1:])]
    out: list[Dyadic] = []
    seen = set()
    for p in mids + specials + _probe_grid(region):
        if p in seen or not any(lo < p < hi for lo, hi in region.components):
            continue
        seen.add(p)
        out.append(p)
        if len(out) == 64:
            break
    return out


def _defect_at(g: IntervalFunction, y: Dyadic, cfg: SearchConfig,
               pool: tuple, memo: dict) -> DefectReport:
    """The defect trace at y over triples x < y < z of the keyed pool from
    _triple_pool.  x and z must lie in y's component: the outer span of a
    triple that crosses a gap is not in the region."""
    keys, ex, comps = pool
    yk = _key(y, ex)
    lo, hi = next((lo, hi) for lo, hi in comps if lo < yk < hi)
    below, above = _neighbours(keys, yk)
    below = [k for k in below if k >= lo]
    above = [k for k in above if yk < k <= hi][:4]
    # the triples inside the coarsest window, by the larger of their gaps,
    # in order; a finer window holds some of them, so the traces are
    # non-increasing as they stand
    ek = _key(cfg.e_schedule[0], ex)
    scored = [(max(yk - x, z - yk), *_split_scores(*_triple_values(
        g, x, yk, z, ex, memo))) for x in below if yk - x < ek
        for z in above if z - yk < ek]
    trace = []
    sigma_trace = []
    for e in cfg.e_schedule:
        ek = _key(e, ex)
        trace.append((e, max([0.0] + [c for d, c, _ in scored if d < ek])))
        sigma_trace.append((e, max([0.0] + [s for d, _, s in scored
                                            if d < ek])))
    return DefectReport(y, trace, trace[-1][1], sigma_trace[-1][1])


def _triple_pool(g: IntervalFunction, region: Region, cfg: SearchConfig,
                 ys: Sequence[Dyadic]) -> tuple:
    """The defect scan's pool of special, end and probe points as sorted
    distinct keys at one exponent, which also holds the points ys and
    every norm bound, with that exponent and the components' keys."""
    _check_finest_grid(region, cfg)
    pts = [*g.special_points(region, cfg.finest())[:1024],
           *region.endpoints(), *_probe_grid(region)]
    ex = max(p.exp for p in (*pts, *ys, *cfg.e_schedule))
    return sorted({_key(p, ex) for p in pts}), ex, _comp_keys(region, ex)


def _neighbours(keys: list[int], yk: int) -> tuple[list[int], list[int]]:
    """The up to four keys of a sorted pool below yk, and the up to five
    from yk upward."""
    idx = bisect_left(keys, yk)
    return keys[max(0, idx - 4):idx], keys[idx:idx + 5]


def singularity_scan(
    g: IntervalFunction,
    region: Region,
    cfg: Optional[SearchConfig] = None,
) -> list[DefectReport]:
    """Estimate the additivity-defect function at special and grid points.

    Returns the points whose defect estimate exceeds cfg.tol_float; an
    additive bracket-independent function yields an empty list.
    """
    cfg = cfg or SearchConfig()
    if g.additive and g.bracket_independent:
        return []
    scan = scan_candidates(g, region, cfg)
    pool = _triple_pool(g, region, cfg, scan)
    memo: dict = {}                      # key pair -> its variant values
    reports = [_defect_at(g, y, cfg, pool, memo) for y in scan]
    return [r for r in reports if r.c > cfg.tol_float]


def defect_report_at(g: IntervalFunction, region: Region, y: Dyadic,
                     cfg: Optional[SearchConfig] = None) -> DefectReport:
    """Defect trace at one chosen point, interior to the region."""
    if not any(lo < y < hi for lo, hi in region.components):
        raise ValueError(f"{y} is not interior to {region}")
    cfg = cfg or SearchConfig()
    return _defect_at(g, y, cfg, _triple_pool(g, region, cfg, [y]), {})
