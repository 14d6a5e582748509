"""Variation, bounded variation, absolute continuity, monotone-on-subdivision
classification, and the four positive/negative variations.

The variation of g over a region is the norm-limit of the sums of |g|; it
is estimated with the same candidate machinery as the plain limits, so the
bound Var >= max(|upper|, |lower|) holds level by level.  Pack searches
(absolute continuity, variation splits) are greedy over a pool built from
special points and dyadic cells, capped in size; reported pack values are
lower bounds on the true suprema.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .catalog import INF, IntervalFunction
from .core import Dyadic, Interval, Region, dmax, dmin
from .errors import BracketDependent
from .integrator import (
    Candidate,
    LimitReport,
    SearchConfig,
    _check_finest_grid,
    _comp_keys,
    _fill,
    _growth_diverging,
    _key,
    _level_exponent,
    _neighbours,
    _norm_search,
    _score,
    _search_levels,
    _triple_pool,
    _triple_values,
)

AC_THRESHOLD = 1e-3          # pack value below this at mu = 2^-12 passes AC


@dataclass
class VariationReport:
    levels: list[tuple[Dyadic, float]]     # per-e Var estimates
    verdict: str                           # "finite" | "infinite"
    total: float                           # finest Var estimate (inf if not)
    a_bound: float                         # A(R): max |norm-limit| estimate
    abs_report: LimitReport
    base_report: LimitReport


@dataclass
class VariationSplit:
    p_upper: float
    n_upper: float
    p_lower: float
    n_lower: float

    def to_json(self) -> str:
        import json
        return json.dumps({"p_upper": self.p_upper, "n_upper": self.n_upper,
                           "p_lower": self.p_lower, "n_lower": self.n_lower})


def variation(
    g: IntervalFunction,
    region: Region,
    cfg: Optional[SearchConfig] = None,
    scan_j: bool = False,
) -> VariationReport:
    """Estimate Var(g; region) as the upper norm-limit of |g|.

    scan_j does nothing; it is accepted because the benchmark's
    scan_variation workload passes scan_j=False.  j_singularity gives the
    local variation at a point.
    """
    cfg = cfg or SearchConfig()
    # |g| is scored off g's values, over the candidates of g's own search
    abs_report, base_report = _norm_search(g, region, cfg,
                                           [(None, True), (None, False)])
    levels = [(lv.e, lv.upper) for lv in abs_report.levels]
    infinite = _growth_diverging([lv.raw_upper for lv in abs_report.levels])
    a_bound = max(abs(base_report.upper), abs(base_report.lower))
    return VariationReport(
        levels=levels,
        verdict="infinite" if infinite else "finite",
        total=INF if infinite else levels[-1][1],
        a_bound=a_bound,
        abs_report=abs_report,
        base_report=base_report,
    )


def _window(region: Region, y: Dyadic, e: Dyadic) -> Region:
    a, b = y - e, y + e
    spans = [(dmax(lo, a), dmin(hi, b)) for lo, hi in region.components]
    return Region([(lo, hi) for lo, hi in spans if lo < hi])


def j_singularity(
    g: IntervalFunction,
    region: Region,
    y: Dyadic,
    cfg: Optional[SearchConfig] = None,
) -> float:
    """Limit of the variation over shrinking windows around y.

    Returns +inf when the window traces keep growing instead of settling;
    a continuous function of bounded variation gives 0.
    """
    cfg = cfg or SearchConfig()
    if not any(lo < y < hi for lo, hi in region.components):
        raise ValueError(f"{y} is not interior to {region}")
    # carry y and the defect scan's nearest anchor points, so any split the
    # defect estimate sees is available here (c <= 2j stays checkable)
    keys, aex, _ = _triple_pool(g, region, cfg, [y])
    below, above = _neighbours(keys, _key(y, aex))

    def level(e: Dyadic):
        window = _window(region, y, e)
        fine = e.half().half()
        specials = g.special_points(window, fine)
        ex = _level_exponent(window, fine, [aex, *(p.exp for p in specials)])
        base = [k << (ex - aex) for k in below + above]
        base += [_key(p, ex) for p in specials]
        yk = _key(y, ex)
        # one candidate splits at y, one straddles it
        return window, _fill([base + [yk], [k for k in base if k != yk]],
                             window, fine, ex, cfg.max_points)

    levels, = _search_levels(g, cfg, [(None, True)], level)
    trace = [lv.upper for lv in levels]
    return INF if _growth_diverging(trace) else trace[-1]


# ---------------------------------------------------------------------------
# Pack search: absolute continuity and variation splits
# ---------------------------------------------------------------------------

POOL_CAP = 1 << 13


def _pack_candidates(g: IntervalFunction, region: Region,
                     cfg: SearchConfig) -> Candidate:
    """Candidate pack intervals keyed at one exponent: per component, the
    run of its special points and the run of its cells at each depth."""
    _check_finest_grid(region, cfg)
    specials = g.special_points(region, cfg.finest())
    E = max([p.exp for p in specials]
            + [p.exp + 12 for p in region.endpoints()], default=0)
    skeys = [_key(p, E) for p in specials]
    keys: list[int] = []
    runs = []
    for lo, hi in _comp_keys(region, E):
        chains = [skeys[bisect_left(skeys, lo):bisect_right(skeys, hi)]]
        chains += [range(lo, hi + 1, (hi - lo) >> depth)
                   for depth in (4, 6, 8, 10, 12)]
        for chain in chains:
            runs.append((len(keys), len(keys) + len(chain)))
            keys.extend(chain)
    return Candidate(keys, E, runs)


def _density(val: float, lo: int, hi: int, scale: int) -> float:
    """|val| per unit length of the keys lo..hi over scale; a length that
    rounds to 0.0 gives +inf, or 0.0 when val is 0."""
    length = (hi - lo) / scale          # rounded once, as float() of a Dyadic
    return abs(val) / length if length else (INF if val else 0.0)


class _ScoredPool:
    """A pack pool scored once by the integrator's scorer: the spans as
    integer key pairs at the exponent E and, for "max" and for "min", the
    optimal values with the indices of the variants attaining them (None
    when g is bracket independent)."""

    __slots__ = ("spans", "best", "E")

    def __init__(self, g: IntervalFunction, cand: Candidate):
        keys, self.E = cand.keys, cand.ex
        self.spans = [(keys[i], keys[i + 1]) for start, stop in cand.runs
                      for i in range(start, stop - 1)]
        ups, lows, up_k, low_k = _score(g, cand, {}, {})
        self.best = {"max": (ups, up_k), "min": (lows, low_k)}

    def cap(self, n: int) -> None:
        """Keep the n spans of highest max-sense value density, ties to the
        leftmost."""
        vals, spans, scale = self.best["max"][0], self.spans, 1 << self.E
        keep = sorted(range(len(spans)), key=lambda i: (
            -_density(vals[i], *spans[i], scale), spans[i][0]))[:n]

        def pick(col):
            return col and [col[i] for i in keep]      # None stays None

        self.spans = pick(self.spans)
        self.best = {s: (pick(v), pick(k)) for s, (v, k) in self.best.items()}

    def ranked(self, sense: str) -> list[tuple]:
        """Spans whose optimum has the sense's sign, by decreasing value
        density, then by span: (-density, lo, hi, value, index)."""
        scale = 1 << self.E
        out = []
        for i, ((lo, hi), val) in enumerate(zip(self.spans,
                                                self.best[sense][0])):
            if (sense == "max" and val <= 0) or (sense == "min" and val >= 0):
                continue
            out.append((-_density(val, lo, hi, scale), lo, hi, val, i))
        out.sort(key=lambda t: (t[0], t[1], t[2]))
        return out

    def pack(self, mu, sense: str) -> tuple[float, list[int]]:
        """The greedy pack of measure at most mu in the sense's order, with
        the indices of the spans it takes; its value is a lower bound on
        the supremum of |sum g| over packs of that measure."""
        return _greedy(self.E, self.ranked(sense), mu)


def scored_pack_pool(g: IntervalFunction, region: Region,
                     cfg: SearchConfig) -> _ScoredPool:
    """The pack pool, scored and capped at POOL_CAP intervals."""
    scored = _ScoredPool(g, _pack_candidates(g, region, cfg))
    if len(scored.spans) > POOL_CAP:
        scored.cap(POOL_CAP)
    return scored


def _greedy(E: int, ranked: list[tuple], mu) -> tuple[float, list[int]]:
    """Take ranked spans in order while they fit the measure budget mu and
    overlap nothing taken; spans and measures are integers at E.  Returns
    the value and the indices of the spans taken."""
    mu = Fraction(mu)
    budget = (mu.numerator << E) // mu.denominator      # floor(mu * 2^E)
    taken_spans: list[tuple[int, int]] = []
    total_measure = 0
    total_value = 0.0
    chosen: list[int] = []
    for _, lo, hi, val, i in ranked:
        m = hi - lo
        if total_measure + m > budget:
            continue
        pos = bisect_left(taken_spans, (lo, hi))
        if pos > 0 and taken_spans[pos - 1][1] > lo:
            continue
        if pos < len(taken_spans) and taken_spans[pos][0] < hi:
            continue
        insort(taken_spans, (lo, hi))
        total_measure += m
        total_value += val
        chosen.append(i)
    return total_value, chosen


def is_absolutely_continuous(
    g: IntervalFunction,
    region: Region,
    cfg: Optional[SearchConfig] = None,
    scored: Optional[_ScoredPool] = None,
) -> tuple[bool, list[tuple[Fraction, float]]]:
    """Probe whether pack sums vanish with the packs' total measure.

    Over shrinking measure budgets the greedy maximizer of |sum g| is run
    on the candidate pool; AC is declared when the finest budget's maximum
    stays below the fixed threshold.  A caller that also packs the pool
    passes it in as scored, from scored_pack_pool(g, region, cfg).
    """
    cfg = cfg or SearchConfig()
    if scored is None:
        scored = scored_pack_pool(g, region, cfg)
    budgets = [Fraction(1, 1 << k) for k in range(5, 13)]
    best = {}
    for sense in ("max", "min"):
        ranked = scored.ranked(sense)
        best[sense] = [_greedy(scored.E, ranked, mu)[0] for mu in budgets]
    trace = [(mu, max(abs(pos), abs(neg)))
             for mu, pos, neg in zip(budgets, best["max"], best["min"])]
    verdict = trace[-1][1] < AC_THRESHOLD
    return verdict, trace


def monotone_on_subdivision(
    g: IntervalFunction,
    region: Region,
    samples: int = 200,
    seed: int = 7,
) -> str:
    """Classify g under splitting: increases, decreases, both or neither.

    Samples random dyadic triples x < y < z inside one component and tests
    g(I1) + g(I2) against g(I3), I3 = x..z split at y into I1 and I2, for
    each of the 4 x 4 x 4 bracket variants of I3, I1 and I2 independently:
    the halves' brackets need not match I3's at x and z, and both may
    close on y.  A bracket-independent g gives the open variants alone.
    """
    rng = random.Random(seed)
    eps = 1e-12
    always_ge = always_le = True
    for _ in range(samples):
        lo, hi = region.components[rng.randrange(len(region.components))]
        ex = max(lo.exp, hi.exp) + 12
        lok, hik = _key(lo, ex), _key(hi, ex)
        x, y, z = (lok + ((hik - lok) >> 12) * r
                   for r in sorted(rng.sample(range(1, (1 << 12) - 1), 3)))
        whole, left, right = _triple_values(g, x, y, z, ex, {})
        for g3 in whole:
            for a in left:
                for b in right:
                    s = a + b
                    if s < g3 - eps:
                        always_ge = False
                    if s > g3 + eps:
                        always_le = False
        if not (always_ge or always_le):
            return "neither"
    if always_ge and always_le:
        return "both"
    return "increases" if always_ge else "decreases"


def variation_split(
    g: IntervalFunction,
    J: Interval,
    cfg: Optional[SearchConfig] = None,
) -> VariationSplit:
    """Upper/lower positive and negative variations of g inside J.

    Requires a bracket-independent g.  The upper positive variation is the
    greedy supremum of pack sums; the two derived variations are defined
    so that g(J) = p_upper - n_upper = p_lower - n_lower exactly.
    """
    if not g.bracket_independent:
        raise BracketDependent(f"{g.name} depends on bracket conventions")
    cfg = cfg or SearchConfig()
    sub = Region.interval(J.lo, J.hi)
    _check_finest_grid(sub, cfg)
    e = cfg.finest()
    specials = g.special_points(sub, e)
    ex = _level_exponent(sub, e, [p.exp for p in specials])
    cand, = _fill([[_key(p, ex) for p in specials]], sub, e, ex,
                  cfg.max_points)
    p_up = 0.0
    n_low = 0.0
    for v in _score(g, cand, {}, {})[0]:
        if v > 0:
            p_up += v
        elif v < 0:
            n_low -= v
    gj = g(J)
    return VariationSplit(
        p_upper=p_up,
        n_upper=p_up - gj,
        p_lower=n_low + gj,
        n_lower=n_low,
    )
