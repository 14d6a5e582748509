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
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .catalog import INF, IntervalFunction
from .core import Dyadic, Interval, Region, dmax, dmin
from .errors import BracketDependent
from .integrator import (
    LimitReport,
    SearchConfig,
    _fill,
    _growth_diverging,
    _key,
    _neighbours,
    _norm_search,
    _score,
    _search_levels,
    _triple_pool,
    scan_candidates,
)

AC_THRESHOLD = 1e-3          # pack value below this at mu = 2^-12 passes AC


@dataclass
class VariationReport:
    levels: list[tuple[Dyadic, float]]     # per-e Var estimates
    verdict: str                           # "finite" | "infinite"
    total: float                           # finest Var estimate (inf if not)
    a_bound: float                         # A(R): max |norm-limit| estimate
    j_table: list[tuple[Dyadic, float]]
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
    scan_j: bool = True,
) -> VariationReport:
    """Estimate Var(g; region) as the upper norm-limit of |g|."""
    cfg = cfg or SearchConfig()
    # |g| is scored off g's values, over the candidates of g's own search
    abs_report, base_report = _norm_search(g, region, cfg,
                                           [(None, True), (None, False)])
    levels = [(lv.e, lv.upper) for lv in abs_report.levels]
    infinite = _growth_diverging([lv.raw_upper for lv in abs_report.levels])
    a_bound = max(abs(base_report.upper), abs(base_report.lower))
    j_table = []
    if scan_j:
        for y in scan_candidates(g, region, cfg)[:8]:
            j_table.append((y, j_singularity(g, region, y, cfg)))
    return VariationReport(
        levels=levels,
        verdict="infinite" if infinite else "finite",
        total=INF if infinite else levels[-1][1],
        a_bound=a_bound,
        j_table=j_table,
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
    keys, ex, _ = _triple_pool(g, region, cfg, [y])
    below, above = _neighbours(keys, _key(y, ex))
    anchors = [Dyadic(k, ex) for k in below + above]

    def level(e: Dyadic):
        window = _window(region, y, e)
        fine = e.half().half()
        near = [p for p in anchors if window.contains_point(p)]
        base = window.endpoints() + near + g.special_points(window, fine)
        # one candidate splits at y, one straddles it
        return window, _fill([base + [y], [p for p in base if p != y]],
                             window, fine, cfg.max_points)

    levels, = _search_levels(g, cfg, [(None, True)], level)
    trace = [lv.upper for lv in levels]
    return INF if _growth_diverging(trace) else trace[-1]


# ---------------------------------------------------------------------------
# Pack search: absolute continuity and variation splits
# ---------------------------------------------------------------------------

POOL_CAP = 1 << 13


def _pack_candidates(g: IntervalFunction, region: Region,
                     cfg: SearchConfig) -> list[Interval]:
    """Candidate pack intervals: special-point gaps plus dyadic cells."""
    pool: list[Interval] = []
    specials = g.special_points(region, cfg.finest())
    for lo, hi in region.components:
        run = [p for p in specials if lo <= p <= hi]
        for a, b in zip(run, run[1:]):
            if a < b:
                pool.append(Interval(a, b, True, True))
        for depth in (4, 6, 8, 10, 12):
            h = (hi - lo) * Dyadic(1, depth)
            p = lo
            while p < hi:
                q = dmin(p + h, hi)
                pool.append(Interval(p, q, True, True))
                p = q
    return pool


class _ScoredPool:
    """A pack pool with each interval's variants evaluated once: the float
    lengths and, for "max" and for "min", the optimal values with the
    variants attaining them (ties keep the first variant).  Spans compare
    as integers at the pool's largest exponent E."""

    __slots__ = ("pool", "lengths", "best", "E")

    def __init__(self, g: IntervalFunction, pool: Sequence[Interval]):
        self.pool = list(pool)
        self.E = max((max(iv.lo.exp, iv.hi.exp) for iv in pool), default=0)
        self.lengths = [float(iv.length) for iv in pool]
        if g.bracket_independent:
            vals = [g(iv) for iv in pool]
            self.best = {"max": (vals, self.pool), "min": (vals, self.pool)}
            return
        self.best = {"max": ([], []), "min": ([], [])}
        for iv in pool:
            variants = iv.variants()
            vals = [g(v) for v in variants]
            i_max = i_min = 0
            for k in range(1, 4):
                if vals[k] > vals[i_max]:
                    i_max = k
                if vals[k] < vals[i_min]:
                    i_min = k
            for sense, k in (("max", i_max), ("min", i_min)):
                self.best[sense][0].append(vals[k])
                self.best[sense][1].append(variants[k])

    def cap(self, n: int) -> None:
        """Keep the n intervals of highest max-sense value density, ties
        to the leftmost."""
        vals = self.best["max"][0]
        keep = sorted(range(len(self.pool)),
                      key=lambda i: (-abs(vals[i]) / self.lengths[i],
                                     _key(self.pool[i].lo, self.E)))[:n]

        def pick(col):
            return [col[i] for i in keep]

        self.pool, self.lengths = pick(self.pool), pick(self.lengths)
        self.best = {s: (pick(v), pick(b)) for s, (v, b) in self.best.items()}

    def ranked(self, sense: str) -> list[tuple]:
        """Intervals whose optimum has the sense's sign, by decreasing value
        density, then by span: (-density, lo, hi, value, variant)."""
        vals, variants = self.best[sense]
        out = []
        for iv, length, val, biv in zip(self.pool, self.lengths, vals,
                                        variants):
            if (sense == "max" and val <= 0) or (sense == "min" and val >= 0):
                continue
            out.append((-(abs(val) / length), _key(iv.lo, self.E),
                        _key(iv.hi, self.E), val, biv))
        out.sort(key=lambda t: (t[0], t[1], t[2]))
        return out

    def pack(self, mu, sense: str) -> tuple[float, list[Interval]]:
        """The greedy pack of measure at most mu, as pack_search."""
        return _greedy(self.E, self.ranked(sense), mu)


def scored_pack_pool(g: IntervalFunction, region: Region,
                     cfg: SearchConfig) -> _ScoredPool:
    """The pack pool, scored and capped at POOL_CAP intervals."""
    scored = _ScoredPool(g, _pack_candidates(g, region, cfg))
    if len(scored.pool) > POOL_CAP:
        scored.cap(POOL_CAP)
    return scored


def _greedy(E: int, ranked: list[tuple], mu) -> tuple[float, list[Interval]]:
    """Take ranked intervals in order while they fit the measure budget mu
    and overlap nothing taken; spans and measures are integers at E."""
    mu = Fraction(mu)
    budget = (mu.numerator << E) // mu.denominator      # floor(mu * 2^E)
    taken_spans: list[tuple[int, int]] = []
    total_measure = 0
    total_value = 0.0
    chosen: list[Interval] = []
    for _, lo, hi, val, biv in ranked:
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
        chosen.append(biv)
    return total_value, chosen


def pack_search(
    g: IntervalFunction,
    pool: Sequence[Interval],
    mu: Fraction,
    sense: str = "max",
) -> tuple[float, list[Interval]]:
    """Greedy non-overlapping pack of total measure <= mu optimizing sum g.

    Intervals are ranked by value density; the result is a lower bound on
    the true supremum of |sum g| over packs of that measure.
    """
    return _ScoredPool(g, pool).pack(mu, sense)


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


def is_absolutely_semicontinuous(
    g: IntervalFunction,
    region: Region,
    side: str = "upper",
    cfg: Optional[SearchConfig] = None,
) -> bool:
    """One-sided absolute continuity probe.

    Upper: pack sums stay below epsilon as the packs' measure shrinks
    (negative mass may persist); lower is the mirrored statement.
    """
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    cfg = cfg or SearchConfig()
    val, _ = scored_pack_pool(g, region, cfg).pack(
        Fraction(1, 1 << 12), "max" if side == "upper" else "min")
    return abs(val) < AC_THRESHOLD


def monotone_on_subdivision(
    g: IntervalFunction,
    region: Region,
    samples: int = 200,
    seed: int = 7,
) -> str:
    """Classify g under splitting: increases, decreases, both or neither.

    Samples random dyadic triples x < y < z inside one component and tests
    g(I1) + g(I2) against g(I3) over all bracket choices honoring the
    closure split.
    """
    rng = random.Random(seed)
    eps = 1e-12
    always_ge = always_le = True
    for _ in range(samples):
        lo, hi = region.components[rng.randrange(len(region.components))]
        span = hi - lo
        raw = sorted(rng.sample(range(1, (1 << 12) - 1), 3))
        x = lo + span * Dyadic(raw[0], 12)
        y = lo + span * Dyadic(raw[1], 12)
        z = lo + span * Dyadic(raw[2], 12)
        for whole in Interval(x, z).variants():
            g3 = g(whole)
            for left in Interval(x, y).variants():
                for right in Interval(y, z).variants():
                    s = g(left) + g(right)
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
    e = cfg.finest()
    cand, = _fill([g.special_points(sub, e)], sub, e, cfg.max_points)
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
