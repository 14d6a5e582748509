"""The memoized defect scan, the integer pack greedy, the keyed pack pools
and subdivision probe, the integer staircase, the fused max/min pass, the
integer candidate construction, the fixtures' integer span evaluators, the
planar integer cells and Fubini's outer pass on the shared level loop
against the straightforward code they replaced, kept here as references;
results must agree to the last bit (repr equality)."""

import importlib
import random
from bisect import bisect_left, insort
from fractions import Fraction
from math import ldexp

from hypothesis import example, given, settings, strategies as st

import pytest

from burkill import planar, verify
from burkill.around_set import around_limits
from burkill.catalog import (
    IntervalFunction,
    _harmonic_zigzag,
    _zigzag,
    abs_fn,
    cantor_staircase_12,
    cantor_staircase_function,
    fixture,
    fixture_names,
    poly,
    pow2,
    stieltjes,
    xsum,
)
from burkill.core import (
    Division,
    Dyadic,
    Interval,
    Region,
    ZERO,
    dmax,
    dmid,
    dmin,
    floor_log2,
    sort_points,
)
from burkill.density import MeasurableSet, density_integral
from burkill.errors import BudgetExceeded, IndeterminateForm
from burkill.integrator import (
    Candidate,
    DefectReport,
    SearchConfig,
    Witness,
    _comp_keys,
    _defect_at,
    _fill,
    _key,
    _level_exponent,
    _probe_grid,
    _score,
    additivity_defect,
    candidate_point_sets,
    defect_report_at,
    estimate_k_limits,
    estimate_norm_limits,
    estimate_sigma_limit,
    LevelEstimate,
    _tightened_report,
    k_chain_reports,
)
from burkill.planar import (
    FubiniReport,
    Rect,
    RectFunction,
    _chop,
    area_function,
    bottom_strips_function,
    closed_rect,
    estimate_norm_limits_2d,
    fubini_chain,
    planar_config,
    product_function,
    two_squares_function,
)
from burkill.reporting import density_report_json, limit_report_json
from burkill.variation import (
    _ScoredPool,
    _pack_candidates,
    is_absolutely_continuous,
    monotone_on_subdivision,
    scored_pack_pool,
)
from keyed_inputs import cell_rects, scored_pool
from oracles import is_pow2, with_brackets

INF = float("inf")
# the package exports the function variation() under the module's name
variation_mod = importlib.import_module("burkill.variation")
integrator_mod = importlib.import_module("burkill.integrator")

# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------


def ref_additivity_defect(g, x, y, z):
    best = 0.0
    whole = [g(v) for v in Interval(x, z).variants()]
    left = [g(v) for v in Interval(x, y).variants()]
    right = [g(v) for v in Interval(y, z).variants()]
    for w in whole:
        for a in left:
            for b in right:
                val = abs(w - a - b)
                if val > best:
                    best = val
    return best


def ref_pair_spread(g, x, y, z):
    sums = [a + b
            for a in (g(v) for v in Interval(x, y).variants())
            for b in (g(v) for v in Interval(y, z).variants())]
    return max(sums) - min(sums)


def ref_point_defect(g, x, y, z):
    return max(ref_additivity_defect(g, x, y, z), ref_pair_spread(g, x, y, z))


def ref_defect_at(g, y, cfg, pool, region):
    """Every level rescans its window and rescores every triple, of the up
    to four pool points on each side of y in y's component."""
    lo, hi = next((lo, hi) for lo, hi in region.components if lo < y < hi)
    near_below = [p for p in pool if lo <= p < y][-4:]
    near_above = [p for p in pool if y < p <= hi][:4]
    trace = []
    sigma_trace = []
    for e in cfg.e_schedule:
        below = [p for p in near_below if y - p < e]
        above = [p for p in near_above if p - y < e]
        c_best = 0.0
        s_best = 0.0
        for x in below:
            for z in above:
                c_best = max(c_best, ref_additivity_defect(g, x, y, z))
                s_best = max(s_best, ref_point_defect(g, x, y, z))
        trace.append((e, c_best))
        sigma_trace.append((e, s_best))
    for i in range(len(trace) - 2, -1, -1):
        trace[i] = (trace[i][0], max(trace[i][1], trace[i + 1][1]))
        sigma_trace[i] = (sigma_trace[i][0],
                          max(sigma_trace[i][1], sigma_trace[i + 1][1]))
    return DefectReport(y, trace, trace[-1][1], sigma_trace[-1][1])


def ref_best_value(g, iv, sense):
    if g.bracket_independent:
        return g(iv), iv
    best, best_iv = None, iv
    for v in iv.variants():
        val = g(v)
        if best is None or (val > best if sense == "max" else val < best):
            best, best_iv = val, v
    return best, best_iv


def ref_pack_search(g, pool, mu, sense="max"):
    """The greedy with Fraction spans, measures and sort keys."""
    scored = []
    for iv in pool:
        val, biv = ref_best_value(g, iv, sense)
        if (sense == "max" and val <= 0) or (sense == "min" and val >= 0):
            continue
        density = abs(val) / float(iv.length)
        scored.append((-density, iv.lo.as_fraction(),
                       iv.hi.as_fraction(), val, biv))
    scored.sort(key=lambda t: (t[0], t[1], t[2]))
    taken_spans = []
    total_measure = Fraction(0)
    total_value = 0.0
    chosen = []
    for _, lof, hif, val, biv in scored:
        m = hif - lof
        if total_measure + m > mu:
            continue
        pos = bisect_left(taken_spans, (lof, hif))
        if pos > 0 and taken_spans[pos - 1][1] > lof:
            continue
        if pos < len(taken_spans) and taken_spans[pos][0] < hif:
            continue
        insort(taken_spans, (lof, hif))
        total_measure += m
        total_value += val
        chosen.append(biv)
    return total_value, chosen


def ref_pack_candidates(g, region, cfg):
    """Special-point gaps plus dyadic cells, built in Dyadic arithmetic."""
    pool = []
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


def ref_density(val, length):
    """|val| / length; a float length of 0.0 gives +inf, or 0.0 when val
    is 0."""
    if length == 0.0:
        return INF if val else 0.0
    return abs(val) / length


class RefScoredPool:
    """The pack pool scored by its own variant loop on Intervals, with a
    float length column and the integer greedy over Intervals."""

    def __init__(self, g, pool):
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

    def cap(self, n):
        vals = self.best["max"][0]
        keep = sorted(range(len(self.pool)),
                      key=lambda i: (-ref_density(vals[i], self.lengths[i]),
                                     _key(self.pool[i].lo, self.E)))[:n]

        def pick(col):
            return [col[i] for i in keep]

        self.pool, self.lengths = pick(self.pool), pick(self.lengths)
        self.best = {s: (pick(v), pick(b)) for s, (v, b) in self.best.items()}

    def ranked(self, sense):
        vals, variants = self.best[sense]
        out = []
        for iv, length, val, biv in zip(self.pool, self.lengths, vals,
                                        variants):
            if (sense == "max" and val <= 0) or (sense == "min" and val >= 0):
                continue
            out.append((-ref_density(val, length), _key(iv.lo, self.E),
                        _key(iv.hi, self.E), val, biv))
        out.sort(key=lambda t: (t[0], t[1], t[2]))
        return out

    def pack(self, mu, sense):
        return ref_greedy(self.E, self.ranked(sense), mu)


def ref_greedy(E, ranked, mu):
    """The greedy on integer spans at E, returning the taken Intervals."""
    mu = Fraction(mu)
    budget = (mu.numerator << E) // mu.denominator
    taken_spans = []
    total_measure = 0
    total_value = 0.0
    chosen = []
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


def ref_monotone_on_subdivision(g, region, samples=200, seed=7):
    """The subdivision probe on the Intervals of Dyadic triples."""
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


def ref_pack_pool(g, region, cfg, pool_cap):
    pool = ref_pack_candidates(g, region, cfg)
    if len(pool) > pool_cap:
        pool = sorted(pool, key=lambda iv: (
            -abs(ref_best_value(g, iv, "max")[0]) / float(iv.length),
            iv.lo.as_fraction()))[:pool_cap]
    return pool


def ref_staircase():
    """The staircase built and evaluated in Fractions."""
    depth, grid = 12, 32
    segs = [(Fraction(0), Fraction(1))]
    for _ in range(depth):
        nxt = []
        for a, b in segs:
            w = (b - a) / 3
            nxt.append((a, a + w))
            nxt.append((b - w, b))
        segs = nxt
    spans = [(Dyadic((a.numerator << grid) // a.denominator, grid),
              Dyadic(-((-b.numerator << grid) // b.denominator), grid))
             for a, b in segs]
    rise = Fraction(1, 1 << depth)

    def ev(x):
        xf = x.as_fraction()
        lo_i, hi_i = 0, len(spans) - 1
        if x <= spans[0][0]:
            return 0.0
        if x >= spans[-1][1]:
            return 1.0
        while lo_i < hi_i:
            mid = (lo_i + hi_i + 1) // 2
            if spans[mid][0] <= x:
                lo_i = mid
            else:
                hi_i = mid - 1
        a, b = spans[lo_i]
        base = rise * lo_i
        if x >= b:
            return float(base + rise)
        frac = (xf - a.as_fraction()) / (b.as_fraction() - a.as_fraction())
        return float(base + rise * frac)

    return ev, spans


def counting(g):
    """g behind a counter of its calls."""
    calls = [0]

    def ev(iv):
        calls[0] += 1
        return g(iv)

    return IntervalFunction(g.name, ev, additive=g.additive,
                            bracket_independent=g.bracket_independent,
                            special_points=g.special_points), calls


# ---------------------------------------------------------------------------
# strategies: bracket-dependent tables with infinities
# ---------------------------------------------------------------------------

TABLE_VALUES = st.one_of(
    st.floats(min_value=-8, max_value=8, allow_nan=False,
              allow_infinity=False),
    st.sampled_from((0.0, 1.0, -1.0, INF, -INF)))


def table_function(values, bkfree=False, specials=()):
    """A deterministic g: each (span, brackets) picks one of the values;
    it publishes the given special points."""
    n = len(values)

    def ev(iv):
        lo = iv.lo.num << (16 - iv.lo.exp)
        hi = iv.hi.num << (16 - iv.hi.exp)
        k = (lo * 7919 + hi * 104729) % 1000003
        if not bkfree:
            k += 2 * iv.left_closed + iv.right_closed
        return values[k % n]

    return IntervalFunction("table", ev, bracket_independent=bkfree,
                            special_points=lambda region, e: list(specials))


POINTS = st.builds(Dyadic, st.integers(-48, 48), st.integers(0, 4))


@st.composite
def defect_cases(draw):
    """A pool whose ends bound one or two region components, and points
    interior to them: pool points or any points."""
    pool = sort_points(draw(st.lists(POINTS, min_size=2, max_size=12,
                                     unique=True)))
    n = len(pool)
    split = draw(st.integers(0, n - 3)) if n >= 4 else 0
    region = Region([(pool[0], pool[split]), (pool[split + 1], pool[-1])]
                    if split else [(pool[0], pool[-1])])
    interior = [p for p in pool if pool[0] < p < pool[-1]]
    ys = draw(st.lists(st.one_of(st.sampled_from(interior), POINTS)
                       if interior else POINTS, min_size=1, max_size=4))
    ys = [y for y in ys if any(lo < y < hi for lo, hi in region.components)]
    ks = sorted(draw(st.sets(st.integers(-3, 6), min_size=1, max_size=5)))
    cfg = SearchConfig(e_schedule=tuple(Dyadic(1, k) if k >= 0
                                        else Dyadic(1 << -k) for k in ks))
    values = draw(st.lists(TABLE_VALUES, min_size=1, max_size=16))
    return pool, region, ys, cfg, table_function(values)


class TestDefectScanReference:
    @settings(max_examples=200, deadline=None)
    @given(defect_cases())
    def test_memo_scan_equals_per_triple_recomputation(self, case):
        pool, region, ys, cfg, g = case
        # the pool keyed as _triple_pool keys it
        ex = max(p.exp for p in (*pool, *ys, *cfg.e_schedule))
        keyed = ([_key(p, ex) for p in pool], ex, _comp_keys(region, ex))
        memo: dict = {}                      # shared across points, as a scan
        for y in ys:
            got = _defect_at(g, y, cfg, keyed, memo)
            assert repr(got) == repr(ref_defect_at(g, y, cfg, pool, region))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(POINTS, min_size=3, max_size=3, unique=True),
           st.lists(TABLE_VALUES, min_size=1, max_size=16))
    def test_defect_wrappers_equal_reference(self, pts, values):
        g = table_function(values)
        x, y, z = sort_points(pts)
        assert repr(additivity_defect(g, x, y, z)) == \
            repr(ref_additivity_defect(g, x, y, z))

    def test_defect_report_evaluates_each_interval_once(self):
        fx = fixture("m_power_singularity")
        g, calls = counting(fx.fn)
        cfg = SearchConfig(e_schedule=tuple(Dyadic(1, k) for k in range(3, 9)))
        defect_report_at(g, fx.region, ZERO, cfg)
        assert calls[0] == 24

    def test_bracket_dependent_defect_evaluates_four_variants(self):
        fx = fixture("origin_indicator")
        seen = []

        def ev(iv):
            seen.append((iv.lo, iv.hi, iv.left_closed, iv.right_closed))
            return fx.fn(iv)

        g = IntervalFunction(fx.fn.name, ev, additive=fx.fn.additive,
                             special_points=fx.fn.special_points)
        cfg = SearchConfig(e_schedule=tuple(Dyadic(1, k) for k in range(3, 9)))
        defect_report_at(g, fx.region, ZERO, cfg)
        spans = {(lo, hi) for lo, hi, _, _ in seen}
        assert len(seen) == len(set(seen)) == 4 * len(spans) == 12


# ---------------------------------------------------------------------------
# pack greedy
# ---------------------------------------------------------------------------

BUDGETS = st.one_of(
    st.builds(lambda n, k: Fraction(n, 1 << k),
              st.integers(0, 64), st.integers(0, 8)),        # dyadic
    st.builds(Fraction, st.integers(0, 200), st.integers(1, 97)))


@st.composite
def pack_cases(draw):
    pool = []
    for lo, hi in draw(st.lists(st.tuples(POINTS, POINTS), max_size=30)):
        if lo != hi:
            lo, hi = min(lo, hi), max(lo, hi)
            pool.append(Interval(lo, hi, draw(st.booleans()),
                                 draw(st.booleans())))
    pool += draw(st.lists(st.sampled_from(pool), max_size=4)) if pool else []
    values = draw(st.lists(TABLE_VALUES, min_size=1, max_size=16))
    g = table_function(values, bkfree=draw(st.booleans()))
    return g, pool


@st.composite
def pool_regions(draw):
    """A region of one or two components and special points in and around
    it, for a table function with or without brackets."""
    pts = sort_points(draw(st.lists(POINTS, min_size=2, max_size=4,
                                    unique=True)))
    region = Region([(pts[0], pts[1])] + ([(pts[2], pts[3])]
                                          if len(pts) == 4 else []))
    specials = draw(st.lists(POINTS, max_size=12))
    values = draw(st.lists(TABLE_VALUES, min_size=1, max_size=16))
    return table_function(values, draw(st.booleans()), specials), region


def dyadic_spans(scored):
    return [(Dyadic(lo, scored.E), Dyadic(hi, scored.E))
            for lo, hi in scored.spans]


def assert_pool_equals_reference(scored, ref, ks=range(14)):
    """Spans in pool order, each sense's values and variants, and the pack
    at each budget 2^-k with the intervals it takes, by repr."""
    assert dyadic_spans(scored) == [(iv.lo, iv.hi) for iv in ref.pool]
    for sense in ("max", "min"):
        assert repr(scored.best[sense][0]) == repr(ref.best[sense][0])
        # each span with its optimal variant, closed for a bracket-free g
        k = scored.best[sense][1]
        best = [Interval(lo, hi, *(VARIANTS[k[i]] if k else (True, True)))
                for i, (lo, hi) in enumerate(dyadic_spans(scored))]
        assert repr(best) == repr(ref.best[sense][1])
        for j in ks:
            mu = Fraction(1, 1 << j)
            value, chosen = scored.pack(mu, sense)
            assert repr((value, [best[i] for i in chosen])) == \
                repr(ref.pack(mu, sense))


PACK_LEVELS = SearchConfig(e_schedule=(Dyadic(1, 3), Dyadic(1, 4)))


class TestPackReference:
    @settings(max_examples=300, deadline=None)
    @given(pack_cases(), BUDGETS, st.sampled_from(("max", "min")))
    def test_integer_greedy_equals_fraction_greedy(self, case, mu, sense):
        g, pool = case
        scored = scored_pool(g, pool)
        value, taken = scored.pack(mu, sense)
        k = scored.best[sense][1]
        # each taken interval with its optimal variant; a bracket-independent
        # g's are the caller's own intervals
        chosen = [with_brackets(pool[i], *VARIANTS[k[i]]) if k else pool[i]
                  for i in taken]
        ref_value, ref_chosen = ref_pack_search(g, pool, mu, sense)
        assert repr(value) == repr(ref_value)
        assert chosen == ref_chosen
        assert repr((value, chosen)) == \
            repr(RefScoredPool(g, pool).pack(mu, sense))

    @pytest.mark.parametrize("name", fixture_names())
    def test_keyed_pool_equals_reference(self, name):
        fx = fixture(name)
        scored = _ScoredPool(fx.fn, _pack_candidates(fx.fn, fx.region,
                                                     PACK_LEVELS))
        ref = RefScoredPool(fx.fn, ref_pack_candidates(fx.fn, fx.region,
                                                       PACK_LEVELS))
        assert_pool_equals_reference(scored, ref)
        for n in (len(ref.pool) - 1, 40):
            scored.cap(n)
            ref.cap(n)
            assert_pool_equals_reference(scored, ref)

    @settings(max_examples=25, deadline=None)
    @given(pool_regions(), st.integers(1, 60))
    def test_keyed_table_pool_equals_reference(self, case, n):
        g, region = case
        scored = _ScoredPool(g, _pack_candidates(g, region, PACK_LEVELS))
        ref = RefScoredPool(g, ref_pack_candidates(g, region, PACK_LEVELS))
        assert_pool_equals_reference(scored, ref, (0, 4, 8, 12))
        scored.cap(n)
        ref.cap(n)
        assert_pool_equals_reference(scored, ref)

    def test_capped_pool_and_budgets_equal_reference(self, monkeypatch):
        # a small cap, so that the cap ranking decides the pool
        monkeypatch.setattr(variation_mod, "POOL_CAP", 40)
        cfg = PACK_LEVELS
        for name in ("origin_indicator", "k_convention_jump",
                     "saks_A_counterexample"):
            fx = fixture(name)
            pool = ref_pack_pool(fx.fn, fx.region, cfg, 40)
            assert dyadic_spans(scored_pack_pool(fx.fn, fx.region, cfg)) == \
                [(iv.lo, iv.hi) for iv in pool]
            trace = []
            for k in range(5, 13):
                mu = Fraction(1, 1 << k)
                pos, _ = ref_pack_search(fx.fn, pool, mu, "max")
                neg, _ = ref_pack_search(fx.fn, pool, mu, "min")
                trace.append((mu, max(abs(pos), abs(neg))))
            got = is_absolutely_continuous(fx.fn, fx.region, cfg)
            assert repr(got[1]) == repr(trace)

    def test_default_schedule_on_dyadic_blocks(self):
        # the special points at the finest bound 2^-14 put the pool at the
        # exponent 16,384, where most spans' float lengths round to 0.0
        fx = fixture("dyadic_blocks")
        cfg = SearchConfig()
        scored = scored_pack_pool(fx.fn, fx.region, cfg)
        ref = RefScoredPool(fx.fn, ref_pack_candidates(fx.fn, fx.region, cfg))
        assert 0.0 in ref.lengths
        ref.cap(variation_mod.POOL_CAP)
        assert_pool_equals_reference(scored, ref)
        # the blocks stack without bound near 0, and no value is negative
        assert not is_absolutely_continuous(fx.fn, fx.region, cfg)[0]
        # one-sided: the greedy packs of measure at most 2^-12 stay large
        # in the sense "max" and vanish in the sense "min"
        up, _ = scored.pack(Fraction(1, 4096), "max")
        low, _ = scored.pack(Fraction(1, 4096), "min")
        assert not abs(up) < variation_mod.AC_THRESHOLD
        assert abs(low) < variation_mod.AC_THRESHOLD

    def test_staircase_probe_evaluates_each_interval_once(self):
        g, calls = counting(cantor_staircase_function()[0])
        cfg = SearchConfig(e_schedule=tuple(Dyadic(1, k)
                                            for k in range(3, 11)))
        is_absolutely_continuous(g, Region.interval(ZERO, Dyadic(1)), cfg)
        assert calls[0] == 13_647


class TestMonotoneReference:
    @pytest.mark.parametrize("name", fixture_names())
    def test_fixture_verdicts_equal_reference(self, name):
        fx = fixture(name)
        for seed in range(4):
            assert monotone_on_subdivision(fx.fn, fx.region, 30, seed) == \
                ref_monotone_on_subdivision(fx.fn, fx.region, 30, seed)

    @settings(max_examples=200, deadline=None)
    @given(pool_regions(), st.integers(0, 1000))
    def test_table_verdicts_equal_reference(self, case, seed):
        g, region = case
        assert monotone_on_subdivision(g, region, 20, seed) == \
            ref_monotone_on_subdivision(g, region, 20, seed)

    def test_probe_evaluates_twelve_spans_per_sample(self):
        g, calls = counting(stieltjes(poly("x^3", [0, 0, 0, 1])))
        unit = Region.interval(ZERO, Dyadic(1))
        assert monotone_on_subdivision(g, unit, samples=50) == "both"
        assert calls[0] == 3 * 50


# ---------------------------------------------------------------------------
# integer staircase
# ---------------------------------------------------------------------------

_REF_EV, _REF_SPANS = ref_staircase()
_EV, _SPANS = cantor_staircase_12()


class TestStaircaseReference:
    def test_breakpoints_equal_reference(self):
        assert _SPANS == _REF_SPANS
        g, _ = cantor_staircase_function()
        assert g.special_points(Region.interval(ZERO, Dyadic(1)),
                                Dyadic(1, 12)) == \
            sort_points({p for span in _REF_SPANS for p in span})
        for a, b in _SPANS:
            for x in (a, b):
                assert repr(_EV(x)) == repr(_REF_EV(x))

    @settings(max_examples=500, deadline=None)
    @given(st.integers(0, 80).flatmap(lambda k: st.builds(
        Dyadic, st.integers(-(1 << k) // 8 - 1, (1 << k) + (1 << k) // 8 + 1),
        st.just(k))))
    def test_random_points_equal_reference(self, x):
        assert repr(_EV(x)) == repr(_REF_EV(x))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, (1 << 12) - 1), st.integers(33, 80),
           st.integers(-(1 << 16), 1 << 16))
    def test_points_near_breakpoints_equal_reference(self, i, k, off):
        # a breakpoint moved by a few units at a fine exponent
        a = _SPANS[i][0]
        x = Dyadic((a.num << (k - a.exp)) + off, k)
        assert repr(_EV(x)) == repr(_REF_EV(x))


# ---------------------------------------------------------------------------
# the fused max/min pass against two single-sense passes
# ---------------------------------------------------------------------------

VARIANTS = ((False, False), (False, True), (True, False), (True, True))
LOCKS = st.sampled_from(VARIANTS)
TABLE_VALUES_NAN = st.one_of(TABLE_VALUES, st.just(float("nan")))


def ref_allowed_variants(lo, hi, locks):
    llock = locks.get(lo)
    rlock = locks.get(hi)
    out = []
    for lc, rc in VARIANTS:
        if llock is not None and lc != llock[1]:
            continue
        if rlock is not None and rc != rlock[0]:
            continue
        out.append((lc, rc))
    return tuple(out)


def ref_extremal_spans(g, points, spans, region, sense, locks=None):
    """One sense per pass; every allowed variant evaluated per span."""
    want_max = sense == "max"
    chosen = []
    values = []
    for a, b in spans:
        allowed = ref_allowed_variants(a, b, locks) if locks else VARIANTS
        if not allowed:
            raise ValueError(f"conflicting locks at {a}..{b}")
        lc, rc = allowed[0]
        best = Interval.raw(a, b, lc, rc)
        best_val = g(best)
        if not g.bracket_independent:
            for lc, rc in allowed[1:]:
                iv = Interval.raw(a, b, lc, rc)
                v = g(iv)
                if v > best_val if want_max else v < best_val:
                    best, best_val = iv, v
        chosen.append(best)
        values.append(best_val)
    return xsum(values), Division(region, chosen, tuple(points))


def _outcome(fn):
    """(repr of the value, intervals, points), or the exception's name."""
    try:
        value, div = fn()
    except (IndeterminateForm, ValueError, BudgetExceeded) as exc:
        return type(exc).__name__
    return repr(value), div.intervals, div.points


@st.composite
def fused_cases(draw):
    pool = sort_points(draw(st.lists(POINTS, min_size=3, max_size=10,
                                     unique=True)))
    n = len(pool)
    split = draw(st.integers(0, n - 3)) if n >= 4 else 0
    ends = ([(pool[0], pool[split]), (pool[split + 1], pool[-1])] if split
            else [(pool[0], pool[-1])])
    region = Region(ends)
    fixed = {p for span in ends for p in span}
    cands = []
    for _ in range(draw(st.integers(1, 3))):
        inner = draw(st.sets(st.sampled_from(pool)))
        pts = sort_points(fixed | inner)
        runs, start = [], 0
        for lo, hi in ends:
            stop = start + sum(lo <= p <= hi for p in pts)
            runs.append((start, stop))
            start = stop
        cands.append((pts, runs))
    values = draw(st.lists(TABLE_VALUES_NAN, min_size=1, max_size=16))
    g = table_function(values, bkfree=draw(st.booleans()))
    locks = draw(st.dictionaries(st.sampled_from(pool), LOCKS))
    return region, cands, g, locks, draw(st.booleans())


class TestFusedPassReference:
    @settings(max_examples=400, deadline=None)
    @given(fused_cases())
    def test_fused_pass_equals_two_single_sense_passes(self, case):
        region, cands, g, locks, absolute = case
        seen = []

        def ev(iv):
            seen.append((iv.lo, iv.hi, iv.left_closed, iv.right_closed))
            return g(iv)

        cg = IntervalFunction("counted", ev,
                              bracket_independent=g.bracket_independent)
        ref_g = abs_fn(g) if absolute else g
        memo: dict = {}                   # shared, as within one level
        for pts, runs in cands:
            cand = Candidate([p.num << (4 - p.exp) for p in pts], 4, runs)
            spans = [(a, b) for a, b in zip(pts, pts[1:])
                     if any(lo <= a and b <= hi
                            for lo, hi in region.components)]
            assert from_keys(cand) == (pts, spans)
            ilocks = {k: locks[p] for p, k in zip(pts, cand.keys)
                      if p in locks}
            try:
                ups, lows, up_k, low_k = _score(cg, cand, memo, ilocks,
                                                absolute)
            except ValueError:
                assert _outcome(lambda: ref_extremal_spans(
                    ref_g, pts, spans, region, "max", locks)) == "ValueError"
                continue
            for sense, vals, choice in (("max", ups, up_k),
                                        ("min", lows, low_k)):
                got = _outcome(lambda: (xsum(vals), Witness(
                    region, cand, choice).division))
                ref = _outcome(lambda: ref_extremal_spans(
                    ref_g, pts, spans, region, sense, locks))
                assert got == ref
        # one evaluation per (span, brackets) across the shared memo
        assert len(seen) == len(set(seen))


# ---------------------------------------------------------------------------
# integer candidate construction against the recursive Dyadic fill
# ---------------------------------------------------------------------------

def ref_fill_gap(a, b, e, out, cap):
    if b - a < e:
        return
    if len(out) > cap:
        raise BudgetExceeded(f"fill needs more than {cap} points")
    m = dmid(a, b)
    ref_fill_gap(a, m, e, out, cap)
    out.append(m)
    ref_fill_gap(m, b, e, out, cap)


def ref_fill(points, region, e, max_points):
    pts = sort_points(set(points) | set(region.endpoints()))
    out = []
    spans = []
    idx, n = 0, len(pts)
    for lo, hi in region.components:
        while idx < n and pts[idx] < lo:
            idx += 1
        run_start = len(out)
        prev = None
        while idx < n and pts[idx] <= hi:
            p = pts[idx]
            if prev is not None:
                ref_fill_gap(prev, p, e, out, max_points)
            out.append(p)
            prev = p
            idx += 1
        for i in range(run_start, len(out) - 1):
            spans.append((out[i], out[i + 1]))
    return out, spans


def ref_grid_spacing(e, density):
    spacing = Dyadic(1, -floor_log2(e))
    while spacing.as_fraction() * density > e.as_fraction():
        spacing = spacing.half()
    return spacing


def ref_grid(region, start, spacing):
    out = []
    for lo, hi in region.components:
        p = lo + start
        while p < hi:
            out.append(p)
            p = p + spacing
    return out


def ref_candidate_point_sets(g, region, e, cfg, extra=()):
    base = region.endpoints()
    spacing = ref_grid_spacing(e, cfg.grid_density)
    grid = ref_grid(region, ZERO, spacing)
    if len(grid) + len(region.components) > cfg.max_points:
        raise BudgetExceeded(f"grid needs more than {cfg.max_points} points")
    specials = g.special_points(region, e) if cfg.use_special_points else []
    extras = [p for p in extra if region.contains_point(p)]
    offset = ref_grid(region, spacing.half(), spacing)

    def prep(pts):
        return ref_fill(pts + extras, region, e, cfg.max_points)

    cands = [prep(base + grid), prep(base + offset)]
    if specials:
        cands.append(prep(base + grid + specials))
        spec_pts, spec_spans = prep(base + specials)
        cands.append((spec_pts, spec_spans))
        cands.append(prep(spec_pts + [dmid(a, b) for a, b in spec_spans]))
    unique = []
    for c in cands:
        if c not in unique:
            unique.append(c)
    return unique


def from_keys(cand):
    """A candidate's points and spans, built from its keys, as the
    references list them."""
    pts = [Dyadic(k, cand.ex) for k in cand.keys]
    return pts, [(pts[i], pts[i + 1])
                 for start, stop in cand.runs for i in range(start, stop - 1)]


def _family(fn):
    try:
        return fn()
    except BudgetExceeded:
        return "BudgetExceeded"


@st.composite
def regions(draw):
    ends = sorted(draw(st.sets(st.integers(-40, 40), min_size=2,
                               max_size=6)))
    ends = ends[:len(ends) // 2 * 2]
    return Region([(Dyadic(a, 2), Dyadic(b, 2))
                   for a, b in zip(ends[::2], ends[1::2])])


NORM_BOUNDS = st.builds(Dyadic, st.integers(1, 7), st.integers(0, 2))


def fill(point_sets, region, e, cap):
    """_fill on Dyadic point sets, keyed at the exponent of the level."""
    ex = _level_exponent(region, e, [p.exp for pts in point_sets
                                     for p in pts])
    return _fill([[_key(p, ex) for p in pts] for pts in point_sets], region,
                 e, ex, cap)


def ref_sigma_stages(g, region, cfg):
    """The sigma chain as a set of Dyadics: each stage fills the last one
    with the level's grid and special points."""
    points = set(region.endpoints())
    stages = []
    for e in cfg.e_schedule:
        grid = ref_grid(region, ZERO, ref_grid_spacing(e, cfg.grid_density))
        if len(grid) + len(region.components) > cfg.max_points:
            raise BudgetExceeded(f"grid needs more than {cfg.max_points}")
        points.update(grid)
        if cfg.use_special_points:
            points.update(g.special_points(region, e))
        stage = ref_fill(points, region, e, cfg.max_points)
        points.update(stage[0])
        stages.append([stage])
    return stages


def ref_j_windows(g, region, y, cfg):
    """j's candidates per level: the window's ends, the defect pool's four
    points below y and five from y up that lie in the window, and the
    window's special points at a quarter of e, filled with y and without
    y; the second is left out when it repeats the first."""
    pool = sort_points(set(g.special_points(region, cfg.finest())[:1024]
                           + region.endpoints() + _probe_grid(region)))
    anchors = [p for p in pool if p < y][-4:] + [p for p in pool
                                                 if not p < y][:5]
    levels = []
    for e in cfg.e_schedule:
        spans = [(dmax(lo, y - e), dmin(hi, y + e))
                 for lo, hi in region.components]
        window = Region([(lo, hi) for lo, hi in spans if lo < hi])
        fine = e.half().half()
        base = (window.endpoints()
                + [p for p in anchors if window.contains_point(p)]
                + g.special_points(window, fine))
        split = ref_fill(base + [y], window, fine, cfg.max_points)
        straddle = ref_fill([p for p in base if p != y], window, fine,
                            cfg.max_points)
        levels.append([split] + ([straddle] if straddle != split else []))
    return levels


def searched_levels(module, search):
    """The candidates of every level, from the level rule that search()
    hands to module's _search_levels, as the references list them, with
    their exponents."""
    seen = []
    real = module._search_levels

    def spy(g, cfg, traces, level):
        def recorded(e):
            region, cands = level(e)
            seen.append(([from_keys(c) for c in cands],
                         [c.ex for c in cands]))
            return region, cands
        return real(g, cfg, traces, recorded)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_search_levels", spy)
        search()
    return seen


def fill_depth(region, e):
    """The most halvings a fill below e makes in one gap of the region."""
    return max(int((hi - lo).as_fraction() / e.as_fraction()).bit_length()
               for lo, hi in region.components)


SCHEDULES = st.lists(NORM_BOUNDS, min_size=1, max_size=4, unique=True).map(
    lambda es: tuple(sorted(es, reverse=True)))
CAPS = st.sampled_from((8, 40, 120, 200_000))
# the golden digests stop at 2^-8
DEEP = SearchConfig(e_schedule=tuple(Dyadic(1, k) for k in range(3, 11)))


class TestCandidateReference:
    @settings(max_examples=200, deadline=None)
    @given(regions(), st.lists(POINTS, max_size=10), NORM_BOUNDS)
    def test_integer_fill_equals_recursive_fill(self, region, points, e):
        full, _ = ref_fill(points, region, e, 1 << 30)
        # every budget up to the one the fill needs, so each boundary shows
        for cap in range(len(full) + 2):
            cand = _family(lambda: fill([points], region, e, cap)[0])
            ref = _family(lambda: ref_fill(points, region, e, cap))
            if ref == "BudgetExceeded":
                assert cand == ref
            else:
                assert from_keys(cand) == ref

    def test_fill_keys_every_set_at_one_exponent(self):
        region = Region.interval(ZERO, Dyadic(1, 4))
        e, finest = Dyadic(1, 5), Dyadic(1, 12)
        with_fine, alone = fill([[finest], []], region, e, 1 << 10)
        assert with_fine.ex == alone.ex
        assert finest in with_fine.points
        assert alone.points == fill([[]], region, e, 1 << 10)[0].points
        # a set that fills to an earlier candidate is dropped
        assert len(fill([[], [Dyadic(1, 5)]], region, e, 1 << 10)) == 1

    @pytest.mark.parametrize("name", fixture_names())
    def test_sigma_stages_equal_dyadic_chain(self, name):
        fx = fixture(name)
        got = searched_levels(integrator_mod, lambda: estimate_sigma_limit(
            fx.fn, fx.region, DEEP))
        assert [cands for cands, _ in got] == ref_sigma_stages(
            fx.fn, fx.region, DEEP)
        # the chain is carried at the smallest exponent that holds it, so
        # no level's exponent exceeds its own points' by more than a fill
        for e, (((pts, _),), (ex,)) in zip(DEEP.e_schedule, got):
            assert ex <= max(p.exp for p in pts) + fill_depth(fx.region, e)

    @settings(max_examples=150, deadline=None)
    @given(regions(), st.lists(POINTS, max_size=8), SCHEDULES,
           st.integers(1, 3), CAPS, st.booleans())
    def test_sigma_stages_on_drawn_regions(self, region, specials, schedule,
                                           density, cap, use_specials):
        g = IntervalFunction("points", lambda iv: 0.0,
                             special_points=lambda r, res: specials)
        cfg = SearchConfig(e_schedule=schedule, grid_density=density,
                           max_points=cap, use_special_points=use_specials)
        got = _family(lambda: [cands for cands, _ in searched_levels(
            integrator_mod, lambda: estimate_sigma_limit(g, region, cfg))])
        assert got == _family(lambda: ref_sigma_stages(g, region, cfg))

    @pytest.mark.parametrize("name", [
        n for n in fixture_names()
        if any(lo < y < hi for y in fixture(n).scan_points
               for lo, hi in fixture(n).region.components)])
    def test_j_windows_equal_reference(self, name):
        fx = fixture(name)
        for y in fx.scan_points:
            if any(lo < y < hi for lo, hi in fx.region.components):
                got = searched_levels(variation_mod, lambda: (
                    variation_mod.j_singularity(fx.fn, fx.region, y, DEEP)))
                assert [cands for cands, _ in got] == ref_j_windows(
                    fx.fn, fx.region, y, DEEP)

    @settings(max_examples=100, deadline=None)
    @given(regions(), st.lists(POINTS, max_size=8), st.data(), SCHEDULES)
    def test_j_windows_on_drawn_regions(self, region, specials, data,
                                        schedule):
        lo, hi = data.draw(st.sampled_from(region.components))
        y = lo + (hi - lo) * Dyadic(data.draw(st.integers(1, 15)), 4)
        g = IntervalFunction("points", lambda iv: 0.0,
                             special_points=lambda r, res: specials)
        cfg = SearchConfig(e_schedule=schedule)
        got = searched_levels(variation_mod, lambda: (
            variation_mod.j_singularity(g, region, y, cfg)))
        assert [cands for cands, _ in got] == ref_j_windows(g, region, y, cfg)

    @settings(max_examples=200, deadline=None)
    @given(regions(), st.lists(POINTS, max_size=8),
           st.lists(POINTS, max_size=4), NORM_BOUNDS, st.integers(1, 3),
           st.sampled_from((1, 8, 40, 120, 200_000)), st.booleans())
    def test_candidate_family_equals_reference(self, region, specials, extra,
                                               e, density, cap, use_specials):
        g = IntervalFunction("points", lambda iv: 0.0,
                             special_points=lambda r, res: specials)
        cfg = SearchConfig(e_schedule=(e,), grid_density=density,
                           max_points=cap, use_special_points=use_specials)
        got = _family(lambda: [from_keys(c) for c in
                               candidate_point_sets(g, region, e, cfg, extra)])
        assert got == _family(lambda: ref_candidate_point_sets(
            g, region, e, cfg, extra))

    @pytest.mark.parametrize("name", fixture_names())
    def test_fixture_families_equal_reference(self, name):
        fx = fixture(name)
        extra = [p for p, _ in fx.permanent]
        cfg = SearchConfig()
        for k in range(3, 10):
            e = Dyadic(1, k)
            got = [from_keys(c) for c in
                   candidate_point_sets(fx.fn, fx.region, e, cfg, extra)]
            assert got == ref_candidate_point_sets(fx.fn, fx.region, e, cfg,
                                                   extra)


# ---------------------------------------------------------------------------
# points and set edges outside the region: the filler drops them
# ---------------------------------------------------------------------------

def report_bytes(rep):
    """A limit report's JSON with what it omits: the lower witnesses and
    the raw values."""
    return "\n".join([limit_report_json(rep)] + [repr((
        None if lv.witness_lower is None else lv.witness_lower.to_json(),
        lv.raw_upper, lv.raw_lower)) for lv in rep.levels])


def gapped(region):
    """The region's first component without its middle half."""
    lo, hi = region.components[0]
    quarter = (hi - lo) * Dyadic(1, 2)
    return Region([(lo, lo + quarter), (hi - quarter, hi)])


def stray_points(region):
    """Points beyond both ends of the region and in each of its gaps, at
    exponents finer than any of its own points."""
    out = [region.components[0][0] - Dyadic(1),
           region.components[-1][1] + Dyadic(3, 45)]
    for (_, a), (b, _) in zip(region.components, region.components[1:]):
        out += [dmid(a, b), dmid(a, b) + Dyadic(1, 40)]
    return out


SHORT = SearchConfig(e_schedule=tuple(Dyadic(1, k) for k in range(3, 7)))
CUBIC = stieltjes(poly("x^3-x", [0, -1, 0, 1]))
SPLIT = Region([(ZERO, Dyadic(1, 1)), (Dyadic(3, 1), Dyadic(2))])


class TestStrayPoints:
    @pytest.mark.parametrize("name", fixture_names())
    def test_extra_and_permanent_points_change_no_byte(self, name):
        fx = fixture(name)
        for region in (fx.region, gapped(fx.region)):
            stray = stray_points(region)
            assert report_bytes(estimate_norm_limits(
                fx.fn, region, SHORT, stray)) == report_bytes(
                estimate_norm_limits(fx.fn, region, SHORT))
            perms = _perms(fx)
            assert report_bytes(estimate_k_limits(
                fx.fn, region, perms + [(p, None) for p in stray],
                SHORT)) == report_bytes(estimate_k_limits(
                    fx.fn, region, perms, SHORT))

    @pytest.mark.parametrize("g", [CUBIC, fixture("origin_indicator").fn],
                             ids=["cubic", "origin_indicator"])
    def test_set_edges_outside_the_region_change_no_byte(self, g):
        inside = [(Dyadic(1, 3), Dyadic(3, 3))]
        # beyond the left end, in the gap (1/2, 3/2) and beyond the right end
        E = MeasurableSet.from_spans(inside)
        E_stray = MeasurableSet.from_spans(inside + [
            (Dyadic(-1), Dyadic(-1, 1)),
            (Dyadic(3, 2) + Dyadic(1, 40), Dyadic(1)),
            (Dyadic(3), Dyadic(3) + Dyadic(1, 45))])
        dens = [density_integral(g, s, SPLIT, SHORT) for s in (E_stray, E)]
        assert len({density_report_json(d) + report_bytes(d.report)
                    for d in dens}) == 1
        assert len({report_bytes(around_limits(g, s, SPLIT, SHORT))
                    for s in (E_stray, E)}) == 1


# ---------------------------------------------------------------------------
# the fixtures' span evaluators against their Dyadic evaluators
# ---------------------------------------------------------------------------

ONE = Dyadic(1)


def ref_zigzag(x):
    """The zigzag on [0,1) in Dyadic arithmetic."""
    if x.num < 0 or x >= ONE:
        raise ValueError(f"argument {x} outside [0,1)")
    d = ONE - x
    m = -(floor_log2(d) + (not is_pow2(d)))     # 2^-m-1 < d <= 2^-m
    shift = d.exp - m
    if shift <= 60:
        u = ldexp((1 << shift) - d.num, 1 - shift)
    else:
        u = 2.0 * float(1 - d.as_fraction() * (1 << m))
    return u if m % 2 == 0 else 1.0 - u


def ref_harmonic_zigzag(x):
    """The harmonic zigzag on (0,1] in Fraction arithmetic."""
    if x.num <= 0 or x > ONE:
        raise ValueError(f"argument {x} outside (0,1]")
    q, r = divmod(1 << x.exp, x.num)
    if r == 0:
        return float(q % 2)
    m = q
    left = Fraction(1, m + 1)
    u = float((x.as_fraction() - left) / (Fraction(1, m) - left))
    f_left, f_right = (m + 1) % 2, m % 2
    return f_left + u * (f_right - f_left)


def ref_two_piece_zigzag(iv):
    if ZERO <= iv.lo and iv.hi < ONE:
        return ref_zigzag(iv.hi) - ref_zigzag(iv.lo)
    d = iv.hi - ONE
    if d.num == 1 and d.exp % 2 == 0 and d == ONE - iv.lo:
        return 1.0
    return 0.0


def ref_origin_indicator(iv):
    if iv.lo < ZERO < iv.hi:
        return 1.0
    if iv.lo == ZERO and iv.left_closed:
        return 1.0
    if iv.hi == ZERO and iv.right_closed:
        return 1.0
    return 0.0


def ref_osc_left_limit(iv):
    lo = iv.lo
    if lo.num <= 0:
        return 0.0
    if iv.length < lo * lo * lo:
        return ref_harmonic_zigzag(iv.hi) - ref_harmonic_zigzag(iv.lo)
    return 0.0


def ref_mass(iv):
    lo, hi = iv.lo, iv.hi
    if hi.num <= 0:
        return 0.0
    total = 0.0
    k = floor_log2(hi)
    r_min = max(1, -k + 1 if is_pow2(hi) else -k)
    if lo.num <= 0:
        total += float(pow2(r_min - 1))
    else:
        r_max = -floor_log2(lo) - 1
        if r_max >= r_min:
            total += float(pow2(r_min - 1)) - float(pow2(r_max))
        if iv.left_closed and is_pow2(lo) and lo.num == 1 and lo.exp >= 1:
            total += float(lo)
    if iv.right_closed and is_pow2(hi) and hi.num == 1 and hi.exp >= 1:
        total += float(hi)
    return total


def ref_k_convention_jump(iv):
    bonus = 0.0
    if (iv.lo == ZERO and iv.left_closed and iv.right_closed
            and iv.hi.num == 1 and iv.hi.exp >= 1):
        bonus = 1.0
    return ref_mass(iv) + bonus


def ref_m_power_singularity(iv):
    if iv.lo == -iv.hi and iv.hi.num == 1:
        return 1.0
    return 0.0


def ref_dyadic_blocks(iv):
    if (iv.lo.num == 1 and iv.hi.num == 1 and iv.lo.exp >= 1
            and iv.lo.exp == iv.hi.exp + 1):
        return 1.0
    return 0.0


def ref_density_left_limit(iv):
    if iv.hi == ZERO and iv.lo < ZERO:
        return 1.0
    return 0.0


REF_FIXTURES = {
    "saks_A_counterexample": ref_two_piece_zigzag,
    "origin_indicator": ref_origin_indicator,
    "osc_left_limit": ref_osc_left_limit,
    "k_convention_jump": ref_k_convention_jump,
    "m_power_singularity": ref_m_power_singularity,
    "dyadic_blocks": ref_dyadic_blocks,
    "density_left_limit": ref_density_left_limit,
}

# where the fixtures' cases meet: 0, +-2^-r, 1 +- 2^-r, 2
LANDMARKS = sorted({Dyadic(s << 80 >> r, 80) + c
                    for r in range(0, 80, 3) for s in (1, -1)
                    for c in (ZERO, ONE)} | {ZERO, Dyadic(2)},
                   key=float)
EXPONENTS = st.integers(0, 100)     # above 62 reaches the zigzag's wide path


@st.composite
def span_points(draw):
    """A landmark, a landmark moved at a fine exponent, or any point."""
    kind = draw(st.sampled_from(("landmark", "near", "any")))
    if kind == "any":
        k = draw(EXPONENTS)
        return Dyadic(draw(st.integers(-(2 << k), 2 << k)), k)
    p = draw(st.sampled_from(LANDMARKS))
    if kind == "near":
        k = draw(st.integers(max(p.exp, 1), 100))
        p = Dyadic((p.num << (k - p.exp)) + draw(st.integers(-64, 64)), k)
    return p


@st.composite
def spans(draw):
    """lo < hi: a span some fixture charges, two points, or a point and a
    short step above it, which makes steep-left spans of osc_left_limit
    (and, near 1, spans past its zigzag's domain)."""
    kind = draw(st.sampled_from(("charged", "points", "step")))
    if kind == "charged":
        h = Dyadic(1, draw(st.integers(-3, 3) | st.integers(4, 80)))
        return draw(st.sampled_from(((-h, h), (ONE - h, ONE + h),
                                     (h, h + h), (-h, ZERO))))
    lo = draw(span_points())
    if kind == "points":
        hi = draw(span_points())
    else:
        hi = lo + Dyadic(draw(st.integers(1, 1 << 8)), draw(st.integers(0, 240)))
    if lo == hi:
        hi = lo + Dyadic(1, 100)
    return (lo, hi) if lo < hi else (hi, lo)


def _result(fn):
    try:
        return repr(fn())
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestSpanEvaluatorReference:
    @settings(max_examples=1000, deadline=None)
    @given(st.sampled_from(sorted(REF_FIXTURES)), spans(), st.integers(0, 3))
    # the edges of the charged spans: 1 -+ 1/2 and 1 -+ 4 are not charged
    # (not 1 -+ 2^-2n), nor [1, 2] (no block) or [-2, 2] (not 2^-i); 1 is
    # no mass point; [1/2, 5/8] has length the cube of 1/2, so it is inactive
    @example("saks_A_counterexample", (Dyadic(1, 1), Dyadic(3, 1)), 0)
    @example("saks_A_counterexample", (Dyadic(-3), Dyadic(5)), 0)
    @example("dyadic_blocks", (Dyadic(1), Dyadic(2)), 0)
    @example("m_power_singularity", (Dyadic(-1), Dyadic(1)), 1)
    @example("m_power_singularity", (Dyadic(-2), Dyadic(2)), 0)
    @example("k_convention_jump", (ZERO, Dyadic(1)), 2)
    @example("osc_left_limit", (Dyadic(1, 1), Dyadic(5, 3)), 0)
    def test_span_and_call_equal_dyadic_evaluator(self, name, span, pad):
        fn, ref = fixture(name).fn, REF_FIXTURES[name]
        lo, hi = span
        ex = max(lo.exp, hi.exp) + pad          # keys need not be reduced
        a, b = lo.num << (ex - lo.exp), hi.num << (ex - hi.exp)
        for lc, rc in VARIANTS:
            iv = Interval(lo, hi, lc, rc)
            want = _result(lambda: ref(iv))
            assert _result(lambda: fn(iv)) == want
            assert _result(lambda: fn.span(a, b, ex, lc, rc)) == want

    @settings(max_examples=300, deadline=None)
    @given(span_points(), st.integers(0, 3))
    def test_zigzags_equal_dyadic_zigzags(self, x, pad):
        ex = x.exp + pad
        k = x.num << pad
        assert _result(lambda: _zigzag(k, ex)) == _result(lambda: ref_zigzag(x))
        assert _result(lambda: _harmonic_zigzag(k, ex)) == \
            _result(lambda: ref_harmonic_zigzag(x))

    def test_osc_left_limit_past_its_domain_raises_alike(self):
        # steep-left, with hi past 1: the harmonic zigzag refuses hi
        fn = fixture("osc_left_limit").fn
        lo, hi = Dyadic(15, 4), Dyadic(3, 1)
        iv = Interval(lo, hi)
        want = _result(lambda: ref_osc_left_limit(iv))
        assert want == "ValueError: argument 3/2^1 outside (0,1]"
        assert _result(lambda: fn(iv)) == want
        assert _result(lambda: fn.span(30, 48, 5, True, True)) == want

    def test_abs_fn_forwards_the_span_evaluator(self):
        fn = fixture("saks_A_counterexample").fn
        iv = Interval(Dyadic(1, 1), Dyadic(3, 2))     # the zigzag falls 1
        assert fn(iv) == -1.0
        assert abs_fn(fn).span(2, 3, 2, True, True) == abs_fn(fn)(iv) == 1.0
        # a function given only func answers span through the adapter
        counted, calls = counting(fn)
        assert abs_fn(counted).span(2, 3, 2, True, True) == 1.0
        assert calls == [1]


# ---------------------------------------------------------------------------
# evaluation counts
# ---------------------------------------------------------------------------

LEVELS = SearchConfig(e_schedule=tuple(Dyadic(1, k) for k in range(3, 9)))


def level_counting(g):
    """g behind a record of calls, and of the calls that repeat a (span,
    brackets) since the last special-points call, which every level of
    the norm, k-chain and sigma searches makes once."""
    seen = set()
    counts = {"calls": 0, "repeats": 0}

    def ev(iv):
        key = (iv.lo, iv.hi, iv.left_closed, iv.right_closed)
        counts["calls"] += 1
        counts["repeats"] += key in seen
        seen.add(key)
        return g(iv)

    def specials(region, e):
        seen.clear()
        return g.special_points(region, e)

    return IntervalFunction(g.name, ev, additive=g.additive,
                            bracket_independent=g.bracket_independent,
                            special_points=specials,
                            singular_schedule=g.singular_schedule), counts


def _perms(fx):
    return list(fx.permanent) or [(dmid(*fx.region.components[0]), None)]


SEARCHES = {
    "norm": lambda g, fx, cfg=LEVELS: estimate_norm_limits(g, fx.region, cfg),
    "k_chain": lambda g, fx, cfg=LEVELS: k_chain_reports(
        g, fx.region, _perms(fx), cfg),
    "sigma": lambda g, fx, cfg=LEVELS: estimate_sigma_limit(g, fx.region, cfg),
    "variation": lambda g, fx, cfg=LEVELS: variation_mod.variation(
        g, fx.region, cfg, scan_j=False),
}


class TestEvaluationCounts:
    @pytest.mark.parametrize("search", sorted(SEARCHES))
    @pytest.mark.parametrize("name", fixture_names())
    def test_no_span_evaluated_twice_per_level(self, name, search):
        fx = fixture(name)
        g, counts = level_counting(fx.fn)
        SEARCHES[search](g, fx)
        assert counts["calls"] > 0
        assert counts["repeats"] == 0

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    @pytest.mark.parametrize("name", fixture_names())
    def test_searches_evaluate_fixtures_on_spans(self, name, search,
                                                 monkeypatch):
        # the span evaluator serves every evaluation: no Interval is built
        fx = fixture(name)
        called = []
        monkeypatch.setattr(IntervalFunction, "__call__",
                            lambda g, iv: called.append(g.name))
        cfg = SearchConfig(e_schedule=tuple(Dyadic(1, k) for k in range(3, 7)))
        SEARCHES[search](fx.fn, fx, cfg)
        assert called == []

    @pytest.mark.parametrize("name", [
        n for n in fixture_names()
        if any(lo < y < hi for y in fixture(n).scan_points
               for lo, hi in fixture(n).region.components)])
    def test_j_evaluates_no_span_twice_per_level(self, name):
        # the fills with y and without y share one memo per window
        fx = fixture(name)
        g, counts = level_counting(fx.fn)
        for y in fx.scan_points:
            if any(lo < y < hi for lo, hi in fx.region.components):
                variation_mod.j_singularity(g, fx.region, y, LEVELS)
        assert counts["calls"] > 0
        assert counts["repeats"] == 0

    def test_criterion_8_scores_the_staircase_pool_once(self, monkeypatch):
        g, calls = counting(cantor_staircase_function()[0])
        monkeypatch.setattr(verify, "cantor_staircase_function",
                            lambda: (g, None))
        assert verify.check_8_absolute_continuity().passed
        assert calls[0] == 13_647


# ---------------------------------------------------------------------------
# planar integer cells against the Dyadic builders and the per-rectangle
# bracket optimizer
# ---------------------------------------------------------------------------

def ref_chop(a, b, s):
    pts = [a]
    p = a
    two_s = s + s
    while b - p >= two_s:
        p = p + s
        pts.append(p)
    pts.append(b)
    return pts


def ref_cells(xs, ys):
    out = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            out.append(closed_rect(xs[i], xs[i + 1], ys[j], ys[j + 1]))
    return out


def ref_grid_division(region, s, x_anchor=(), y_anchor=()):
    def lines(lo, hi, anchors):
        if not anchors:
            return ref_chop(lo, hi, s)
        pts = sort_points(set(list(anchors) + [lo, hi]))
        out = [lo]
        for a, b in zip(pts, pts[1:]):
            out.extend(ref_chop(a, b, s)[1:])
        return out

    xs = lines(region.x.lo, region.x.hi, x_anchor)
    ys = lines(region.y.lo, region.y.hi, y_anchor)
    return ref_cells(xs, ys)


def ref_seeded_guillotine(region, specials, s):
    xcuts = {region.x.lo, region.x.hi}
    for sp in specials:
        xcuts.add(sp.x.lo)
        xcuts.add(sp.x.hi)
    xs = sort_points(xcuts)
    rects = []
    for x0, x1 in zip(xs, xs[1:]):
        owner = None
        for sp in specials:
            if sp.x.lo <= x0 and x1 <= sp.x.hi:
                owner = sp
                break
        ylo, yhi = region.y.lo, region.y.hi
        if owner is None:
            rects.extend(ref_cells(ref_chop(x0, x1, s), ref_chop(ylo, yhi, s)))
            continue
        bands = [(ylo, owner.y.lo), (owner.y.lo, owner.y.hi),
                 (owner.y.hi, yhi)]
        for b0, b1 in bands:
            if not b0 < b1:
                continue
            if b0 == owner.y.lo and b1 == owner.y.hi:
                xs_band = ref_chop(x0, x1, s)
                for a, b in zip(xs_band, xs_band[1:]):
                    rects.append(closed_rect(a, b, b0, b1))
            else:
                rects.extend(ref_cells(ref_chop(x0, x1, s),
                                       ref_chop(b0, b1, s)))
    return rects


def ref_estimate_norm_limits_2d(gT, region, mode, cfg):
    """Dyadic candidates per level, each rectangle's best variant found
    once per sense, and one pass per sense."""
    levels = []
    for e in cfg.e_schedule:
        s = ref_grid_spacing(e, 4)
        specials = gT.special_rects(region, e)
        cands = [ref_grid_division(region, s)]
        for sp in specials:
            cands.append(ref_grid_division(region, s, [sp.x.lo, sp.x.hi],
                                           [sp.y.lo, sp.y.hi]))
        if mode == "extended" and specials:
            cands.append(ref_seeded_guillotine(region, specials, s))
            for sp in specials:
                cands.append(ref_seeded_guillotine(region, [sp], s))
        for c in cands:
            if len(c) > cfg.max_points:
                raise BudgetExceeded(
                    f"{len(c)} cells exceed {cfg.max_points}")
        up = max(xsum(ref_best_value(gT, r, "max")[0] for r in c)
                 for c in cands)
        low = min(xsum(ref_best_value(gT, r, "min")[0] for r in c)
                  for c in cands)
        levels.append(LevelEstimate(e, up, low))
    return _tightened_report(levels, cfg.tol_float)


def rect_table(values, specials, bkfree):
    """A deterministic rectangle function that picks one of the values per
    (rectangle, brackets), with fixed special rectangles."""
    n = len(values)

    def ev(r):
        k = 0
        for p in (r.x.lo, r.x.hi, r.y.lo, r.y.hi):
            k = (k * 7919 + (p.num << (16 - p.exp))) % 1000003
        if not bkfree:
            k += (8 * r.x.left_closed + 4 * r.x.right_closed
                  + 2 * r.y.left_closed + r.y.right_closed)
        return values[k % n]

    return RectFunction("table", ev, bracket_independent=bkfree,
                        special_rects=lambda region, e: specials)


def _inside(lo, hi):
    """Dyadics in [lo, hi] at up to six more binary digits."""
    return st.integers(0, 64).map(lambda i: lo + (hi - lo) * Dyadic(i, 6))


@st.composite
def plane_cases(draw, max_side=16):
    """A region with sides of at most max_side/8, and specials inside it
    that do not overlap in x."""
    x0, y0 = draw(st.integers(-16, 16)), draw(st.integers(-16, 16))
    region = closed_rect(Dyadic(x0, 3),
                         Dyadic(x0 + draw(st.integers(1, max_side)), 3),
                         Dyadic(y0, 3),
                         Dyadic(y0 + draw(st.integers(1, max_side)), 3))
    xs = sort_points(draw(st.sets(_inside(region.x.lo, region.x.hi),
                                  max_size=6)))
    specials = []
    for a, b in zip(xs[::2], xs[1::2]):
        ys = sort_points(draw(st.sets(_inside(region.y.lo, region.y.hi),
                                      min_size=2, max_size=2)))
        specials.append(closed_rect(a, b, *ys))
    return region, specials


SPACINGS = st.builds(Dyadic, st.integers(1, 3), st.integers(0, 4))


class TestPlanarReference:
    @settings(max_examples=300, deadline=None)
    @given(POINTS, POINTS, SPACINGS)
    def test_chop_equals_reference(self, a, b, s):
        ex = max(a.exp, b.exp, s.exp)
        assert [Dyadic(k, ex) for k in _chop(_key(a, ex), _key(b, ex),
                                             _key(s, ex))] == \
            ref_chop(a, b, s)

    @settings(max_examples=200, deadline=None)
    @given(plane_cases(), SPACINGS, st.data())
    def test_builders_equal_reference(self, case, s, data):
        region, specials = case
        xa = data.draw(st.lists(_inside(region.x.lo, region.x.hi),
                                max_size=4))
        ya = data.draw(st.lists(_inside(region.y.lo, region.y.hi),
                                max_size=4))
        assert cell_rects(region, s, xa, ya) == \
            ref_grid_division(region, s, xa, ya)
        assert cell_rects(region, s, specials=specials) == \
            ref_seeded_guillotine(region, specials, s)

    def test_anchors_outside_the_region_are_ignored(self):
        unit = closed_rect(ZERO, ONE, ZERO, ONE)
        s = Dyadic(1, 3)
        got = cell_rects(unit, s, [Dyadic(-1), ONE, Dyadic(3, 1)],
                         [Dyadic(5, 2), Dyadic(9)])
        assert got == cell_rects(unit, s, [], [Dyadic(5, 2)])

    @settings(max_examples=150, deadline=None)
    @given(plane_cases(max_side=8),
           st.lists(TABLE_VALUES_NAN, min_size=1, max_size=16),
           st.booleans(), st.sampled_from(("restricted", "extended")),
           st.sampled_from((1, 40, 200_000)))
    def test_estimate_equals_per_rectangle_optimizer(self, case, values,
                                                     bkfree, mode, cap):
        region, specials = case
        gT = rect_table(values, specials, bkfree)
        cfg = planar_config(e_schedule=(ONE, Dyadic(1, 1)), max_points=cap)

        def report(search):
            try:
                return limit_report_json(search(gT, region, mode, cfg))
            except (BudgetExceeded, IndeterminateForm) as exc:
                return type(exc).__name__, str(exc)

        assert report(estimate_norm_limits_2d) == report(
            ref_estimate_norm_limits_2d)


# ---------------------------------------------------------------------------
# Fubini's outer pass against its own candidate loop
# ---------------------------------------------------------------------------

def ref_fubini_chain(gT, region, cfg):
    """The loop fubini_chain had before it ran on the shared level loop:
    per level, every candidate's columns on Dyadic points scored for all
    four bounds, each column taking its best variant per bound, and
    min/max over the candidates.  Under convention_mode "fixed" every
    column takes the ")[" brackets, as the shared loop's junction locks
    give it."""
    rx = Region.interval(region.x.lo, region.x.hi)
    ry = Region.interval(region.y.lo, region.y.hi)
    variants = VARIANTS[:1] if gT.bracket_independent else VARIANTS
    if cfg.convention_mode == "fixed":
        variants = ((True, False),)
    cache = {}

    def inner(ivx):
        key = (ivx.lo.num, ivx.lo.exp, ivx.hi.num, ivx.hi.exp,
               ivx.left_closed, ivx.right_closed)
        if key not in cache:
            fy = IntervalFunction(
                "column", lambda ivy: gT(Rect(ivx, ivy)),
                bracket_independent=gT.bracket_independent)
            cache[key] = estimate_norm_limits(fy, ry, cfg)
        return cache[key]

    plain = IntervalFunction("column_bounds", lambda ivx: 0.0)
    levels = []
    for i, e in enumerate(cfg.e_schedule):
        sums = []
        for c in candidate_point_sets(plain, rx, e, cfg):
            cols = [[], [], [], []]
            pts = c.points
            for a, b in zip(pts, pts[1:]):
                reps = [inner(Interval.raw(a, b, lc, rc))
                        for lc, rc in variants]
                cols[0].append(min(r.levels[i].lower for r in reps))
                cols[1].append(min(r.lower for r in reps))
                cols[2].append(max(r.upper for r in reps))
                cols[3].append(max(r.levels[i].upper for r in reps))
            sums.append([xsum(col) for col in cols])
        levels.append((e, min(s[0] for s in sums), min(s[1] for s in sums),
                       max(s[2] for s in sums), max(s[3] for s in sums)))
    return FubiniReport(levels, 1e-9)


@st.composite
def fubini_cases(draw):
    """A product of stieltjes cubics or a rect_table function, bracket-free
    or not, over a region with sides up to 1 that may lie below y = 0."""
    region, specials = draw(plane_cases(max_side=8))
    if draw(st.booleans()):
        coeffs = st.lists(st.integers(-3, 3).map(float), min_size=1,
                          max_size=4)
        gT = product_function(stieltjes(poly("f", draw(coeffs))),
                              stieltjes(poly("h", draw(coeffs))))
    else:
        values = draw(st.lists(TABLE_VALUES_NAN, min_size=1, max_size=16))
        gT = rect_table(values, specials, draw(st.booleans()))
    return gT, region


def fubini_outcome(search, gT, region, cfg):
    try:
        return repr(search(gT, region, cfg).levels)
    except (BudgetExceeded, IndeterminateForm) as exc:
        return type(exc).__name__, str(exc)


# the upper sums at level 1/2 mix +inf and -inf, and the x-grid at 1/8
# needs more than 8 points: the candidate loop finished a level's four
# bounds before it built the next level's grids
SPLIT_AT_ZERO = RectFunction("split", lambda r: INF if r.x.lo == ZERO
                             and r.x.left_closed else -INF)


class TestFubiniReference:
    @settings(max_examples=60, deadline=None)
    @example(case=(SPLIT_AT_ZERO, closed_rect(ZERO, ONE, ZERO, Dyadic(1, 3))),
             ks=[1, 3], mode="optimize", cap=8)
    @given(fubini_cases(),
           st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True),
           st.sampled_from(("optimize", "fixed")),
           st.sampled_from((200_000, 12)))
    def test_shared_loop_equals_candidate_loop(self, case, ks, mode, cap):
        gT, region = case
        cfg = SearchConfig(e_schedule=tuple(Dyadic(1, k) for k in sorted(ks)),
                           convention_mode=mode, max_points=cap)
        assert fubini_outcome(fubini_chain, gT, region, cfg) == \
            fubini_outcome(ref_fubini_chain, gT, region, cfg)

    @pytest.mark.parametrize("mode", ("optimize", "fixed"))
    def test_default_schedule_equals_candidate_loop(self, mode):
        tall = closed_rect(ZERO, ONE, -ONE, ONE)
        cfg = SearchConfig(e_schedule=tuple(Dyadic(1, k) for k in (2, 3, 4)),
                           convention_mode=mode)
        for gT in (_asym(), area_function()):
            assert fubini_outcome(fubini_chain, gT, tall, cfg) == \
                fubini_outcome(ref_fubini_chain, gT, tall, cfg)

    def test_unread_sense_never_raises(self):
        # the first column's left-open variants see only NaN, so their
        # inner lower bound is +inf, and every other column reads -inf:
        # a sum of the max over variants of the lower bounds would mix
        # +inf and -inf, but a lower bound takes the min over variants only
        gT = RectFunction("mixed", lambda r: (
            float("nan") if r.x.lo == ZERO and not r.x.left_closed
            else -INF if r.x.lo > ZERO else 1.0))
        cfg = SearchConfig(e_schedule=(Dyadic(1, 1),))
        unit = closed_rect(ZERO, ONE, ZERO, ONE)
        want = repr([(Dyadic(1, 1), -INF, -INF, -INF, -INF)])
        assert fubini_outcome(ref_fubini_chain, gT, unit, cfg) == want
        assert fubini_outcome(fubini_chain, gT, unit, cfg) == want

    def test_nan_columns_never_reach_the_outer_sums(self):
        # an inner search keeps a candidate only on a strict improvement,
        # so a column whose every rectangle is NaN reads +inf below and
        # -inf above, and no outer sum is NaN
        gT = RectFunction("nan_left", lambda r: float("nan")
                          if r.x.lo == ZERO else 1.0)
        cfg = SearchConfig(e_schedule=(Dyadic(1, 1), Dyadic(1, 2)))
        rep = fubini_chain(gT, closed_rect(ZERO, ONE, -ONE, ONE), cfg)
        assert repr(rep.levels) == repr(ref_fubini_chain(
            gT, closed_rect(ZERO, ONE, -ONE, ONE), cfg).levels)
        assert [vs for _, *vs in rep.levels] == [[INF, INF, -INF, -INF]] * 2

    def test_fixed_mode_locks_every_column_junction(self):
        # a unit charge at x = 0: the free outer pass counts it twice from
        # closed columns and never from open ones, the ")[" columns once
        charge = fixture("origin_indicator").fn
        gT = RectFunction("x_charge",
                          lambda r: charge(r.x) * float(r.y.length))
        wide = closed_rect(-ONE, ONE, ZERO, ONE)
        for mode, want in (("optimize", [0.0, 0.0, 2.0, 2.0]),
                           ("fixed", [1.0, 1.0, 1.0, 1.0])):
            cfg = SearchConfig(e_schedule=(Dyadic(1, 1), Dyadic(1, 2)),
                               convention_mode=mode)
            rep = fubini_chain(gT, wide, cfg)
            assert [vs for _, *vs in rep.levels] == [want] * 2


def rect_level_counting(gT):
    """gT behind a record of calls, and of the calls that repeat a
    (rectangle, brackets) since the last special-rectangles call, which
    every level of the planar search makes once."""
    seen = set()
    counts = {"calls": 0, "repeats": 0}

    def ev(r):
        counts["calls"] += 1
        counts["repeats"] += r in seen
        seen.add(r)
        return gT(r)

    def specials(region, e):
        seen.clear()
        return gT.special_rects(region, e)

    return RectFunction(gT.name, ev, bracket_independent=gT.bracket_independent,
                        special_rects=specials), counts


def _asym():
    charge = fixture("origin_indicator").fn
    return RectFunction("asym", lambda r: float(r.x.length) * charge(r.y))


PLANE_FUNCTIONS = {"two_squares": two_squares_function,
                   "bottom_strips": bottom_strips_function,
                   "area": area_function, "asym": _asym}


class TestPlanarEvaluationCounts:
    @pytest.mark.parametrize("mode", ("restricted", "extended"))
    @pytest.mark.parametrize("name", sorted(PLANE_FUNCTIONS))
    def test_no_rectangle_evaluated_twice_per_level(self, name, mode):
        gT, counts = rect_level_counting(PLANE_FUNCTIONS[name]())
        region = (closed_rect(ZERO, ONE, -ONE, ONE) if name == "asym"
                  else closed_rect(ZERO, ONE, ZERO, ONE))
        cfg = planar_config(e_schedule=(Dyadic(1, 2), Dyadic(1, 3)))
        first = estimate_norm_limits_2d(gT, region, mode, cfg)
        calls = counts["calls"]
        assert calls > 0
        assert counts["repeats"] == 0
        # a second identical call evaluates as much again: no state
        # survives between calls
        second = estimate_norm_limits_2d(gT, region, mode, cfg)
        assert counts["calls"] == 2 * calls
        assert counts["repeats"] == 0
        assert limit_report_json(first) == limit_report_json(second)

    def test_planar_holds_no_module_state(self):
        mutable = [name for name, value in vars(planar).items()
                   if not name.startswith("__")
                   and isinstance(value, (dict, list, set))]
        assert mutable == []
