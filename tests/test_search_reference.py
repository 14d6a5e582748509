"""Independent oracles of the keyed search core, and its pinned counts.

The candidate filler, the candidate family, j's windows, the defect scan,
the pack pools and packs against their definitions in Fractions or on the
Interval path; the staircase against its Fraction construction and the
fixtures' span evaluators against their Dyadic definitions; the planar
cell builders against their stated properties; the evaluation counts;
stray points and set edges that must change no report byte; and Fubini's
chain on columns that mix infinities and NaN.  No oracle here shares code
with the keyed path it checks."""

import importlib
import random
from dataclasses import replace
from fractions import Fraction
from bisect import bisect_left
from math import ceil, ldexp

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
)
from burkill.core import (
    Dyadic,
    Interval,
    Region,
    ZERO,
    dmid,
    key_float,
    floor_log2,
    sort_points,
)
from burkill.density import MeasurableSet, density_integral
from burkill.errors import BudgetExceeded
from burkill.integrator import (
    SearchConfig,
    _fill,
    candidate_point_sets,
    _key,
    _level_exponent,
    DefectReport,
    defect_report_at,
    estimate_k_limits,
    estimate_norm_limits,
    estimate_sigma_limit,
    k_chain_reports,
    singularity_scan,
)
from burkill.planar import (
    RectFunction,
    _chop,
    _guillotine_cells,
    area_function,
    bottom_strips_function,
    closed_rect,
    estimate_norm_limits_2d,
    fubini_chain,
    planar_config,
    two_squares_function,
)
from burkill.reporting import density_report_json, limit_report_json
from burkill.variation import (
    is_absolutely_continuous,
    monotone_on_subdivision,
    scored_pack_pool,
)
from keyed_inputs import cell_rects, scored_pool
from oracles import is_pow2

INF = float("inf")
# the package exports the function variation() under the module's name
variation_mod = importlib.import_module("burkill.variation")

# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------

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


POINTS = st.builds(Dyadic, st.integers(-48, 48), st.integers(0, 4))
VARIANTS = ((False, False), (False, True), (True, False), (True, True))
TABLE_VALUES_NAN = st.one_of(TABLE_VALUES, st.just(float("nan")))


@st.composite
def regions(draw):
    """One to three components with ends on the 2^-2 grid."""
    ends = sorted(draw(st.sets(st.integers(-40, 40), min_size=2,
                               max_size=6)))
    ends = ends[:len(ends) // 2 * 2]
    return Region([(Dyadic(a, 2), Dyadic(b, 2))
                   for a, b in zip(ends[::2], ends[1::2])])


# ---------------------------------------------------------------------------
# the defect scan
# ---------------------------------------------------------------------------

def interval_defect(g, region, y, specials, schedule):
    """The defect report at y by its definition, on the Interval path: over
    x < y < z from the pool of special points, region ends and each
    component's 17-point probe grid, x among the four pool points below y
    and z among the four above it in y's component; at each e, the largest
    |g(xz) - g(xy) - g(yz)| over the 64 bracket choices of the triples
    whose gaps are below e (0.0 if none), and the largest of that and the
    spread of g(xy) + g(yz)."""
    pool = sort_points({*specials, *region.endpoints(), *(
        lo + (hi - lo) * Dyadic(j, 4) for lo, hi in region.components
        for j in range(17))})
    lo, hi = next((lo, hi) for lo, hi in region.components if lo < y < hi)
    below = [p for p in pool if lo <= p < y][-4:]
    above = [p for p in pool if y < p <= hi][:4]
    trace, sigmas = [], []
    for e in schedule:
        c = s = 0.0
        for x in below:
            for z in above:
                if y - x < e and z - y < e:
                    whole, left, right = ([g(v) for v in Interval(a, b)
                                           .variants()]
                                          for a, b in ((x, z), (x, y), (y, z)))
                    d = max([0.0] + [abs(w - a - b) for w in whole
                                     for a in left for b in right])
                    sums = [a + b for a in left for b in right]
                    c = max(c, d)
                    s = max(s, max(d, max(sums) - min(sums)))
        trace.append((e, c))
        sigmas.append(s)
    return DefectReport(y, trace, trace[-1][1], sigmas[-1])


def table_function(values, specials=()):
    """A deterministic bracket-dependent g: each (span, brackets) picks one
    of the values; it publishes the given special points."""
    def ev(iv):
        lo = iv.lo.num << (16 - iv.lo.exp)
        hi = iv.hi.num << (16 - iv.hi.exp)
        k = (lo * 7919 + hi * 104729) % 1000003
        return values[(k + 2 * iv.left_closed + iv.right_closed)
                      % len(values)]

    return IntervalFunction("table", ev,
                            special_points=lambda region, e: list(specials))


class TestDefectScanOracle:
    @settings(max_examples=100, deadline=None)
    @given(regions(), st.lists(POINTS, max_size=10), st.data(),
           st.lists(st.builds(Dyadic, st.integers(1, 7), st.integers(-2, 2)),
                    min_size=1, max_size=4, unique=True),
           st.lists(TABLE_VALUES_NAN, min_size=1, max_size=16))
    def test_reports_equal_their_definition(self, region, specials, data,
                                            schedule, values):
        g = table_function(values, specials)
        inside = [p for p in specials if region.contains_point(p)]
        lo, hi = data.draw(st.sampled_from(region.components))
        y = lo + (hi - lo) * Dyadic(data.draw(st.integers(1, 63)), 6)
        # bounds equal to gaps of the probe grid, so that a gap equal to
        # a bound shows
        schedule = {*schedule, *((hi - lo) * Dyadic(m, 4) for m in data.draw(
            st.sets(st.integers(1, 4), max_size=2)))}
        cfg = SearchConfig(e_schedule=tuple(sorted(schedule, reverse=True)))
        assert repr(defect_report_at(g, region, y, cfg)) == repr(
            interval_defect(g, region, y, inside, cfg.e_schedule))
        # the scan shares one memo across its points
        for rep in singularity_scan(g, region, cfg)[:4]:
            assert repr(rep) == repr(interval_defect(
                g, region, rep.point, inside, cfg.e_schedule))

    def test_a_charged_triple_one_key_unit_below_the_coarsest_bound(self):
        # a point mass at y = 1/2 on [0, 1]: the pool's keys are the probe
        # grid's 1/16 apart, so x = 7/16, z = 9/16 is the one triple whose
        # larger gap, one key unit, is below the bound 1/8 (two units);
        # g(xz) = 1 and g(xy) + g(yz) takes 0, 1 and 2
        def mass(a, b, ex, lc, rc):
            y = 1 << (ex - 1)
            return float(a < y < b or (a == y and lc) or (b == y and rc))

        cfg = SearchConfig(e_schedule=(Dyadic(1, 3),))
        rep = defect_report_at(IntervalFunction("mass", span=mass),
                               Region.interval(ZERO, Dyadic(1)),
                               Dyadic(1, 1), cfg)
        assert (rep.trace, rep.c, rep.sigma) == ([(Dyadic(1, 3), 1.0)],
                                                 1.0, 2.0)


class TestDefectScanCounts:
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
# pack pools and the subdivision probe
# ---------------------------------------------------------------------------

def fraction_pool(specials, comps):
    """The pack pool's spans by their definition in Fractions: per
    component, the gaps of its special points, then its cells at the
    depths 4, 6, 8, 10 and 12."""
    out = []
    for lo, hi in comps:
        run = sorted({p for p in specials if lo <= p <= hi})
        for d in (None, 4, 6, 8, 10, 12):
            pts = run if d is None else [lo + (hi - lo) * j / (1 << d)
                                         for j in range((1 << d) + 1)]
            out += zip(pts, pts[1:])
    return out


def density_order(spans, values, scale, keep, ties=2):
    """The indices of the spans whose values keep, by decreasing |value|
    per unit of the span's length rounded to a float (+inf when that
    rounds to 0.0, or 0.0 for a zero value), then by the first ties of
    the span's ends, then in pool order."""
    def density(i):
        length = float(Fraction(spans[i][1] - spans[i][0], scale))
        return abs(values[i]) / length if length else (
            INF if values[i] else 0.0)

    return sorted((i for i, v in enumerate(values) if keep(v)),
                  key=lambda i: (-density(i), spans[i][:ties]))


def greedy_pack(spans, values, scale, order, mu):
    """The greedy pack: the spans in order, each taken when it fits the
    measure left of mu and overlaps no span taken."""
    total, measure, taken, ends = 0.0, 0, [], []
    for i in order:
        lo, hi = spans[i]
        at = bisect_left(ends, (lo, hi))
        if (measure + hi - lo <= mu * scale
                and (at == 0 or ends[at - 1][1] <= lo)
                and (at == len(ends) or hi <= ends[at][0])):
            ends.insert(at, (lo, hi))
            total, measure = total + values[i], measure + hi - lo
            taken.append(i)
    return total, taken


def table_span(values):
    """A span function that picks one of the values per (span, brackets)."""
    def span(a, b, ex, lc, rc):
        k = (a * 7919 + b * 104729 + ex + 2 * lc + rc) % 1000003
        return values[k % len(values)]

    return span


# ends on a coarse grid, so that spans abut and packs fill a budget
# exactly, or anywhere
CELL_ENDS = st.one_of(st.builds(Dyadic, st.integers(0, 16), st.just(3)),
                      POINTS)


class TestPackPool:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(-8, 8), st.integers(1, 8),
           st.lists(POINTS, max_size=12))
    def test_pool_spans_equal_their_definition(self, lo, width, specials):
        g = IntervalFunction("table", span=table_span([1.0]),
                             special_points=lambda r, e: specials)
        region = Region.interval(Dyadic(lo, 2), Dyadic(lo + width, 2))
        cfg = SearchConfig(e_schedule=(Dyadic(1, 3), Dyadic(1, 4)))
        cand = variation_mod._pack_candidates(g, region, cfg)
        scale = 1 << cand.ex
        assert [(Fraction(cand.keys[i], scale), Fraction(cand.keys[i + 1],
                                                         scale))
                for start, stop in cand.runs
                for i in range(start, stop - 1)] == fraction_pool(
            [p.as_fraction() for p in specials], fractions(region))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(CELL_ENDS, CELL_ENDS).filter(
        lambda t: t[0] != t[1]), max_size=30),
           st.lists(TABLE_VALUES, min_size=1, max_size=16), st.booleans(),
           st.sampled_from(("max", "min")), st.integers(1, 30),
           st.one_of(st.builds(lambda n, k: Fraction(n, 1 << k),
                               st.integers(0, 64), st.integers(0, 8)),
                     st.builds(Fraction, st.integers(0, 200),
                               st.integers(1, 97))))
    def test_packs_and_cap_equal_their_definition(self, pairs, values,
                                                  bkfree, sense, n, mu):
        g = IntervalFunction("table", span=table_span(values),
                             bracket_independent=bkfree)
        scored = scored_pool(g, [Interval(min(p), max(p)) for p in pairs])
        scale = 1 << scored.E
        spans = [(_key(min(p), scored.E), _key(max(p), scored.E))
                 for p in pairs]
        assert scored.spans == spans
        vals = scored.best[sense]
        order = density_order(spans, vals, scale, (
            lambda v: not v <= 0) if sense == "max" else (
            lambda v: not v >= 0))
        assert repr(scored.pack(mu, sense)) == repr(
            greedy_pack(spans, vals, scale, order, mu))
        # the cap keeps the n densest spans in the max sense, ties to the
        # leftmost, in that order
        vals, lows = scored.best["max"], scored.best["min"]
        keep = density_order(spans, vals, scale, lambda v: True, 1)[:n]
        scored.cap(n)
        assert scored.spans == [spans[i] for i in keep]
        assert repr(scored.best["min"]) == repr([lows[i] for i in keep])

    def test_density_ties_and_abutting_spans(self):
        # at 2^-3: (0, 1) and (2, 4) tie at density 8, so the leftmost ranks
        # first, and (1, 2), at density 16, abuts both
        values = {(0, 1): 1.0, (2, 4): 2.0, (1, 2): 2.0}
        g = IntervalFunction("ties", span=lambda a, b, ex, lc, rc: values[
            a >> (ex - 3), b >> (ex - 3)], bracket_independent=True)
        scored = scored_pool(g, [Interval(ZERO, Dyadic(1, 3)),
                                 Interval(Dyadic(1, 2), Dyadic(1, 1)),
                                 Interval(Dyadic(1, 3), Dyadic(1, 2))])
        # the three fill the budget exactly
        assert scored.pack(Fraction(1, 2), "max") == (5.0, [2, 0, 1])
        assert scored.pack(Fraction(3, 8), "max") == (3.0, [2, 0])

    def test_default_schedule_on_dyadic_blocks(self):
        # the special points at the finest bound 2^-14 put the pool at the
        # exponent 16,384, where most spans' float lengths round to 0.0
        fx = fixture("dyadic_blocks")
        cfg = SearchConfig()
        scored = scored_pack_pool(fx.fn, fx.region, cfg)
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


class TestMonotoneProbe:
    @pytest.mark.parametrize("power, want", [
        (2.0, "decreases"), (0.5, "increases"), (INF, "both")])
    def test_powers_of_the_length(self, power, want):
        # (z - x)^p falls below (y - x)^p + (z - y)^p for p > 1 and rises
        # above it for p < 1, and +inf splits into +inf + +inf; the ends of
        # [0, 1/2] lie at different exponents
        g = IntervalFunction("power", span=lambda a, b, ex, lc, rc: (
            INF if power == INF else key_float(b - a, ex) ** power),
            bracket_independent=True)
        assert monotone_on_subdivision(
            g, Region.interval(ZERO, Dyadic(1, 1)), 20) == want

    @settings(max_examples=25, deadline=None)
    @given(regions(), st.integers(1, 5), st.integers(0, 99))
    def test_the_three_spans_vary_their_brackets_independently(
            self, region, samples, seed):
        # lc + rc takes 0..2 on x..z and 0..4 on the sums of x..y and y..z,
        # so one sample finds sums above and below; halves that kept the
        # whole's brackets and closed y on one side would add to lc + rc + 1
        g = IntervalFunction("brackets",
                             span=lambda a, b, ex, lc, rc: float(lc + rc))
        assert monotone_on_subdivision(g, region, samples, seed) == "neither"

    def test_samples_lie_on_the_2_12_grid_of_a_component(self):
        # each sample draws a component, then three of the 4095 interior
        # points of its grid of 2^12 cells, from Random(seed)
        seen = set()
        g = IntervalFunction("spans", span=lambda a, b, ex, lc, rc: seen.add(
            (Fraction(a, 1 << ex), Fraction(b, 1 << ex))) or 0.0,
            bracket_independent=True)
        region = Region([(ZERO, Dyadic(1, 1)), (Dyadic(3, 2), Dyadic(2))])
        assert monotone_on_subdivision(g, region, 30, seed=3) == "both"
        rng, want, comps = random.Random(3), set(), fractions(region)
        for _ in range(30):
            lo, hi = comps[rng.randrange(len(comps))]
            x, y, z = (lo + (hi - lo) * r / 4096
                       for r in sorted(rng.sample(range(1, 4095), 3)))
            want |= {(x, z), (x, y), (y, z)}
        assert seen == want

    def test_probe_evaluates_twelve_spans_per_sample(self):
        g, calls = counting(stieltjes(poly("x^3", [0, 0, 0, 1])))
        unit = Region.interval(ZERO, Dyadic(1))
        assert monotone_on_subdivision(g, unit, samples=50) == "both"
        assert calls[0] == 3 * 50


# ---------------------------------------------------------------------------
# the candidate filler against bisection in Fractions
# ---------------------------------------------------------------------------

def fractions(region):
    return [(lo.as_fraction(), hi.as_fraction())
            for lo, hi in region.components]


def halvings(region, e):
    """The most halvings a fill below e makes in a gap of the region."""
    return max(int((hi - lo) / e.as_fraction()).bit_length()
               for lo, hi in fractions(region))


def fraction_fill(points, comps, e):
    """The filler's definition in Fractions: per component (lo, hi), the
    points in it with its ends, each gap halved until its parts are below
    e.  The budget is checked before each split against the points placed
    so far, so the fill fails exactly when the budget is below the most
    points placed before a split, which is returned with the points."""
    pts = sorted({*points, *(p for comp in comps for p in comp)})
    out = []
    need = 0

    def split(a, b):
        nonlocal need
        if b - a >= e:
            need = max(need, len(out))
            split(a, (a + b) / 2)
            out.append((a + b) / 2)
            split((a + b) / 2, b)

    for lo, hi in comps:
        run = [p for p in pts if lo <= p <= hi]
        for a, b in zip(run, run[1:]):
            out.append(a)
            split(a, b)
        out.append(run[-1])
    return out, need


BOUNDS = st.builds(Dyadic, st.integers(1, 7), st.integers(0, 2))


class TestFillOracle:
    @settings(max_examples=200, deadline=None)
    @given(regions(), st.lists(POINTS, max_size=10),
           BOUNDS)
    def test_fill_equals_bisection_in_fractions(self, region, points, e):
        ex = _level_exponent(region, e, [p.exp for p in points])
        # the exponent holds every fill midpoint (the points below show
        # that), and exceeds the given points' by no more than a fill's
        # halvings
        assert ex <= max(p.exp for p in (e, *points, *region.endpoints())
                         ) + halvings(region, e)
        keys = [_key(p, ex) for p in points]
        want, need = fraction_fill([p.as_fraction() for p in points],
                                   fractions(region), e.as_fraction())
        # every budget up to the one the fill needs, so each boundary shows
        for cap in range(len(want) + 2):
            if cap < need:
                with pytest.raises(BudgetExceeded):
                    _fill([keys], region, e, ex, cap)
                continue
            cand, = _fill([keys], region, e, ex, cap)
            assert [Fraction(k, 1 << ex) for k in cand.keys] == want
            assert [(Dyadic(cand.keys[start], ex), Dyadic(cand.keys[stop - 1],
                                                          ex))
                    for start, stop in cand.runs] == list(region.components)

    @pytest.mark.parametrize("name", fixture_names())
    def test_sigma_stages_hold_the_chain_at_its_own_exponent(self, name):
        """Each sigma stage holds the last one, and its exponent exceeds
        its points' by no more than a fill's halvings: the chain is not
        carried at the exponents of all earlier levels."""
        fx = fixture(name)
        cfg = SearchConfig(e_schedule=tuple(Dyadic(1, k)
                                            for k in range(3, 11)))
        last = set()
        for lv in estimate_sigma_limit(fx.fn, fx.region, cfg).levels:
            cand = (lv.handle_upper or lv.handle_lower).cand
            pts = cand.points
            assert last <= set(pts)
            last = set(pts)
            assert cand.ex <= max(p.exp for p in pts) + halvings(fx.region,
                                                                 lv.e)


def fraction_family(specials, extra, region, e, density, cap):
    """The candidate family's definition in Fractions: at the largest
    power-of-two spacing s with s * density <= e, the grid, the grid
    offset by s/2 and, when special points lie in the region, the grid
    with them, them alone, and them alone with every gap's midpoint (the
    jitter), each with the extra points and filled below e, without
    repeats; or "BudgetExceeded" when the grid with each component's end,
    or a fill, needs more than cap points."""
    comps = fractions(region)
    s = Fraction(1)
    while s * density <= e:
        s *= 2
    while s * density > e:
        s /= 2
    if sum(ceil((hi - lo) / s) + 1 for lo, hi in comps) > cap:
        return "BudgetExceeded"

    def grid(start):
        return [lo + start + j * s for lo, hi in comps
                for j in range(ceil((hi - lo - start) / s))]

    def filled(pts):
        out, need = fraction_fill(pts + extra, comps, e)
        if cap < need:
            raise BudgetExceeded
        return out

    inside = [p for p in specials if any(lo <= p <= hi for lo, hi in comps)]
    family = []
    try:
        sets = [grid(0), grid(s / 2)]
        if inside:
            spec = filled(inside)
            sets += [grid(0) + inside, spec,
                     spec + [(a + b) / 2 for a, b in zip(spec, spec[1:])]]
        for pts in map(filled, sets):
            if pts not in family:
                family.append(pts)
    except BudgetExceeded:
        return "BudgetExceeded"
    return family


def fraction_j_spans(specials, region, y, schedule):
    """The spans of j's candidates at each level, by their definition in
    Fractions: in the window of y at e, the defect pool's four points
    below y and five from y up, with the window's special points, filled
    below e/4 once with y and once without it."""
    comps = fractions(region)
    pool = sorted({*specials, *(p for comp in comps for p in comp),
                   *(lo + j * (hi - lo) / 16 for lo, hi in comps
                     for j in range(17))})
    anchors = [p for p in pool if p < y][-4:] + [p for p in pool
                                                if p >= y][:5]
    levels = []
    for e in schedule:
        window = [(max(lo, y - e), min(hi, y + e)) for lo, hi in comps
                  if max(lo, y - e) < min(hi, y + e)]
        base = anchors + [p for p in specials
                          if any(lo <= p <= hi for lo, hi in window)]
        spans = set()
        for pts in (base + [y], [p for p in base if p != y]):
            filled = fraction_fill(pts, window, e / 4)[0]
            spans |= {(a, b) for a, b in zip(filled, filled[1:])
                      if any(lo <= a and b <= hi for lo, hi in window)}
        levels.append(spans)
    return levels


class TestCandidateFamilyOracle:
    @settings(max_examples=200, deadline=None)
    @given(regions(), st.lists(POINTS, max_size=8),
           st.lists(POINTS, max_size=4), BOUNDS, st.integers(1, 3),
           st.sampled_from((1, 8, 40, 120, 200_000)), st.booleans())
    def test_family_equals_its_definition_in_fractions(
            self, region, specials, extra, e, density, cap, use_specials):
        g = IntervalFunction("points", lambda iv: 0.0,
                             special_points=lambda r, res: specials)
        cfg = SearchConfig(e_schedule=(e,), grid_density=density,
                           max_points=cap, use_special_points=use_specials)
        try:
            got = [[Fraction(k, 1 << c.ex) for k in c.keys] for c in
                   candidate_point_sets(g, region, e, cfg, extra)]
        except BudgetExceeded:
            got = "BudgetExceeded"
        assert got == fraction_family(
            [p.as_fraction() for p in specials if use_specials],
            [p.as_fraction() for p in extra], region, e.as_fraction(),
            density, cap)

    @settings(max_examples=100, deadline=None)
    @given(regions(), st.lists(POINTS, max_size=8), st.data(),
           st.lists(BOUNDS, min_size=1, max_size=4, unique=True))
    def test_j_spans_equal_their_definition_in_fractions(
            self, region, specials, data, schedule):
        lo, hi = data.draw(st.sampled_from(region.components))
        y = lo + (hi - lo) * Dyadic(data.draw(st.integers(1, 63)), 6)
        schedule = sorted(schedule, reverse=True)
        levels = []                  # the spans each level evaluates

        def specials_of(r, res):
            levels.append(set())
            return specials

        def span(a, b, ex, lc, rc):
            levels[-1].add((Fraction(a, 1 << ex), Fraction(b, 1 << ex)))
            return 0.0

        g = IntervalFunction("points", span=span, bracket_independent=True,
                             special_points=specials_of)
        variation_mod.j_singularity(g, region, y,
                                    SearchConfig(e_schedule=tuple(schedule)))
        inside = [p.as_fraction() for p in specials
                  if any(lo <= p <= hi for lo, hi in region.components)]
        # the first call of special_points builds the defect pool
        assert levels[1:] == fraction_j_spans(
            inside, region, y.as_fraction(), [e.as_fraction()
                                              for e in schedule])


# ---------------------------------------------------------------------------
# integer staircase
# ---------------------------------------------------------------------------

_REF_EV, _REF_SPANS = ref_staircase()
_EV, _SPANS = cantor_staircase_12()
# keys a at exponents ex up to 100, a/2^ex in [-1/8, 9/8]
STAIR_KEYS = st.integers(0, 100).flatmap(lambda ex: st.tuples(
    st.integers(-(1 << ex) // 8 - 1, (1 << ex) + (1 << ex) // 8 + 1),
    st.just(ex)))


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

    @settings(max_examples=1000, deadline=None)
    @given(STAIR_KEYS, st.integers(0, 70))
    def test_key_evaluator_equals_reference(self, key, k):
        a, ex = key
        want = repr(_REF_EV(Dyadic(a, ex)))
        assert repr(_EV.keyed(a, ex)) == want
        assert repr(_EV.keyed(a << k, ex + k)) == want
        assert repr(_EV(Dyadic(a, ex))) == want

    def test_keys_past_2_62(self):
        ex = 90
        for a in (1, (1 << 88) + 12345, (1 << 89) - 1, 1 << 90,
                  (1 << 89) + (1 << 60) + 1):
            assert repr(_EV.keyed(a, ex)) == repr(_REF_EV(Dyadic(a, ex)))

    @settings(max_examples=500, deadline=None)
    @given(STAIR_KEYS, STAIR_KEYS, st.integers(0, 70), st.booleans(),
           st.booleans())
    def test_span_equals_endpoint_difference(self, p, q, k, lc, rc):
        g, _ = cantor_staircase_function()
        (a, ea), (b, eb) = p, q
        lo, hi = sorted((Dyadic(a, ea), Dyadic(b, eb)),
                        key=lambda d: d.num << (128 - d.exp))
        if lo == hi:
            return
        ex = max(ea, eb)
        ak, bk = lo.num << (ex - lo.exp), hi.num << (ex - hi.exp)
        want = repr(_REF_EV(hi) - _REF_EV(lo))
        assert repr(g.span(ak, bk, ex, lc, rc)) == want
        assert repr(g.span(ak << k, bk << k, ex + k, lc, rc)) == want
        assert repr(g(Interval(lo, hi, lc, rc))) == want

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, (1 << 12) - 1), st.integers(33, 80),
           st.integers(-(1 << 16), 1 << 16))
    def test_points_near_breakpoints_equal_reference(self, i, k, off):
        # a breakpoint moved by a few units at a fine exponent
        a = _SPANS[i][0]
        x = Dyadic((a.num << (k - a.exp)) + off, k)
        assert repr(_EV(x)) == repr(_REF_EV(x))


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
            for e in SHORT.e_schedule:
                assert [(c.points, c.runs) for c in candidate_point_sets(
                    fx.fn, region, e, SHORT, stray)] == [
                    (c.points, c.runs) for c in candidate_point_sets(
                        fx.fn, region, e, SHORT)]
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
    # every junction ")[": each span limited to its one variant [a, b)
    "norm_fixed": lambda g, fx, cfg=LEVELS: estimate_norm_limits(
        g, fx.region, replace(cfg, convention_mode="fixed")),
    "k_chain": lambda g, fx, cfg=LEVELS: k_chain_reports(
        g, fx.region, _perms(fx), cfg),
    "sigma": lambda g, fx, cfg=LEVELS: estimate_sigma_limit(g, fx.region, cfg),
    "variation": lambda g, fx, cfg=LEVELS: variation_mod.variation(
        g, fx.region, cfg),
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
# planar integer cells
# ---------------------------------------------------------------------------

class TestPlanarCells:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(-64, 64), st.integers(1, 64), st.integers(1, 8))
    def test_chop_cuts_pieces_of_s_and_one_below_2s(self, a, length, s):
        cuts = _chop(a, a + length, s)
        pieces = [q - p for p, q in zip(cuts, cuts[1:])]
        assert (cuts[0], cuts[-1]) == (a, a + length)
        assert pieces[:-1] == [s] * (len(pieces) - 1)
        assert pieces[-1] < 2 * s and (len(pieces) == 1 or pieces[-1] >= s)

    def test_guillotine_leaves_no_empty_band(self):
        # a special rectangle as tall as the region has no band above or
        # below it
        cells = _guillotine_cells((0, 8, 0, 8), [(2, 4, 0, 8)], 1)
        assert all(x0 < x1 and y0 < y1 for x0, x1, y0, y1 in cells)
        assert sum((x1 - x0) * (y1 - y0) for x0, x1, y0, y1 in cells) == 64

    def test_budget_admits_exactly_max_points_cells(self):
        # the restricted grid of the unit square at e = 1/2 has 8 x 8 cells
        unit = closed_rect(ZERO, ONE, ZERO, ONE)
        for cap in (64, 63):
            cfg = planar_config(e_schedule=(Dyadic(1, 1),), max_points=cap)
            try:
                estimate_norm_limits_2d(area_function(), unit, "restricted",
                                        cfg)
            except BudgetExceeded:
                assert cap == 63
            else:
                assert cap == 64

    def test_anchors_outside_the_region_are_ignored(self):
        unit = closed_rect(ZERO, ONE, ZERO, ONE)
        s = Dyadic(1, 3)
        got = cell_rects(unit, s, [Dyadic(-1), ONE, Dyadic(3, 1)],
                         [Dyadic(5, 2), Dyadic(9)])
        assert got == cell_rects(unit, s, [], [Dyadic(5, 2)])


# ---------------------------------------------------------------------------
# Fubini's chain on columns that mix infinities and NaN
# ---------------------------------------------------------------------------

class TestFubiniChain:
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
        assert repr(fubini_chain(gT, unit, cfg).levels) == want

    def test_nan_columns_never_reach_the_outer_sums(self):
        # an inner search keeps a candidate only on a strict improvement,
        # so a column whose every rectangle is NaN reads +inf below and
        # -inf above, and no outer sum is NaN
        gT = RectFunction("nan_left", lambda r: float("nan")
                          if r.x.lo == ZERO else 1.0)
        cfg = SearchConfig(e_schedule=(Dyadic(1, 1), Dyadic(1, 2)))
        rep = fubini_chain(gT, closed_rect(ZERO, ONE, -ONE, ONE), cfg)
        assert [vs for _, *vs in rep.levels] == [[INF, INF, -INF, -INF]] * 2

    def test_fixed_mode_columns_are_closed_on_the_left(self):
        # the area of the cells whose x side is ")[": all of it in "fixed"
        gT = RectFunction("left_closed", lambda r: float(
            r.x.left_closed and not r.x.right_closed) * float(
            r.x.length * r.y.length))
        cfg = SearchConfig(e_schedule=(Dyadic(1, 1), Dyadic(1, 2)),
                           convention_mode="fixed")
        rep = fubini_chain(gT, closed_rect(ZERO, ONE, ZERO, ONE), cfg)
        assert [vs for _, *vs in rep.levels] == [[1.0] * 4] * 2

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
