import random
import signal

import pytest

from burkill.around_set import around_limits
from burkill.catalog import (
    IntervalFunction,
    add_fn,
    fixture,
    fixture_names,
    length_fn,
    poly,
    pow2,
    scale_fn,
    stieltjes,
)
from burkill.core import (
    Dyadic,
    Interval,
    PointConvention,
    Region,
    ZERO,
    division_from_points,
)
from burkill.density import MeasurableSet, density_integral
from burkill.errors import BudgetExceeded
from burkill.integrator import (
    SearchConfig,
    _norm_search,
    additivity_defect,
    brute_force_extremal,
    candidate_point_sets,
    defect_report_at,
    estimate_k_limits,
    estimate_norm_limits,
    estimate_sigma_limit,
    extremal_sum,
    k_chain_reports,
    riemann_sum,
    singularity_scan,
)
from burkill.variation import (
    is_absolutely_continuous,
    j_singularity,
    variation,
    variation_split,
)

D = Dyadic
INF = float("inf")


def cfg_levels(start=3, stop=10, **kw):
    return SearchConfig(e_schedule=tuple(D(1, k) for k in range(start, stop)),
                        **kw)


UNIT = Region.interval(ZERO, D(1))
SYM = Region.interval(D(-1), D(1))


class TestSearchConfig:
    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError, match="e_schedule"):
            SearchConfig(e_schedule=())

    @pytest.mark.parametrize("density", [0, -1])
    def test_non_positive_grid_density_rejected(self, density):
        with pytest.raises(ValueError, match="grid_density"):
            SearchConfig(grid_density=density)

    def test_unknown_convention_mode_rejected(self):
        with pytest.raises(ValueError, match="convention_mode"):
            SearchConfig(convention_mode="enumerate")

    @pytest.mark.parametrize("tol", [-1.0, -1e-12, float("nan")])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tol_float"):
            SearchConfig(tol_float=tol)

    @pytest.mark.parametrize("tol", [float("inf"), float("1e400")])
    def test_infinite_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tol_float.* finite"):
            SearchConfig(tol_float=tol)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_non_positive_max_points_rejected(self, cap):
        with pytest.raises(ValueError, match="max_points"):
            SearchConfig(max_points=cap)

    def test_zero_tolerance_accepted(self):
        assert SearchConfig(tol_float=0.0).tol_float == 0.0


EMPTY_REGION_ESTIMATES = {
    "norm": estimate_norm_limits,
    "k": lambda g, r, c: estimate_k_limits(g, r, [(ZERO, (False, True))], c),
    "k_chain": lambda g, r, c: k_chain_reports(g, r, [(ZERO, (False, True))],
                                               c),
    "sigma": estimate_sigma_limit,
    "variation": variation,
}


@pytest.mark.parametrize("name", sorted(EMPTY_REGION_ESTIMATES))
def test_empty_region_rejected(name):
    estimate = EMPTY_REGION_ESTIMATES[name]
    with pytest.raises(ValueError, match="region is empty"):
        estimate(length_fn(), Region([]), cfg_levels(3, 5))


class TestRiemannSum:
    def test_length_sums_to_measure(self):
        d = division_from_points(UNIT, [ZERO, D(1, 3), D(1, 1), D(7, 3), D(1)])
        assert riemann_sum(length_fn(), d) == 1.0

    def test_stieltjes_telescopes(self):
        g = stieltjes(poly("x^2", [0, 0, 1]))
        d = division_from_points(UNIT, [ZERO, D(1, 2), D(5, 3), D(1)])
        assert abs(riemann_sum(g, d) - 1.0) < 1e-15

    def test_origin_divisions(self):
        g = fixture("origin_indicator").fn
        omit = division_from_points(
            SYM, [D(-1), ZERO, D(1)],
            conventions=[PointConvention(ZERO, False, False)])
        assert riemann_sum(g, omit) == 0.0
        both = division_from_points(
            SYM, [D(-1), ZERO, D(1)],
            conventions=[PointConvention(ZERO, True, True)])
        assert riemann_sum(g, both) == 2.0


class TestExtremalSum:
    def test_bracket_independent_collapses(self):
        g = stieltjes(poly("x", [0, 1]))
        pts = [ZERO, D(1, 2), D(1, 1), D(1)]
        up, wit = extremal_sum(g, pts, UNIT, "max")
        low, _ = extremal_sum(g, pts, UNIT, "min")
        assert up == low == riemann_sum(g, wit)

    def test_origin_indicator_bounds(self):
        # with per-interval freedom the charge can be omitted or doubled
        g = fixture("origin_indicator").fn
        pts = [D(-1), ZERO, D(1)]
        up, _ = extremal_sum(g, pts, SYM, "max")
        low, _ = extremal_sum(g, pts, SYM, "min")
        assert (up, low) == (2.0, 0.0)

    def test_matches_brute_force(self):
        rng = random.Random(3)
        for name in ("saks_A_counterexample", "k_convention_jump",
                     "origin_indicator"):
            fx = fixture(name)
            lo, hi = fx.region.components[0]
            span = hi - lo
            for _ in range(20):
                m = rng.randint(1, 5)
                raws = sorted(rng.sample(range(0, 257), m + 1))
                pts = [lo + span * D(r, 8) for r in raws]
                sub = Region.interval(pts[0], pts[-1])
                for sense in ("max", "min"):
                    fast, _ = extremal_sum(fx.fn, pts, sub, sense)
                    assert fast == brute_force_extremal(fx.fn, pts, sub, sense)

    def test_tie_breaks_open(self):
        g = length_fn()
        _, wit = extremal_sum(g, [ZERO, D(1)], UNIT, "max")
        iv = wit.intervals[0]
        assert (iv.left_closed, iv.right_closed) == (False, False)


WITNESS_SEARCHES = {
    "norm": lambda fx: [estimate_norm_limits(fx.fn, fx.region,
                                             cfg_levels(3, 9))],
    "k_chain": lambda fx: k_chain_reports(fx.fn, fx.region,
                                          list(fx.permanent), cfg_levels(3, 9)),
    "sigma": lambda fx: [estimate_sigma_limit(fx.fn, fx.region,
                                              cfg_levels(3, 9))],
}


class TestNormLimits:
    def test_length_converges(self):
        rep = estimate_norm_limits(length_fn(), UNIT, cfg_levels())
        assert rep.verdict.kind == "converged"
        assert rep.verdict.value == 1.0

    def test_trace_is_monotone(self):
        for name in ("saks_A_counterexample", "origin_indicator",
                     "k_convention_jump"):
            fx = fixture(name)
            rep = estimate_norm_limits(fx.fn, fx.region, cfg_levels())
            ups = [lv.upper for lv in rep.levels]
            lows = [lv.lower for lv in rep.levels]
            assert all(a >= b for a, b in zip(ups, ups[1:]))
            assert all(a <= b for a, b in zip(lows, lows[1:]))
            assert all(lv.lower <= lv.upper for lv in rep.levels)

    def test_origin_oscillates(self):
        rep = estimate_norm_limits(fixture("origin_indicator").fn, SYM,
                                   cfg_levels())
        assert rep.verdict.kind == "oscillating"
        assert (rep.upper, rep.lower) == (2.0, 0.0)

    def test_osc_left_limit_value(self):
        fx = fixture("osc_left_limit")
        region = Region.interval(ZERO, D(3, 2))
        rep = estimate_norm_limits(fx.fn, region, cfg_levels(3, 10))
        assert abs(rep.upper - 0.5) <= 1e-6

    def test_osc_left_limit_fine_level_overshoots(self):
        # at finer norm bounds the search finds stacked telescoping chains
        # separated by break intervals (a gap at x that reaches x**3 after
        # a zigzag peak skips the descent), so the one-sided estimate rises
        # above the single-chain value; it must never fall below it
        fx = fixture("osc_left_limit")
        region = Region.interval(ZERO, D(3, 2))
        rep = estimate_norm_limits(fx.fn, region, cfg_levels(9, 13))
        assert rep.upper >= 0.5 - 1e-12

    def test_k_jump_lower_is_one(self):
        # the closed-span bonus is avoidable and masses at locked points
        # cannot be omitted, so the lower k estimate sits at the mass sum
        fx = fixture("k_convention_jump")
        rep = estimate_k_limits(fx.fn, fx.region, list(fx.permanent),
                                cfg_levels(3, 13))
        assert abs(rep.lower - 1.0) <= 1e-6

    @pytest.mark.parametrize("side", ("upper", "lower"))
    @pytest.mark.parametrize("search", sorted(WITNESS_SEARCHES))
    @pytest.mark.parametrize("name", fixture_names())
    def test_witness_has_reported_sum(self, name, search, side):
        # the search scores on g.span; each witness, re-summed on its
        # Intervals, gives the value the level reports
        fx = fixture(name)
        checked = 0
        for rep in WITNESS_SEARCHES[search](fx):
            for lv in rep.levels:
                witness = getattr(lv, f"witness_{side}")
                if witness is not None:
                    assert repr(riemann_sum(fx.fn, witness)) == \
                        repr(getattr(lv, side)), lv.e
                    checked += 1
        assert checked

    def test_scaling_rule(self):
        fx = fixture("origin_indicator")
        rep = estimate_norm_limits(fx.fn, SYM, cfg_levels())
        rep3 = estimate_norm_limits(scale_fn(3.0, fx.fn), SYM, cfg_levels())
        repm = estimate_norm_limits(scale_fn(-2.0, fx.fn), SYM, cfg_levels())
        assert rep3.upper == 3.0 * rep.upper
        assert rep3.lower == 3.0 * rep.lower
        assert repm.upper == -2.0 * rep.lower
        assert repm.lower == -2.0 * rep.upper

    def test_sum_rule(self):
        g1 = length_fn()
        g2 = stieltjes(poly("x^2", [0, 0, 1]))
        r1 = estimate_norm_limits(g1, UNIT, cfg_levels())
        r2 = estimate_norm_limits(g2, UNIT, cfg_levels())
        r12 = estimate_norm_limits(add_fn(g1, g2), UNIT, cfg_levels())
        assert r12.verdict.kind == "converged"
        assert abs(r12.verdict.value
                   - (r1.verdict.value + r2.verdict.value)) <= 2e-6

    def test_budget_exceeded(self):
        from burkill.errors import BudgetExceeded
        cfg = SearchConfig(e_schedule=(D(1, 12),), max_points=100)
        with pytest.raises(BudgetExceeded):
            estimate_norm_limits(length_fn(), UNIT, cfg)

    @pytest.mark.parametrize("comps, points", [
        ([(ZERO, D(1))], 9),                 # eight steps and the right end
        ([(ZERO, D(3, 4))], 3),              # a step, a part and the end
        ([(ZERO, D(1, 1)), (D(1), D(2))], 14),
    ])
    def test_grid_budget_is_the_grid_with_its_right_ends(self, comps, points):
        # spacing 1/8 at e = 1/4; the budget holds the grid exactly
        region, e = Region(comps), D(1, 2)
        grid = candidate_point_sets(length_fn(), region, e, SearchConfig(
            e_schedule=(e,), max_points=points))[0]
        assert len(grid.keys) == points
        with pytest.raises(BudgetExceeded,
                           match=f"grid needs more than {points - 1} points"):
            candidate_point_sets(length_fn(), region, e, SearchConfig(
                e_schedule=(e,), max_points=points - 1))

    def test_sigma_grid_over_budget(self):
        # sigma's grid already has every gap below e, so no fill checks it
        from burkill.errors import BudgetExceeded
        cfg = SearchConfig(e_schedule=(D(1, 3), D(1, 6)), max_points=20)
        fx = fixture("origin_indicator")
        with pytest.raises(BudgetExceeded,
                           match="grid needs more than 20 points"):
            estimate_sigma_limit(fx.fn, fx.region, cfg)

    def test_additive_over_regions(self):
        g = stieltjes(poly("x^2", [0, 0, 1]))
        r_union = estimate_norm_limits(
            g, Region([(ZERO, D(1)), (D(2), D(3))]), cfg_levels())
        r1 = estimate_norm_limits(g, UNIT, cfg_levels())
        r2 = estimate_norm_limits(g, Region.interval(D(2), D(3)),
                                  cfg_levels())
        assert abs(r_union.verdict.value
                   - (r1.verdict.value + r2.verdict.value)) <= 2e-6


class TestDefects:
    def test_additive_bracket_free_is_zero(self):
        g = stieltjes(poly("x^3", [0, 0, 0, 1]))
        assert additivity_defect(g, D(1, 3), D(1, 2), D(1, 1)) == 0.0
        assert additivity_defect(length_fn(), D(1, 3), D(1, 2), D(1, 1)) == 0.0

    def test_saks_defect_at_one(self):
        g = fixture("saks_A_counterexample").fn
        one = D(1)
        assert additivity_defect(g, one - pow2(8), one, one + pow2(8)) == 1.0

    def test_requires_order(self):
        with pytest.raises(ValueError):
            additivity_defect(length_fn(), D(1, 1), D(1, 1), D(1))

    def test_scan_clean_function(self):
        g = stieltjes(poly("x", [0, 1]))
        assert singularity_scan(g, UNIT, cfg_levels()) == []

    def test_scan_m_power(self):
        fx = fixture("m_power_singularity")
        reports = singularity_scan(fx.fn, fx.region, cfg_levels())
        by_point = {r.point: r for r in reports}
        assert ZERO in by_point
        assert by_point[ZERO].c == 1.0
        # two-sided defect sits between c and 2c
        assert 1.0 <= by_point[ZERO].sigma <= 2.0

    def test_scan_saks_finds_the_joint(self):
        fx = fixture("saks_A_counterexample")
        reports = singularity_scan(fx.fn, fx.region, cfg_levels())
        by_point = {r.point: r for r in reports}
        assert D(1) in by_point and by_point[D(1)].c == 1.0

    def test_defect_trace_is_monotone(self):
        fx = fixture("m_power_singularity")
        rep = defect_report_at(fx.fn, fx.region, ZERO, cfg_levels())
        vals = [v for _, v in rep.trace]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    # the gap between the components holds the origin, so the region
    # holds none of m_power_singularity's charged spans [-2^-i, 2^-i]
    GAPPED = Region([(-D(1), -pow2(12)), (pow2(12), D(1))])

    def test_scan_triples_stay_in_one_component(self):
        fx = fixture("m_power_singularity")
        assert singularity_scan(fx.fn, self.GAPPED, cfg_levels(3, 9)) == []

    def test_defect_report_triples_stay_in_one_component(self):
        fx = fixture("m_power_singularity")
        left = Region([(-D(1), -pow2(12))])
        for region in (self.GAPPED, left):
            rep = defect_report_at(fx.fn, region, -pow2(11), cfg_levels(3, 9))
            assert rep.c == rep.sigma == 0.0

    def test_blocks_defect_free_at_origin(self):
        fx = fixture("dyadic_blocks")
        rep = defect_report_at(fx.fn, fx.region, ZERO, cfg_levels())
        assert rep.c == 0.0 and rep.sigma == 0.0

    def test_c_le_sigma_le_2c(self):
        for name in ("saks_A_counterexample", "origin_indicator",
                     "m_power_singularity", "k_convention_jump"):
            fx = fixture(name)
            for r in singularity_scan(fx.fn, fx.region, cfg_levels()):
                assert r.c <= r.sigma <= 2 * r.c + 1e-12


class TestKLimits:
    def test_empty_permanent_reduces_to_norm(self):
        fx = fixture("origin_indicator")
        a = estimate_norm_limits(fx.fn, SYM, cfg_levels())
        b = estimate_k_limits(fx.fn, SYM, [], cfg_levels())
        assert [(lv.upper, lv.lower) for lv in a.levels] == \
               [(lv.upper, lv.lower) for lv in b.levels]

    def test_open_junction_locks_out_charge(self):
        fx = fixture("origin_indicator")
        rep = estimate_k_limits(fx.fn, SYM, [(ZERO, (False, False))],
                                cfg_levels())
        assert rep.verdict.kind == "converged"
        assert rep.verdict.value == 0.0

    def test_fixed_convention_recovers_additive_value(self):
        # an additive function integrates to itself under the ")[" scheme
        g = fixture("origin_indicator").fn
        cfg = cfg_levels(convention_mode="fixed")
        rep = estimate_norm_limits(g, SYM, cfg)
        assert rep.verdict.kind == "converged"
        assert rep.verdict.value == g(Interval(D(-1), D(1), True, False))

    def test_chain_shares_candidates(self):
        fx = fixture("k_convention_jump")
        norm_rep, k_rep = k_chain_reports(fx.fn, fx.region,
                                          list(fx.permanent), cfg_levels())
        for nl, kl in zip(norm_rep.levels, k_rep.levels):
            assert nl.lower <= kl.lower <= kl.upper <= nl.upper

    def test_full_three_family_chain(self):
        # more permanent points with locked conventions narrow the envelope:
        # plain limits enclose the few-point family, which encloses the
        # full singular family, level by level over shared candidates
        fx = fixture("k_convention_jump")
        cfg = cfg_levels(3, 9)
        lock = (False, True)
        few = {ZERO: lock, D(1, 1): lock, D(1, 2): lock}
        full = dict(few)
        full.update({D(1, r): lock for r in range(3, 11)})
        mandatory = list(full)

        def levels(locks):
            return _norm_search(fx.fn, fx.region, cfg, [(True, False)],
                                lambda e: (mandatory, locks))[0].levels

        plain = levels({})
        mid = levels(few)
        tight = levels(full)
        for p, m, t in zip(plain, mid, tight):
            assert p.lower <= m.lower <= t.lower
            assert t.upper <= m.upper <= p.upper
            assert t.lower <= t.upper


class TestSigmaLimit:
    def test_bracket_free_matches_norm(self):
        g = stieltjes(poly("x^2", [0, 0, 1]))
        rep = estimate_sigma_limit(g, UNIT, cfg_levels())
        assert rep.verdict.kind == "converged"
        assert abs(rep.verdict.value - 1.0) <= 1e-9

    def test_origin_keeps_oscillating(self):
        rep = estimate_sigma_limit(fixture("origin_indicator").fn, SYM,
                                   cfg_levels())
        assert rep.verdict.kind == "oscillating"
        assert (rep.upper, rep.lower) == (2.0, 0.0)

    def test_fixed_convention_recovers_additive_value(self):
        g = fixture("origin_indicator").fn
        rep = estimate_sigma_limit(g, SYM, cfg_levels(convention_mode="fixed"))
        assert rep.verdict.kind == "converged"
        assert rep.verdict.value == g(Interval(D(-1), D(1), True, False))

    def test_agrees_with_all_conventions_k_limit(self):
        fx = fixture("m_power_singularity")
        sig = estimate_sigma_limit(fx.fn, fx.region, cfg_levels())
        kp = estimate_k_limits(fx.fn, fx.region, [(ZERO, None)], cfg_levels())
        assert sig.verdict.kind == kp.verdict.kind == "converged"
        assert sig.verdict.value == kp.verdict.value == 0.0


class TestOscillationAndCauchy:
    def test_converged_oscillation_zero(self):
        rep = estimate_norm_limits(length_fn(), UNIT, cfg_levels())
        assert rep.upper - rep.lower == 0.0

    def test_origin_oscillation(self):
        rep = estimate_norm_limits(fixture("origin_indicator").fn, SYM,
                                   cfg_levels())
        assert rep.upper - rep.lower == 2.0

    def test_saks_oscillation(self):
        fx = fixture("saks_A_counterexample")
        rep = estimate_norm_limits(fx.fn, Region.interval(ZERO, D(1)),
                                   cfg_levels())
        assert rep.upper - rep.lower == 1.0  # brute-force lower lands on zeros


class TestDefectBound:
    def test_c_bounded_by_oscillation(self):
        # defect at a point never exceeds the oscillation over the region
        cfg = cfg_levels()
        fx = fixture("origin_indicator")
        rep = estimate_norm_limits(fx.fn, SYM, cfg)
        c = defect_report_at(fx.fn, SYM, ZERO, cfg).c
        assert c <= rep.upper - rep.lower + 2e-6

        fx = fixture("saks_A_counterexample")
        rep = estimate_norm_limits(fx.fn, fx.region, cfg)
        c = defect_report_at(fx.fn, fx.region, D(1), cfg).c
        assert c <= rep.upper - rep.lower + 2e-6

    @pytest.mark.parametrize("y", [D(5), ZERO, D(2)])
    def test_point_outside_the_interior_rejected(self, y):
        fx = fixture("saks_A_counterexample")
        with pytest.raises(ValueError, match="not interior"):
            defect_report_at(fx.fn, fx.region, y, cfg_levels(3, 5))


def _never(region, resolution):
    raise AssertionError(f"special points asked on {region}")


HALF = MeasurableSet.from_spans([(ZERO, D(1, 1))])
# each entry point on a region whose first component holds 1/2 inside
CALLS = {
    "norm": lambda g, R, cfg: estimate_norm_limits(g, R, cfg),
    "k": lambda g, R, cfg: estimate_k_limits(
        g, R, [(D(1, 1), (False, True))], cfg),
    "k_chain": lambda g, R, cfg: k_chain_reports(g, R, [(D(1, 1), None)],
                                                 cfg),
    "sigma": lambda g, R, cfg: estimate_sigma_limit(g, R, cfg),
    "variation": lambda g, R, cfg: variation(g, R, cfg),
    "singularity_scan": lambda g, R, cfg: singularity_scan(g, R, cfg),
    "defect_report_at": lambda g, R, cfg: defect_report_at(g, R, D(1, 1),
                                                           cfg),
    "j_singularity": lambda g, R, cfg: j_singularity(g, R, D(1, 1), cfg),
    "is_absolutely_continuous": lambda g, R, cfg: is_absolutely_continuous(
        g, R, cfg),
    "variation_split": lambda g, R, cfg: variation_split(
        g, Interval(*R.components[0]), cfg),
    "density_integral": lambda g, R, cfg: density_integral(g, HALF, R, cfg),
    "around_limits": lambda g, R, cfg: around_limits(g, HALF, R, cfg),
}


@pytest.mark.parametrize("call", sorted(CALLS))
def test_wide_region_fails_on_the_grid_budget(call):
    """On [0, 10^30] the grid is over budget, and each entry point says so
    before it asks g for special points (osc_left_limit's chain would walk
    toward 10^30): g's callback fails if it is called."""
    def out_of_time(signum, frame):
        raise TimeoutError(f"{call} ran past 4 s")

    osc = fixture("osc_left_limit").fn
    g = IntervalFunction("never", span=osc.span,
                         bracket_independent=osc.bracket_independent,
                         special_points=_never)
    cfg = cfg_levels(3, 5)
    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(4)
    try:
        with pytest.raises(BudgetExceeded,
                           match="grid needs more than 200000 points"):
            CALLS[call](g, Region.interval(ZERO, D(10 ** 30)), cfg)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call", sorted(CALLS))
def test_no_special_points_under_use_special_points_false(call):
    """use_special_points=False reaches every search: none asks g."""
    g = IntervalFunction("never", span=lambda a, b, ex, lc, rc: (
        (b - a) / (1 << ex)) ** 2, bracket_independent=True,
        special_points=_never)
    CALLS[call](g, UNIT, cfg_levels(3, 6, use_special_points=False))
