from fractions import Fraction

import pytest

from burkill.catalog import (
    cantor_staircase_function,
    fixture,
    hellinger,
    length_fn,
    poly,
    stieltjes,
)
from burkill.core import Dyadic, Interval, Region, ZERO
from burkill.errors import BracketDependent
from burkill.integrator import SearchConfig
from burkill.variation import (
    is_absolutely_continuous,
    j_singularity,
    monotone_on_subdivision,
    scored_pack_pool,
    variation,
    variation_split,
)

from oracles import step

D = Dyadic
INF = float("inf")
UNIT = Region.interval(ZERO, D(1))


def cfg(stop=11):
    return SearchConfig(e_schedule=tuple(D(1, k) for k in range(3, stop)))


class TestVariation:
    def test_monotone_stieltjes(self):
        rep = variation(stieltjes(poly("x", [0, 1])), UNIT, cfg())
        assert rep.verdict == "finite"
        assert rep.total == 1.0

    def test_hump(self):
        rep = variation(stieltjes(poly("x(1-x)", [0, 1, -1])), UNIT, cfg())
        assert abs(rep.total - 0.5) <= 1e-6

    def test_blocks_diverge(self):
        fx = fixture("dyadic_blocks")
        rep = variation(fx.fn, fx.region, cfg())
        assert rep.verdict == "infinite" and rep.total == INF

    def test_var_dominates_a_bound(self):
        for name in ("origin_indicator", "saks_A_counterexample"):
            fx = fixture(name)
            rep = variation(fx.fn, fx.region, cfg())
            assert rep.a_bound <= rep.levels[-1][1] + 1e-12
            # level by level, |sum g| <= sum |g| on shared candidates
            for (_, v), base in zip(rep.levels, rep.base_report.levels):
                assert max(abs(base.upper), abs(base.lower)) <= v + 1e-12

    def test_subregion_monotone(self):
        g = stieltjes(poly("x(1-x)", [0, 1, -1]))
        small = variation(g, Region.interval(D(1, 2), D(1, 1)), cfg())
        big = variation(g, UNIT, cfg())
        assert small.total <= big.total + 1e-9


class TestJSingularity:
    def test_continuous_bv_vanishes(self):
        g = stieltjes(poly("x^2", [0, 0, 1]))
        assert j_singularity(g, UNIT, D(1, 1), cfg()) <= 1e-2

    def test_unit_jump(self):
        g = stieltjes(step(D(1, 1)))
        assert j_singularity(g, UNIT, D(1, 1), cfg()) == 1.0

    def test_blocks_infinite(self):
        fx = fixture("dyadic_blocks")
        assert j_singularity(fx.fn, fx.region, ZERO, cfg()) == INF

    def test_fixed_convention_bounded_by_variation(self):
        # under ")[" at every junction the charge at 0 counts once
        g = fixture("origin_indicator").fn
        fixed = SearchConfig(e_schedule=cfg().e_schedule,
                             convention_mode="fixed")
        sym = Region.interval(D(-1), D(1))
        total = variation(g, sym, fixed).total
        assert total == 1.0
        assert j_singularity(g, sym, ZERO, fixed) <= total

    def test_requires_interior(self):
        with pytest.raises(ValueError):
            j_singularity(length_fn(), UNIT, ZERO, cfg())

    def test_sum_of_j_below_variation(self):
        # two isolated jumps: j values sum below the total variation
        from burkill.catalog import add_fn
        g = add_fn(stieltjes(step(D(1, 2), jump=0.3)),
                   stieltjes(step(D(3, 2), jump=0.5)))
        rep = variation(g, UNIT, cfg())
        j1 = j_singularity(g, UNIT, D(1, 2), cfg())
        j2 = j_singularity(g, UNIT, D(3, 2), cfg())
        assert j1 + j2 <= rep.total + 1e-9


class TestAbsoluteContinuity:
    def test_length_passes_exactly(self):
        ok, trace = is_absolutely_continuous(length_fn(), UNIT, cfg())
        assert ok
        assert all(val <= float(mu) + 1e-15 for mu, val in trace)

    def test_smooth_stieltjes_passes(self):
        ok, _ = is_absolutely_continuous(
            stieltjes(poly("x^2", [0, 0, 1])), UNIT, cfg())
        assert ok

    def test_staircase_fails(self):
        stair, _ = cantor_staircase_function()
        ok, trace = is_absolutely_continuous(stair, UNIT, cfg())
        assert not ok
        assert trace[-1][1] >= 1e-3

    def test_staircase_pack_carries_mass(self):
        stair, _ = cantor_staircase_function()
        scored = scored_pack_pool(stair, UNIT, cfg())
        mu = Fraction(2, 3) ** 12 + Fraction(1, 1 << 14)
        carried, pack = scored.pack(mu, "max")
        assert carried >= 0.99
        total = sum(Fraction(hi - lo, 1 << scored.E)
                    for lo, hi in map(scored.spans.__getitem__, pack))
        assert total <= mu

    def test_ac_implies_bv(self):
        for g in (length_fn(), stieltjes(poly("x^2", [0, 0, 1]))):
            ok, _ = is_absolutely_continuous(g, UNIT, cfg())
            if ok:
                assert variation(g, UNIT, cfg()).verdict == "finite"

    def test_semicontinuity_probe_is_one_sided(self):
        from burkill.catalog import scale_fn
        from burkill.variation import AC_THRESHOLD, scored_pack_pool

        def small(g, sense):
            # the greedy pack of measure at most 2^-12 in the sense "max"
            # (the upper side) or "min" (the lower side)
            value, _ = scored_pack_pool(g, UNIT, SearchConfig()).pack(
                Fraction(1, 4096), sense)
            return abs(value) < AC_THRESHOLD

        stair, _ = cantor_staircase_function()
        # mass is positive: the upper side fails, the lower side holds
        assert not small(stair, "max")
        assert small(stair, "min")
        neg = scale_fn(-1.0, stair)
        assert small(neg, "max")
        assert not small(neg, "min")
        # a fully absolutely continuous function passes both sides
        assert small(length_fn(), "max")
        assert small(length_fn(), "min")


class TestMonotoneOnSubdivision:
    def test_abs_stieltjes_increases(self):
        from burkill.catalog import abs_fn
        g = abs_fn(stieltjes(poly("x(1-x)", [0, 1, -1])))
        assert monotone_on_subdivision(g, UNIT) == "increases"

    def test_additive_bracket_free_is_both(self):
        g = stieltjes(poly("x^3", [0, 0, 0, 1]))
        assert monotone_on_subdivision(g, UNIT) == "both"

    def test_hellinger_increases(self):
        g = hellinger(poly("x^2", [0, 0, 1]), poly("x", [0, 1]))
        assert monotone_on_subdivision(g, UNIT, samples=500) == "increases"

    def test_neither(self):
        # squared increments of a non-monotone function gain or lose on a
        # split depending on the sign of the cross term
        from burkill.catalog import IntervalFunction
        f = poly("x(1-x)", [0, 1, -1])
        g = IntervalFunction("sq-inc", lambda iv: (f(iv.hi) - f(iv.lo)) ** 2,
                             bracket_independent=True)
        assert monotone_on_subdivision(g, UNIT) == "neither"


class TestVariationSplit:
    def test_monotone(self):
        sp = variation_split(stieltjes(poly("x", [0, 1])),
                             Interval(ZERO, D(1)), cfg())
        assert (sp.p_upper, sp.n_lower, sp.n_upper, sp.p_lower) == \
            (1.0, 0.0, 0.0, 1.0)

    def test_hump(self):
        sp = variation_split(stieltjes(poly("x(1-x)", [0, 1, -1])),
                             Interval(ZERO, D(1)), cfg(12))
        assert abs(sp.p_upper - 0.25) <= 1e-6
        assert abs(sp.n_lower - 0.25) <= 1e-6

    def test_zero_function(self):
        sp = variation_split(stieltjes(poly("0", [0])),
                             Interval(ZERO, D(1)), cfg())
        assert (sp.p_upper, sp.n_upper, sp.p_lower, sp.n_lower) == \
            (0.0, 0.0, 0.0, 0.0)

    def test_identity_holds(self):
        g = stieltjes(poly("mix", [0, 1, -3, 2]))
        J = Interval(ZERO, D(1))
        sp = variation_split(g, J, cfg())
        gj = g(J)
        assert abs((sp.p_upper - sp.n_upper) - gj) <= 1e-12
        assert abs((sp.p_lower - sp.n_lower) - gj) <= 1e-12
        assert min(sp.p_upper, sp.n_upper, sp.p_lower, sp.n_lower) >= -1e-12

    def test_bracket_dependent_rejected(self):
        with pytest.raises(BracketDependent):
            variation_split(fixture("origin_indicator").fn,
                            Interval(D(-1), D(1)), cfg())
