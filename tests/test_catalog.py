import random

import pytest

from burkill.catalog import (
    IntervalFunction,
    cantor_staircase_function,
    fixture,
    fixture_names,
    k_jump_locked_function,
    poly,
    pow2,
    stieltjes,
    xsum,
)
from burkill.core import Dyadic, Interval, ZERO
from burkill.errors import IndeterminateForm, UnknownFixture

from oracles import with_brackets

D = Dyadic
INF = float("inf")


def random_triple(rng, lo, hi, depth=10):
    span = hi - lo
    a, b, c = sorted(rng.sample(range(1, (1 << depth) - 1), 3))
    return (lo + span * D(a, depth), lo + span * D(b, depth),
            lo + span * D(c, depth))


def eight_relation_defect(g, x, y, z):
    """Largest defect across the eight additivity relations at y."""
    worst = 0.0
    for lc, rc in ((False, False), (False, True), (True, False), (True, True)):
        whole = Interval(x, z, lc, rc)
        # the point y goes to exactly one side
        left_owns = g(Interval(x, y, lc, True)) + g(Interval(y, z, False, rc))
        right_owns = g(Interval(x, y, lc, False)) + g(Interval(y, z, True, rc))
        worst = max(worst, abs(g(whole) - left_owns),
                    abs(g(whole) - right_owns))
    return worst


class TestHelpers:
    def test_xsum_plain(self):
        assert xsum([1.0, 2.0, 3.5]) == 6.5

    def test_xsum_infinities(self):
        assert xsum([1.0, INF]) == INF
        assert xsum([-INF, 2.0]) == -INF
        with pytest.raises(IndeterminateForm):
            xsum([INF, -INF])

    def test_pow2(self):
        assert pow2(3) == D(1, 3)
        assert float(pow2(0)) == 1.0


    def test_function_needs_func_or_span(self):
        with pytest.raises(ValueError, match="needs func or span"):
            IntervalFunction("empty")


class TestStieltjes:
    def test_linear(self):
        g = stieltjes(poly("x", [0, 1]))
        assert g(Interval(D(1, 2), D(3, 2), True, False)) == 0.5

    def test_square_open(self):
        g = stieltjes(poly("x^2", [0, 0, 1]))
        assert g(Interval(D(0), D(1), False, False)) == 1.0

    def test_telescoping(self):
        rng = random.Random(5)
        g = stieltjes(poly("x^3", [0, 0, 0, 1]))
        pts = sorted(rng.sample(range(1, 255), 6))
        cuts = [D(0)] + [D(p, 8) for p in pts] + [D(1)]
        total = sum(g(Interval(a, b)) for a, b in zip(cuts, cuts[1:]))
        assert abs(total - 1.0) < 1e-12

    def test_flags(self):
        g = stieltjes(poly("x", [0, 1]))
        assert g.additive and g.bracket_independent and g.continuous


class TestRegistry:
    def test_names(self):
        assert "saks_A_counterexample" in fixture_names()
        assert len(fixture_names()) == 7

    def test_unknown(self):
        with pytest.raises(UnknownFixture):
            fixture("nope")

    def test_manifest_shape(self):
        m = fixture("origin_indicator").manifest()
        assert set(m) == {"name", "region", "expected", "special_points"}
        assert all({"quantity", "value", "cite"} == set(e)
                   for e in m["expected"])

    @pytest.mark.parametrize("name", fixture_names())
    def test_flags_verified_by_sampling(self, name):
        fx = fixture(name)
        g = fx.fn
        rng = random.Random(11)
        lo, hi = fx.region.components[0]
        for _ in range(100):
            x, y, z = random_triple(rng, lo, hi)
            if g.additive:
                assert eight_relation_defect(g, x, y, z) == 0.0
            if g.bracket_independent:
                vals = {g(v) for v in Interval(x, z).variants()}
                assert len(vals) == 1

    @pytest.mark.parametrize("name", fixture_names())
    def test_evaluation_is_pure(self, name):
        fx = fixture(name)
        lo, hi = fx.region.components[0]
        iv = Interval(lo, hi, True, False)
        assert fx.fn(iv) == fx.fn(iv)


class TestSaksFixture:
    def test_zigzag_values(self):
        g = fixture("saks_A_counterexample").fn
        one = D(1)
        # endpoint differences inside [0,1)
        assert g(Interval(D(0), one - pow2(1))) == 1.0     # f(1/2)=1
        assert g(Interval(D(0), one - pow2(2))) == 0.0     # f(3/4)=0
        assert g(Interval(D(0), one - pow2(3))) == 1.0     # f(7/8)=1

    def test_charged_span(self):
        g = fixture("saks_A_counterexample").fn
        one = D(1)
        for n in (1, 2, 5):
            iv = Interval(one - pow2(2 * n), one + pow2(2 * n))
            assert g(iv) == 1.0
            assert g(with_brackets(iv, False, False)) == 1.0
        assert g(Interval(one - pow2(3), one + pow2(3))) == 0.0
        assert g(Interval(one - pow2(2), one + pow2(4))) == 0.0

    def test_right_half_is_silent(self):
        g = fixture("saks_A_counterexample").fn
        assert g(Interval(D(1), D(3, 1))) == 0.0


class TestOriginIndicator:
    def test_cases(self):
        g = fixture("origin_indicator").fn
        assert g(Interval(D(-1), D(1))) == 1.0
        assert g(Interval(ZERO, D(1), True, True)) == 1.0
        assert g(Interval(ZERO, D(1), False, True)) == 0.0
        assert g(Interval(D(-1), ZERO, True, True)) == 1.0
        assert g(Interval(D(-1), ZERO, True, False)) == 0.0


class TestKJump:
    def test_point_mass_geometry(self):
        g = fixture("k_convention_jump").fn
        # [0, 1/2] closed: all masses r>=2 plus the endpoint mass 1/2,
        # plus the closed-span bonus
        assert g(Interval(ZERO, D(1, 1), True, True)) == 2.0
        assert g(Interval(ZERO, D(1, 1), True, False)) == 0.5
        # (1/4, 1/2) open: nothing inside strictly
        assert g(Interval(D(1, 2), D(1, 1), False, False)) == 0.0
        # (1/8, 1/2] holds 1/4 inside and 1/2 by bracket
        assert g(Interval(D(1, 3), D(1, 1), False, True)) == 0.75

    def test_locked_variant(self):
        h = k_jump_locked_function()
        assert h(Interval(ZERO, D(1, 1), True, True)) == 0.5
        vals = {h(v) for v in Interval(ZERO, D(1, 1)).variants()}
        assert vals == {0.5}


class TestOtherFixtures:
    def test_blocks(self):
        g = fixture("dyadic_blocks").fn
        assert g(Interval(D(1, 2), D(1, 1))) == 1.0
        assert g(Interval(D(1, 2), D(1, 1), False, False)) == 1.0
        assert g(Interval(D(1, 2), D(3, 3))) == 0.0
        assert g(Interval(D(-1, 2), D(1, 1))) == 0.0

    def test_m_power(self):
        g = fixture("m_power_singularity").fn
        assert g(Interval(D(-1, 2), D(1, 2))) == 1.0
        assert g(Interval(D(-1), D(1))) == 1.0
        assert g(Interval(D(-1, 2), D(1, 3))) == 0.0

    def test_density_fixture(self):
        g = fixture("density_left_limit").fn
        assert g(Interval(D(-1, 3), ZERO)) == 1.0
        assert g(Interval(D(-1, 3), D(1, 3))) == 0.0
        assert g(Interval(ZERO, D(1, 3))) == 0.0

    def test_osc_condition(self):
        g = fixture("osc_left_limit").fn
        # left end 1/2: cube 1/8, so a gap of 1/16 counts
        iv = Interval(D(1, 1), D(9, 4))
        assert g(iv) != 0.0
        # gap equal to the cube does not count
        assert g(Interval(D(1, 1), D(5, 3))) == 0.0
        # left end at 0 never counts
        assert g(Interval(ZERO, D(1, 10))) == 0.0


class TestStaircase:
    def test_rises_sum_to_one(self):
        g, spans = cantor_staircase_function()
        total = sum(g(Interval(a, b)) for a, b in spans)
        assert abs(total - 1.0) < 1e-12
        assert len(spans) == 4096

    def test_flat_on_gaps(self):
        g, spans = cantor_staircase_function()
        (a0, b0), (a1, b1) = spans[0], spans[1]
        assert g(Interval(b0, a1)) == 0.0

    def test_measure_near_two_thirds_power(self):
        _, spans = cantor_staircase_function()
        total = sum((b - a).as_fraction() for a, b in spans)
        assert 0 < float(total) - (2.0 / 3.0) ** 12 < 1e-4
