import pytest

from burkill.catalog import abs_fn, fixture, length_fn, poly, stieltjes
from burkill.core import Dyadic, Interval, Region, ZERO
from burkill.density import (
    MeasurableSet,
    density_integral,
    density_kernel,
    intersect_measure,
    lebesgue_reference,
)
from burkill.errors import NoConvergence
from burkill.integrator import SearchConfig, estimate_norm_limits

D = Dyadic
UNIT = Region.interval(ZERO, D(1))


def cfg(stop=11):
    return SearchConfig(e_schedule=tuple(D(1, k) for k in range(3, stop)))


class TestMeasurableSet:
    def test_measure(self):
        E = MeasurableSet.from_spans([(ZERO, D(1, 2)), (D(1, 1), D(1))])
        assert E.measure == D(3, 2)

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            MeasurableSet.from_spans([(ZERO, D(1, 1)), (D(1, 2), D(1))])

    def test_membership_respects_brackets(self):
        E = MeasurableSet([Interval(D(-1), ZERO, True, False)])
        comp, = E.components
        assert not comp.contains_point(ZERO)
        assert comp.contains_point(D(-1, 1))

    def test_meets_boundary_point(self):
        E = MeasurableSet([Interval(D(-1), ZERO, True, True)])
        assert E.meets(Interval(ZERO, D(1), True, False))
        assert not E.meets(Interval(ZERO, D(1), False, False))


class TestIntersectMeasure:
    def test_simple(self):
        E = MeasurableSet.from_spans([(ZERO, D(1, 1))])
        assert intersect_measure(E, Interval(D(1, 2), D(3, 2))) == D(1, 2)

    def test_empty(self):
        assert intersect_measure(MeasurableSet.empty(),
                                 Interval(ZERO, D(1))) == ZERO

    def test_union(self):
        E = MeasurableSet.from_spans([(ZERO, D(1, 2)), (D(1, 1), D(1))])
        assert intersect_measure(E, Interval(ZERO, D(1))) == D(3, 2)

    def test_brackets_irrelevant(self):
        E = MeasurableSet.from_spans([(ZERO, D(1, 1))])
        for v in Interval(D(1, 2), D(3, 2)).variants():
            assert intersect_measure(E, v) == D(1, 2)


class TestKernel:
    def test_length_kernel_is_additive_measure(self):
        E = MeasurableSet.from_spans([(ZERO, D(1, 2)), (D(1, 1), D(1))])
        K = density_kernel(length_fn(), E)
        from burkill.core import division_from_points
        total = 0.0
        d = division_from_points(UNIT, [ZERO, D(1, 3), D(1, 1), D(3, 2), D(1)])
        for iv in d:
            total += K(iv)
        assert total == float(E.measure)

    def test_zero_measure_set(self):
        K = density_kernel(length_fn(), MeasurableSet.empty())
        assert K(Interval(ZERO, D(1))) == 0.0

    def test_full_set_recovers_g(self):
        g = stieltjes(poly("x^2", [0, 0, 1]))
        K = density_kernel(g, MeasurableSet.from_spans([(ZERO, D(1))]))
        iv = Interval(D(1, 2), D(1, 1))
        assert K(iv) == g(iv)

    def test_specials_include_set_edges(self):
        E = MeasurableSet.from_spans([(D(1, 3), D(1, 2))])
        K = density_kernel(length_fn(), E)
        pts = K.special_points(UNIT, D(1, 4))
        assert D(1, 3) in pts and D(1, 2) in pts


class TestDensityIntegral:
    def test_length_gives_measure_exactly(self):
        E = MeasurableSet.from_spans([(ZERO, D(1, 1)), (D(3, 2), D(1))])
        rep = density_integral(length_fn(), E, UNIT, cfg())
        for lv in rep.report.levels:
            assert lv.upper == float(E.measure)
            assert lv.lower == float(E.measure)
        assert rep.verdict.kind == "converged"

    def test_square_matches_lebesgue(self):
        g = stieltjes(poly("x^2", [0, 0, 1]))
        E = MeasurableSet.from_spans([(ZERO, D(1, 1))])
        rep = density_integral(g, E, UNIT, cfg(13),
                               gprime=lambda t: 2.0 * t)
        assert abs(rep.lebesgue_ref - 0.25) <= 1e-10
        assert abs(0.5 * (rep.upper + rep.lower) - 0.25) <= 1e-4

    def test_fixture_oscillates(self):
        fx = fixture("density_left_limit")
        E = MeasurableSet(list(fx.companion_sets["oscillating_blocks"]))
        rep = density_integral(fx.fn, E, fx.region, cfg(13))
        assert abs(rep.upper - 1.0) <= 1e-9
        assert abs(rep.lower) <= 1e-9


class TestLebesgueReference:
    def test_constant(self):
        E = MeasurableSet.from_spans([(ZERO, D(1, 1))])
        assert abs(lebesgue_reference(lambda t: 1.0, E) - 0.5) <= 1e-12

    def test_linear(self):
        E = MeasurableSet.from_spans([(ZERO, D(1))])
        assert abs(lebesgue_reference(lambda t: 2.0 * t, E) - 1.0) <= 1e-12

    def test_union(self):
        E = MeasurableSet.from_spans([(ZERO, D(1, 2)), (D(1, 1), D(3, 2))])
        assert abs(lebesgue_reference(lambda t: 2.0 * t, E) - 0.375) <= 1e-12

    def test_no_convergence(self):
        E = MeasurableSet.from_spans([(ZERO, D(1))])
        with pytest.raises(NoConvergence):
            lebesgue_reference(lambda t: hash(t) % 97, E, max_doublings=3)


class TestInequalities:
    def test_density_brackets_norm_limits_on_subregion(self):
        # E equal to a subregion: the density report encloses the plain one
        g = fixture("origin_indicator").fn
        W = Region.interval(D(-1), D(1))
        R = Region.interval(D(-1, 1), D(1, 1))
        E = MeasurableSet.from_spans([(D(-1, 1), D(1, 1))])
        dens = density_integral(g, E, W, cfg())
        norm = estimate_norm_limits(g, R, cfg())
        assert dens.lower <= norm.lower + 1e-12
        assert norm.upper <= dens.upper + 1e-12

    def test_continuous_g_density_matches_norm_on_subregion(self):
        g = stieltjes(poly("x^2", [0, 0, 1]))
        R = Region.interval(D(1, 2), D(3, 2))
        E = MeasurableSet.from_spans([(D(1, 2), D(3, 2))])
        dens = density_integral(g, E, UNIT, cfg(12))
        norm = estimate_norm_limits(g, R, cfg(12))
        # continuity kills the boundary cells in the limit
        assert abs(dens.upper - norm.upper) <= 2e-3
        assert abs(dens.lower - norm.lower) <= 2e-3

    def test_bounded_by_variation(self):
        from burkill.variation import variation
        g = stieltjes(poly("x(1-x)", [0, 1, -1]))
        E = MeasurableSet.from_spans([(D(1, 2), D(3, 2))])
        rep = density_integral(abs_fn(g), E, UNIT, cfg())
        var = variation(g, UNIT, cfg(), scan_j=False)
        assert rep.upper <= var.total + 1e-9

    def test_monotone_in_set(self):
        g = abs_fn(stieltjes(poly("x(1-x)", [0, 1, -1])))
        E1 = MeasurableSet.from_spans([(D(1, 2), D(1, 1))])
        E2 = MeasurableSet.from_spans([(D(1, 2), D(3, 2))])
        r1 = density_integral(g, E1, UNIT, cfg())
        r2 = density_integral(g, E2, UNIT, cfg())
        for lv1, lv2 in zip(r1.report.levels, r2.report.levels):
            assert lv1.upper <= lv2.upper + 1e-12
            assert lv1.lower <= lv2.lower + 1e-12

    def test_finite_additivity_over_sets(self):
        g = stieltjes(poly("x^2", [0, 0, 1]))
        e1 = MeasurableSet.from_spans([(ZERO, D(1, 2))])
        e2 = MeasurableSet.from_spans([(D(1, 1), D(3, 2))])
        union = MeasurableSet.from_spans([(ZERO, D(1, 2)), (D(1, 1), D(3, 2))])
        extra = [D(1, 2), D(1, 1), D(3, 2)]
        r1 = estimate_norm_limits(density_kernel(g, e1), UNIT, cfg(),
                                  extra_points=extra)
        r2 = estimate_norm_limits(density_kernel(g, e2), UNIT, cfg(),
                                  extra_points=extra)
        ru = estimate_norm_limits(density_kernel(g, union), UNIT, cfg(),
                                  extra_points=extra)
        assert r1.lower + r2.lower <= ru.lower + 1e-9
        assert ru.upper <= r1.upper + r2.upper + 1e-9
