import random

from burkill.around_set import (
    around_chain_check,
    around_limits,
    around_part,
    complement_part,
)
from burkill.catalog import fixture, length_fn, poly, stieltjes
from burkill.core import Dyadic, Interval, Region, ZERO
from burkill.density import MeasurableSet
from burkill.integrator import SearchConfig, estimate_norm_limits

from oracles import step

D = Dyadic
SYM = Region.interval(D(-1), D(1))


def cfg(stop=10):
    return SearchConfig(e_schedule=tuple(D(1, k) for k in range(3, stop)))


def open_set(a, b):
    return MeasurableSet([Interval(a, b, False, False)])


class TestParts:
    def test_parts_sum_exactly(self):
        rng = random.Random(9)
        g = fixture("origin_indicator").fn
        E = open_set(D(-1), ZERO)
        gE, gco = around_part(g, E), complement_part(g, E)
        for _ in range(10_000):
            a, b = sorted(rng.sample(range(-256, 257), 2))
            iv = Interval(D(a, 8), D(b, 8),
                          rng.random() < 0.5, rng.random() < 0.5)
            assert gE(iv) + gco(iv) == g(iv)

    def test_membership_is_bracket_sensitive(self):
        # E = {0} as a closed degenerate edge of a component is not
        # representable; use a component ending at 0 instead
        g = length_fn()
        E = MeasurableSet([Interval(D(-1), ZERO, True, True)])
        gE = around_part(g, E)
        assert gE(Interval(ZERO, D(1), True, False)) == 1.0   # shares 0
        assert gE(Interval(ZERO, D(1), False, False)) == 0.0  # excludes 0


class TestAroundLimits:
    def test_full_set_identity(self):
        g = fixture("origin_indicator").fn
        E = MeasurableSet.from_spans([(D(-1), D(1))])
        plain = estimate_norm_limits(g, SYM, cfg())
        around = around_limits(g, E, SYM, cfg())
        assert [(lv.upper, lv.lower) for lv in plain.levels] == \
               [(lv.upper, lv.lower) for lv in around.levels]

    def test_empty_set_vanishes(self):
        g = fixture("origin_indicator").fn
        rep = around_limits(g, MeasurableSet.empty(), SYM, cfg())
        assert rep.verdict.kind == "converged"
        assert rep.verdict.value == 0.0

    def test_step_complement_counterexample(self):
        # the jump survives only on spans starting exactly at 0
        f = step(ZERO, include_at=False)
        g = stieltjes(f)
        E = open_set(D(-1), ZERO)
        gco = complement_part(g, E)
        assert gco(Interval(ZERO, D(1, 2))) == 1.0
        assert gco(Interval(D(-1, 2), D(1, 2))) == 0.0
        rep = estimate_norm_limits(gco, SYM, cfg())
        assert rep.upper == 1.0
        assert rep.lower == 0.0


class TestChain:
    def test_length_chain_tight(self):
        # the four terms agree in the limit; estimates differ by O(e) from
        # boundary intervals that touch E at a shared endpoint
        E = MeasurableSet.from_spans([(D(-1, 1), D(1, 1))])
        chain = around_chain_check(length_fn(), E, SYM, cfg())
        assert chain.ordered
        assert abs(chain.upper_around - chain.lower_around) <= 0.05

    def test_step_chain_ordered(self):
        g = stieltjes(step(ZERO, include_at=False))
        E = open_set(D(-1), ZERO)
        chain = around_chain_check(g, E, SYM, cfg())
        assert chain.ordered
        assert chain.lower_around == 0.0
        assert chain.upper_around == 1.0

    def test_smooth_chain_collapses(self):
        g = stieltjes(poly("x^2", [0, 0, 1]))
        E = MeasurableSet.from_spans([(ZERO, D(1, 1))])
        chain = around_chain_check(g, E, Region.interval(ZERO, D(1)), cfg())
        assert chain.ordered
        assert abs(chain.iterated_upper - chain.iterated_lower) <= 0.05

    def test_iterated_lower_crosses_until_glued_witness(self):
        # An open defect: lower_around <= iterated_lower holds for the limits
        # but not for these estimates.  On this sign-changing cubic the
        # inner witnesses of the iterated lower winner glue into a division
        # of the region whose sum lies 3.57e-5 below lower_around, past the
        # chain's tolerance: the plain search's candidates miss it.  Feeding
        # the glued division to the plain search as a candidate makes the
        # order hold by construction, and flips this test.
        g = stieltjes(poly("x-3x^2+x^3", [0, 1, -3, 1]))
        E = MeasurableSet.from_spans([(D(3, 4), D(11, 4)), (D(15, 4), D(1))])
        chain = around_chain_check(g, E, Region.interval(ZERO, D(1)), cfg(9))
        assert chain.iterated_lower - chain.lower_around <= -3.5e-5
        assert not chain.ordered

    def test_complement_iterates_inside_oscillation(self):
        # the iterated complement estimates stay within the oscillation of
        # the around part
        g = stieltjes(step(ZERO, include_at=False))
        E = open_set(D(-1), ZERO)
        gE = around_part(g, E)
        around = estimate_norm_limits(gE, SYM, cfg())
        osc = around.upper - around.lower
        gco = complement_part(g, E)
        rep = estimate_norm_limits(gco, SYM, cfg())
        assert -osc - 1e-9 <= rep.lower <= rep.upper <= osc + 1e-9
