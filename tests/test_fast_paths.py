"""The search core's builtin-driven helpers against their definitions.

xsum against hand-worked sums, special keys and points filtered and sorted
on integer keys against their definition in Fractions, and the length
function evaluated on keys against float(Interval.length); every result
must equal its oracle's by repr.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from burkill.catalog import (
    INF,
    IntervalFunction,
    length_fn,
    xsum,
)
from burkill.core import Dyadic, Interval, Region, sort_points
from burkill.errors import IndeterminateForm

# ---------------------------------------------------------------------------
# xsum
# ---------------------------------------------------------------------------

NAN = float("nan")


class TestXsum:
    # left to right in floats; an infinite value wins over NaN and over a
    # finite total that overflowed
    @pytest.mark.parametrize("values, want", [
        ([], 0.0), ([-0.0], 0.0), ([-0.0, -0.0], 0.0), ([INF, 1.0], INF),
        ([-INF, 1.0], -INF), ([1.0, INF, 2.0], INF), ([NAN, INF], INF),
        ([NAN, 1.0], NAN), ([1.7e308, 1.7e308], INF),
        ([-1.7e308, -1.7e308], -INF), ([1.7e308, 1.7e308, -INF], -INF),
        ([0.1, 0.2, 0.3], 0.6000000000000001), ([1e16, 1.0, -1e16], 0.0)])
    def test_cases(self, values, want):
        assert repr(xsum(values)) == repr(want)
        assert repr(xsum(iter(values))) == repr(want)

    def test_both_infinities_raise(self):
        for values in ([1.0, INF, -INF], [-INF, NAN, INF]):
            with pytest.raises(IndeterminateForm):
                xsum(values)
            with pytest.raises(IndeterminateForm):
                xsum(iter(values))


# ---------------------------------------------------------------------------
# special points and singular schedules
# ---------------------------------------------------------------------------

POINTS = st.builds(Dyadic, st.integers(-40, 40), st.integers(0, 5))


@st.composite
def regions_and_points(draw):
    ends = sort_points(draw(st.lists(POINTS, min_size=2, max_size=6,
                                     unique=True)))
    comps = [(ends[i], ends[i + 1]) for i in range(0, len(ends) - 1, 2)]
    region = Region(comps)
    pts = draw(st.lists(st.one_of(POINTS, st.sampled_from(ends)),
                        max_size=20))
    pts += draw(st.lists(st.sampled_from(pts), max_size=5)) if pts else []
    return region, pts


class TestSpecialPoints:
    @settings(max_examples=500, deadline=None)
    @given(regions_and_points(), st.booleans())
    def test_points_in_the_region_in_order_once(self, case, as_tuple):
        region, pts = case
        given_pts = tuple(pts) if as_tuple else pts
        g = IntervalFunction(
            "pts", span=lambda a, b, ex, lc, rc: 0.0,
            special_points=lambda r, e: given_pts,
            singular_schedule=lambda r, e: [(p, None) for p in given_pts])
        comps = [(lo.as_fraction(), hi.as_fraction())
                 for lo, hi in region.components]
        inside = [p for p in pts if any(lo <= p.as_fraction() <= hi
                                        for lo, hi in comps)]
        want = sorted({p.as_fraction() for p in inside})
        # the keys at the smallest exponent that holds them: the largest
        # exponent of the points in canonical form
        keys, ex = g.special_keys(region, Dyadic(1, 3))
        assert [Fraction(k, 1 << ex) for k in keys] == want
        assert ex == max((p.exp for p in inside), default=0)
        got = g.special_points(region, Dyadic(1, 3))
        assert [p.as_fraction() for p in got] == want
        assert all(type(p) is Dyadic for p in got)
        assert got == [Dyadic(k, ex) for k in keys]
        # the schedule keeps its order and its repeats
        assert g.singular_schedule(region, Dyadic(1, 3)) == [
            (p, None) for p in inside]


# ---------------------------------------------------------------------------
# keyed length
# ---------------------------------------------------------------------------

KEYS = st.integers(0, 100).flatmap(lambda ex: st.tuples(
    st.integers(-(1 << ex) // 8 - 1, (1 << ex) + (1 << ex) // 8 + 1),
    st.just(ex)))


class TestKeyedLength:
    @settings(max_examples=1000, deadline=None)
    @given(KEYS, KEYS, st.integers(0, 70), st.booleans(), st.booleans())
    def test_span_equals_float_length(self, p, q, k, lc, rc):
        g = length_fn()
        (a, ea), (b, eb) = p, q
        lo, hi = sorted((Dyadic(a, ea), Dyadic(b, eb)),
                        key=lambda d: d.num << (128 - d.exp))
        if lo == hi:
            return
        iv = Interval(lo, hi, lc, rc)
        ex = max(ea, eb)
        ak, bk = lo.num << (ex - lo.exp), hi.num << (ex - hi.exp)
        want = repr(float(iv.length))
        assert repr(g.span(ak, bk, ex, lc, rc)) == want
        assert repr(g.span(ak << k, bk << k, ex + k, lc, rc)) == want
        assert repr(g(iv)) == want

    def test_tiny_and_huge_spans(self):
        g = length_fn()
        for a, b, ex in ((0, 1, 1100), (3, 5, 1074), (0, (1 << 70) + 1, 3),
                         ((1 << 64) + 1, (1 << 65) + 3, 64)):
            iv = Interval(Dyadic(a, ex), Dyadic(b, ex), True, True)
            assert repr(g.span(a, b, ex, True, True)) == \
                repr(float(iv.length))
