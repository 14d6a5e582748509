from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from burkill.core import (
    Dyadic,
    Interval,
    PointConvention,
    Region,
    ZERO,
    division_from_points,
    dmid,
    enumerate_bracket_assignments,
    refine,
    region_subtract,
    relate,
    sort_points,
)
from burkill.errors import (
    DegenerateInterval,
    NotContained,
    PointOutsideRegion,
    UnsortedPoints,
)

dyadics = st.builds(Dyadic, st.integers(-4096, 4096), st.integers(0, 16))


def D(num, exp=0):
    return Dyadic(num, exp)


class TestDyadic:
    def test_canonical_form(self):
        d = Dyadic(4, 2)
        assert (d.num, d.exp) == (1, 0)
        assert Dyadic(6, 1) == Dyadic(3, 0)
        assert Dyadic(0, 7) == ZERO

    def test_parse_and_serialize(self):
        assert Dyadic.parse("3/2^2") == Dyadic(3, 2)
        assert Dyadic.parse("0.75") == Dyadic(3, 2)
        assert Dyadic.parse("-5") == Dyadic(-5, 0)
        d = Dyadic(7, 5)
        assert Dyadic.parse(d.serialize()) == d

    def test_arithmetic(self):
        assert D(1, 2) + D(1, 2) == D(1, 1)
        assert D(3, 2) - D(1, 2) == D(1, 1)
        assert D(1, 1) * D(1, 1) == D(1, 2)
        assert dmid(D(0), D(1)) == D(1, 1)
        assert float(D(3, 2)) == 0.75

    @given(dyadics, dyadics)
    @settings(max_examples=80)
    def test_order_matches_fractions(self, a, b):
        assert (a < b) == (a.as_fraction() < b.as_fraction())
        assert (a == b) == (a.as_fraction() == b.as_fraction())

    @given(dyadics, dyadics)
    @settings(max_examples=80)
    def test_add_sub_roundtrip(self, a, b):
        assert (a + b) - b == a
        assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()

    @given(st.lists(dyadics, min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_sort_points(self, pts):
        srt = sort_points(pts)
        fracs = [p.as_fraction() for p in srt]
        assert fracs == sorted(fracs)


class TestInterval:
    def test_make_interval(self):
        iv = Interval(D(0), D(1), True, False)
        assert str(iv) == "[0,1)"
        assert iv.length == D(1)

    def test_degenerate(self):
        with pytest.raises(DegenerateInterval):
            Interval(D(1, 1), D(1, 1))

    def test_open_interval_length(self):
        iv = Interval(D(1, 2), D(3, 2), False, False)
        assert iv.length == D(1, 1)

    def test_contains_point(self):
        iv = Interval(D(0), D(1), True, False)
        assert iv.contains_point(D(0))
        assert not iv.contains_point(D(1))
        assert iv.contains_point(D(1, 1))

    def test_variants(self):
        iv = Interval(D(0), D(1))
        assert len(set(iv.variants())) == 4


class TestRelate:
    def test_examples(self):
        assert relate(Interval(D(0), D(1)),
                      Interval(D(1), D(2))) == "abut"
        assert relate(Interval(D(0), D(1)),
                      Interval(D(1, 1), D(2))) == "overlap"
        # brackets do not matter for abutment
        assert relate(Interval(D(0), D(1), True, False),
                      Interval(D(1), D(2), False, True)) == "abut"
        assert relate(Interval(D(0), D(2)),
                      Interval(D(1, 1), D(1))) == "contains"
        assert relate(Interval(D(0), D(1)),
                      Interval(D(0), D(1), False, False)) == "equal-span"
        assert relate(Interval(D(0), D(1)),
                      Interval(D(3), D(4))) == "disjoint"

    @given(dyadics, dyadics, dyadics, dyadics)
    @settings(max_examples=80)
    def test_symmetric(self, a, b, c, d):
        if not (a < b and c < d):
            return
        i1, i2 = Interval(a, b), Interval(c, d)
        r12, r21 = relate(i1, i2), relate(i2, i1)
        if r12 in ("disjoint", "abut", "overlap"):
            assert r12 == r21


class TestRegion:
    def test_merge_abutting(self):
        r = Region([(D(0), D(1)), (D(1), D(2))])
        assert r.components == ((D(0), D(2)),)
        assert r.measure == D(2)

    def test_subtract_middle(self):
        r = region_subtract(Region.interval(D(0), D(1)),
                            Region.interval(D(1, 2), D(1, 1)))
        assert r.components == ((D(0), D(1, 2)), (D(1, 1), D(1)))
        assert r.measure == D(3, 2)

    def test_subtract_all(self):
        r = region_subtract(Region.interval(D(0), D(1)),
                            Region.interval(D(0), D(1)))
        assert r.is_empty

    def test_subtract_component(self):
        base = Region([(D(0), D(1)), (D(2), D(3))])
        r = region_subtract(base, Region.interval(D(2), D(3)))
        assert r.components == ((D(0), D(1)),)

    def test_subtract_not_contained(self):
        with pytest.raises(NotContained):
            region_subtract(Region.interval(D(0), D(1)),
                            Region.interval(D(1, 1), D(2)))

    def test_measure_is_exact(self):
        r = Region([(D(0), D(1, 12)), (D(1, 3), D(1, 2))])
        assert r.measure.as_fraction() == Fraction(1, 4096) + Fraction(1, 8)


class TestDivision:
    def test_from_points_all_closed(self):
        region = Region.interval(D(0), D(1))
        d = division_from_points(
            region, [D(0), D(1, 1), D(1)],
            conventions=[PointConvention(D(1, 1), True, True)])
        assert [str(iv) for iv in d] == ["[0,1/2^1]", "[1/2^1,1]"]
        assert d.norm == D(1, 1)

    def test_open_junction(self):
        region = Region.interval(D(0), D(1))
        d = division_from_points(
            region, [D(0), D(1, 1), D(1)],
            conventions=[PointConvention.from_token(D(1, 1), ")(")])
        assert [str(iv) for iv in d] == ["[0,1/2^1)", "(1/2^1,1]"]

    def test_bracket_count_4_to_m(self):
        region = Region.interval(D(0), D(1))
        divisions = list(enumerate_bracket_assignments(
            region, [D(0), D(1, 1), D(1)]))
        assert len(divisions) == 16
        keys = {tuple((iv.left_closed, iv.right_closed) for iv in dv)
                for dv in divisions}
        assert len(keys) == 16

    def test_sum_of_lengths_exact(self):
        region = Region([(D(0), D(1)), (D(2), D(3))])
        d = division_from_points(
            region, [D(0), D(1, 2), D(5, 3), D(1), D(2), D(9, 2), D(3)])
        total = ZERO
        for iv in d:
            total = total + iv.length
        assert total == region.measure

    def test_points_must_cover_endpoints(self):
        region = Region.interval(D(0), D(1))
        with pytest.raises(PointOutsideRegion):
            division_from_points(region, [D(0), D(1, 1)])
        with pytest.raises(UnsortedPoints):
            division_from_points(region, [D(0), D(1), D(1, 1)])

    def test_refine_halves_norm(self):
        region = Region.interval(D(0), D(1))
        d = division_from_points(region, [D(0), D(1)])
        d2 = refine(d, [D(1, 1)])
        assert len(d2) == 2 and d2.norm == D(1, 1)

    def test_refine_noop(self):
        region = Region.interval(D(0), D(1))
        d = division_from_points(region, [D(0), D(1)])
        assert refine(d, []) is d

    def test_refine_keeps_brackets(self):
        region = Region.interval(D(0), D(1))
        d = division_from_points(
            region, [D(0), D(1, 1), D(1)],
            conventions=[PointConvention.from_token(D(1, 1), ")(")])
        d2 = refine(d, [D(1, 2), D(3, 2)])
        assert not d2.intervals[1].right_closed  # ")" kept at 1/2
        assert not d2.intervals[2].left_closed   # "(" kept at 1/2

    def test_iterated_refinement_norm(self):
        region = Region.interval(D(0), D(1))
        d = division_from_points(region, [D(0), D(1)])
        for k in range(1, 7):
            mids = [dmid(iv.lo, iv.hi) for iv in d]
            d = refine(d, mids)
            assert d.norm == D(1, k)

    def test_refine_takes_points_from_an_iterator(self):
        region = Region.interval(D(0), D(1))
        d = division_from_points(region, [D(0), D(1)])
        assert refine(d, iter([D(1, 1)])).norm == D(1, 1)
        with pytest.raises(PointOutsideRegion):
            refine(d, iter([D(1, 1), D(2)]))

    def test_refine_idempotent_on_same_points(self):
        region = Region.interval(D(0), D(1))
        d = division_from_points(region, [D(0), D(1, 2), D(1)])
        assert refine(d, [D(1, 2)]) is d

    def test_json_roundtrip_shape(self):
        import json
        region = Region.interval(D(0), D(1))
        d = division_from_points(region, [D(0), D(1)])
        obj = json.loads(d.to_json())
        assert set(obj) == {"points", "brackets", "region"}


class TestIntegerSortKeys:
    @given(st.lists(st.tuples(dyadics, dyadics), min_size=1, max_size=12))
    @settings(max_examples=80)
    def test_region_matches_fraction_keyed_sort(self, pairs):
        spans = [(a, b) if a < b else (b, a) for a, b in pairs if a != b]
        if not spans:
            return
        ref = sorted(spans, key=lambda s: (s[0].as_fraction(),
                                           s[1].as_fraction()))
        merged = []
        for lo, hi in ref:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi,
                                                 key=Dyadic.as_fraction))
            else:
                merged.append((lo, hi))
        assert Region(spans).components == tuple(merged)
