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
    key_float,
    sort_points,
)
from burkill.errors import (
    DegenerateInterval,
    PointOutsideRegion,
    UnsortedPoints,
)

from oracles import enumerate_bracket_assignments

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

    def test_wide_keys_are_rounded_once(self):
        # ldexp would round this 63-bit key to 53 bits, onto a tie of the
        # subnormal grid 2^-1074, and then round the tie to even, below the
        # quotient
        a, ex = (1 << 62) + (1 << 10) + 1, 1085
        for k in (a, -a):
            assert key_float(k, ex) == float(Fraction(k, 1 << ex))

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


class TestRegion:
    def test_merge_abutting(self):
        r = Region([(D(0), D(1)), (D(1), D(2))])
        assert r.components == ((D(0), D(2)),)
        assert r.measure == D(2)

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
        assert [iv.length for iv in d] == [D(1, 1), D(1, 1)]

    def test_open_junction(self):
        region = Region.interval(D(0), D(1))
        d = division_from_points(
            region, [D(0), D(1, 1), D(1)],
            conventions=[PointConvention(D(1, 1), False, False)])
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
