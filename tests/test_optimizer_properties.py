"""Property tests of the per-interval bracket optimizer against exhaustive
enumeration, on random synthetic interval functions rather than fixtures."""

from hypothesis import given, settings, strategies as st

from burkill.catalog import IntervalFunction
from burkill.core import Dyadic, Region
from burkill.integrator import (
    brute_force_extremal,
    extremal_sum,
    riemann_sum,
)

from oracles import enumerate_bracket_assignments

VALUES = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                   allow_infinity=False)
SENSES = st.sampled_from(("max", "min"))
LOCKS = st.sampled_from(((False, False), (False, True),
                         (True, False), (True, True)))


@st.composite
def tables(draw):
    """Points of 1..5 spans and a table g(span, brackets) over them.

    A table flagged bracket independent really ignores brackets, since the
    optimizer evaluates only one variant of each span for such functions.
    """
    m = draw(st.integers(1, 5))
    raw = sorted(draw(st.sets(st.integers(-64, 64), min_size=m + 1,
                              max_size=m + 1)))
    points = [Dyadic(r, 4) for r in raw]
    bkfree = draw(st.booleans())
    rows = []
    for _ in range(m):
        if bkfree:
            rows.append([draw(VALUES)] * 4)
        else:
            rows.append(draw(st.lists(VALUES, min_size=4, max_size=4)))
    index = {p: i for i, p in enumerate(points)}

    def ev(iv):
        return rows[index[iv.lo]][2 * iv.left_closed + iv.right_closed]

    g = IntervalFunction("table", ev, bracket_independent=bkfree)
    return g, points


@settings(max_examples=200, deadline=None)
@given(tables(), SENSES)
def test_extremal_sum_matches_brute_force(table, sense):
    g, points = table
    region = Region.interval(points[0], points[-1])
    fast, witness = extremal_sum(g, points, region, sense)
    assert fast == brute_force_extremal(g, points, region, sense)
    assert riemann_sum(g, witness) == fast


@settings(max_examples=100, deadline=None)
@given(tables(), SENSES, st.data())
def test_locked_optimum_matches_filtered_enumeration(table, sense, data):
    g, points = table
    region = Region.interval(points[0], points[-1])
    locks = data.draw(st.dictionaries(st.sampled_from(points), LOCKS))
    fast, witness = extremal_sum(g, points, region, sense, locks)

    def honors(div):
        return all(
            (iv.lo not in locks or iv.left_closed == locks[iv.lo][1])
            and (iv.hi not in locks or iv.right_closed == locks[iv.hi][0])
            for iv in div)

    sums = [riemann_sum(g, div)
            for div in enumerate_bracket_assignments(region, points)
            if honors(div)]
    assert fast == (max(sums) if sense == "max" else min(sums))
    assert honors(witness)
    assert riemann_sum(g, witness) == fast
