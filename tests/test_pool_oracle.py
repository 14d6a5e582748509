"""The pool-optimal division search as an exact oracle for the candidate
search.

At one norm bound e, the pool is the union of the points of every
candidate the search builds.  Bracket choices are independent across
intervals, so a dynamic program over the sorted pool finds the exact
optimum over every division whose points lie in the pool and whose gaps
are below e:

    best[j] = opt over i with x_j - x_i < e of best[i] + span_opt(x_i, x_j)

component by component.  Every candidate is such a division, so the
program's upper value bounds the search's raw upper value from above and
its lower value bounds the raw lower value from below.  Where the two
differ, the candidate family misses divisions that the pool already holds.
"""

import pytest
from hypothesis import given, settings, strategies as st

from burkill.catalog import IntervalFunction, fixture, fixture_names
from burkill.core import Dyadic, Interval, Region
from burkill.integrator import (
    SearchConfig,
    candidate_point_sets,
    estimate_norm_limits,
)

CFG = SearchConfig(e_schedule=tuple(Dyadic(1, k) for k in range(3, 9)))
SOUND = [name for name in fixture_names() if name != "osc_left_limit"]


def _span_values(g, a, b):
    if g.bracket_independent:
        return [g(Interval(a, b, False, False))]
    return [g(v) for v in Interval(a, b).variants()]


def pool_dp(g, region, e, cfg) -> tuple[float, float]:
    """The optimal upper and lower Riemann sums over divisions of norm
    below e with points in the level's candidate pool."""
    cands = candidate_point_sets(g, region, e, cfg)
    ex = cands[0].ex                     # one exponent holds the level
    pool = sorted({k for cand in cands for k in cand.keys})
    ek = e.num << (ex - e.exp)
    up_total = low_total = 0.0
    for lo, hi in region.components:
        keys = [k for k in pool
                if lo.num << (ex - lo.exp) <= k <= hi.num << (ex - hi.exp)]
        pts = [Dyadic(k, ex) for k in keys]
        up = [0.0] + [None] * (len(pts) - 1)
        low = [0.0] + [None] * (len(pts) - 1)
        for j in range(1, len(pts)):
            i = j - 1
            while i >= 0 and keys[j] - keys[i] < ek:
                vals = _span_values(g, pts[i], pts[j])
                u, v = up[i] + max(vals), low[i] + min(vals)
                if up[j] is None or u > up[j]:
                    up[j] = u
                if low[j] is None or v < low[j]:
                    low[j] = v
                i -= 1
        up_total += up[-1]
        low_total += low[-1]
    return up_total, low_total


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def _dp_levels(name: str):
    fx = fixture(name)
    rep = estimate_norm_limits(fx.fn, fx.region, CFG)
    return [(lv, pool_dp(fx.fn, fx.region, lv.e, CFG)) for lv in rep.levels]


@pytest.mark.parametrize("name", fixture_names())
def test_pool_dp_bounds_the_search(name):
    for lv, (up, low) in _dp_levels(name):
        assert up >= lv.raw_upper or _close(up, lv.raw_upper)
        assert low <= lv.raw_lower or _close(low, lv.raw_lower)


@pytest.mark.parametrize("name", SOUND)
def test_search_is_pool_optimal_on_sound_fixtures(name):
    for lv, (up, low) in _dp_levels(name):
        assert _close(up, lv.raw_upper), (lv.e, up, lv.raw_upper)
        assert _close(low, lv.raw_lower), (lv.e, low, lv.raw_lower)


def test_osc_left_limit_search_misses_pool_divisions():
    # An open defect: over its own pool the search falls short by at least
    # 1 at every level, on both sides.  The fixture's expected value 0.5 is
    # an artifact of the candidate family, not the function's norm-limit.
    for lv, (up, low) in _dp_levels("osc_left_limit"):
        assert up >= lv.raw_upper + 1.0, (lv.e, up, lv.raw_upper)
        assert low <= lv.raw_lower - 0.25, (lv.e, low, lv.raw_lower)


# ---------------------------------------------------------------------------
# random bracket-dependent tables with random special points
# ---------------------------------------------------------------------------

@st.composite
def table_searches(draw):
    raw = sorted(draw(st.sets(st.integers(-32, 32), min_size=2, max_size=4)))
    region = Region([(Dyadic(a, 3), Dyadic(b, 3))
                     for a, b in zip(raw[::2], raw[1::2])])
    specials = [Dyadic(n, 5) for n in draw(st.lists(
        st.integers(-128, 128), max_size=8))]
    values = draw(st.lists(st.floats(-8, 8, allow_nan=False), min_size=1,
                           max_size=16))
    bkfree = draw(st.booleans())

    def ev(iv):
        lo = iv.lo.num << (16 - iv.lo.exp)
        hi = iv.hi.num << (16 - iv.hi.exp)
        k = (lo * 7919 + hi * 104729) % 1000003
        if not bkfree:
            k += 2 * iv.left_closed + iv.right_closed
        return values[k % len(values)]

    g = IntervalFunction("table", ev, bracket_independent=bkfree,
                         special_points=lambda r, e: specials)
    return g, region


@settings(max_examples=60, deadline=None)
@given(table_searches())
def test_pool_dp_bounds_the_search_on_tables(case):
    g, region = case
    cfg = SearchConfig(e_schedule=(Dyadic(1, 0), Dyadic(1, 2)))
    for lv in estimate_norm_limits(g, region, cfg).levels:
        up, low = pool_dp(g, region, lv.e, cfg)
        assert up >= lv.raw_upper or _close(up, lv.raw_upper)
        assert low <= lv.raw_lower or _close(low, lv.raw_lower)
