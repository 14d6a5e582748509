"""Property tests of the reported traces on random dyadic sub-regions of
the fixtures, at short schedules: suffix-tightened norm and k traces are
monotone in e, and the norm/k chain lower_N <= lower_k <= upper_k <= upper_N
holds at every level."""

from hypothesis import given, settings, strategies as st

from burkill.catalog import fixture, fixture_names
from burkill.core import Dyadic, Region, dmid
from burkill.integrator import (
    SearchConfig,
    estimate_k_limits,
    estimate_norm_limits,
    k_chain_reports,
)

SCHEDULES = st.sampled_from([
    tuple(Dyadic(1, k) for k in ks)
    for ks in ((2, 3), (3, 4), (2, 3, 4), (3, 4, 5), (2, 4, 5))])


@st.composite
def sub_regions(draw):
    """A fixture and one or two components cut on the 2^-4 grid of its
    region."""
    fx = fixture(draw(st.sampled_from(fixture_names())))
    lo, hi = fx.region.components[0]
    step = (hi - lo) * Dyadic(1, 4)
    cuts = sorted(draw(st.sets(st.integers(0, 16), min_size=2, max_size=4)))
    if len(cuts) % 2:
        cuts = cuts[:-1]
    at = [lo + step * Dyadic(c) for c in cuts]
    region = Region([(at[i], at[i + 1]) for i in range(0, len(at), 2)])
    cfg = SearchConfig(e_schedule=draw(SCHEDULES))
    return fx, region, cfg


def _permanent(fx, region):
    return list(fx.permanent) or [(dmid(*region.components[0]), None)]


def _monotone(rep):
    ups = [lv.upper for lv in rep.levels]
    lows = [lv.lower for lv in rep.levels]
    return (all(a >= b for a, b in zip(ups, ups[1:]))
            and all(a <= b for a, b in zip(lows, lows[1:])))


@settings(max_examples=100, deadline=None)
@given(sub_regions())
def test_norm_and_k_traces_monotone_after_tightening(case):
    fx, region, cfg = case
    assert _monotone(estimate_norm_limits(fx.fn, region, cfg))
    assert _monotone(estimate_k_limits(fx.fn, region,
                                       _permanent(fx, region), cfg))


@settings(max_examples=100, deadline=None)
@given(sub_regions())
def test_norm_k_chain_holds_at_every_level(case):
    fx, region, cfg = case
    norm_rep, k_rep = k_chain_reports(fx.fn, region,
                                      _permanent(fx, region), cfg)
    for n, k in zip(norm_rep.levels, k_rep.levels):
        assert n.e == k.e
        assert n.lower <= k.lower <= k.upper <= n.upper
