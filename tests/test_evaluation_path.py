"""One evaluation path: every division, defect and pack search and the
subdivision probe evaluate g only through g.span on integer keys.

Each fixture is span-native.  Its copy here is given only func (the
fixture itself), so the searches reach the fixture through the span
adapter of IntervalFunction, which builds the Interval from the keys.
Both must give the same repr of every value and the same witnesses, and
the span-native searches must call no IntervalFunction on an Interval.
"""

import importlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from burkill.catalog import IntervalFunction, fixture, fixture_names
from burkill.core import Dyadic, Interval
from burkill.integrator import (
    SearchConfig,
    defect_report_at,
    estimate_norm_limits,
    estimate_sigma_limit,
    k_chain_reports,
    singularity_scan,
)
from keyed_inputs import scored_pool

# the package exports the function variation() under the module's name
variation_mod = importlib.import_module("burkill.variation")

LEVELS = SearchConfig(e_schedule=tuple(Dyadic(1, k) for k in range(3, 9)))


def func_only(fn: IntervalFunction) -> IntervalFunction:
    """fn with the same flags, special points and schedule, but no span."""
    return IntervalFunction(fn.name, fn, additive=fn.additive,
                            bracket_independent=fn.bracket_independent,
                            continuous=fn.continuous,
                            special_points=fn._special,
                            singular_schedule=fn._schedule)


def _interior(fx):
    return [y for y in fx.scan_points
            if any(lo < y < hi for lo, hi in fx.region.components)]


def _division(div):
    return None if div is None else (div.region, div.intervals, div.points)


def _limit(rep):
    """Every level's values by repr and both witnesses, and the verdict."""
    return [(lv.e, repr(lv.upper), repr(lv.lower), repr(lv.raw_upper),
             repr(lv.raw_lower), _division(lv.witness_upper),
             _division(lv.witness_lower))
            for lv in rep.levels], str(rep.verdict)


def _cells(fx):
    """Each component's cells at depth 4, with brackets that vary."""
    out = []
    for lo, hi in fx.region.components:
        h = (hi - lo) * Dyadic(1, 4)
        out += [Interval(lo + h * Dyadic(j), lo + h * Dyadic(j + 1),
                         j % 2 == 0, j % 3 == 0) for j in range(16)]
    return out


def _packs(scored):
    """Each sense's values and variants, and its packs at 2^-1, 2^-3 and
    2^-5."""
    return repr((scored.best, [scored.pack(Fraction(1, 1 << k), sense)
                               for k in (1, 3, 5)
                               for sense in ("max", "min")]))


def _variation(g, fx):
    rep = variation_mod.variation(g, fx.region, LEVELS, scan_j=False)
    return (repr((rep.levels, rep.verdict, rep.total, rep.a_bound)),
            _limit(rep.abs_report), _limit(rep.base_report))


SEARCHES = {
    "norm": lambda g, fx: _limit(estimate_norm_limits(g, fx.region, LEVELS)),
    "k_chain": lambda g, fx: [_limit(rep) for rep in k_chain_reports(
        g, fx.region, list(fx.permanent), LEVELS)],
    "sigma": lambda g, fx: _limit(estimate_sigma_limit(g, fx.region, LEVELS)),
    "variation": _variation,
    "j_singularity": lambda g, fx: [
        repr(variation_mod.j_singularity(g, fx.region, y, LEVELS))
        for y in _interior(fx)],
    "singularity_scan": lambda g, fx: repr(
        singularity_scan(g, fx.region, LEVELS)),
    "defect_report_at": lambda g, fx: [
        repr(defect_report_at(g, fx.region, y, LEVELS))
        for y in _interior(fx)],
    "absolutely_continuous": lambda g, fx: repr(
        variation_mod.is_absolutely_continuous(g, fx.region, LEVELS)),
    "semicontinuous": lambda g, fx: [
        repr(variation_mod.scored_pack_pool(g, fx.region, LEVELS).pack(
            Fraction(1, 4096), sense)) for sense in ("max", "min")],
    "monotone_on_subdivision": lambda g, fx: [
        variation_mod.monotone_on_subdivision(g, fx.region, 40, seed)
        for seed in range(3)],
    "pack_search": lambda g, fx: _packs(scored_pool(g, _cells(fx))),
}
AT_SCAN_POINTS = ("j_singularity", "defect_report_at")
CASES = [(name, search) for name in fixture_names() for search in SEARCHES
         if search not in AT_SCAN_POINTS or _interior(fixture(name))]


@pytest.mark.parametrize("name,search", CASES)
def test_adapter_path_equals_span_path(name, search, monkeypatch):
    fx = fixture(name)
    calls, spans = [], []
    call, span = IntervalFunction.__call__, fx.fn.span
    monkeypatch.setattr(IntervalFunction, "__call__",
                        lambda g, iv: calls.append(g.name) or call(g, iv))
    monkeypatch.setattr(fx.fn, "span",
                        lambda *key: spans.append(key) or span(*key))
    want = SEARCHES[search](fx.fn, fx)
    assert calls == []                   # span-native: no Interval evaluated
    native = len(spans)
    assert SEARCHES[search](func_only(fx.fn), fx) == want
    # the copy evaluated the fixture, on Intervals, as often as the native
    # search evaluated it on keys
    assert len(calls) == len(spans) - native == native


# a span that repeats the last one, starts at its end, or starts anywhere,
# at any exponent: the cases the adapter's reuse of its last ends tells apart
STEPS = st.lists(st.tuples(st.sampled_from(("same", "next", "any")),
                           st.integers(-8, 8), st.integers(1, 8),
                           st.integers(0, 3), st.booleans(), st.booleans()),
                 min_size=1, max_size=30)


@settings(max_examples=300, deadline=None)
@given(STEPS)
def test_adapter_hands_func_each_calls_interval(steps):
    got, want = [], []
    g = IntervalFunction("record", lambda iv: got.append(iv) or 0.0)
    a, b = 0, 1
    for kind, k, d, ex, lc, rc in steps:
        if kind != "same":
            a = b if kind == "next" else k
            b = a + d
        g.span(a, b, ex, lc, rc)
        want.append(Interval(Dyadic(a, ex), Dyadic(b, ex), lc, rc))
    assert got == want
