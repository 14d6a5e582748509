"""The search core's builtin-driven loops against the bodies they replaced.

_score maps memo lookups and max/min over a candidate's spans, xsum adds
with functools.reduce, _split_scores takes one max, special points are
filtered and sorted on integer keys, and the staircase and the length
function are evaluated on keys.  The bodies below are the loops they had;
every result must equal its body's by repr, and every evaluation of g must
happen in the same order.
"""

from bisect import bisect_right
from math import isnan

import pytest
from hypothesis import given, settings, strategies as st

from burkill.catalog import (
    INF,
    IntervalFunction,
    cantor_staircase_12,
    cantor_staircase_function,
    fixture,
    fixture_names,
    length_fn,
    xsum,
)
from burkill.core import Dyadic, Interval, Region, sort_points
from burkill.errors import IndeterminateForm
from burkill.integrator import (
    _ALL,
    _VARIANTS,
    Candidate,
    _score,
    _span_variants,
    _split_scores,
)

# ---------------------------------------------------------------------------
# The replaced bodies, kept as oracles
# ---------------------------------------------------------------------------


def ref_xsum(values) -> float:
    pos = neg = False
    total = 0.0
    for v in values:
        if v == INF:
            pos = True
        elif v == -INF:
            neg = True
        else:
            total += v
    if pos and neg:
        raise IndeterminateForm("inf - inf in a Riemann sum")
    if pos:
        return INF
    if neg:
        return -INF
    return total


def ref_score(g, cand, memo, locks, absolute=False):
    keys, ex, span = cand.keys, cand.ex, g.span
    if g.bracket_independent:
        vals = []
        choice = [] if locks else None
        for start, stop in cand.runs:
            for i in range(start, stop - 1):
                k = 0
                if locks:
                    k = _span_variants(locks, cand, i)[0]
                    choice.append(k)
                key = (keys[i], keys[i + 1])
                v = memo.get(key)
                if v is None:
                    v = memo[key] = span(*key, ex, *_VARIANTS[k])
                vals.append(abs(v) if absolute else v)
        return vals, vals, choice, choice
    ups, lows, up_k, low_k = [], [], [], []
    for start, stop in cand.runs:
        for i in range(start, stop - 1):
            allowed = _span_variants(locks, cand, i) if locks else _ALL
            key = (keys[i], keys[i + 1])
            row = memo.get(key)
            if row is None:
                row = memo[key] = [None] * 4
            vs = []
            for k in allowed:
                v = row[k]
                if v is None:
                    v = row[k] = span(*key, ex, *_VARIANTS[k])
                vs.append(abs(v) if absolute else v)
            hi = lo = 0
            for j in range(1, len(vs)):
                if vs[j] > vs[hi]:
                    hi = j
                if vs[j] < vs[lo]:
                    lo = j
            ups.append(vs[hi])
            up_k.append(allowed[hi])
            lows.append(vs[lo])
            low_k.append(allowed[lo])
    return ups, lows, up_k, low_k


def ref_split_scores(whole, left, right):
    c = 0.0
    for w in whole:
        for a in left:
            for b in right:
                val = abs(w - a - b)
                if val > c:
                    c = val
    sums = [a + b for a in left for b in right]
    return c, max(c, max(sums) - min(sums))


def ref_special_points(g, region, resolution):
    pts = [p for p in g._special(region, resolution)
           if region.contains_point(p)]
    return sort_points(set(pts))


def ref_singular_schedule(g, region, resolution):
    return [(p, lock) for p, lock in g._schedule(region, resolution)
            if region.contains_point(p)]


def ref_staircase_ev():
    """The staircase's point function as it was written on Dyadics."""
    grid = 32
    _, spans = cantor_staircase_12()
    starts = [a.num << (grid - a.exp) for a, _ in spans]
    ends = [b.num << (grid - b.exp) for _, b in spans]
    rise = 1 << 12
    last = len(spans) - 1

    def ev(x: Dyadic) -> float:
        e = max(grid, x.exp)
        shift = e - grid
        xi = x.num << (e - x.exp)
        if xi <= starts[0] << shift:
            return 0.0
        if xi >= ends[last] << shift:
            return 1.0
        i = bisect_right(starts, xi >> shift) - 1
        a, b = starts[i] << shift, ends[i] << shift
        if xi >= b:
            return (i + 1) / rise
        return (i * (b - a) + xi - a) / (rise * (b - a))

    return ev


def as_lists(memo):
    """The memo with every row as a fresh list: _score keeps a complete row
    as a tuple, where the old body kept lists."""
    return {k: list(v) if isinstance(v, (list, tuple)) else v
            for k, v in memo.items()}


def same_memo(memo, ref_memo):
    assert repr(as_lists(memo)) == repr(ref_memo)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

VALUES = st.one_of(
    st.floats(min_value=-8, max_value=8, allow_nan=False),
    st.sampled_from((0.0, -0.0, 1.0, -1.0, INF, -INF, float("nan"))))


def logged_table(values, bkfree):
    """A span function picking one of the values per (span, brackets), and
    the list of its calls in order."""
    calls = []
    n = len(values)

    def span(a, b, ex, lc, rc):
        calls.append((a, b, ex, lc, rc))
        k = (a * 7919 + b * 104729 + ex) % 1000003
        if not bkfree:
            k += 2 * lc + rc
        return values[k % n]

    return IntervalFunction("table", span=span,
                            bracket_independent=bkfree), calls


@st.composite
def candidates(draw):
    """Sorted distinct keys cut into runs; runs may be empty or hold one
    key, and a second candidate over the same keys repeats spans."""
    keys = sorted(draw(st.sets(st.integers(-64, 64), max_size=14)))
    cuts = sorted(draw(st.lists(st.integers(0, len(keys)), max_size=3)))
    bounds = [0, *cuts, len(keys)]
    runs = list(zip(bounds, bounds[1:]))
    if draw(st.booleans()) and keys:          # a pack pool repeats its runs
        runs += [(0, len(keys))] * draw(st.integers(1, 2))
    return Candidate(keys, draw(st.integers(0, 3)), runs)


def locks_for(draw, keys):
    chosen = draw(st.lists(st.sampled_from(keys), max_size=3)) if keys else []
    return {k: draw(st.sampled_from(_VARIANTS)) for k in chosen}


# ---------------------------------------------------------------------------
# _score
# ---------------------------------------------------------------------------


class TestScore:
    @settings(max_examples=400, deadline=None)
    @given(candidates(), st.lists(VALUES, min_size=1, max_size=8),
           st.booleans(), st.booleans())
    def test_equals_reference(self, cand, values, bkfree, absolute):
        g, calls = logged_table(values, bkfree)
        h, ref_calls = logged_table(values, bkfree)
        memo, ref_memo = {}, {}
        got = _score(g, cand, memo, {}, absolute)
        want = ref_score(h, cand, ref_memo, {}, absolute)
        assert repr(got) == repr(want)
        assert calls == ref_calls
        same_memo(memo, ref_memo)
        # a second pass reads the memo alone
        assert repr(_score(g, cand, memo, {}, absolute)) == repr(want)
        assert calls == ref_calls

    @settings(max_examples=400, deadline=None)
    @given(st.data(), candidates(), st.lists(VALUES, min_size=1, max_size=8),
           st.booleans(), st.booleans())
    def test_memo_filled_by_a_locked_trace(self, data, cand, values, bkfree,
                                           absolute):
        """A locked trace fills rows partly; the unlocked trace that reads
        them next evaluates only the missing variants, in order."""
        locks = locks_for(data.draw, cand.keys)
        g, calls = logged_table(values, bkfree)
        h, ref_calls = logged_table(values, bkfree)
        memo, ref_memo = {}, {}
        try:
            first = _score(g, cand, memo, locks, absolute)
        except ValueError:                    # conflicting locks on a span
            with pytest.raises(ValueError):
                ref_score(h, cand, ref_memo, locks, absolute)
            return
        assert repr(first) == repr(ref_score(h, cand, ref_memo, locks,
                                             absolute))
        ref_memo = as_lists(memo)
        ref_calls[:] = calls
        got = _score(g, cand, memo, {}, absolute)
        want = ref_score(h, cand, ref_memo, {}, absolute)
        assert repr(got) == repr(want)
        assert calls == ref_calls
        same_memo(memo, ref_memo)

    def test_ties_and_nan_pick_the_first_variant(self):
        nan = float("nan")
        for row in ([1.0, 1.0, 0.0, 0.0], [nan, 2.0, -1.0, 0.0],
                    [0.0, nan, 2.0, -1.0], [-0.0, 0.0, 0.0, -0.0],
                    [INF, INF, -INF, -INF]):
            g = IntervalFunction(
                "row", span=lambda a, b, ex, lc, rc: row[2 * lc + rc])
            cand = Candidate([0, 1], 0, [(0, 2)])
            for absolute in (False, True):
                assert repr(_score(g, cand, {}, {}, absolute)) == \
                    repr(ref_score(g, cand, {}, {}, absolute))

    def test_empty_candidate(self):
        g, calls = logged_table([1.0], False)
        for runs in ([], [(0, 0)], [(0, 1)]):
            cand = Candidate([5], 0, runs)
            assert _score(g, cand, {}, {}) == ([], [], [], [])
        assert calls == []


# ---------------------------------------------------------------------------
# xsum
# ---------------------------------------------------------------------------

SUMMANDS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from((0.0, -0.0, INF, -INF, float("nan"), 1.7e308)))


def same_sum(values):
    try:
        want = ref_xsum(values)
    except IndeterminateForm:
        with pytest.raises(IndeterminateForm):
            xsum(values)
        with pytest.raises(IndeterminateForm):
            xsum(iter(values))
        return
    assert repr(xsum(values)) == repr(want)
    assert repr(xsum(iter(values))) == repr(want)


class TestXsum:
    @settings(max_examples=1000, deadline=None)
    @given(st.lists(SUMMANDS, max_size=12))
    def test_equals_reference(self, values):
        same_sum(values)

    @pytest.mark.parametrize("values", [
        [], [-0.0], [-0.0, -0.0], [INF, 1.0], [-INF, 1.0], [1.0, INF, 2.0],
        [float("nan"), INF], [float("nan"), 1.0], [1.7e308, 1.7e308],
        [-1.7e308, -1.7e308], [1.7e308, 1.7e308, -INF], [0.1, 0.2, 0.3],
        [1e16, 1.0, -1e16]])
    def test_cases(self, values):
        same_sum(values)

    def test_both_infinities_raise(self):
        with pytest.raises(IndeterminateForm):
            xsum([1.0, INF, -INF])
        assert xsum([1.7e308, 1.7e308]) == INF
        assert isnan(xsum([float("nan"), 1.0]))
        assert repr(xsum([-0.0])) == "0.0"


# ---------------------------------------------------------------------------
# _split_scores
# ---------------------------------------------------------------------------

class TestSplitScores:
    @settings(max_examples=1000, deadline=None)
    @given(*(st.lists(VALUES, min_size=1, max_size=4),) * 3)
    def test_equals_reference(self, whole, left, right):
        assert repr(_split_scores(whole, left, right)) == \
            repr(ref_split_scores(whole, left, right))


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
    def test_equals_reference(self, case, as_tuple):
        region, pts = case
        given_pts = tuple(pts) if as_tuple else pts
        g = IntervalFunction(
            "pts", span=lambda a, b, ex, lc, rc: 0.0,
            special_points=lambda r, e: given_pts,
            singular_schedule=lambda r, e: [(p, None) for p in given_pts])
        e = Dyadic(1, 3)
        got = g.special_points(region, e)
        assert repr(got) == repr(ref_special_points(g, region, e))
        assert [(p.num, p.exp) for p in got] == \
            [(p.num, p.exp) for p in ref_special_points(g, region, e)]
        assert g.singular_schedule(region, e) == \
            ref_singular_schedule(g, region, e)

    def test_fixture_specials_equal_reference(self):
        for name in fixture_names():
            fx = fixture(name)
            for k in (3, 8, 12):
                e = Dyadic(1, k)
                assert fx.fn.special_points(fx.region, e) == \
                    ref_special_points(fx.fn, fx.region, e)
                if fx.fn._schedule is not None:
                    assert fx.fn.singular_schedule(fx.region, e) == \
                        ref_singular_schedule(fx.fn, fx.region, e)


# ---------------------------------------------------------------------------
# keyed staircase and length
# ---------------------------------------------------------------------------

_REF_EV = ref_staircase_ev()
_F, _ = cantor_staircase_12()

KEYS = st.integers(0, 100).flatmap(lambda ex: st.tuples(
    st.integers(-(1 << ex) // 8 - 1, (1 << ex) + (1 << ex) // 8 + 1),
    st.just(ex)))


class TestKeyedStaircase:
    @settings(max_examples=1000, deadline=None)
    @given(KEYS, st.integers(0, 70))
    def test_key_evaluator_equals_reference(self, key, k):
        a, ex = key
        want = repr(_REF_EV(Dyadic(a, ex)))
        assert repr(_F.keyed(a, ex)) == want
        assert repr(_F.keyed(a << k, ex + k)) == want
        assert repr(_F(Dyadic(a, ex))) == want

    @settings(max_examples=500, deadline=None)
    @given(KEYS, KEYS, st.integers(0, 70), st.booleans(), st.booleans())
    def test_span_equals_endpoint_difference(self, p, q, k, lc, rc):
        g, _ = cantor_staircase_function()
        (a, ea), (b, eb) = p, q
        lo, hi = sorted((Dyadic(a, ea), Dyadic(b, eb)),
                        key=lambda d: d.num << (128 - d.exp))
        if lo == hi:
            return
        ex = max(ea, eb)
        ak, bk = lo.num << (ex - lo.exp), hi.num << (ex - hi.exp)
        want = repr(_REF_EV(hi) - _REF_EV(lo))
        assert repr(g.span(ak, bk, ex, lc, rc)) == want
        assert repr(g.span(ak << k, bk << k, ex + k, lc, rc)) == want
        assert repr(g(Interval(lo, hi, lc, rc))) == want

    def test_keys_past_2_62(self):
        ex = 90
        for a in (1, (1 << 88) + 12345, (1 << 89) - 1, 1 << 90,
                  (1 << 89) + (1 << 60) + 1):
            assert repr(_F.keyed(a, ex)) == repr(_REF_EV(Dyadic(a, ex)))


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
