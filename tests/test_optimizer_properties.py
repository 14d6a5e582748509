"""Property tests of the per-interval bracket optimizer against exhaustive
enumeration, on random synthetic interval functions rather than fixtures,
and of the span scorer against its definition: per span, the first
allowed variant unless a later one is strictly better, each variant
evaluated once through g.span and kept in the memo."""

import operator

import pytest
from hypothesis import given, settings, strategies as st

from burkill.catalog import INF, IntervalFunction, xsum
from burkill.core import Dyadic, Region
from burkill.integrator import (
    _VARIANTS,
    Candidate,
    Witness,
    _score,
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
    # the scorer on the points keyed at 2^-4, with the locks on their keys
    cand = Candidate([p.num << (4 - p.exp) for p in points], 4,
                     [(0, len(points))])
    ups, lows, up_k, low_k = _score(g, cand, {}, {
        k: locks[p] for p, k in zip(points, cand.keys) if p in locks})
    fast, choice = (xsum(ups), up_k) if sense == "max" else (xsum(lows),
                                                             low_k)
    witness = Witness(region, cand, choice).division

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


# ---------------------------------------------------------------------------
# _score against hand-worked rows and its definition
# ---------------------------------------------------------------------------

NAN = float("nan")


def row_function(row):
    """g on one span, reading its value off row[2 * lc + rc]."""
    return IntervalFunction(
        "row", span=lambda a, b, ex, lc, rc: row[2 * lc + rc])


ONE_SPAN = Candidate([0, 1], 0, [(0, 2)])


# (row, absolute, (up, low, up variant, low variant)): a later variant wins
# only when strictly better, so ties, -0.0 against 0.0 and a NaN that comes
# first keep the first; a NaN that comes later is never taken
@pytest.mark.parametrize("row, absolute, want", [
    ([1.0, 1.0, 0.0, 0.0], False, (1.0, 0.0, 0, 2)),
    ([1.0, 1.0, 0.0, 0.0], True, (1.0, 0.0, 0, 2)),
    ([NAN, 2.0, -1.0, 0.0], False, (NAN, NAN, 0, 0)),
    ([NAN, 2.0, -1.0, 0.0], True, (NAN, NAN, 0, 0)),
    ([0.0, NAN, 2.0, -1.0], False, (2.0, -1.0, 2, 3)),
    ([0.0, NAN, 2.0, -1.0], True, (2.0, 0.0, 2, 0)),
    ([-0.0, 0.0, 0.0, -0.0], False, (-0.0, -0.0, 0, 0)),
    ([-0.0, 0.0, 0.0, -0.0], True, (0.0, 0.0, 0, 0)),
    ([INF, INF, -INF, -INF], False, (INF, -INF, 0, 2)),
    ([INF, INF, -INF, -INF], True, (INF, INF, 0, 0)),
])
def test_ties_and_nan_pick_the_first_variant(row, absolute, want):
    up, low, up_k, low_k = want
    assert repr(_score(row_function(row), ONE_SPAN, {}, {}, absolute)) == \
        repr(([up], [low], [up_k], [low_k]))


# (row, absolute, the scores with lc locked open, the scores with rc locked
# closed): a limited span takes the first allowed variant unless a later
# allowed one is strictly better
@pytest.mark.parametrize("row, absolute, open_left, closed_right", [
    ([1.0, 1.0, 0.0, 0.0], False, (1.0, 1.0, 0, 0), (1.0, 0.0, 1, 3)),
    ([1.0, 1.0, 0.0, 0.0], True, (1.0, 1.0, 0, 0), (1.0, 0.0, 1, 3)),
    ([NAN, 2.0, -1.0, 0.0], False, (NAN, NAN, 0, 0), (2.0, 0.0, 1, 3)),
    ([NAN, 2.0, -1.0, 0.0], True, (NAN, NAN, 0, 0), (2.0, 0.0, 1, 3)),
    ([0.0, NAN, 2.0, -1.0], False, (0.0, 0.0, 0, 0), (NAN, NAN, 1, 1)),
    ([0.0, NAN, 2.0, -1.0], True, (0.0, 0.0, 0, 0), (NAN, NAN, 1, 1)),
    ([-0.0, 0.0, 0.0, -0.0], False, (-0.0, -0.0, 0, 0), (0.0, 0.0, 1, 1)),
    ([-0.0, 0.0, 0.0, -0.0], True, (0.0, 0.0, 0, 0), (0.0, 0.0, 1, 1)),
    ([INF, INF, -INF, -INF], False, (INF, INF, 0, 0), (INF, -INF, 1, 3)),
    ([INF, INF, -INF, -INF], True, (INF, INF, 0, 0), (INF, INF, 1, 1)),
])
def test_locked_ties_pick_the_first_allowed_variant(row, absolute, open_left,
                                                    closed_right):
    g = row_function(row)
    # a lock (rc of the span ending there, lc of the span starting there)
    for locks, (up, low, up_k, low_k) in (({0: (True, False)}, open_left),
                                          ({1: (True, False)}, closed_right)):
        assert repr(_score(g, ONE_SPAN, {}, locks, absolute)) == \
            repr(([up], [low], [up_k], [low_k]))


@pytest.mark.parametrize("locks", [{0: (None, None)}, {1: (2, 2)}])
def test_locks_that_allow_no_variant_raise(locks):
    # no bracket is None or 2, so no variant honours the lock
    with pytest.raises(ValueError, match=r"^conflicting locks at 0\.\.1$"):
        _score(row_function([0.0] * 4), ONE_SPAN, {}, locks)


def logged_table(values, bkfree):
    """A span function picking one of the values per (span, brackets), and
    the list of its calls in order."""
    calls = []

    def span(a, b, ex, lc, rc):
        calls.append((a, b, ex, lc, rc))
        k = (a * 7919 + b * 104729 + ex) % 1000003
        if not bkfree:
            k += 2 * lc + rc
        return values[k % len(values)]

    return IntervalFunction("table", span=span,
                            bracket_independent=bkfree), calls


@pytest.mark.parametrize("runs", [[], [(0, 0)], [(0, 1)]])
def test_candidate_without_spans_scores_nothing(runs):
    g, calls = logged_table([1.0], False)
    assert _score(g, Candidate([5], 0, runs), {}, {}) == ([], [], [], [])
    assert calls == []


@st.composite
def candidates(draw):
    """Sorted distinct keys cut into runs; runs may be empty or hold one
    key, and a pack pool's runs may repeat spans of earlier runs."""
    keys = sorted(draw(st.sets(st.integers(-64, 64), max_size=14)))
    cuts = sorted(draw(st.lists(st.integers(0, len(keys)), max_size=3)))
    bounds = [0, *cuts, len(keys)]
    runs = list(zip(bounds, bounds[1:]))
    if draw(st.booleans()) and keys:
        runs += [(0, len(keys))] * draw(st.integers(1, 2))
    return Candidate(keys, draw(st.integers(0, 3)), runs)


TABLE = st.lists(st.one_of(VALUES, st.sampled_from((0.0, -0.0, INF, -INF))),
                 min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(candidates(), TABLE, st.booleans(), st.booleans())
def test_scores_are_the_span_values_each_evaluated_once(cand, values, bkfree,
                                                        absolute):
    g, calls = logged_table(values, bkfree)
    h, _ = logged_table(values, bkfree)
    memo = {}
    got = _score(g, cand, memo, {}, absolute)
    keys, ex = cand.keys, cand.ex
    spans = [(keys[i], keys[i + 1])
             for start, stop in cand.runs for i in range(start, stop - 1)]
    variants = _VARIANTS[:1] if bkfree else _VARIANTS
    rows = [[abs(v) if absolute else v
             for v in (h.span(a, b, ex, lc, rc) for lc, rc in variants)]
            for a, b in spans]
    ups, lows = [max(r) for r in rows], [min(r) for r in rows]
    if bkfree:
        want = (ups, lows, None, None)
    else:
        want = (ups, lows, [r.index(v) for r, v in zip(rows, ups)],
                [r.index(v) for r, v in zip(rows, lows)])
    assert repr(got) == repr(want)
    assert sorted(calls) == sorted({(a, b, ex, lc, rc) for a, b in spans
                                    for lc, rc in variants})
    # a second pass reads the memo alone
    n = len(calls)
    assert repr(_score(g, cand, memo, {}, absolute)) == repr(want)
    assert len(calls) == n


@settings(max_examples=200, deadline=None)
@given(st.data(), candidates(), TABLE, st.booleans())
def test_an_unlocked_pass_completes_a_locked_trace(data, cand, values,
                                                   bkfree):
    """A locked trace fills memo rows partly; the unlocked pass that reads
    them next evaluates only the variants still missing and scores as on
    an empty memo."""
    keys = data.draw(st.lists(st.sampled_from(cand.keys), max_size=3)
                     if cand.keys else st.just([]))
    locks = {k: data.draw(LOCKS) for k in keys}
    g, calls = logged_table(values, bkfree)
    memo = {}
    try:
        _score(g, cand, memo, locks)
    except ValueError:                        # conflicting locks on a span
        return
    got = _score(g, cand, memo, {})
    assert repr(got) == repr(_score(logged_table(values, bkfree)[0], cand,
                                    {}, {}))
    assert len(calls) == len(set(calls))
    # every row now holds all four variants, and is kept as a tuple
    assert bkfree or all(type(row) is tuple for row in memo.values())


def first_best(row, better):
    """The index of the first value of row that no later value beats."""
    j = 0
    for i in range(1, len(row)):
        if better(row[i], row[j]):
            j = i
    return j


@settings(max_examples=200, deadline=None)
@given(st.data(), candidates(), TABLE, st.booleans(), st.booleans())
def test_limited_spans_evaluate_and_score_only_allowed_variants(
        data, cand, values, bkfree, absolute):
    """At a span with a locked end, the scorer evaluates and scores the
    variants the locks allow, each once; at any other span all four, or
    one value of a bracket-independent g, whose choice at a limited span
    is the first allowed variant."""
    keys = data.draw(st.lists(st.sampled_from(cand.keys), max_size=5)
                     if cand.keys else st.just([]))
    locks = {k: data.draw(LOCKS) for k in keys}
    g, calls = logged_table(values, bkfree)
    h, _ = logged_table(values, bkfree)
    up, low, up_k, low_k = _score(g, cand, {}, locks, absolute)
    ks, ex = cand.keys, cand.ex
    spans = [(ks[i], ks[i + 1])
             for start, stop in cand.runs for i in range(start, stop - 1)]
    allowed = [[k for k, (lc, rc) in enumerate(_VARIANTS)
                if (a not in locks or lc == locks[a][1])
                and (b not in locks or rc == locks[b][0])] for a, b in spans]
    if bkfree:
        # one value per span, whatever brackets it was asked with
        assert sorted(c[:3] for c in calls) == sorted({(a, b, ex)
                                                       for a, b in spans})
        want = [abs(v) if absolute else v
                for v in (h.span(a, b, ex, False, False) for a, b in spans)]
        assert repr((up, low)) == repr((want, want))
        assert up_k == low_k
        assert (up_k or [0] * len(spans)) == [ok[0] for ok in allowed]
        return
    assert len(calls) == len(set(calls))
    assert set(calls) == {(a, b, ex, *_VARIANTS[k])
                          for (a, b), ok in zip(spans, allowed) for k in ok}
    rows = [[abs(v) if absolute else v
             for v in (h.span(a, b, ex, *_VARIANTS[k]) for k in ok)]
            for (a, b), ok in zip(spans, allowed)]
    ups = [first_best(r, operator.gt) for r in rows]
    lows = [first_best(r, operator.lt) for r in rows]
    assert repr((up, low)) == repr(([r[j] for r, j in zip(rows, ups)],
                                    [r[j] for r, j in zip(rows, lows)]))
    assert up_k == [ok[j] for ok, j in zip(allowed, ups)]
    assert low_k == [ok[j] for ok, j in zip(allowed, lows)]
