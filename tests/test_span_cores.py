"""Integer span cores against the Interval and Rect bodies they replaced.

Density kernels, the around-set parts, stieltjes functions of
polynomials, the combinators (scale_fn, add_fn, hellinger and the locked
jump fixture) and the planar fixtures' cells are evaluated on integer
keys.  The bodies below are the ones they had on Dyadic, Interval and Rect
objects, which define them; every keyed value must equal its body's by
repr, at every span exponent, for every bracket pair.  The around-set
chain, which its iterated functions feed, is checked against hand-worked
values.
A guard test runs the measure searches, Fubini's chain on a product,
criteria 3 and 6, the absolute-continuity probes of the staircase and of
length, and searches on the combinators with the Interval and Rect paths
made to raise, so that they stay on the keyed path.
"""

from dataclasses import replace
from fractions import Fraction
from math import ldexp

import pytest
from hypothesis import given, settings, strategies as st

from burkill import around_set
from burkill.around_set import (
    around_chain_check,
    around_part,
    complement_part,
)
from burkill.catalog import (
    IntervalFunction,
    PointFunction,
    add_fn,
    cantor_staircase_function,
    fixture,
    hellinger,
    k_jump_locked_function,
    length_fn,
    poly,
    pow2,
    scale_fn,
    stieltjes,
)
from burkill.core import (
    Dyadic,
    Interval,
    Region,
    ZERO,
    dmax,
    dmin,
    dmid,
    key_float,
)
from burkill.density import (
    MeasurableSet,
    density_integral,
    density_kernel,
    intersect_measure,
    with_set_edges,
)
from burkill.integrator import _VARIANTS, SearchConfig, estimate_norm_limits
from burkill.planar import (
    Rect,
    RectFunction,
    area_function,
    bottom_strips_function,
    closed_rect,
    estimate_norm_limits_2d,
    fubini_chain,
    planar_config,
    product_function,
    two_squares_function,
)
from burkill.variation import is_absolutely_continuous, variation
from burkill.verify import check_3_k_convention, check_6_fubini

from oracles import is_pow2, step, with_brackets

INF = float("inf")
ONE = Dyadic(1)
UNIT = Region.interval(ZERO, ONE)
MIN_NORMAL = Dyadic(1, 1022)


# ---------------------------------------------------------------------------
# The Dyadic, Interval and Rect bodies
# ---------------------------------------------------------------------------

def ref_float(x):
    """Dyadic.__float__'s body: ldexp below 2^62, else the exact quotient."""
    if abs(x.num) < (1 << 62):
        return ldexp(x.num, -x.exp)
    return float(x.as_fraction())


def ref_area(r):
    """The area of a Rect, its x length times its y length, as a float."""
    return ref_float(r.x.length * r.y.length)


def ref_poly(coeffs):
    """The polynomial's point body: Horner's rule at float(x)."""
    cs = tuple(float(c) for c in coeffs)

    def ev(x):
        t = ref_float(x)
        acc = 0.0
        for c in reversed(cs):
            acc = acc * t + c
        return acc

    return ev


def ref_stieltjes(f):
    return IntervalFunction("ref_S", lambda iv: f(iv.hi) - f(iv.lo))


def ref_density_kernel(g, E):
    """K(I) = g(I) * m(E & I) / mI on Intervals.

    The one change from the body it replaced: it divided exact floats
    whenever both numerators were below 2^52, also when they underflowed.
    A span of length 2^-1100 inside E then divided 0.0 by 0.0.  Below the
    smallest normal float this body takes the Fraction path instead.
    """
    def ev(iv):
        m = intersect_measure(E, iv)
        if m.num == 0:
            return 0.0
        length = iv.length
        if (m.num < (1 << 52) and length.num < (1 << 52)
                and not m < MIN_NORMAL):
            ratio = ref_float(m) / ref_float(length)
        else:
            ratio = float(m.as_fraction() / length.as_fraction())
        return g(iv) * ratio

    return IntervalFunction("ref_K", ev)


def ref_around_part(g, E):
    return IntervalFunction("ref_E", lambda iv: g(iv) if E.meets(iv) else 0.0,
                            special_points=with_set_edges(g, E))


def ref_complement_part(g, E):
    return IntervalFunction("ref_co", lambda iv: 0.0 if E.meets(iv) else g(iv))


def ref_scale(c, g):
    return lambda iv: c * g(iv)


def ref_add(g1, g2):
    return lambda iv: g1(iv) + g2(iv)


def ref_hellinger(f, h):
    def ev(iv):
        d = h(iv.hi) - h(iv.lo)
        s = f(iv.hi) - f(iv.lo)
        return s * s / d

    return ev


def ref_apply_k_convention(iv):
    """Rewrite brackets at ends lying in the singular set {0, 2^-r} to ")["."""
    lc, rc = iv.left_closed, iv.right_closed
    if iv.lo == ZERO or (is_pow2(iv.lo) and iv.lo.num == 1 and iv.lo.exp >= 1):
        lc = True
    if iv.hi == ZERO or (is_pow2(iv.hi) and iv.hi.num == 1 and iv.hi.exp >= 1):
        rc = False
    return with_brackets(iv, lc, rc)


def ref_k_jump_locked(iv):
    return fixture("k_convention_jump").fn(ref_apply_k_convention(iv))


def ref_two_squares(r):
    cx1, cx2, cy = Dyadic(1, 2), Dyadic(3, 2), Dyadic(1, 1)
    w = r.x.length
    if w != r.y.length or w.num != 1 or w.exp < 2:
        return 0.0
    if dmid(r.y.lo, r.y.hi) != cy:
        return 0.0
    centre = dmid(r.x.lo, r.x.hi)
    if centre == cx1 and w.exp % 2 == 0:
        return 1.0
    if centre == cx2 and w.exp % 2 == 1:
        return 1.0
    return 0.0


def ref_bottom_strips(r):
    half = Dyadic(1, 1)
    if r.y.lo != ZERO or r.y.hi.num != 1 or r.y.hi.exp < 2:
        return 0.0
    even = r.y.hi.exp % 2 == 0
    if even and r.x.hi <= half:
        return ref_float(r.x.length)
    if not even and half <= r.x.lo and r.x.hi <= ONE:
        return ref_float(r.x.length)
    return 0.0


def ref_product(g1, g2):
    return lambda r: g1(r.x) * g2(r.y)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

COEFFS = st.lists(st.floats(-8, 8, allow_nan=False).map(
    lambda c: round(c, 3)), min_size=1, max_size=5)
# a key shift that leaves every value alone but takes keys past 2^62 and
# past 2^1100
SHIFTS = st.sampled_from((0, 0, 63, 1100))


def _charge(iv):
    """A bracket-dependent func-only g that is never zero."""
    return 1.0 + iv.left_closed - 2.0 * iv.right_closed + float(iv.length)


G_CHOICES = {
    "cubic": lambda: stieltjes(poly("c", [0.25, -1.0, 0.5, 2.0])),
    "origin": lambda: fixture("origin_indicator").fn,
    "one": lambda: IntervalFunction("one", span=lambda a, b, ex, lc, rc: 1.0),
    "charge": lambda: IntervalFunction("charge", _charge),
    "+inf": lambda: IntervalFunction("+inf", lambda iv: INF),
    "-inf": lambda: IntervalFunction("-inf", lambda iv: -INF),
}


@st.composite
def measurable_sets(draw):
    """Up to three components at one edge exponent, with any brackets;
    neighbours may abut.  No component: the empty set."""
    ex = draw(st.integers(0, 6))
    n = draw(st.integers(0, 3))
    cuts = sorted(draw(st.sets(st.integers(-40, 40), min_size=2 * n,
                               max_size=2 * n)))
    comps = []
    for i in range(n):
        lo, hi = cuts[2 * i], cuts[2 * i + 1]
        if comps and draw(st.booleans()):
            lo = comps[-1][1]                        # abut the last one
        comps.append((lo, hi))
    return MeasurableSet([Interval(Dyadic(lo, ex), Dyadic(hi, ex),
                                   draw(st.booleans()), draw(st.booleans()))
                          for lo, hi in comps])


@st.composite
def spans(draw, E):
    """A span's keys (a, b, ex) and brackets.  Its ends are E's edges or
    other points, at a span exponent below or above E's edge exponent,
    and its keys are shifted by one of SHIFTS."""
    edges = E.endpoints()
    point = st.builds(Dyadic, st.integers(-48, 48), st.integers(0, 12))
    if edges:
        point = st.one_of(st.sampled_from(edges), point)
    lo, hi = draw(point), draw(point)
    if lo == hi:
        hi = lo + Dyadic(1, draw(st.integers(0, 12)))
    lo, hi = dmin(lo, hi), dmax(lo, hi)
    ex = max(lo.exp, hi.exp, draw(st.integers(0, 12))) + draw(SHIFTS)
    return (lo.num << (ex - lo.exp), hi.num << (ex - hi.exp), ex,
            draw(st.booleans()), draw(st.booleans()))


def outcome(fn, *args):
    """fn's value by repr, or the name of what it raised."""
    try:
        return repr(fn(*args))
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc).__name__


def interval(a, b, ex, lc, rc):
    return Interval(Dyadic(a, ex), Dyadic(b, ex), lc, rc)


def assert_invariant(span, a, b, ex, lc, rc):
    """The value does not depend on the exponent the keys are given at."""
    want = repr(span(a, b, ex, lc, rc))
    for k in (1, 7, 64):
        assert repr(span(a << k, b << k, ex + k, lc, rc)) == want


# ---------------------------------------------------------------------------
# Density kernels and around-set parts
# ---------------------------------------------------------------------------

class TestDensityKernel:
    @settings(max_examples=400, deadline=None)
    @given(measurable_sets(), st.sampled_from(sorted(G_CHOICES)), st.data())
    def test_kernel_equals_interval_body(self, E, gname, data):
        g = G_CHOICES[gname]()
        got, ref = density_kernel(g, E), ref_density_kernel(g, E)
        for _ in range(4):
            key = data.draw(spans(E))
            assert repr(got.span(*key)) == repr(ref(interval(*key)))
            assert repr(got(interval(*key))) == repr(ref(interval(*key)))
            assert_invariant(got.span, *key)

    @settings(max_examples=200, deadline=None)
    @given(measurable_sets(), st.data())
    def test_no_evaluation_where_the_set_has_no_measure(self, E, data):
        calls = []
        g = IntervalFunction("+inf",
                             span=lambda *key: calls.append(key) or INF)
        key = data.draw(spans(E))
        value = density_kernel(g, E).span(*key)
        if intersect_measure(E, interval(*key)).num == 0:
            assert (repr(value), calls) == ("0.0", [])
        else:
            assert (value, calls) == (INF, [key])

    def test_tiny_span_inside_the_set(self):
        # float(m) and float(mI) both underflow to 0.0 at 2^-1100; the
        # body before the integer ratio divided them
        E = MeasurableSet.from_spans([(ZERO, ONE)])
        iv = Interval(Dyadic(1, 1100), Dyadic(2, 1100))
        assert density_kernel(length_fn(), E)(iv) == 0.0
        one = IntervalFunction("one", span=lambda a, b, ex, lc, rc: 1.0)
        assert density_kernel(one, E)(iv) == 1.0
        half = MeasurableSet.from_spans([(Dyadic(3, 1101), ONE)])
        assert density_kernel(one, half)(iv) == 0.5
        with pytest.raises(ZeroDivisionError):
            float(intersect_measure(E, iv)) / float(iv.length)


class TestAroundParts:
    @settings(max_examples=400, deadline=None)
    @given(measurable_sets(), st.sampled_from(sorted(G_CHOICES)), st.data())
    def test_parts_equal_interval_bodies(self, E, gname, data):
        g = G_CHOICES[gname]()
        for got, ref in ((around_part(g, E), ref_around_part(g, E)),
                         (complement_part(g, E), ref_complement_part(g, E))):
            for _ in range(3):
                key = data.draw(spans(E))
                assert repr(got.span(*key)) == repr(ref(interval(*key)))
                assert_invariant(got.span, *key)

    @settings(max_examples=200, deadline=None)
    @given(measurable_sets(), st.data())
    def test_shared_endpoint_under_every_bracket_pair(self, E, data):
        if not E.components:
            return
        one = G_CHOICES["one"]()
        gE = around_part(one, E)
        comp = data.draw(st.sampled_from(E.components))
        edge = data.draw(st.sampled_from((comp.lo, comp.hi)))
        d = Dyadic(1, data.draw(st.integers(0, 10)))
        ex = max(edge.exp, d.exp) + data.draw(st.integers(0, 3))
        for lo, hi in ((edge - d, edge), (edge, edge + d)):
            for lc, rc in _VARIANTS:
                key = (lo.num << (ex - lo.exp), hi.num << (ex - hi.exp), ex,
                       lc, rc)
                assert gE.span(*key) == float(E.meets(interval(*key)))


CHAIN_CFG = SearchConfig(e_schedule=tuple(Dyadic(1, k) for k in (2, 3, 4)))


class TestIteratedFunctions:
    """The chain on sets that touch the region only at the origin, where
    origin_indicator puts its unit charge: every term is read off the span
    that ends at 0.  Under "optimize" the upper bounds close that span on 0,
    so it meets E and holds the charge, and the lower bounds open it; the
    iterated upper reads a column's inner upper at its best bracket variant,
    which closes the column on 0.  Under "fixed" every span is [a, b): on
    [-1, 0] the last span misses 0, on [0, 1] the first one holds it."""

    @pytest.mark.parametrize("region, edges, mode, want", [
        ((-4, 0), (0, 2), "optimize", (0.0, 0.0, 1.0, 1.0)),
        ((0, 4), (-2, 0), "optimize", (0.0, 0.0, 1.0, 1.0)),
        ((-4, 0), (0, 2), "fixed", (0.0, 0.0, 0.0, 0.0)),
        ((0, 4), (-2, 0), "fixed", (1.0, 1.0, 1.0, 1.0)),
    ])
    def test_chain_on_a_set_that_touches_the_region_at_the_origin(
            self, region, edges, mode, want):
        E = MeasurableSet([interval(*edges, 2, True, True)])
        got = around_chain_check(
            fixture("origin_indicator").fn, E,
            Region.interval(Dyadic(region[0], 2), Dyadic(region[1], 2)),
            replace(CHAIN_CFG, convention_mode=mode))
        assert (got.lower_around, got.iterated_lower, got.iterated_upper,
                got.upper_around) == want

    def test_inner_searches_only_at_the_read_level(self, monkeypatch):
        # one search per span of the last level's outer candidates that
        # meets E; searching both levels of the schedule took 128
        fx = fixture("origin_indicator")
        inner = []

        def counted(g, region, cfg):
            if region.components != fx.region.components:
                inner.append(str(region))
            return estimate_norm_limits(g, region, cfg)

        monkeypatch.setattr(around_set, "estimate_norm_limits", counted)
        # a set with an open edge at the charged origin
        E = MeasurableSet([interval(-3, 0, 2, True, False),
                           interval(1, 3, 2, True, True)])
        around_chain_check(fx.fn, E, fx.region, CHAIN_CFG)
        assert len(inner) == len(set(inner)) == 91


# ---------------------------------------------------------------------------
# Stieltjes functions and the polynomial key evaluator
# ---------------------------------------------------------------------------

KEYS = st.one_of(st.integers(-(1 << 20), 1 << 20),
                 st.integers(1 << 62, 1 << 64).map(lambda a: a | 1),
                 st.integers(-(1 << 64), -(1 << 62)),
                 st.integers(1 << 1100, 1 << 1102))


class TestKeyFloat:
    @given(KEYS, st.integers(0, 1200), SHIFTS)
    def test_key_float_equals_dyadic_body(self, a, ex, k):
        x = Dyadic(a, ex)
        want = outcome(ref_float, x)
        assert outcome(key_float, a << k, ex + k) == want
        assert outcome(float, x) == want

    def test_reduced_before_rounding(self):
        # 62 bits that round twice through ldexp into a subnormal: a key
        # shifted past 2^62 must still round as its reduced Dyadic does
        n = (1 << 60) + (1 << 9) + (1 << 8) - 1
        assert ldexp(n, -1083) != float(Fraction(n, 1 << 1083))
        assert key_float(n << 3, 1086) == ldexp(n, -1083)
        assert float(Dyadic(n << 3, 1086)) == ldexp(n, -1083)


class TestStieltjes:
    @settings(max_examples=300, deadline=None)
    @given(COEFFS, KEYS, st.integers(0, 1200))
    def test_poly_key_evaluator_equals_point_body(self, coeffs, a, ex):
        # keys past 2^1024 at a small exponent overflow on both paths
        f, ref = poly("p", coeffs), ref_poly(coeffs)
        x = Dyadic(a, ex)
        want = outcome(ref, x)
        assert outcome(f.keyed, a, ex) == want
        assert outcome(f, x) == want
        assert outcome(f.keyed, a << 5, ex + 5) == want

    @settings(max_examples=300, deadline=None)
    @given(COEFFS, st.lists(st.tuples(
        st.sampled_from(("same", "next", "any")), KEYS,
        st.integers(1, 1 << 70), st.integers(0, 1200), st.booleans(),
        st.booleans()), min_size=1, max_size=20))
    def test_stieltjes_equals_interval_body(self, coeffs, steps):
        # spans that repeat the last one, start at its end or anywhere
        g = stieltjes(poly("p", coeffs))
        ref = ref_stieltjes(ref_poly(coeffs))
        a, b = 0, 1
        for kind, k, d, ex, lc, rc in steps:
            if kind != "same":
                a = b if kind == "next" else k
                b = a + d
            iv = interval(a, b, ex, lc, rc)
            assert outcome(g.span, a, b, ex, lc, rc) == outcome(ref, iv)
        assert outcome(g, iv) == outcome(ref, iv)
        for k in (1, 7, 64):
            assert outcome(g.span, a << k, b << k, ex + k, lc, rc) == outcome(
                ref, iv)

    def test_default_key_evaluator_builds_the_point(self):
        seen = []
        f = PointFunction("id", lambda x: seen.append(x) or 0.5)
        assert f.keyed(12, 5) == 0.5
        assert seen == [Dyadic(3, 3)]


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------

# point functions with a key evaluator, and one built on the point body
POINT_FUNCTIONS = st.one_of(
    COEFFS.map(lambda cs: poly("p", cs)),
    COEFFS.map(lambda cs: PointFunction("q", ref_poly(cs))),
    st.builds(lambda k, j: step(Dyadic(k, 3), jump=j), st.integers(-8, 8),
              st.sampled_from((1.0, -0.5))))
NO_SET = MeasurableSet([])
# the jump fixture's singular ends 0 and 2^-r, 2^0 = 1 and any other point
JUMP_POINTS = st.one_of(st.just(ZERO), st.builds(pow2, st.integers(0, 12)),
                        st.builds(Dyadic, st.integers(-48, 48),
                                  st.integers(0, 12)))


def assert_span_equals_body(g, ref, a, b, ex):
    """g.span and g on the Interval equal the body, for every bracket pair
    and at exponents above the keys' own."""
    for lc, rc in _VARIANTS:
        iv = interval(a, b, ex, lc, rc)
        want = outcome(ref, iv)
        assert outcome(g.span, a, b, ex, lc, rc) == want
        assert outcome(g, iv) == want
        assert outcome(g.span, a << 9, b << 9, ex + 9, lc, rc) == want


class TestCombinators:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(G_CHOICES)), st.sampled_from(sorted(G_CHOICES)),
           st.floats(-4, 4, allow_nan=False), spans(NO_SET))
    def test_scale_and_add_equal_interval_bodies(self, n1, n2, c, span):
        a, b, ex, _, _ = span
        g1, g2 = G_CHOICES[n1](), G_CHOICES[n2]()
        assert_span_equals_body(scale_fn(c, g1), ref_scale(c, g1), a, b, ex)
        assert_span_equals_body(add_fn(g1, g2), ref_add(g1, g2), a, b, ex)

    @settings(max_examples=300, deadline=None)
    @given(POINT_FUNCTIONS, POINT_FUNCTIONS, spans(NO_SET))
    def test_hellinger_equals_interval_body(self, f, h, span):
        a, b, ex, _, _ = span
        assert_span_equals_body(hellinger(f, h), ref_hellinger(f, h), a, b,
                                ex)

    @settings(max_examples=300, deadline=None)
    @given(JUMP_POINTS, JUMP_POINTS, st.integers(0, 12))
    def test_locked_jump_equals_rewritten_brackets(self, lo, hi, pad):
        if lo == hi:
            return
        lo, hi = dmin(lo, hi), dmax(lo, hi)
        ex = max(lo.exp, hi.exp) + pad
        assert_span_equals_body(k_jump_locked_function(), ref_k_jump_locked,
                                lo.num << (ex - lo.exp),
                                hi.num << (ex - hi.exp), ex)


# ---------------------------------------------------------------------------
# Planar cells
# ---------------------------------------------------------------------------

@st.composite
def cells(draw):
    """Integer cells at an exponent ex: charged squares and strips near
    the fixtures' anchors and any other cell, keys shifted by SHIFTS."""
    k = draw(st.integers(0, 7))
    side = 1 << (12 - k)                             # 2^-k at exponent 12
    kind = draw(st.sampled_from(("square", "strip", "any")))
    if kind == "square":
        cx = draw(st.sampled_from((1 << 10, 3 << 10, 1 << 11)))
        x0, y0 = cx - side // 2, (1 << 11) - side // 2
        x1, y1 = x0 + side, y0 + side + draw(st.sampled_from((0, 0, 1)))
    elif kind == "strip":
        x0 = draw(st.integers(0, 1 << 12))
        x1 = x0 + draw(st.integers(1, 1 << 12))
        y0, y1 = draw(st.sampled_from((0, 0, 1))), side
    else:
        scale = 12 - draw(st.integers(0, 4))
        x0, y0 = draw(st.integers(-64, 64)), draw(st.integers(-64, 64))
        x1, y1 = x0 + draw(st.integers(1, 64)), y0 + draw(st.integers(1, 64))
        x0, x1, y0, y1 = (v << scale for v in (x0, x1, y0, y1))
    shift = draw(SHIFTS)
    return tuple(v << shift for v in (x0, x1, y0, y1)) + (12 + shift,)


def rect(x0, x1, y0, y1, ex, xb, yb):
    return Rect(interval(x0, x1, ex, *xb), interval(y0, y1, ex, *yb))


PLANE = {
    "two_squares": (two_squares_function, lambda: ref_two_squares),
    "bottom_strips": (bottom_strips_function, lambda: ref_bottom_strips),
    "product": (lambda: product_function(G_CHOICES["cubic"](),
                                         fixture("origin_indicator").fn),
                lambda: ref_product(G_CHOICES["cubic"](),
                                    fixture("origin_indicator").fn)),
    "area": (area_function, lambda: ref_area),
    # a func-only function: its cell is the adapter that builds the Rect
    "area_func": (lambda: RectFunction("mT", ref_area,
                                       bracket_independent=True),
                  lambda: ref_area),
}


class TestPlanarCells:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(PLANE)), cells())
    def test_cell_equals_rect_body(self, name, cell):
        make, make_ref = PLANE[name]
        gT, ref = make(), make_ref()
        *keys, ex = cell
        for xb in _VARIANTS:
            for yb in _VARIANTS:
                want = repr(ref(rect(*keys, ex, xb, yb)))
                assert repr(gT.cell(*keys, ex, xb, yb)) == want
                assert repr(gT(rect(*keys, ex, xb, yb))) == want
                assert repr(gT.cell(*(k << 3 for k in keys), ex + 3, xb,
                                    yb)) == want

    def test_charged_cells(self):
        sq, strips = two_squares_function(), bottom_strips_function()
        q = Dyadic(1, 4)
        on = (True, True)
        assert sq(closed_rect(Dyadic(1, 2) - q.half(), Dyadic(1, 2) + q.half(),
                              Dyadic(1, 1) - q.half(),
                              Dyadic(1, 1) + q.half())) == 1.0
        assert sq.cell(5, 7, 7, 9, 4, on, on) == 0.0     # side 2^-3 at 1/4
        assert sq.cell(11, 13, 7, 9, 4, on, on) == 1.0   # side 2^-3 at 3/4
        assert strips.cell(0, 8, 0, 4, 4, on, on) == 0.5
        assert strips.cell(8, 16, 0, 2, 4, on, on) == 0.5

    def test_needs_func_or_cell(self):
        with pytest.raises(ValueError):
            RectFunction("nothing")


# ---------------------------------------------------------------------------
# Guard: the measure searches stay on keys
# ---------------------------------------------------------------------------

def _refuse(*args):
    raise AssertionError("evaluated on an Interval or a Rect")


def test_measure_searches_build_no_interval_or_rect(monkeypatch):
    monkeypatch.setattr(IntervalFunction, "_to_span", _refuse)
    monkeypatch.setattr(IntervalFunction, "__call__", _refuse)
    monkeypatch.setattr(RectFunction, "__call__", _refuse)
    monkeypatch.setattr(RectFunction, "_to_cell", _refuse)
    cubic = stieltjes(poly("x^3-x", [0, -1, 0, 1]))
    E = MeasurableSet.from_spans([(Dyadic(3, 4), Dyadic(5, 3)),
                                  (Dyadic(13, 4), ONE)])
    short = SearchConfig(e_schedule=tuple(Dyadic(1, k) for k in range(3, 8)))
    density_integral(cubic, E, UNIT, short)
    fx = fixture("density_left_limit")
    companion = MeasurableSet(list(fx.companion_sets["oscillating_blocks"]))
    density_integral(fx.fn, companion, fx.region, short)
    around_chain_check(cubic, E, UNIT, short)
    unit = closed_rect(ZERO, ONE, ZERO, ONE)
    cfg = planar_config(e_schedule=(Dyadic(1, 3), Dyadic(1, 4)))
    product = product_function(cubic, stieltjes(poly("y^2", [0, 0, 1])))
    for gT in (two_squares_function(), bottom_strips_function(), product,
               area_function()):
        for mode in ("restricted", "extended"):
            estimate_norm_limits_2d(gT, unit, mode, cfg)
    # Fubini's columns evaluate gT through its cell, and criterion 6 builds
    # its functions with cells
    fubini_chain(product, unit, SearchConfig(e_schedule=(Dyadic(1, 2),)))
    assert check_6_fubini().passed
    is_absolutely_continuous(cantor_staircase_function()[0], UNIT, short)
    is_absolutely_continuous(length_fn(), UNIT, short)
    # the combinators, and criterion 3's k search on the locked jump
    x, x2 = poly("x", [0, 1]), poly("x^2", [0, 0, 1])
    for g in (scale_fn(-2.0, cubic), add_fn(cubic, length_fn()),
              hellinger(x2, x)):
        estimate_norm_limits(g, UNIT, short)
        variation(g, UNIT, short)
    assert check_3_k_convention().passed
