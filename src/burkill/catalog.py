"""Interval functions and the registry of worked example fixtures.

An IntervalFunction is a pure map from bracketed intervals to extended
reals, with declared flags (additive, bracket-independent, continuous) and
a hint map of special points where its extremal divisions concentrate.
Each fixture couples one function with a region and the values the search
is expected to reproduce; every expected value carries either a derivation
oracle name or a construction note.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import reduce
from itertools import compress
from math import ldexp
from operator import add, ne, or_
from typing import Callable, Optional, Sequence

from .core import (
    Dyadic,
    Interval,
    Region,
    ZERO,
    floor_log2,
    key_float,
)
from .errors import IndeterminateForm, UnknownFixture

INF = float("inf")


def xsum(values) -> float:
    """Extended-real sum, added left to right; +inf and -inf together raise
    IndeterminateForm."""
    if not isinstance(values, list):
        values = list(values)
    # a finite total means no value was infinite or NaN; not the builtin sum,
    # which compensates from Python 3.12 on and so rounds differently
    total = reduce(add, values, 0.0)
    if -INF < total < INF:
        return total
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


def pow2(k: int) -> Dyadic:
    """2**(-k) as an exact dyadic."""
    return Dyadic(1, k) if k >= 0 else Dyadic(1 << -k, 0)


class PointFunction:
    """A pure real function of a dyadic point.

    keyed(a, ex) is f at a/2^ex; by default f(Dyadic(a, ex)).
    """

    def __init__(self, name: str, func: Callable[[Dyadic], float],
                 continuous: bool = True,
                 keyed: Optional[Callable[[int, int], float]] = None):
        self.name = name
        self._func = func
        self.continuous = continuous
        self.keyed = keyed or (lambda a, ex: func(Dyadic(a, ex)))

    def __call__(self, x: Dyadic) -> float:
        return self._func(x)


class IntervalFunction:
    """Pure evaluation contract g(Interval) -> extended real.

    span is g on integer endpoints: span(a, b, ex, left_closed,
    right_closed) evaluates g over a/2^ex .. b/2^ex, a < b, for any ex >= 0
    that holds both ends.  Searches evaluate g only through it.  A function
    given only span is called through it, and one given only func answers
    span through an adapter that builds the Interval from the keys.

    The special_points callback returns dyadic hint points for divisions
    of norm below `resolution`; searches read them as keys through
    special_keys, and special_points maps those keys to Dyadics.  The
    singular_schedule callback enumerates permanent points (with an
    optional locked junction convention) used to extend a seed list as the
    norm bound shrinks.
    """

    def __init__(
        self,
        name: str,
        func: Optional[Callable[[Interval], float]] = None,
        *,
        span: Optional[Callable[[int, int, int, bool, bool], float]] = None,
        additive: bool = False,
        bracket_independent: bool = False,
        continuous: bool = False,
        special_points: Optional[Callable[[Region, Dyadic], list[Dyadic]]] = None,
        singular_schedule: Optional[
            Callable[[Region, Dyadic], list[tuple[Dyadic, Optional[tuple[bool, bool]]]]]
        ] = None,
    ):
        self.name = name
        if func is None and span is None:
            raise ValueError(f"{name} needs func or span")
        self._func = func or self._from_span
        self.span = span or self._to_span
        self._ends = (None,) * 5         # the adapter's last keys and ends
        self.additive = additive
        self.bracket_independent = bracket_independent
        self.continuous = continuous
        self._special = special_points
        self._schedule = singular_schedule

    def __call__(self, interval: Interval) -> float:
        return self._func(interval)

    def _from_span(self, iv: Interval) -> float:
        lo, hi = iv.lo, iv.hi
        ex = max(lo.exp, hi.exp)
        return self.span(lo.num << (ex - lo.exp), hi.num << (ex - hi.exp), ex,
                         iv.left_closed, iv.right_closed)

    def _to_span(self, a: int, b: int, ex: int, lc: bool, rc: bool) -> float:
        # searches score a candidate's spans in order, so a span mostly
        # repeats the last one or starts at its end: reuse those Dyadics
        last_a, last_b, last_ex, lo, hi = self._ends
        if b != last_b or a != last_a or ex != last_ex:
            lo = hi if a == last_b and ex == last_ex else Dyadic(a, ex)
            hi = Dyadic(b, ex)
            self._ends = (a, b, ex, lo, hi)
        return self._func(Interval.raw(lo, hi, lc, rc))

    def special_keys(self, region: Region,
                     resolution: Dyadic) -> tuple[list[int], int]:
        """The special points in the region as sorted distinct integer keys,
        and the smallest exponent that holds them (0 when there are none)."""
        if self._special is None:
            return [], 0
        keys, comps, ex = _point_keys(region, list(self._special(
            region, resolution)))
        # sorted and de-duplicated without hashing the keys: the hashes of
        # powers of two take only 61 values
        keys.sort()
        keys = list(compress(keys, [True, *map(ne, keys[1:], keys)]))
        keys = [k for lo, hi in comps
                for k in keys[bisect_left(keys, lo):bisect_right(keys, hi)]]
        low = reduce(or_, keys, 0)           # its lowest bit is the shift
        shift = min(ex, (low & -low).bit_length() - 1) if low else ex
        return [k >> shift for k in keys] if shift else keys, ex - shift

    def special_points(self, region: Region,
                       resolution: Dyadic) -> list[Dyadic]:
        keys, ex = self.special_keys(region, resolution)
        return [Dyadic(k, ex) for k in keys]

    def singular_schedule(self, region: Region, resolution: Dyadic):
        if self._schedule is None:
            return []
        sched = list(self._schedule(region, resolution))
        keys, comps, _ = _point_keys(region, [p for p, _ in sched])
        return [s for s, k in zip(sched, keys)
                if any(lo <= k <= hi for lo, hi in comps)]


def _point_keys(region: Region, points: list[Dyadic]):
    """The points' keys and the region's component keys at one exponent,
    and that exponent."""
    ex = max((p.exp for p in (*points, *region.endpoints())), default=0)
    return ([p.num << (ex - p.exp) for p in points],
            [(lo.num << (ex - lo.exp), hi.num << (ex - hi.exp))
             for lo, hi in region.components], ex)


def stieltjes(f: PointFunction) -> IntervalFunction:
    """The endpoint difference f(hi) - f(lo); additive, bracket-free."""
    keyed = f.keyed

    def span(a: int, b: int, ex: int, lc: bool, rc: bool) -> float:
        return keyed(b, ex) - keyed(a, ex)

    return IntervalFunction(
        f"S({f.name})",
        span=span,
        additive=True,
        bracket_independent=True,
        continuous=f.continuous,
    )


def abs_fn(g: IntervalFunction) -> IntervalFunction:
    span = g.span
    return IntervalFunction(
        f"|{g.name}|",
        span=lambda a, b, ex, lc, rc: abs(span(a, b, ex, lc, rc)),
        bracket_independent=g.bracket_independent,
        continuous=g.continuous,
        special_points=g._special,
        singular_schedule=g._schedule,
    )


def scale_fn(c: float, g: IntervalFunction) -> IntervalFunction:
    span = g.span
    return IntervalFunction(
        f"{c}*{g.name}",
        span=lambda a, b, ex, lc, rc: c * span(a, b, ex, lc, rc),
        additive=g.additive,
        bracket_independent=g.bracket_independent,
        continuous=g.continuous,
        special_points=g._special,
        singular_schedule=g._schedule,
    )


def add_fn(g1: IntervalFunction, g2: IntervalFunction) -> IntervalFunction:
    def union_specials(region, resolution):
        return g1.special_points(region, resolution) + g2.special_points(
            region, resolution)

    s1, s2 = g1.span, g2.span
    return IntervalFunction(
        f"{g1.name}+{g2.name}",
        span=lambda a, b, ex, lc, rc: (s1(a, b, ex, lc, rc)
                                       + s2(a, b, ex, lc, rc)),
        additive=g1.additive and g2.additive,
        bracket_independent=g1.bracket_independent and g2.bracket_independent,
        continuous=g1.continuous and g2.continuous,
        special_points=union_specials,
    )


def length_fn() -> IntervalFunction:
    return IntervalFunction(
        "mI",
        span=lambda a, b, ex, lc, rc: key_float(b - a, ex),
        additive=True,
        bracket_independent=True,
        continuous=True,
    )


def hellinger(f: PointFunction, h: PointFunction) -> IntervalFunction:
    """S(f;I)**2 / S(h;I) for strictly increasing h."""
    fk, hk = f.keyed, h.keyed

    def span(a: int, b: int, ex: int, lc: bool, rc: bool) -> float:
        d = hk(b, ex) - hk(a, ex)
        s = fk(b, ex) - fk(a, ex)
        return s * s / d

    return IntervalFunction(f"S({f.name})^2/S({h.name})", span=span,
                            bracket_independent=True)


# ---------------------------------------------------------------------------
# Point functions used by fixtures and tests
# ---------------------------------------------------------------------------

def poly(name: str, coeffs: Sequence[float]) -> PointFunction:
    """Polynomial sum(c_k x^k)."""
    cs = tuple(float(c) for c in coeffs)

    def keyed(a: int, ex: int) -> float:
        t = key_float(a, ex)
        acc = 0.0
        for c in reversed(cs):
            acc = acc * t + c
        return acc

    return PointFunction(name, lambda x: keyed(x.num, x.exp), keyed=keyed)


def _zigzag(a: int, ex: int) -> float:
    """The zigzag on [0,1) at a/2^ex: 0 at 1-2^-2n, 1 at 1-2^-2n-1, linear
    between."""
    d = (1 << ex) - a                    # (1 - x) * 2^ex
    if a < 0 or d <= 0:
        raise ValueError(f"argument {Dyadic(a, ex)} outside [0,1)")
    s = d.bit_length()
    m = ex - s                           # 2^-m-1 <= 1 - x < 2^-m
    u = ((1 << s) - d) * 2 / (1 << s)    # 2 * (1 - (1 - x) * 2^m), rounded once
    return u if m % 2 == 0 else 1.0 - u


def _harmonic_zigzag(k: int, ex: int) -> float:
    """The zigzag on (0,1] at k/2^ex: 0 at 1/(2n), 1 at 1/(2n+1), linear
    between."""
    if k <= 0 or k > 1 << ex:
        raise ValueError(f"argument {Dyadic(k, ex)} outside (0,1]")
    m, r = divmod(1 << ex, k)
    if r == 0:                           # exactly 1/m
        return float(m % 2)
    # 1/(m+1) < x < 1/m: u = (x - 1/(m+1)) / (1/m - 1/(m+1)), rounded once
    u = (m * (m + 1) * k - (m << ex)) / (1 << ex)
    return u if m % 2 else 1.0 - u


def cantor_staircase_12() -> tuple[PointFunction, list[tuple[Dyadic, Dyadic]]]:
    """Depth-12 singular staircase with dyadic breakpoints.

    The middle-thirds construction is carried exactly in integers over the
    denominator 3^12 and each depth-12 breakpoint is rounded outward to the
    2^-32 grid, so the 4096 rise intervals have exact dyadic endpoints with
    total measure just above (2/3)^12.  Returns the function and the rise
    intervals.
    """
    depth, grid = 12, 32
    den = 3 ** depth
    segs = [(0, den)]
    for _ in range(depth):
        nxt = []
        for a, b in segs:
            w = (b - a) // 3
            nxt.append((a, a + w))
            nxt.append((b - w, b))
        segs = nxt
    # breakpoints as integers on the 2^-32 grid, rounded outward
    starts = [(a << grid) // den for a, _ in segs]
    ends = [-((-b << grid) // den) for _, b in segs]
    spans = [(Dyadic(a, grid), Dyadic(b, grid)) for a, b in zip(starts, ends)]
    rise = 1 << depth
    last = len(spans) - 1

    def keyed(k: int, ex: int) -> float:
        # x = k/2^ex and the breakpoints as integers at one exponent e >= grid
        e = max(grid, ex)
        shift = e - grid
        xi = k << (e - ex)
        if xi <= starts[0] << shift:
            return 0.0
        if xi >= ends[last] << shift:
            return 1.0
        i = bisect_right(starts, xi >> shift) - 1   # last span with a <= x
        a, b = starts[i] << shift, ends[i] << shift
        if xi >= b:
            return (i + 1) / rise
        # (i + (x - a) / (b - a)) / 2^12, correctly rounded
        return (i * (b - a) + xi - a) / (rise * (b - a))

    return PointFunction("staircase12", lambda x: keyed(x.num, x.exp),
                         keyed=keyed), spans


# ---------------------------------------------------------------------------
# Fixture registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expectation:
    quantity: str
    value: float
    cite: str  # oracle name or construction note


@dataclass(frozen=True)
class Fixture:
    name: str
    fn: IntervalFunction
    region: Region
    expected: tuple[Expectation, ...] = ()
    permanent: tuple[tuple[Dyadic, Optional[tuple[bool, bool]]], ...] = ()
    scan_points: tuple[Dyadic, ...] = ()
    companion_sets: dict = field(default_factory=dict)

    def manifest(self) -> dict:
        return {
            "name": self.name,
            "region": [(lo.serialize(), hi.serialize())
                       for lo, hi in self.region.components],
            "expected": [{"quantity": e.quantity, "value": e.value,
                          "cite": e.cite} for e in self.expected],
            "special_points": [p.serialize() for p in
                               self.fn.special_points(
                                   self.region, Dyadic(1, 8))],
        }


def _resolution_index(resolution: Dyadic) -> int:
    """j with 2^-j <= resolution, clamped to a sane range."""
    j = max(1, -floor_log2(resolution))
    return min(j, 64)


def _two_piece_zigzag() -> IntervalFunction:
    """Endpoint difference of the zigzag on [0,1) plus a unit charge on the
    symmetric spans [1-2^-2n, 1+2^-2n]; zero elsewhere on [0,2].

    The upper norm-limit is 1 over [0,1] and over [0,2] but 0 over [1,2],
    and splitting any symmetric span at 1 loses exactly 1.
    """
    one, two = Dyadic(1), Dyadic(2)

    def span(a: int, b: int, ex: int, lc: bool, rc: bool) -> float:
        unit = 1 << ex
        if 0 <= a and b < unit:
            return _zigzag(b, ex) - _zigzag(a, ex)
        d = b - unit                     # 1 - lo == hi - 1 == 2^-2n, n >= 0
        if (0 < d <= unit and d & (d - 1) == 0 and unit - a == d
                and (ex - d.bit_length()) % 2):
            return 1.0
        return 0.0

    def specials(region: Region, resolution: Dyadic) -> list[Dyadic]:
        j = _resolution_index(resolution)
        n_odd = j + 1 if (j + 1) % 2 == 1 else j + 2
        pts = [one - pow2(n) for n in range(1, n_odd + 1)]
        n0 = (j + 3) // 2
        for n in (n0, n0 + 1):
            pts.append(one - pow2(2 * n))
            pts.append(one + pow2(2 * n))
        pts.extend([ZERO, two])
        return pts

    return IntervalFunction(
        "two_piece_zigzag", span=span, bracket_independent=True,
        special_points=specials)


def _origin_indicator() -> IntervalFunction:
    """Additive unit charge at the origin: 1 exactly when 0 is in I."""
    def span(a: int, b: int, ex: int, lc: bool, rc: bool) -> float:
        if a < 0 < b or (a == 0 and lc) or (b == 0 and rc):
            return 1.0
        return 0.0

    def specials(region: Region, resolution: Dyadic) -> list[Dyadic]:
        j = _resolution_index(resolution)
        return [ZERO, -pow2(j + 1), pow2(j + 1)]

    return IntervalFunction("origin_indicator", span=span, additive=True,
                            special_points=specials)


def _osc_left_limit() -> IntervalFunction:
    """Zigzag difference, active only on steep-left intervals.

    g is the endpoint difference of the harmonic zigzag when the left end
    is positive and the length is below its cube, else 0.  Extremal
    divisions telescope from a dyadic zero of the zigzag upward, so the
    upper estimate over (0,x) lands on the zigzag value at x.
    """
    def span(a: int, b: int, ex: int, lc: bool, rc: bool) -> float:
        # (b - a) / 2^ex < (a / 2^ex)^3
        if a > 0 and (b - a) << (ex << 1) < a * a * a:
            return _harmonic_zigzag(b, ex) - _harmonic_zigzag(a, ex)
        return 0.0

    def specials(region: Region, resolution: Dyadic) -> list[Dyadic]:
        j = _resolution_index(resolution)
        top = region.components[-1][1]
        k = -(-j // 3) + 1                       # zero point 2^-k
        z = pow2(k)
        if not z < top:
            return []
        pts = []
        cap = pow2(j + 1)                        # stay under the norm bound
        p = z
        while p < top:                           # counted chain above z
            pts.append(p)
            cube = p * p * p
            step = pow2(-floor_log2(cube) + 1)   # half the cube, rounded
            p = p + (step if step < cap else cap)
        down = Dyadic(63, j + 6)                 # broken chain below z
        p = z - down
        while p.num > 0:
            pts.append(p)
            p = p - down
        return pts

    return IntervalFunction("osc_left_limit", span=span,
                            bracket_independent=True,
                            continuous=True, special_points=specials)


def _k_convention_jump() -> IntervalFunction:
    """Point masses 2^-r plus a unit bonus on closed spans [0, 2^-r].

    The point-mass part sums the masses of the points of I, with endpoint
    membership decided by brackets; the bonus rewards the closed interval
    from 0 to a mass point.  Geometric tails are summed in closed form so
    evaluation is exact.
    """
    def span(a: int, b: int, ex: int, lc: bool, rc: bool) -> float:
        if b <= 0:
            return 0.0
        total = 0.0
        hi_pow2 = b & (b - 1) == 0
        hi_mass = hi_pow2 and b < 1 << ex        # hi is 2^-r, r >= 1
        # smallest r >= 1 with 2^-r strictly below hi
        r_min = max(1, ex - b.bit_length() + 1 + hi_pow2)
        if a <= 0:
            total += ldexp(1.0, 1 - r_min)       # full tail sum
        else:
            r_max = ex - a.bit_length()          # largest r with 2^-r > lo
            if r_max >= r_min:
                total += ldexp(1.0, 1 - r_min) - ldexp(1.0, -r_max)
            if lc and a & (a - 1) == 0 and a < 1 << ex:
                total += ldexp(1.0, a.bit_length() - 1 - ex)
        if rc and hi_mass:
            total += ldexp(1.0, b.bit_length() - 1 - ex)
        bonus = 1.0 if a == 0 and lc and rc and hi_mass else 0.0
        return total + bonus

    def specials(region: Region, resolution: Dyadic) -> list[Dyadic]:
        j = _resolution_index(resolution)
        return [ZERO] + [pow2(r) for r in range(1, 2 * j + 7)]

    def schedule(region: Region, resolution: Dyadic):
        j = _resolution_index(resolution)
        lock = (False, True)                     # ")[" convention
        out = [(ZERO, lock)]
        out.extend((pow2(r), lock) for r in range(1, max(10, 2 * j) + 1))
        return out

    return IntervalFunction("k_convention_jump", span=span,
                            special_points=specials,
                            singular_schedule=schedule)


def _k_singular(k: int, ex: int) -> bool:
    """Whether k/2^ex lies in the jump fixture's singular set {0, 2^-r},
    r >= 1."""
    return k == 0 or (0 < k < 1 << ex and k & (k - 1) == 0)


def k_jump_locked_function() -> IntervalFunction:
    """The jump fixture evaluated through the locked convention: every end
    lying in the singular set is rewritten to ")[" before evaluation."""
    base = _k_convention_jump()
    span = base.span

    def locked(a: int, b: int, ex: int, lc: bool, rc: bool) -> float:
        return span(a, b, ex, lc or _k_singular(a, ex),
                    rc and not _k_singular(b, ex))

    return IntervalFunction(
        "k_convention_jump_locked",
        span=locked,
        bracket_independent=True,
        special_points=base._special,
        singular_schedule=base._schedule,
    )


_STAIRCASE_CACHE: list = []


def cantor_staircase_function() -> tuple[IntervalFunction, list]:
    """Endpoint difference of the depth-12 singular staircase.

    The rise intervals' breakpoints are the special points, so pack
    searches can concentrate on the carrier of the variation.
    """
    if not _STAIRCASE_CACHE:
        f, spans = cantor_staircase_12()
        # the rise intervals are disjoint and in order, so their endpoints
        # are already sorted and distinct
        pts = [p for s in spans for p in s]

        def specials(region, resolution):
            return list(pts)

        g = IntervalFunction(
            "S(staircase12)",
            span=stieltjes(f).span,
            additive=True,
            bracket_independent=True,
            continuous=True,
            special_points=specials,
        )
        _STAIRCASE_CACHE.append((g, spans))
    return _STAIRCASE_CACHE[0]


def _m_power_singularity() -> IntervalFunction:
    """Unit value on symmetric spans [-2^-i, 2^-i]; zero elsewhere.

    Splitting a charged span at the origin loses the unit, so the origin is
    an additivity singularity with defect 1 while no single shrinking
    interval at 0 carries any value.
    """
    def span(a: int, b: int, ex: int, lc: bool, rc: bool) -> float:
        if a == -b and b & (b - 1) == 0 and b <= 1 << ex:
            return 1.0
        return 0.0

    def specials(region: Region, resolution: Dyadic) -> list[Dyadic]:
        j = _resolution_index(resolution)
        pts = []
        for i in range(0, j + 3):
            pts.append(pow2(i))
            pts.append(-pow2(i))
        return pts

    def schedule(region: Region, resolution: Dyadic):
        return [(ZERO, None)]                    # all conventions at 0

    return IntervalFunction("m_power_singularity", span=span,
                            bracket_independent=True,
                            special_points=specials,
                            singular_schedule=schedule)


def _dyadic_blocks() -> IntervalFunction:
    """Unit value on each span [2^-n, 2^-n+1]; zero elsewhere.

    Divisions can stack arbitrarily many charged blocks near 0, so the
    variation diverges there, yet no interval containing 0 carries value.
    """
    def span(a: int, b: int, ex: int, lc: bool, rc: bool) -> float:
        if b == a << 1 and 0 < a < 1 << ex and a & (a - 1) == 0:
            return 1.0
        return 0.0

    def specials(region: Region, resolution: Dyadic) -> list[Dyadic]:
        j = _resolution_index(resolution)
        n_cap = 8 << max(0, j - 3)               # doubles per level
        return [pow2(n) for n in range(0, n_cap + 1)]

    return IntervalFunction("dyadic_blocks", span=span,
                            bracket_independent=True,
                            special_points=specials)


# Left-accumulating blocks with razor-thin density gaps at the origin.
_DENSITY_BLOCK_EXPONENTS = [(13, 45), (88, 120), (163, 195)]


def _density_left_limit() -> IntervalFunction:
    """Value a=1 exactly on intervals whose span ends at 0 from the left."""
    def span(a: int, b: int, ex: int, lc: bool, rc: bool) -> float:
        return 1.0 if b == 0 else 0.0

    def specials(region: Region, resolution: Dyadic) -> list[Dyadic]:
        pts = []
        for a, b in _DENSITY_BLOCK_EXPONENTS:
            pts.extend([-pow2(a), -pow2(b)])
        pts.extend([pow2(13), pow2(45)])         # bound the gap, avoid 0
        return pts

    return IntervalFunction("density_left_limit", span=span,
                            bracket_independent=True,
                            special_points=specials)


def density_companion_set() -> tuple[Interval, ...]:
    """The measurable set with oscillating left density at the origin."""
    return tuple(Interval(-pow2(a), -pow2(b), True, True)
                 for a, b in _DENSITY_BLOCK_EXPONENTS)


def _builders() -> dict:
    one, two = Dyadic(1), Dyadic(2)

    def saks() -> Fixture:
        return Fixture(
            name="saks_A_counterexample",
            fn=_two_piece_zigzag(),
            region=Region.interval(ZERO, two),
            expected=(
                Expectation("upper_norm_limit[0,1]", 1.0,
                            "telescoping to the deepest zigzag peak"),
                Expectation("upper_norm_limit[1,2]", 0.0,
                            "all evaluations vanish right of 1"),
                Expectation("upper_norm_limit[0,2]", 1.0,
                            "peak route and charged-span route agree"),
                Expectation("additivity_defect@1", 1.0,
                            "splitting a charged span at 1"),
            ),
            scan_points=(one,),
        )

    def origin() -> Fixture:
        return Fixture(
            name="origin_indicator",
            fn=_origin_indicator(),
            region=Region.interval(-one, one),
            expected=(
                Expectation("lower_norm_limit", 0.0,
                            "both-open junction at 0 omits the charge"),
                Expectation("upper_norm_limit", 2.0,
                            "oracle:exhaustive-bracket-enumeration"),
            ),
            scan_points=(ZERO,),
        )

    def osc() -> Fixture:
        return Fixture(
            name="osc_left_limit",
            fn=_osc_left_limit(),
            region=Region.interval(ZERO, Dyadic(3, 2)),
            expected=(
                Expectation("upper_norm_limit[0,3/4]", 0.5,
                            "zigzag value at 3/4; chain starts at a zero"),
            ),
            scan_points=(ZERO,),
        )

    def kjump() -> Fixture:
        lock = (False, True)
        perms = tuple([(ZERO, lock)] + [(pow2(r), lock) for r in range(1, 11)])
        return Fixture(
            name="k_convention_jump",
            fn=_k_convention_jump(),
            region=Region.interval(ZERO, one),
            expected=(
                Expectation("upper_k_limit", 2.0,
                            "mass sum 1 plus the closed-span bonus"),
                Expectation("locked_k_limit", 1.0,
                            "convention kills the bonus and doubling"),
            ),
            permanent=perms,
            scan_points=(pow2(1), pow2(2)),
        )

    def mpower() -> Fixture:
        return Fixture(
            name="m_power_singularity",
            fn=_m_power_singularity(),
            region=Region.interval(-one, one),
            expected=(
                Expectation("defect_c@0", 1.0,
                            "split any charged symmetric span at 0"),
            ),
            permanent=((ZERO, None),),
            scan_points=(ZERO,),
        )

    def blocks() -> Fixture:
        return Fixture(
            name="dyadic_blocks",
            fn=_dyadic_blocks(),
            region=Region.interval(-one, one),
            expected=(
                Expectation("variation", INF, "block stacking is unbounded"),
                Expectation("j@0", INF, "blocks accumulate at 0"),
                Expectation("defect_c@0", 0.0,
                            "no interval containing 0 is charged"),
            ),
            scan_points=(ZERO,),
        )

    def density() -> Fixture:
        return Fixture(
            name="density_left_limit",
            fn=_density_left_limit(),
            region=Region.interval(-one, one),
            expected=(
                Expectation("upper_density", 1.0,
                            "left density of the block set approaches 1"),
                Expectation("lower_density", 0.0,
                            "divisions without 0 as a point see nothing"),
            ),
            companion_sets={"oscillating_blocks": density_companion_set()},
            scan_points=(ZERO,),
        )

    return {
        "saks_A_counterexample": saks,
        "origin_indicator": origin,
        "osc_left_limit": osc,
        "k_convention_jump": kjump,
        "m_power_singularity": mpower,
        "dyadic_blocks": blocks,
        "density_left_limit": density,
    }


_BUILDERS = _builders()
_CACHE: dict[str, Fixture] = {}


def fixture_names() -> list[str]:
    return sorted(_BUILDERS)


def fixture(name: str) -> Fixture:
    if name not in _BUILDERS:
        raise UnknownFixture(f"no fixture named {name!r}")
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name]
