"""Exact interval, region and division arithmetic with bracket conventions.

Endpoints are dyadic rationals (num / 2**exp) so that membership, abutment
and special-point matching are decided exactly.  A bracketed interval keeps
one closed/open flag per side, giving the four variants (a,b), [a,b], [a,b)
and (a,b] over each span.  Regions are stored as closures: abutting or
overlapping components are merged, matching the convention of forming
divisions over the closure of an interval sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import ldexp
from typing import Iterable, Iterator, Sequence

from .errors import (
    BudgetExceeded,
    DegenerateInterval,
    NotContained,
    PointOutsideRegion,
    UnsortedPoints,
)


def key_float(a: int, ex: int) -> float:
    """a/2^ex, ex >= 0, as a float: ldexp below 2^62, else the quotient
    rounded once.  A larger key is first reduced as Dyadic(a, ex) reduces
    it, so key_float(a, ex) == float(Dyadic(a, ex)) for every key."""
    if -(1 << 62) < a < 1 << 62:
        return ldexp(a, -ex)
    q = Fraction(a, 1 << ex)
    n = q.numerator
    if -(1 << 62) < n < 1 << 62:
        return ldexp(n, 1 - q.denominator.bit_length())
    return float(q)


class Dyadic:
    """A rational number num / 2**exp in canonical form (num odd or exp 0)."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int, exp: int = 0):
        if exp < 0:
            num <<= -exp
            exp = 0
        elif exp and num:
            trailing = (num & -num).bit_length() - 1
            if trailing:
                shift = trailing if trailing < exp else exp
                num >>= shift
                exp -= shift
        elif num == 0:
            exp = 0
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("Dyadic is immutable")

    @staticmethod
    def from_fraction(value) -> "Dyadic":
        frac = Fraction(value)
        den = frac.denominator
        exp = den.bit_length() - 1
        if den != 1 << exp:
            raise ValueError(f"{value!r} is not a dyadic rational")
        return Dyadic(frac.numerator, exp)

    @staticmethod
    def parse(text: str) -> "Dyadic":
        """Parse "num/2^k", plain integers, fractions or decimal strings."""
        text = text.strip()
        if "/2^" in text:
            num, _, exp = text.partition("/2^")
            return Dyadic(int(num), int(exp))
        return Dyadic.from_fraction(Fraction(text))

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __float__(self) -> float:
        return key_float(self.num, self.exp)

    def _pair(self, other: "Dyadic") -> tuple[int, int]:
        # Align both numerators to the common exponent.
        e = max(self.exp, other.exp)
        return self.num << (e - self.exp), other.num << (e - other.exp)

    def __add__(self, other: "Dyadic") -> "Dyadic":
        a, b = self._pair(other)
        return Dyadic(a + b, max(self.exp, other.exp))

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        a, b = self._pair(other)
        return Dyadic(a - b, max(self.exp, other.exp))

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        return Dyadic(self.num * other.num, self.exp + other.exp)

    def __neg__(self) -> "Dyadic":
        return Dyadic(-self.num, self.exp)

    def __abs__(self) -> "Dyadic":
        return Dyadic(abs(self.num), self.exp)

    def half(self) -> "Dyadic":
        return Dyadic(self.num, self.exp + 1)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dyadic)
            and self.num == other.num
            and self.exp == other.exp
        )

    def __lt__(self, other: "Dyadic") -> bool:
        a, b = self._pair(other)
        return a < b

    def __le__(self, other: "Dyadic") -> bool:
        a, b = self._pair(other)
        return a <= b

    def __gt__(self, other: "Dyadic") -> bool:
        return other < self

    def __ge__(self, other: "Dyadic") -> bool:
        return other <= self

    def __hash__(self) -> int:
        return hash((self.num, self.exp))

    def __repr__(self) -> str:
        return f"Dyadic({self.num}, {self.exp})"

    def __str__(self) -> str:
        if self.exp == 0:
            return str(self.num)
        return f"{self.num}/2^{self.exp}"

    def serialize(self) -> str:
        return f"{self.num}/2^{self.exp}"

    @property
    def sign(self) -> int:
        return (self.num > 0) - (self.num < 0)


D = Dyadic  # short constructor alias used heavily in fixtures and tests
ZERO = Dyadic(0)
ONE = Dyadic(1)


def dmid(a: Dyadic, b: Dyadic) -> Dyadic:
    """Exact midpoint; dyadics are closed under halving."""
    return (a + b).half()


def dmin(a: Dyadic, b: Dyadic) -> Dyadic:
    return a if a <= b else b


def dmax(a: Dyadic, b: Dyadic) -> Dyadic:
    return a if a >= b else b


def floor_log2(d: Dyadic) -> int:
    """Largest k with 2**k <= d, for d > 0.  Exact."""
    if d.num <= 0:
        raise ValueError("floor_log2 requires a positive dyadic")
    return d.num.bit_length() - 1 - d.exp


def sort_points(points) -> list[Dyadic]:
    """Sort dyadics by value using aligned integer keys (fast path)."""
    pts = list(points)
    if len(pts) < 2:
        return pts
    emax = max(p.exp for p in pts)
    pts.sort(key=lambda p: p.num << (emax - p.exp))
    return pts


def is_pow2(d: Dyadic) -> bool:
    """True when d equals 2**(-k) or 2**k exactly."""
    return d.num > 0 and d.num == 1 << (d.num.bit_length() - 1)


class Interval:
    """A bracketed interval with strictly positive length.

    A single point is never an Interval; the bracket flags say whether
    each endpoint belongs to the set.
    """

    __slots__ = ("lo", "hi", "left_closed", "right_closed")

    def __init__(self, lo: Dyadic, hi: Dyadic, left_closed: bool = True,
                 right_closed: bool = True):
        if not lo < hi:
            raise DegenerateInterval(f"need lo < hi, got {lo} .. {hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "left_closed", left_closed)
        object.__setattr__(self, "right_closed", right_closed)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Interval)
                and self.lo == other.lo and self.hi == other.hi
                and self.left_closed == other.left_closed
                and self.right_closed == other.right_closed)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.left_closed, self.right_closed))

    def __repr__(self) -> str:
        return (f"Interval({self.lo!r}, {self.hi!r}, "
                f"{self.left_closed}, {self.right_closed})")

    @staticmethod
    def raw(lo: Dyadic, hi: Dyadic, left_closed: bool,
            right_closed: bool) -> "Interval":
        """Unvalidated constructor for hot paths with lo < hi guaranteed."""
        iv = object.__new__(Interval)
        object.__setattr__(iv, "lo", lo)
        object.__setattr__(iv, "hi", hi)
        object.__setattr__(iv, "left_closed", left_closed)
        object.__setattr__(iv, "right_closed", right_closed)
        return iv

    @property
    def length(self) -> Dyadic:
        return self.hi - self.lo

    def span(self) -> tuple[Dyadic, Dyadic]:
        return (self.lo, self.hi)

    def contains_point(self, x: Dyadic) -> bool:
        if x == self.lo:
            return self.left_closed
        if x == self.hi:
            return self.right_closed
        return self.lo < x < self.hi

    def with_brackets(self, left_closed: bool, right_closed: bool) -> "Interval":
        return Interval(self.lo, self.hi, left_closed, right_closed)

    def variants(self) -> tuple["Interval", ...]:
        """The four bracket variants of this span, in canonical order."""
        return tuple(
            Interval(self.lo, self.hi, lc, rc)
            for lc in (False, True)
            for rc in (False, True)
        )

    def __str__(self) -> str:
        left = "[" if self.left_closed else "("
        right = "]" if self.right_closed else ")"
        return f"{left}{self.lo},{self.hi}{right}"


def relate(i1: Interval, i2: Interval) -> str:
    """Classify two spans: equal-span, contains, overlap, abut or disjoint.

    Overlap means the open interiors intersect; abutment is a shared
    endpoint value with disjoint interiors, regardless of brackets.
    """
    if i1.lo == i2.lo and i1.hi == i2.hi:
        return "equal-span"
    if (i1.lo <= i2.lo and i2.hi <= i1.hi) or (i2.lo <= i1.lo and i1.hi <= i2.hi):
        return "contains"
    if dmax(i1.lo, i2.lo) < dmin(i1.hi, i2.hi):
        return "overlap"
    if i1.hi == i2.lo or i2.hi == i1.lo:
        return "abut"
    return "disjoint"


class Region:
    """A finite union of closed intervals, stored merged as its closure."""

    __slots__ = ("components",)

    def __init__(self, spans: Iterable[tuple[Dyadic, Dyadic]]):
        spans = list(spans)
        if len(spans) > 1:
            e = max(max(lo.exp, hi.exp) for lo, hi in spans)
            spans.sort(key=lambda s: (s[0].num << (e - s[0].exp),
                                      s[1].num << (e - s[1].exp)))
        merged: list[tuple[Dyadic, Dyadic]] = []
        for lo, hi in spans:
            if not lo < hi:
                raise DegenerateInterval(f"component {lo}..{hi} has no length")
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], dmax(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        object.__setattr__(self, "components", tuple(merged))

    def __setattr__(self, name, value):
        raise AttributeError("Region is immutable")

    @staticmethod
    def interval(lo: Dyadic, hi: Dyadic) -> "Region":
        return Region([(lo, hi)])

    @property
    def measure(self) -> Dyadic:
        total = ZERO
        for lo, hi in self.components:
            total = total + (hi - lo)
        return total

    @property
    def is_empty(self) -> bool:
        return not self.components

    def contains_point(self, x: Dyadic) -> bool:
        return any(lo <= x <= hi for lo, hi in self.components)

    def endpoints(self) -> list[Dyadic]:
        out: list[Dyadic] = []
        for lo, hi in self.components:
            out.append(lo)
            out.append(hi)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Region) and self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __str__(self) -> str:
        return " + ".join(f"[{lo},{hi}]" for lo, hi in self.components)

    def __repr__(self) -> str:
        return f"Region({self})"


def region_subtract(r1: Region, r2: Region) -> Region:
    """Closure of the set difference r1 - r2; r2 must be contained in r1."""
    for lo, hi in r2.components:
        if not any(a <= lo and hi <= b for a, b in r1.components):
            raise NotContained(f"component [{lo},{hi}] not inside {r1}")
    spans: list[tuple[Dyadic, Dyadic]] = []
    for a, b in r1.components:
        cursor = a
        for lo, hi in r2.components:
            if hi <= a or b <= lo:
                continue
            if cursor < lo:
                spans.append((cursor, lo))
            cursor = dmax(cursor, hi)
        if cursor < b:
            spans.append((cursor, b))
    return Region(spans)


@dataclass(frozen=True)
class PointConvention:
    """Bracket arrangement at a division point.

    left_closed is the right bracket of the interval ending at the point;
    right_closed is the left bracket of the interval starting there.  The
    four combinations are the junction conventions )( , )[ , ]( and ][.
    """

    point: Dyadic
    left_closed: bool
    right_closed: bool

    TOKENS = {")(": (False, False), ")[": (False, True),
              "](": (True, False), "][": (True, True)}

    @staticmethod
    def from_token(point: Dyadic, token: str) -> "PointConvention":
        lc, rc = PointConvention.TOKENS[token]
        return PointConvention(point, lc, rc)

    @property
    def token(self) -> str:
        return (")" if not self.left_closed else "]") + (
            "(" if not self.right_closed else "[")


# Junction convention applied at points where the caller does not choose one.
DEFAULT_CONVENTION = (False, True)  # ")["


class Division:
    """A finite list of non-overlapping bracketed intervals covering a region.

    Intervals may abut and may both be closed at a shared point; sharing a
    point is not overlap.  The norm is the largest interval length.
    """

    __slots__ = ("region", "intervals", "points")

    def __init__(self, region: Region, intervals: Sequence[Interval],
                 points: Sequence[Dyadic]):
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "intervals", tuple(intervals))
        object.__setattr__(self, "points", tuple(points))

    def __setattr__(self, name, value):
        raise AttributeError("Division is immutable")

    @property
    def norm(self) -> Dyadic:
        best = ZERO
        for iv in self.intervals:
            best = dmax(best, iv.length)
        return best

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals)

    def to_json(self) -> str:
        return json.dumps({
            "points": [p.serialize() for p in self.points],
            "brackets": [("[" if iv.left_closed else "(") +
                         ("]" if iv.right_closed else ")")
                         for iv in self.intervals],
            "region": [(lo.serialize(), hi.serialize())
                       for lo, hi in self.region.components],
        })

    def __str__(self) -> str:
        return "{" + ", ".join(str(iv) for iv in self.intervals) + "}"


def _component_runs(region: Region, points: Sequence[Dyadic]) -> list[list[Dyadic]]:
    """Split sorted points into runs per region component, checking coverage."""
    prev = None
    for p in points:
        if prev is not None and not prev < p:
            raise UnsortedPoints(f"points not strictly increasing at {p}")
        prev = p
    runs: list[list[Dyadic]] = []
    idx = 0
    pts = list(points)
    for lo, hi in region.components:
        run = []
        while idx < len(pts) and pts[idx] <= hi:
            if pts[idx] < lo:
                raise PointOutsideRegion(f"{pts[idx]} outside {region}")
            run.append(pts[idx])
            idx += 1
        if not run or run[0] != lo or run[-1] != hi:
            raise PointOutsideRegion(
                f"points must include component endpoints {lo}, {hi}")
        runs.append(run)
    if idx != len(pts):
        raise PointOutsideRegion(f"{pts[idx]} outside {region}")
    return runs


def division_from_points(
    region: Region,
    points: Sequence[Dyadic],
    conventions: Iterable[PointConvention] = (),
) -> Division:
    """Divide a region at the given points.

    Brackets at interior points come from the supplied conventions (the
    default is ")[" where none is given); each component is closed at its
    ends unless a convention is given there.
    """
    conv = {c.point: (c.left_closed, c.right_closed) for c in conventions}
    runs = _component_runs(region, points)
    intervals: list[Interval] = []
    for run in runs:
        for i in range(len(run) - 1):
            a, b = run[i], run[i + 1]
            lc = conv.get(a, DEFAULT_CONVENTION if i else (True, True))[1]
            rc = conv.get(b, DEFAULT_CONVENTION if i < len(run) - 2
                          else (True, True))[0]
            intervals.append(Interval(a, b, lc, rc))
    return Division(region, intervals, points)


def refine(division: Division, extra_points: Iterable[Dyadic]) -> Division:
    """Add division points, keeping every existing bracket.

    New interior points take the default ")[" junction; the norm never
    increases and refining with no new points returns an equal division.
    """
    extra_points = list(extra_points)
    for p in extra_points:
        if not division.region.contains_point(p):
            raise PointOutsideRegion(f"{p} outside {division.region}")
    extras = sort_points(set(extra_points) - set(division.points))
    if not extras:
        return division
    intervals: list[Interval] = []
    for iv in division.intervals:
        inside = [p for p in extras if iv.lo < p < iv.hi]
        if not inside:
            intervals.append(iv)
            continue
        cuts = [iv.lo] + inside + [iv.hi]
        for i in range(len(cuts) - 1):
            lc = iv.left_closed if i == 0 else DEFAULT_CONVENTION[1]
            rc = iv.right_closed if i == len(cuts) - 2 else DEFAULT_CONVENTION[0]
            intervals.append(Interval(cuts[i], cuts[i + 1], lc, rc))
    points = sort_points(set(division.points) | set(extras))
    return Division(division.region, intervals, points)


def enumerate_bracket_assignments(region: Region, points: Sequence[Dyadic],
                                  cap: int = 1 << 16) -> Iterator[Division]:
    """Yield all 4**m divisions over the given points.

    Bracket choices are independent per interval, which is what makes the
    count 4**m; both-closed and both-open junctions are legal.
    """
    base = division_from_points(region, points)
    m = len(base.intervals)
    if 4 ** m > cap:
        raise BudgetExceeded(f"4^{m} assignments exceed cap {cap}")
    spans = [iv.span() for iv in base.intervals]

    def rec(i: int, acc: list[Interval]) -> Iterator[Division]:
        if i == len(spans):
            yield Division(region, list(acc), base.points)
            return
        lo, hi = spans[i]
        for lc in (False, True):
            for rc in (False, True):
                acc.append(Interval(lo, hi, lc, rc))
                yield from rec(i + 1, acc)
                acc.pop()

    return rec(0, [])
