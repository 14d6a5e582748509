"""Test-only references that no entry point of burkill needs: the
exhaustive 4**m bracket enumeration, the power-of-two predicate of the
reference singular-point rules, an Interval with other brackets, and the
unit jump integrand."""

from typing import Iterator, Sequence

from burkill.catalog import PointFunction
from burkill.core import Division, Dyadic, Interval, Region, division_from_points
from burkill.errors import BudgetExceeded


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
    spans = [(iv.lo, iv.hi) for iv in base.intervals]

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


def is_pow2(d: Dyadic) -> bool:
    """True when d equals 2**(-k) or 2**k exactly."""
    return d.num > 0 and d.num == 1 << (d.num.bit_length() - 1)


def with_brackets(iv: Interval, left_closed: bool,
                  right_closed: bool) -> Interval:
    return Interval(iv.lo, iv.hi, left_closed, right_closed)


def step(at: Dyadic, include_at: bool = True, jump: float = 1.0) -> PointFunction:
    """Unit jump at a point; include_at puts the high value at the point."""
    def ev(x: Dyadic) -> float:
        if x > at or (x == at and include_at):
            return jump
        return 0.0

    return PointFunction(f"step@{at}", ev, continuous=False)
