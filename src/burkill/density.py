"""Density integration: K(I) = g(I) * m(E & I) / mI over a fundamental region.

The measurable sets are finite interval unions with exact dyadic measure
arithmetic; membership respects brackets (needed by the around-a-set
module) while measures ignore them.  The density integral of g for E is
the norm-limit of K over the fundamental region; for additive absolutely
continuous g it recovers the Lebesgue value, checked against a composite
quadrature oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .catalog import IntervalFunction
from .core import Dyadic, Interval, Region, ZERO, dmax, dmin
from .errors import NoConvergence
from .integrator import LimitReport, SearchConfig, _key, estimate_norm_limits


class MeasurableSet:
    """A finite union of bracketed intervals, sorted and non-overlapping.

    Abutting components are kept separate so that bracket-sensitive
    membership is preserved; measure is the exact sum of span lengths.
    """

    __slots__ = ("components",)

    def __init__(self, intervals: Sequence[Interval] = ()):
        comps = list(intervals)
        if len(comps) > 1:
            e = max(iv.lo.exp for iv in comps)
            comps.sort(key=lambda iv: iv.lo.num << (e - iv.lo.exp))
        for a, b in zip(comps, comps[1:]):
            if b.lo < a.hi:
                raise ValueError(f"components {a} and {b} overlap")
        object.__setattr__(self, "components", tuple(comps))

    def __setattr__(self, name, value):
        raise AttributeError("MeasurableSet is immutable")

    @staticmethod
    def empty() -> "MeasurableSet":
        return MeasurableSet(())

    @staticmethod
    def from_spans(spans: Sequence[tuple[Dyadic, Dyadic]]) -> "MeasurableSet":
        return MeasurableSet([Interval(lo, hi, True, True)
                              for lo, hi in spans])

    @property
    def measure(self) -> Dyadic:
        total = ZERO
        for iv in self.components:
            total = total + iv.length
        return total

    def endpoints(self) -> list[Dyadic]:
        out = []
        for iv in self.components:
            out.append(iv.lo)
            out.append(iv.hi)
        return out

    def meets(self, iv: Interval) -> bool:
        """True when the set intersection with iv is non-empty.

        A shared single endpoint counts only when both sides include it.
        """
        for comp in self.components:
            lo, hi = dmax(comp.lo, iv.lo), dmin(comp.hi, iv.hi)
            if lo < hi:
                return True
            if lo == hi and comp.contains_point(lo) and iv.contains_point(lo):
                return True
        return False

    def __str__(self) -> str:
        return " + ".join(str(iv) for iv in self.components) or "{}"


def intersect_measure(E: MeasurableSet, iv: Interval) -> Dyadic:
    """Exact measure of E within the span of iv; brackets are irrelevant."""
    total = ZERO
    for comp in E.components:
        if iv.hi <= comp.lo:
            break                       # components are sorted
        lo, hi = dmax(comp.lo, iv.lo), dmin(comp.hi, iv.hi)
        if lo < hi:
            total = total + (hi - lo)
    return total


def with_set_edges(g: IntervalFunction, E: MeasurableSet):
    """The special-point hint map of g extended by the endpoints of E."""
    edges = E.endpoints()

    def specials(region: Region, resolution: Dyadic) -> list[Dyadic]:
        return g.special_points(region, resolution) + edges

    return specials


class _EdgeKeys(dict):
    """ex -> (s, comps) for spans keyed at ex: E's components (lo, hi,
    left_closed, right_closed) as integer keys at the finer of ex and E's
    own exponent, and the left shift s that takes the span's keys there.
    E's edges are keyed once at their own exponent, then at each finer
    span exponent the first time it is asked for."""

    def __init__(self, E: MeasurableSet):
        super().__init__()
        self.ex = ex = max((p.exp for p in E.endpoints()), default=0)
        self.comps = [(_key(iv.lo, ex), _key(iv.hi, ex), iv.left_closed,
                       iv.right_closed) for iv in E.components]

    def __missing__(self, ex: int):
        s = ex - self.ex
        out = self[ex] = (-s, self.comps) if s <= 0 else (0, [
            (lo << s, hi << s, lc, rc) for lo, hi, lc, rc in self.comps])
        return out


def density_kernel(g: IntervalFunction, E: MeasurableSet) -> IntervalFunction:
    """The interval function K(I) = g(I) * m(E & I) / mI.

    Special points inherit from g plus the endpoints of E; bracket
    dependence is inherited from g (the measure ratio ignores brackets).
    m(E & I) is a sum of integer overlaps, and the ratio one int/int
    division, rounded once.
    """
    edges, gspan = _EdgeKeys(E), g.span

    def span(a: int, b: int, ex: int, lc: bool, rc: bool) -> float:
        s, comps = edges[ex]
        lo, hi = a << s, b << s
        m = 0
        for clo, chi, _, _ in comps:
            if hi <= clo:
                break                   # components are sorted
            if lo < chi:
                m += min(chi, hi) - max(clo, lo)
        if m == 0:
            return 0.0
        return gspan(a, b, ex, lc, rc) * (m / (hi - lo))

    return IntervalFunction(
        f"K({g.name};E)", span=span,
        bracket_independent=g.bracket_independent,
        special_points=with_set_edges(g, E),
        singular_schedule=g._schedule,
    )


@dataclass
class DensityReport:
    report: LimitReport
    lebesgue_ref: Optional[float] = None

    @property
    def upper(self) -> float:
        return self.report.upper

    @property
    def lower(self) -> float:
        return self.report.lower

    @property
    def verdict(self):
        return self.report.verdict


def density_integral(
    g: IntervalFunction,
    E: MeasurableSet,
    fundamental: Region,
    cfg: Optional[SearchConfig] = None,
    gprime: Optional[Callable[[float], float]] = None,
) -> DensityReport:
    """Upper/lower density integrals of g for E over the fundamental region.

    When a derivative oracle is supplied (additive absolutely continuous
    g), the Lebesgue reference value is attached for comparison.
    """
    kernel = density_kernel(g, E)
    report = estimate_norm_limits(kernel, fundamental, cfg)
    ref = None
    if gprime is not None:
        ref = lebesgue_reference(gprime, E)
    return DensityReport(report, ref)


def lebesgue_reference(
    gprime: Callable[[float], float],
    E: MeasurableSet,
    tol: float = 1e-10,
    max_doublings: int = 22,
) -> float:
    """Composite Simpson quadrature of gprime over E, doubled until two
    successive refinements agree within tol.  gprime takes a float."""
    func = gprime

    def simpson(a: float, b: float, panels: int) -> float:
        h = (b - a) / panels
        total = func(a) + func(b)
        for i in range(1, panels):
            total += (4.0 if i % 2 else 2.0) * func(a + i * h)
        return total * h / 3.0

    total = 0.0
    for comp in E.components:
        a, b = float(comp.lo), float(comp.hi)
        panels = 2
        prev = simpson(a, b, panels)
        for _ in range(max_doublings):
            panels *= 2
            cur = simpson(a, b, panels)
            if abs(cur - prev) <= tol:
                total += cur
                break
            prev = cur
        else:
            raise NoConvergence(
                f"quadrature did not stabilize on [{a}, {b}]")
    return total
