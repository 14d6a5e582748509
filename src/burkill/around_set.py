"""Integration around a set: the auxiliary function g_E and its limits.

g_E agrees with g on intervals meeting E (as a set, bracket-sensitively,
so a shared boundary point counts only when the interval's bracket
includes it) and vanishes elsewhere; g_co_E is the complementary part, so
g_E + g_co_E = g exactly on every interval.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .catalog import IntervalFunction
from .core import Dyadic, Region
from .density import MeasurableSet, _EdgeKeys, with_set_edges
from .integrator import LimitReport, SearchConfig, estimate_norm_limits


def _meets(E: MeasurableSet):
    """meets(a, b, ex, lc, rc): E.meets on the span a/2^ex .. b/2^ex with
    those brackets; a shared single endpoint counts only when both sides
    include it."""
    edges = _EdgeKeys(E)

    def meets(a: int, b: int, ex: int, lc: bool, rc: bool) -> bool:
        s, comps = edges[ex]
        a, b = a << s, b << s
        for lo, hi, clc, crc in comps:
            if b < lo:
                break                   # components are sorted
            if (lo < b and a < hi) or (hi == a and crc and lc) or (
                    lo == b and clc and rc):
                return True
        return False

    return meets


def around_part(g: IntervalFunction, E: MeasurableSet) -> IntervalFunction:
    """g on intervals whose set intersection with E is non-empty, else 0."""
    meets, gspan = _meets(E), g.span

    def span(a: int, b: int, ex: int, lc: bool, rc: bool) -> float:
        return gspan(a, b, ex, lc, rc) if meets(a, b, ex, lc, rc) else 0.0

    return IntervalFunction(f"{g.name}_E", span=span,
                            special_points=with_set_edges(g, E))


def complement_part(g: IntervalFunction, E: MeasurableSet) -> IntervalFunction:
    """g minus its around-E part: g on intervals missing E entirely."""
    meets, gspan = _meets(E), g.span

    def span(a: int, b: int, ex: int, lc: bool, rc: bool) -> float:
        return 0.0 if meets(a, b, ex, lc, rc) else gspan(a, b, ex, lc, rc)

    return IntervalFunction(f"{g.name}^E", span=span,
                            special_points=with_set_edges(g, E))


def around_limits(
    g: IntervalFunction,
    E: MeasurableSet,
    region: Region,
    cfg: Optional[SearchConfig] = None,
) -> LimitReport:
    """Upper and lower norm-limits of g around (region, E)."""
    return estimate_norm_limits(around_part(g, E), region, cfg)


@dataclass
class ChainReport:
    lower_around: float
    iterated_lower: float
    iterated_upper: float
    upper_around: float
    tol: float

    @property
    def ordered(self) -> bool:
        t = self.tol
        return (self.lower_around <= self.iterated_lower + t
                and self.iterated_lower <= self.iterated_upper + t
                and self.iterated_upper <= self.upper_around + t)


def around_chain_check(
    g: IntervalFunction,
    E: MeasurableSet,
    region: Region,
    cfg: Optional[SearchConfig] = None,
    tol: float = 1e-6,
) -> ChainReport:
    """The four-term chain: outer around-limits of the inner around-limits
    sit inside the plain around-limits.

    Inner estimates per interval depend only on the span, so they are
    cached; the outer pass runs at a shallow schedule for desk-scale cost.
    """
    cfg = cfg or SearchConfig()
    schedule = cfg.e_schedule[:len(cfg.e_schedule) // 2 + 1][:5]
    cfg = replace(cfg, e_schedule=schedule)
    gE = around_part(g, E)
    outer = estimate_norm_limits(gE, region, cfg)

    cache: dict[tuple, tuple[float, float]] = {}
    meets = _meets(E)

    def inner(a: int, b: int, ex: int) -> tuple[float, float]:
        lo, hi = Dyadic(a, ex), Dyadic(b, ex)
        key = (lo.num, lo.exp, hi.num, hi.exp)
        if key not in cache:
            rep = estimate_norm_limits(gE, Region.interval(lo, hi), cfg)
            cache[key] = (rep.upper, rep.lower)
        return cache[key]

    def up_span(a: int, b: int, ex: int, lc: bool, rc: bool) -> float:
        return inner(a, b, ex)[0] if meets(a, b, ex, lc, rc) else 0.0

    def low_span(a: int, b: int, ex: int, lc: bool, rc: bool) -> float:
        return inner(a, b, ex)[1] if meets(a, b, ex, lc, rc) else 0.0

    specials = with_set_edges(g, E)
    h_up = IntervalFunction("iterated_upper", span=up_span,
                            special_points=specials)
    h_low = IntervalFunction("iterated_lower", span=low_span,
                             special_points=specials)
    it_up = estimate_norm_limits(h_up, region, cfg).upper
    it_low = estimate_norm_limits(h_low, region, cfg).lower
    return ChainReport(
        lower_around=outer.lower,
        iterated_lower=it_low,
        iterated_upper=it_up,
        upper_around=outer.upper,
        tol=tol,
    )
