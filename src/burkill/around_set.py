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
from .integrator import (
    LimitReport,
    SearchConfig,
    _iterated_search,
    estimate_norm_limits,
)


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

    The chain reads every report at its finest level, which depends on no
    other level, so each search runs only at the last bound of a shallow
    schedule (the first half of cfg's, at most five bounds); the iterated
    bounds run on the shared iterated builder, reading 0.0 off E.
    """
    cfg = cfg or SearchConfig()
    e = cfg.e_schedule[min(len(cfg.e_schedule) // 2, 4)]
    cfg = replace(cfg, e_schedule=(e,))
    gE = around_part(g, E)
    outer = estimate_norm_limits(gE, region, cfg)
    meets = _meets(E)
    inner, bound = _iterated_search(
        lambda a, b, ex: estimate_norm_limits(
            gE, Region.interval(Dyadic(a, ex), Dyadic(b, ex)), cfg),
        region, cfg, gE.bracket_independent, with_set_edges(g, E))

    def read(sense: str):
        return lambda a, b, ex, lc, rc: (getattr(inner(a, b, ex), sense)
                                         if meets(a, b, ex, lc, rc) else 0.0)

    it_up = bound(read("upper"), max, e).upper
    it_low = bound(read("lower"), min, e).lower
    return ChainReport(outer.lower, it_low, it_up, outer.upper, tol)
