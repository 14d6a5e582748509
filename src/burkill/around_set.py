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
from .core import Dyadic, Interval, Region
from .density import MeasurableSet, with_set_edges
from .integrator import LimitReport, SearchConfig, estimate_norm_limits


def around_part(g: IntervalFunction, E: MeasurableSet) -> IntervalFunction:
    """g on intervals whose set intersection with E is non-empty, else 0."""
    def ev(iv: Interval) -> float:
        return g(iv) if E.meets(iv) else 0.0

    return IntervalFunction(f"{g.name}_E", ev,
                            special_points=with_set_edges(g, E))


def complement_part(g: IntervalFunction, E: MeasurableSet) -> IntervalFunction:
    """g minus its around-E part: g on intervals missing E entirely."""
    def ev(iv: Interval) -> float:
        return 0.0 if E.meets(iv) else g(iv)

    return IntervalFunction(f"{g.name}^E", ev,
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

    def inner(span: tuple[Dyadic, Dyadic]) -> tuple[float, float]:
        key = (span[0].num, span[0].exp, span[1].num, span[1].exp)
        if key not in cache:
            rep = estimate_norm_limits(gE, Region.interval(*span), cfg)
            cache[key] = (rep.upper, rep.lower)
        return cache[key]

    def up_ev(iv: Interval) -> float:
        return inner(iv.span())[0] if E.meets(iv) else 0.0

    def low_ev(iv: Interval) -> float:
        return inner(iv.span())[1] if E.meets(iv) else 0.0

    specials = with_set_edges(g, E)
    h_up = IntervalFunction("iterated_upper", up_ev, special_points=specials)
    h_low = IntervalFunction("iterated_lower", low_ev, special_points=specials)
    it_up = estimate_norm_limits(h_up, region, cfg).upper
    it_low = estimate_norm_limits(h_low, region, cfg).lower
    return ChainReport(
        lower_around=outer.lower,
        iterated_lower=it_low,
        iterated_upper=it_up,
        upper_around=outer.upper,
        tol=tol,
    )
