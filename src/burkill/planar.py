"""Rectangle functions: 16 bracket conventions, restricted (full-grid) versus
extended (guillotine) divisions, norm-limit estimation, and the iterated
chain of Fubini type.

Extended-division generation is guillotine: recursive axis-aligned splits
seeded to contain each function's special rectangles.  Restricted grids
chop both axes with pieces between s and 2s, so a regularity floor of 1/2
holds for plain grid cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .catalog import IntervalFunction, xsum
from .core import (
    Dyadic,
    Interval,
    Region,
    ZERO,
    dmid,
    floor_log2,
    sort_points,
)
from .errors import BudgetExceeded
from .integrator import (
    LevelEstimate,
    LimitReport,
    SearchConfig,
    _VARIANTS,
    _best_value,
    _grid_spacing,
    _tighten,
    _verdict,
    candidate_point_sets,
    estimate_norm_limits,
)


@dataclass(frozen=True)
class Rect:
    """A bracketed rectangle: an x-interval times a y-interval."""

    x: Interval
    y: Interval

    @property
    def area(self) -> Dyadic:
        return self.x.length * self.y.length

    @property
    def diameter(self) -> float:
        return math.hypot(float(self.x.length), float(self.y.length))

    @property
    def regularity(self) -> float:
        a, b = float(self.x.length), float(self.y.length)
        return min(a, b) / max(a, b)

    def variants(self):
        for xv in self.x.variants():
            for yv in self.y.variants():
                yield Rect(xv, yv)

    def __str__(self) -> str:
        flag = lambda c, op, cl: cl if c else op  # noqa: E731
        return (f"[{self.x.lo},{self.x.hi};{self.y.lo},{self.y.hi}]"
                f"{flag(self.x.left_closed,'(','[')}"
                f"{flag(self.x.right_closed,')',']')}"
                f"{flag(self.y.left_closed,'(','[')}"
                f"{flag(self.y.right_closed,')',']')}")


def closed_rect(x0: Dyadic, x1: Dyadic, y0: Dyadic, y1: Dyadic) -> Rect:
    return Rect(Interval(x0, x1, True, True), Interval(y0, y1, True, True))


class RectFunction:
    """Pure map Rect -> real with special-rectangle hints."""

    def __init__(self, name: str, func: Callable[[Rect], float], *,
                 bracket_independent: bool = False,
                 special_rects=None):
        self.name = name
        self._func = func
        self.bracket_independent = bracket_independent
        self._special = special_rects

    def __call__(self, rect: Rect) -> float:
        return self._func(rect)

    def special_rects(self, region: Rect, e: Dyadic) -> list[Rect]:
        return list(self._special(region, e)) if self._special else []


@dataclass
class RectDivision:
    region: Rect
    rects: list[Rect]
    mode: str                       # "restricted" | "extended"

    @property
    def norm(self) -> float:
        return max(r.diameter for r in self.rects)

    def area_total(self) -> Dyadic:
        total = ZERO
        for r in self.rects:
            total = total + r.area
        return total


def riemann_sum_2d(gT: RectFunction, division: RectDivision) -> float:
    return xsum(gT(r) for r in division.rects)


def chop(a: Dyadic, b: Dyadic, s: Dyadic) -> list[Dyadic]:
    """Cut points of [a, b] with pieces in [s, 2s); short spans stay whole."""
    pts = [a]
    p = a
    two_s = s + s
    while b - p >= two_s:
        p = p + s
        pts.append(p)
    pts.append(b)
    return pts


def _cells(xs: Sequence[Dyadic], ys: Sequence[Dyadic]) -> list[Rect]:
    out = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            out.append(closed_rect(xs[i], xs[i + 1], ys[j], ys[j + 1]))
    return out


def grid_division(region: Rect, s: Dyadic,
                  x_anchor: Sequence[Dyadic] = (),
                  y_anchor: Sequence[Dyadic] = ()) -> RectDivision:
    """Restricted division: full crossing lines chopped outward from anchors."""
    def lines(lo, hi, anchors):
        if not anchors:
            return chop(lo, hi, s)
        pts = sort_points(set(list(anchors) + [lo, hi]))
        out = [lo]
        for a, b in zip(pts, pts[1:]):
            seg = chop(a, b, s)
            out.extend(seg[1:])
        return out

    xs = lines(region.x.lo, region.x.hi, x_anchor)
    ys = lines(region.y.lo, region.y.hi, y_anchor)
    return RectDivision(region, _cells(xs, ys), "restricted")


def seeded_guillotine(region: Rect, specials: Sequence[Rect],
                      s: Dyadic) -> RectDivision:
    """Guillotine tiling containing each special rectangle as a cell band.

    Vertical cuts at every special's x-edges give columns; a special's
    band is x-chopped at its own height, the rest of the column is chopped
    square-ish.  Specials must not overlap in x.
    """
    xcuts = {region.x.lo, region.x.hi}
    for sp in specials:
        xcuts.add(sp.x.lo)
        xcuts.add(sp.x.hi)
    xs = sort_points(xcuts)
    rects: list[Rect] = []
    for x0, x1 in zip(xs, xs[1:]):
        owner = None
        for sp in specials:
            if sp.x.lo <= x0 and x1 <= sp.x.hi:
                owner = sp
                break
        ylo, yhi = region.y.lo, region.y.hi
        if owner is None:
            rects.extend(_cells(chop(x0, x1, s), chop(ylo, yhi, s)))
            continue
        bands = [(ylo, owner.y.lo), (owner.y.lo, owner.y.hi),
                 (owner.y.hi, yhi)]
        for b0, b1 in bands:
            if not b0 < b1:
                continue
            if b0 == owner.y.lo and b1 == owner.y.hi:
                xs_band = chop(x0, x1, s)
                for a, b in zip(xs_band, xs_band[1:]):
                    rects.append(closed_rect(a, b, b0, b1))
            else:
                rects.extend(_cells(chop(x0, x1, s), chop(b0, b1, s)))
    return RectDivision(region, rects, "extended")


def _extremal_2d(gT: RectFunction, division: RectDivision,
                 sense: str) -> float:
    return xsum(_best_value(gT, r, sense)[0] for r in division.rects)


def _default_2d_schedule() -> tuple[Dyadic, ...]:
    return tuple(Dyadic(1, k) for k in range(3, 6))


def planar_config(**overrides) -> SearchConfig:
    overrides.setdefault("e_schedule", _default_2d_schedule())
    return SearchConfig(**overrides)


_DIVISION_CACHE: dict = {}


def _rect_key(r: Rect) -> tuple:
    return (r.x.lo.num, r.x.lo.exp, r.x.hi.num, r.x.hi.exp,
            r.y.lo.num, r.y.lo.exp, r.y.hi.num, r.y.hi.exp)


def candidate_divisions_2d(gT: RectFunction, region: Rect, e: Dyadic,
                           mode: str) -> list[RectDivision]:
    # cells up to 2s per side keep the diameter under e when s <= e/4
    s = _grid_spacing(e, 4)
    specials = gT.special_rects(region, e)
    key = (mode, (e.num, e.exp), _rect_key(region),
           tuple(_rect_key(sp) for sp in specials))
    if key in _DIVISION_CACHE:
        return _DIVISION_CACHE[key]
    cands = [grid_division(region, s)]
    for sp in specials:
        cands.append(grid_division(
            region, s,
            x_anchor=[sp.x.lo, sp.x.hi],
            y_anchor=[sp.y.lo, sp.y.hi]))
    if mode == "extended":
        if specials:
            cands.append(seeded_guillotine(region, specials, s))
            for sp in specials:
                cands.append(seeded_guillotine(region, [sp], s))
    if len(_DIVISION_CACHE) < 64:
        _DIVISION_CACHE[key] = cands
    return cands


def estimate_norm_limits_2d(
    gT: RectFunction,
    region: Rect,
    mode: str = "extended",
    cfg: Optional[SearchConfig] = None,
) -> LimitReport:
    """Norm-limit estimates over restricted grids or guillotine tilings."""
    if mode not in ("restricted", "extended"):
        raise ValueError("mode must be 'restricted' or 'extended'")
    cfg = cfg or planar_config()
    levels = []
    for e in cfg.e_schedule:
        cands = candidate_divisions_2d(gT, region, e, mode)
        for c in cands:
            if len(c.rects) > cfg.max_points:
                raise BudgetExceeded(
                    f"{len(c.rects)} cells exceed {cfg.max_points}")
        up = max(_extremal_2d(gT, c, "max") for c in cands)
        low = min(_extremal_2d(gT, c, "min") for c in cands)
        levels.append(LevelEstimate(e, up, low))
    _tighten(levels)
    return LimitReport(levels, _verdict(levels, cfg.tol_float))


# ---------------------------------------------------------------------------
# Fubini-type chain over column divisions
# ---------------------------------------------------------------------------

@dataclass
class FubiniReport:
    levels: list[tuple[Dyadic, float, float, float, float]]
    tol: float

    @property
    def lower_2d(self) -> float:
        return self.levels[-1][1]

    @property
    def iterated_lower(self) -> float:
        return self.levels[-1][2]

    @property
    def iterated_upper(self) -> float:
        return self.levels[-1][3]

    @property
    def upper_2d(self) -> float:
        return self.levels[-1][4]

    @property
    def ordered(self) -> bool:
        t = self.tol
        return all(l2 <= il + t and il <= iu + t and iu <= u2 + t
                   for _, l2, il, iu, u2 in self.levels)


def _fubini_schedule() -> tuple[Dyadic, ...]:
    return tuple(Dyadic(1, k) for k in range(2, 5))


def fubini_chain(
    gT: RectFunction,
    region: Rect,
    cfg: Optional[SearchConfig] = None,
    tol: float = 1e-9,
) -> FubiniReport:
    """Column-division chain: 2D bounds enclose the iterated x-of-y bounds.

    Inner reports per x-interval are cached by span and brackets; the 2D
    side evaluates the same columns at the current level while the
    iterated side uses the finest inner level, which forces the ordering.
    One pass per candidate scores all four bounds, each span taking its
    best bracket variant per bound.
    """
    cfg = cfg or SearchConfig(e_schedule=_fubini_schedule())
    rx = Region.interval(region.x.lo, region.x.hi)
    ry = Region.interval(region.y.lo, region.y.hi)
    variants = _VARIANTS[:1] if gT.bracket_independent else _VARIANTS
    cache: dict = {}

    def inner(ivx: Interval) -> LimitReport:
        key = (ivx.lo.num, ivx.lo.exp, ivx.hi.num, ivx.hi.exp,
               ivx.left_closed, ivx.right_closed)
        if key not in cache:
            fy = IntervalFunction(
                "column", lambda ivy: gT(Rect(ivx, ivy)),
                bracket_independent=gT.bracket_independent)
            cache[key] = estimate_norm_limits(fy, ry, cfg)
        return cache[key]

    # columns publish no special points, so only the grids are candidates
    plain = IntervalFunction("column_bounds", lambda ivx: 0.0)
    levels = []
    for i, e in enumerate(cfg.e_schedule):
        sums = []                      # per candidate: the four span sums
        for c in candidate_point_sets(plain, rx, e, cfg):
            cols: list[list[float]] = [[], [], [], []]
            for a, b in c.spans:
                reps = [inner(Interval.raw(a, b, lc, rc))
                        for lc, rc in variants]
                cols[0].append(min(r.levels[i].lower for r in reps))
                cols[1].append(min(r.lower for r in reps))
                cols[2].append(max(r.upper for r in reps))
                cols[3].append(max(r.levels[i].upper for r in reps))
            sums.append([xsum(col) for col in cols])
        levels.append((e, min(s[0] for s in sums), min(s[1] for s in sums),
                       max(s[2] for s in sums), max(s[3] for s in sums)))
    return FubiniReport(levels, tol)


def product_bv_check(
    g1: IntervalFunction,
    g2: IntervalFunction,
    rx: Region,
    ry: Region,
    cfg: Optional[SearchConfig] = None,
    tol: float = 1e-9,
) -> dict:
    """Compare the restricted 2D variation of g1*g2 with Var(g1)*Var(g2)."""
    from .variation import variation

    cfg = cfg or SearchConfig(e_schedule=tuple(Dyadic(1, k)
                                               for k in range(3, 10)))
    v1 = variation(g1, rx, cfg, scan_j=False)
    v2 = variation(g2, ry, cfg, scan_j=False)
    if v1.verdict == "infinite" or v2.verdict == "infinite":
        return {"verdict": "not-applicable",
                "reason": "a factor is not of bounded variation"}
    # a product grid's |g| sum factors, so the finest level product is the
    # restricted 2D variation estimate
    var2d = v1.levels[-1][1] * v2.levels[-1][1]
    bound = v1.total * v2.total
    return {
        "verdict": "holds" if var2d <= bound + tol else "violated",
        "var_2d": var2d,
        "bound": bound,
    }


# ---------------------------------------------------------------------------
# Planar fixtures
# ---------------------------------------------------------------------------

def two_squares_function() -> RectFunction:
    """Unit charges on two shrinking square families at dyadic anchors.

    Squares centred at (1/4, 1/2) have even dyadic sides, squares at
    (3/4, 1/2) odd dyadic sides; both families share the line y = 1/2, so
    a full grid can isolate at most one family member while a guillotine
    tiling can hold one of each.
    """
    cx1, cx2, cy = Dyadic(1, 2), Dyadic(3, 2), Dyadic(1, 1)

    def ev(r: Rect) -> float:
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

    def specials(region: Rect, e: Dyadic) -> list[Rect]:
        j = max(3, -floor_log2(e))
        n = (j + 3) // 2
        side_p = Dyadic(1, 2 * n)            # even exponent, <= e/8
        side_q = Dyadic(1, 2 * n + 1)
        out = []
        for cx, side in ((cx1, side_p), (cx2, side_q)):
            h = side.half()
            out.append(closed_rect(cx - h, cx + h, cy - h, cy + h))
        return out

    return RectFunction("two_squares", ev, bracket_independent=True,
                        special_rects=specials)


def bottom_strips_function() -> RectFunction:
    """Density charges along the bottom edge with half-dependent scales.

    Cells with bottom edge on y=0 and top edge at an even dyadic height
    count their width on the left half; odd dyadic heights count on the
    right half.  A full grid bottom row has one height, so restricted
    estimates reach only 1/2 while guillotine tilings reach 1.
    """
    half, one = Dyadic(1, 1), Dyadic(1)

    def ev(r: Rect) -> float:
        if r.y.lo != ZERO or r.y.hi.num != 1 or r.y.hi.exp < 2:
            return 0.0
        even = r.y.hi.exp % 2 == 0
        if even and r.x.hi <= half:
            return float(r.x.length)
        if not even and half <= r.x.lo and r.x.hi <= one:
            return float(r.x.length)
        return 0.0

    def specials(region: Rect, e: Dyadic) -> list[Rect]:
        j = max(3, -floor_log2(e))
        n = (j + 3) // 2
        h_left = Dyadic(1, 2 * n)
        h_right = Dyadic(1, 2 * n + 1)
        return [closed_rect(ZERO, half, ZERO, h_left),
                closed_rect(half, one, ZERO, h_right)]

    return RectFunction("bottom_strips", ev, bracket_independent=True,
                        special_rects=specials)


def area_function() -> RectFunction:
    return RectFunction("mT", lambda r: float(r.area),
                        bracket_independent=True)


def product_function(g1: IntervalFunction, g2: IntervalFunction,
                     name: str = "") -> RectFunction:
    return RectFunction(
        name or f"{g1.name}*{g2.name}",
        lambda r: g1(r.x) * g2(r.y),
        bracket_independent=g1.bracket_independent and g2.bracket_independent,
    )
