"""Rectangle functions: 16 bracket conventions, restricted (full-grid) versus
extended (guillotine) divisions, norm-limit estimation, and the iterated
chain of Fubini type.

Extended-division generation is guillotine: recursive axis-aligned splits
seeded to contain each function's special rectangles.  Restricted grids
chop both axes with pieces between s and 2s, so a regularity floor of 1/2
holds for plain grid cells.  Both are built as integer cells at one
exponent; searches keep one memo per level and no state between calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .catalog import INF, IntervalFunction, length_fn, xsum
from .core import (
    Dyadic,
    Interval,
    Region,
    ZERO,
    floor_log2,
    key_float,
)
from .errors import BudgetExceeded
from .integrator import (
    LevelEstimate,
    LimitReport,
    SearchConfig,
    _VARIANTS,
    _grid_spacing,
    _iterated_search,
    _key,
    _tightened_report,
    estimate_norm_limits,
)


@dataclass(frozen=True)
class Rect:
    """A bracketed rectangle: an x-interval times a y-interval."""

    x: Interval
    y: Interval

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


class _Points(dict):
    """Key -> Dyadic(key, ex): a level's cells share their edges."""

    def __init__(self, ex: int):
        super().__init__()
        self.ex = ex

    def __missing__(self, k: int) -> Dyadic:
        p = self[k] = Dyadic(k, self.ex)
        return p


class RectFunction:
    """Pure map Rect -> real with special-rectangle hints.

    cell(x0, x1, y0, y1, ex, xb, yb) is the function on the integer cell
    [x0/2^ex, x1/2^ex] x [y0/2^ex, y1/2^ex] with the bracket pairs xb and
    yb.  Searches evaluate it only through cell.  A function given only
    cell answers a Rect through it, and one given only func answers cell
    through an adapter that builds the Rect from the keys.
    """

    def __init__(self, name: str,
                 func: Optional[Callable[[Rect], float]] = None, *,
                 cell: Optional[Callable[..., float]] = None,
                 bracket_independent: bool = False,
                 special_rects=None):
        if func is None and cell is None:
            raise ValueError(f"{name} needs func or cell")
        self.name = name
        self._func = func or self._from_cell
        self.cell = cell or self._to_cell
        self._pts = _Points(0)           # the adapter's Dyadics, one per key
        self._x = (None,) * 5            # the adapter's last x keys and side
        self.bracket_independent = bracket_independent
        self._special = special_rects

    def __call__(self, rect: Rect) -> float:
        return self._func(rect)

    def _from_cell(self, r: Rect) -> float:
        ex = _exp(r)
        return self.cell(*_cell(r, ex), ex,
                         (r.x.left_closed, r.x.right_closed),
                         (r.y.left_closed, r.y.right_closed))

    def _to_cell(self, x0: int, x1: int, y0: int, y1: int, ex: int,
                 xb, yb) -> float:
        # searches score a column's cells in turn, so a cell mostly repeats
        # the last one's x side: reuse that Interval
        last_x0, last_x1, last_ex, last_xb, x = self._x
        pts = self._pts
        if x0 != last_x0 or x1 != last_x1 or ex != last_ex or xb != last_xb:
            if pts.ex != ex:
                pts = self._pts = _Points(ex)
            x = Interval.raw(pts[x0], pts[x1], *xb)
            self._x = (x0, x1, ex, xb, x)
        return self._func(Rect(x, Interval.raw(pts[y0], pts[y1], *yb)))

    def special_rects(self, region: Rect, e: Dyadic) -> list[Rect]:
        return list(self._special(region, e)) if self._special else []


def _chop(a: int, b: int, s: int) -> list[int]:
    """Cut points of [a, b] with pieces in [s, 2s); short spans stay whole."""
    return [a, *range(a + s, b - s + 1, s), b]


def _cells(xs: Sequence[int], ys: Sequence[int]) -> list[tuple]:
    return [(x0, x1, y0, y1) for x0, x1 in zip(xs, xs[1:])
            for y0, y1 in zip(ys, ys[1:])]


def _grid_cells(region: tuple, s: int, x_anchor: Sequence[int] = (),
                y_anchor: Sequence[int] = ()) -> list[tuple]:
    """Full crossing lines chopped outward from the anchors inside the
    region."""
    def lines(lo, hi, anchors):
        cuts = sorted({lo, hi, *(a for a in anchors if lo < a < hi)})
        return [lo] + [k for a, b in zip(cuts, cuts[1:])
                       for k in _chop(a, b, s)[1:]]

    return _cells(lines(*region[:2], x_anchor), lines(*region[2:], y_anchor))


def _guillotine_cells(region: tuple, specials: Sequence[tuple],
                      s: int) -> list[tuple]:
    rx0, rx1, ry0, ry1 = region
    xs = sorted({rx0, rx1, *(k for sp in specials for k in sp[:2])})
    cells: list[tuple] = []
    for x0, x1 in zip(xs, xs[1:]):
        cols = _chop(x0, x1, s)
        own = next((sp[2:] for sp in specials
                    if sp[0] <= x0 and x1 <= sp[1]), None)
        bands = [(ry0, own[0]), own, (own[1], ry1)] if own else [(ry0, ry1)]
        for b0, b1 in bands:
            if b0 < b1:
                cells += _cells(cols, [b0, b1] if (b0, b1) == own
                                else _chop(b0, b1, s))
    return cells


def _exp(r: Rect) -> int:
    return max(r.x.lo.exp, r.x.hi.exp, r.y.lo.exp, r.y.hi.exp)


def _cell(r: Rect, ex: int) -> tuple:
    """A rectangle's edges as integer keys at the exponent ex."""
    return (_key(r.x.lo, ex), _key(r.x.hi, ex),
            _key(r.y.lo, ex), _key(r.y.hi, ex))


def planar_config(**overrides) -> SearchConfig:
    overrides.setdefault("e_schedule", tuple(Dyadic(1, k) for k in (3, 4, 5)))
    return SearchConfig(**overrides)


class _CellMemo(dict):
    """Cell -> gT's largest and smallest value over the cell's bracket
    variants (ties keep the first, in Rect.variants order)."""

    def __init__(self, gT: RectFunction, ex: int):
        super().__init__()
        self.cell, self.ex = gT.cell, ex
        self.brackets = _VARIANTS[3:] if gT.bracket_independent else _VARIANTS

    def __missing__(self, cell: tuple) -> tuple[float, float]:
        brackets, ex, keyed = self.brackets, self.ex, self.cell
        vals = [keyed(*cell, ex, xb, yb) for xb in brackets for yb in brackets]
        out = self[cell] = (max(vals), min(vals))
        return out


def estimate_norm_limits_2d(
    gT: RectFunction,
    region: Rect,
    mode: str = "extended",
    cfg: Optional[SearchConfig] = None,
) -> LimitReport:
    """Norm-limit estimates over restricted grids or guillotine tilings.

    A level's candidates are integer cells at one exponent that holds the
    region, the spacing and the special rectangles' edges; every candidate
    is scored in one pass against one memo, dropped when the level ends.
    """
    if mode not in ("restricted", "extended"):
        raise ValueError("mode must be 'restricted' or 'extended'")
    cfg = cfg or planar_config()
    if cfg.convention_mode != "optimize":
        raise ValueError(f"planar searches optimize every cell's brackets; "
                         f"convention_mode {cfg.convention_mode!r} is not "
                         f"supported")
    levels = []
    for e in cfg.e_schedule:
        # cells up to 2s per side keep the diameter under e when s <= e/4
        s = _grid_spacing(e, 4)
        specials = gT.special_rects(region, e)
        ex = max(s.exp, _exp(region), *map(_exp, specials))
        reg, sk = _cell(region, ex), _key(s, ex)
        sps = [_cell(sp, ex) for sp in specials]
        cands = [_grid_cells(reg, sk)]
        cands += [_grid_cells(reg, sk, sp[:2], sp[2:]) for sp in sps]
        if mode == "extended" and sps:
            cands.append(_guillotine_cells(reg, sps, sk))
            cands += [_guillotine_cells(reg, [sp], sk) for sp in sps]
        for cells in cands:
            if len(cells) > cfg.max_points:
                raise BudgetExceeded(
                    f"{len(cells)} cells exceed {cfg.max_points}")
        memo = _CellMemo(gT, ex)
        vals = [[memo[c] for c in cells] for cells in cands]
        # as in _search_levels, a NaN sum never wins a level
        levels.append(LevelEstimate(
            e, max([-INF, *(xsum(up for up, _ in vs) for vs in vals)]),
            min([INF, *(xsum(low for _, low in vs) for vs in vals)])))
    return _tightened_report(levels, cfg.tol_float)


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


def fubini_chain(
    gT: RectFunction,
    region: Rect,
    cfg: Optional[SearchConfig] = None,
    tol: float = 1e-9,
) -> FubiniReport:
    """Column-division chain: 2D bounds enclose the iterated x-of-y bounds.

    Every level is read.  Each of its four bounds is a one-level search of
    the shared iterated builder over column divisions of the x-side, which
    scores a column, through gT.cell, by the best bound of its inner
    y-report over its brackets: the iterated bounds read the inner
    tightened bounds, the 2D bounds at level i read the inner level i,
    which forces the ordering.
    """
    cfg = cfg or SearchConfig(
        e_schedule=tuple(Dyadic(1, k) for k in (2, 3, 4)))
    rx = Region.interval(region.x.lo, region.x.hi)
    ry = Region.interval(region.y.lo, region.y.hi)
    cell = gT.cell

    def column(a: int, b: int, ex: int, lc: bool, rc: bool) -> LimitReport:
        def span(ya: int, yb: int, ey: int, ylc: bool, yrc: bool) -> float:
            # the cell's keys at the larger of the two exponents
            if ey < ex:
                d = ex - ey
                return cell(a, b, ya << d, yb << d, ex, (lc, rc), (ylc, yrc))
            d = ey - ex
            return cell(a << d, b << d, ya, yb, ey, (lc, rc), (ylc, yrc))

        return estimate_norm_limits(IntervalFunction(
            "column", span=span, bracket_independent=gT.bracket_independent),
            ry, cfg)

    # columns publish no special points, so only the grids are candidates
    inner, bound = _iterated_search(column, rx, cfg, gT.bracket_independent)
    levels = []
    for i, e in enumerate(cfg.e_schedule):
        levels.append((
            e, bound(lambda *s: inner(*s).levels[i].lower, min, e).lower,
            bound(lambda *s: inner(*s).lower, min, e).lower,
            bound(lambda *s: inner(*s).upper, max, e).upper,
            bound(lambda *s: inner(*s).levels[i].upper, max, e).upper))
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
    v1 = variation(g1, rx, cfg)
    v2 = variation(g2, ry, cfg)
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

def _pow2_exp(d: int, ex: int) -> int:
    """k when d/2^ex is 2^-k, k >= 2 (the lengths that charge a planar
    fixture), else -1."""
    k = ex - d.bit_length() + 1
    return k if d > 0 and d & (d - 1) == 0 and k >= 2 else -1


def two_squares_function() -> RectFunction:
    """Unit charges on two shrinking square families at dyadic anchors.

    Squares centred at (1/4, 1/2) have even dyadic sides, squares at
    (3/4, 1/2) odd dyadic sides; both families share the line y = 1/2, so
    a full grid can isolate at most one family member while a guillotine
    tiling can hold one of each.
    """
    cx1, cx2, cy = Dyadic(1, 2), Dyadic(3, 2), Dyadic(1, 1)

    def cell(x0: int, x1: int, y0: int, y1: int, ex: int, xb, yb) -> float:
        # side 2^-k, k >= 2; centre (1/4, 1/2) for even k, (3/4, 1/2) odd
        k = _pow2_exp(x1 - x0, ex)
        if k < 0 or y1 - y0 != x1 - x0 or y0 + y1 != 1 << ex:
            return 0.0
        return 1.0 if (x0 + x1) << 1 == (3 if k % 2 else 1) << ex else 0.0

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

    return RectFunction("two_squares", cell=cell, bracket_independent=True,
                        special_rects=specials)


def bottom_strips_function() -> RectFunction:
    """Density charges along the bottom edge with half-dependent scales.

    Cells with bottom edge on y=0 and top edge at an even dyadic height
    count their width on the left half; odd dyadic heights count on the
    right half.  A full grid bottom row has one height, so restricted
    estimates reach only 1/2 while guillotine tilings reach 1.
    """
    half, one = Dyadic(1, 1), Dyadic(1)

    def cell(x0: int, x1: int, y0: int, y1: int, ex: int, xb, yb) -> float:
        # height 2^-k, k >= 2: even k counts on [0, 1/2], odd on [1/2, 1]
        k = _pow2_exp(y1, ex) if y0 == 0 else -1
        if k < 0:
            return 0.0
        if (x1 << 1 <= 1 << ex if k % 2 == 0
                else 1 << ex <= x0 << 1 and x1 <= 1 << ex):
            return key_float(x1 - x0, ex)
        return 0.0

    def specials(region: Rect, e: Dyadic) -> list[Rect]:
        j = max(3, -floor_log2(e))
        n = (j + 3) // 2
        h_left = Dyadic(1, 2 * n)
        h_right = Dyadic(1, 2 * n + 1)
        return [closed_rect(ZERO, half, ZERO, h_left),
                closed_rect(half, one, ZERO, h_right)]

    return RectFunction("bottom_strips", cell=cell, bracket_independent=True,
                        special_rects=specials)


def area_function() -> RectFunction:
    return product_function(length_fn(), length_fn(), name="mT")


def product_function(g1: IntervalFunction, g2: IntervalFunction,
                     name: str = "") -> RectFunction:
    s1, s2 = g1.span, g2.span

    def cell(x0: int, x1: int, y0: int, y1: int, ex: int, xb, yb) -> float:
        return s1(x0, x1, ex, *xb) * s2(y0, y1, ex, *yb)

    return RectFunction(
        name or f"{g1.name}*{g2.name}", cell=cell,
        bracket_independent=g1.bracket_independent and g2.bracket_independent,
    )
