"""Dyadic test inputs keyed at one exponent for the keyed builders: planar
cells as closed Rects, and pools of Intervals as scored pack pools."""

from burkill.core import Dyadic
from burkill.integrator import Candidate, _key
from burkill.planar import (
    _cell,
    _exp,
    _grid_cells,
    _guillotine_cells,
    closed_rect,
)
from burkill.variation import _ScoredPool


def cell_rects(region, s, x_anchor=(), y_anchor=(), specials=None):
    """The restricted grid's cells over region at spacing s, chopped from
    the anchors, or the guillotine tiling's around specials when they are
    given, as closed Rects."""
    ex = max(s.exp, _exp(region), *map(_exp, specials or ()),
             *(p.exp for p in (*x_anchor, *y_anchor)))
    if specials is None:
        cells = _grid_cells(_cell(region, ex), _key(s, ex),
                            [_key(a, ex) for a in x_anchor],
                            [_key(a, ex) for a in y_anchor])
    else:
        cells = _guillotine_cells(_cell(region, ex),
                                  [_cell(sp, ex) for sp in specials],
                                  _key(s, ex))
    return [closed_rect(*(Dyadic(k, ex) for k in cell)) for cell in cells]


def scored_pool(g, pool):
    """The pack pool of the Intervals' spans, in order, keyed at one
    exponent and scored."""
    ex = max((p.exp for iv in pool for p in (iv.lo, iv.hi)), default=0)
    keys = [_key(p, ex) for iv in pool for p in (iv.lo, iv.hi)]
    return _ScoredPool(g, Candidate(keys, ex, [(i, i + 2) for i in
                                               range(0, len(keys), 2)]))
