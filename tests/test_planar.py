from fractions import Fraction

import pytest

from burkill.catalog import (
    IntervalFunction,
    fixture,
    length_fn,
    poly,
    stieltjes,
    xsum,
)
from burkill.core import Dyadic, Region, ZERO
from burkill.planar import (
    RectFunction,
    _chop,
    _grid_cells,
    area_function,
    bottom_strips_function,
    closed_rect,
    estimate_norm_limits_2d,
    fubini_chain,
    planar_config,
    product_function,
    two_squares_function,
)
from burkill.integrator import estimate_norm_limits
from keyed_inputs import cell_rects

D = Dyadic
UNIT_SQ = closed_rect(ZERO, D(1), ZERO, D(1))


NAN = float("nan")


class TestNanRule:
    """A NaN candidate sum never wins a planar level, as in the 1-D level
    loop."""

    @pytest.mark.parametrize("mode", ["restricted", "extended"])
    def test_nan_everywhere_reads_as_in_one_dimension(self, mode):
        cfg = planar_config(e_schedule=(D(1, 2), D(1, 3)))
        gT = RectFunction("nan", cell=lambda *cell: NAN,
                          bracket_independent=True)
        g = IntervalFunction("nan", span=lambda *span: NAN)
        rep = estimate_norm_limits_2d(gT, UNIT_SQ, mode, cfg)
        want = "oscillating(upper=-inf, lower=inf)"
        assert str(rep.verdict) == want
        assert str(estimate_norm_limits(g, Region.interval(ZERO, D(1)),
                                        cfg).verdict) == want

    def test_a_candidate_with_a_nan_cell_loses(self):
        # NaN on the cells inside S = [0,1/2]^2 shorter than S; the grids
        # cut S into such cells, the guillotine tiling keeps S's height, and
        # every finite candidate sums the area 1 exactly
        def cell(x0, x1, y0, y1, ex, xb, yb):
            half = 1 << (ex - 1)
            if x1 <= half and y1 <= half and y1 - y0 < half:
                return NAN
            return (x1 - x0) * (y1 - y0) / (1 << 2 * ex)

        S = closed_rect(ZERO, D(1, 1), ZERO, D(1, 1))
        gT = RectFunction("nan_in_S", cell=cell, bracket_independent=True,
                          special_rects=lambda region, e: [S])
        rep = estimate_norm_limits_2d(
            gT, UNIT_SQ, "extended", planar_config(e_schedule=(D(1, 2),
                                                              D(1, 3))))
        assert [(lv.upper, lv.lower) for lv in rep.levels] == [(1.0, 1.0)] * 2
        assert rep.verdict.kind == "converged"


class TestRectBasics:
    def test_area(self):
        r = closed_rect(ZERO, D(3, 2), ZERO, D(1, 1))
        assert area_function()(r) == 0.375

    def test_sixteen_variants(self):
        assert len({str(v) for v in UNIT_SQ.variants()}) == 16

    def test_chop_piece_sizes(self):
        keys = _chop(0, 13, 2)                   # [0, 13/16] by 1/8, at 2^-4
        gaps = [Fraction(b - a, 16) for a, b in zip(keys, keys[1:])]
        for gap in gaps:
            assert 1 / 8 <= gap < 1 / 4
        assert sum(gaps) == Fraction(13, 16)


class TestDivisions:
    def test_grid_partitions_area(self):
        cells = _grid_cells((0, 8, 0, 8), 1)     # the unit square by 1/8
        assert sum((x1 - x0) * (y1 - y0) for x0, x1, y0, y1 in cells) == 64

    def test_grid_regularity_floor(self):
        # the unit square at 2^-4, spacing 1/16, anchors at 5/16 and 1/4
        cells = _grid_cells((0, 16, 0, 16), 1, [5], [4])
        for x0, x1, y0, y1 in cells:
            w, h = x1 - x0, y1 - y0
            assert 2 * min(w, h) >= max(w, h)

    def test_seeded_partitions_area(self):
        sq = two_squares_function()
        specials = sq.special_rects(UNIT_SQ, D(1, 4))
        rects = cell_rects(UNIT_SQ, D(1, 6), specials=specials)
        assert sum((r.x.length * r.y.length).as_fraction()
                   for r in rects) == 1
        charged = [r for r in rects if sq(r) == 1.0]
        assert len(charged) == 2

    def test_riemann_sum_area(self):
        rects = cell_rects(UNIT_SQ, D(1, 3))
        assert xsum(map(area_function(), rects)) == 1.0

    def test_riemann_sum_product_telescopes(self):
        f = poly("xy", [0, 1])
        gT = product_function(stieltjes(f), stieltjes(f))
        rects = cell_rects(UNIT_SQ, D(1, 3))
        assert abs(xsum(map(gT, rects)) - 1.0) < 1e-12

    def test_restricted_grid_isolates_one_square(self):
        sq = two_squares_function()
        sp = sq.special_rects(UNIT_SQ, D(1, 4))[0]
        rects = cell_rects(UNIT_SQ, D(1, 6), [sp.x.lo, sp.x.hi],
                           [sp.y.lo, sp.y.hi])
        assert xsum(map(sq, rects)) == 1.0


@pytest.fixture(scope="module")
def gap_reports():
    cfg = planar_config()
    out = {}
    for name, fn in (("squares", two_squares_function()),
                     ("strips", bottom_strips_function())):
        for mode in ("restricted", "extended"):
            out[name, mode] = estimate_norm_limits_2d(fn, UNIT_SQ, mode, cfg)
    return out


class TestPlanarGap:
    def test_two_squares(self, gap_reports):
        assert gap_reports["squares", "extended"].upper == 2.0
        assert gap_reports["squares", "restricted"].upper == 1.0

    def test_bottom_strips(self, gap_reports):
        assert gap_reports["strips", "extended"].upper == 1.0
        assert gap_reports["strips", "restricted"].upper == 0.5

    def test_area_converges_in_both_modes(self):
        cfg = planar_config()
        for mode in ("restricted", "extended"):
            rep = estimate_norm_limits_2d(area_function(), UNIT_SQ, mode, cfg)
            assert rep.verdict.kind == "converged"
            assert rep.verdict.value == 1.0

    def test_restricted_below_extended(self, gap_reports):
        for name in ("squares", "strips"):
            res = gap_reports[name, "restricted"]
            ext = gap_reports[name, "extended"]
            for r, x in zip(res.levels, ext.levels):
                assert r.upper <= x.upper + 1e-12

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            estimate_norm_limits_2d(area_function(), UNIT_SQ, "diagonal")

    def test_fixed_convention_is_rejected(self):
        cfg = planar_config(convention_mode="fixed")
        with pytest.raises(ValueError, match="'fixed'"):
            estimate_norm_limits_2d(area_function(), UNIT_SQ, "extended", cfg)


class TestFubini:
    def test_product_collapses(self):
        gT = product_function(stieltjes(poly("x^2", [0, 0, 1])),
                              stieltjes(poly("y^3", [0, 0, 0, 1])))
        rep = fubini_chain(gT, UNIT_SQ)
        assert rep.ordered
        for v in (rep.lower_2d, rep.iterated_lower, rep.iterated_upper,
                  rep.upper_2d):
            assert abs(v - 1.0) <= 1e-9

    def test_area_chain(self):
        rep = fubini_chain(area_function(), UNIT_SQ)
        assert rep.ordered
        assert abs(rep.upper_2d - 1.0) <= 1e-9

    def test_asymmetric_strict_ordering(self):
        charge = fixture("origin_indicator").fn
        gT = RectFunction("asym",
                          lambda r: float(r.x.length) * charge(r.y))
        tall = closed_rect(ZERO, D(1), D(-1), D(1))
        rep = fubini_chain(gT, tall)
        assert rep.ordered
        assert rep.iterated_upper - rep.iterated_lower >= 1.0


class TestProductBV:
    def test_length_times_length(self):
        from burkill.planar import product_bv_check
        unit = Region.interval(ZERO, D(1))
        out = product_bv_check(length_fn(), length_fn(), unit, unit)
        assert out["verdict"] == "holds"
        assert out["var_2d"] <= out["bound"] + 1e-9

    def test_hump_factor(self):
        from burkill.planar import product_bv_check
        unit = Region.interval(ZERO, D(1))
        out = product_bv_check(stieltjes(poly("x", [0, 1])),
                               stieltjes(poly("x(1-x)", [0, 1, -1])),
                               unit, unit)
        assert out["verdict"] == "holds"
        assert out["bound"] <= 0.5 + 1e-6

    def test_non_bv_factor_not_applicable(self):
        from burkill.planar import product_bv_check
        fx = fixture("dyadic_blocks")
        unit = Region.interval(ZERO, D(1))
        out = product_bv_check(fx.fn, length_fn(), fx.region, unit)
        assert out["verdict"] == "not-applicable"
