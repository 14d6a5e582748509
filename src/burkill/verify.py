"""The acceptance suite: one check per criterion, shared by the CLI and the
test module.  Every check is deterministic for a fixed configuration."""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .catalog import (
    INF,
    cantor_staircase_function,
    fixture,
    fixture_names,
    k_jump_locked_function,
    length_fn,
    poly,
    pow2,
    stieltjes,
)
from .core import Dyadic, Region, ZERO, dmid
from .density import MeasurableSet, density_integral
from .errors import BurkillError
from .integrator import (
    SearchConfig,
    additivity_defect,
    brute_force_extremal,
    estimate_k_limits,
    estimate_norm_limits,
    extremal_sum,
    defect_report_at,
    k_chain_reports,
    scan_candidates,
)
from .planar import (
    area_function,
    bottom_strips_function,
    closed_rect,
    estimate_norm_limits_2d,
    fubini_chain,
    planar_config,
    product_function,
    two_squares_function,
)
from .reporting import limit_report_json
from .variation import (
    is_absolutely_continuous,
    j_singularity,
    scored_pack_pool,
    variation,
)
from .walsh import (
    StepFunction,
    continuity_bound,
    determinant_identity_check,
    measure_functional,
    orthogonality_check,
    pf_identity_residual,
    poly_integral_functional,
    sign_table,
    span_check,
    step_integral_functional,
    symmetry_check,
)

TOL_EXACT = 1e-9
TOL_FLOAT = 1e-6


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.criterion:2d} {self.name}: {self.detail}"


def _cfg_fine() -> SearchConfig:
    return SearchConfig(e_schedule=tuple(Dyadic(1, k) for k in range(3, 13)))


def _cfg_geo() -> SearchConfig:
    # smooth density runs need no special-point candidates; the dyadic set
    # edges align with the grids, so plain and offset grids are exact
    return SearchConfig(e_schedule=tuple(Dyadic(1, k) for k in (3, 6, 9, 12)),
                        use_special_points=False)


def check_1_saks() -> CheckResult:
    fx = fixture("saks_A_counterexample")
    cfg = _cfg_fine()
    want = [((ZERO, Dyadic(1)), 1.0), ((Dyadic(1), Dyadic(2)), 0.0),
            ((ZERO, Dyadic(2)), 1.0)]
    details = []
    ok = True
    for (a, b), target in want:
        rep = estimate_norm_limits(fx.fn, Region.interval(a, b), cfg)
        details.append(f"upper[{a},{b}]={rep.upper!r}")
        ok = ok and abs(rep.upper - target) <= TOL_EXACT
    one = Dyadic(1)
    for n in range(2, 7):
        d = additivity_defect(fx.fn, one - pow2(2 * n), one, one + pow2(2 * n))
        ok = ok and d == 1.0
    details.append("defect@1=1 exactly")
    return CheckResult(1, "saks counterexample", ok, "; ".join(details))


def check_2_bracket_optimizer() -> CheckResult:
    rng = random.Random(20403)
    names = fixture_names()
    checked = 0
    ok = True
    for i in range(1000):
        fx = fixture(names[i % len(names)])
        comp = fx.region.components[rng.randrange(len(fx.region.components))]
        span = comp[1] - comp[0]
        m = rng.randint(1, 6)
        raws = sorted(rng.sample(range(0, 1025), m + 1))
        pts = [comp[0] + span * Dyadic(r, 10) for r in raws]
        sub = Region.interval(pts[0], pts[-1])
        for sense in ("max", "min"):
            fast, _ = extremal_sum(fx.fn, pts, sub, sense)
            slow = brute_force_extremal(fx.fn, pts, sub, sense)
            if fast != slow:
                ok = False
        checked += 1
    return CheckResult(2, "bracket optimizer exactness", ok,
                       f"{checked} random point sets, m <= 6, exact match")


def check_3_k_convention() -> CheckResult:
    fx = fixture("k_convention_jump")
    cfg = _cfg_fine()
    rep_g = estimate_k_limits(fx.fn, fx.region, list(fx.permanent), cfg)
    h = k_jump_locked_function()
    rep_h = estimate_k_limits(h, fx.region, list(fx.permanent), cfg)
    ok = (abs(rep_g.upper - 2.0) <= TOL_FLOAT
          and abs(rep_h.upper - 1.0) <= TOL_FLOAT
          and abs(rep_h.lower - 1.0) <= TOL_FLOAT)
    return CheckResult(
        3, "k-convention fixture", ok,
        f"upper(g)={rep_g.upper!r}, upper(h)={rep_h.upper!r}, "
        f"lower(h)={rep_h.lower!r}")


def check_4_inequality_chain() -> CheckResult:
    cfg = SearchConfig(e_schedule=tuple(Dyadic(1, k) for k in range(3, 11)))
    ok = True
    tested = []
    for name in ("saks_A_counterexample", "origin_indicator",
                 "k_convention_jump", "m_power_singularity",
                 "density_left_limit", "osc_left_limit"):
        fx = fixture(name)
        perms = list(fx.permanent) or [(dmid(*fx.region.components[0]), None)]
        norm_rep, k_rep = k_chain_reports(fx.fn, fx.region, perms, cfg)
        for nl, kl in zip(norm_rep.levels, k_rep.levels):
            if not (nl.lower <= kl.lower <= kl.upper <= nl.upper):
                ok = False
        tested.append(name)
    return CheckResult(4, "norm/k inequality chain", ok,
                       f"shared-candidate chain on {len(tested)} fixtures")


def check_5_planar_gap() -> CheckResult:
    cfg = planar_config()
    unit = closed_rect(ZERO, Dyadic(1), ZERO, Dyadic(1))
    sq = two_squares_function()
    ext = estimate_norm_limits_2d(sq, unit, "extended", cfg).upper
    res = estimate_norm_limits_2d(sq, unit, "restricted", cfg).upper
    st = bottom_strips_function()
    ext2 = estimate_norm_limits_2d(st, unit, "extended", cfg).upper
    res2 = estimate_norm_limits_2d(st, unit, "restricted", cfg).upper
    ok = (abs(ext - 2.0) <= TOL_EXACT and abs(res - 1.0) <= TOL_EXACT
          and abs(ext2 - 1.0) <= TOL_EXACT and abs(res2 - 0.5) <= TOL_EXACT)
    return CheckResult(
        5, "planar restricted/extended gap", ok,
        f"squares: {ext!r} vs {res!r}; strips: {ext2!r} vs {res2!r}")


def check_6_fubini() -> CheckResult:
    one = Dyadic(1)
    unit = closed_rect(ZERO, one, ZERO, one)
    g1 = stieltjes(poly("x^2", [0, 0, 1]))
    g2 = stieltjes(poly("y^3", [0, 0, 0, 1]))
    prod = product_function(g1, g2)
    rep_prod = fubini_chain(prod, unit)
    collapse = all(abs(v - 1.0) <= TOL_EXACT for v in (
        rep_prod.lower_2d, rep_prod.iterated_lower,
        rep_prod.iterated_upper, rep_prod.upper_2d))

    rep_area = fubini_chain(area_function(), unit)
    # width times the charge at 0 in y
    asym = product_function(length_fn(), fixture("origin_indicator").fn,
                            name="asym")
    tall = closed_rect(ZERO, one, -one, one)
    rep_asym = fubini_chain(asym, tall)
    ok = (rep_prod.ordered and rep_area.ordered and rep_asym.ordered
          and collapse
          and abs(rep_area.upper_2d - 1.0) <= TOL_EXACT)
    return CheckResult(
        6, "Fubini-type chain", ok,
        f"product collapse={collapse}, asym=({rep_asym.lower_2d!r}, "
        f"{rep_asym.iterated_lower!r}, {rep_asym.iterated_upper!r}, "
        f"{rep_asym.upper_2d!r})")


def _total_variation_oracle(f, n: int = 1 << 15) -> float:
    """Independent fine-partition total variation of a point function."""
    total = 0.0
    prev = f(ZERO)
    for i in range(1, n + 1):
        cur = f(Dyadic(i, 15))
        total += abs(cur - prev)
        prev = cur
    return total


def check_7_variation() -> CheckResult:
    cfg = _cfg_fine()
    fq = poly("x(1-x)", [0, 1, -1])
    gq = stieltjes(fq)
    rep = variation(gq, Region.interval(ZERO, Dyadic(1)), cfg)
    oracle = _total_variation_oracle(fq)
    ok = abs(rep.total - oracle) <= TOL_FLOAT

    blocks = fixture("dyadic_blocks")
    vb = variation(blocks.fn, blocks.region, cfg)
    jb = j_singularity(blocks.fn, blocks.region, ZERO, cfg)
    ok = ok and vb.verdict == "infinite" and jb == INF

    # additivity defect is bounded by twice the local variation, at the
    # fixtures' own singular points and at scanned candidates
    points_checked = 0
    for name in fixture_names():
        fx = fixture(name)
        scan = list(fx.scan_points) + scan_candidates(fx.fn, fx.region,
                                                      cfg)[:3]
        seen = set()
        for y in scan:
            if y in seen or not any(lo < y < hi
                                    for lo, hi in fx.region.components):
                continue
            seen.add(y)
            c = defect_report_at(fx.fn, fx.region, y, cfg).c
            j = j_singularity(fx.fn, fx.region, y, cfg)
            points_checked += 1
            if j != INF and not c <= 2 * j + TOL_FLOAT:
                ok = False
    return CheckResult(
        7, "variation", ok,
        f"Var(S(x(1-x)))={rep.total!r} vs oracle {oracle!r}; "
        f"blocks {vb.verdict}, j(0)={jb!r}; c<=2j at {points_checked} points")


def check_8_absolute_continuity() -> CheckResult:
    cfg = _cfg_fine()
    region = Region.interval(ZERO, Dyadic(1))
    ac_len, trace_len = is_absolutely_continuous(length_fn(), region, cfg)
    len_exact = all(val <= float(mu) + 1e-15 for mu, val in trace_len)

    stair, _spans = cantor_staircase_function()
    scored = scored_pack_pool(stair, region, cfg)
    ac_stair, _ = is_absolutely_continuous(stair, region, cfg, scored=scored)
    mu = Fraction(2, 3) ** 12 + Fraction(1, 1 << 14)
    carried, _ = scored.pack(mu, "max")

    bv_ok = True
    for g in (length_fn(), stieltjes(poly("x^2", [0, 0, 1]))):
        acg, _ = is_absolutely_continuous(g, region, cfg)
        if acg:
            rep = variation(g, region, cfg)
            bv_ok = bv_ok and rep.verdict == "finite"
    ok = (ac_len and len_exact and not ac_stair and carried >= 0.99 and bv_ok)
    return CheckResult(
        8, "absolute continuity", ok,
        f"mI AC={ac_len}; staircase AC={ac_stair}, pack carries "
        f"{carried!r}; AC=>bv holds={bv_ok}")


def check_9_density() -> CheckResult:
    cfg = _cfg_geo()
    W = Region.interval(ZERO, Dyadic(1))
    derivs = [
        (poly("x", [0, 1]), lambda t: 1.0),
        (poly("x^2", [0, 0, 1]), lambda t: 2.0 * t),
        (poly("x^3", [0, 0, 0, 1]), lambda t: 3.0 * t * t),
        (poly("x^4+x", [0, 1, 0, 0, 1]), lambda t: 4.0 * t ** 3 + 1.0),
        (poly("x^5-x^2", [0, 0, -1, 0, 0, 1]),
         lambda t: 5.0 * t ** 4 - 2.0 * t),
    ]
    q = Dyadic(1, 2)
    h = Dyadic(1, 1)
    sets = [
        MeasurableSet.from_spans([(ZERO, h)]),
        MeasurableSet.from_spans([(q, Dyadic(3, 2))]),
        MeasurableSet.from_spans([(ZERO, q), (h, Dyadic(3, 2))]),
        MeasurableSet.from_spans([(Dyadic(1, 3), q), (Dyadic(3, 3), h),
                                  (Dyadic(5, 3), Dyadic(3, 2))]),
        MeasurableSet.from_spans([(ZERO, Dyadic(1))]),
    ]
    ok = True
    worst = 0.0
    for f, deriv in derivs:
        g = stieltjes(f)
        for E in sets:
            rep = density_integral(g, E, W, cfg, gprime=deriv)
            mid = 0.5 * (rep.upper + rep.lower)
            err = abs(mid - rep.lebesgue_ref)
            worst = max(worst, err)
            ok = ok and err <= 1e-4
    empty = density_integral(length_fn(), MeasurableSet.empty(), W, cfg)
    ok = ok and empty.upper == 0.0 and empty.lower == 0.0

    fx = fixture("density_left_limit")
    E = MeasurableSet(list(fx.companion_sets["oscillating_blocks"]))
    cfg_fine = _cfg_fine()
    rep = density_integral(fx.fn, E, fx.region, cfg_fine)
    ok = (ok and abs(rep.upper - 1.0) <= TOL_EXACT
          and abs(rep.lower) <= TOL_EXACT)
    return CheckResult(
        9, "density integration", ok,
        f"worst |density-Lebesgue|={worst!r}; empty E exact; "
        f"left-limit upper={rep.upper!r} lower={rep.lower!r}")


def check_10_sign_tables() -> CheckResult:
    ok = True
    for n in range(1, 13):
        t = sign_table(n)
        ok = ok and orthogonality_check(t) == 0 and symmetry_check(t)
    for n in range(1, 9):
        ok = ok and span_check(sign_table(n))

    rng = random.Random(40961)
    w_vals = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                   for _ in range(8))
    w = StepFunction(4, w_vals)
    f_vals = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 7))
                   for _ in range(128))
    f = StepFunction(8, f_vals)
    res_exact = pf_identity_residual(step_integral_functional(w), f, 6)
    ok = ok and res_exact == 0.0
    res_float = pf_identity_residual(measure_functional(),
                                     lambda x: x, 6)
    ok = ok and res_float <= 1e-9

    gs = [Fraction(1, 3), Fraction(-2, 5)]
    ms = [Fraction(1, 4), Fraction(1, 2)]
    ok = ok and determinant_identity_check(gs, ms, Fraction(3, 2)) == 0.0
    for n in range(2, 9):
        gvals = [rng.uniform(-1.0, 1.0) for _ in range(n)]
        mvals = [rng.uniform(0.1, 1.0) for _ in range(n)]
        ok = ok and determinant_identity_check(gvals, mvals, 2.5) <= 1e-10

    bound = continuity_bound(poly_integral_functional([0, 2], "2x"))
    target = 4.0 / 3.0
    ok = ok and bound <= target + 1e-12 and target - bound <= 1e-3
    return CheckResult(
        10, "sign-table system", ok,
        f"orthogonality/symmetry n<=12, span n<=8, residual {res_exact!r}, "
        f"continuity bound {bound!r}")


def _determinism_snapshot() -> bytes:
    cfg = SearchConfig(e_schedule=tuple(Dyadic(1, k) for k in range(3, 10)))
    fx = fixture("saks_A_counterexample")
    parts = [
        limit_report_json(estimate_norm_limits(
            fx.fn, Region.interval(ZERO, Dyadic(2)), cfg)),
        sign_table(6).to_csv(),
        json.dumps(fixture("origin_indicator").manifest(), sort_keys=False),
        limit_report_json(estimate_norm_limits_2d(
            two_squares_function(),
            closed_rect(ZERO, Dyadic(1), ZERO, Dyadic(1)),
            "extended", planar_config())),
    ]
    return "\n".join(parts).encode()


def check_11_determinism() -> CheckResult:
    a = _determinism_snapshot()
    b = _determinism_snapshot()
    return CheckResult(11, "determinism", a == b,
                       f"{len(a)} report bytes identical across reruns")


ALL_CHECKS = {
    1: check_1_saks,
    2: check_2_bracket_optimizer,
    3: check_3_k_convention,
    4: check_4_inequality_chain,
    5: check_5_planar_gap,
    6: check_6_fubini,
    7: check_7_variation,
    8: check_8_absolute_continuity,
    9: check_9_density,
    10: check_10_sign_tables,
    11: check_11_determinism,
}


def run_all(criteria: Optional[list[int]] = None) -> list[CheckResult]:
    unknown = sorted(set(criteria or ()) - set(ALL_CHECKS))
    if unknown:
        raise ValueError(f"unknown criteria {unknown}; "
                         f"choose from {sorted(ALL_CHECKS)}")
    results = []
    for num in sorted(ALL_CHECKS):
        if criteria and num not in criteria:
            continue
        try:
            results.append(ALL_CHECKS[num]())
        except BurkillError as exc:  # surface failures, never crash verify
            results.append(CheckResult(num, ALL_CHECKS[num].__name__, False,
                                       f"error: {exc}"))
    return results
