"""The three seeded workloads.

A workload is an endless sequence of blocks, and a run is made of whole
blocks.  Every block of a workload has the same design: which fixture,
request kind, level and region slot sits at each position is fixed.  The
seed draws the inputs (sub-region offsets, polynomials, measurable sets,
split intervals, sampling seeds), fresh for every block.  So runs with any
seed, and with any number of blocks, see the same mix of request sizes on
different inputs.  The library receives only the generated inputs.

Each request is a Request(kind, run, check).  run(api) makes the library
calls, serializes every result and returns (texts, result); check(result)
returns a list of problems and never raises.  api is tracing.Plain for
untraced runs and tracing.Tracer for the traced one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

from burkill.around_set import around_chain_check
from burkill.catalog import (
    INF,
    abs_fn,
    cantor_staircase_function,
    fixture,
    fixture_names,
    length_fn,
    poly,
    stieltjes,
)
from burkill.core import Dyadic, Interval, Region, ZERO, dmid
from burkill.density import (
    DensityReport,
    MeasurableSet,
    density_integral,
    density_kernel,
    lebesgue_reference,
)
from burkill.integrator import (
    SearchConfig,
    defect_report_at,
    estimate_norm_limits,
    estimate_sigma_limit,
    k_chain_reports,
    singularity_scan,
)
from burkill.planar import (
    bottom_strips_function,
    closed_rect,
    estimate_norm_limits_2d,
    fubini_chain,
    planar_config,
    product_function,
    two_squares_function,
)
from burkill.reporting import (
    defect_report_json,
    density_report_json,
    export,
    limit_report_json,
)
from burkill.variation import (
    is_absolutely_continuous,
    j_singularity,
    monotone_on_subdivision,
    variation,
    variation_split,
)
from burkill.walsh import orthogonality_check, sign_table, span_check, symmetry_check

TOL = 1e-6
ONE = Dyadic(1)
UNIT = Region.interval(ZERO, ONE)


def _no_targets() -> list:
    return []


@dataclass
class Request:
    kind: str
    run: Callable
    check: Callable
    # (g, region, cfg, extra points) of each 1-D norm search the request
    # runs, for the traced run's candidate-construction probe
    targets: Callable = _no_targets


def search_config(level: int) -> SearchConfig:
    """The CLI's schedule for --e-min 1/2^level: 2^-3 down to 2^-level."""
    return SearchConfig(e_schedule=tuple(Dyadic(1, k)
                                         for k in range(3, level + 1)))


def emit(api, fn, *args) -> str:
    """Serialize through a reporting function, inside a reporting span."""
    with api.span("reporting." + fn.__name__):
        text = fn(*args)
    api.note_bytes(len(text))
    return text


def _num(v: float):
    return v if v == v and abs(v) != INF else repr(v)


def _block_rng(seed: int, b: int) -> random.Random:
    """The generator of block b's inputs, independent of other blocks."""
    return random.Random(seed * 1_000_003 + b)


def _sub_regions(region: Region, rng: random.Random) -> list[Region]:
    """A region pool: the full region, and a half and a quarter of it at
    seed-drawn dyadic offsets."""
    (lo, hi), = region.components
    span = hi - lo
    out = [region]
    for sixteenths in (8, 4):
        start = rng.randrange(0, 16 - sixteenths + 1)
        a = lo + span * Dyadic(start, 4)
        out.append(Region.interval(a, a + span * Dyadic(sixteenths, 4)))
    return out


def _random_poly(rng: random.Random, name: str, monotone: bool):
    """A seed-drawn cubic on [0,1] with its derivative as an oracle."""
    lo = 0 if monotone else -3
    coeffs = [0] + [rng.randint(lo, 3) for _ in range(3)]
    if monotone and not any(coeffs):
        coeffs[1] = 1
    c = coeffs

    def deriv(t: float) -> float:
        return c[1] + 2 * c[2] * t + 3 * c[3] * t * t

    return poly(f"{name}{c}", [float(v) for v in c]), deriv


def _limit_problems(rep, label: str, tightened: bool = True) -> list[str]:
    """lower <= upper at every level and, for suffix-tightened norm and k
    traces, upper non-increasing and lower non-decreasing as e shrinks."""
    out = []
    for lv in rep.levels:
        if not lv.lower <= lv.upper:
            out.append(f"{label}: lower > upper at e={lv.e}")
    if not tightened:
        return out
    for a, b in zip(rep.levels, rep.levels[1:]):
        if a.upper < b.upper or a.lower > b.lower:
            out.append(f"{label}: trace not monotone at e={b.e}")
    return out


# The single-chain value 0.5 is reached at 2^-9; finer searches find stacked
# chains and read above it, never below (see the integrator test
# test_osc_left_limit_fine_level_overshoots), so it is a lower bound here.
LOWER_BOUND_ONLY = {("osc_left_limit", "upper_norm_limit")}


def _expectation_problems(name: str, expected: dict, got: dict) -> list[str]:
    out = []
    for q, value in got.items():
        if q not in expected:
            continue
        want = expected[q]
        if (name, q) in LOWER_BOUND_ONLY:
            ok = value >= want - 1e-12
        else:
            ok = abs(value - want) <= TOL
        if not ok:
            out.append(f"{name}: {q} {value!r}, expected {want!r}")
    return out


def _expectations(name: str, region: Region, level: int) -> dict:
    """Expected norm/k values that apply to a full-region request."""
    fx = fixture(name)
    if region != fx.region or level < 10:
        return {}
    (lo, hi), = region.components
    full = f"[{lo.as_fraction()},{hi.as_fraction()}]"
    out = {}
    for ex in fx.expected:
        q = ex.quantity
        if "[" in q and not q.endswith(full):
            continue
        base = q.split("[")[0]
        if base in ("upper_norm_limit", "lower_norm_limit", "upper_k_limit"):
            out[base] = ex.value
    return out


# ---------------------------------------------------------------------------
# limits: norm-, k- and sigma-limit searches over the seven fixtures
# ---------------------------------------------------------------------------

LIMIT_LEVELS = (7, 8, 9, 10)
LIMIT_KINDS = ("norm", "k", "norm", "sigma")
# Full-region requests at 2^-10 in every block.  Their inputs do not
# depend on the seed, and they are the heaviest of the block, so the tail
# percentile falls among them rather than among seed-drawn sub-regions.
FULL_REGION_REQUESTS = (("saks_A_counterexample", "norm"),
                        ("origin_indicator", "norm"),
                        ("k_convention_jump", "k"),
                        ("osc_left_limit", "norm"),
                        ("m_power_singularity", "k"))


def _limit_request(name: str, kind: str, region: Region,
                   level: int) -> Request:
    fx = fixture(name)
    cfg = search_config(level)
    perms = list(fx.permanent) or [(dmid(*region.components[0]), None)]
    expected = _expectations(name, region, level)

    def run(api):
        g = api.wrap(fx.fn)
        if kind == "norm":
            with api.span("integrator.estimate_norm_limits"):
                reps = (estimate_norm_limits(g, region, cfg),)
        elif kind == "k":
            with api.span("integrator.k_chain_reports"):
                reps = k_chain_reports(g, region, perms, cfg)
        else:
            with api.span("integrator.estimate_sigma_limit"):
                reps = (estimate_sigma_limit(g, region, cfg),)
        return [emit(api, limit_report_json, r) for r in reps], reps

    def check(reps) -> list[str]:
        out = []
        for r in reps:
            out += _limit_problems(r, f"{kind} {name}", kind != "sigma")
        if kind == "k":
            norm_rep, k_rep = reps
            for nl, kl in zip(norm_rep.levels, k_rep.levels):
                if not nl.lower <= kl.lower <= kl.upper <= nl.upper:
                    out.append(f"k chain broken for {name} at e={nl.e}")
            out += _expectation_problems(name, expected,
                                         {"upper_k_limit": k_rep.upper})
        if kind == "norm":
            out += _expectation_problems(name, expected, {
                "upper_norm_limit": reps[0].upper,
                "lower_norm_limit": reps[0].lower})
        return out

    def targets():
        if kind == "sigma":         # the sigma search builds its own stages
            return []
        extra = [p for p, _ in perms] if kind == "k" else []
        return [(fx.fn, region, cfg, extra)]

    return Request(kind, run, check, targets)


class Limits:
    """Blocks of 33: every fixture at every level once, norm : k : sigma =
    2 : 1 : 1, plus five full-region requests at 2^-10, four of which have
    fixture expectations to check."""

    # nominal seconds per block on the two-core host the blocks were sized on
    BLOCK_SECONDS = 14

    def __init__(self, seed: int):
        self.seed = seed
        self.names = fixture_names()

    def block(self, b: int) -> list[Request]:
        rng = _block_rng(self.seed, b)
        out = []
        for fi, name in enumerate(self.names):
            pool = _sub_regions(fixture(name).region, rng)
            for li, level in enumerate(LIMIT_LEVELS):
                kind = LIMIT_KINDS[(fi + li) % 4]
                out.append(_limit_request(name, kind, pool[(fi + 2 * li) % 3],
                                          level))
        for name, kind in FULL_REGION_REQUESTS:
            out.append(_limit_request(name, kind, fixture(name).region, 10))
        return out


# ---------------------------------------------------------------------------
# scan_variation: defect scans, variation, absolute continuity, packs
# ---------------------------------------------------------------------------

SCAN_LEVELS = (8, 9, 10)


def _scan_request(name: str, level: int) -> Request:
    """A scan of the fixture's whole region, as criterion 7 does: on
    osc_left_limit a scan of a sub-region takes 3 to 8 s depending on where
    the seed puts it."""
    fx = fixture(name)
    cfg = search_config(level)

    def run(api):
        g = api.wrap(fx.fn)
        with api.span("integrator.singularity_scan"):
            reps = singularity_scan(g, fx.region, cfg)
        return [emit(api, defect_report_json, r) for r in reps], reps

    def check(reps) -> list[str]:
        return [f"scan {name}: negative defect at {r.point}"
                for r in reps if not r.c >= 0]

    return Request("singularity_scan", run, check)


def _defect_j_request(name: str, level: int) -> Request:
    fx = fixture(name)
    cfg = search_config(level)
    points = [y for y in fx.scan_points
              if any(lo < y < hi for lo, hi in fx.region.components)]

    def run(api):
        g = api.wrap(fx.fn)
        texts, pairs = [], []
        for y in points:
            with api.span("integrator.defect_report_at"):
                rep = defect_report_at(g, fx.region, y, cfg)
            with api.span("variation.j_singularity"):
                j = j_singularity(g, fx.region, y, cfg)
            texts.append(emit(api, defect_report_json, rep))
            texts.append(json.dumps({"point": y.serialize(), "j": _num(j)}))
            pairs.append((y, rep.c, j))
        return texts, pairs

    def check(pairs) -> list[str]:
        out = []
        for y, c, j in pairs:
            if j != INF and not c <= 2 * j + TOL:
                out.append(f"{name}: c={c!r} > 2j={2 * j!r} at {y}")
        if name == "dyadic_blocks" and any(j != INF for _, _, j in pairs):
            out.append("dyadic_blocks: j(0) is finite")
        return out

    return Request("defect_j", run, check)


def _variation_text(api, rep) -> list[str]:
    head = json.dumps({"verdict": rep.verdict, "total": _num(rep.total),
                       "a_bound": _num(rep.a_bound)})
    return [head, emit(api, limit_report_json, rep.abs_report, False)]


def _variation_request(name: str, g, region: Region, level: int,
                       want_total=None) -> Request:
    cfg = search_config(level)

    def run(api):
        with api.span("variation.variation"):
            rep = variation(api.wrap(g), region, cfg, scan_j=False)
        return _variation_text(api, rep), rep

    def check(rep) -> list[str]:
        out = []
        (lo, hi), = region.components
        if name == "dyadic_blocks" and lo <= ZERO < hi \
                and rep.verdict != "infinite":
            # the blocks [2^-n, 2^-n+1] accumulate at 0 from the right
            out.append("dyadic_blocks: variation is finite")
        if want_total is not None and (
                rep.verdict != "finite" or abs(rep.total - want_total) > TOL):
            out.append(f"{name}: variation {rep.total!r} != {want_total!r}")
        return out

    def targets():
        return [(abs_fn(g), region, cfg, []), (g, region, cfg, [])]

    return Request("variation", run, check, targets)


def _ac_request(subject: str, region: Region, level: int) -> Request:
    cfg = search_config(level)
    if subject == "staircase":
        g = cantor_staircase_function()[0]
    elif subject == "length":
        g = length_fn()
    else:
        g = stieltjes(poly("x^2", [0, 0, 1]))

    def run(api):
        with api.span("variation.is_absolutely_continuous"):
            ac, trace = is_absolutely_continuous(api.wrap(g), region, cfg)
        text = json.dumps({"subject": subject, "ac": ac,
                           "trace": [[str(mu), _num(v)] for mu, v in trace]})
        return [text], ac

    def check(ac) -> list[str]:
        if subject == "staircase" and ac:
            return ["staircase reported absolutely continuous"]
        if subject == "length" and not ac:
            return ["length_fn reported not absolutely continuous"]
        return []

    return Request("absolute_continuity", run, check)


def _split_request(g, J: Interval, level: int) -> Request:
    cfg = search_config(level)

    def run(api):
        with api.span("variation.variation_split"):
            sp = variation_split(api.wrap(g), J, cfg)
        return [sp.to_json()], sp

    def check(sp) -> list[str]:
        gj = g(J)
        if abs((sp.p_upper - sp.n_upper) - gj) > TOL or sp.p_upper < -TOL \
                or sp.n_lower < -TOL:
            return [f"variation split of {g.name} inconsistent"]
        return []

    return Request("variation_split", run, check)


def _monotone_request(g, region: Region, seed: int) -> Request:
    def run(api):
        with api.span("variation.monotone_on_subdivision"):
            verdict = monotone_on_subdivision(api.wrap(g), region,
                                              samples=60, seed=seed)
        return [json.dumps({"fn": g.name, "monotone": verdict})], verdict

    def check(verdict) -> list[str]:
        if g.additive and g.bracket_independent and verdict != "both":
            return [f"additive {g.name} classified {verdict}"]
        return []

    return Request("monotone_on_subdivision", run, check)


class ScanVariation:
    """Blocks of 30: every fixture under each of the three fixture kinds
    (scan of its region, defect and j at its scan points, variation over
    the left half of its region), then nine requests on seed-drawn
    functions.  The fixture requests do not depend on the seed: the cost of
    a variation over a seed-drawn sub-region ranged over 4.6 times with its
    offset, and it sat in the middle of the latency distribution."""

    FIXTURE_KINDS = ("singularity_scan", "defect_j", "variation")
    BLOCK_SECONDS = 18

    def __init__(self, seed: int):
        self.seed = seed
        self.names = fixture_names()

    def block(self, b: int) -> list[Request]:
        rng = _block_rng(self.seed, b)
        fixture_reqs = []
        for ki, kind in enumerate(self.FIXTURE_KINDS):
            for fi, name in enumerate(self.names):
                level = SCAN_LEVELS[(fi + ki + 2) % 3]
                if kind == "singularity_scan":
                    fixture_reqs.append(_scan_request(name, level))
                elif kind == "defect_j":
                    fixture_reqs.append(_defect_j_request(name, level))
                else:   # where dyadic_blocks and osc_left_limit pile up
                    (lo, hi), = fixture(name).region.components
                    fixture_reqs.append(_variation_request(
                        name, fixture(name).fn,
                        Region.interval(lo, dmid(lo, hi)), 8))
        mono, _ = _random_poly(rng, "m", monotone=True)
        wavy, _ = _random_poly(rng, "w", monotone=False)
        g_mono, g_wavy = stieltjes(mono), stieltjes(wavy)
        q = rng.randrange(4)
        quarter = Region.interval(Dyadic(q, 2), Dyadic(q + 1, 2))
        a = rng.randrange(0, 8)
        J = Interval(Dyadic(a, 4), Dyadic(a + rng.randrange(4, 9), 4))
        mono_name = self.names[rng.randrange(7)]
        function_reqs = [
            _variation_request(g_mono.name, g_mono, UNIT, 9,
                               want_total=mono(ONE) - mono(ZERO)),
            _ac_request("staircase", quarter, 10),
            _split_request(g_mono, J, 10),
            _ac_request("length", UNIT, 10),
            _monotone_request(fixture(mono_name).fn,
                              fixture(mono_name).region, rng.randrange(1000)),
            _ac_request("x^2", UNIT, 10),
            _split_request(g_wavy, J, 10),
            _monotone_request(g_wavy, UNIT, rng.randrange(1000)),
            _variation_request(g_wavy.name, g_wavy, UNIT, 9),
        ]
        return fixture_reqs + function_reqs


# ---------------------------------------------------------------------------
# measure_plane: density, planar, sign tables and around-a-set chains
# ---------------------------------------------------------------------------

GEO_CONFIG = SearchConfig(e_schedule=tuple(Dyadic(1, k) for k in (3, 6, 9, 12)),
                          use_special_points=False)
COMPANION_LEVELS = (10, 12)
# two_squares at 2^-5 is left out: it takes 1 to 2.6 s per estimate
PLANAR_CASES = (("two_squares", "extended", 2.0, 4),
                ("two_squares", "restricted", 1.0, 4),
                ("bottom_strips", "extended", 1.0, 4),
                ("bottom_strips", "restricted", 0.5, 4),
                ("bottom_strips", "restricted", 0.5, 5))
SIGN_STAGES = tuple(range(1, 11))


def _random_set(rng: random.Random) -> MeasurableSet:
    """Two disjoint closed spans on the 2^-4 grid of [0,1]."""
    cuts = sorted(rng.sample(range(17), 4))
    return MeasurableSet.from_spans(
        [(Dyadic(cuts[i], 4), Dyadic(cuts[i + 1], 4))
         for i in range(0, len(cuts), 2)])


def _density_request(f, deriv, E: MeasurableSet) -> Request:
    g = stieltjes(f)

    def run(api):
        with api.span("density.density_integral"):
            rep = density_integral(api.wrap(g), E, UNIT, GEO_CONFIG)
        with api.span("density.lebesgue_reference"):
            ref = lebesgue_reference(deriv, E)
        rep = DensityReport(rep.report, ref)
        return [emit(api, density_report_json, rep)], rep

    def check(rep) -> list[str]:
        err = abs(0.5 * (rep.upper + rep.lower) - rep.lebesgue_ref)
        if not err <= 1e-4:
            return [f"density of {g.name}: |mid - lebesgue| = {err!r}"]
        return []

    def targets():
        return [(density_kernel(g, E), UNIT, GEO_CONFIG, [])]

    return Request("density_integral", run, check, targets)


def _companion_request(level: int) -> Request:
    fx = fixture("density_left_limit")
    E = MeasurableSet(list(fx.companion_sets["oscillating_blocks"]))
    cfg = search_config(level)

    def run(api):
        with api.span("density.density_integral"):
            rep = density_integral(api.wrap(fx.fn), E, fx.region, cfg)
        return [emit(api, density_report_json, rep)], rep

    def check(rep) -> list[str]:
        out = _limit_problems(rep.report, "density_left_limit")
        # the upper density reaches its limit 1 only at the 2^-12 level,
        # as in acceptance criterion 9; coarser levels read 2^(level-12)
        want_up = 1.0 if level >= 12 else None
        if abs(rep.lower) > 1e-9 or rep.upper > 1.0 + 1e-9 or (
                want_up is not None and abs(rep.upper - want_up) > 1e-9):
            out.append(f"density_left_limit: ({rep.upper!r}, {rep.lower!r})")
        return out

    def targets():
        return [(density_kernel(fx.fn, E), fx.region, cfg, [])]

    return Request("density_companion", run, check, targets)


def _planar_request(fname: str, mode: str, want: float, level: int) -> Request:
    maker = (two_squares_function if fname == "two_squares"
             else bottom_strips_function)
    cfg = planar_config(e_schedule=tuple(Dyadic(1, k)
                                         for k in range(3, level + 1)))
    unit = closed_rect(ZERO, ONE, ZERO, ONE)

    def run(api):
        with api.span("planar.estimate_norm_limits_2d"):
            rep = estimate_norm_limits_2d(api.wrap_rect(maker()), unit, mode,
                                          cfg)
        return [emit(api, limit_report_json, rep)], rep

    def check(rep) -> list[str]:
        if abs(rep.upper - want) > 1e-9:
            return [f"{fname} {mode}: upper {rep.upper!r} != {want!r}"]
        return []

    return Request("estimate_2d", run, check)


def _fubini_request(f1, f2) -> Request:
    unit = closed_rect(ZERO, ONE, ZERO, ONE)

    def run(api):
        prod = api.wrap_rect(product_function(api.wrap(stieltjes(f1)),
                                              api.wrap(stieltjes(f2))))
        with api.span("planar.fubini_chain"):
            rep = fubini_chain(prod, unit)
        text = json.dumps({"fubini": [[e.serialize()] + [_num(v) for v in vs]
                                      for e, *vs in rep.levels]})
        return [text], rep

    def check(rep) -> list[str]:
        want = (f1(ONE) - f1(ZERO)) * (f2(ONE) - f2(ZERO))
        vals = (rep.lower_2d, rep.iterated_lower, rep.iterated_upper,
                rep.upper_2d)
        if not rep.ordered or any(abs(v - want) > 1e-9 for v in vals):
            return [f"fubini chain of a product: {vals!r} vs {want!r}"]
        return []

    return Request("fubini_chain", run, check)


def _around_request(f, E: MeasurableSet, level: int) -> Request:
    g = stieltjes(f)
    cfg = search_config(level)

    def run(api):
        with api.span("around_set.around_chain_check"):
            rep = around_chain_check(api.wrap(g), E, UNIT, cfg)
        text = json.dumps({k: _num(getattr(rep, k)) for k in (
            "lower_around", "iterated_lower", "iterated_upper",
            "upper_around")} | {"ordered": rep.ordered})
        return [text], rep

    def check(rep) -> list[str]:
        # only the plain around-limits are ordered by construction; the
        # iterated estimates of a sign-changing g can cross them slightly
        if not rep.lower_around <= rep.upper_around:
            return [f"around limits of {g.name}: lower > upper"]
        return []

    return Request("around_chain", run, check)


def _sign_request(stage: int) -> Request:
    def run(api):
        with api.span("walsh.sign_table"):
            table = sign_table(stage)
        with api.span("walsh.checks"):
            result = {"stage": stage,
                      "orthogonality": orthogonality_check(table),
                      "symmetric": symmetry_check(table),
                      "spans": span_check(table, with_determinant=stage <= 8)}
        texts = [json.dumps(result)]
        if stage <= 8:
            texts.append(emit(api, export, table, "csv"))
        return texts, result

    def check(result) -> list[str]:
        if result["orthogonality"] != 0 or not result["symmetric"] \
                or not result["spans"]:
            return [f"sign table stage {stage}: {result}"]
        return []

    return Request("sign_table", run, check)


class MeasurePlane:
    """Blocks of 23: four density integrals, the companion-set density at
    2^-10 and 2^-12, five planar estimates, one Fubini chain, one
    around-a-set chain and the sign-table checks at stages 1 … 10."""

    BLOCK_SECONDS = 11

    def __init__(self, seed: int):
        self.seed = seed

    def block(self, b: int) -> list[Request]:
        rng = _block_rng(self.seed, b)
        dens = [_density_request(*_random_poly(rng, "d", monotone=False),
                                 _random_set(rng)) for _ in range(4)]
        f1, _ = _random_poly(rng, "u", monotone=False)
        f2, _ = _random_poly(rng, "v", monotone=False)
        fa, _ = _random_poly(rng, "a", monotone=False)
        heavy = [_companion_request(level) for level in COMPANION_LEVELS]
        heavy += [_planar_request(*case) for case in PLANAR_CASES]
        heavy += [_fubini_request(f1, f2),
                  _around_request(fa, _random_set(rng), 8)]
        return heavy + dens + [_sign_request(stage) for stage in SIGN_STAGES]


WORKLOADS = {"limits": Limits, "scan_variation": ScanVariation,
             "measure_plane": MeasurePlane}
