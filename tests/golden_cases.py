"""Golden report bytes: the cases and their sha256 digests of serialized
reports, witnesses included, for every fixture and each search family.

A refactor of the division search must leave every digest unchanged.  This
module imports no pytest, so that any interpreter with the package on its
path can compute the digests: tests/test_golden.py checks them, and
tests/golden_interpreters.py compares them across installed Pythons.  A
change that moves a digest on purpose regenerates the table with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json

from burkill.around_set import around_chain_check
from burkill.catalog import fixture, fixture_names, poly, stieltjes
from burkill.core import Dyadic, Interval, Region, ZERO, dmid
from burkill.density import MeasurableSet, density_integral
from burkill.integrator import (
    SearchConfig,
    estimate_norm_limits,
    estimate_sigma_limit,
    k_chain_reports,
    scan_candidates,
    singularity_scan,
)
from burkill.planar import (
    RectFunction,
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
    limit_report_json,
)
from burkill.variation import j_singularity, variation, variation_split

CFG = SearchConfig(e_schedule=tuple(Dyadic(1, k) for k in range(3, 9)))
ONE = Dyadic(1)
UNIT = closed_rect(ZERO, ONE, ZERO, ONE)
TALL = closed_rect(ZERO, ONE, -ONE, ONE)


def limit_bytes(rep) -> str:
    """The JSON report plus what it omits: lower witnesses and raw values."""
    extra = [json.dumps([
        None if lv.witness_lower is None else lv.witness_lower.to_json(),
        repr(lv.raw_upper), repr(lv.raw_lower)]) for lv in rep.levels]
    return "\n".join([limit_report_json(rep)] + extra)


def _perms(fx):
    return list(fx.permanent) or [(dmid(*fx.region.components[0]), None)]


def _norm(name):
    fx = fixture(name)
    return limit_bytes(estimate_norm_limits(fx.fn, fx.region, CFG))


def _k_chain(name):
    fx = fixture(name)
    norm_rep, k_rep = k_chain_reports(fx.fn, fx.region, _perms(fx), CFG)
    return limit_bytes(norm_rep) + "\n" + limit_bytes(k_rep)


def _sigma(name):
    fx = fixture(name)
    return limit_bytes(estimate_sigma_limit(fx.fn, fx.region, CFG))


def _scan():
    fx = fixture("m_power_singularity")
    return "\n".join(defect_report_json(r)
                     for r in singularity_scan(fx.fn, fx.region, CFG))


def _variation():
    fx = fixture("origin_indicator")
    rep = variation(fx.fn, fx.region, CFG)
    # j at the first eight scan points is part of this case's digest
    j_table = [(y, j_singularity(fx.fn, fx.region, y, CFG))
               for y in scan_candidates(fx.fn, fx.region, CFG)[:8]]
    head = json.dumps({
        "levels": [(e.serialize(), repr(v)) for e, v in rep.levels],
        "verdict": rep.verdict, "total": repr(rep.total),
        "a_bound": repr(rep.a_bound),
        "j_table": [(y.serialize(), repr(j)) for y, j in j_table]})
    return "\n".join([head, limit_bytes(rep.abs_report),
                      limit_bytes(rep.base_report)])


def _j(name):
    fx = fixture(name)
    return json.dumps([(y.serialize(),
                        repr(j_singularity(fx.fn, fx.region, y, CFG)))
                       for y in _interior_scan_points(fx)])


def _interior_scan_points(fx):
    return [y for y in fx.scan_points
            if any(lo < y < hi for lo, hi in fx.region.components)]


def _j_clipped():
    """Windows clipped at both ends of [0, 1/2^4] at the first two levels,
    around a point finer than every other point of the window."""
    region = Region.interval(ZERO, Dyadic(1, 4))
    return json.dumps([(name, repr(j_singularity(fixture(name).fn, region,
                                                 Dyadic(1, 12), CFG)))
                       for name in fixture_names()])


def _split(g, lo, hi):
    mid = dmid(lo, hi)
    return "\n".join(variation_split(g, Interval(a, b, True, True),
                                     CFG).to_json()
                     for a, b in ((lo, hi), (lo, mid)))


def _fixture_split(name):
    fx = fixture(name)
    return _split(fx.fn, *fx.region.components[0])


def _density():
    fx = fixture("density_left_limit")
    E = MeasurableSet(list(fx.companion_sets["oscillating_blocks"]))
    rep = density_integral(fx.fn, E, fx.region, CFG)
    return density_report_json(rep) + "\n" + limit_bytes(rep.report)


def _asym():
    """A bracket-dependent rectangle function: width times a charge at 0."""
    charge = fixture("origin_indicator").fn
    return RectFunction("asym", lambda r: float(r.x.length) * charge(r.y))


def _planar(maker, mode, region=UNIT, levels=(3, 4)):
    cfg = planar_config(e_schedule=tuple(Dyadic(1, k) for k in levels))
    return limit_report_json(
        estimate_norm_limits_2d(maker(), region, mode, cfg))


def _fubini():
    prod = product_function(stieltjes(poly("x^2", [0, 0, 1])),
                            stieltjes(poly("y^3", [0, 0, 0, 1])))
    reps = [fubini_chain(prod, UNIT),
            fubini_chain(_asym(), TALL,
                         SearchConfig(e_schedule=(Dyadic(1, 2),
                                                  Dyadic(1, 3))))]
    return json.dumps([[(e.serialize(),) + tuple(map(repr, vals))
                        for e, *vals in rep.levels] for rep in reps])


def _around():
    fx = fixture("origin_indicator")
    E = MeasurableSet.from_spans([(ZERO, Dyadic(1, 1))])
    rep = around_chain_check(fx.fn, E, fx.region, CFG)
    return json.dumps([repr(rep.lower_around), repr(rep.iterated_lower),
                       repr(rep.iterated_upper), repr(rep.upper_around)])


CASES = {}
for _name in fixture_names():
    CASES[f"norm:{_name}"] = (_norm, _name)
    CASES[f"k_chain:{_name}"] = (_k_chain, _name)
    CASES[f"sigma:{_name}"] = (_sigma, _name)
    if _interior_scan_points(fixture(_name)):
        CASES[f"j_singularity:{_name}"] = (_j, _name)
    if fixture(_name).fn.bracket_independent:
        CASES[f"variation_split:{_name}"] = (_fixture_split, _name)
CASES.update({
    "j_singularity:clipped_window": (_j_clipped,),
    "variation_split:stieltjes_cubic": (
        _split, stieltjes(poly("x^3-x", [0, -1, 0, 1])), -ONE, ONE),
    "singularity_scan:m_power_singularity": (_scan,),
    "variation:origin_indicator": (_variation,),
    "density_integral:density_left_limit": (_density,),
    "planar:two_squares:restricted": (_planar, two_squares_function,
                                      "restricted"),
    "planar:two_squares:extended": (_planar, two_squares_function,
                                    "extended"),
    "planar:bottom_strips:restricted": (_planar, bottom_strips_function,
                                        "restricted"),
    "planar:bottom_strips:extended": (_planar, bottom_strips_function,
                                      "extended"),
    # the 16-variant path: 2^-4 would take several seconds
    "planar:asym:extended": (_planar, _asym, "extended", TALL, (3,)),
    "fubini_chain:product+asym": (_fubini,),
    "around_chain_check:origin_indicator": (_around,),
})


def digest(case: str) -> str:
    fn, *args = CASES[case]
    return hashlib.sha256(fn(*args).encode()).hexdigest()


GOLDEN = {
    "around_chain_check:origin_indicator":
        "1d206ccfde435cbd2c8377daa8cf6e20f2b89b98e0582dfee873a5b8f388b159",
    "density_integral:density_left_limit":
        "4104f939ce5abccd1122a0165e73706f32c3e4411d6f8edc31860639f96485ca",
    "fubini_chain:product+asym":
        "6fc7704712c513c8cc496e0a6bfea579462fdf4d793838649b548a8865d61686",
    "j_singularity:clipped_window":
        "faa907506a900c6556caba24434e564584f07b77eaa4077e8b3db92241ca8bb6",
    "j_singularity:density_left_limit":
        "f3ae6c33019b803a2ec1a5ee7088206f44aa22bbf3c6f6ca10ae00f182dcc6c5",
    "j_singularity:dyadic_blocks":
        "98e32bc8df79cb1f279c3fa943f524acdb382702793ad4eb5897351ff56dc00e",
    "j_singularity:k_convention_jump":
        "9db954bc292ef2470a9d6e517d510f8eceb794bdc24b10bcefe75ab841458700",
    "j_singularity:m_power_singularity":
        "f3ae6c33019b803a2ec1a5ee7088206f44aa22bbf3c6f6ca10ae00f182dcc6c5",
    "j_singularity:origin_indicator":
        "fa0f40dd4d72332bc7d3c05aef9e7cda759d4c2d9f0845f61689e589375b72d2",
    "j_singularity:saks_A_counterexample":
        "8c58408368d06fece2b3d19c97600170b0ab7ac2d22c338f6915fbee62c03598",
    "k_chain:density_left_limit":
        "9c8595af46e3530892a64e728e1be4634fe008538beb7be706614edf3bbf9121",
    "k_chain:dyadic_blocks":
        "f4ddcdffa06b868fc4ffa865e02941439ff03380a7a10fed82232ab5748a35ad",
    "k_chain:k_convention_jump":
        "9682c025f22cb42a21fac61a9864dec89b86e73a09bd7165270f562c4b2f7b06",
    "k_chain:m_power_singularity":
        "950164945e38ced1abf612ff8e0d3393adc982648d473e16225733df8fd4a9fe",
    "k_chain:origin_indicator":
        "157e6bb48e8ee28ad23d33302185e405eadeb0f03ebb0686803d352d9b9b48d8",
    "k_chain:osc_left_limit":
        "cc81bade922f820993016ddd979ce16e39d40099195ade6a34320b2c025c42db",
    "k_chain:saks_A_counterexample":
        "a588b1846bf41cd81c0ea97996970a7c0a361dc4341218dafe08b9dfda29c72f",
    "norm:density_left_limit":
        "340822cf9fba27c2ecf2b6aa5c28d26709ca8d6128f13af477ae080a89bf8cfd",
    "norm:dyadic_blocks":
        "d9bb804e90de392cf7aca5f9d9742043731c7bb2729c97474f83cfa424fced0b",
    "norm:k_convention_jump":
        "86e1fbc58eb40fc44e4db59a52e6f74eff43515c14bbad6e34386d8dae0d34b5",
    "norm:m_power_singularity":
        "6fe72748fadfbaab6ef952c79b6f84dc7bda4facdf8f7fce449991b3b9763031",
    "norm:origin_indicator":
        "10b5966f8b80e26adc441a5cee8e08f08f09dffcb7b3167834bbe6b6d22c93e1",
    "norm:osc_left_limit":
        "088bcf89628ac20528c1bea5bf409884e167a78c56dce66c12ed0aaaa4e7d840",
    "norm:saks_A_counterexample":
        "2ec1443d4479eb2f051c2288a4203f145ebb0e563fe7525c6418e207c64922fb",
    "planar:asym:extended":
        "64774dd9a09961b801f7076423d84ed9ed8a63f68052a225f405a2f1e358f719",
    "planar:bottom_strips:extended":
        "7818fbd69e2dee5e78ca35762f8e70dcba75e2de0b7f14843c713e9038c8dfa6",
    "planar:bottom_strips:restricted":
        "ec1e037fae5bdfb5361590c8fc9cf19b523e03c86b426313e188efaaf4035172",
    "planar:two_squares:extended":
        "675b67ea473e34ca081e232e89eb19cf95a1de13d4146b7838dfbe33db5c8a4a",
    "planar:two_squares:restricted":
        "e177ea8b144149c4f253da6fac5caabb1537172d12c7f6b1ad5315da13f360c3",
    "sigma:density_left_limit":
        "f94e7d9cbbd8c11dc2587d52d09305bd881ef4f483689ee16162c7f42ba1adc9",
    "sigma:dyadic_blocks":
        "78bb71dd7f0616e6bd2f1aeb560a379671dfe12be9efd1c63236dc8225451532",
    "sigma:k_convention_jump":
        "af4f097e2efea11e7a41472a2454692bddf054ce2a9481b897fbf3b91dc66b34",
    "sigma:m_power_singularity":
        "4e4759f31a175eee74bb01401d168930fdc7733d063ecc378a4293c6e2ea1f6c",
    "sigma:origin_indicator":
        "6cb33bd6f9e4b6511933b8df6d358d51e1c68dc5b3c496eb484c01e789da93fe",
    "sigma:osc_left_limit":
        "9d54fb88dd2c793b27b1f71bb335a96d533dccd04ef59dd5d6011db57a17d76c",
    "sigma:saks_A_counterexample":
        "fcccef7e66c31f80467b6cb7ab433f4107cb051bd178fbca0a27a316550bdc05",
    "singularity_scan:m_power_singularity":
        "9754496e5fefca5087295e18cfb3f858be159688188d95135b1e56490f268080",
    "variation:origin_indicator":
        "e8d861a627eb3c47ff121383637e87c41d0b988926690595cde0f619f1a7d4b7",
    "variation_split:density_left_limit":
        "87e8b7d1d5b132d7b415578fc5f9d50759f66c88864732a868fc1dd1811ef5e6",
    "variation_split:dyadic_blocks":
        "6467a485266f2d69f9f9b273e87068dbc42876554eca9c5f6cd69c189d149406",
    "variation_split:m_power_singularity":
        "8e3d572971e94f97bd8c3cb7a1e53aabe1bc7b6da55fc2951d3535bb482afef1",
    "variation_split:osc_left_limit":
        "7a86d19351d1b37d1383d9ba6002d7e2d733d0ac03ccb7db37bd5a7733609a57",
    "variation_split:saks_A_counterexample":
        "701c2793e58e1f0662335f3070f97472e8ebddf8e93e0346bd292c9bdcbbb92f",
    "variation_split:stieltjes_cubic":
        "43f2198cf15d17ce54a1b12f80eb52a53a74223da675a3535bbdc12101933f73",
}
