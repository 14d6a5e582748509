"""The limit-report writer against the json.dumps(indent=2) code it
replaced, kept here as the reference: the text must agree byte for byte.
Also checks that witness divisions are built only when they are read."""

import json

from hypothesis import example, given, settings, strategies as st

import pytest

from burkill import reporting
from burkill.catalog import fixture, fixture_names
from burkill.core import Division, Dyadic, Interval, Region, dmid
from burkill.density import DensityReport
from burkill.integrator import (
    Candidate,
    LevelEstimate,
    LimitReport,
    SearchConfig,
    Verdict,
    Witness,
    estimate_norm_limits,
    estimate_sigma_limit,
    extremal_sum,
    k_chain_reports,
)
from burkill.reporting import density_report_json, export, limit_report_json
from burkill.variation import j_singularity, variation

CFG = SearchConfig(e_schedule=tuple(Dyadic(1, k) for k in range(3, 9)))
INF = float("inf")


# ---------------------------------------------------------------------------
# the reference: limit reports as objects, through json.dumps(indent=2)
# ---------------------------------------------------------------------------

def ref_num(v: float):
    return v if v == v and abs(v) != float("inf") else repr(v)


def ref_limit_report_obj(report: LimitReport,
                         with_witness: bool = True) -> dict:
    levels = []
    for lv in report.levels:
        row = {"e": lv.e.serialize(),
               "upper": ref_num(lv.upper),
               "lower": ref_num(lv.lower)}
        if with_witness and lv.witness_upper is not None:
            row["witness_upper"] = json.loads(lv.witness_upper.to_json())
        levels.append(row)
    verdict = {"kind": report.verdict.kind}
    if report.verdict.value is not None:
        verdict["value"] = ref_num(report.verdict.value)
    if report.verdict.upper is not None:
        verdict["upper"] = ref_num(report.verdict.upper)
        verdict["lower"] = ref_num(report.verdict.lower)
    if report.verdict.tol is not None:
        verdict["tol"] = report.verdict.tol
    return {"schema": "burkill.report/1", "levels": levels,
            "verdict": verdict}


def ref_limit_report_json(report: LimitReport,
                          with_witness: bool = True) -> str:
    return json.dumps(ref_limit_report_obj(report, with_witness), indent=2,
                      sort_keys=False)


def ref_density_report_json(report: DensityReport) -> str:
    obj = ref_limit_report_obj(report.report, with_witness=False)
    obj["lebesgue_ref"] = (None if report.lebesgue_ref is None
                           else ref_num(report.lebesgue_ref))
    return json.dumps(obj, indent=2)


# ---------------------------------------------------------------------------
# drawn reports
# ---------------------------------------------------------------------------

# small exponents, and the 16-kbit keys of dyadic_blocks' j_singularity
# fills at exponent 16,388
EXPONENTS = st.one_of(st.integers(0, 80), st.integers(16380, 16400))
NUMERATORS = st.one_of(st.integers(-2**20, 2**20),
                       st.integers(-2**300, 2**300))
VALUES = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                   st.sampled_from([INF, -INF, float("nan"), 0.0, -0.0]))


@st.composite
def witnesses(draw):
    """A handle over a region of one to three components: the candidate's
    keys at exponent ex, negative, zero, with any trailing zero bits and
    with numerators of up to 300 bits, and a variant per span or None."""
    ex = draw(EXPONENTS)
    sizes = draw(st.lists(st.integers(2, 8), min_size=1, max_size=3))
    keys = sorted(draw(st.lists(
        st.builds(lambda v, s: v << s, NUMERATORS, st.integers(0, ex + 2)),
        min_size=sum(sizes), max_size=sum(sizes), unique=True)))
    runs, start = [], 0
    for n in sizes:
        runs.append((start, start + n))
        start += n
    region = Region([(Dyadic(keys[a], ex), Dyadic(keys[b - 1], ex))
                     for a, b in runs])
    n_spans = len(keys) - len(runs)
    choice = draw(st.one_of(st.none(), st.lists(
        st.integers(0, 3), min_size=n_spans, max_size=n_spans)))
    return Witness(region, Candidate(keys, ex, runs), choice)


@st.composite
def verdicts(draw):
    kind = draw(st.sampled_from(["converged", "diverging", "oscillating"]))
    if kind == "converged":
        return Verdict(kind, value=draw(VALUES),
                       tol=draw(st.one_of(st.floats(0, 1e300), st.just(0))))
    if kind == "diverging":
        return Verdict(kind, value=draw(st.sampled_from([INF, -INF])))
    return Verdict(kind, upper=draw(VALUES), lower=draw(VALUES))


@st.composite
def reports(draw):
    """Levels that share handles, as suffix-tightening leaves them, or
    carry none."""
    pool = draw(st.lists(witnesses(), min_size=1, max_size=3))
    levels = []
    for k in range(3, 3 + draw(st.integers(1, 6))):
        handle = draw(st.one_of(st.none(), st.sampled_from(pool)))
        levels.append(LevelEstimate(Dyadic(1, k), draw(VALUES), draw(VALUES),
                                    handle))
    return LimitReport(levels, draw(verdicts()))


class TestWriterAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(reports(), st.booleans())
    def test_drawn_reports(self, report, with_witness):
        assert (limit_report_json(report, with_witness)
                == ref_limit_report_json(report, with_witness))

    @settings(max_examples=50, deadline=None)
    @given(reports(), st.one_of(st.none(), VALUES))
    @example(LimitReport([LevelEstimate(Dyadic(1, 3), 0.0, -INF)],
                         Verdict("diverging", value=-INF)), float("nan"))
    def test_drawn_density_reports(self, report, ref):
        rep = DensityReport(report, ref)
        assert density_report_json(rep) == ref_density_report_json(rep)

    @pytest.mark.parametrize("name", fixture_names())
    def test_search_reports(self, name):
        fx = fixture(name)
        perms = list(fx.permanent) or [(dmid(*fx.region.components[0]),
                                         None)]
        reps = [estimate_norm_limits(fx.fn, fx.region, CFG),
                estimate_sigma_limit(fx.fn, fx.region, CFG),
                *k_chain_reports(fx.fn, fx.region, perms, CFG)]
        for rep in reps:
            for with_witness in (True, False):
                assert (limit_report_json(rep, with_witness)
                        == ref_limit_report_json(rep, with_witness))


# ---------------------------------------------------------------------------
# witnesses are built when read, and formatted once per handle
# ---------------------------------------------------------------------------

def _count(monkeypatch, owner, name, counts, wrap=lambda f: f):
    """Count the calls of owner.name into counts["Owner.name"]."""
    inner = getattr(owner, name)
    key = f"{owner.__name__.rpartition('.')[2]}.{name}"
    counts[key] = 0

    def counted(*args, **kwargs):
        counts[key] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrap(counted))


class TestLazyWitness:
    def test_searches_build_no_division(self, monkeypatch):
        counts: dict = {}
        _count(monkeypatch, Division, "__init__", counts)
        fx = fixture("origin_indicator")
        export(estimate_norm_limits(fx.fn, fx.region, CFG), "csv")
        export(estimate_sigma_limit(fx.fn, fx.region, CFG), "csv")
        variation(fx.fn, fx.region, CFG)
        blocks = fixture("dyadic_blocks")
        j_singularity(blocks.fn, blocks.region, Dyadic(1, 3), CFG)
        assert counts == {"Division.__init__": 0}

    def test_writer_builds_no_points(self, monkeypatch):
        fx = fixture("origin_indicator")
        rep = estimate_norm_limits(fx.fn, fx.region, CFG)
        counts: dict = {}
        _count(monkeypatch, Division, "__init__", counts)
        _count(monkeypatch, Interval, "__init__", counts)
        _count(monkeypatch, Interval, "raw", counts, staticmethod)
        _count(monkeypatch, Dyadic, "__init__", counts)
        limit_report_json(rep)
        assert set(counts.values()) == {0}
        assert rep.levels[0].witness_upper is not None
        assert counts["Interval.raw"] > 0      # the counters count

    def test_witness_read_twice_is_one_eager_division(self):
        fx = fixture("origin_indicator")
        rep = estimate_norm_limits(fx.fn, fx.region, CFG)
        for lv in rep.levels:
            first = lv.witness_upper
            assert lv.witness_upper is first
            value, eager = extremal_sum(fx.fn, first.points, fx.region, "max")
            assert value == lv.upper
            assert (first.region, first.intervals, first.points) == (
                eager.region, eager.intervals, eager.points)
            assert first.to_json() == eager.to_json()

    @pytest.mark.parametrize("name", ["dyadic_blocks", "k_convention_jump"])
    def test_each_handle_formatted_once(self, monkeypatch, name):
        fx = fixture(name)
        rep = estimate_norm_limits(fx.fn, fx.region, CFG)
        handles = {id(lv.handle_upper) for lv in rep.levels}
        assert len(handles) < len(rep.levels)   # tightening shared one
        counts: dict = {}
        _count(monkeypatch, reporting, "_witness_json", counts)
        limit_report_json(rep)
        assert counts["reporting._witness_json"] == len(handles)
