"""Serialization of reports: stable field order, versioned JSON schema."""

from __future__ import annotations

import json

from .density import DensityReport
from .errors import UnsupportedFormat
from .integrator import _VARIANTS, DefectReport, LimitReport, Witness

SCHEMA = "burkill.report/1"
_BRACKETS = [f'"{"[" if lc else "("}{"]" if rc else ")"}"'
             for lc, rc in _VARIANTS]


def _num(v: float):
    return v if v == v and abs(v) != float("inf") else repr(v)


def _block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """Formatted array items, or "key": value members with brackets "{}",
    as json.dumps(indent=2) lays them out after a line indented by pad."""
    if not items:
        return brackets
    inner = "\n" + pad + "  "
    return (brackets[0] + inner + ("," + inner).join(items) + "\n" + pad
            + brackets[1])


def _witness_json(w: Witness, pad: str) -> str:
    """The witness's Division.to_json object, laid out after a line
    indented by pad, from the candidate's integer keys.  Key k stands for
    k/2^ex, and Dyadic strips t = min(trailing zero bits of k, ex) from
    both: t is the lowest set bit of k | 2^ex, which also gives 0/2^0."""
    cand, ex, inner = w.cand, w.cand.ex, pad + "  "
    top = 1 << ex
    tails = [f'/2^{ex - t}"' for t in range(ex + 1)]
    points = [f'"{k >> t}{tails[t]}' for k in cand.keys
              for m in (k | top,) for t in ((m & -m).bit_length() - 1,)]
    if w.choice is None:
        brackets = [_BRACKETS[0]] * sum(stop - start - 1
                                        for start, stop in cand.runs)
    else:
        brackets = [_BRACKETS[k] for k in w.choice]
    region = [_block([f'"{lo.serialize()}"', f'"{hi.serialize()}"'],
                     inner + "  ")
              for lo, hi in w.region.components]
    return _block([f'"points": {_block(points, inner)}',
                   f'"brackets": {_block(brackets, inner)}',
                   f'"region": {_block(region, inner)}'], pad, "{}")


def _limit_json(report: LimitReport, with_witness: bool,
                extra: list[str]) -> str:
    """The report laid out as json.dumps(indent=2) lays out its schema,
    levels and verdict, followed by the extra top-level members.
    Suffix-tightening shares a witness handle across levels, and every
    level row holds its witness at the same depth, so each handle is
    formatted once."""
    texts: dict = {}
    rows = []
    for lv in report.levels:
        row = [f'"e": "{lv.e.serialize()}"',
               f'"upper": {json.dumps(_num(lv.upper))}',
               f'"lower": {json.dumps(_num(lv.lower))}']
        w = lv.handle_upper
        if with_witness and w is not None:
            if w not in texts:
                texts[w] = _witness_json(w, "      ")
            row.append(f'"witness_upper": {texts[w]}')
        rows.append(_block(row, "    ", "{}"))
    v = report.verdict
    verdict = [f'"kind": {json.dumps(v.kind)}']
    if v.value is not None:
        verdict.append(f'"value": {json.dumps(_num(v.value))}')
    if v.upper is not None:
        verdict.append(f'"upper": {json.dumps(_num(v.upper))}')
        verdict.append(f'"lower": {json.dumps(_num(v.lower))}')
    if v.tol is not None:
        verdict.append(f'"tol": {json.dumps(v.tol)}')
    return _block([f'"schema": {json.dumps(SCHEMA)}',
                   f'"levels": {_block(rows, "  ")}',
                   f'"verdict": {_block(verdict, "  ", "{}")}', *extra],
                  "", "{}")


def limit_report_json(report: LimitReport, with_witness: bool = True) -> str:
    """The report as JSON with indent 2, written straight from the witness
    handles; the upper witness is the only one it carries."""
    return _limit_json(report, with_witness, [])


def limit_report_csv(report: LimitReport) -> str:
    lines = ["e,upper,lower"]
    for lv in report.levels:
        lines.append(f"{lv.e.serialize()},{lv.upper!r},{lv.lower!r}")
    return "\n".join(lines) + "\n"


def limit_report_table(report: LimitReport) -> str:
    lines = [f"{'e':>12}  {'upper':>24}  {'lower':>24}"]
    for lv in report.levels:
        lines.append(f"{lv.e.serialize():>12}  {lv.upper!r:>24}  "
                     f"{lv.lower!r:>24}")
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines) + "\n"


def density_report_json(report: DensityReport) -> str:
    ref = report.lebesgue_ref
    return _limit_json(report.report, False, [
        f'"lebesgue_ref": {json.dumps(None if ref is None else _num(ref))}'])


def defect_report_json(report: DefectReport) -> str:
    return json.dumps({
        "schema": SCHEMA,
        "point": report.point.serialize(),
        "trace": [{"e": e.serialize(), "C": _num(v)}
                  for e, v in report.trace],
        "c": _num(report.c),
        "sigma": _num(report.sigma),
    }, indent=2)


def export(report, fmt: str) -> str:
    """Dispatch a report to a byte-stable textual format."""
    if fmt == "csv" and hasattr(report, "to_csv"):
        # a walsh.SignTable, matched by its method so that this module
        # does not import walsh and numpy with it
        return report.to_csv()
    if isinstance(report, DensityReport):
        if fmt == "json":
            return density_report_json(report)
        report = report.report
    if isinstance(report, LimitReport):
        if fmt == "json":
            return limit_report_json(report)
        if fmt == "csv":
            return limit_report_csv(report)
        if fmt == "table":
            return limit_report_table(report)
    if isinstance(report, DefectReport) and fmt == "json":
        return defect_report_json(report)
    raise UnsupportedFormat(f"cannot export {type(report).__name__} as {fmt}")
