"""Batch front end: run fixtures, emit traces and reports, run verify."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .catalog import fixture, fixture_names
from .core import Dyadic, PointConvention, Region, ZERO
from .density import MeasurableSet, density_integral
from .errors import BurkillError, UnknownFixture
from .integrator import (
    SearchConfig,
    estimate_k_limits,
    estimate_norm_limits,
    estimate_sigma_limit,
)
from .planar import (
    bottom_strips_function,
    closed_rect,
    estimate_norm_limits_2d,
    planar_config,
    two_squares_function,
)
from .reporting import export, limit_report_table
from .variation import variation

CONFIG_ENV = "BURKILL_CONFIG"
CONFIG_KEYS = ("e_min", "tol", "grid_density", "max_points")


def _load_config_file(path: Optional[str]) -> dict:
    """Read key=value lines; a named file must exist and hold known keys."""
    path = path or os.environ.get(CONFIG_ENV)
    out: dict = {}
    if not path:
        return out
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValueError(
            f"cannot read config file {path!r}: {exc.strerror}") from exc
    with fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, eq, value = line.partition("=")
            key = key.strip()
            if not eq:
                raise ValueError(f"{path}:{n}: expected key = value")
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{n}: unknown config key {key!r}; "
                                 f"known keys: {', '.join(CONFIG_KEYS)}")
            out[key] = value.strip()
    return out


def _number(kind, key: str, text: str):
    """text as an int or a float; a bad value fails naming its key."""
    try:
        return kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{key} must be {what}, not {text!r}") from None


def _config_from(args, file_cfg: dict) -> SearchConfig:
    e_min = args.e_min if args.e_min else file_cfg.get("e_min", "1/2^12")
    finest = Dyadic.parse(e_min)
    if finest.num <= 0:
        raise ValueError(f"e-min must be positive, got {e_min}")
    if finest > Dyadic(1, 3):
        raise ValueError(f"e-min must be at most 1/2^3, the schedule's first "
                         f"norm bound, got {e_min}")
    exps = []
    k = 3
    while Dyadic(1, k) > finest:
        exps.append(k)
        k += 1
    exps.append(k)
    tol = _number(float, "tol", args.tol or file_cfg.get("tol", "1e-6"))
    return SearchConfig(
        e_schedule=tuple(Dyadic(1, j) for j in exps),
        grid_density=_number(int, "grid_density",
                             file_cfg.get("grid_density", "2")),
        tol_float=tol,
        max_points=_number(int, "max_points",
                           file_cfg.get("max_points", "200000")),
    )


def _parse_region(text: Optional[str], default: Region) -> Region:
    if not text:
        return default
    parts = [Dyadic.parse(p) for p in text.split(",")]
    if len(parts) % 2:
        raise ValueError("region needs an even number of endpoints")
    spans = [(parts[i], parts[i + 1]) for i in range(0, len(parts), 2)]
    return Region(spans)


def _parse_permanent(text: Optional[str], region: Region):
    """Permanent points "p:token" in the region; a bare "p" stays
    mandatory with free brackets."""
    if not text:
        return []
    out = []
    for item in text.split(","):
        point, colon, token = (part.strip() for part in item.partition(":"))
        p = Dyadic.parse(point)
        if colon and token not in PointConvention.TOKENS:
            raise ValueError(f"unknown convention {token!r} at {point}; "
                             f"known tokens: "
                             f"{' '.join(PointConvention.TOKENS)}")
        if not region.contains_point(p):
            raise ValueError(f"permanent point {point} is outside the "
                             f"region {region}")
        out.append((p, PointConvention.TOKENS[token] if colon else None))
    return out


def _emit(report, fmt: str) -> int:
    if fmt == "table":
        sys.stdout.write(limit_report_table(report)
                         if hasattr(report, "levels")
                         else str(report) + "\n")
    else:
        sys.stdout.write(export(report, fmt))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burkill",
        description="Interval-function integration laboratory")
    parser.add_argument("--config", help="key=value config file path")
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--fixture", required=True, choices=fixture_names())
        p.add_argument("--region", help="comma-separated dyadic endpoints")
        p.add_argument("--e-min", dest="e_min",
                       help='finest norm bound, e.g. "1/2^12"')
        p.add_argument("--tol", help="convergence tolerance")
        p.add_argument("--format", default="table",
                       choices=("table", "json", "csv"))

    common(sub.add_parser("integrate", help="norm-limit estimates"))
    p = sub.add_parser("klimit", help="k-limit estimates")
    common(p)
    p.add_argument("--permanent",
                   help='permanent points, e.g. "0:)[,1/2^1:)["')
    common(sub.add_parser("sigmalimit", help="refinement-limit estimates"))
    common(sub.add_parser("variation", help="variation estimates"))
    p = sub.add_parser("density", help="density integral of a fixture")
    common(p)
    p.add_argument("--set", dest="set_name", default=None,
                   help="companion measurable set name")
    p = sub.add_parser("planar", help="2D restricted/extended estimates")
    p.add_argument("--fixture", required=True,
                   choices=("two_squares", "bottom_strips"))
    p.add_argument("--mode", default="extended",
                   choices=("restricted", "extended"))
    p.add_argument("--format", default="table",
                   choices=("table", "json", "csv"))
    p = sub.add_parser("walsh", help="sign-table export")
    p.add_argument("--stage", type=int, required=True)
    p.add_argument("--format", default="csv", choices=("csv",))
    p = sub.add_parser("around", help="around-a-set limits of a fixture")
    common(p)
    p = sub.add_parser("verify", help="run the acceptance criteria")
    p.add_argument("--criteria", help="comma-separated criterion numbers")
    sub.add_parser("list", help="list fixtures")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (BurkillError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def _dispatch(args) -> int:
    file_cfg = _load_config_file(args.config)
    if args.verb == "list":
        for name in fixture_names():
            fx = fixture(name)
            sys.stdout.write(f"{name}: region {fx.region}\n")
        return 0

    if args.verb == "verify":
        criteria = None
        if args.criteria:
            criteria = [_number(int, "--criteria", x)
                        for x in args.criteria.split(",")]
        from .verify import run_all
        results = run_all(criteria)
        for r in results:
            sys.stdout.write(r.line() + "\n")
        failed = [r for r in results if not r.passed]
        sys.stdout.write(
            f"{len(results) - len(failed)}/{len(results)} criteria passed\n")
        return 1 if failed else 0

    if args.verb == "walsh":
        from .walsh import sign_table
        sys.stdout.write(sign_table(args.stage).to_csv())
        return 0

    if args.verb == "planar":
        fn = (two_squares_function() if args.fixture == "two_squares"
              else bottom_strips_function())
        unit = closed_rect(ZERO, Dyadic(1), ZERO, Dyadic(1))
        report = estimate_norm_limits_2d(fn, unit, args.mode, planar_config())
        return _emit(report, args.format)

    fx = fixture(args.fixture)
    cfg = _config_from(args, file_cfg)
    region = _parse_region(args.region, fx.region)

    if args.verb == "integrate":
        report = estimate_norm_limits(fx.fn, region, cfg)
        return _emit(report, args.format)
    if args.verb == "klimit":
        perms = _parse_permanent(args.permanent, region) or list(fx.permanent)
        report = estimate_k_limits(fx.fn, region, perms, cfg)
        return _emit(report, args.format)
    if args.verb == "sigmalimit":
        report = estimate_sigma_limit(fx.fn, region, cfg)
        return _emit(report, args.format)
    if args.verb == "variation":
        rep = variation(fx.fn, region, cfg, scan_j=False)
        if args.format == "json":
            sys.stdout.write(json.dumps({
                "levels": [(e.serialize(), repr(v)) for e, v in rep.levels],
                "verdict": rep.verdict,
                "total": repr(rep.total),
                "A": repr(rep.a_bound),
            }, indent=2) + "\n")
        elif args.format == "csv":
            sys.stdout.write("e,estimate\n" + "".join(
                f"{e.serialize()},{v!r}\n" for e, v in rep.levels))
        else:
            sys.stdout.write(
                f"variation {rep.verdict}: total={rep.total!r} "
                f"A={rep.a_bound!r}\n")
        return 0
    if args.verb == "density":
        sets = fx.companion_sets
        if args.set_name:
            if args.set_name not in sets:
                raise ValueError(
                    f"fixture {fx.name} has no set {args.set_name!r}; "
                    f"known sets: {', '.join(sets) or 'none'}")
            E = MeasurableSet(list(sets[args.set_name]))
        elif sets:
            E = MeasurableSet(list(next(iter(sets.values()))))
        else:
            E = MeasurableSet.from_spans(
                [(lo, hi) for lo, hi in region.components])
        report = density_integral(fx.fn, E, region, cfg)
        if args.format == "json":
            sys.stdout.write(export(report, "json") + "\n")
        else:
            return _emit(report.report, args.format)
        return 0
    if args.verb == "around":
        from .around_set import around_limits
        E = MeasurableSet.from_spans(
            [(lo, hi) for lo, hi in region.components])
        report = around_limits(fx.fn, E, region, cfg)
        return _emit(report, args.format)
    raise UnknownFixture(args.verb)


if __name__ == "__main__":
    sys.exit(main())
