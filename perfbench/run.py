#!/usr/bin/env python3
"""The burkill benchmark: seeded closed-loop workloads over the library.

    python3 perfbench/run.py --workload limits --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One client sends one request at a time from one thread; the next request
goes out when the previous one returns.  The run starts in a fresh process,
runs whole blocks of requests (see workloads.py) and checks every output.
The number of blocks is --seconds over the workload's nominal block time,
so every run of a workload at the same --seconds sends the same number of
requests in the same mix, whatever the host's speed.  It prints each
metric as "<workload> <name> <value> <unit>", then one JSON line
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same requests
twice: untraced here, blocks for half of --seconds, then traced in a fresh
child process, which records spans around the benchmark's calls into each
module and writes them to perfbench/out/.  It reports the per-layer metrics
and fails unless both passes produce the same report bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from math import ceil
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# One set-up sample in a fresh process every this many seconds of loop
# time, and one before and after the loop, so that the samples spread over
# the whole run.  setup_s is the fastest of them, as timeit reports: the
# shared host only ever slows a sample down, and it does so in stretches
# that cover most of a run's samples, so their median flips between modes.
SETUP_EVERY_S = 2.0
# Every block has the same design, so runs of the same number of blocks see
# the same mix and the same tail percentile.
MIN_BLOCKS = 2
# A run on a host this many times slower than nominal stops after the block
# that crosses the limit, so that it still ends in time; it says so.
GUARD_FACTOR = 3
CHILD_TIMEOUT_S = 150

# The workload is one client on one thread; keep numpy's BLAS to one too.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_mid_ms": "ms",
    "latency_tail_mean_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metrics that every workload's traced run measures; they go into
# the result line.  Layer metrics of modules only some workloads use are
# printed as lines only.
PER_LAYER = {
    "core.dyadic_add_ns": "ns",
    "core.dyadic_lt_ns": "ns",
    "core.dyadic_new_ns": "ns",
    "core.as_fraction_ns": "ns",
    "core.sort_points_ms": "ms",
    "core.division_from_points_ms": "ms",
    "catalog.evals": "count/req",
    "catalog.eval_s": "s/req",
    "catalog.special_points_s": "s/req",
    "catalog.evals_per_unique": "ratio",
    "integrator.candidates_s": "s/req",
    "integrator.candidate_points": "count/req",
    "reporting.serialize_s": "s/req",
    "reporting.bytes": "B/req",
    "trace.overhead_frac": "ratio",
}

# name: (unit, span-name prefixes whose self time or counts it sums)
WORKLOAD_LAYERS = {
    "integrator.search_self_s": ("s/req", ("integrator.estimate_",
                                           "integrator.k_chain")),
    "integrator.defect_s": ("s/req", ("integrator.singularity_scan",
                                      "integrator.defect_report_at")),
    "variation.variation_s": ("s/req", ("variation.variation",
                                        "variation.monotone")),
    "variation.j_s": ("s/req", ("variation.j_singularity",)),
    "variation.pack_s": ("s/req", ("variation.is_absolutely_continuous",)),
    "density.integral_s": ("s/req", ("density.density_integral",)),
    "density.lebesgue_ref_s": ("s/req", ("density.lebesgue_reference",)),
    "density.g_evals": ("count/req", ("density.",)),
    "planar.estimate_2d_s": ("s/req", ("planar.estimate_norm_limits_2d",)),
    "planar.rect_evals": ("count/req", ("planar.",)),
    "planar.fubini_s": ("s/req", ("planar.fubini_chain",)),
    "walsh.sign_table_s": ("s/req", ("walsh.sign_table",)),
    "walsh.checks_s": ("s/req", ("walsh.checks",)),
    "around_set.chain_s": ("s/req", ("around_set.",)),
}


def setup() -> None:
    """Fresh process to first request ready: import burkill, build the
    fixture registry and warm the staircase cache."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import burkill
    if src not in Path(burkill.__file__).resolve().parents:
        raise ImportError(f"burkill comes from {burkill.__file__}, not {src}")
    from burkill.catalog import cantor_staircase_function, fixture, fixture_names

    for name in fixture_names():
        fixture(name)
    cantor_staircase_function()


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    return max(50, (100 * (n - 10)) // n) if n > 10 else 50


def quantile(sorted_values: list, pct: int) -> float:
    """Nearest-rank percentile."""
    rank = max(1, ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def blocks_for(workload, seconds: float, min_blocks: int = 1) -> int:
    """Whole blocks that fill `seconds` at the workload's nominal speed."""
    return max(min_blocks, round(seconds / workload.BLOCK_SECONDS))


def request_loop(workload, api, blocks=None, count=None, limit_s=None,
                 between=None, every_s=None) -> dict:
    """Run `blocks` whole blocks, or the first `count` requests.

    `between()` is called before the first request, after a request once
    `every_s` of loop time have passed since the last call, and at the end.
    Block generation and `between()` are excluded from the loop's wall
    time.  A loop whose wall time passes `limit_s` stops after the current
    block.  A request that raises or fails its checks is counted as failed,
    never re-raised.
    """
    latencies, failed = [], 0
    digest = hashlib.sha256()
    wall, n, b = 0.0, 0, 0
    if between:
        between()
    last_call = 0.0
    while (b < blocks) if count is None else (n < count):
        if limit_s is not None and wall > limit_s:
            print(f"loop passed {limit_s:.0f} s after {b} of {blocks} "
                  f"blocks; stopping early", file=sys.stderr)
            break
        block = workload.block(b)
        b += 1
        start = perf_counter()
        for req in block[:None if count is None else count - n]:
            api.begin_request(n, req.kind)
            t0 = perf_counter()
            try:
                texts, result = req.run(api)
                problems = None
            except Exception:  # a failed request is counted, not raised
                texts, problems = [], [traceback.format_exc()]
            latencies.append(perf_counter() - t0)
            api.end_request()
            for text in texts:
                digest.update(text.encode())
                digest.update(b"\n")
            if problems is None:
                try:
                    problems = req.check(result)
                except Exception:
                    problems = [traceback.format_exc()]
            if problems:
                failed += 1
                print(f"request {n} ({req.kind}) failed: {problems[0]}",
                      file=sys.stderr)
            n += 1
            paused = perf_counter()
            if between and wall + paused - start - last_call >= every_s:
                last_call = wall + paused - start
                between()
                start += perf_counter() - paused   # not loop time
        wall += perf_counter() - start
    if between:
        between()
    return {"requests": n, "blocks": b, "failed": failed, "wall_s": wall,
            "latencies": latencies, "digest": digest.hexdigest()}


def setup_sample() -> float:
    """Set-up time of one fresh child process."""
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                          "--setup-only"], cwd=ROOT, capture_output=True,
                         text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.split()[-1])


def traced_replay(args) -> dict:
    """Replay the first --replay requests traced; return per-layer figures."""
    from layers import candidate_probe, core_inputs, core_microbench
    from tracing import Tracer
    from workloads import WORKLOADS, Limits

    tracer = Tracer()
    workload = WORKLOADS[args.workload](args.seed)
    loop = request_loop(workload, tracer, count=args.replay)
    n = loop["requests"]
    replayed = []
    b = 0
    while len(replayed) < n:
        replayed += workload.block(b)
        b += 1
    cand_s, cand_points = candidate_probe(replayed[:n])
    region, points = core_inputs(Limits(args.seed).block(0))

    def per_req(value):
        return value / n

    eval_count = tracer.total("evals")
    metrics = core_microbench(region, points, args.seed)
    metrics.update({
        "catalog.evals": per_req(eval_count),
        "catalog.eval_s": per_req(tracer.total("eval_s")),
        "catalog.special_points_s": per_req(tracer.total("special_s")),
        "catalog.evals_per_unique": eval_count / max(1, tracer.unique_evals),
        "integrator.candidates_s": per_req(cand_s),
        "integrator.candidate_points": per_req(cand_points),
        "reporting.serialize_s": per_req(tracer.self_s("reporting.")),
        "reporting.bytes": per_req(tracer.report_bytes),
    })
    extra = {}
    for name, (unit, prefixes) in WORKLOAD_LAYERS.items():
        spans = [sp for sp in tracer.spans
                 if any(sp.name.startswith(p) for p in prefixes)]
        if not spans:
            continue
        if name.endswith("_s"):
            value = sum(sp.self_s for sp in spans)
        elif name == "planar.rect_evals":
            value = sum(sp.rect_evals for sp in spans)
        else:
            value = sum(sp.evals for sp in spans)
        extra[name] = per_req(value)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    return {"requests": n, "failed": loop["failed"], "wall_s": loop["wall_s"],
            "digest": loop["digest"], "metrics": metrics, "extra": extra,
            "core_points": len(points)}


def run_workload(args) -> int:
    from tracing import Plain
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    setup_times = []
    if args.trace:
        loop = request_loop(workload, Plain(),
                            blocks_for(workload, args.seconds / 2),
                            limit_s=GUARD_FACTOR * args.seconds / 2)
    else:
        loop = request_loop(
            workload, Plain(), blocks_for(workload, args.seconds, MIN_BLOCKS),
            limit_s=GUARD_FACTOR * args.seconds,
            between=lambda: setup_times.append(setup_sample()),
            every_s=SETUP_EVERY_S)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = loop["requests"]
    lat = sorted(loop["latencies"])
    pct = tail_percentile(n)
    beyond = lat[max(1, ceil(pct / 100 * n)):]
    w = args.workload
    print(f"# {w} git_sha={git_sha()} python={platform.python_version()} "
          f"nproc={os.cpu_count()} seed={args.seed} blocks={loop['blocks']} "
          f"requests={n} setup_samples={len(setup_times)} "
          f"tail_percentile=p{pct} tail_samples_beyond={len(beyond)} "
          f"trace={args.trace}")
    print(f"{w} failed_frac {loop['failed'] / max(1, n)!r} ratio")
    print(f"{w} report_digest sha256:{loop['digest']} ({n} requests)")
    correct = loop["failed"] == 0 and n > 0
    if not args.trace:
        # single order statistics: printed, but too noisy to bound
        print(f"{w} latency_p50_ms {statistics.median(lat) * 1e3!r} ms")
        print(f"{w} latency_tail_ms {quantile(lat, pct) * 1e3!r} ms")
        metrics = {
            "setup_s": min(setup_times),
            "throughput_rps": n / loop["wall_s"],
            "latency_mid_ms": statistics.fmean(lat[n // 4:n - n // 4]) * 1e3,
            "latency_tail_mean_ms": statistics.fmean(beyond) * 1e3,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--replay", str(n)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            print(f"traced replay exited with {child.returncode}",
                  file=sys.stderr)
            return 1
        traced = json.loads(child.stdout.strip().splitlines()[-1])
        same = traced["digest"] == loop["digest"]
        print(f"{w} traced_digest sha256:{traced['digest']} "
              f"({'identical' if same else 'DIFFERENT'})")
        correct = correct and same and traced["failed"] == 0
        metrics = traced["metrics"]
        metrics["trace.overhead_frac"] = traced["wall_s"] / loop["wall_s"] - 1
        for name, value in traced["extra"].items():
            print(f"{w} {name} {value!r} {WORKLOAD_LAYERS[name][0]}")
        print(f"# core microbenchmarks on a limits candidate of "
              f"{traced['core_points']} points")
        units = PER_LAYER
    for name, unit in units.items():
        print(f"{w} {name} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": n,
        "failed": loop["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process, then one combined line."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", w,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
            timeout=2 * CHILD_TIMEOUT_S)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"workload {w} exited with {child.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{w}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="limits, scan_variation, measure_plane or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--replay", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    t0 = perf_counter()
    try:
        setup()
    except ImportError as exc:
        print(f"cannot import burkill from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        print(perf_counter() - t0)
        return 0
    sys.path.insert(0, str(HERE))
    if args.replay is not None:
        print(json.dumps(traced_replay(args)))
        return 0
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
