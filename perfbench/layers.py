"""Layer probes of the traced run: candidate construction and Dyadic
microbenchmarks, both on inputs the workloads themselves generate."""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from burkill.core import Dyadic, division_from_points, sort_points
from burkill.integrator import candidate_point_sets

REPEATS = 5


def candidate_probe(requests) -> tuple[float, int]:
    """Time candidate_point_sets at every level of every 1-D norm search.

    Returns (seconds, points).
    """
    seconds, points = 0.0, 0
    for req in requests:
        for g, region, cfg, extra in req.targets():
            for e in cfg.e_schedule:
                t0 = perf_counter()
                cands = candidate_point_sets(g, region, e, cfg, extra)
                seconds += perf_counter() - t0
                points += sum(len(c.points) for c in cands)
    return seconds, points


def core_inputs(requests) -> tuple:
    """(region, points) of the largest candidate at the finest level of
    the given requests' searches."""
    largest = (None, [])
    for req in requests:
        for g, region, cfg, extra in req.targets():
            for c in candidate_point_sets(g, region, cfg.finest(), cfg, extra):
                if len(c.points) > len(largest[1]):
                    largest = (region, c.points)
    return largest


def _per_op_ns(fn, ops: int) -> float:
    runs = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        runs.append(perf_counter() - t0)
    return statistics.median(runs) / ops * 1e9


def _median_ms(fn) -> float:
    runs = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        fn()
        runs.append(perf_counter() - t0)
    return statistics.median(runs) * 1e3


def core_microbench(region, points: list, seed: int) -> dict:
    """Dyadic add, compare, construct and as_fraction per operation (ns,
    each including one Python loop step), and sort_points and
    division_from_points on the whole candidate (ms)."""
    pairs = list(zip(points, points[1:]))
    raw = [(p.num, p.exp) for p in points]
    shuffled = list(points)
    random.Random(seed).shuffle(shuffled)

    def add():
        for a, b in pairs:
            a + b

    def lt():
        for a, b in pairs:
            a < b

    def new():
        for num, exp in raw:
            Dyadic(num, exp)

    def frac():
        for p in points:
            p.as_fraction()

    return {
        "core.dyadic_add_ns": _per_op_ns(add, len(pairs)),
        "core.dyadic_lt_ns": _per_op_ns(lt, len(pairs)),
        "core.dyadic_new_ns": _per_op_ns(new, len(raw)),
        "core.as_fraction_ns": _per_op_ns(frac, len(points)),
        "core.sort_points_ms": _median_ms(lambda: sort_points(shuffled)),
        "core.division_from_points_ms": _median_ms(
            lambda: division_from_points(region, points)),
    }
