"""Spans and counts recorded by the benchmark around its calls into burkill.

Nothing here reaches inside the package: a span opens and closes around a
call the benchmark makes into one module's public function, and
evaluation counts come from wrapping the interval functions the benchmark
hands to the library.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from time import perf_counter

from burkill.catalog import IntervalFunction
from burkill.planar import RectFunction


class Plain:
    """The untraced path: functions pass through and spans cost nothing."""

    _NULL = nullcontext()

    def begin_request(self, rid: int, kind: str) -> None:
        pass

    def end_request(self) -> None:
        pass

    def wrap(self, g: IntervalFunction) -> IntervalFunction:
        return g

    def wrap_rect(self, gT: RectFunction) -> RectFunction:
        return gT

    def span(self, name: str):
        return self._NULL

    def note_bytes(self, n: int) -> None:
        pass


class Span:
    __slots__ = ("sid", "name", "rid", "parent", "start", "end", "child_s",
                 "evals", "eval_s", "special_s", "rect_evals")

    def __init__(self, sid, name, rid, parent, start):
        self.sid, self.name, self.rid, self.parent = sid, name, rid, parent
        self.start, self.end = start, start
        # time covered by child spans and by the evaluations and special-point
        # calls of wrapped functions made directly inside this span
        self.child_s = 0.0
        self.evals = 0
        self.eval_s = 0.0
        self.special_s = 0.0
        self.rect_evals = 0

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s

    def as_dict(self) -> dict:
        return {"id": self.sid, "name": self.name, "request": self.rid,
                "parent": self.parent, "start": self.start, "end": self.end,
                "evals": self.evals, "eval_s": self.eval_s,
                "special_s": self.special_s, "rect_evals": self.rect_evals}


class _SpanContext:
    __slots__ = ("tracer", "name", "span")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.span = self.tracer._open(self.name)
        return self.span

    def __exit__(self, *exc):
        self.tracer._close(self.span)
        return False


class Tracer(Plain):
    """Records spans (name, start, end, parent, request id) and counts.

    Evaluations of wrapped interval functions are too many to give each a
    span; their count and time are added to the innermost open span and
    counted there as covered child time.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._rid = None
        self._unique: set = set()
        self.unique_evals = 0
        self.report_bytes = 0
        self._tags = 0

    def begin_request(self, rid: int, kind: str) -> None:
        self._rid = rid
        self._unique = set()
        self._stack.append(self._open("request." + kind))

    def end_request(self) -> None:
        self._close(self._stack.pop())
        self.unique_evals += len(self._unique)
        self._rid = None

    def span(self, name: str):
        return _SpanContext(self, name)

    def note_bytes(self, n: int) -> None:
        self.report_bytes += n

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        sp = Span(len(self.spans), name, self._rid, parent, perf_counter())
        self.spans.append(sp)
        self._stack.append(sp)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = perf_counter()
        if self._stack and self._stack[-1] is sp:
            self._stack.pop()
        if sp.parent is not None:
            self.spans[sp.parent].child_s += sp.end - sp.start

    def wrap(self, g: IntervalFunction) -> IntervalFunction:
        """A counting IntervalFunction built from g's public interface."""
        self._tags += 1
        tag = self._tags
        stack = self._stack
        tracer = self

        def ev(iv):
            t0 = perf_counter()
            value = g(iv)
            dt = perf_counter() - t0
            sp = stack[-1]
            sp.evals += 1
            sp.eval_s += dt
            sp.child_s += dt
            tracer._unique.add((tag, iv.lo.num, iv.lo.exp, iv.hi.num,
                                iv.hi.exp, iv.left_closed, iv.right_closed))
            return value

        def specials(region, resolution):
            t0 = perf_counter()
            pts = g.special_points(region, resolution)
            dt = perf_counter() - t0
            sp = stack[-1]
            sp.special_s += dt
            sp.child_s += dt
            return pts

        return IntervalFunction(
            g.name, ev,
            additive=g.additive,
            bracket_independent=g.bracket_independent,
            continuous=g.continuous,
            special_points=specials,
            singular_schedule=g.singular_schedule,
        )

    def wrap_rect(self, gT: RectFunction) -> RectFunction:
        """A RectFunction that counts its evaluations."""
        stack = self._stack

        def ev(rect):
            stack[-1].rect_evals += 1
            return gT(rect)

        return RectFunction(gT.name, ev,
                            bracket_independent=gT.bracket_independent,
                            special_rects=gT.special_rects)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([sp.as_dict() for sp in self.spans], fh)

    # -- derived per-layer figures ---------------------------------------

    def self_s(self, prefix: str) -> float:
        """Summed self time of the spans whose name starts with prefix."""
        return sum(sp.self_s for sp in self.spans if sp.name.startswith(prefix))

    def total(self, attr: str) -> float:
        """Sum of a per-span count or time over every span."""
        return sum(getattr(sp, attr) for sp in self.spans)
