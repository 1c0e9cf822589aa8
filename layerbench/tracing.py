"""Outside-in layer tracing for the benchmark.

The program under test carries no instrumentation of its own, so the
benchmark wraps the public functions of each layer *at the name each
caller looks up* (a module global, a class attribute) and records one
span per call.  A span holds its name, start, end, parent span and the
request id of the unit of work (a round, an admission, a close, a
restart) that the benchmark opened around it.  Spans stay in memory and
are exported once, at the end, as Chrome trace-event JSON.

A layer's self time is its span minus its direct child spans; spans of
one thread nest strictly, so the children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, NamedTuple

#: Span name prefix of the benchmark's own unit-of-work spans.
UNIT_PREFIX = "bench."


class Span(NamedTuple):
    span_id: int
    name: str
    thread: int
    start_ns: int
    end_ns: int
    self_ns: int
    parent: int
    request: int
    unit: str
    info: dict | None

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


_NULL_UNIT = contextlib.nullcontext()


class NullTracer:
    """The untraced run: units cost one no-op context manager."""

    enabled = False

    def unit(self, kind: str):
        return _NULL_UNIT

    def alternate(self, index: int) -> bool:
        return False


class Tracer:
    """In-memory span recorder, safe to share between threads.

    Each thread keeps a stack of open frames ``[span id, child ns,
    request id, unit kind]``; a span is appended as a plain tuple in
    :class:`Span` field order when it closes.
    """

    enabled = True

    def __init__(self) -> None:
        self.raw: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def alternate(self, index: int) -> bool:
        """Trace this thread's next unit only if ``index`` is even.

        While a thread is switched off its wrappers call straight
        through, so traced and untraced units interleave in one run and
        the tracing overhead is measured under the same conditions.
        Returns whether the unit is traced.
        """
        self._local.active = traced = index % 2 == 0
        return traced

    @property
    def spans(self) -> list[Span]:
        return [Span._make(record) for record in self.raw]

    def stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            stack = self._local.stack = []
            return stack

    def current_unit(self) -> str:
        """Kind of the unit of work open on this thread ('' if none)."""
        stack = self.stack()
        return stack[0][3] if stack else ""

    def unit(self, kind: str):
        """Open one unit of work: a root span with a fresh request id."""
        return _Unit(self, kind) if getattr(self._local, "active", True) else _NULL_UNIT

    def write_chrome(self, path: str) -> None:
        """Export every span as Chrome trace-event JSON (opens in Perfetto)."""
        spans = self.spans
        if not spans:
            return
        origin = min(span.start_ns for span in spans)
        pid = os.getpid()
        events = []
        for span in sorted(spans, key=lambda s: s.start_ns):
            args = {"span": span.span_id, "parent": span.parent,
                    "request": span.request, "self_us": span.self_ns / 1e3}
            if span.info:
                args.update(span.info)
            events.append({
                "name": span.name, "cat": span.unit or "none", "ph": "X",
                "ts": (span.start_ns - origin) / 1e3, "dur": span.dur_ns / 1e3,
                "pid": pid, "tid": span.thread, "args": args,
            })
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


class _Unit:
    """A unit-of-work span.  Its clock starts last on entry and stops
    first on exit, so the benchmark's own bookkeeping stays outside the
    wall time the layers' self times must cover."""

    __slots__ = ("tracer", "kind", "frame", "start")

    def __init__(self, tracer: Tracer, kind: str):
        self.tracer, self.kind = tracer, kind

    def __enter__(self) -> None:
        span_id = next(self.tracer._ids)
        self.frame = [span_id, 0, span_id, self.kind]
        self.tracer.stack().append(self.frame)
        self.start = time.perf_counter_ns()

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter_ns()
        self.tracer.stack().pop()
        span_id, child_ns, _, kind = self.frame
        self.tracer.raw.append((span_id, UNIT_PREFIX + kind, threading.get_ident(),
                                self.start, end, end - self.start - child_ns, 0, span_id,
                                kind, None))


# -- installing wrappers -------------------------------------------------------


class Point(NamedTuple):
    """One wrapped name: ``owner.attr`` becomes span ``name``.

    ``name`` may be a callable of the call's positional arguments (and
    the tracer) when one function serves several layers; ``info``
    extracts exact work counts from the arguments.
    """

    owner: Any
    attr: str
    name: str | Callable[[Tracer, tuple], str]
    info: Callable[[tuple], dict] | None = None


def _wrap(tracer: Tracer, raw: Any, point: Point) -> Any:
    if isinstance(raw, (classmethod, staticmethod)):
        return type(raw)(_wrap(tracer, raw.__func__, point))
    name, info = point.name, point.info
    fixed = name if isinstance(name, str) else None
    record, ids, stack_of = tracer.raw.append, tracer._ids, tracer.stack
    clock, get_ident, local = time.perf_counter_ns, threading.get_ident, tracer._local

    @functools.wraps(raw)
    def traced(*args, **kwargs):
        if not getattr(local, "active", True):
            return raw(*args, **kwargs)
        # The span includes its own bookkeeping, so that the tracer's cost
        # is charged to the layer it wraps, not left uncovered in the unit.
        start = clock()
        stack = stack_of()
        parent = stack[-1] if stack else None
        frame = [next(ids), 0, parent[2], parent[3]] if parent else [next(ids), 0, 0, ""]
        stack.append(frame)
        try:
            return raw(*args, **kwargs)
        finally:
            stack.pop()
            end = clock()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            record((frame[0], fixed or name(tracer, args), get_ident(), start, end,
                    duration - frame[1], parent[0] if parent else 0, frame[2], frame[3],
                    info(args) if info is not None else None))

    return traced


@contextlib.contextmanager
def installed(tracer: Tracer, points: list[Point]):
    """Wrap every point for the duration of the block, then restore."""
    restore = []
    try:
        for point in points:
            owner = point.owner
            raw = owner.__dict__[point.attr] if isinstance(owner, type) else (
                getattr(owner, point.attr))
            setattr(owner, point.attr, _wrap(tracer, raw, point))
            restore.append((owner, point.attr, raw))
        yield
    finally:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)


# -- reducing spans to per-layer numbers ---------------------------------------


class LayerStats:
    """Per-unit-kind sums over a tracer's spans."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.units: dict[str, list[Span]] = defaultdict(list)
        #: (unit kind, span name) -> [calls, inclusive ns, self ns]
        self.by_layer: dict[tuple[str, str], list[int]] = defaultdict(
            lambda: [0, 0, 0])
        by_id = {span.span_id: span for span in spans}
        self.parent_name = {
            span.span_id: by_id[span.parent].name if span.parent in by_id else ""
            for span in spans
        }
        for span in spans:
            if span.name.startswith(UNIT_PREFIX) and span.parent == 0:
                self.units[span.unit].append(span)
                continue
            entry = self.by_layer[(span.unit, span.name)]
            entry[0] += 1
            entry[1] += span.dur_ns
            entry[2] += span.self_ns

    def count(self, kind: str) -> int:
        return len(self.units.get(kind, ()))

    def wall_ns(self, kind: str) -> int:
        return sum(span.dur_ns for span in self.units.get(kind, ()))

    def per_unit(self, kind: str, *names: str, field: int = 1) -> float:
        """Mean inclusive (``field=1``), self (2) ns or calls (0) per unit."""
        units = self.count(kind)
        if not units:
            return 0.0
        return sum(self.by_layer.get((kind, n), (0, 0, 0))[field]
                   for n in names) / units

    def info_per_unit(self, kind: str, name: str, key: str) -> float:
        units = self.count(kind)
        if not units:
            return 0.0
        return sum(span.info.get(key, 0) for span in self.spans
                   if span.unit == kind and span.name == name and span.info) / units

    def calls_under(self, kind: str, name: str, parent_name: str) -> int:
        return sum(1 for span in self.spans
                   if span.unit == kind and span.name == name
                   and self.parent_name[span.span_id] == parent_name)

    def table(self, kind: str) -> tuple[list[tuple[str, int, float, float]], float]:
        """Rows (layer, calls, self µs per unit, share of unit wall) and the
        share of the unit wall that layer self times cover."""
        units, wall = self.count(kind), self.wall_ns(kind)
        if not units or not wall:
            return [], 0.0
        rows = []
        covered = 0
        for (unit_kind, name), (calls, _incl, self_ns) in self.by_layer.items():
            if unit_kind != kind:
                continue
            covered += self_ns
            rows.append((name, calls, self_ns / units / 1e3, self_ns / wall))
        rows.sort(key=lambda row: -row[3])
        return rows, covered / wall
