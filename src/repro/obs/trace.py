"""Lightweight request tracing: span trees in a ring buffer.

A *trace* is one tree of :class:`Span` objects — the gateway starts one
per request (``gateway.request``) and one per applied stream
micro-batch (``stream.update``); the layers below add children with
the :func:`span` context manager (``gateway.coalesce`` →
``engine.batch`` → ``engine.execute`` → ``engine.shard`` →
``solver.solve``).  Finished traces land in a bounded ring buffer
(:class:`TraceCollector`) that ``/v1/trace`` serves as JSON and
``repro trace`` converts to Chrome trace-event format
(``chrome://tracing`` / Perfetto loads the dump directly).

Cost model: tracing is off until :func:`enable_tracing` installs a
collector, and even then a context without an active trace pays one
contextvar read per :func:`span` call — the serving layers keep their
instrumentation inline and the no-op path stays out of every profile.
Propagation is explicit: the coalescer runs each batch under its
leading request's copied context, and the query engine copies that
context into its shard threads, which is what keeps a span (and the
request id riding the same context) attached to the request that
caused the work.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from typing import Any, Iterable, Mapping
from contextvars import ContextVar

__all__ = [
    "Span",
    "TraceCollector",
    "chrome_trace",
    "disable_tracing",
    "enable_tracing",
    "get_collector",
    "span",
    "start_trace",
    "tracing_enabled",
]

_active_span: ContextVar["Span | None"] = ContextVar(
    "repro_active_span", default=None
)

_collector: "TraceCollector | None" = None


class Span:
    """One timed operation; children are operations it contained.

    The span is its own context manager (one allocation per span on
    the hot path): entering stamps the start and installs the span as
    the context's active one, exiting computes the duration and
    appends the span to its parent.
    """

    __slots__ = (
        "name", "attrs", "start_perf", "duration_seconds", "children",
        "_parent", "_token",
    )

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self.duration_seconds = 0.0
        self.children: list[Span] = []

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered while the span is open."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._parent = _active_span.get()
        self._token = _active_span.set(self)
        self.start_perf = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.duration_seconds = time.perf_counter() - self.start_perf
        _active_span.reset(self._token)
        parent = self._parent
        if parent is not None:
            # list.append is atomic under the GIL, so shard workers
            # appending to a shared parent from several threads is safe.
            parent.children.append(self)
        return False

    def to_dict(self, trace_start_perf: float) -> dict[str, Any]:
        """JSON form; times are milliseconds relative to the trace start."""
        return {
            "name": self.name,
            "start_ms": (self.start_perf - trace_start_perf) * 1e3,
            "duration_ms": self.duration_seconds * 1e3,
            "attrs": dict(self.attrs),
            "spans": [
                child.to_dict(trace_start_perf) for child in self.children
            ],
        }


class _Noop:
    """The shared do-nothing context manager for disabled paths."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: Any) -> bool:
        return False


_NOOP = _Noop()


def span(name: str, **attrs: Any):
    """A child span of the active trace; a shared no-op outside one.

    Use as ``with span("engine.execute", queries=3) as sp:``; inside,
    ``sp`` is the :class:`Span` (``sp.set(...)`` adds attributes) or
    ``None`` when no trace is active in the calling context.
    """
    if _active_span.get() is None:
        return _NOOP
    return Span(name, attrs)


class _TraceContext:
    __slots__ = ("_name", "_attrs", "_request_id", "_root", "_token", "_wall")

    def __init__(
        self, name: str, request_id: str | None, attrs: dict[str, Any]
    ) -> None:
        self._name = name
        self._request_id = request_id
        self._attrs = attrs

    def __enter__(self) -> Span:
        self._wall = time.time()
        root = Span(self._name, self._attrs)
        self._root = root
        self._token = _active_span.set(root)
        root.start_perf = time.perf_counter()
        return root

    def __exit__(self, *exc_info: Any) -> bool:
        root = self._root
        root.duration_seconds = time.perf_counter() - root.start_perf
        _active_span.reset(self._token)
        collector = _collector
        if collector is not None:
            # The finished Span tree is buffered as-is; conversion to
            # JSON happens at scrape time (/v1/trace), keeping the
            # request path free of the dict-tree build.
            collector.record(
                _FinishedTrace(root, self._request_id, self._wall)
            )
        return False


class _FinishedTrace:
    """One completed span tree awaiting scrape-time serialisation."""

    __slots__ = ("root", "request_id", "start_unix", "trace_id")

    def __init__(
        self, root: Span, request_id: str | None, start_unix: float
    ) -> None:
        self.root = root
        self.request_id = request_id
        self.start_unix = start_unix
        self.trace_id: str | None = None

    def to_document(self) -> dict[str, Any]:
        if self.trace_id is None:
            self.trace_id = f"{random.getrandbits(64):016x}"
        document = self.root.to_dict(self.root.start_perf)
        document["trace_id"] = self.trace_id
        document["request_id"] = self.request_id
        document["start_unix"] = self.start_unix
        return document


def start_trace(name: str, *, request_id: str | None = None, **attrs: Any):
    """Open a root span and record the finished tree on exit.

    A shared no-op while tracing is disabled, which is what keeps the
    per-request cost at one global read when the operator has not
    asked for traces.  With a collector sampling below 1.0, the
    decision is made here — head sampling — so an unsampled request
    pays one ``random()`` call and every :func:`span` below it stays
    on the no-op path.
    """
    collector = _collector
    if collector is None:
        return _NOOP
    sample = collector.sample
    if sample < 1.0 and random.random() >= sample:
        return _NOOP
    return _TraceContext(name, request_id, attrs)


class TraceCollector:
    """A bounded ring buffer of finished traces (newest kept).

    ``sample`` is the fraction of :func:`start_trace` calls that
    produce a trace (head sampling, decided per root).  1.0 — the
    default — records everything; production deployments chasing
    high request rates run sampled (see ``docs/OBSERVABILITY.md``).
    """

    def __init__(self, capacity: int = 256, *, sample: float = 1.0) -> None:
        if capacity < 1:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"trace capacity must be >= 1, got {capacity}"
            )
        if not 0.0 <= sample <= 1.0:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"trace sample must be within [0, 1], got {sample}"
            )
        self.sample = float(sample)
        self.capacity = int(capacity)
        self._buffer: deque[_FinishedTrace] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self.recorded_total = 0

    def record(self, trace: _FinishedTrace) -> None:
        """Append one finished trace (evicting the oldest at capacity)."""
        with self._lock:
            self._buffer.append(trace)
            self.recorded_total += 1

    def recent(self, limit: int | None = None) -> list[dict[str, Any]]:
        """The most recent traces as JSON documents, newest first."""
        with self._lock:
            buffered = list(self._buffer)
        buffered.reverse()
        if limit is not None:
            buffered = buffered[: max(0, int(limit))]
        # Serialisation happens here, outside the lock, so a slow
        # scrape never stalls the request path.
        return [trace.to_document() for trace in buffered]

    def clear(self) -> None:
        """Drop every buffered trace (the total count survives)."""
        with self._lock:
            self._buffer.clear()


def enable_tracing(
    capacity: int = 256, *, sample: float = 1.0
) -> TraceCollector:
    """Install (or replace) the process-global collector."""
    global _collector
    _collector = TraceCollector(capacity, sample=sample)
    return _collector


def disable_tracing() -> None:
    """Remove the collector; :func:`span` returns to the no-op path."""
    global _collector
    _collector = None


def tracing_enabled() -> bool:
    """Whether a collector is installed."""
    return _collector is not None


def get_collector() -> TraceCollector | None:
    """The installed collector, if any."""
    return _collector


def chrome_trace(traces: Iterable[Mapping[str, Any]]) -> dict[str, Any]:
    """Convert ``/v1/trace`` span trees to Chrome trace-event JSON.

    Each trace becomes one ``tid`` of complete (``"ph": "X"``) events;
    timestamps are microseconds anchored at each trace's wall-clock
    start, so concurrent requests line up on the shared timeline.
    """
    events: list[dict[str, Any]] = []

    def walk(
        node: Mapping[str, Any], base_us: float, tid: int
    ) -> None:
        events.append(
            {
                "name": str(node.get("name", "span")),
                "ph": "X",
                "ts": base_us + float(node.get("start_ms", 0.0)) * 1e3,
                "dur": float(node.get("duration_ms", 0.0)) * 1e3,
                "pid": 0,
                "tid": tid,
                "args": dict(node.get("attrs", {})),
            }
        )
        for child in node.get("spans", ()):
            walk(child, base_us, tid)

    for tid, trace in enumerate(traces):
        base_us = float(trace.get("start_unix", 0.0)) * 1e6
        root_index = len(events)
        walk(trace, base_us, tid)
        for key in ("trace_id", "request_id"):
            if trace.get(key):
                events[root_index]["args"][key] = trace[key]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
