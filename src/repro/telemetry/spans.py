"""Hierarchical timing spans serialized as NDJSON trace records.

A span measures one named region of work (a job run, a shard merge, a daemon
request, a fleet authentication block).  Spans nest: the active span id
lives in a :mod:`contextvars` variable, so a span opened inside another
records it as its parent and a trace viewer can reconstruct the tree.  Span
ids are ``"<pid hex>-<sequence>"`` -- derived from a process-local counter,
never from any random source, so tracing cannot perturb RNG streams.

One NDJSON record is written per *completed* span::

    {"trace":"t198a-2623-1","span":"a3f-2","parent":"a3f-1","name":"job.run",
     "kind":"engine","pid":2623,"ts":1754524800.123,"duration_s":0.0123,
     "labels":{"job":"mc[2%,30C][0:8192]"}}

``trace`` is the request-scoped trace id: minted once per CLI invocation or
daemon request (:func:`new_trace_id`), installed with :func:`set_trace_id`,
and propagated across process boundaries (protocol frames carry it to the
daemon, the executor ships it to pool workers), so every span a single
request produces -- client, daemon, and workers -- shares one trace id and
viewers can reconstruct one tree per *request* rather than per process.
Like span ids it is clock/pid/counter-derived, never random.

``ts`` is the wall-clock start (epoch seconds; comparable across processes
on one machine), ``duration_s`` a monotonic ``perf_counter`` delta.

Two sinks cover the two process roles: :class:`TraceWriter` appends records
to the ``--trace`` file (line-buffered, thread-safe) in the process that
owns the trace; :class:`SpanBuffer` accumulates records in a pool worker so
the executor can ship them back to the parent alongside the job result --
worker spans carry the submitting process's span as their parent, giving
one tree across the pool.

Zero-cost-when-disabled: :func:`span` returns a shared no-op context
manager until a sink is installed -- no id allocation, no clock reads, no
allocation beyond the call itself.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, TextIO

#: Keys every trace record carries (the NDJSON schema CI validates).
TRACE_RECORD_KEYS = (
    "trace",
    "span",
    "parent",
    "name",
    "kind",
    "pid",
    "ts",
    "duration_s",
    "labels",
)

_CURRENT: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_current_span", default=None
)
_TRACE: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_current_trace", default=None
)
_SEQUENCE = itertools.count(1)
_TRACE_SEQUENCE = itertools.count(1)
_SINK: "TraceWriter | SpanBuffer | None" = None


def new_span_id() -> str:
    """Process-unique span id from a counter (deliberately RNG-free)."""
    return f"{os.getpid():x}-{next(_SEQUENCE)}"


def new_trace_id() -> str:
    """Globally-unique-enough request trace id (deliberately RNG-free).

    ``t<epoch-ms hex>-<pid hex>-<sequence>`` -- the millisecond timestamp
    disambiguates across boots, the pid across concurrent processes, and the
    process-local counter across requests minted in the same millisecond.
    """
    return f"t{int(time.time() * 1000):x}-{os.getpid():x}-{next(_TRACE_SEQUENCE)}"


def set_trace_id(trace_id: str | None) -> contextvars.Token:
    """Install ``trace_id`` as the current trace context; returns the token.

    Pass the token to :func:`reset_trace_id` to restore the previous value
    (a daemon handler thread does this around each request).
    """
    return _TRACE.set(trace_id)


def reset_trace_id(token: contextvars.Token) -> None:
    """Restore the trace context captured by a :func:`set_trace_id` token."""
    _TRACE.reset(token)


def current_trace_id() -> str | None:
    """The active request trace id, or ``None`` outside any request."""
    return _TRACE.get()


def current_span_id() -> str | None:
    """Id of the innermost active span, or ``None`` outside any span."""
    return _CURRENT.get()


class TraceWriter:
    """Thread-safe NDJSON appender for trace records."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._stream: TextIO | None = self.path.open("a", encoding="utf-8")

    def write(self, record: dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"))
        with self._lock:
            if self._stream is None:
                return
            self._stream.write(line + "\n")
            self._stream.flush()

    def close(self) -> None:
        with self._lock:
            if self._stream is not None:
                self._stream.close()
                self._stream = None


class SpanBuffer:
    """In-memory sink a pool worker drains after each job."""

    def __init__(self) -> None:
        self._records: list[dict[str, Any]] = []

    def write(self, record: dict[str, Any]) -> None:
        self._records.append(record)

    def drain(self) -> list[dict[str, Any]]:
        records, self._records = self._records, []
        return records


def enable_tracing(sink: "TraceWriter | SpanBuffer") -> None:
    """Install the process-wide span sink (spans start recording)."""
    global _SINK
    _SINK = sink


def disable_tracing() -> "TraceWriter | SpanBuffer | None":
    """Remove the sink (spans become no-ops again); returns the old sink."""
    global _SINK
    sink, _SINK = _SINK, None
    return sink


def tracing_active() -> bool:
    return _SINK is not None


def drain_worker_spans() -> list[dict[str, Any]]:
    """Drain the worker-side buffer; ``[]`` when no buffer sink is active."""
    if isinstance(_SINK, SpanBuffer):
        return _SINK.drain()
    return []


def write_records(records: list[dict[str, Any]]) -> None:
    """Forward already-serialized records (a worker's) to the active sink."""
    sink = _SINK
    if sink is None:
        return
    for record in records:
        sink.write(record)


class _NoopSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NOOP = _NoopSpan()


class _Span:
    """Live span: times the region and writes one record on exit."""

    __slots__ = ("name", "kind", "labels", "parent", "span_id", "_token", "_ts", "_t0")

    def __init__(
        self, name: str, kind: str, labels: dict[str, Any], parent: str | None
    ):
        self.name = name
        self.kind = kind
        self.labels = labels
        self.parent = parent
        self.span_id = new_span_id()

    def __enter__(self) -> "_Span":
        if self.parent is None:
            self.parent = _CURRENT.get()
        self._token = _CURRENT.set(self.span_id)
        self._ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        duration = time.perf_counter() - self._t0
        _CURRENT.reset(self._token)
        sink = _SINK
        if sink is not None:
            sink.write(
                {
                    "trace": _TRACE.get(),
                    "span": self.span_id,
                    "parent": self.parent,
                    "name": self.name,
                    "kind": self.kind,
                    "pid": os.getpid(),
                    "ts": round(self._ts, 6),
                    "duration_s": round(duration, 9),
                    "labels": self.labels,
                }
            )
        return False


def span(
    name: str, kind: str = "span", parent: str | None = None, **labels: Any
) -> "_Span | _NoopSpan":
    """Context manager timing one region; no-op singleton when disabled.

    ``parent`` overrides the contextvar-derived parent id -- used when the
    logical parent lives in another process (a pool worker's job span points
    at the span that submitted it).  Label values must be JSON-safe.
    """
    if _SINK is None:
        return _NOOP
    return _Span(name, kind, labels, parent)
