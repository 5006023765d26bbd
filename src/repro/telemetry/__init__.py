"""repro.telemetry -- spans, mergeable metrics, and trace serialization.

The observability layer over the engine, daemon, and fleet:

* :mod:`repro.telemetry.spans` -- hierarchical timing spans with parent ids,
  NDJSON trace records (the ``--trace FILE`` format), a thread-safe file
  writer, and a worker-side buffer so spans recorded inside pool workers
  travel back to the tracing process;
* :mod:`repro.telemetry.metrics` -- a process-global registry of counters,
  gauges, and histograms on one fixed log-bucket layout, whose shard-local
  instances merge *exactly* (per-bucket integer addition), JSON snapshots,
  per-job worker deltas (``drain``/``merge_snapshot``), and Prometheus text
  exposition;
* :mod:`repro.telemetry.recorder` -- the daemon flight recorder: a bounded
  ring (capacity at least 1) holding one :class:`RequestRecord` per
  accepted work request (frames seen, queue wait, phase timings, outcome,
  retry/rebuild/fault counters) with a slow-request threshold and a
  last-error audit, served by the daemon's ``dump``/``tail`` ops.

Design constraints (enforced by tests and CI):

* **metrics always, spans on demand** -- every instrumented call site
  records its counters and histograms (a few clock reads and dict updates);
  spans are a shared no-op until a sink is installed (``--trace``);
* **never perturbs results** -- no RNG use anywhere (span ids come from a
  counter), no mutation of job values: experiment/fleet JSON is
  byte-identical traced or untraced.
"""

from repro.telemetry.metrics import (
    CACHE_EVICTIONS,
    CACHE_HITS,
    CACHE_MISSES,
    CACHE_STORES,
    DAEMON_DISCONNECTS,
    DAEMON_INFLIGHT,
    DAEMON_QUEUE_DEPTH,
    DAEMON_QUEUE_WAIT_SECONDS,
    DAEMON_REQUESTS,
    DAEMON_REQUESTS_BUSY,
    DAEMON_REQUESTS_COLD,
    DAEMON_REQUESTS_WARM,
    DAEMON_REQUEST_SECONDS,
    ENGINE_JOBS_CACHED,
    ENGINE_JOBS_FAILED,
    ENGINE_JOBS_FINISHED,
    ENGINE_JOBS_SCHEDULED,
    ENGINE_JOB_RETRIES,
    ENGINE_MERGES,
    ENGINE_MERGE_SECONDS,
    ENGINE_POOL_REBUILDS,
    ENGINE_QUEUE_WAIT_SECONDS,
    ENGINE_RUN_SECONDS,
    FAULTS_INJECTED,
    FLEET_AUTH_REQUESTS,
    FLEET_AUTH_SECONDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    percentiles_ms,
    registry,
)
from repro.telemetry.recorder import FlightRecorder, RequestRecord
from repro.telemetry.spans import (
    TRACE_RECORD_KEYS,
    SpanBuffer,
    TraceWriter,
    current_span_id,
    current_trace_id,
    disable_tracing,
    drain_worker_spans,
    enable_tracing,
    new_span_id,
    new_trace_id,
    reset_trace_id,
    set_trace_id,
    span,
    tracing_active,
    write_records,
)

__all__ = [
    "CACHE_EVICTIONS",
    "CACHE_HITS",
    "CACHE_MISSES",
    "CACHE_STORES",
    "DAEMON_DISCONNECTS",
    "DAEMON_INFLIGHT",
    "DAEMON_QUEUE_DEPTH",
    "DAEMON_QUEUE_WAIT_SECONDS",
    "DAEMON_REQUESTS",
    "DAEMON_REQUESTS_BUSY",
    "DAEMON_REQUESTS_COLD",
    "DAEMON_REQUESTS_WARM",
    "DAEMON_REQUEST_SECONDS",
    "ENGINE_JOBS_CACHED",
    "ENGINE_JOBS_FAILED",
    "ENGINE_JOBS_FINISHED",
    "ENGINE_JOBS_SCHEDULED",
    "ENGINE_JOB_RETRIES",
    "ENGINE_MERGES",
    "ENGINE_MERGE_SECONDS",
    "ENGINE_POOL_REBUILDS",
    "ENGINE_QUEUE_WAIT_SECONDS",
    "ENGINE_RUN_SECONDS",
    "FAULTS_INJECTED",
    "FLEET_AUTH_REQUESTS",
    "FLEET_AUTH_SECONDS",
    "TRACE_RECORD_KEYS",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RequestRecord",
    "SpanBuffer",
    "TraceWriter",
    "current_span_id",
    "current_trace_id",
    "disable_tracing",
    "drain_worker_spans",
    "enable_tracing",
    "escape_label_value",
    "new_span_id",
    "new_trace_id",
    "percentiles_ms",
    "registry",
    "reset_trace_id",
    "set_trace_id",
    "span",
    "tracing_active",
    "write_records",
]
