"""Mergeable metrics: counters, gauges, fixed-log-bucket histograms.

The registry mirrors the engine's shard → merge architecture: every worker
process owns its own :class:`MetricsRegistry`, records into it while running
a job, and ships the accumulated delta back to the parent as a JSON-safe
snapshot.  Because histogram buckets live at *fixed* logarithmic boundaries
(``scale * growth**i``), shard-local histograms merge **exactly** -- merging
is per-bucket integer addition, so the merged histogram is independent of
how observations were partitioned across shards, workers, or merge order
(the property :mod:`tests.test_telemetry` pins down).

Everything is deliberately RNG-free and cheap: recording a histogram
observation is one ``math.log`` plus two dict updates, and nothing here ever
touches ``numpy`` random state, so telemetry cannot perturb experiment
output.  Collection is additionally gated behind a module-level flag
(:func:`enable_collection`): when disabled, the instrumented call sites skip
their ``perf_counter`` reads entirely.

Surfacing: :meth:`MetricsRegistry.snapshot` is the JSON wire/status format
(what ``daemon status`` embeds) and :meth:`MetricsRegistry.render_prometheus`
emits Prometheus text exposition (``# TYPE`` comments, cumulative
``_bucket{le=...}`` lines, ``_sum``/``_count``).
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterable

#: Metric name constants -- the catalogue every subsystem records under.
ENGINE_JOBS_SCHEDULED = "engine_jobs_scheduled_total"
ENGINE_JOBS_CACHED = "engine_jobs_cached_total"
ENGINE_JOBS_FINISHED = "engine_jobs_finished_total"
ENGINE_JOBS_FAILED = "engine_jobs_failed_total"
ENGINE_MERGES = "engine_merges_total"
ENGINE_JOB_RETRIES = "engine_job_retries_total"
ENGINE_POOL_REBUILDS = "engine_pool_rebuilds_total"
ENGINE_RUN_SECONDS = "engine_job_run_seconds"
ENGINE_QUEUE_WAIT_SECONDS = "engine_job_queue_wait_seconds"
ENGINE_MERGE_SECONDS = "engine_merge_seconds"
CACHE_HITS = "cache_hits_total"
CACHE_MISSES = "cache_misses_total"
CACHE_STORES = "cache_stores_total"
CACHE_EVICTIONS = "cache_evictions_total"
DAEMON_REQUESTS = "daemon_requests_total"
DAEMON_REQUESTS_WARM = "daemon_requests_warm_total"
DAEMON_REQUESTS_COLD = "daemon_requests_cold_total"
DAEMON_REQUEST_SECONDS = "daemon_request_seconds"
DAEMON_REQUESTS_BUSY = "daemon_requests_busy_total"
DAEMON_DISCONNECTS = "daemon_client_disconnects_total"
DAEMON_QUEUE_WAIT_SECONDS = "daemon_queue_wait_seconds"
DAEMON_QUEUE_DEPTH = "daemon_queue_depth"
DAEMON_INFLIGHT = "daemon_inflight_requests"
FLEET_AUTH_REQUESTS = "fleet_auth_requests_total"
FLEET_AUTH_SECONDS = "fleet_auth_request_seconds"
FAULTS_INJECTED = "faults_injected_total"


class Counter:
    """Monotonically increasing integer metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        self.value += amount


class Gauge:
    """Last-value metric (e.g. index sizes, worker counts)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


#: Default histogram geometry: buckets from 1 microsecond upward, four
#: buckets per doubling (~9% relative quantile error) -- fixed so every
#: process's histogram of the same metric merges exactly.
DEFAULT_SCALE = 1e-6
DEFAULT_GROWTH = 2.0 ** 0.25


class Histogram:
    """Fixed-log-bucket histogram with exact merge and subtract.

    Bucket ``0`` covers ``(-inf, scale]``; bucket ``i >= 1`` covers
    ``(scale * growth**(i-1), scale * growth**i]``.  Because boundaries are a
    pure function of ``(scale, growth)``, two histograms of the same metric
    always share a bucket layout, and :meth:`merge` is per-bucket integer
    addition -- associative, commutative, and partition-invariant.
    """

    __slots__ = ("scale", "growth", "_log_growth", "buckets", "count", "sum",
                 "min", "max")

    def __init__(self, scale: float = DEFAULT_SCALE, growth: float = DEFAULT_GROWTH):
        if scale <= 0.0:
            raise ValueError(f"scale must be positive, got {scale}")
        if growth <= 1.0:
            raise ValueError(f"growth must exceed 1, got {growth}")
        self.scale = float(scale)
        self.growth = float(growth)
        self._log_growth = math.log(self.growth)
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def bucket_index(self, value: float) -> int:
        """Index of the bucket whose range contains ``value``."""
        if value <= self.scale:
            return 0
        return max(0, math.ceil(math.log(value / self.scale) / self._log_growth))

    def bucket_upper_bound(self, index: int) -> float:
        """Inclusive upper boundary of bucket ``index``."""
        return self.scale * self.growth ** index

    def observe(self, value: float) -> None:
        value = float(value)
        index = self.bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.sum += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def observe_many(self, value: float, count: int) -> None:
        """Record ``count`` observations of the same ``value`` in one update.

        The bulk form the grouped fleet-auth kernel uses to attribute one
        evaluation group's elapsed time to its requests: bucket occupancy
        and ``count`` advance exactly as ``count`` individual ``observe``
        calls would, for one clock read and one dict update per group.
        """
        if count < 0:
            raise ValueError(f"observation count must be non-negative, got {count}")
        if count == 0:
            return
        value = float(value)
        index = self.bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + count
        self.count += count
        self.sum += value * count
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _check_layout(self, other: "Histogram") -> None:
        if (self.scale, self.growth) != (other.scale, other.growth):
            raise ValueError(
                f"histogram layouts differ: ({self.scale}, {self.growth}) vs "
                f"({other.scale}, {other.growth}); only identical fixed-bucket "
                "layouts merge exactly"
            )

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram in place (exact); returns self."""
        self._check_layout(other)
        for index, count in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + count
        self.count += other.count
        self.sum += other.sum
        for bound, pick in (("min", min), ("max", max)):
            ours, theirs = getattr(self, bound), getattr(other, bound)
            if theirs is not None:
                setattr(self, bound, theirs if ours is None else pick(ours, theirs))
        return self

    def subtract(self, earlier: "Histogram") -> "Histogram":
        """New histogram of the observations made since ``earlier``.

        Valid when ``earlier`` is a previous snapshot of this histogram
        (counts only grow); used to attribute a shared registry's recordings
        to one request.  ``min``/``max`` are not recoverable from two
        snapshots and are left unset on the difference.
        """
        self._check_layout(earlier)
        delta = Histogram(self.scale, self.growth)
        for index, count in self.buckets.items():
            remaining = count - earlier.buckets.get(index, 0)
            if remaining < 0:
                raise ValueError(
                    "subtrahend is not an earlier snapshot: bucket "
                    f"{index} shrank from {earlier.buckets.get(index, 0)} to {count}"
                )
            if remaining:
                delta.buckets[index] = remaining
        delta.count = self.count - earlier.count
        delta.sum = self.sum - earlier.sum
        return delta

    def quantile(self, q: float) -> float:
        """Approximate quantile from the buckets (log-interpolated).

        Exact to within one bucket's relative width (~``growth - 1``);
        clamped to the observed ``min``/``max`` when known so degenerate
        single-value histograms report exactly that value.  Returns ``0.0``
        for an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        value = 0.0
        for index in sorted(self.buckets):
            occupancy = self.buckets[index]
            cumulative += occupancy
            if cumulative >= target:
                if index == 0:
                    value = self.scale
                else:
                    lower = self.bucket_upper_bound(index - 1)
                    fraction = (target - (cumulative - occupancy)) / occupancy
                    value = lower * self.growth ** fraction
                break
        if self.min is not None:
            value = max(value, self.min)
        if self.max is not None:
            value = min(value, self.max)
        return value

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot (bucket keys become strings)."""
        payload: dict[str, Any] = {
            "scale": self.scale,
            "growth": self.growth,
            "count": self.count,
            "sum": self.sum,
            "buckets": {str(index): count for index, count in sorted(self.buckets.items())},
        }
        if self.min is not None:
            payload["min"] = self.min
        if self.max is not None:
            payload["max"] = self.max
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Histogram":
        """Inverse of :meth:`to_dict`."""
        histogram = cls(scale=payload["scale"], growth=payload["growth"])
        histogram.buckets = {
            int(index): int(count) for index, count in payload["buckets"].items()
        }
        histogram.count = int(payload["count"])
        histogram.sum = float(payload["sum"])
        histogram.min = float(payload["min"]) if "min" in payload else None
        histogram.max = float(payload["max"]) if "max" in payload else None
        return histogram


class MetricsRegistry:
    """Named counters, gauges, and histograms with snapshot/merge/drain.

    Thread-safe at the registry level (creation and snapshotting); individual
    increments are plain attribute updates, which is safe under the GIL for
    the integer/float operations involved.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            counter = self._counters.get(name)
            if counter is None:
                counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            gauge = self._gauges.get(name)
            if gauge is None:
                gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(
        self,
        name: str,
        scale: float = DEFAULT_SCALE,
        growth: float = DEFAULT_GROWTH,
    ) -> Histogram:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram(scale, growth)
            elif (histogram.scale, histogram.growth) != (float(scale), float(growth)):
                raise ValueError(
                    f"histogram {name!r} already registered with layout "
                    f"({histogram.scale}, {histogram.growth})"
                )
        return histogram

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe snapshot of every metric (the wire/status format)."""
        with self._lock:
            return {
                "counters": {
                    name: counter.value for name, counter in sorted(self._counters.items())
                },
                "gauges": {
                    name: gauge.value for name, gauge in sorted(self._gauges.items())
                },
                "histograms": {
                    name: histogram.to_dict()
                    for name, histogram in sorted(self._histograms.items())
                },
            }

    def merge_snapshot(self, snapshot: dict[str, Any]) -> None:
        """Fold a snapshot (e.g. a worker's drained delta) into this registry.

        Counters add, histograms bucket-merge (exact), gauges take the
        snapshot's value -- the merged registry is what one process observing
        all the work would have recorded.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, payload in snapshot.get("histograms", {}).items():
            incoming = Histogram.from_dict(payload)
            self.histogram(name, incoming.scale, incoming.growth).merge(incoming)

    def drain(self) -> dict[str, Any]:
        """Snapshot then reset -- the per-job delta a pool worker ships back.

        Because the worker records into a freshly drained registry for every
        job, the returned snapshot is exactly that job's contribution; the
        parent folds it in with :meth:`merge_snapshot`.
        """
        with self._lock:
            snapshot = {
                "counters": {
                    name: counter.value
                    for name, counter in sorted(self._counters.items())
                    if counter.value
                },
                "gauges": {
                    name: gauge.value for name, gauge in sorted(self._gauges.items())
                },
                "histograms": {
                    name: histogram.to_dict()
                    for name, histogram in sorted(self._histograms.items())
                    if histogram.count
                },
            }
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
        return snapshot

    def reset(self) -> None:
        """Drop every metric (tests and fresh CLI runs)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def render_prometheus(self, prefix: str = "repro_") -> str:
        """Prometheus text exposition of the current state.

        Counters render as ``counter``, gauges as ``gauge``, histograms as
        cumulative ``_bucket{le="..."}`` series (occupied buckets only, which
        is a valid sparse exposition) plus ``_sum`` and ``_count``.
        """
        snapshot = self.snapshot()
        lines: list[str] = []
        for name, value in snapshot["counters"].items():
            metric = prefix + name
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {value}")
        for name, value in snapshot["gauges"].items():
            metric = prefix + name
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {_format_value(value)}")
        for name, payload in snapshot["histograms"].items():
            metric = prefix + name
            histogram = Histogram.from_dict(payload)
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for index in sorted(histogram.buckets):
                cumulative += histogram.buckets[index]
                bound = histogram.bucket_upper_bound(index)
                le = escape_label_value(_format_value(bound))
                lines.append(f'{metric}_bucket{{le="{le}"}} {cumulative}')
            lines.append(f'{metric}_bucket{{le="+Inf"}} {histogram.count}')
            lines.append(f"{metric}_sum {_format_value(histogram.sum)}")
            lines.append(f"{metric}_count {histogram.count}")
        return "\n".join(lines) + ("\n" if lines else "")


def _format_value(value: float) -> str:
    """Compact float formatting for exposition lines (ints stay ints)."""
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def escape_label_value(value: str) -> str:
    """Escape a Prometheus label value per the text-exposition format.

    Backslash, double-quote, and newline are the three characters the format
    requires escaping inside ``label="..."``; everything else passes through
    verbatim.  Backslash must be escaped first or the other escapes would be
    double-escaped.
    """
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


#: Process-global registry every instrumented call site records into.
_REGISTRY = MetricsRegistry()

#: Collection gate: instrumented hot paths skip their clock reads entirely
#: until something (the --trace flag, the fleet CLI, the daemon) enables it.
_COLLECTING = False


def registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _REGISTRY


def enable_collection() -> None:
    """Turn on metric recording at the instrumented call sites."""
    global _COLLECTING
    _COLLECTING = True


def disable_collection() -> None:
    """Turn metric recording back off (tests)."""
    global _COLLECTING
    _COLLECTING = False


def collection_enabled() -> bool:
    return _COLLECTING


def percentiles_ms(
    histogram: Histogram, quantiles: Iterable[float] = (0.5, 0.95, 0.99)
) -> dict[str, float | None]:
    """``{"p50_ms": ..., ...}`` from a seconds histogram (``None`` when empty)."""
    report: dict[str, float | None] = {"count": histogram.count}  # type: ignore[dict-item]
    for q in quantiles:
        key = f"p{q * 100:g}".replace(".", "_") + "_ms"
        report[key] = (
            round(histogram.quantile(q) * 1000.0, 4) if histogram.count else None
        )
    return report
