"""Telemetry invariants: exact histogram merge, registry semantics, spans.

The load-bearing property is that fixed-log-bucket histograms merge
*exactly*: every histogram shares one bucket layout, so merging is
per-bucket integer addition, and the merged histogram is independent of how
observations were partitioned across shards and of the order in which shard
results were folded in.  That is what lets every pool worker record into its
own registry and ship a delta back without any loss.

The other guarded property is that telemetry never perturbs experiments:
``span()`` is a shared no-op singleton until a sink is installed, and a fleet
traffic replay produces byte-identical values traced and untraced.  Metrics
are always recorded, library calls included.
"""

from __future__ import annotations

import json
import random
from concurrent.futures import Future

import pytest

from repro import telemetry
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SpanBuffer,
    TraceWriter,
    TRACE_RECORD_KEYS,
)
from repro.telemetry.metrics import BUCKET_GROWTH, BUCKET_SCALE
from repro.engine import (
    ExperimentJob,
    MonteCarloPointJob,
    RangeShard,
    ResultCache,
    iter_jobs,
    run_sharded,
)
from repro.engine.executor import _pool_run


@pytest.fixture(autouse=True)
def clean_telemetry_state():
    """Reset the process-global registry and span sink around every test."""
    telemetry.registry().reset()
    telemetry.disable_tracing()
    yield
    telemetry.registry().reset()
    telemetry.disable_tracing()


def _samples(seed: int, n: int) -> list[float]:
    """Deterministic latency-like samples spanning several decades."""
    rng = random.Random(seed)
    return [10.0 ** rng.uniform(-7, 1) for _ in range(n)]


def _observe_all(values: list[float]) -> Histogram:
    histogram = Histogram()
    for value in values:
        histogram.observe(value)
    return histogram


class TestHistogram:
    def test_bucket_boundaries(self):
        histogram = Histogram()
        # Bucket 0 is (-inf, 1 us]; bucket i covers
        # (1 us * 2**((i-1)/4), 1 us * 2**(i/4)].  Past 1 us the probes sit
        # away from bucket edges, where float rounding in the log picks the
        # side (2e-6 lands in bucket 5).
        assert histogram.bucket_index(-5.0) == 0
        assert histogram.bucket_index(1e-6) == 0
        assert histogram.bucket_index(1.1e-6) == 1
        assert histogram.bucket_index(1.5e-6) == 3
        assert histogram.bucket_index(2.1e-6) == 5
        assert histogram.bucket_index(1e-3) == 40
        assert histogram.bucket_upper_bound(8) == pytest.approx(4e-6)

    def test_observe_tracks_count_sum_min_max(self):
        histogram = _observe_all([0.5, 2.0, 0.25])
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(2.75)
        assert histogram.min == 0.25
        assert histogram.max == 2.0
        assert histogram.mean == pytest.approx(2.75 / 3)

    def test_merge_matches_unpartitioned_observation(self):
        """Shard-partition invariance: split + merge == observe everything."""
        values = _samples(7, 200)
        whole = _observe_all(values)
        for cut in (1, 50, 137, 199):
            left = _observe_all(values[:cut])
            right = _observe_all(values[cut:])
            merged = left.merge(right)
            assert merged.buckets == whole.buckets
            assert merged.count == whole.count
            assert merged.sum == pytest.approx(whole.sum)
            assert merged.min == whole.min
            assert merged.max == whole.max

    def test_merge_is_associative_and_commutative(self):
        values = _samples(11, 90)
        parts = [values[0:30], values[30:60], values[60:90]]
        a, b, c = (_observe_all(part) for part in parts)

        left_first = _observe_all(parts[0]).merge(_observe_all(parts[1]))
        left_first.merge(_observe_all(parts[2]))
        right_first = _observe_all(parts[1]).merge(_observe_all(parts[2]))
        ab_c = _observe_all(parts[0]).merge(right_first)
        assert left_first.buckets == ab_c.buckets

        reordered = _observe_all(parts[2]).merge(_observe_all(parts[0]))
        reordered.merge(_observe_all(parts[1]))
        assert reordered.buckets == left_first.buckets
        assert reordered.count == left_first.count

    def test_subtract_recovers_the_delta(self):
        histogram = _observe_all(_samples(3, 50))
        before = Histogram.from_dict(histogram.to_dict())
        tail = _samples(4, 25)
        for value in tail:
            histogram.observe(value)
        delta = histogram.subtract(before)
        assert delta.count == 25
        assert delta.buckets == _observe_all(tail).buckets
        assert delta.sum == pytest.approx(sum(tail))

    def test_subtract_rejects_non_earlier_snapshot(self):
        small = _observe_all([1.0])
        big = _observe_all([1.0, 1.0])
        with pytest.raises(ValueError, match="not an earlier snapshot"):
            small.subtract(big)

    def test_quantiles_are_monotone_and_clamped(self):
        histogram = _observe_all(_samples(5, 500))
        p50, p95, p99 = (histogram.quantile(q) for q in (0.5, 0.95, 0.99))
        assert histogram.min <= p50 <= p95 <= p99 <= histogram.max
        assert histogram.min <= histogram.quantile(0.0) <= p50
        assert histogram.quantile(1.0) == histogram.max

    def test_single_value_quantile_is_exact(self):
        histogram = _observe_all([0.0042] * 10)
        assert histogram.quantile(0.5) == 0.0042
        assert histogram.quantile(0.99) == 0.0042

    def test_quantile_accuracy_within_bucket_width(self):
        values = sorted(_samples(13, 1000))
        histogram = _observe_all(values)
        for q in (0.5, 0.9, 0.99):
            exact = values[min(len(values) - 1, int(q * len(values)))]
            # One bucket's relative width with growth 2**0.25 is ~19%.
            assert histogram.quantile(q) == pytest.approx(exact, rel=0.25)

    def test_empty_quantile_and_validation(self):
        assert Histogram().quantile(0.5) == 0.0
        with pytest.raises(ValueError, match="quantile"):
            Histogram().quantile(1.5)

    def test_to_dict_round_trips_through_json(self):
        histogram = _observe_all(_samples(9, 40))
        payload = json.loads(json.dumps(histogram.to_dict()))
        restored = Histogram.from_dict(payload)
        assert restored.buckets == histogram.buckets
        assert restored.count == histogram.count
        assert restored.sum == pytest.approx(histogram.sum)
        assert restored.min == histogram.min
        assert restored.max == histogram.max
        assert restored.quantile(0.95) == histogram.quantile(0.95)

    def test_to_dict_names_the_one_layout(self):
        """Status, done frames and worker deltas keep their ``scale`` and
        ``growth`` fields: every histogram writes the same pair, and
        ``from_dict`` restores from the buckets alone."""
        registry = MetricsRegistry()
        registry.histogram("a").observe(0.001)
        registry.histogram("b")
        payloads = registry.snapshot()["histograms"]
        for payload in payloads.values():
            assert (payload["scale"], payload["growth"]) == (BUCKET_SCALE, BUCKET_GROWTH)
        stripped = {
            key: value for key, value in payloads["a"].items()
            if key not in ("scale", "growth")
        }
        assert Histogram.from_dict(stripped).to_dict() == payloads["a"]

    def test_observe_many_matches_repeated_observe(self):
        """The bulk form records exactly what ``count`` single calls would."""
        bulk = Histogram()
        bulk.observe_many(0.003, 4)
        bulk.observe_many(2e-7, 2)
        bulk.observe_many(1.0, 0)  # no observation: min/max untouched
        one_by_one = _observe_all([0.003] * 4 + [2e-7] * 2)
        assert bulk.buckets == one_by_one.buckets
        assert bulk.count == one_by_one.count == 6
        assert bulk.sum == pytest.approx(one_by_one.sum)
        assert (bulk.min, bulk.max) == (one_by_one.min, one_by_one.max)
        with pytest.raises(ValueError, match="non-negative"):
            bulk.observe_many(0.003, -1)
        assert bulk.count == 6


class TestCounterAndGauge:
    def test_counter_accumulates_and_rejects_negative(self):
        counter = Counter()
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        with pytest.raises(ValueError, match="only increase"):
            counter.inc(-1)

    def test_gauge_takes_last_value(self):
        gauge = Gauge()
        gauge.set(3)
        gauge.set(1.5)
        assert gauge.value == 1.5


class TestMetricsRegistry:
    def test_factories_return_the_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_snapshot_and_merge_snapshot(self):
        """A parent folding worker deltas sees what one process would have."""
        worker_a, worker_b, parent = (MetricsRegistry() for _ in range(3))
        for registry, values in ((worker_a, [0.001, 0.002]), (worker_b, [0.004])):
            registry.counter("jobs_total").inc(len(values))
            for value in values:
                registry.histogram("run_seconds").observe(value)
        parent.merge_snapshot(worker_a.drain())
        parent.merge_snapshot(worker_b.drain())

        merged = parent.snapshot()
        assert merged["counters"]["jobs_total"] == 3
        assert merged["histograms"]["run_seconds"]["count"] == 3
        everything = _observe_all([0.001, 0.002, 0.004])
        assert Histogram.from_dict(
            merged["histograms"]["run_seconds"]
        ).buckets == everything.buckets

    def test_drain_resets_and_skips_empty_metrics(self):
        registry = MetricsRegistry()
        registry.counter("zero")  # never incremented -> omitted from drain
        registry.counter("hits").inc()
        registry.histogram("empty")
        first = registry.drain()
        assert first["counters"] == {"hits": 1}
        assert first["histograms"] == {}
        # Drained clean: a second drain ships nothing.
        assert registry.drain()["counters"] == {}

    def test_snapshot_is_json_safe(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(0.01)
        assert json.loads(json.dumps(registry.snapshot())) == registry.snapshot()

    def test_render_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("requests_total").inc(3)
        registry.gauge("index_entries").set(7)
        histogram = registry.histogram("request_seconds")
        for value in (0.001, 0.002, 0.004):
            histogram.observe(value)
        text = registry.render_prometheus()

        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 3" in text
        assert "# TYPE repro_index_entries gauge" in text
        assert "repro_index_entries 7" in text
        assert "# TYPE repro_request_seconds histogram" in text
        assert 'repro_request_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_request_seconds_count 3" in text
        assert f"repro_request_seconds_sum {0.001 + 0.002 + 0.004!r}" in text
        # Bucket series are cumulative: counts never decrease down the list.
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_request_seconds_bucket")
        ]
        assert counts == sorted(counts)
        assert text.endswith("\n")

    def test_percentiles_ms(self):
        histogram = _observe_all([0.010] * 100)
        report = telemetry.percentiles_ms(histogram)
        assert report["count"] == 100
        assert report["p50_ms"] == pytest.approx(10.0)
        assert report["p99_ms"] == pytest.approx(10.0)
        empty = telemetry.percentiles_ms(Histogram())
        assert empty == {"count": 0, "p50_ms": None, "p95_ms": None, "p99_ms": None}


class TestSpans:
    def test_span_is_shared_noop_when_disabled(self):
        """Zero-cost path: no sink means the same singleton every call."""
        first = telemetry.span("anything", kind="engine", label=1)
        second = telemetry.span("other")
        assert first is second
        with first:
            assert telemetry.current_span_id() is None

    def test_record_shape_matches_the_schema(self):
        buffer = SpanBuffer()
        telemetry.enable_tracing(buffer)
        with telemetry.span("job.run", kind="engine", job="mc[2%]"):
            pass
        (record,) = buffer.drain()
        assert tuple(record) == TRACE_RECORD_KEYS
        assert record["name"] == "job.run"
        assert record["kind"] == "engine"
        assert record["labels"] == {"job": "mc[2%]"}
        assert record["parent"] is None
        assert record["duration_s"] >= 0.0
        assert json.loads(json.dumps(record)) == record

    def test_nested_spans_chain_parents(self):
        buffer = SpanBuffer()
        telemetry.enable_tracing(buffer)
        with telemetry.span("outer") as outer:
            assert telemetry.current_span_id() == outer.span_id
            with telemetry.span("inner"):
                pass
        assert telemetry.current_span_id() is None
        inner, outer_record = buffer.drain()  # inner closes (and writes) first
        assert inner["name"] == "inner"
        assert inner["parent"] == outer_record["span"]
        assert outer_record["parent"] is None

    def test_explicit_parent_overrides_context(self):
        """Cross-process parenting: a worker span points at its submitter."""
        buffer = SpanBuffer()
        telemetry.enable_tracing(buffer)
        with telemetry.span("local"):
            with telemetry.span("shipped", parent="f00-7"):
                pass
        shipped = buffer.drain()[0]
        assert shipped["parent"] == "f00-7"

    def test_span_ids_are_unique_and_pid_prefixed(self):
        import os

        ids = {telemetry.new_span_id() for _ in range(100)}
        assert len(ids) == 100
        assert all(span_id.startswith(f"{os.getpid():x}-") for span_id in ids)

    def test_trace_writer_appends_ndjson(self, tmp_path):
        path = tmp_path / "run.trace"
        writer = TraceWriter(path)
        telemetry.enable_tracing(writer)
        with telemetry.span("first", kind="cli"):
            with telemetry.span("second"):
                pass
        telemetry.disable_tracing()
        writer.close()
        writer.write({"span": "ignored"})  # closed writer drops records

        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [record["name"] for record in records] == ["second", "first"]
        for record in records:
            assert tuple(record) == TRACE_RECORD_KEYS

    def test_write_records_forwards_a_worker_batch(self):
        worker = SpanBuffer()
        telemetry.enable_tracing(worker)
        with telemetry.span("job.run", kind="engine"):
            pass
        shipped = worker.drain()
        telemetry.disable_tracing()
        telemetry.write_records(shipped)  # no sink: silently dropped

        parent = SpanBuffer()
        telemetry.enable_tracing(parent)
        telemetry.write_records(shipped)
        assert parent.drain() == shipped

    def test_drain_worker_spans_requires_a_buffer_sink(self, tmp_path):
        assert telemetry.drain_worker_spans() == []
        telemetry.enable_tracing(TraceWriter(tmp_path / "t.trace"))
        assert telemetry.drain_worker_spans() == []
        buffer = SpanBuffer()
        telemetry.enable_tracing(buffer)
        with telemetry.span("x"):
            pass
        assert len(telemetry.drain_worker_spans()) == 1
        assert telemetry.drain_worker_spans() == []


class TestRngNonPerturbation:
    def test_fleet_replay_identical_traced_and_untraced(self):
        """Telemetry must not touch RNG streams: same traffic, same bits."""
        from repro.engine import FleetTrafficJob

        def run() -> dict:
            return FleetTrafficJob(
                fleet_seed=99,
                devices=64,
                puf="CODIC-sig PUF",
                requests=24,
                challenges_per_device=2,
                impostor_ratio=0.25,
                temperature_jitter_c=5.0,
            ).run()

        baseline = run()
        latency = telemetry.registry().histogram(telemetry.FLEET_AUTH_SECONDS)
        assert latency.count == 24
        buffer = SpanBuffer()
        telemetry.enable_tracing(buffer)
        traced = run()
        assert json.dumps(traced, sort_keys=True) == json.dumps(
            baseline, sort_keys=True
        )
        assert buffer.drain()
        assert latency.count == 48


class TestTraceContext:
    """Request trace ids: minting, contextvar round-trip, record stamping."""

    def test_trace_ids_are_unique_and_structured(self):
        import os

        ids = {telemetry.new_trace_id() for _ in range(100)}
        assert len(ids) == 100
        for trace_id in ids:
            assert trace_id.startswith("t")
            stamp, pid, seq = trace_id[1:].split("-")
            assert int(stamp, 16) > 0
            assert int(pid, 16) == os.getpid()
            assert int(seq) > 0

    def test_set_reset_round_trip(self):
        assert telemetry.current_trace_id() is None
        token = telemetry.set_trace_id("t1-2-3")
        assert telemetry.current_trace_id() == "t1-2-3"
        inner = telemetry.set_trace_id("t4-5-6")
        assert telemetry.current_trace_id() == "t4-5-6"
        telemetry.reset_trace_id(inner)
        assert telemetry.current_trace_id() == "t1-2-3"
        telemetry.reset_trace_id(token)
        assert telemetry.current_trace_id() is None

    def test_records_carry_the_active_trace_id(self):
        buffer = SpanBuffer()
        telemetry.enable_tracing(buffer)
        token = telemetry.set_trace_id("t-req")
        try:
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    pass
        finally:
            telemetry.reset_trace_id(token)
        with telemetry.span("after"):
            pass
        inner, outer, after = buffer.drain()
        assert tuple(inner) == TRACE_RECORD_KEYS
        assert tuple(inner)[0] == "trace"
        assert inner["trace"] == outer["trace"] == "t-req"
        assert after["trace"] is None  # untagged outside the request context


class TestPrometheusEdgeCases:
    def test_escape_label_value(self):
        from repro.telemetry import escape_label_value

        assert escape_label_value("plain") == "plain"
        assert escape_label_value('say "hi"') == 'say \\"hi\\"'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("line1\nline2") == "line1\\nline2"
        # Backslash escapes first, or the quote escape would double-escape.
        assert escape_label_value('\\"') == '\\\\\\"'
        assert escape_label_value("\\n") == "\\\\n"

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""

    def test_bucket_boundary_values_land_inclusively(self):
        """Upper bounds are inclusive: a value exactly on a boundary stays
        in the lower bucket, and the exposition's cumulative counts agree."""
        histogram = Histogram()
        scale, growth = BUCKET_SCALE, BUCKET_GROWTH
        assert histogram.bucket_index(scale) == 0          # (-inf, scale]
        assert histogram.bucket_index(scale * growth) == 1
        assert histogram.bucket_index(scale * growth * 1.0001) == 2
        assert histogram.bucket_index(0.0) == 0
        assert histogram.bucket_index(-1.0) == 0

        registry = MetricsRegistry()
        series = registry.histogram("edge_seconds")
        series.observe(scale)                  # bucket 0
        series.observe(series.bucket_upper_bound(4))  # bucket 4 exactly
        text = registry.render_prometheus()
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_edge_seconds_bucket")
        ]
        assert counts == [1, 2, 2]  # bucket 0, bucket 4, +Inf
        assert 'le="+Inf"} 2' in text

    def test_quantiles_clamp_to_observed_min_and_max(self):
        histogram = Histogram()
        histogram.observe(0.010)
        # Single value: every quantile is exactly that value (min==max clamp).
        assert histogram.quantile(0.01) == 0.010
        assert histogram.quantile(0.99) == 0.010
        histogram.observe(0.020)
        for q in (0.0, 0.5, 1.0):
            assert 0.010 <= histogram.quantile(q) <= 0.020
        # Below-scale observations clamp up to the observed minimum, not to
        # bucket 0's upper bound.
        tiny = Histogram()
        tiny.observe(1e-9)
        assert tiny.quantile(0.5) == 1e-9


class _RecordingPool:
    """In-process stand-in for a :class:`PoolSupervisor` that runs every
    submission at once and records it."""

    max_attempts = 1

    def __init__(self):
        self.calls: list = []

    def submit(self, fn, /, *args, **kwargs):
        self.calls.append((fn, args))
        future: Future = Future()
        future.set_result(fn(*args))
        return future


class TestEnginePoolEntry:
    """Every pool job ships its telemetry context to the one worker entry
    point, and the parent folds each worker's metric delta back in."""

    def test_every_pool_job_ships_its_context(self):
        jobs = [RangeShard(MonteCarloPointJob(4.0, 30.0), 0, 10)] * 2
        pool = _RecordingPool()
        events = list(iter_jobs(jobs, pool=pool))
        assert [event.outcome.value for event in events if event.terminal] == [
            jobs[0].run(), jobs[0].run()
        ]
        assert len(pool.calls) == 2
        for fn, (job, context) in pool.calls:
            assert fn is _pool_run and job is jobs[0]
            parent_span, submitted_ts, trace, trace_id = context
            assert (parent_span, trace, trace_id) == (None, False, None)
            assert submitted_ts > 0.0
        # Each worker call starts its delta from an empty registry (here the
        # test process's own) and returns it; the parent merged both.
        snapshot = telemetry.registry().snapshot()
        assert snapshot["counters"][telemetry.ENGINE_JOBS_FINISHED] == 2
        for name in (telemetry.ENGINE_RUN_SECONDS, telemetry.ENGINE_QUEUE_WAIT_SECONDS):
            assert snapshot["histograms"][name]["count"] == 2


class TestLibraryCallsRecord:
    def test_run_sharded_records_metrics_without_setup(self):
        """Metrics need no switch: a bare library call records its job."""
        run_sharded([ExperimentJob("table2")])
        snapshot = telemetry.registry().snapshot()
        assert snapshot["counters"][telemetry.ENGINE_JOBS_FINISHED] == 1
        assert snapshot["histograms"][telemetry.ENGINE_RUN_SECONDS]["count"] == 1

    def test_result_cache_counts_without_setup(self, tmp_path):
        """A bare cache records its misses, stores, hits and evictions."""
        cache = ResultCache(tmp_path / "cache")
        job = ExperimentJob("table2")
        assert cache.get(job) is None
        cache.put(job, job.run())
        assert cache.get(job) is not None
        cache.path_for(job).write_text("{not json")
        assert cache.get(job) is None  # a corrupt blob is a miss and evicted
        assert not cache.path_for(job).exists()
        counters = telemetry.registry().snapshot()["counters"]
        assert counters[telemetry.CACHE_MISSES] == cache.stats.misses == 2
        assert counters[telemetry.CACHE_STORES] == cache.stats.stores == 1
        assert counters[telemetry.CACHE_HITS] == cache.stats.hits == 1
        assert counters[telemetry.CACHE_EVICTIONS] == 1
