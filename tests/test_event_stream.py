"""Tests for the event-driven execution core.

Covers the :class:`~repro.engine.JobEvent` stream contract
(``scheduled``/``started``/``cached``/``finished``/``failed``, wire format,
shard coordinates), completion-order emission with incremental parent merges
in :func:`~repro.engine.iter_sharded`, the fail-fast guarantees (in-flight
work lands in the cache, cancelled work leaves no orphan outcomes, a parent
whose last shard fails fails too and caches nothing), worker-crash recovery
through :class:`~repro.engine.PoolSupervisor`, and the CLI's
``--stream``/``--jobs`` surface.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass

import pytest

from repro.circuit.montecarlo import MC_SAMPLE_BLOCK
from repro.engine import (
    CACHED,
    FAILED,
    FINISHED,
    SCHEDULED,
    STARTED,
    EngineError,
    ExperimentJob,
    Job,
    JobEvent,
    JobOutcome,
    MonteCarloPointJob,
    PoolSupervisor,
    RangeJob,
    RangeShard,
    ResultCache,
    iter_jobs,
    iter_sharded,
    run_sharded,
)
from repro.experiments.__main__ import main


@dataclass(frozen=True)
class SleepJob(Job):
    """Picklable job that sleeps then returns its name (cacheable)."""

    name: str
    sleep_s: float = 0.0

    kind = "sleep"

    @property
    def job_id(self) -> str:
        return self.name

    @property
    def config(self) -> dict:
        return {"name": self.name, "sleep_s": self.sleep_s}

    def run(self) -> str:
        time.sleep(self.sleep_s)
        return self.name

    def encode(self, result: str) -> dict:
        return {"name": result}

    def decode(self, payload: dict) -> str:
        return payload["name"]


@dataclass(frozen=True)
class SlowFailJob(Job):
    """Picklable job that sleeps briefly, then raises."""

    name: str = "bang"
    sleep_s: float = 0.02

    kind = "slow-fail"

    @property
    def job_id(self) -> str:
        return self.name

    @property
    def config(self) -> dict:
        return {"name": self.name, "sleep_s": self.sleep_s}

    def run(self) -> None:
        time.sleep(self.sleep_s)
        raise RuntimeError(f"{self.name} exploded")


@dataclass(frozen=True)
class CrashOnceJob(Job):
    """Picklable job that kills its worker on the first run, then succeeds.

    An ``O_EXCL`` marker file records the first attempt, so the retried job
    (running in a fresh worker after the supervisor rebuild) completes.
    """

    name: str
    marker: str

    kind = "crash-once"

    @property
    def job_id(self) -> str:
        return self.name

    @property
    def config(self) -> dict:
        return {"name": self.name, "marker": self.marker}

    def run(self) -> str:
        try:
            os.close(os.open(self.marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except FileExistsError:
            return self.name
        os._exit(75)

    def encode(self, result: str) -> dict:
        return {"name": result}

    def decode(self, payload: dict) -> str:
        return payload["name"]


@dataclass(frozen=True)
class AlwaysCrashJob(Job):
    """Picklable job that kills its worker every single time it runs."""

    name: str = "doomed"

    kind = "always-crash"

    @property
    def job_id(self) -> str:
        return self.name

    @property
    def config(self) -> dict:
        return {"name": self.name}

    def run(self) -> None:
        os._exit(75)


@dataclass(frozen=True)
class GatedMonteCarloPointJob(MonteCarloPointJob):
    """Picklable Monte Carlo point whose shards after the first wait for a gate.

    A shard starting past sample 0 polls until the file ``gate`` exists, so
    the test decides when those shards may finish.  The wait is bounded
    (30 s): a gate that never opens fails the shard instead of hanging the
    pool.
    """

    gate: str = ""

    def run_range(self, start: int, stop: int) -> int:
        if start > 0:
            deadline = time.monotonic() + 30.0
            while not os.path.exists(self.gate):
                if time.monotonic() > deadline:
                    raise TimeoutError(f"gate {self.gate} never opened")
                time.sleep(0.001)
        return super().run_range(start, stop)


@dataclass(frozen=True)
class LastShardFailsJob(RangeJob):
    """Picklable four-unit range job whose units from 2 on raise."""

    units: int = 4

    kind = "last-shard-fails"
    shard_kind = "last-shard-fails-shard"
    total_field = "units"

    @property
    def job_id(self) -> str:
        return "lf"

    @property
    def config(self) -> dict:
        return {"units": self.units}

    def run_range(self, start: int, stop: int) -> dict:
        if stop > 2:
            raise RuntimeError(f"units [{start}, {stop}) exploded")
        return {"units": [float(unit) for unit in range(start, stop)]}


def _settled(events) -> list[JobOutcome]:
    """The outcomes of a stream's terminal events, in completion order."""
    return [event.outcome for event in events if event.terminal]


class TestIterJobs:
    def test_event_sequence_for_one_job(self):
        events = list(iter_jobs([ExperimentJob("table1")]))
        assert [event.type for event in events] == [SCHEDULED, STARTED, FINISHED]
        assert all(event.job.job_id == "table1" for event in events)
        assert events[-1].terminal
        assert events[-1].outcome.ok
        assert events[-1].outcome.value.experiment_id == "table1"
        assert events[-1].index == 0
        assert events[-1].total == 1

    def test_cache_hit_settles_with_cached_event(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = ExperimentJob("table1")
        list(iter_jobs([job], cache=cache))
        events = list(iter_jobs([job], cache=ResultCache(tmp_path)))
        assert [event.type for event in events] == [SCHEDULED, CACHED]
        assert events[-1].outcome.cached

    def test_parallel_events_arrive_in_completion_order(self):
        slow = SleepJob("slow", 0.4)
        fast = SleepJob("fast", 0.0)
        events = list(iter_jobs([slow, fast], workers=2))
        terminal = [event.job.job_id for event in events if event.terminal]
        assert terminal == ["fast", "slow"]
        # ... while run_sharded restores submission order.
        outcomes = run_sharded([slow, fast], workers=2)
        assert [outcome.job.job_id for outcome in outcomes] == ["slow", "fast"]

    def test_failed_event_carries_traceback(self):
        events = list(iter_jobs([SlowFailJob(sleep_s=0.0)]))
        assert events[-1].type == FAILED
        assert "exploded" in events[-1].outcome.error

    def test_event_to_dict_is_json_safe(self):
        job = RangeShard(MonteCarloPointJob(4.0, 30.0), 0, 2_000)
        outcome = JobOutcome(job=job, value=3, duration_s=0.5)
        payload = JobEvent(FINISHED, job, 2, 7, outcome).to_dict(include_value=True)
        assert json.loads(json.dumps(payload)) == payload
        assert payload["event"] == "finished"
        assert payload["kind"] == "montecarlo-shard"
        assert payload["shard"] == [0, 2000]
        assert payload["index"] == 2
        assert payload["total"] == 7
        assert payload["value"] == {"bit_flips": 3}

    def test_non_shard_jobs_have_no_shard_coordinates(self):
        event = JobEvent(SCHEDULED, ExperimentJob("table1"), 0, 1)
        assert event.shard is None
        assert event.to_dict()["shard"] is None


class TestJobEventWireFormat:
    """The ``--stream``/daemon wire format survives a JSON round-trip."""

    def _over_the_wire(self, event: JobEvent, **kwargs) -> dict:
        """Serialize exactly as the stream renderers and daemon frames do."""
        return json.loads(json.dumps(event.to_dict(**kwargs)))

    def test_finished_event_round_trips_with_value(self):
        job = SleepJob("alpha", 0.0)
        outcome = JobOutcome(job=job, value="alpha", duration_s=0.25)
        received = self._over_the_wire(
            JobEvent(FINISHED, job, 1, 3, outcome), include_value=True
        )
        assert received == {
            "event": "finished",
            "job": "alpha",
            "kind": "sleep",
            "index": 1,
            "total": 3,
            "duration_s": 0.25,
            "cached": False,
            "error": None,
            "shard": None,
            "value": {"name": "alpha"},
        }
        # The consumer reconstructs the in-memory result via the job codec.
        assert job.decode(received["value"]) == outcome.value

    def test_shard_coordinates_round_trip(self):
        point = MonteCarloPointJob(4.0, 30.0)
        job = RangeShard(point, MC_SAMPLE_BLOCK, 2 * MC_SAMPLE_BLOCK)
        outcome = JobOutcome(job=job, value=5, duration_s=0.1)
        received = self._over_the_wire(JobEvent(FINISHED, job, 0, 2, outcome),
                                       include_value=True)
        assert received["shard"] == [MC_SAMPLE_BLOCK, 2 * MC_SAMPLE_BLOCK]
        assert job.decode(received["value"]) == 5

    def test_failed_event_carries_error_and_never_a_value(self):
        job = SlowFailJob(sleep_s=0.0)
        outcome = JobOutcome(job=job, error="Traceback ... exploded")
        received = self._over_the_wire(
            JobEvent(FAILED, job, 0, 1, outcome), include_value=True
        )
        assert received["event"] == "failed"
        assert received["error"] == "Traceback ... exploded"
        assert "value" not in received

    def test_cached_event_round_trips_the_cached_flag(self):
        job = SleepJob("warm", 0.0)
        outcome = JobOutcome(job=job, value="warm", cached=True)
        received = self._over_the_wire(JobEvent(CACHED, job, 0, 1, outcome))
        assert received["cached"] is True
        assert "value" not in received  # include_value defaults to off

    def test_non_terminal_events_have_no_outcome_fields(self):
        received = self._over_the_wire(
            JobEvent(STARTED, SleepJob("alpha", 0.0), 0, 1), include_value=True
        )
        assert received["event"] == "started"
        assert received["duration_s"] == 0.0
        assert received["cached"] is False
        assert received["error"] is None
        assert "value" not in received

    def test_merged_parent_events_round_trip_null_cohort(self):
        """Parent merges complete outside any cohort: index/total stay null."""
        job = SleepJob("parent", 0.0)
        outcome = JobOutcome(job=job, value="parent", duration_s=0.01)
        received = self._over_the_wire(JobEvent(FINISHED, job, None, None, outcome))
        assert received["index"] is None
        assert received["total"] is None


class TestFailFastPoolDrain:
    """Fail-fast semantics on the pool: drain in-flight, cancel queued."""

    def test_in_flight_drains_to_cache_and_cancelled_leave_no_outcomes(self, tmp_path):
        cache = ResultCache(tmp_path)
        fail = SlowFailJob(sleep_s=0.05)
        in_flight = SleepJob("inflight", 0.6)
        queued = [SleepJob(f"queued{i}", 0.01) for i in range(6)]
        jobs = [fail, in_flight, *queued]
        events = list(iter_jobs(jobs, workers=2, cache=cache))
        terminal = {event.job.job_id: event for event in events if event.terminal}
        assert terminal["bang"].type == FAILED
        # The in-flight sibling was NOT killed: it drained and was cached.
        assert terminal["inflight"].type == FINISHED
        fresh = ResultCache(tmp_path)
        assert fresh.get(in_flight) == "inflight"
        # At least the tail of the queue was cancelled, and every cancelled
        # job produced neither a terminal event nor a cache entry.
        cancelled = [job for job in queued if job.job_id not in terminal]
        assert cancelled
        for job in cancelled:
            assert ResultCache(tmp_path).get(job) is None

    def test_run_sharded_raises_after_drain(self, tmp_path):
        cache = ResultCache(tmp_path)
        fail = SlowFailJob(sleep_s=0.05)
        in_flight = SleepJob("inflight", 0.4)
        with pytest.raises(EngineError) as excinfo:
            run_sharded([fail, in_flight, SleepJob("tail", 0.3)], workers=2, cache=cache)
        assert "bang" in str(excinfo.value)
        assert ResultCache(tmp_path).get(in_flight) == "inflight"

    def test_sharded_drain_caches_shards_but_never_merges_parent(self, tmp_path):
        cache = ResultCache(tmp_path)
        fail = SlowFailJob(sleep_s=0.02)
        # Every shard after the first waits for the gate, which opens only
        # once the stream has reported the failure: fail-fast has cancelled
        # the queued tail before any shard but the first can finish, so the
        # parent cannot complete however the pool is scheduled.
        gate = tmp_path / "gate"
        point = GatedMonteCarloPointJob(
            4.0, 30.0, samples=64 * MC_SAMPLE_BLOCK, gate=str(gate)
        )
        events = []
        for event in iter_sharded(
            [fail, point], shard_size=MC_SAMPLE_BLOCK, workers=2, cache=cache
        ):
            events.append(event)
            if event.job is fail and event.type == FAILED:
                gate.touch()
        assert [event.type for event in events if event.job is fail and event.terminal] == [
            FAILED
        ]
        assert not any(event.job is point and event.terminal for event in events)
        fresh = ResultCache(tmp_path)
        # The first shard was in flight alongside the failure: it drained
        # into the cache...
        first_shard = RangeShard(point, 0, MC_SAMPLE_BLOCK)
        assert fresh.get(first_shard) is not None
        # ... but the parent never saw all its shards, so no orphan merged
        # outcome was fabricated or cached.
        assert ResultCache(tmp_path).get(point) is None


class TestIterSharded:
    def test_parent_merges_the_moment_last_shard_lands(self):
        point = MonteCarloPointJob(4.0, 30.0, samples=2 * MC_SAMPLE_BLOCK)
        events = list(iter_sharded([point], shard_size=MC_SAMPLE_BLOCK))
        terminal_ids = [event.job.job_id for event in events if event.terminal]
        # Both leaf shards settle, then the parent's merged event follows.
        assert terminal_ids[-1] == point.job_id
        assert len(terminal_ids) == 3
        merged = [event for event in events if event.job is point and event.terminal]
        assert merged[0].outcome.value == point.run()
        assert merged[0].index is None  # parents complete outside the leaf cohort

    def test_cached_sibling_settles_before_computing_sibling(self, tmp_path):
        heavy = MonteCarloPointJob(4.0, 30.0, samples=2 * MC_SAMPLE_BLOCK)
        light = MonteCarloPointJob(3.0, 30.0, samples=2 * MC_SAMPLE_BLOCK)
        run_sharded([light], shard_size=MC_SAMPLE_BLOCK, cache=ResultCache(tmp_path))
        events = list(
            iter_sharded(
                [heavy, light], shard_size=MC_SAMPLE_BLOCK, cache=ResultCache(tmp_path)
            )
        )
        roots = [
            event.job for event in events if event.terminal and event.job in (heavy, light)
        ]
        # Completion order: the cached job settles during expansion, long
        # before the computing sibling submitted ahead of it.
        assert roots == [light, heavy]

    def test_last_shard_failure_fails_the_parent_and_caches_no_merge(self, tmp_path):
        # The failing shard is the parent's last outstanding one, so the
        # parent settles too: failed, naming the shard, with nothing merged.
        job = LastShardFailsJob()
        events = list(iter_sharded([job], shard_size=2, cache=ResultCache(tmp_path)))
        assert [(event.type, event.job_id) for event in events if event.terminal] == [
            (FINISHED, "lf[0:2]"), (FAILED, "lf[2:4]"), (FAILED, "lf"),
        ]
        assert events[-1].job is job
        assert events[-1].outcome.error.startswith("[lf[2:4]] ")
        assert "exploded" in events[-1].outcome.error
        fresh = ResultCache(tmp_path)
        assert fresh.get(RangeShard(job, 0, 2)) == {"units": [0.0, 1.0]}
        assert fresh.get(job) is None
        with pytest.raises(EngineError, match=r"^1 job\(s\) failed: lf\[2:4\]$"):
            run_sharded([job], shard_size=2, cache=ResultCache(tmp_path))
        assert ResultCache(tmp_path).get(job) is None

    def test_fully_cached_tree_settles_without_running_leaves(self, tmp_path):
        point = MonteCarloPointJob(4.0, 30.0, samples=2 * MC_SAMPLE_BLOCK)
        run_sharded([point], shard_size=MC_SAMPLE_BLOCK, cache=ResultCache(tmp_path))
        warm = ResultCache(tmp_path)
        events = list(iter_sharded([point], shard_size=MC_SAMPLE_BLOCK, cache=warm))
        assert [event.type for event in events] == [CACHED]
        assert warm.stats.hits == 1
        assert warm.stats.misses == 0


class TestStreamCLI:
    def test_stream_emits_parseable_ndjson(self, tmp_path, capsys):
        assert main(["table1", "--stream", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        events = [json.loads(line) for line in out.splitlines() if line.strip()]
        assert {event["event"] for event in events} == {
            "scheduled", "started", "finished",
        }
        final = events[-1]
        assert final["kind"] == "experiment"
        assert final["value"]["experiment_id"] == "table1"

    def test_stream_includes_shard_events(self, tmp_path, capsys):
        assert main(
            ["table11", "--stream", "--shard-size", "6000", "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        events = [json.loads(line) for line in out.splitlines() if line.strip()]
        shard_events = [
            event for event in events
            if event["event"] == "finished" and event["shard"] is not None
        ]
        assert shard_events
        assert all(
            event["shard"][0] < event["shard"][1] for event in shard_events
        )
        roots = [event for event in events if "value" in event]
        assert [event["job"] for event in roots] == ["table11"]

    def test_stream_and_json_are_mutually_exclusive(self, capsys):
        assert main(["table1", "--stream", "--json"]) == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_jobs_must_be_positive(self, capsys):
        assert main(["table1", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert main(["table1", "--jobs", "-3"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_tables_render_per_experiment_in_completion_order(self, tmp_path, capsys):
        # Warm table2 only: it renders first even though table1 is submitted
        # first -- tables stream as experiments complete.
        assert main(["table2", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(
            ["table1", "table2", "--shard-size", "10", "--cache-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert out.index("table2:") < out.index("table1:")


class TestPoolSupervisor:
    """Worker-crash recovery: heal the pool, retry the interrupted jobs."""

    def test_crashed_worker_is_rebuilt_and_job_retried(self, tmp_path):
        supervisor = PoolSupervisor(2, backoff_s=0.0)
        try:
            job = CrashOnceJob("phoenix", str(tmp_path / "attempt.marker"))
            outcomes = _settled(iter_jobs([job], pool=supervisor))
            assert outcomes[0].value == "phoenix"
            assert supervisor.rebuilds >= 1
        finally:
            supervisor.shutdown()

    def test_bystander_rides_out_a_sibling_crash(self, tmp_path):
        # A broken pool fails *every* in-flight future; the supervisor
        # retries the innocent bystander transparently alongside the victim.
        supervisor = PoolSupervisor(2, backoff_s=0.0)
        try:
            crash = CrashOnceJob("victim", str(tmp_path / "v.marker"))
            outcomes = _settled(
                iter_jobs(
                    [crash, SleepJob("bystander", 0.05)],
                    pool=supervisor,
                    cache=ResultCache(tmp_path),
                )
            )
            by_id = {outcome.job.job_id: outcome for outcome in outcomes}
            assert by_id["victim"].value == "victim"
            assert by_id["bystander"].value == "bystander"
            assert supervisor.rebuilds >= 1
        finally:
            supervisor.shutdown()

    def test_retry_budget_exhaustion_settles_as_failed(self):
        supervisor = PoolSupervisor(2, max_attempts=2, backoff_s=0.0)
        try:
            outcomes = _settled(iter_jobs([AlwaysCrashJob()], pool=supervisor))
            assert not outcomes[0].ok
            assert "gave up after 2 attempt(s)" in outcomes[0].error
        finally:
            supervisor.shutdown()

    def test_plain_pool_crash_fails_without_retry(self, tmp_path):
        # Two misses fan out across a pool the stream owns, which allows one
        # attempt; a single miss would run inline, where the crash would end
        # the test process.
        job = CrashOnceJob("one-shot", str(tmp_path / "m.marker"))
        with pytest.raises(EngineError) as excinfo:
            run_sharded([job, SleepJob("bystander", 0.5)], workers=2)
        failures = {outcome.job.job_id: outcome for outcome in excinfo.value.failures}
        assert not failures["one-shot"].ok
        assert "gave up after 1 attempt(s)" in failures["one-shot"].error

    def test_backoff_is_exponential_and_capped(self):
        supervisor = PoolSupervisor(1, backoff_s=0.1, backoff_cap_s=0.3)
        try:
            delays = [supervisor.backoff_delay(n) for n in (1, 2, 3, 4)]
            assert delays == [0.1, 0.2, 0.3, 0.3]
        finally:
            supervisor.shutdown()

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError, match="max_attempts"):
            PoolSupervisor(1, max_attempts=0)
        with pytest.raises(ValueError, match="non-negative"):
            PoolSupervisor(1, backoff_s=-1.0)


class TestCancelEvent:
    def test_cancel_stops_the_inline_stream_without_terminal_events(self):
        cancel = threading.Event()
        cancel.set()
        events = list(iter_jobs([SleepJob("never", 0.0)], cancel=cancel))
        assert [event.type for event in events] == [SCHEDULED]

    def test_cancel_drains_in_flight_and_abandons_queued(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [SleepJob(f"s{i}", 0.3) for i in range(6)]
        cancel = threading.Event()
        stream = iter_jobs(jobs, workers=2, cache=cache, cancel=cancel)
        events = []
        for event in stream:
            events.append(event)
            if event.type == STARTED:
                cancel.set()
        terminal = [event for event in events if event.terminal]
        # At most the two in-flight jobs drained; the queued tail emitted
        # nothing -- and everything that drained landed in the cache.
        assert len(terminal) <= 2
        fresh = ResultCache(tmp_path)
        for event in terminal:
            assert event.outcome.ok
            assert fresh.get(event.job) == event.job.job_id

    def test_cancel_abandons_the_parent_of_unfinished_shards(self, tmp_path):
        # A client gone mid-stream: the shard that finished lands in the
        # cache, the next is never started, and the parent neither merges
        # nor fails.
        point = MonteCarloPointJob(4.0, 30.0, samples=2 * MC_SAMPLE_BLOCK)
        cancel = threading.Event()
        events = []
        for event in iter_sharded(
            [point], shard_size=MC_SAMPLE_BLOCK, cache=ResultCache(tmp_path), cancel=cancel
        ):
            events.append(event)
            if event.terminal:
                cancel.set()
        (finished,) = [event for event in events if event.terminal]
        assert finished.type == FINISHED and finished.job is not point
        assert [event.type for event in events].count(STARTED) == 1
        fresh = ResultCache(tmp_path)
        assert fresh.get(finished.job) is not None
        assert fresh.get(point) is None
