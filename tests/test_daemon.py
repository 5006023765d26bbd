"""Tests for the warm experiment daemon (protocol, memory index, server).

The daemon under test runs ``serve_forever`` on a background thread inside
this process (real unix socket, real worker pool); one end-to-end test also
exercises the detached-subprocess ``daemon start``/``status``/``stop`` CLI
path.
"""

from __future__ import annotations

import io
import json
import os
import signal
import socket
import sys
import tempfile
import threading
import time

import pytest

from repro import telemetry
from repro.engine import (
    DaemonClient,
    DaemonError,
    ExperimentDaemon,
    ExperimentJob,
    MemoryIndexCache,
    ResultCache,
    default_socket_path,
    start_daemon,
    stop_daemon,
)
from repro.engine import daemon as daemon_mod
from repro.engine import faults as faults_mod
from repro.engine.client import (
    PROTOCOL_VERSION,
    TERMINAL_FRAME_TYPES,
    _lock_file,
    recv_frame,
    send_frame,
)
from repro.engine.daemon import RequestQueue, _acquire_bind_lock
from repro.experiments.__main__ import main

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "AF_UNIX"), reason="daemon mode requires AF_UNIX"
)


class TestFraming:
    def test_round_trip(self):
        left, right = socket.socketpair()
        with left, right, left.makefile("rwb") as wfile, right.makefile("rwb") as rfile:
            send_frame(wfile, {"op": "ping", "x": 1})
            assert recv_frame(rfile) == {"op": "ping", "x": 1}

    def test_eof_is_none(self):
        assert recv_frame(io.BytesIO(b"")) is None

    def test_garbage_header_raises(self):
        with pytest.raises(DaemonError, match="length header"):
            recv_frame(io.BytesIO(b"zzz\n{}\n"))

    def test_truncated_frame_raises(self):
        with pytest.raises(DaemonError, match="truncated"):
            recv_frame(io.BytesIO(b"100\n{\"op\":"))

    def test_non_object_frame_raises(self):
        payload = b"[1,2]\n"
        with pytest.raises(DaemonError, match="JSON object"):
            recv_frame(io.BytesIO(f"{len(payload)}\n".encode() + payload))


class TestDefaultSocketPath:
    def test_env_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_DAEMON_SOCKET", str(tmp_path / "x.sock"))
        assert default_socket_path() == tmp_path / "x.sock"

    def test_xdg_runtime_dir_is_preferred(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_DAEMON_SOCKET", raising=False)
        monkeypatch.setenv("XDG_RUNTIME_DIR", str(tmp_path))
        assert default_socket_path() == tmp_path / "repro-daemon.sock"

    def test_fallback_dir_is_private(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_DAEMON_SOCKET", raising=False)
        monkeypatch.delenv("XDG_RUNTIME_DIR", raising=False)
        monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path))
        path = default_socket_path()
        assert path.parent.parent == tmp_path
        assert path.parent.stat().st_mode & 0o777 == 0o700

    def test_tampered_fallback_dir_is_refused(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_DAEMON_SOCKET", raising=False)
        monkeypatch.delenv("XDG_RUNTIME_DIR", raising=False)
        monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path))
        squatted = default_socket_path().parent
        squatted.chmod(0o777)  # world-writable: another user could bind here
        with pytest.raises(DaemonError, match="not exclusively owned"):
            default_socket_path()


class TestMemoryIndexCache:
    def test_put_serves_later_gets_from_memory(self, tmp_path):
        cache = MemoryIndexCache(ResultCache(tmp_path))
        job = ExperimentJob("table1")
        value = job.run()
        cache.put(job, value)
        assert cache.get(job) == value
        assert cache.memory_hits == 1
        assert cache.disk_hits == 0
        assert cache.stats.hits == 1  # memory hits count in the shared stats

    def test_disk_fallback_populates_index(self, tmp_path):
        disk = ResultCache(tmp_path)
        job = ExperimentJob("table1")
        disk.put(job, job.run())
        warm = MemoryIndexCache(ResultCache(tmp_path))
        assert warm.get(job) is not None
        assert warm.disk_hits == 1
        assert warm.memory_hits == 0
        assert warm.get(job) is not None
        assert warm.memory_hits == 1
        assert len(warm) == 1

    def test_miss_touches_nothing(self, tmp_path):
        cache = MemoryIndexCache(ResultCache(tmp_path))
        assert cache.get(ExperimentJob("table1")) is None
        assert cache.memory_hits == 0
        assert len(cache) == 0

    def test_index_is_bounded_lru(self, tmp_path):
        from repro.engine import MonteCarloPointJob, RangeShard

        cache = MemoryIndexCache(ResultCache(tmp_path), max_entries=2)
        jobs = [
            RangeShard(MonteCarloPointJob(4.0, 30.0, seed=seed), 0, 10)
            for seed in range(3)
        ]
        for flips, job in enumerate(jobs):
            cache.put(job, flips)
        assert len(cache) == 2  # oldest entry evicted from memory...
        assert cache.get(jobs[0]) == 0  # ... but still served from disk
        assert cache.disk_hits == 1
        # The hit re-promoted jobs[0]; jobs[1] is now the LRU tail.
        cache.put(jobs[2], 2)
        assert cache.get(jobs[0]) == 0
        assert cache.memory_hits == 1

    def test_rejects_non_positive_bound(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            MemoryIndexCache(ResultCache(tmp_path), max_entries=0)


class TestRequestQueue:
    """Admission driven directly by threads, with no daemon and no sleeps.

    The test waits on the queue's own counter changes: every change of
    ``queued`` or ``inflight`` is mirrored into gauges by
    ``_update_gauges``, which is wrapped here to wake the test.
    """

    @staticmethod
    def _watch(queue):
        """Returns ``until(predicate)``, re-checked at each counter change."""
        changed = threading.Condition()
        mirror = queue._update_gauges

        def mirror_and_wake():
            mirror()
            with changed:
                changed.notify_all()

        queue._update_gauges = mirror_and_wake

        def until(predicate):
            with changed:
                assert changed.wait_for(predicate, timeout=30.0), "queue never got there"

        return until

    @staticmethod
    def _enter_now(queue):
        """``queue.enter()`` on a thread: fails, rather than hangs, if it waits."""
        answers = []
        caller = threading.Thread(target=lambda: answers.append(queue.enter()), daemon=True)
        caller.start()
        caller.join(timeout=30.0)
        assert answers, "enter() waited instead of answering at once"
        return answers[0]

    def test_waiters_are_admitted_in_fifo_order(self):
        queue = RequestQueue(max_inflight=1, queue_depth=2)
        until = self._watch(queue)
        assert queue.enter()  # takes the only slot
        admitted = []

        def wait_for_a_slot(name):
            assert queue.enter()
            admitted.append(name)

        waiters = []
        for name in ("first", "second"):
            waiter = threading.Thread(target=wait_for_a_slot, args=(name,), daemon=True)
            waiter.start()
            waiters.append(waiter)
            until(lambda: queue.queued == len(waiters))
        queue.leave()
        waiters[0].join(timeout=30.0)
        assert admitted == ["first"]
        assert queue.queued == 1 and queue.inflight == 1
        queue.leave()
        waiters[1].join(timeout=30.0)
        assert admitted == ["first", "second"]
        assert queue.queued == 0 and queue.inflight == 1

    def test_full_queue_refuses_at_once(self):
        queue = RequestQueue(max_inflight=1, queue_depth=1)
        until = self._watch(queue)
        assert queue.enter()
        waiter = threading.Thread(target=queue.enter, daemon=True)
        waiter.start()
        until(lambda: queue.queued == 1)
        assert self._enter_now(queue) is False
        assert queue.queued == 1 and queue.inflight == 1
        queue.leave()
        waiter.join(timeout=30.0)
        assert not waiter.is_alive()
        assert queue.queued == 0 and queue.inflight == 1

    def test_zero_depth_queue_refuses_when_full(self):
        queue = RequestQueue(max_inflight=2, queue_depth=0)
        assert queue.enter() and queue.enter()
        assert self._enter_now(queue) is False
        assert queue.queued == 0 and queue.inflight == 2
        queue.leave()
        assert queue.enter()  # the freed slot admits again

    def test_many_callers_share_the_slots(self):
        # More callers than cores, switching threads often: every caller is
        # admitted in turn (a lost wake-up would strand one) and no more
        # than max_inflight ever hold a slot at once.
        queue = RequestQueue(max_inflight=2, queue_depth=8)
        lock = threading.Lock()
        state = {"running": 0, "peak": 0, "served": 0}

        def caller():
            for _ in range(50):
                if not queue.enter():
                    return
                with lock:
                    state["running"] += 1
                    state["peak"] = max(state["peak"], state["running"])
                with lock:
                    state["running"] -= 1
                    state["served"] += 1
                queue.leave()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, daemon=True) for _ in range(8)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in callers)
        assert state["served"] == 8 * 50 and state["peak"] <= 2
        assert queue.inflight == queue.queued == 0


@pytest.fixture
def daemon(tmp_path):
    """A live in-process daemon on a private socket; yields its client."""
    socket_path = tmp_path / "d.sock"
    server = ExperimentDaemon(socket_path, cache_dir=tmp_path / "cache", workers=2)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = DaemonClient(socket_path)
    deadline = time.time() + 30.0
    while not client.is_running():
        assert time.time() < deadline, "daemon did not come up"
        time.sleep(0.02)
    yield client
    try:
        client.shutdown()
    except DaemonError:
        pass
    thread.join(timeout=10.0)


class TestDaemonServer:
    def test_ping_and_status(self, daemon):
        assert daemon.ping()["type"] == "pong"
        status = daemon.status()
        assert status["type"] == "status"
        assert status["workers"] == 2
        assert status["index_entries"] == 0

    def test_submit_streams_events_then_done(self, daemon):
        frames = list(daemon.submit(["table1"]))
        assert frames[-1]["type"] == "done"
        events = [frame["event"] for frame in frames if frame["type"] == "event"]
        assert [event["event"] for event in events] == [
            "scheduled", "started", "finished",
        ]
        assert events[-1]["value"]["experiment_id"] == "table1"

    def test_warm_rerun_served_from_memory_index(self, daemon):
        cold = list(daemon.submit(["table2"]))
        assert cold[-1]["memory_hits"] == 0
        warm = list(daemon.submit(["table2"]))
        assert warm[-1]["type"] == "done"
        assert warm[-1]["memory_hits"] == 1
        assert warm[-1]["hits"] == 1
        terminal = [
            frame["event"]
            for frame in warm
            if frame["type"] == "event" and frame["event"]["event"] == "cached"
        ]
        assert len(terminal) == 1
        # Same payload either way.
        cold_value = cold[-2]["event"]["value"]
        assert terminal[0]["value"] == cold_value
        status = daemon.status()
        assert status["memory_hits"] == 1
        assert status["index_entries"] >= 1

    def test_submit_unknown_experiment_errors(self, daemon):
        frames = list(daemon.submit(["nope"]))
        assert frames[-1]["type"] == "error"
        assert "unknown experiment" in frames[-1]["message"]

    def test_submit_bad_shard_size_errors(self, daemon):
        frames = list(daemon.submit(["table1"], shard_size=0))
        assert frames[-1]["type"] == "error"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("shard_size", True, "shard_size must be a positive int"),
            ("shard_size", 2.0, "shard_size must be a positive int"),
            ("shard_size", -1, "shard_size must be a positive int"),
        ],
    )
    def test_malformed_submit_field_is_refused(self, daemon, field, value, message):
        # A bool is not a count (``true`` would read as 1), nor is a float,
        # and a shard holds at least one unit.
        frames = list(daemon.submit(["table1"], **{field: value}))
        assert [frame["type"] for frame in frames] == ["error"]
        assert message in frames[0]["message"]
        status = daemon.status()
        assert status["inflight"] == status["queued"] == 0

    def test_request_ids_are_assigned_by_the_daemon(self, daemon):
        # Every submit gets the daemon's next req-N; an id the client sends
        # is not adopted.
        job = ExperimentJob("table1", quick=True)
        named = {
            "op": "submit",
            "jobs": [{"kind": job.kind, "config": job.config}],
            "request_id": "mine",
        }
        streams = [
            list(daemon.submit(["table1"])),
            list(daemon._frames(named)),
            list(daemon.submit(["table1"])),
        ]
        ids = [frames[0]["request_id"] for frames in streams]
        assert ids == ["req-1", "req-2", "req-3"]
        for frames in streams:
            assert frames[-1]["type"] == "done"
            assert frames[-1]["request_id"] == frames[0]["request_id"]
        assert [record["request_id"] for record in daemon.dump()["records"]] == ids

    def test_cancel_is_an_unknown_op(self, daemon):
        # Requests end done, busy or disconnected; nothing cancels them.
        response = daemon.request({"op": "cancel", "request_id": "req-1"})
        assert response == {"type": "error", "message": "unknown op 'cancel'"}

    def test_submit_with_stale_code_version_is_refused(self, daemon):
        frames = list(daemon.submit(["table1"], code_version="not-the-daemon's"))
        assert [frame["type"] for frame in frames] == ["stale"]
        assert "restart" in frames[0]["message"]

    def test_stale_is_answered_before_validation(self, daemon):
        # A client built from other sources may know ids this daemon does
        # not: it must hear "stale" (and run inline), not a refusal.
        frames = list(daemon.submit(["table1-new"], code_version="edited"))
        assert [frame["type"] for frame in frames] == ["stale"]

    def test_unknown_job_kind_is_refused_before_admission(self, daemon):
        frames = list(daemon.work([{"kind": "montecarlo-point", "config": {}}]))
        assert [frame["type"] for frame in frames] == ["error"]
        assert "unknown job kind 'montecarlo-point'" in frames[0]["message"]
        status = daemon.status()
        assert status["inflight"] == status["queued"] == 0

    def test_submit_with_matching_code_version_runs(self, daemon):
        from repro.engine import source_fingerprint

        frames = list(
            daemon.submit(["table1"], code_version=source_fingerprint())
        )
        assert frames[-1]["type"] == "done"

    def test_cli_falls_back_inline_when_daemon_is_stale(
        self, daemon, tmp_path, capsys, monkeypatch
    ):
        import repro.experiments.__main__ as cli
        from repro.engine import cache

        monkeypatch.setenv("REPRO_DAEMON_SOCKET", str(daemon.socket_path))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "inline-cache"))
        monkeypatch.setattr(cache, "source_fingerprint", lambda: "edited-sources")
        assert cli.main(["table1"]) == 0
        captured = capsys.readouterr()
        assert "table1:" in captured.out  # ran inline, still produced the table
        assert "running inline" in captured.err

    def test_cli_routes_through_daemon_byte_identically(
        self, daemon, tmp_path, capsys, monkeypatch
    ):
        inline_dir = tmp_path / "inline-cache"
        assert main(["table2", "--json", "--no-daemon", "--cache-dir", str(inline_dir)]) == 0
        inline_out = capsys.readouterr().out
        monkeypatch.setenv("REPRO_DAEMON_SOCKET", str(daemon.socket_path))
        assert main(["table2", "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.out == inline_out
        assert "daemon: routing via" in captured.err
        # Warm daemon rerun: identical again, served from the memory index.
        assert main(["table2", "--json"]) == 0
        captured = capsys.readouterr()
        assert captured.out == inline_out
        assert "from memory index" in captured.err

    def test_cli_stream_through_daemon(self, daemon, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_DAEMON_SOCKET", str(daemon.socket_path))
        assert main(["table1", "--stream"]) == 0
        out = capsys.readouterr().out
        events = [json.loads(line) for line in out.splitlines() if line.strip()]
        assert events[-1]["value"]["experiment_id"] == "table1"

    def test_explicit_cache_dir_bypasses_daemon(
        self, daemon, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_DAEMON_SOCKET", str(daemon.socket_path))
        assert main(["table1", "--cache-dir", str(tmp_path / "local")]) == 0
        assert "daemon:" not in capsys.readouterr().err

    def test_ignored_jobs_flag_is_reported(self, daemon, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_DAEMON_SOCKET", str(daemon.socket_path))
        assert main(["table1", "--jobs", "8"]) == 0
        assert "ignoring --jobs 8" in capsys.readouterr().err

    def test_shutdown_removes_socket(self, tmp_path):
        socket_path = tmp_path / "gone.sock"
        server = ExperimentDaemon(socket_path, cache_dir=tmp_path / "c", workers=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = DaemonClient(socket_path)
        deadline = time.time() + 30.0
        while not client.is_running():
            assert time.time() < deadline
            time.sleep(0.02)
        client.shutdown()
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert not socket_path.exists()


#: Small fleet traffic configuration reused by the fleet-op tests.
FLEET_CONFIG = {
    "fleet_seed": 99,
    "devices": 64,
    "puf": "CODIC-sig PUF",
    "requests": 16,
    "challenges_per_device": 2,
    "impostor_ratio": 0.25,
    "temperature_jitter_c": 5.0,
}

FLEET_CLI_ARGS = [
    "fleet", "--seed", "99", "--devices", "64", "--requests", "16",
    "--challenges", "2", "--impostor-ratio", "0.25",
    "--temperature-jitter", "5.0",
]


class TestDaemonTelemetry:
    """Metrics surfacing and the fleet op (latency-carrying done frames)."""

    def test_status_reports_socket_and_metrics_with_empty_index(self, daemon):
        # Before any work: the operator still sees where the daemon lives
        # and that its index is empty, plus a metrics snapshot.
        status = daemon.status()
        assert status["index_entries"] == 0
        assert status["socket"] == str(daemon.socket_path)
        metrics = status["metrics"]
        assert set(metrics) >= {"counters", "gauges", "histograms"}
        assert json.loads(json.dumps(metrics)) == metrics

    def test_status_metrics_count_requests(self, daemon):
        from repro import telemetry

        before = daemon.status()["metrics"]["counters"].get(
            telemetry.DAEMON_REQUESTS_COLD, 0
        )
        assert list(daemon.submit(["table1"]))[-1]["type"] == "done"
        counters = daemon.status()["metrics"]["counters"]
        assert counters[telemetry.DAEMON_REQUESTS_COLD] == before + 1
        assert counters[telemetry.DAEMON_REQUESTS] >= counters[
            telemetry.DAEMON_REQUESTS_COLD
        ]

    def test_metrics_op_returns_prometheus_text(self, daemon):
        assert list(daemon.submit(["table1"]))[-1]["type"] == "done"
        text = daemon.metrics()
        assert "# TYPE repro_daemon_requests_total counter" in text
        assert "# TYPE repro_daemon_request_seconds histogram" in text
        assert 'repro_daemon_request_seconds_bucket{le="+Inf"}' in text
        assert "repro_engine_jobs_finished_total" in text
        assert text.endswith("\n")

    def test_fleet_op_cold_then_warm(self, daemon):
        from repro import telemetry

        cold = list(daemon.fleet(FLEET_CONFIG))
        assert cold[-1]["type"] == "done"
        assert cold[-1]["misses"] >= 1
        assert cold[-1]["elapsed_s"] > 0.0
        # The done frame carries this request's per-auth latency histogram:
        # one observation per authentication request.
        latency = telemetry.Histogram.from_dict(cold[-1]["latency"])
        assert latency.count == FLEET_CONFIG["requests"]
        assert latency.quantile(0.5) > 0.0
        values = [
            frame["event"]["value"]
            for frame in cold[:-1]
            if frame["type"] == "event" and "value" in frame["event"]
        ]
        assert len(values) == 1

        # Warm rerun: served from the daemon cache, nothing measured.
        warm = list(daemon.fleet(FLEET_CONFIG))
        assert warm[-1]["type"] == "done"
        assert warm[-1]["hits"] >= 1
        assert warm[-1]["misses"] == 0
        assert telemetry.Histogram.from_dict(warm[-1]["latency"]).count == 0
        warm_values = [
            frame["event"]["value"]
            for frame in warm[:-1]
            if frame["type"] == "event" and "value" in frame["event"]
        ]
        assert warm_values == values

    def test_fleet_op_sharded_request_matches_inline(self, daemon):
        from repro.engine import FleetTrafficJob

        config = dict(FLEET_CONFIG, fleet_seed=98)
        frames = list(daemon.fleet(config, shard_size=5))
        assert frames[-1]["type"] == "done"
        (payload,) = [
            frame["event"]["value"]
            for frame in frames[:-1]
            if frame["type"] == "event" and "value" in frame["event"]
        ]
        # The daemon-sharded replay is bit-identical to a serial inline run.
        job = FleetTrafficJob(**config)
        assert job.decode(payload) == job.run()

    def test_one_submit_mixes_experiment_and_fleet_jobs(self, daemon):
        from repro.engine import FleetTrafficJob

        fleet_job = FleetTrafficJob(**dict(FLEET_CONFIG, fleet_seed=97))
        frames = list(
            daemon.work(
                [
                    {"kind": "experiment", "config": ExperimentJob("table1").config},
                    {"kind": fleet_job.kind, "config": fleet_job.config},
                ]
            )
        )
        done = frames[-1]
        assert done["type"] == "done"
        values = {
            frame["event"]["job"]: frame["event"]["value"]
            for frame in frames
            if frame["type"] == "event" and "value" in frame["event"]
        }
        assert set(values) == {"table1", fleet_job.job_id}
        assert values["table1"]["experiment_id"] == "table1"
        assert fleet_job.decode(values[fleet_job.job_id]) == fleet_job.run()
        assert telemetry.Histogram.from_dict(done["latency"]).count == fleet_job.requests

    def test_config_outside_the_cache_identity_is_refused(self, daemon, tmp_path):
        # A field outside the cache key, accepted from the wire, could make
        # a bogus value be served (and cached) as the result of the clean
        # configuration; a job has no such field, so it is an unknown one.
        bogus = dict(FLEET_CONFIG, warm_golden={"counts": [0], "slots": [[1, 2]]})
        frames = list(daemon.fleet(bogus))
        assert [frame["type"] for frame in frames] == ["error"]
        assert "bad fleet-traffic job config" in frames[0]["message"]
        status = daemon.status()
        assert status["inflight"] == status["queued"] == 0
        assert status["index_entries"] == 0
        assert len(ResultCache(tmp_path / "cache")) == 0
        clean = list(daemon.fleet(FLEET_CONFIG))
        assert clean[-1]["type"] == "done" and clean[-1]["misses"] >= 1

    def test_fleet_op_rejects_bad_config(self, daemon):
        frames = list(daemon.fleet({"no_such_field": 1}))
        assert frames[-1]["type"] == "error"
        assert "bad fleet-traffic job config" in frames[-1]["message"]

    @pytest.mark.parametrize(
        "override",
        [
            {"requests": 0},
            {"impostor_ratio": 5.0},
            {"puf": "nope"},
            {"temperature_jitter_c": float("nan")},
            # Mistyped counts: a float or bool would otherwise be admitted
            # and fail in a worker, run under a key of its own, or read as 1.
            {"requests": 16.0},
            {"requests": True},
            {"devices": 8.5},
            {"challenges_per_device": 2.0},
            {"fleet_seed": 1.5},
        ],
    )
    def test_invalid_fleet_config_is_refused_before_admission(
        self, daemon, tmp_path, override
    ):
        frames = list(daemon.fleet(dict(FLEET_CONFIG, **override)))
        assert [frame["type"] for frame in frames] == ["error"]
        assert "bad fleet-traffic job config" in frames[0]["message"]
        if "fleet_seed" in override:
            # The refusal names the job's own field, not FleetConfig.seed.
            assert "fleet_seed must be an int" in frames[0]["message"]
        status = daemon.status()
        assert status["inflight"] == status["queued"] == 0
        assert status["index_entries"] == 0
        assert len(ResultCache(tmp_path / "cache")) == 0

    @pytest.mark.parametrize(
        "config, reason",
        [
            ({"experiment_id": ["table1"]}, "experiment_id must be a str"),
            ({"experiment_id": "table1", "quick": "no"}, "quick must be a bool"),
            ({"experiment_id": "table1", "quick": 1}, "quick must be a bool"),
        ],
    )
    def test_invalid_experiment_config_is_refused_before_admission(
        self, daemon, tmp_path, config, reason
    ):
        frames = list(daemon.work([{"kind": "experiment", "config": config}]))
        assert [frame["type"] for frame in frames] == ["error"]
        assert f"bad experiment job config: {reason}" in frames[0]["message"]
        status = daemon.status()
        assert status["inflight"] == status["queued"] == 0
        assert status["index_entries"] == 0
        assert len(ResultCache(tmp_path / "cache")) == 0

    def test_fleet_op_requires_a_config_object(self, daemon):
        response = daemon.request(
            {"op": "submit", "jobs": [{"kind": "fleet-traffic", "config": 5}]}
        )
        assert response["type"] == "error"
        assert "job config" in response["message"]

    def test_fleet_op_with_stale_code_version_is_refused(self, daemon):
        frames = list(daemon.fleet(FLEET_CONFIG, code_version="not-the-daemon's"))
        assert [frame["type"] for frame in frames] == ["stale"]

    def test_fleet_cli_routes_through_daemon(self, daemon, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_DAEMON_SOCKET", str(daemon.socket_path))
        assert main(FLEET_CLI_ARGS + ["--json"]) == 0
        captured = capsys.readouterr()
        assert "daemon: routing via" in captured.err
        assert "auth latency p50" in captured.err
        document = json.loads(captured.out)
        assert document["latency"]["count"] == 16
        assert document["latency"]["p50_ms"] > 0.0

        # Warm rerun through the daemon: identical deterministic fields, but
        # nothing was measured so the percentiles are absent.
        assert main(FLEET_CLI_ARGS + ["--json"]) == 0
        warm = capsys.readouterr()
        assert "served from the daemon cache" in warm.err
        warm_document = json.loads(warm.out)
        assert warm_document["latency"]["count"] == 0
        for volatile in ("elapsed_seconds", "auths_per_second", "latency"):
            del document[volatile]
            del warm_document[volatile]
        assert warm_document == document

    def test_fleet_cli_table_through_daemon(self, daemon, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_DAEMON_SOCKET", str(daemon.socket_path))
        assert main(FLEET_CLI_ARGS) == 0
        out = capsys.readouterr().out
        assert "auth latency p50 (ms)" in out
        assert "auths/sec" in out


class TestGracefulDegradation:
    def test_cli_runs_inline_when_no_daemon_listens(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_DAEMON_SOCKET", str(tmp_path / "nothing.sock"))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["table1"]) == 0
        captured = capsys.readouterr()
        assert "table1:" in captured.out
        assert "routing via" not in captured.err

    def test_is_running_false_for_stale_socket_file(self, tmp_path):
        stale = tmp_path / "stale.sock"
        stale.touch()
        assert not DaemonClient(stale).is_running()


class TestDaemonCLISubprocess:
    """End-to-end detached daemon lifecycle through the CLI."""

    def test_start_status_stop(self, tmp_path, capsys):
        socket_path = tmp_path / "cli.sock"
        argv = ["daemon", "start", "--socket", str(socket_path),
                "--cache-dir", str(tmp_path / "cache"), "--workers", "1"]
        assert main(argv) == 0
        assert "daemon started" in capsys.readouterr().out
        try:
            # Starting twice is refused.
            assert main(argv) == 1
            assert "already running" in capsys.readouterr().err
            assert main(["daemon", "status", "--socket", str(socket_path)]) == 0
            status = json.loads(capsys.readouterr().out)
            assert status["workers"] == 1
        finally:
            assert main(["daemon", "stop", "--socket", str(socket_path)]) == 0
            capsys.readouterr()
        assert main(["daemon", "status", "--socket", str(socket_path)]) == 1
        assert main(["daemon", "stop", "--socket", str(socket_path)]) == 1

    def test_workers_validation(self, capsys):
        assert main(["daemon", "start", "--workers", "0"]) == 2
        assert "--workers" in capsys.readouterr().err

@pytest.fixture
def make_daemon(tmp_path):
    """Factory for live in-process daemons with custom queue/fault config.

    Returns a client with a ``.server`` attribute (the in-process
    :class:`ExperimentDaemon`) so tests can inspect or swap its injector.
    Every started daemon is shut down at teardown.
    """
    started = []

    def _make(name="d.sock", **kwargs):
        socket_path = tmp_path / name
        kwargs.setdefault("cache_dir", tmp_path / f"cache-{name}")
        kwargs.setdefault("workers", 2)
        server = ExperimentDaemon(socket_path, **kwargs)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = DaemonClient(socket_path)
        deadline = time.time() + 30.0
        while not client.is_running():
            assert time.time() < deadline, "daemon did not come up"
            time.sleep(0.02)
        started.append((client, thread))
        client.server = server
        return client

    yield _make
    for client, thread in started:
        try:
            client.shutdown()
        except DaemonError:
            pass
        thread.join(timeout=15.0)


def _submit_async(client, experiments=None, *, fleet=None, **kwargs):
    """Drain a work stream on a background thread; returns (frames, thread)."""
    frames = []

    def run():
        stream = (
            client.fleet(fleet, **kwargs)
            if fleet is not None
            else client.submit(experiments, **kwargs)
        )
        try:
            for frame in stream:
                frames.append(frame)
        except DaemonError:
            pass

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return frames, thread


def _await_status(client, *, timeout=30.0, **expected):
    """Poll ``status`` until every expected field matches; returns the frame."""
    deadline = time.time() + timeout
    while True:
        status = client.status()
        if all(status[key] == value for key, value in expected.items()):
            return status
        assert time.time() < deadline, (
            f"daemon never reached {expected}; last status: "
            f"{ {key: status[key] for key in expected} }"
        )
        time.sleep(0.02)


class TestServiceHealth:
    def test_status_reports_service_health_fields(self, daemon):
        status = daemon.status()
        assert status["uptime_s"] >= 0.0
        assert status["inflight"] == 0
        assert status["queued"] == 0
        assert status["max_inflight"] == 4
        assert status["queue_depth_limit"] == 16
        assert status["pool_size"] == 2
        assert status["pool_rebuilds"] == 0
        assert status["retry_attempts"] == 3


#: Holder request used to saturate a daemon: sharded fleet traffic, a long
#: event stream.  Under the ``hold`` gate it parks before its first event
#: frame, so it keeps its admission slot until the test opens the gate.
HOLD_FLEET = dict(FLEET_CONFIG, fleet_seed=101)


@pytest.fixture
def hold(monkeypatch):
    """Park every handler before each ``event`` frame until the gate opens.

    A held request stays in flight for as long as a test needs it to, with
    no sleeps: the test lines up competing clients, then sets the returned
    gate.  Each wait is bounded at 30 s, so a broken test cannot hang the
    suite; teardown opens the gate.
    """
    gate = threading.Event()
    original = daemon_mod._Handler._send

    def park_then_send(handler, message):
        if message.get("type") == "event":
            gate.wait(timeout=30.0)
        original(handler, message)

    monkeypatch.setattr(daemon_mod._Handler, "_send", park_then_send)
    yield gate
    gate.set()


class TestAdmissionControl:
    def test_third_client_gets_busy_while_two_are_served(self, make_daemon, hold):
        client = make_daemon(max_inflight=1, queue_depth=1)
        busy_before = client.status()["metrics"]["counters"].get(
            telemetry.DAEMON_REQUESTS_BUSY, 0
        )
        first, first_thread = _submit_async(
            client, fleet=HOLD_FLEET, shard_size=2
        )
        _await_status(client, inflight=1)
        second, second_thread = _submit_async(client, ["table1"])
        _await_status(client, inflight=1, queued=1)

        # The saturated daemon still answers its health probes...
        assert client.ping()["type"] == "pong"
        # ... while a third work request is refused with a structured frame.
        refused = list(client.submit(["table1"]))
        assert refused[0]["type"] == "accepted"
        assert refused[-1]["type"] == "busy"
        assert "at capacity" in refused[-1]["message"]

        hold.set()
        first_thread.join(timeout=60.0)
        second_thread.join(timeout=60.0)
        # Both admitted clients were served completely and correctly.
        assert first[-1]["type"] == "done"
        assert second[-1]["type"] == "done"
        assert any(
            frame["type"] == "event" and "value" in frame["event"]
            for stream in (first, second)
            for frame in stream
        )
        counters = client.status()["metrics"]["counters"]
        assert counters[telemetry.DAEMON_REQUESTS_BUSY] == busy_before + 1

    def test_queued_request_waits_then_is_served(self, make_daemon, hold):
        client = make_daemon(max_inflight=1, queue_depth=4)
        holder, holder_thread = _submit_async(
            client, fleet=HOLD_FLEET, shard_size=2
        )
        _await_status(client, inflight=1)
        queued, queued_thread = _submit_async(client, ["table1"])
        _await_status(client, inflight=1, queued=1)

        hold.set()
        holder_thread.join(timeout=60.0)
        queued_thread.join(timeout=60.0)
        assert holder[-1]["type"] == "done"
        # Accepted while the holder ran, then admitted once its slot freed.
        assert queued[0]["type"] == "accepted"
        assert queued[0]["inflight"] == 1 and queued[0]["queued"] == 0
        assert queued[-1]["type"] == "done"
        records = {record["request_id"]: record for record in client.dump()["records"]}
        record = records[queued[0]["request_id"]]
        assert record["outcome"] == "done"
        assert record["queue_wait_s"] > 0.0
        status = client.status()
        assert status["inflight"] == status["queued"] == 0

    def test_disconnected_client_is_reaped_and_others_served(self, make_daemon, hold):
        client = make_daemon()
        disconnects_before = client.status()["metrics"]["counters"].get(
            telemetry.DAEMON_DISCONNECTS, 0
        )
        # A raw client that submits work, reads the accepted frame, then
        # vanishes mid-stream (no clean shutdown, like a crashed process).
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(str(client.socket_path))
        with sock, sock.makefile("rwb") as stream:
            send_frame(
                stream,
                {
                    "v": PROTOCOL_VERSION,
                    "op": "submit",
                    "jobs": [{"kind": "fleet-traffic", "config": dict(HOLD_FLEET)}],
                    "shard_size": 2,
                },
            )
            assert recv_frame(stream)["type"] == "accepted"
        # The socket is closed; the parked handler's next send finds the
        # peer gone.
        hold.set()
        # The server reaps the dead peer: the slot frees and the disconnect
        # is counted (in-flight shards drain into the cache meanwhile).
        deadline = time.time() + 30.0
        while True:
            status = client.status()
            counters = status["metrics"]["counters"]
            if (
                counters.get(telemetry.DAEMON_DISCONNECTS, 0)
                > disconnects_before
                and status["inflight"] == status["queued"] == 0
            ):
                break
            assert time.time() < deadline, "disconnect was never reaped"
            time.sleep(0.02)
        # Other clients keep getting full, correct service.
        frames = list(client.submit(["table1"]))
        assert frames[-1]["type"] == "done"


class TestRequestRelease:
    """A request is released before its terminal frame is sent.

    A gate parks each handler thread right after it sends a terminal frame,
    until the test has looked at the daemon.  By then the request's record
    must be in the flight recorder's ring and its admission slot free, so a
    client reacting to ``done`` -- dumping the recorder after each request,
    say -- finds the request settled.  The test waits on frames and on the
    gate, never on sleeps.
    """

    @pytest.fixture
    def gate(self, monkeypatch):
        gate = threading.Event()
        original = daemon_mod._Handler._send

        def send_then_park(handler, message):
            original(handler, message)
            if message.get("type") in TERMINAL_FRAME_TYPES:
                gate.wait(timeout=30.0)

        monkeypatch.setattr(daemon_mod._Handler, "_send", send_then_park)
        yield gate
        gate.set()

    def test_done_request_is_recorded_before_its_frame_is_sent(
        self, make_daemon, gate
    ):
        client = make_daemon()
        for _ in range(5):
            gate.clear()
            frames = list(client.submit(["table1"]))
            assert frames[-1]["type"] == "done", frames[-1]
            # The handler is still parked after ``done``.
            record = client.dump()["records"][-1]
            assert record["request_id"] == frames[0]["request_id"]
            assert record["outcome"] == "done"
            assert record["frames"]["done"] == 1
            assert client.status()["inflight"] == 0
            gate.set()

    def test_busy_request_is_recorded_before_its_frame_is_sent(
        self, make_daemon, hold, gate
    ):
        client = make_daemon(max_inflight=1, queue_depth=0)
        holder, holder_thread = _submit_async(
            client, fleet=HOLD_FLEET, shard_size=2
        )
        _await_status(client, inflight=1)
        frames = list(client.submit(["table1"]))
        assert [frame["type"] for frame in frames] == ["accepted", "busy"]
        # The refused handler is still parked after ``busy``; the holder's
        # request is still in flight, so the ring holds only this record.
        (record,) = client.dump()["records"]
        assert record["request_id"] == frames[0]["request_id"]
        assert record["outcome"] == "busy"
        assert record["frames"] == {"accepted": 1, "busy": 1}
        assert record["jobs"] == 0
        gate.set()
        hold.set()
        holder_thread.join(timeout=60.0)
        assert holder[-1]["type"] == "done"


class TestWorkerCrashRecovery:
    def test_killed_worker_is_rebuilt_and_result_is_bit_identical(
        self, tmp_path, monkeypatch
    ):
        # The kill fault arms in the forked pool workers via the environment
        # (each worker pid re-parses $REPRO_FAULTS); the daemon process
        # itself gets an explicit no-op injector.
        monkeypatch.setenv(
            faults_mod.FAULTS_ENV,
            json.dumps(
                {
                    "state_dir": str(tmp_path / "chaos"),
                    "kill_worker_on_job": 1,
                    "kill_budget": 1,
                }
            ),
        )
        faults_mod.set_injector(None)
        socket_path = tmp_path / "chaos.sock"
        server = ExperimentDaemon(
            socket_path,
            cache_dir=tmp_path / "cache",
            workers=1,
            retry_backoff_s=0.0,
            faults=faults_mod.FaultInjector(None),
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = DaemonClient(socket_path)
        deadline = time.time() + 30.0
        while not client.is_running():
            assert time.time() < deadline, "daemon did not come up"
            time.sleep(0.02)
        try:
            frames = list(client.submit(["table2"]))
            assert frames[-1]["type"] == "done"
            (payload,) = [
                frame["event"]["value"]
                for frame in frames
                if frame["type"] == "event" and "value" in frame["event"]
            ]
            # The worker died mid-job; the supervisor rebuilt the pool and
            # the retried job produced the exact inline result.
            job = ExperimentJob("table2", quick=True)
            assert job.decode(payload) == job.run()
            status = client.status()
            assert status["pool_rebuilds"] == 1
            counters = status["metrics"]["counters"]
            assert counters[telemetry.ENGINE_JOB_RETRIES] >= 1
            assert counters[telemetry.ENGINE_POOL_REBUILDS] >= 1
        finally:
            try:
                client.shutdown()
            except DaemonError:
                pass
            thread.join(timeout=15.0)
            faults_mod.set_injector(None)


class TestBindLock:
    def test_live_owner_blocks_the_bind(self, tmp_path):
        socket_path = tmp_path / "locked.sock"
        _lock_file(socket_path).write_text(str(os.getpid()))
        with pytest.raises(DaemonError, match="another daemon is binding"):
            _acquire_bind_lock(socket_path)

    def test_dead_owner_lock_is_stolen(self, tmp_path):
        import subprocess
        import sys

        socket_path = tmp_path / "stale-lock.sock"
        corpse = subprocess.Popen([sys.executable, "-c", "pass"])
        corpse.wait()
        _lock_file(socket_path).write_text(str(corpse.pid))
        lock_path = _acquire_bind_lock(socket_path)
        assert int(lock_path.read_text()) == os.getpid()
        lock_path.unlink()

    def test_concurrent_reclaim_of_a_dead_socket_has_one_winner(self, tmp_path):
        # Leave a dead socket file behind (a crashed daemon's remains).
        socket_path = tmp_path / "dead.sock"
        remains = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        remains.bind(str(socket_path))
        remains.close()
        assert socket_path.exists()

        errors = []

        def serve(index):
            server = ExperimentDaemon(
                socket_path, cache_dir=tmp_path / f"cache{index}", workers=1
            )
            try:
                server.serve_forever()
            except DaemonError as error:
                errors.append(str(error))

        threads = [
            threading.Thread(target=serve, args=(index,), daemon=True)
            for index in range(2)
        ]
        for thread in threads:
            thread.start()
        client = DaemonClient(socket_path)
        deadline = time.time() + 30.0
        while not (client.is_running() and len(errors) == 1):
            assert time.time() < deadline, (
                f"no single winner: running={client.is_running()} "
                f"errors={errors}"
            )
            time.sleep(0.02)
        assert (
            "another daemon is binding" in errors[0]
            or "already running" in errors[0]
        )
        client.shutdown()
        for thread in threads:
            thread.join(timeout=15.0)


class TestStopDaemonEscalation:
    def test_graceful_stop_reports_graceful(self, tmp_path):
        from repro.engine import start_daemon, stop_daemon

        socket_path = tmp_path / "stop.sock"
        start_daemon(socket_path, cache_dir=tmp_path / "cache", workers=1)
        assert stop_daemon(socket_path) == "graceful"
        assert stop_daemon(socket_path) is False  # nothing left to stop

    def test_wedged_daemon_requires_force_and_is_sigkilled(self, tmp_path):
        from repro.engine import start_daemon, stop_daemon
        from repro.engine.client import _pid_file

        socket_path = tmp_path / "wedged.sock"
        pid = start_daemon(socket_path, cache_dir=tmp_path / "cache", workers=1)
        try:
            os.kill(pid, signal.SIGSTOP)  # wedge it: alive but unresponsive
            with pytest.raises(DaemonError, match="--force"):
                stop_daemon(socket_path, wait_s=0.5)
            assert stop_daemon(socket_path, wait_s=5.0, force=True) == "forced"
            assert not socket_path.exists()
            assert not _pid_file(socket_path).exists()
            # The daemon led its own process group; its pool worker must die
            # with it rather than linger, reparented, on the call queue.
            deadline = time.time() + 10.0
            while True:
                try:
                    os.killpg(pid, 0)
                except ProcessLookupError:
                    break
                assert time.time() < deadline, "daemon's process group survived"
                time.sleep(0.05)
        finally:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


class TestCLIBusyRetry:
    def test_cli_retries_busy_then_degrades_inline(
        self, make_daemon, hold, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments import __main__ as cli

        client = make_daemon(max_inflight=1, queue_depth=0)
        monkeypatch.setenv("REPRO_DAEMON_SOCKET", str(client.socket_path))
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
        monkeypatch.setattr(cli, "_RETRY_ATTEMPTS", 1)
        monkeypatch.setattr(cli, "_RETRY_BASE_S", 0.0)
        holder, holder_thread = _submit_async(
            client, fleet=HOLD_FLEET, shard_size=2
        )
        _await_status(client, inflight=1)
        # Saturated daemon with no queue: every CLI attempt bounces busy,
        # the retry budget runs out, and the run degrades to inline.
        assert cli.main(["table2"]) == 0
        captured = capsys.readouterr()
        assert "daemon busy" in captured.err
        assert "retry budget exhausted; running inline" in captured.err
        assert "table2:" in captured.out
        hold.set()
        holder_thread.join(timeout=60.0)
        assert holder[-1]["type"] == "done"


class _ScriptedClient:
    """Stands in for :class:`DaemonClient`: each ``work`` call replays the
    next scripted attempt; an exception in a script is raised at that point,
    as a dropped connection raises :class:`DaemonError`."""

    socket_path = "scripted.sock"

    def __init__(self, attempts):
        self.attempts = list(attempts)

    def is_running(self):
        return True

    def work(self, specs, **options):
        for frame in self.attempts.pop(0):
            if isinstance(frame, Exception):
                raise frame
            yield frame


class TestRoutingRule:
    """How the CLI reacts to each daemon frame, before and after output.

    A scripted client stands in for the daemon, so no daemon runs and no
    retry sleeps.
    """

    ACCEPTED = {"type": "accepted", "request_id": "req-1", "trace_id": "t-1"}
    DONE = {"type": "done", "hits": 0, "misses": 1, "memory_hits": 0}

    @pytest.fixture
    def route(self, monkeypatch, tmp_path):
        """Install scripted attempts; returns table1's event frames."""
        from repro.engine import client as client_mod
        from repro.engine import iter_sharded
        from repro.experiments import __main__ as cli

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "inline-cache"))
        monkeypatch.setattr(cli, "_retry_delay", lambda attempt: 0.0)
        events = [
            {"type": "event", "event": event.to_dict(include_value=event.terminal)}
            for event in iter_sharded([ExperimentJob("table1")], workers=1)
        ]

        def install(*attempts):
            client = _ScriptedClient(attempts)
            monkeypatch.setattr(client_mod, "DaemonClient", lambda: client)
            return client

        return events, install

    @staticmethod
    def _table(events):
        from repro.experiments.base import ExperimentResult

        value = events[-1]["event"]["value"]
        return value, ExperimentResult.from_dict(value).render() + "\n"

    def test_error_before_output_runs_inline(self, route, capsys):
        events, install = route
        install([self.ACCEPTED, {"type": "error", "message": "unknown experiment(s): table1"}])
        assert main(["table1"]) == 0
        captured = capsys.readouterr()
        assert captured.out == self._table(events)[1]
        assert "daemon error: unknown experiment(s): table1; running inline" in captured.err

    def test_error_after_output_fails_without_rerunning(self, route, capsys):
        events, install = route
        install([self.ACCEPTED, *events, {"type": "error", "message": "Traceback: boom"}])
        assert main(["table1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == self._table(events)[1]  # printed once
        assert "daemon error: Traceback: boom; output is incomplete" in captured.err
        assert "running inline" not in captured.err

    def test_retried_attempts_start_from_a_fresh_renderer(self, route, capsys):
        events, install = route
        finished = events[-1]["event"]
        failed = {key: value for key, value in finished.items() if key != "value"}
        failed.update(event="failed", error="Traceback: boom")
        client = install(
            [self.ACCEPTED, {"type": "event", "event": failed}, DaemonError("gone")],
            [self.ACCEPTED, {"type": "busy", "message": "daemon at capacity"}],
            [self.ACCEPTED, *events, self.DONE],
        )
        assert main(["table1", "--json"]) == 0
        captured = capsys.readouterr()
        value, _ = self._table(events)
        assert captured.out == json.dumps({"table1": value}, indent=2) + "\n"
        assert captured.err.count("table1  FAILED") == 1
        assert "job(s) failed" not in captured.err
        assert "daemon unreachable: gone" in captured.err
        assert "daemon busy: daemon at capacity" in captured.err
        assert client.attempts == []


class TestFlightRecorderOps:
    """The dump/tail ops and the recorder surface in status."""

    def test_dump_replays_a_completed_request(self, daemon):
        frames = list(daemon.submit(["table1"]))
        assert frames[-1]["type"] == "done"
        dump = daemon.dump()
        assert dump["capacity"] == 256
        assert dump["dropped"] == 0
        (record,) = dump["records"]
        assert record["op"] == "submit"
        assert record["outcome"] == "done"
        assert record["request_id"] == frames[0]["request_id"]
        assert record["trace_id"] == frames[0]["trace_id"]
        assert record["jobs"] >= 1 and record["failed_jobs"] == 0
        assert record["frames"]["accepted"] == 1
        assert record["frames"]["done"] == 1
        assert record["frames"]["event"] >= 1
        assert record["duration_s"] > 0.0
        assert record["error"] is None

    def test_warm_request_is_recorded_warm(self, daemon):
        list(daemon.submit(["table2"]))
        list(daemon.submit(["table2"]))
        cold, warm = daemon.dump()["records"]
        assert cold["warm"] is False
        assert warm["warm"] is True
        assert warm["memory_hits"] >= 1

    def test_refused_request_lands_in_the_error_audit(self, daemon):
        frames = list(daemon.submit(["table1"], shard_size=0))
        assert [frame["type"] for frame in frames] == ["error"]
        last = daemon.status()["recorder"]["last_error"]
        assert last is not None and last["type"] == "bad_request"
        assert "shard_size" in last["message"]
        frames = list(daemon.submit(["nope"]))
        assert frames[-1]["type"] == "error"
        # Refused at validation, before a request id exists: no ring record,
        # but the error audit still surfaces it in status.
        assert daemon.dump()["records"] == []
        last = daemon.status()["recorder"]["last_error"]
        assert last["type"] == "bad_request"
        assert "unknown experiment" in last["message"]
        assert last["age_s"] >= 0.0

    def test_disconnected_request_is_recorded(self, make_daemon, hold):
        client = make_daemon()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(str(client.socket_path))
        with sock, sock.makefile("rwb") as stream:
            send_frame(
                stream,
                {
                    "v": PROTOCOL_VERSION,
                    "op": "submit",
                    "jobs": [{"kind": "fleet-traffic", "config": dict(HOLD_FLEET)}],
                    "shard_size": 2,
                },
            )
            accepted = recv_frame(stream)
        assert accepted["type"] == "accepted"
        # The handler was parked before its first event; that send now
        # finds the peer gone.
        hold.set()
        records = client.server.recorder.wait_for_newer(0, timeout=30.0)
        assert records, "the disconnected request was never recorded"
        (record,) = records
        assert record["request_id"] == accepted["request_id"]
        assert record["outcome"] == "disconnected"
        # No event or terminal frame reached the client.
        assert record["frames"] == {"accepted": 1}

    def test_one_slot_recorder_serves_identical_results(self, make_daemon):
        small = make_daemon("small.sock", recorder_capacity=1)
        cold = list(small.submit(["table2"]))
        warm = list(small.submit(["table2"]))
        assert cold[-1]["type"] == warm[-1]["type"] == "done"
        # The ring keeps only the newest request.
        dump = small.dump()
        assert dump["capacity"] == 1
        assert dump["recorded_total"] == 2 and dump["dropped"] == 1
        (record,) = dump["records"]
        assert record["request_id"] == warm[0]["request_id"]
        assert record["warm"] is True
        # The ring's size must not change the payload the daemon serves.
        default = list(make_daemon("default.sock").submit(["table2"]))

        def values(frames):
            return [
                frame["event"]["value"] for frame in frames
                if frame["type"] == "event" and "value" in frame["event"]
            ]

        assert values(cold)
        assert values(cold) == values(warm) == values(default)

    def test_status_reports_recorder_health(self, daemon):
        recorder = daemon.status()["recorder"]
        assert recorder == {
            "capacity": 256,
            "occupancy": 0,
            "recorded_total": 0,
            "slow_requests": 0,
            "slow_threshold_s": 1.0,
            "last_error": None,
        }
        list(daemon.submit(["table1"]))
        recorder = daemon.status()["recorder"]
        assert recorder["occupancy"] == 1
        assert recorder["recorded_total"] == 1

    def test_tail_returns_the_newest_records_and_a_cursor(self, daemon):
        for _ in range(3):
            list(daemon.submit(["table1"]))
        tail = daemon.tail(count=2)
        assert len(tail["records"]) == 2
        assert tail["seq"] == 3
        assert [r["seq"] for r in tail["records"]] == [2, 3]
        assert daemon.tail(count=0)["records"] == []

    def test_tail_rejects_a_bad_count(self, daemon):
        response = daemon.request({"op": "tail", "count": -1})
        assert response["type"] == "error"
        assert "non-negative" in response["message"]
        response = daemon.request({"op": "tail", "count": True})
        assert response["type"] == "error"

    def test_tail_follow_streams_new_records(self, daemon):
        list(daemon.submit(["table1"]))
        follow = daemon.tail_follow(count=5)
        first = next(follow)
        assert first["op"] == "submit" and first["seq"] == 1

        def run_more():
            list(daemon.submit(["table2"]))

        thread = threading.Thread(target=run_more, daemon=True)
        thread.start()
        fresh = next(follow)  # blocks until the new request completes
        thread.join(timeout=30.0)
        assert fresh["seq"] == 2
        follow.close()

    def test_dump_and_tail_cli(self, daemon, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_DAEMON_SOCKET", str(daemon.socket_path))
        assert main(["table1"]) == 0
        capsys.readouterr()
        assert main(["daemon", "dump"]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert records and records[-1]["op"] == "submit"
        assert "dump: 1 record(s)" in captured.err
        assert main(["daemon", "tail", "-n", "1"]) == 0
        tail_out = capsys.readouterr().out
        assert json.loads(tail_out.splitlines()[-1])["seq"] == records[-1]["seq"]

    def test_recorder_flag_validation(self, capsys):
        assert main(["daemon", "start", "--recorder-capacity", "0"]) == 2
        assert "--recorder-capacity" in capsys.readouterr().err
        assert main(["daemon", "start", "--slow-request-s", "0"]) == 2
        assert "--slow-request-s" in capsys.readouterr().err
        assert main(["daemon", "tail", "-n", "-1"]) == 2
        assert "--count" in capsys.readouterr().err


class TestTraceIdPropagation:
    """Request trace ids ride every frame and join cross-process spans."""

    def test_daemon_mints_a_trace_id_when_the_client_sends_none(self, daemon):
        frames = list(daemon.submit(["table1"]))
        trace_id = frames[0]["trace_id"]
        assert isinstance(trace_id, str) and trace_id.startswith("t")
        for frame in frames:
            assert frame["trace_id"] == trace_id

    def test_client_supplied_trace_id_is_adopted_and_echoed(self, daemon):
        frames = list(daemon.submit(["table1"], trace_id="t-mine-1"))
        assert {frame["trace_id"] for frame in frames} == {"t-mine-1"}
        record = daemon.dump()["records"][-1]
        assert record["trace_id"] == "t-mine-1"

    def test_fleet_frames_carry_the_trace_id(self, daemon):
        frames = list(daemon.fleet(FLEET_CONFIG, trace_id="t-fleet-1"))
        assert frames[-1]["type"] == "done"
        assert {frame["trace_id"] for frame in frames} == {"t-fleet-1"}

    def test_stale_refusal_still_echoes_the_trace_id(self, daemon):
        frames = list(
            daemon.submit(["table1"], code_version="nope", trace_id="t-stale-1")
        )
        assert [frame["type"] for frame in frames] == ["stale"]
        assert frames[0]["trace_id"] == "t-stale-1"


class TestEndToEndTraceTree:
    """The acceptance path: one daemon-routed fleet request, one trace tree
    spanning the client process, the daemon process, and >= 2 pool workers,
    and a flight-recorder dump that replays the request afterwards."""

    def test_daemon_routed_fleet_request_forms_one_cross_process_tree(
        self, tmp_path, capsys, monkeypatch
    ):
        socket_path = tmp_path / "e2e.sock"
        daemon_trace = tmp_path / "daemon.trace"
        client_trace = tmp_path / "client.trace"
        assert main([
            "daemon", "start", "--socket", str(socket_path),
            "--cache-dir", str(tmp_path / "cache"), "--workers", "2",
            "--trace", str(daemon_trace),
        ]) == 0
        capsys.readouterr()
        monkeypatch.setenv("REPRO_DAEMON_SOCKET", str(socket_path))
        try:
            assert main([
                "fleet", "--seed", "99", "--devices", "64", "--requests", "240",
                "--challenges", "2", "--impostor-ratio", "0.25",
                "--temperature-jitter", "5.0", "--shard-size", "30",
                "--json", "--trace", str(client_trace),
            ]) == 0
            captured = capsys.readouterr()
            assert "daemon: routing via" in captured.err
            assert json.loads(captured.out)["latency"]["count"] == 240

            client_records = [
                json.loads(line)
                for line in client_trace.read_text().splitlines() if line.strip()
            ]
            (trace_id,) = {r["trace"] for r in client_records}
            assert any(r["name"] == "fleet.request" for r in client_records)

            # The daemon writes its spans asynchronously; wait for the
            # request's daemon.request span to land in its trace file.
            deadline = time.time() + 30.0
            while True:
                daemon_records = [
                    json.loads(line)
                    for line in daemon_trace.read_text().splitlines()
                    if line.strip()
                ] if daemon_trace.exists() else []
                tagged = [r for r in daemon_records if r.get("trace") == trace_id]
                if any(r["name"] == "daemon.request" for r in tagged):
                    break
                assert time.time() < deadline, "daemon spans never appeared"
                time.sleep(0.05)

            merged = client_records + tagged
            pids = {r["pid"] for r in merged}
            assert len(pids) >= 4, (
                f"expected client + daemon + >=2 workers, got pids {pids}"
            )
            # Exactly one root: every other span's parent is in the merged
            # set, so the whole request is a single connected tree.
            known = {r["span"] for r in merged}
            roots = [
                r for r in merged
                if r["parent"] is None or r["parent"] not in known
            ]
            assert len(roots) == 1, [r["name"] for r in roots]
            assert roots[0]["pid"] == client_records[0]["pid"]
            fleet_root = next(
                r for r in client_records if r["name"] == "fleet.request"
            )
            daemon_span = next(r for r in tagged if r["name"] == "daemon.request")
            assert daemon_span["parent"] == fleet_root["span"]
            assert any(r["name"] == "job.run" for r in tagged)

            # The flight recorder replays the completed request on demand.
            assert main(["daemon", "dump", "--socket", str(socket_path)]) == 0
            dump_out = capsys.readouterr().out
            records = [json.loads(line) for line in dump_out.splitlines()]
            (record,) = [r for r in records if r["trace_id"] == trace_id]
            assert record["op"] == "submit"
            assert record["outcome"] == "done"
            assert record["jobs"] >= 1
        finally:
            main(["daemon", "stop", "--socket", str(socket_path)])
            capsys.readouterr()


class TestFleetCachedMarker:
    def test_warm_fleet_json_marks_percentiles_cached(
        self, daemon, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_DAEMON_SOCKET", str(daemon.socket_path))
        assert main(FLEET_CLI_ARGS + ["--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["latency"]["cached"] is False
        assert cold["latency"]["p50_ms"] > 0.0
        assert main(FLEET_CLI_ARGS + ["--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["latency"]["cached"] is True
        assert warm["latency"]["count"] == 0
        assert warm["latency"]["p50_ms"] is None
