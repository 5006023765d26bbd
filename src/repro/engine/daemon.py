"""Warm execution daemon: a unix-domain-socket server over the engine.

Every cold CLI invocation pays process-pool spin-up and a disk read per
cache lookup.  The daemon amortises both across invocations: it owns a
long-lived ``ProcessPoolExecutor`` (workers stay forked and warm) and
layers an in-memory decoded-result index over the on-disk
:class:`ResultCache` so a warm request never re-stats or re-reads a blob.
The daemon hashes the source fingerprint once at start and refuses
(``stale`` frame) a client whose sources differ.

This module is the server only.  The wire protocol -- framing, ops, frame
types -- and everything a client needs (:class:`DaemonClient`,
:func:`start_daemon`, :func:`stop_daemon`, the socket's pid and lock files)
live in :mod:`repro.engine.client`, which loads only the standard library;
this module imports the shared definitions from there.  Of the CLI's
calls, only ``daemon run`` imports it, and with it the executor, sharding
and every experiment driver, before the pool forks.

Request tracing: every work request runs under a ``trace_id`` -- adopted
from the client's request frame when it sent one (so client, daemon, and
pool-worker spans form one tree per request), minted fresh otherwise --
and every ``accepted``/``event``/terminal frame the request produces
carries it back, so a client can tie each frame to its trace.  A client
may also send ``parent_span`` to parent the daemon's ``daemon.request``
span under its own; spans are only *recorded* when the daemon was started
with ``--trace``.

Flight recorder: the daemon retains the last *N* completed work requests
(:class:`repro.telemetry.FlightRecorder` -- frames sent, queue wait, phase
timings, outcome, cache/retry/rebuild/fault tallies, slow-request flag)
for post-hoc diagnosis via ``dump``/``tail``; ``status`` embeds its
occupancy, slow-request count, and last error.

Service semantics (this is a multi-client daemon, not a one-shot pipe).
A work request has one lifecycle: ``accepted``, then admitted or refused
``busy``, then streamed, then ended ``done`` -- or ``disconnected`` when
its client goes away.

* Every work request first receives an ``accepted`` frame carrying the
  ``request_id`` the daemon assigned it (``req-N``, also the name of its
  flight-recorder record), then passes through a bounded FIFO
  :class:`RequestQueue` -- at most ``max_inflight`` execute concurrently,
  at most ``queue_depth`` wait behind them, and overflow is answered
  *immediately* with a structured ``busy`` frame instead of a hang.
* A killed pool worker breaks the shared ``ProcessPoolExecutor``; the
  daemon's :class:`~repro.engine.executor.PoolSupervisor` rebuilds it and
  retries the interrupted jobs with exponential backoff up to a retry
  budget -- results stay bit-identical because jobs are pure, and only the
  affected request fails once the budget is exhausted.
* A client that disconnects mid-stream is reaped: its request's queued
  shards are cancelled, its in-flight shards drain into the cache, and
  every other connection keeps streaming.  ``status``/``ping`` bypass the
  queue entirely (each connection has its own thread), so health checks
  answer even while the queue is saturated.

The daemon always runs with telemetry collection enabled: work requests
are timed into the ``daemon_request_seconds`` histogram and classified
warm (every terminal outcome served from cache) vs cold; busy/disconnect
outcomes, queue wait and depth, and pool rebuilds are all counted too, and
``status`` embeds a full metrics snapshot plus service-health fields.
Fault injection for all of the above is driven by
:mod:`repro.engine.faults` (``$REPRO_FAULTS``).
"""

from __future__ import annotations

import os
import socket
import socketserver
import threading
import time
import traceback
from collections import OrderedDict, deque
from pathlib import Path
from typing import Any

from repro import telemetry
from repro.engine import faults as faults_mod
from repro.engine.cache import ResultCache, default_cache_dir
from repro.engine.client import (
    PROTOCOL_VERSION,
    DaemonClient,
    DaemonError,
    _lock_file,
    _pid_alive,
    _pid_file,
    default_socket_path,
    recv_frame,
    send_frame,
)
from repro.engine.executor import PoolSupervisor
from repro.engine.jobs import ExperimentJob, FleetTrafficJob, Job
from repro.engine.sharding import iter_sharded

#: The root job classes a ``submit`` may name, by ``kind``.
ROOT_JOBS = {job.kind: job for job in (ExperimentJob, FleetTrafficJob)}

#: Counter bumped when a work request ends other than ``done``.
_OUTCOME_COUNTERS = {
    "busy": telemetry.DAEMON_REQUESTS_BUSY,
    "disconnected": telemetry.DAEMON_DISCONNECTS,
}


class _ClientGone(Exception):
    """The peer of this connection vanished (or a fault dropped it)."""



def _acquire_bind_lock(socket_path: Path) -> Path:
    """Take the ``O_EXCL`` lock guarding stale-socket reclaim + bind.

    Two concurrent ``daemon start`` invocations racing over the same dead
    socket must not both reclaim it: whoever creates ``<socket>.lock`` wins
    the reclaim/bind window and the loser fails loudly.  A lock whose
    recorded owner pid is dead (daemon crashed inside the window) is stolen
    once.  Returns the lock path; the caller must unlink it after binding.
    """
    lock_path = _lock_file(socket_path)
    socket_path.parent.mkdir(parents=True, exist_ok=True)
    for attempt in range(3):
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                owner = int(lock_path.read_text().strip() or "0")
            except (OSError, ValueError):
                owner = 0
            if owner and _pid_alive(owner):
                raise DaemonError(
                    f"another daemon is binding {socket_path} "
                    f"(lock {lock_path} held by pid {owner})"
                )
            if owner == 0:
                # Freshly created but not yet stamped with a pid -- give the
                # creator a beat before declaring the lock stale.
                time.sleep(0.05)
                try:
                    owner = int(lock_path.read_text().strip() or "0")
                except (OSError, ValueError):
                    owner = 0
                if owner and _pid_alive(owner):
                    raise DaemonError(
                        f"another daemon is binding {socket_path} "
                        f"(lock {lock_path} held by pid {owner})"
                    )
            try:
                lock_path.unlink()
            except OSError:
                pass
            continue
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        return lock_path
    raise DaemonError(f"could not acquire bind lock {lock_path}")


class RequestQueue:
    """Bounded FIFO admission control for the daemon's work requests.

    At most ``max_inflight`` requests execute concurrently; up to
    ``queue_depth`` more wait on the condition variable in arrival order.
    :meth:`enter` returns ``True`` once admitted and ``False`` at once on
    overflow.  Queue depth and in-flight count are mirrored into gauges;
    admitted requests record their queue wait.
    """

    def __init__(self, max_inflight: int = 4, queue_depth: int = 16):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {queue_depth}")
        self.max_inflight = max_inflight
        self.queue_depth = queue_depth
        self._cond = threading.Condition()
        self._waiting: "deque[object]" = deque()
        self._inflight = 0

    @property
    def inflight(self) -> int:
        return self._inflight

    @property
    def queued(self) -> int:
        return len(self._waiting)

    def _update_gauges(self) -> None:
        if telemetry.collection_enabled():
            reg = telemetry.registry()
            reg.gauge(telemetry.DAEMON_INFLIGHT).set(self._inflight)
            reg.gauge(telemetry.DAEMON_QUEUE_DEPTH).set(len(self._waiting))

    def enter(self) -> bool:
        start = time.perf_counter()
        with self._cond:
            if self._waiting or self._inflight >= self.max_inflight:
                if len(self._waiting) >= self.queue_depth:
                    return False
                ticket = object()
                self._waiting.append(ticket)
                self._update_gauges()
                while self._waiting[0] is not ticket or self._inflight >= self.max_inflight:
                    self._cond.wait()
                self._waiting.popleft()
                # The new head of the queue may fit in a slot still free.
                self._cond.notify_all()
            self._inflight += 1
            self._update_gauges()
            self._observe_wait(start)
            return True

    def leave(self) -> None:
        with self._cond:
            self._inflight -= 1
            self._update_gauges()
            self._cond.notify_all()

    @staticmethod
    def _observe_wait(start: float) -> None:
        if telemetry.collection_enabled():
            telemetry.registry().histogram(
                telemetry.DAEMON_QUEUE_WAIT_SECONDS
            ).observe(time.perf_counter() - start)


class MemoryIndexCache:
    """Write-through in-memory LRU index over an on-disk :class:`ResultCache`.

    Duck-types the cache surface the engine uses (``get``/``put``/``stats``)
    while keeping decoded result values in process memory keyed by their
    content address, so a warm lookup touches no file and re-runs no
    fingerprint -- the disk store stays the durable source of truth and is
    still written through on every ``put``.  The index holds at most
    ``max_entries`` values (least-recently-used evicted first), so a
    long-lived daemon's memory stays bounded even as the disk store churns.
    """

    def __init__(self, disk: ResultCache, max_entries: int = 4096):
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.disk = disk
        self.max_entries = max_entries
        self._index: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.memory_hits = 0
        self.disk_hits = 0

    @property
    def stats(self):
        return self.disk.stats

    def __len__(self) -> int:
        return len(self._index)

    def get(self, job) -> Any | None:
        key = self.disk.key_for(job)
        with self._lock:
            if key in self._index:
                self.memory_hits += 1
                self.stats.hits += 1
                self._index.move_to_end(key)
                return self._index[key]
        value = self.disk.get(job)
        if value is not None:
            with self._lock:
                self.disk_hits += 1
                self._store(key, value)
        return value

    def put(self, job, value) -> None:
        self.disk.put(job, value)
        with self._lock:
            self._store(self.disk.key_for(job), value)

    def _store(self, key: str, value) -> None:
        """Insert under the lock, evicting the LRU tail past ``max_entries``."""
        self._index[key] = value
        self._index.move_to_end(key)
        while len(self._index) > self.max_entries:
            self._index.popitem(last=False)


class _Handler(socketserver.StreamRequestHandler):
    """One connection: a single request frame, then a response stream."""

    def setup(self) -> None:
        super().setup()
        self._frames_sent = 0
        self._request_id = ""
        self._record: "telemetry.RequestRecord | None" = None
        self._record_base = (0, 0, 0)

    def handle(self) -> None:  # pragma: no cover - exercised via the client
        daemon: ExperimentDaemon = self.server.daemon  # type: ignore[attr-defined]
        try:
            self._handle(daemon)
        except _ClientGone:
            pass  # peer vanished; per-request cleanup already happened

    def _handle(self, daemon: "ExperimentDaemon") -> None:
        try:
            request = recv_frame(self.rfile)
        except DaemonError as error:
            self._send({"type": "error", "message": str(error)})
            return
        if request is None:
            return
        daemon.count_request()
        op = request.get("op")
        try:
            if op == "ping":
                self._send({"type": "pong", "v": PROTOCOL_VERSION, "pid": os.getpid()})
            elif op == "status":
                self._send({"type": "status", **daemon.status()})
            elif op == "metrics":
                self._send(
                    {
                        "type": "metrics",
                        "text": telemetry.registry().render_prometheus(),
                    }
                )
            elif op == "dump":
                self._send({"type": "dump", **daemon.recorder.dump()})
            elif op == "tail":
                self._handle_tail(daemon, request)
            elif op == "submit":
                self._handle_work(daemon, request)
            elif op == "shutdown":
                self._send({"type": "ok", "pid": os.getpid()})
                daemon.request_shutdown()
            else:
                self._send({"type": "error", "message": f"unknown op {op!r}"})
        except _ClientGone:
            raise
        except BrokenPipeError:
            pass  # client went away mid-stream; nothing to clean up here
        except Exception as error:
            daemon.recorder.note_error(type(error).__name__, str(error))
            self._send({"type": "error", "message": traceback.format_exc()})

    def _handle_tail(
        self, daemon: "ExperimentDaemon", request: dict[str, Any]
    ) -> None:
        """Serve the newest flight-recorder records; optionally follow live.

        The initial ``tail`` frame carries the last ``count`` records and the
        recorder's sequence cursor.  With ``follow``, the connection then
        streams one ``record`` frame per completed request as they land; a
        periodic ``keepalive`` frame doubles as disconnect detection (a gone
        client surfaces as :class:`_ClientGone` on the next send), so an
        idle daemon cannot strand follower threads forever.
        """
        count = request.get("count", 10)
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            self._send({"type": "error", "message": "count must be a non-negative int"})
            return
        records = daemon.recorder.records(last=count)
        cursor = daemon.recorder.latest_seq()
        self._send({"type": "tail", "records": records, "seq": cursor})
        if not request.get("follow"):
            return
        idle_rounds = 0
        while True:
            fresh = daemon.recorder.wait_for_newer(cursor, timeout=0.5)
            if fresh:
                idle_rounds = 0
                for record in fresh:
                    self._send({"type": "record", "record": record})
                cursor = fresh[-1]["seq"]
            else:
                idle_rounds += 1
                if idle_rounds >= 4:  # ~2s idle: probe the peer
                    idle_rounds = 0
                    self._send({"type": "keepalive"})

    def _handle_work(self, daemon: "ExperimentDaemon", request: dict[str, Any]) -> None:
        """Admit, run, and settle one ``submit`` request.

        Flow: compare the client's source fingerprint (``stale`` frame) ->
        rebuild the root jobs (:func:`_root_jobs`; a refusal is an ``error``
        frame) -> assign a request id -> ``accepted`` frame -> FIFO
        admission (``busy`` on overflow) -> stream events -> ``done``.  The
        fingerprint comes first, so a client built from other sources hears
        ``stale`` even when its request would not validate here, and neither
        refusal occupies a queue slot.  A client that disconnects mid-stream
        settles its request ``disconnected``: the stream drains silently
        (in-flight shards still land in the cache) and no terminal frame is
        sent.

        A request is *warm* when every terminal outcome was served from
        cache; refused/busy/disconnected requests count as neither.  Every
        terminal frame leaves through :meth:`_settle`, which counts and
        releases the request first.

        Trace context: the client's ``trace_id`` (minted fresh when it sent
        none) is installed in this handler thread's context for the whole
        request -- the ``daemon.request`` span and, through the executor's
        submit path, every pool-worker span record it -- and stamped on the
        ``accepted``/``event``/terminal frames.  The flight recorder's
        :class:`~repro.telemetry.RequestRecord` opens with the request id;
        the ``finally`` safety net completes it on exit paths that send no
        terminal frame (disconnects, handler crashes).
        """
        reg = telemetry.registry()
        reg.counter(telemetry.DAEMON_REQUESTS).inc()
        if not self._check_code_version(daemon, request):
            return
        try:
            jobs = _root_jobs(request)
        except ValueError as error:
            self._refuse(daemon, str(error))
            return
        trace_id = request.get("trace_id")
        if not (isinstance(trace_id, str) and trace_id):
            trace_id = telemetry.new_trace_id()
        parent_span = request.get("parent_span")
        if not isinstance(parent_span, str):
            parent_span = None
        request_id = self._request_id = daemon.next_request_id()
        trace_token = telemetry.set_trace_id(trace_id)
        record = self._record = daemon.recorder.begin(request_id, "submit", trace_id)
        self._record_base = (
            reg.counter(telemetry.ENGINE_JOB_RETRIES).value,
            reg.counter(telemetry.FAULTS_INJECTED).value,
            daemon.supervisor.rebuilds,
        )
        try:
            self._send(
                {
                    "type": "accepted",
                    "request_id": request_id,
                    "trace_id": trace_id,
                    "inflight": daemon.queue.inflight,
                    "queued": daemon.queue.queued,
                }
            )
            queue_t0 = time.perf_counter()
            admitted = daemon.queue.enter()
            record.queue_wait_s = time.perf_counter() - queue_t0
            if not admitted:
                message = (
                    f"daemon at capacity ({daemon.queue.max_inflight} in flight, "
                    f"{daemon.queue.queued} queued, depth limit {daemon.queue.queue_depth})"
                )
                self._settle(daemon, "busy", {"message": message})
                return
            try:
                start = time.perf_counter()
                with telemetry.span(
                    "daemon.request", kind="daemon", parent=parent_span,
                    request_id=request_id,
                ):
                    done = self._run_work(daemon, request, jobs)
                record.run_s = time.perf_counter() - start
                reg.histogram(telemetry.DAEMON_REQUEST_SECONDS).observe(record.run_s)
            finally:
                daemon.queue.leave()
            if done is None:
                self._settle(daemon, "disconnected")
            else:
                self._settle(daemon, "done", done)
        except _ClientGone:
            self._settle(daemon, "disconnected")
            raise
        except Exception as error:
            if self._record is not None:
                self._record.outcome = "error"
                self._record.fail(type(error).__name__, str(error))
            raise
        finally:
            self._release(daemon)
            telemetry.reset_trace_id(trace_token)

    def _refuse(self, daemon: "ExperimentDaemon", message: str) -> None:
        """Refuse a request at validation with an ``error`` frame.

        Every refusal before admission comes through here.  Refusals happen
        before a request id exists, so they leave no ring record -- but they
        do land in the flight recorder's error audit, so ``daemon status``
        still surfaces a client hammering the daemon with malformed requests
        as its ``last_error``.
        """
        daemon.recorder.note_error("bad_request", message)
        self._send({"type": "error", "message": message})

    def _settle(
        self,
        daemon: "ExperimentDaemon",
        outcome: str,
        frame: dict[str, Any] | None = None,
    ) -> None:
        """End the open request: count it, release it, then send ``frame``.

        Every way an accepted request ends passes through here.  ``outcome``
        is the terminal frame's type (``done``/``busy``), or
        ``disconnected`` -- the peer is gone, so no frame is sent.  The
        request is released *before* its terminal frame goes out, so a
        client reacting to that frame -- dumping the recorder, say -- finds
        the request's record already in the ring.
        """
        record = self._record
        if outcome == "done":
            warm = frame["misses"] == 0
            counter = (
                telemetry.DAEMON_REQUESTS_WARM if warm else telemetry.DAEMON_REQUESTS_COLD
            )
            if record is not None:
                record.warm = warm
                record.hits = frame["hits"]
                record.misses = frame["misses"]
                record.memory_hits = frame["memory_hits"]
        else:
            counter = _OUTCOME_COUNTERS[outcome]
        telemetry.registry().counter(counter).inc()
        if record is not None:
            record.outcome = outcome
        self._release(daemon, None if frame is None else outcome)
        if frame is not None:
            self._send(
                {
                    "type": outcome,
                    **frame,
                    "request_id": self._request_id,
                    "trace_id": telemetry.current_trace_id(),
                }
            )

    def _release(self, daemon: "ExperimentDaemon", terminal: str | None = None) -> None:
        """Finalize the request's flight-recorder record.

        Captures the counter deltas this request incurred, pre-counts the
        ``terminal`` frame that is about to be sent, and detaches the record
        from the handler so :meth:`_send` stops tallying into it -- so the
        ring already holds the record when the client sees the request
        finish.  Idempotent: the handler's ``finally`` calls it again, and a
        released request has no open record left to complete.
        """
        record, self._record = self._record, None
        if record is None:
            return
        reg = telemetry.registry()
        retries0, faults0, rebuilds0 = self._record_base
        record.retries = reg.counter(telemetry.ENGINE_JOB_RETRIES).value - retries0
        record.faults = reg.counter(telemetry.FAULTS_INJECTED).value - faults0
        record.rebuilds = daemon.supervisor.rebuilds - rebuilds0
        if terminal is not None:
            record.count_frame(terminal)
        daemon.recorder.complete(record)

    def _send(self, message: dict[str, Any]) -> None:
        daemon: ExperimentDaemon = self.server.daemon  # type: ignore[attr-defined]
        if daemon.faults.on_frame_send(self._frames_sent):
            # Injected drop: tear the connection down as a crashed peer would.
            try:
                self.connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            raise _ClientGone("injected connection drop")
        try:
            send_frame(self.wfile, message)
        except (BrokenPipeError, ConnectionResetError, OSError) as error:
            raise _ClientGone(str(error)) from None
        self._frames_sent += 1
        if self._record is not None:
            self._record.count_frame(str(message.get("type")))

    def _check_code_version(
        self, daemon: "ExperimentDaemon", request: dict[str, Any]
    ) -> bool:
        # A client built from edited sources must not be served results (or
        # computations) from the daemon's stale code: refuse so the caller
        # can fall back inline and the operator can restart the daemon.
        code_version = request.get("code_version")
        daemon_version = daemon.cache.disk.code_version
        if code_version is not None and code_version != daemon_version:
            frame = {
                "type": "stale",
                "message": "daemon runs a different source fingerprint "
                "(package sources changed since daemon start); restart it "
                "with: daemon stop && daemon start",
                "daemon_code_version": daemon_version,
            }
            # Refused before trace adoption, but a client-sent trace id is
            # still echoed so the refusal joins the client's request tree.
            trace_id = request.get("trace_id")
            if isinstance(trace_id, str) and trace_id:
                frame["trace_id"] = trace_id
            self._send(frame)
            return False
        return True

    def _run_work(
        self,
        daemon: "ExperimentDaemon",
        request: dict[str, Any],
        jobs: list[Job],
    ) -> dict[str, Any] | None:
        """Stream one admitted request's events; returns the unsent ``done``
        frame's fields, or ``None`` when the client went away mid-stream.

        A failed frame send marks the client gone and sets the stream's own
        stop event, but the event stream is still drained to completion
        silently: in-flight shards land in the cache (a reconnecting client
        gets them warm) and queued shards are cancelled by the engine's
        drain contract.

        ``hits``/``misses`` come from this request's own events, so they are
        exact even under concurrent requests.  ``memory_hits`` and
        ``latency`` -- the delta of the registry's
        ``fleet_auth_request_seconds`` histogram across the run, exact
        bucket arithmetic -- are global deltas, attributable to one request
        only while requests do not overlap.
        """
        record = self._record
        trace_id = telemetry.current_trace_id()
        roots = {id(job) for job in jobs}
        memory0 = daemon.cache.memory_hits
        auth_latency = telemetry.registry().histogram(telemetry.FLEET_AUTH_SECONDS)
        before = telemetry.Histogram.from_dict(auth_latency.to_dict())
        start = time.perf_counter()
        served = computed = 0
        client_gone = threading.Event()
        for event in iter_sharded(
            jobs,
            shard_size=request.get("shard_size"),
            workers=daemon.workers,
            cache=daemon.cache,
            pool=daemon.supervisor,
            cancel=client_gone,
        ):
            if event.terminal:
                daemon.count_job()
                if event.outcome is not None and event.outcome.cached:
                    served += 1
                else:
                    computed += 1
                record.jobs += 1
                if event.outcome is not None and not event.outcome.ok:
                    record.failed_jobs += 1
                    record.fail("job_failure", event.outcome.error or "job failed")
            if client_gone.is_set():
                continue
            include_value = (
                event.terminal
                and id(event.job) in roots
                and event.outcome is not None
                and event.outcome.ok
            )
            try:
                self._send(
                    {
                        "type": "event",
                        "trace_id": trace_id,
                        "event": event.to_dict(include_value=include_value),
                    }
                )
            except _ClientGone:
                client_gone.set()
        if client_gone.is_set():
            return None
        return {
            "hits": served,
            "misses": computed,
            "memory_hits": daemon.cache.memory_hits - memory0,
            "elapsed_s": round(time.perf_counter() - start, 6),
            "latency": auth_latency.subtract(before).to_dict(),
        }


def _root_jobs(request: dict[str, Any]) -> list[Job]:
    """Validate a ``submit`` request and rebuild its root jobs.

    Raises :class:`ValueError` carrying the refusal message.  A job refuses
    a bad config when it is built (an unknown field, or a value such as a
    NaN fleet jitter), so nothing invalid is admitted or reaches a pool
    worker.  Each spec's ``config`` may hold only fields of the rebuilt
    job's cache identity (``job.config``; omitted fields take the job's
    defaults): a field outside it could change what the job computes
    without changing the key its value is cached under.
    """
    from repro.experiments.registry import EXPERIMENT_IDS

    # bool is an int subclass: refuse ``true`` rather than read it as 1.
    shard_size = request.get("shard_size")
    if shard_size is not None and (type(shard_size) is not int or shard_size <= 0):
        raise ValueError("shard_size must be a positive int")
    specs = request.get("jobs")
    if not isinstance(specs, list) or not specs:
        raise ValueError("submit requires a non-empty jobs list")
    jobs = []
    for spec in specs:
        kind, config = (
            (spec.get("kind"), spec.get("config")) if isinstance(spec, dict) else (None, None)
        )
        factory = ROOT_JOBS.get(kind) if isinstance(kind, str) else None
        if factory is None:
            raise ValueError(
                f"unknown job kind {kind!r}; a submit names {', '.join(ROOT_JOBS)} jobs"
            )
        if not isinstance(config, dict):
            raise ValueError(f"{kind} job config must be an object, got {config!r}")
        try:
            job = factory(**config)
        except (TypeError, ValueError) as error:
            raise ValueError(f"bad {kind} job config: {error}") from None
        if not config.items() <= job.config.items():
            raise ValueError(
                f"{kind} job config holds fields outside its cache identity "
                f"{sorted(job.config)}"
            )
        jobs.append(job)
    unknown = [
        job.experiment_id
        for job in jobs
        if job.kind == "experiment" and job.experiment_id not in EXPERIMENT_IDS
    ]
    if unknown:
        raise ValueError(f"unknown experiment(s): {', '.join(unknown)}")
    return jobs


if hasattr(socketserver, "ThreadingUnixStreamServer"):

    class _Server(socketserver.ThreadingUnixStreamServer):
        daemon_threads = True

else:  # pragma: no cover - platforms without AF_UNIX: daemon mode unavailable
    _Server = None


class ExperimentDaemon:
    """Long-lived experiment server bound to one unix socket.

    Owns the self-healing process pool (:class:`PoolSupervisor`), the
    memory-indexed cache, and the admission queue; every connection is
    handled on its own thread, all sharing the pool (each request waits only
    on its own futures, so concurrent submits interleave safely).
    """

    def __init__(
        self,
        socket_path: str | Path | None = None,
        cache_dir: str | Path | None = None,
        workers: int = 2,
        trace: str | Path | None = None,
        max_inflight: int = 4,
        queue_depth: int = 16,
        retry_attempts: int = 3,
        retry_backoff_s: float = 0.1,
        faults: "faults_mod.FaultInjector | None" = None,
        recorder_capacity: int = 256,
        slow_request_s: float = 1.0,
    ):
        # Import every experiment driver before the cache, pool and recorder
        # exist, so the pool's forked workers inherit them and even the first
        # job runs warm.
        from repro.experiments.registry import EXPERIMENTS  # noqa: F401

        self.socket_path = Path(socket_path) if socket_path else default_socket_path()
        self.cache = MemoryIndexCache(
            ResultCache(Path(cache_dir) if cache_dir else default_cache_dir())
        )
        self.workers = max(1, int(workers))
        self.supervisor = PoolSupervisor(
            self.workers, max_attempts=max(1, int(retry_attempts)),
            backoff_s=retry_backoff_s,
        )
        self.queue = RequestQueue(max_inflight=max_inflight, queue_depth=queue_depth)
        self.recorder = telemetry.FlightRecorder(
            capacity=recorder_capacity, slow_threshold_s=slow_request_s
        )
        self.faults = faults if faults is not None else faults_mod.injector()
        self.started_at = time.time()
        self.requests = 0
        self.jobs_completed = 0
        self._counters_lock = threading.Lock()
        self._request_seq = 0
        self._server: _Server | None = None
        # A service measures itself: collection is always on in the daemon
        # (the cost is a few counter bumps per request, and status/metrics
        # frames are only meaningful with data behind them).
        telemetry.enable_collection()
        self.trace_path = Path(trace) if trace else None
        if self.trace_path is not None:
            telemetry.enable_tracing(telemetry.TraceWriter(self.trace_path))

    def count_request(self) -> None:
        with self._counters_lock:
            self.requests += 1

    def count_job(self) -> None:
        with self._counters_lock:
            self.jobs_completed += 1

    def next_request_id(self) -> str:
        with self._counters_lock:
            self._request_seq += 1
            return f"req-{self._request_seq}"

    def status(self) -> dict[str, Any]:
        return {
            "v": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "socket": str(self.socket_path),
            "cache_dir": str(self.cache.disk.cache_dir),
            "workers": self.workers,
            "uptime_s": round(time.time() - self.started_at, 3),
            "requests": self.requests,
            "jobs_completed": self.jobs_completed,
            "inflight": self.queue.inflight,
            "queued": self.queue.queued,
            "max_inflight": self.queue.max_inflight,
            "queue_depth_limit": self.queue.queue_depth,
            "pool_size": self.workers,
            "pool_rebuilds": self.supervisor.rebuilds,
            "retry_attempts": self.supervisor.max_attempts,
            "index_entries": len(self.cache),
            "memory_hits": self.cache.memory_hits,
            "disk_hits": self.cache.disk_hits,
            "disk_misses": self.cache.stats.misses,
            "recorder": self.recorder.status(),
            "metrics": telemetry.registry().snapshot(),
        }

    def request_shutdown(self) -> None:
        """Stop the accept loop (callable from a handler thread)."""
        server = self._server
        if server is not None:
            threading.Thread(target=server.shutdown, daemon=True).start()

    def serve_forever(self) -> None:
        """Bind the socket and serve until :meth:`request_shutdown`.

        Stale-socket reclaim and the bind itself happen under the
        ``<socket>.lock`` ``O_EXCL`` lock file, so two daemons racing over
        the same dead socket cannot both reclaim it: one binds, the other
        fails loudly.  A live socket raises :class:`DaemonError` instead of
        hijacking it.  The daemon's pid is published next to the socket
        (``<socket>.pid``) so a wedged daemon can be force-stopped.
        """
        if _Server is None:
            raise DaemonError("daemon mode requires AF_UNIX socket support")
        lock_path = _acquire_bind_lock(self.socket_path)
        try:
            if self.socket_path.exists():
                if DaemonClient(self.socket_path, timeout=5.0).is_running():
                    raise DaemonError(
                        f"daemon already running on {self.socket_path}"
                    )
                self.socket_path.unlink()
            self._server = _Server(str(self.socket_path), _Handler)
        finally:
            try:
                lock_path.unlink()
            except OSError:
                pass
        self._server.daemon = self  # type: ignore[attr-defined]
        pid_path = _pid_file(self.socket_path)
        pid_path.write_text(f"{os.getpid()}\n")
        # Fork the workers now (after __init__ imported the drivers), so even
        # the first request is served warm (the source fingerprint was already
        # hashed when the cache was constructed).
        self.supervisor.warm()

        try:
            self._server.serve_forever(poll_interval=0.1)
        finally:
            self._server.server_close()
            self._server = None
            for leftover in (self.socket_path, pid_path):
                try:
                    leftover.unlink()
                except OSError:
                    pass
            self.supervisor.shutdown(wait=False, cancel_futures=True)
