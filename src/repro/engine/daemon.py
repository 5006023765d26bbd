"""Warm execution daemon: a unix-domain-socket server over the engine.

Every cold CLI invocation pays process-pool spin-up and a disk read per
cache lookup.  The daemon amortises both across invocations: it owns a
long-lived ``ProcessPoolExecutor`` (workers stay forked and warm) and
layers an in-memory decoded-result index over the on-disk
:class:`ResultCache` so a warm request never re-stats or re-reads a blob.
The daemon hashes the source fingerprint once at start; clients send their
own fingerprint with every submit and are refused (``stale`` frame) when
the sources have changed since, so a long-lived daemon can never silently
serve results computed by old code.

Protocol -- length-prefixed NDJSON over ``AF_UNIX``.  Each frame is one JSON
object serialized to a single line, preceded by its byte length on its own
line (so consumers can pre-allocate and corrupt streams fail loudly)::

    22\n
    {"op":"status","v":1}\n

Requests (client -> daemon): ``submit`` (experiment ids + quick/shard_size;
the daemon answers with one ``event`` frame per
:class:`~repro.engine.executor.JobEvent` as shards land, then a ``done``
frame carrying per-request cache stats), ``fleet`` (one fleet traffic job
config; same event stream, done frame additionally carries this request's
auth-latency histogram), ``cancel`` (abort an in-flight request by id),
``metrics`` (Prometheus text exposition of the daemon's telemetry
registry), ``dump``/``tail`` (the flight recorder's per-request diagnostic
records; ``tail`` can ``follow`` the stream live), ``status``, ``ping``,
and ``shutdown``.  Error responses are ``{"type": "error", "message":
...}``.

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

Service semantics (this is a multi-client daemon, not a one-shot pipe):

* Work requests pass through a bounded FIFO :class:`RequestQueue` -- at
  most ``max_inflight`` execute concurrently, at most ``queue_depth`` wait
  behind them, and overflow is answered *immediately* with a structured
  ``busy`` frame instead of a hang.  Admitted requests first receive an
  ``accepted`` frame carrying their ``request_id`` (client-chosen or
  daemon-assigned), the handle for ``cancel``.
* A request may carry ``timeout_s``; when the deadline passes the daemon
  cancels the request's queued shards (in-flight shards drain into the
  cache) and answers with a ``timeout`` frame naming the phase
  (``queued``/``running``).  An explicit ``cancel`` op settles the stream
  with a ``cancelled`` frame the same way.
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
(``submit``/``fleet``) are timed into the ``daemon_request_seconds``
histogram and classified warm (every terminal outcome served from cache)
vs cold; busy/timeout/cancelled/disconnect outcomes, queue wait and depth,
and pool rebuilds are all counted too, and ``status`` embeds a full
metrics snapshot plus service-health fields.

The CLI degrades gracefully: when no daemon is listening on the socket
(``$REPRO_DAEMON_SOCKET`` or the per-user default), or the daemon answers
busy/timeout/stale, execution happens inline in the invoking process,
bit-identically.  Fault injection for all of the above is driven by
:mod:`repro.engine.faults` (``$REPRO_FAULTS``).
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import socketserver
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from collections import OrderedDict, deque
from pathlib import Path
from typing import Any, BinaryIO, Iterator

from repro import telemetry
from repro.engine import faults as faults_mod
from repro.engine.cache import ResultCache, default_cache_dir
from repro.engine.executor import CancelToken, PoolSupervisor
from repro.engine.jobs import ExperimentJob
from repro.engine.sharding import iter_sharded

#: Environment override for the daemon socket location.
SOCKET_ENV = "REPRO_DAEMON_SOCKET"

#: Protocol version stamped on every request/response frame.
PROTOCOL_VERSION = 2

#: Frame types that settle a submit/fleet stream.
TERMINAL_FRAME_TYPES = frozenset(
    {"done", "error", "stale", "busy", "timeout", "cancelled"}
)

#: Frames larger than this are rejected (corrupt length headers fail fast).
MAX_FRAME_BYTES = 64 * 1024 * 1024


class DaemonError(RuntimeError):
    """Daemon unreachable, already running, or a protocol violation."""


def default_socket_path() -> Path:
    """Socket path from ``$REPRO_DAEMON_SOCKET``, else a private per-user dir.

    Without the override, the socket lives inside a directory only the
    current user can enter (``$XDG_RUNTIME_DIR`` when set, else a ``0700``
    per-user directory under the temp dir) -- a predictable socket directly
    in world-writable ``/tmp`` could be squatted by another local user, who
    could then spoof experiment results to auto-routing clients.  Raises
    :class:`DaemonError` if the directory exists but is not exclusively
    ours.
    """
    env = os.environ.get(SOCKET_ENV)
    if env:
        return Path(env)
    runtime = os.environ.get("XDG_RUNTIME_DIR")
    if runtime:
        return Path(runtime) / "repro-daemon.sock"
    if not hasattr(os, "getuid"):  # pragma: no cover - daemon needs AF_UNIX anyway
        return Path(tempfile.gettempdir()) / "repro-daemon.sock"
    directory = Path(tempfile.gettempdir()) / f"repro-daemon-{os.getuid()}"
    try:
        directory.mkdir(mode=0o700, exist_ok=True)
        stat = directory.stat()
    except OSError as error:
        raise DaemonError(f"cannot secure daemon directory {directory}: {error}") from None
    if stat.st_uid != os.getuid() or stat.st_mode & 0o077:
        raise DaemonError(
            f"daemon directory {directory} is not exclusively owned by this "
            f"user (uid {stat.st_uid}, mode {stat.st_mode & 0o777:o}); refusing "
            f"to trust it -- set ${SOCKET_ENV} to a private path instead"
        )
    return directory / "daemon.sock"


def send_frame(wfile: BinaryIO, message: dict[str, Any]) -> None:
    """Write one length-prefixed NDJSON frame."""
    data = json.dumps(message, separators=(",", ":")).encode() + b"\n"
    wfile.write(f"{len(data)}\n".encode() + data)
    wfile.flush()


def recv_frame(rfile: BinaryIO) -> dict[str, Any] | None:
    """Read one frame; ``None`` on a clean EOF, :class:`DaemonError` on junk."""
    header = rfile.readline()
    if not header:
        return None
    try:
        length = int(header)
    except ValueError:
        raise DaemonError(f"bad frame length header: {header!r}") from None
    if not 0 < length <= MAX_FRAME_BYTES:
        raise DaemonError(f"frame length {length} out of range")
    data = rfile.read(length)
    if len(data) < length:
        raise DaemonError("truncated frame")
    try:
        message = json.loads(data)
    except ValueError as error:
        raise DaemonError(f"frame is not valid JSON: {error}") from None
    if not isinstance(message, dict):
        raise DaemonError("frame must be a JSON object")
    return message


class _ClientGone(Exception):
    """The peer of this connection vanished (or a fault dropped it)."""


def _pid_file(socket_path: Path) -> Path:
    return socket_path.with_name(socket_path.name + ".pid")


def _lock_file(socket_path: Path) -> Path:
    return socket_path.with_name(socket_path.name + ".lock")


def _read_pid_file(socket_path: Path) -> int | None:
    try:
        return int(_pid_file(socket_path).read_text().strip())
    except (OSError, ValueError):
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - someone else's process
        return True
    return True


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
    ``queue_depth`` more wait in arrival order.  :meth:`enter` returns
    ``"ok"`` once admitted, ``"busy"`` immediately on overflow, or the
    cancel reason (``"timeout"``/``"cancelled"``/``"disconnected"``) if the
    request's token fires while it waits.  Queue depth and in-flight count
    are mirrored into gauges; admitted requests record their queue wait.
    """

    def __init__(self, max_inflight: int = 4, queue_depth: int = 16):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if queue_depth < 0:
            raise ValueError(f"queue_depth must be >= 0, got {queue_depth}")
        self.max_inflight = max_inflight
        self.queue_depth = queue_depth
        self._cond = threading.Condition()
        self._waiting: "deque[CancelToken]" = deque()
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

    def enter(self, token: CancelToken) -> str:
        start = time.perf_counter()
        with self._cond:
            if self._inflight < self.max_inflight and not self._waiting:
                self._inflight += 1
                self._update_gauges()
                self._observe_wait(start)
                return "ok"
            if len(self._waiting) >= self.queue_depth:
                return "busy"
            self._waiting.append(token)
            self._update_gauges()
            try:
                while True:
                    if token.poll():
                        return token.reason or "cancelled"
                    if self._waiting and self._waiting[0] is token and (
                        self._inflight < self.max_inflight
                    ):
                        self._waiting.popleft()
                        self._inflight += 1
                        self._observe_wait(start)
                        return "ok"
                    # Timed wait so token deadlines fire even with no churn.
                    self._cond.wait(0.05)
            finally:
                if token in self._waiting:
                    self._waiting.remove(token)
                self._update_gauges()
                self._cond.notify_all()

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
        self._record: "telemetry.RequestRecord | None" = None
        self._record_base = (0, 0, 0)

    def handle(self) -> None:  # pragma: no cover - exercised via the client
        daemon: ExperimentDaemon = self.server.daemon  # type: ignore[attr-defined]
        if daemon.faults.on_connection():
            return  # injected accept refusal: close without responding
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
            elif op in ("submit", "fleet"):
                self._handle_work(daemon, request, op)
            elif op == "cancel":
                request_id = str(request.get("request_id") or "")
                cancelled = daemon.cancel_request(request_id)
                self._send(
                    {"type": "ok", "request_id": request_id, "cancelled": cancelled}
                )
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
        if not request.get("follow") or not daemon.recorder.enabled:
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

    def _handle_work(
        self, daemon: "ExperimentDaemon", request: dict[str, Any], op: str
    ) -> None:
        """Admit, run, and settle one work request.

        Flow: validate (error/stale frames bypass the queue) -> register a
        :class:`~repro.engine.executor.CancelToken` under the request id ->
        ``accepted`` frame -> FIFO admission (overflow answers ``busy``,
        cancellation while queued answers ``timeout``/``cancelled``) ->
        stream events with the token threaded through the engine -> settle
        with ``done`` or the structured cancellation frame.  A client that
        disconnects mid-stream cancels its own token; the stream drains
        silently (in-flight shards still land in the cache) and no settle
        frame is sent.

        A request is *warm* when every terminal outcome was served from
        cache; refused/busy/cancelled requests count as neither.  The run
        helpers return the ``done`` frame instead of sending it so every
        metric is updated *before* the client sees the request complete.

        Trace context: the client's ``trace_id`` (minted fresh when it sent
        none) is installed in this handler thread's context for the whole
        request -- the ``daemon.request`` span and, through the executor's
        submit path, every pool-worker span record it -- and stamped on the
        ``accepted``/``event``/terminal frames.  The flight recorder's
        :class:`~repro.telemetry.RequestRecord` opens once the request id is
        registered and is finalized *before* the terminal frame goes out
        (so a client that dumps the moment it sees ``done`` finds the
        record already in the ring), with an idempotent ``finally`` safety
        net so every exit path -- including disconnects and handler crashes,
        which send no terminal frame -- still leaves a record.  The request
        id is released at the same point (:meth:`_release`), so a client that
        sees the terminal frame can resubmit under the same id at once.
        """
        reg = telemetry.registry()
        reg.counter(telemetry.DAEMON_REQUESTS).inc()
        prepared = (
            self._prepare_submit(daemon, request)
            if op == "submit"
            else self._prepare_fleet(daemon, request)
        )
        if prepared is None:
            return
        timeout_s = request.get("timeout_s")
        if timeout_s is not None and (
            not isinstance(timeout_s, (int, float)) or timeout_s <= 0
        ):
            self._refuse(daemon, "timeout_s must be a positive number")
            return
        trace_id = request.get("trace_id")
        if not (isinstance(trace_id, str) and trace_id):
            trace_id = telemetry.new_trace_id()
        parent_span = request.get("parent_span")
        if not isinstance(parent_span, str):
            parent_span = None
        deadline = time.monotonic() + timeout_s if timeout_s is not None else None
        token = CancelToken(deadline=deadline)
        request_id = str(request.get("request_id") or daemon.next_request_id())
        if not daemon.register_request(request_id, token):
            self._refuse(
                daemon, f"request_id {request_id!r} is already in flight"
            )
            return
        trace_token = telemetry.set_trace_id(trace_id)
        record = daemon.recorder.begin(request_id, op, trace_id)
        self._record = record
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
            admission = daemon.queue.enter(token)
            if record is not None:
                record.queue_wait_s = time.perf_counter() - queue_t0
            if admission == "busy":
                reg.counter(telemetry.DAEMON_REQUESTS_BUSY).inc()
                if record is not None:
                    record.outcome = "busy"
                self._release(daemon, request_id, token, "busy")
                self._send(
                    {
                        "type": "busy",
                        "request_id": request_id,
                        "trace_id": trace_id,
                        "message": (
                            f"daemon at capacity ({daemon.queue.max_inflight} "
                            f"in flight, {daemon.queue.queued} queued, "
                            f"depth limit {daemon.queue.queue_depth})"
                        ),
                    }
                )
                return
            if admission != "ok":
                self._settle_cancelled(
                    reg, daemon, request_id, token, phase="queued",
                    trace_id=trace_id,
                )
                return
            try:
                start = time.perf_counter()
                with telemetry.span(
                    "daemon.request", kind="daemon", parent=parent_span,
                    op=op, request_id=request_id,
                ):
                    done = self._run_work(daemon, request, op, prepared, token)
                run_s = time.perf_counter() - start
                if record is not None:
                    record.run_s = run_s
                reg.histogram(telemetry.DAEMON_REQUEST_SECONDS).observe(run_s)
            finally:
                daemon.queue.leave()
            if token.cancelled:
                self._settle_cancelled(
                    reg, daemon, request_id, token, phase="running",
                    trace_id=trace_id,
                )
                return
            if done is not None:
                warm = done["misses"] == 0
                reg.counter(
                    telemetry.DAEMON_REQUESTS_WARM
                    if warm
                    else telemetry.DAEMON_REQUESTS_COLD
                ).inc()
                if record is not None:
                    record.outcome = "done"
                    record.warm = warm
                    record.hits = done["hits"]
                    record.misses = done["misses"]
                    record.memory_hits = done["memory_hits"]
                self._release(daemon, request_id, token, str(done.get("type")))
                self._send({**done, "request_id": request_id, "trace_id": trace_id})
        except _ClientGone:
            token.cancel("disconnected")
            reg.counter(telemetry.DAEMON_DISCONNECTS).inc()
            if record is not None:
                record.outcome = "disconnected"
            raise
        except Exception as error:
            if record is not None:
                record.outcome = "error"
                record.fail(type(error).__name__, str(error))
            raise
        finally:
            self._release(daemon, request_id, token, None)
            telemetry.reset_trace_id(trace_token)

    def _refuse(self, daemon: "ExperimentDaemon", message: str) -> None:
        """Refuse a request at validation with an ``error`` frame.

        Refusals happen before a request id exists, so they leave no ring
        record -- but they do land in the flight recorder's error audit, so
        ``daemon status`` still surfaces a client hammering the daemon with
        malformed requests as its ``last_error``.
        """
        daemon.recorder.note_error("bad_request", message)
        self._send({"type": "error", "message": message})

    def _release(
        self,
        daemon: "ExperimentDaemon",
        request_id: str,
        token: CancelToken,
        terminal: str | None,
    ) -> None:
        """Release a request's state *before* its terminal frame is sent.

        Finalizes the flight-recorder record and frees the request id, so a
        client reacting to ``done``/``busy``/``timeout``/``cancelled`` can
        reuse the id at once and a late ``cancel`` finds nothing in flight.
        Idempotent: the handler's ``finally`` calls it again, and the id is
        freed only while it still belongs to this request's token.
        """
        self._complete_record(daemon, terminal)
        daemon.unregister_request(request_id, token)

    def _complete_record(self, daemon: "ExperimentDaemon", terminal: str | None) -> None:
        """Finalize the open request record into the flight recorder.

        Captures the counter deltas this request incurred, pre-counts the
        terminal frame (``terminal``) that is about to be sent, and detaches
        the record from the handler so :meth:`_send` stops tallying into it.
        Runs *before* the terminal frame so the ring already holds the
        record when the client observes the request finish; the caller's
        ``finally`` re-invokes it harmlessly (no open record -> no-op, and
        :meth:`FlightRecorder.complete` is idempotent besides).
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

    def _settle_cancelled(
        self,
        reg,
        daemon: "ExperimentDaemon",
        request_id: str,
        token: CancelToken,
        *,
        phase: str,
        trace_id: str | None = None,
    ) -> None:
        """Send the structured frame matching why this request was aborted."""
        reason = token.reason or "cancelled"
        if self._record is not None:
            self._record.outcome = reason
        if reason == "timeout":
            reg.counter(telemetry.DAEMON_REQUESTS_TIMEOUT).inc()
            self._release(daemon, request_id, token, "timeout")
            self._send(
                {
                    "type": "timeout",
                    "request_id": request_id,
                    "trace_id": trace_id,
                    "phase": phase,
                    "message": f"request deadline passed while {phase}",
                }
            )
        elif reason == "disconnected":
            reg.counter(telemetry.DAEMON_DISCONNECTS).inc()
            self._release(daemon, request_id, token, None)  # the peer is gone; no frame
        else:
            reg.counter(telemetry.DAEMON_REQUESTS_CANCELLED).inc()
            self._release(daemon, request_id, token, "cancelled")
            self._send(
                {
                    "type": "cancelled",
                    "request_id": request_id,
                    "trace_id": trace_id,
                    "phase": phase,
                }
            )

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

    def _check_shard_size(self, request: dict[str, Any]) -> bool:
        shard_size = request.get("shard_size")
        if shard_size is not None and (not isinstance(shard_size, int) or shard_size <= 0):
            self._send({"type": "error", "message": "shard_size must be a positive int"})
            return False
        return True

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

    def _prepare_submit(
        self, daemon: "ExperimentDaemon", request: dict[str, Any]
    ) -> list[ExperimentJob] | None:
        """Validate a submit request into its root jobs (``None`` = refused,
        an error/stale frame already went out).  Validation happens *before*
        queue admission so malformed requests never occupy a slot."""
        from repro.experiments.registry import EXPERIMENT_IDS

        experiments = request.get("experiments") or []
        unknown = [eid for eid in experiments if eid not in EXPERIMENT_IDS]
        if not experiments or unknown:
            self._refuse(
                daemon,
                f"unknown experiment(s): {', '.join(unknown)}"
                if unknown
                else "submit requires a non-empty experiments list",
            )
            return None
        if not self._check_shard_size(request):
            return None
        if not self._check_code_version(daemon, request):
            return None
        quick = bool(request.get("quick", True))
        return [ExperimentJob(eid, quick=quick) for eid in experiments]

    def _prepare_fleet(
        self, daemon: "ExperimentDaemon", request: dict[str, Any]
    ) -> list[Any] | None:
        """Validate a fleet request into its single traffic job (``None`` =
        refused)."""
        from repro.engine.jobs import FleetTrafficJob

        config = request.get("job")
        if not isinstance(config, dict):
            self._refuse(daemon, "fleet requires a job config object")
            return None
        if not self._check_shard_size(request):
            return None
        if not self._check_code_version(daemon, request):
            return None
        try:
            job = FleetTrafficJob(**config)
        except (TypeError, ValueError) as error:
            self._refuse(daemon, f"bad fleet job config: {error}")
            return None
        return [job]

    def _run_work(
        self,
        daemon: "ExperimentDaemon",
        request: dict[str, Any],
        op: str,
        jobs: list[Any],
        token: CancelToken,
    ) -> dict[str, Any] | None:
        """Stream one admitted request's events; returns the unsent ``done``
        frame, or ``None`` when the request was cancelled mid-stream (the
        caller settles it from the token).

        A failed frame send marks the client gone and cancels the token, but
        the event stream is still drained to completion silently: in-flight
        shards land in the cache (a reconnecting client gets them warm) and
        queued shards are cancelled by the engine's drain contract.

        For fleet requests the done frame carries this request's per-auth
        latency histogram -- the delta of the daemon registry's
        ``fleet_auth_request_seconds`` across the run (exact bucket
        arithmetic; like ``memory_hits`` it is only attributable to one
        request while requests do not overlap).
        """
        reg = telemetry.registry()
        record = self._record
        trace_id = telemetry.current_trace_id()
        roots = {id(job) for job in jobs}
        memory0 = daemon.cache.memory_hits
        auth_latency = before = None
        if op == "fleet":
            auth_latency = reg.histogram(telemetry.FLEET_AUTH_SECONDS)
            before = telemetry.Histogram.from_dict(auth_latency.to_dict())
        start = time.perf_counter()
        served = computed = 0
        client_gone = False
        for event in iter_sharded(
            jobs,
            shard_size=request.get("shard_size"),
            workers=daemon.workers,
            cache=daemon.cache,
            fail_fast=bool(request.get("fail_fast", True)),
            ordered=bool(request.get("ordered", False)) if op == "submit" else False,
            pool=daemon.supervisor,
            cancel=token,
        ):
            if event.terminal:
                daemon.count_job()
                if event.outcome is not None and event.outcome.cached:
                    served += 1
                else:
                    computed += 1
                if record is not None:
                    record.jobs += 1
                    if event.outcome is not None and not event.outcome.ok:
                        record.failed_jobs += 1
                        record.fail("job_failure", event.outcome.error or "job failed")
            if client_gone:
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
                client_gone = True
                token.cancel("disconnected")
        if client_gone or token.cancelled:
            return None
        # hits/misses are derived from this request's own events (exact even
        # under concurrent submits); memory_hits is a global-counter delta and
        # therefore only attributable when requests do not overlap.
        done = {
            "type": "done",
            "hits": served,
            "misses": computed,
            "memory_hits": daemon.cache.memory_hits - memory0,
        }
        if op == "fleet":
            done["elapsed_s"] = round(time.perf_counter() - start, 6)
            done["latency"] = auth_latency.subtract(before).to_dict()
        return done


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
        self._requests_lock = threading.Lock()
        self._active_requests: dict[str, CancelToken] = {}
        self._request_seq = 0
        self._server: _Server | None = None
        # A service measures itself: collection is always on in the daemon
        # (the cost is a few counter bumps per request, and status/metrics
        # frames are only meaningful with data behind them).
        telemetry.enable_collection()
        self.trace_path = Path(trace) if trace else None
        if self.trace_path is not None:
            telemetry.enable_tracing(telemetry.TraceWriter(self.trace_path))

    @property
    def pool(self) -> PoolSupervisor:
        """The work pool (supervisor-wrapped; kept for API compatibility)."""
        return self.supervisor

    def count_request(self) -> None:
        with self._counters_lock:
            self.requests += 1

    def count_job(self) -> None:
        with self._counters_lock:
            self.jobs_completed += 1

    def next_request_id(self) -> str:
        with self._requests_lock:
            self._request_seq += 1
            return f"req-{self._request_seq}"

    def register_request(self, request_id: str, token: CancelToken) -> bool:
        """Track an in-flight request; ``False`` when the id is taken."""
        with self._requests_lock:
            if request_id in self._active_requests:
                return False
            self._active_requests[request_id] = token
            return True

    def unregister_request(self, request_id: str, token: CancelToken) -> None:
        """Forget an in-flight request, unless its id now names a newer one."""
        with self._requests_lock:
            if self._active_requests.get(request_id) is token:
                del self._active_requests[request_id]

    def cancel_request(self, request_id: str) -> bool:
        """Fire the cancel token of an in-flight request (the ``cancel`` op)."""
        with self._requests_lock:
            token = self._active_requests.get(request_id)
        if token is None:
            return False
        token.cancel("cancelled")
        return True

    def status(self) -> dict[str, Any]:
        with self._requests_lock:
            active = len(self._active_requests)
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
            "active_requests": active,
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


class DaemonClient:
    """Client side of the daemon protocol.

    ``timeout`` bounds every read on an established stream (a wedged daemon
    cannot hang the client forever); ``connect_timeout`` bounds the initial
    connect separately so liveness probes stay fast.  One-shot requests can
    opt into jittered retry-backoff on transient errors (refused accepts,
    truncated responses) via ``retries``.
    """

    def __init__(
        self,
        socket_path: str | Path | None = None,
        timeout: float = 300.0,
        connect_timeout: float = 10.0,
    ):
        self.socket_path = Path(socket_path) if socket_path else default_socket_path()
        self.timeout = timeout
        self.connect_timeout = connect_timeout

    def _connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.connect_timeout)
        try:
            sock.connect(str(self.socket_path))
        except OSError as error:
            sock.close()
            raise DaemonError(
                f"no daemon listening on {self.socket_path}: {error}"
            ) from None
        sock.settimeout(self.timeout)
        return sock

    def request(
        self,
        message: dict[str, Any],
        *,
        retries: int = 0,
        backoff_s: float = 0.05,
    ) -> dict[str, Any]:
        """One-shot request returning the single response frame.

        With ``retries`` transient failures (connection refused/reset,
        truncated response) are retried after exponential backoff with full
        jitter -- ``uniform(0, backoff_s * 2**attempt)`` -- so a burst of
        retrying clients does not stampede the daemon in lockstep.
        """
        attempt = 0
        while True:
            try:
                return self._request_once(message)
            except DaemonError:
                if attempt >= retries:
                    raise
                time.sleep(random.uniform(0, backoff_s * (2 ** attempt)))
                attempt += 1

    def _request_once(self, message: dict[str, Any]) -> dict[str, Any]:
        try:
            with self._connect() as sock, sock.makefile("rwb") as stream:
                send_frame(stream, {"v": PROTOCOL_VERSION, **message})
                response = recv_frame(stream)
        except OSError as error:
            # e.g. the daemon tore the connection down mid-exchange (shutdown)
            raise DaemonError(f"daemon connection failed: {error}") from None
        if response is None:
            raise DaemonError("daemon closed the connection without responding")
        return response

    def _stream(self, request: dict[str, Any]) -> Iterator[dict[str, Any]]:
        """Send one work request and yield frames through the terminal one.

        Terminal frames: ``done`` on success, or the structured refusal /
        abort frames (``error``, ``stale``, ``busy``, ``timeout``,
        ``cancelled``).  A stream that ends without one raises
        :class:`DaemonError` -- the daemon died or dropped the connection.
        """
        try:
            with self._connect() as sock, sock.makefile("rwb") as stream:
                send_frame(stream, request)
                while True:
                    frame = recv_frame(stream)
                    if frame is None:
                        raise DaemonError("daemon stream ended before the done frame")
                    yield frame
                    if frame.get("type") in TERMINAL_FRAME_TYPES:
                        return
        except OSError as error:
            raise DaemonError(f"daemon connection failed: {error}") from None

    def submit(
        self,
        experiments: list[str],
        *,
        quick: bool = True,
        shard_size: int | None = None,
        ordered: bool = False,
        fail_fast: bool = True,
        code_version: str | None = None,
        timeout_s: float | None = None,
        request_id: str | None = None,
        trace_id: str | None = None,
        parent_span: str | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Submit experiments; yield ``event`` frames then the ``done`` frame.

        Pass the client's :func:`~repro.engine.cache.source_fingerprint` as
        ``code_version`` to be refused (a single ``stale`` frame) when the
        daemon was started from different package sources -- a stale daemon
        must not silently serve results keyed under old code.  ``timeout_s``
        sets a server-side deadline (a ``timeout`` frame settles the
        stream); ``request_id`` names the request for the ``cancel`` op
        (the daemon assigns one otherwise, echoed in ``accepted``).
        ``trace_id``/``parent_span`` carry the client's trace context so
        daemon + worker spans join the client's tree (the daemon mints a
        trace id itself otherwise; frames echo it either way).
        """
        return self._stream(
            {
                "v": PROTOCOL_VERSION,
                "op": "submit",
                "experiments": list(experiments),
                "quick": quick,
                "shard_size": shard_size,
                "ordered": ordered,
                "fail_fast": fail_fast,
                "code_version": code_version,
                "timeout_s": timeout_s,
                "request_id": request_id,
                "trace_id": trace_id,
                "parent_span": parent_span,
            }
        )

    def fleet(
        self,
        job_config: dict[str, Any],
        *,
        shard_size: int | None = None,
        code_version: str | None = None,
        timeout_s: float | None = None,
        request_id: str | None = None,
        trace_id: str | None = None,
        parent_span: str | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Submit one fleet traffic job config; yield ``event`` frames then
        the ``done`` frame (which carries the request's auth-latency
        histogram).  Staleness/deadline/cancel/trace-context semantics match
        :meth:`submit`.
        """
        return self._stream(
            {
                "v": PROTOCOL_VERSION,
                "op": "fleet",
                "job": dict(job_config),
                "shard_size": shard_size,
                "code_version": code_version,
                "timeout_s": timeout_s,
                "request_id": request_id,
                "trace_id": trace_id,
                "parent_span": parent_span,
            }
        )

    def cancel(self, request_id: str) -> bool:
        """Cancel an in-flight request by id; ``True`` when one was found."""
        response = self.request({"op": "cancel", "request_id": request_id})
        if response.get("type") != "ok":
            raise DaemonError(f"unexpected cancel response: {response}")
        return bool(response.get("cancelled"))

    def metrics(self) -> str:
        """Prometheus text exposition of the daemon's metrics registry."""
        response = self.request({"op": "metrics"})
        if response.get("type") != "metrics":
            raise DaemonError(f"unexpected metrics response: {response}")
        return response.get("text", "")

    def dump(self) -> dict[str, Any]:
        """The daemon's full flight-recorder ring plus its summary fields."""
        response = self.request({"op": "dump"})
        if response.get("type") != "dump":
            raise DaemonError(f"unexpected dump response: {response}")
        return response

    def tail(self, count: int = 10) -> dict[str, Any]:
        """The newest ``count`` flight-recorder records (one response frame)."""
        response = self.request({"op": "tail", "count": count})
        if response.get("type") != "tail":
            raise DaemonError(f"unexpected tail response: {response}")
        return response

    def tail_follow(self, count: int = 10) -> Iterator[dict[str, Any]]:
        """Yield the newest ``count`` records, then each new one as it lands.

        The stream runs until the daemon goes away (``DaemonError``) or the
        caller stops consuming and closes the generator; ``keepalive``
        frames from the daemon are filtered out here.
        """
        try:
            with self._connect() as sock, sock.makefile("rwb") as stream:
                send_frame(
                    stream,
                    {"v": PROTOCOL_VERSION, "op": "tail", "count": count, "follow": True},
                )
                while True:
                    frame = recv_frame(stream)
                    if frame is None:
                        return
                    if frame.get("type") == "tail":
                        for record in frame.get("records", []):
                            yield record
                    elif frame.get("type") == "record":
                        yield frame["record"]
                    elif frame.get("type") == "error":
                        raise DaemonError(str(frame.get("message")))
        except OSError as error:
            raise DaemonError(f"daemon connection failed: {error}") from None

    def ping(self) -> dict[str, Any]:
        return self.request({"op": "ping"})

    def status(self) -> dict[str, Any]:
        return self.request({"op": "status"})

    def shutdown(self) -> dict[str, Any]:
        return self.request({"op": "shutdown"})

    def is_running(self) -> bool:
        """Whether a live daemon answers a ping on the socket."""
        try:
            return self.ping().get("type") == "pong"
        except DaemonError:
            return False


def start_daemon(
    socket_path: str | Path | None = None,
    cache_dir: str | Path | None = None,
    workers: int = 2,
    wait_s: float = 30.0,
    trace: str | Path | None = None,
    max_inflight: int = 4,
    queue_depth: int = 16,
    recorder_capacity: int = 256,
    slow_request_s: float = 1.0,
) -> int:
    """Spawn a detached daemon process and wait until it answers pings.

    Returns the daemon pid.  Raises :class:`DaemonError` if one is already
    running on the socket or the child dies before binding (its log lives
    next to the socket as ``<socket>.log``).
    """
    path = Path(socket_path) if socket_path else default_socket_path()
    if DaemonClient(path).is_running():
        raise DaemonError(f"daemon already running on {path}")
    argv = [
        sys.executable,
        "-m",
        "repro.experiments",
        "daemon",
        "run",
        "--socket",
        str(path),
        "--workers",
        str(workers),
        "--max-inflight",
        str(max_inflight),
        "--queue-depth",
        str(queue_depth),
        "--recorder-capacity",
        str(recorder_capacity),
        "--slow-request-s",
        str(slow_request_s),
    ]
    if cache_dir is not None:
        argv += ["--cache-dir", str(cache_dir)]
    if trace is not None:
        argv += ["--trace", str(trace)]
    env = os.environ.copy()
    # Make the package importable in the child even when the parent runs off
    # a PYTHONPATH the service manager would not inherit.
    import repro

    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = (
        src_dir + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src_dir
    )
    log_path = path.with_name(path.name + ".log")
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(log_path, "ab") as log:
        process = subprocess.Popen(
            argv,
            stdin=subprocess.DEVNULL,
            stdout=log,
            stderr=log,
            start_new_session=True,
            env=env,
        )
    client = DaemonClient(path)
    deadline = time.time() + wait_s
    while time.time() < deadline:
        if process.poll() is not None:
            raise DaemonError(
                f"daemon exited with code {process.returncode} before binding "
                f"{path}; see {log_path}"
            )
        if client.is_running():
            return process.pid
        time.sleep(0.05)
    process.terminate()
    raise DaemonError(f"daemon did not bind {path} within {wait_s:g}s; see {log_path}")


def stop_daemon(
    socket_path: str | Path | None = None,
    wait_s: float = 10.0,
    *,
    force: bool = False,
) -> str | bool:
    """Stop the daemon on ``socket_path``; reports which path was taken.

    Returns ``"graceful"`` when the daemon acknowledged the shutdown op and
    exited within ``wait_s``, ``"forced"`` when the SIGKILL escalation was
    needed (only with ``force=True``), or ``False`` when no daemon runs
    there.  Without ``force``, a daemon that is still running after the
    graceful deadline -- wedged, or not even answering its socket while its
    published pid is alive -- raises :class:`DaemonError` telling the
    operator to retry with force.

    The forced path SIGKILLs the pid from ``<socket>.pid`` and cleans up the
    socket/pid files the daemon can no longer remove itself.  A daemon that
    leads its own process group (as :func:`start_daemon` spawns it) is
    killed with its whole group, so its forked pool workers die with it
    instead of lingering, reparented to init, on the call queue.
    """
    path = Path(socket_path) if socket_path else default_socket_path()
    # Short probe timeouts: a wedged daemon accepts into the kernel backlog
    # but never answers; the stop path must not hang on it.
    probe_timeout = max(0.1, min(wait_s, 5.0))
    client = DaemonClient(path, timeout=probe_timeout, connect_timeout=probe_timeout)
    acknowledged = False
    try:
        client.shutdown()
        acknowledged = True
    except DaemonError:
        pass
    if acknowledged:
        deadline = time.time() + wait_s
        while time.time() < deadline:
            if not client.is_running():
                return "graceful"
            time.sleep(0.05)
    pid = _read_pid_file(path)
    if not acknowledged and (pid is None or not _pid_alive(pid)):
        return False  # nothing answering and no live pid: no daemon runs
    state = (
        "acknowledged shutdown but is still running"
        if acknowledged
        else f"is not answering its socket (pid {pid} alive)"
    )
    if not force:
        raise DaemonError(
            f"daemon on {path} {state} after {wait_s:g}s; "
            f"escalate with force=True / --force to SIGKILL it"
        )
    if pid is None:
        raise DaemonError(
            f"cannot force-stop the daemon on {path}: no pid file "
            f"({_pid_file(path)}) to SIGKILL"
        )
    try:
        if os.getpgid(pid) == pid:
            os.killpg(pid, signal.SIGKILL)
        else:
            os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    deadline = time.time() + max(wait_s, 1.0)
    while _pid_alive(pid) and time.time() < deadline:
        try:
            os.waitpid(pid, os.WNOHANG)  # reap the zombie if it is our child
        except (ChildProcessError, OSError):
            pass
        time.sleep(0.05)
    if _pid_alive(pid):
        raise DaemonError(f"daemon pid {pid} survived SIGKILL (zombie reaping lag?)")
    for leftover in (path, _pid_file(path), _lock_file(path)):
        try:
            leftover.unlink()
        except OSError:
            pass
    return "forced"
