"""Client side of the warm daemon: the wire protocol and process control.

This module loads only the standard library, so a CLI call routed to a
running daemon never imports the server (:mod:`repro.engine.daemon`), the
executor or the pool.  It holds what both ends share -- the framing, the
protocol constants, :class:`DaemonError`, :func:`default_socket_path` and
the socket's pid and lock files -- plus :class:`DaemonClient` and the
:func:`start_daemon`/:func:`stop_daemon` process helpers.

Protocol -- length-prefixed NDJSON over ``AF_UNIX``.  Each frame is one JSON
object serialized to a single line, preceded by its byte length on its own
line (so consumers can pre-allocate and corrupt streams fail loudly)::

    22\n
    {"op":"status","v":3}\n

Requests (client -> daemon): ``submit`` is the one work op.  Its ``jobs``
field lists root job specs, ``{"kind": job.kind, "config": job.config}``
-- the identity that keys the cache -- from which the daemon rebuilds
``experiment`` and ``fleet-traffic`` jobs, refusing any config field outside
that identity.  It answers with one ``event`` frame per
:class:`~repro.engine.executor.JobEvent` as shards land, then a ``done``
frame carrying ``hits``, ``misses``, ``memory_hits``, ``elapsed_s`` and
``latency`` (the auth-latency histogram recorded while the request ran).
The other ops: ``cancel`` (abort an in-flight request by id), ``metrics``
(Prometheus text exposition of the daemon's telemetry registry),
``dump``/``tail`` (the flight recorder's per-request diagnostic records;
``tail`` can ``follow`` the stream live), ``status``, ``ping``, and
``shutdown``.  Error responses are ``{"type": "error", "message": ...}``.

A client built from edited sources sends its own source fingerprint with
every submit and is refused with a ``stale`` frame, so a long-lived daemon
never serves results computed by old code.  When no daemon is listening on
the socket (``$REPRO_DAEMON_SOCKET`` or the per-user default), the CLI runs
inline in the invoking process, bit-identically.  Until a routed call has
written to stdout, ``busy`` or a dropped connection is retried and then run
inline, and ``stale``/``timeout``/``cancelled``/``error`` run inline at
once; after that, anything but ``done`` fails the call.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, BinaryIO, Iterator

#: Environment override for the daemon socket location.
SOCKET_ENV = "REPRO_DAEMON_SOCKET"

#: Protocol version stamped on every request/response frame.
PROTOCOL_VERSION = 3

#: Frame types that settle a submit stream.
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


class DaemonClient:
    """Client side of the daemon protocol.

    Every exchange reads its replies through one connect-send-read
    generator (:meth:`_frames`).  :meth:`work` submits root job specs;
    :meth:`submit` (experiment ids) and :meth:`fleet` (one fleet traffic
    job config) are thin wrappers over it, and import the job classes only
    when called.  ``timeout`` bounds every read on
    an established stream (a wedged daemon cannot hang the client forever);
    ``connect_timeout`` bounds the initial connect separately so liveness
    probes stay fast.  One-shot requests can opt into jittered retry-backoff
    on transient errors (refused accepts, truncated responses) via
    ``retries``.
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

    def _frames(self, message: dict[str, Any]) -> Iterator[dict[str, Any]]:
        """Send ``message``; yield each reply frame until the daemon closes.

        The connection closes when the daemon ends the stream or the caller
        stops consuming (closing the generator); a connection that fails
        mid-exchange (say, a daemon shutting down) raises
        :class:`DaemonError`.
        """
        try:
            with self._connect() as sock, sock.makefile("rwb") as stream:
                send_frame(stream, {"v": PROTOCOL_VERSION, **message})
                while (frame := recv_frame(stream)) is not None:
                    yield frame
        except OSError as error:
            raise DaemonError(f"daemon connection failed: {error}") from None

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
                response = next(self._frames(message), None)
                if response is None:
                    raise DaemonError("daemon closed the connection without responding")
                return response
            except DaemonError:
                if attempt >= retries:
                    raise
                time.sleep(random.uniform(0, backoff_s * (2 ** attempt)))
                attempt += 1

    def work(
        self,
        jobs: list[dict[str, Any]],
        *,
        shard_size: int | None = None,
        ordered: bool = False,
        fail_fast: bool = True,
        code_version: str | None = None,
        timeout_s: float | None = None,
        request_id: str | None = None,
        trace_id: str | None = None,
        parent_span: str | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Submit root job specs; yield the reply frames through the terminal one.

        Each spec is ``{"kind": job.kind, "config": job.config}`` for an
        ``experiment`` or ``fleet-traffic`` job.  The daemon answers with an
        ``accepted`` frame, one ``event`` frame per engine event, then
        ``done`` (``hits``, ``misses``, ``memory_hits``, ``elapsed_s``, and
        the request's auth-latency histogram ``latency``) -- or a refusal or
        abort (``error``, ``stale``, ``busy``, ``timeout``, ``cancelled``).  A
        stream that ends without a terminal frame raises
        :class:`DaemonError`: the daemon died or dropped the connection.

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
        request = {
            "op": "submit",
            "jobs": list(jobs),
            "shard_size": shard_size,
            "ordered": ordered,
            "fail_fast": fail_fast,
            "code_version": code_version,
            "timeout_s": timeout_s,
            "request_id": request_id,
            "trace_id": trace_id,
            "parent_span": parent_span,
        }
        for frame in self._frames(request):
            yield frame
            if frame.get("type") in TERMINAL_FRAME_TYPES:
                return
        raise DaemonError("daemon stream ended before the done frame")

    def submit(
        self, experiments: list[str], *, quick: bool = True, **options: Any
    ) -> Iterator[dict[str, Any]]:
        """Run registry experiments by id; ``options`` and frames as :meth:`work`."""
        from repro.engine.jobs import ExperimentJob

        jobs = [ExperimentJob(eid, quick=quick) for eid in experiments]
        return self.work([{"kind": job.kind, "config": job.config} for job in jobs], **options)

    def fleet(self, job_config: dict[str, Any], **options: Any) -> Iterator[dict[str, Any]]:
        """Replay one fleet traffic job config; ``options`` and frames as
        :meth:`work`."""
        from repro.engine.jobs import FleetTrafficJob

        return self.work([{"kind": FleetTrafficJob.kind, "config": dict(job_config)}], **options)

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

        The stream runs until the daemon goes away or the caller stops
        consuming and closes the generator; ``keepalive`` frames from the
        daemon are filtered out here.
        """
        for frame in self._frames({"op": "tail", "count": count, "follow": True}):
            if frame.get("type") == "tail":
                yield from frame.get("records", [])
            elif frame.get("type") == "record":
                yield frame["record"]
            elif frame.get("type") == "error":
                raise DaemonError(str(frame.get("message")))

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
    import subprocess  # only this helper spawns a process

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
