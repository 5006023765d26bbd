"""Daemon flight recorder -- a bounded ring of per-request diagnostics.

The daemon keeps the last *N* completed requests in memory so "what happened
to request X?" is answerable after the fact without log scraping: for each
request it records the frames sent, queue wait, run/total phase timings,
outcome (``done``/``busy``/``disconnected``/``error``), warm-vs-cold
classification, cache hit counts, and the retry/rebuild/fault counter
deltas the request incurred.  Records cross a slow-request threshold are
counted separately and the most recent error is retained (type + message +
timestamp) so ``daemon status`` health probes see failures without tailing
anything.

Cost model (enforced by tests): **zero allocation while the daemon is
idle** -- nothing runs until a work request arrives -- and **O(ring)
memory always**: completed records land in a ``deque(maxlen=capacity)``,
so the recorder can never grow past its configured capacity no matter how
long the daemon lives.  The capacity is at least 1, so every work request
the daemon accepts leaves a record.

Completed records are stored as plain JSON-safe dicts; the daemon's
``dump`` op returns the whole ring and ``tail`` the newest records, with a
condition-variable cursor (:meth:`FlightRecorder.wait_for_newer`) backing
``tail --follow`` streaming.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any


class RequestRecord:
    """Mutable per-request diagnostic record, finalized into the ring.

    The daemon handler creates one per work request (under the request id
    the daemon assigned it), mutates it as the request progresses
    (frame counts, queue wait, cache totals, outcome), and hands it back to
    :meth:`FlightRecorder.complete` in a ``finally`` block so every exit
    path -- including handler crashes and client disconnects -- leaves a
    record behind.
    """

    __slots__ = (
        "seq",
        "request_id",
        "op",
        "trace_id",
        "ts",
        "queue_wait_s",
        "run_s",
        "duration_s",
        "outcome",
        "warm",
        "hits",
        "misses",
        "memory_hits",
        "jobs",
        "failed_jobs",
        "frames",
        "retries",
        "rebuilds",
        "faults",
        "slow",
        "error",
        "_t0",
    )

    def __init__(self, request_id: str, op: str, trace_id: str | None = None):
        self.seq = 0
        self.request_id = request_id
        self.op = op
        self.trace_id = trace_id
        self.ts = time.time()
        self.queue_wait_s = 0.0
        self.run_s = 0.0
        self.duration_s = 0.0
        self.outcome = "unknown"
        self.warm = False
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.jobs = 0
        self.failed_jobs = 0
        self.frames: dict[str, int] = {}
        self.retries = 0
        self.rebuilds = 0
        self.faults = 0
        self.slow = False
        self.error: dict[str, str] | None = None
        self._t0 = time.perf_counter()

    def count_frame(self, frame_type: str) -> None:
        """Tally one protocol frame actually sent to the client."""
        self.frames[frame_type] = self.frames.get(frame_type, 0) + 1

    def fail(self, error_type: str, message: str) -> None:
        """Attach the (first) error this request surfaced."""
        if self.error is None:
            self.error = {"type": error_type, "message": message}

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe snapshot -- one NDJSON line of a ``dump``."""
        return {
            "seq": self.seq,
            "request_id": self.request_id,
            "op": self.op,
            "trace_id": self.trace_id,
            "ts": round(self.ts, 6),
            "queue_wait_s": round(self.queue_wait_s, 9),
            "run_s": round(self.run_s, 9),
            "duration_s": round(self.duration_s, 9),
            "outcome": self.outcome,
            "warm": self.warm,
            "hits": self.hits,
            "misses": self.misses,
            "memory_hits": self.memory_hits,
            "jobs": self.jobs,
            "failed_jobs": self.failed_jobs,
            "frames": dict(self.frames),
            "retries": self.retries,
            "rebuilds": self.rebuilds,
            "faults": self.faults,
            "slow": self.slow,
            "error": self.error,
        }


class FlightRecorder:
    """Thread-safe bounded ring buffer of completed :class:`RequestRecord`\\ s."""

    def __init__(self, capacity: int = 256, slow_threshold_s: float = 1.0):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.slow_threshold_s = float(slow_threshold_s)
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self._cond = threading.Condition()
        self._seq = 0
        self._total = 0
        self._slow = 0
        self._last_error: dict[str, Any] | None = None

    def begin(self, request_id: str, op: str, trace_id: str | None = None) -> RequestRecord:
        """Open a record for a new work request."""
        return RequestRecord(request_id, op, trace_id)

    def complete(self, record: RequestRecord) -> dict[str, Any] | None:
        """Finalize ``record`` into the ring; returns its stored snapshot.

        Idempotent: a record that already completed (``seq`` assigned) is
        left alone, so the daemon can complete eagerly before the terminal
        frame goes out *and* unconditionally in a ``finally`` safety net.
        """
        if record.seq:
            return None
        record.duration_s = time.perf_counter() - record._t0
        record.slow = record.duration_s >= self.slow_threshold_s
        with self._cond:
            self._seq += 1
            record.seq = self._seq
            self._total += 1
            if record.slow:
                self._slow += 1
            if record.error is not None:
                self._last_error = {
                    "type": record.error["type"],
                    "message": record.error["message"],
                    "ts": time.time(),
                }
            snapshot = record.to_dict()
            self._ring.append(snapshot)
            self._cond.notify_all()
        return snapshot

    def note_error(self, error_type: str, message: str) -> None:
        """Record an error not tied to any request (handler crash paths)."""
        with self._cond:
            self._last_error = {"type": error_type, "message": message, "ts": time.time()}

    def records(self, last: int | None = None) -> list[dict[str, Any]]:
        """Snapshot of the ring, oldest first (``last`` newest when given)."""
        with self._cond:
            records = list(self._ring)
        if last is not None and last >= 0:
            records = records[len(records) - min(last, len(records)):]
        return records

    def latest_seq(self) -> int:
        with self._cond:
            return self._seq

    def wait_for_newer(self, seq: int, timeout: float = 1.0) -> list[dict[str, Any]]:
        """Records with ``seq`` greater than the cursor, waiting up to ``timeout``.

        The ``tail --follow`` loop: block until a request completes (or the
        timeout lapses -- callers re-poll so disconnects are noticed), then
        return everything newer than the caller's cursor still in the ring.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._seq <= seq:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(remaining):
                    return []
            return [record for record in self._ring if record["seq"] > seq]

    def status(self) -> dict[str, Any]:
        """Health summary merged into the daemon ``status`` payload."""
        with self._cond:
            last_error = None
            if self._last_error is not None:
                last_error = {
                    "type": self._last_error["type"],
                    "message": self._last_error["message"],
                    "age_s": round(max(0.0, time.time() - self._last_error["ts"]), 3),
                }
            return {
                "capacity": self.capacity,
                "occupancy": len(self._ring),
                "recorded_total": self._total,
                "slow_requests": self._slow,
                "slow_threshold_s": self.slow_threshold_s,
                "last_error": last_error,
            }

    def dump(self) -> dict[str, Any]:
        """Full ring + summary -- the payload of the daemon ``dump`` op."""
        with self._cond:
            records = list(self._ring)
            return {
                "capacity": self.capacity,
                "slow_threshold_s": self.slow_threshold_s,
                "recorded_total": self._total,
                "slow_requests": self._slow,
                "dropped": self._total - len(records),
                "records": records,
            }
