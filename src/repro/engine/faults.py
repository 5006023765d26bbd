"""Deterministic fault injection for chaos-testing the engine and daemon.

A *fault plan* is a frozen description of which faults to fire and when,
parsed once from the ``$REPRO_FAULTS`` environment variable (a JSON object)
or constructed directly in tests.  Every fault site fires on a fixed
schedule of ordinals and budgets, so a chaos run is reproducible: the same
plan against the same workload fires the same faults at the same sites.
The injector draws no random numbers, so it cannot perturb experiment
output; recovery paths are expected to converge on byte-identical results
(jobs are pure, corrupt cache blobs are evicted as misses and recomputed).

Fault sites wired through the codebase:

* **kill worker on the Nth job** (``kill_worker_on_job``) -- the pool-worker
  entry points call :meth:`FaultInjector.on_job_start`; the worker claiming
  the Nth *global* job ordinal calls ``os._exit``, breaking the process pool
  so :class:`~repro.engine.executor.PoolSupervisor` recovery is exercised.
  Job ordinals are claimed via ``O_EXCL`` token files in ``state_dir``
  (required for this fault), which makes the ordinal global across all pool
  workers and across pool rebuilds -- the retried job draws a *new* ordinal,
  so a kill with budget 1 fires exactly once per chaos run.
* **drop a connection after K frames** (``drop_connection_after_frames``) --
  the daemon's frame writer asks :meth:`on_frame_send` before each frame; a
  connection that has already delivered K frames is torn down mid-stream
  (first ``drop_budget`` qualifying connections only), exercising the
  client-gone reap and the CLI retry path.
* **corrupt a cache blob** (``corrupt_cache_store``) -- the Nth
  :meth:`~repro.engine.cache.ResultCache.put` in the process garbles the
  blob on disk after the atomic rename; the next ``get`` must evict it as a
  miss and the engine recomputes, bit-identically.

Every fire is recorded in :attr:`FaultInjector.fired` and counted under the
``faults_injected_total`` telemetry counter when collection is enabled.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import telemetry

#: Environment variable holding the JSON fault plan.
FAULTS_ENV = "REPRO_FAULTS"

#: Exit code used by the injected worker kill (distinct from real crashes).
KILLED_WORKER_EXIT = 75


@dataclass(frozen=True)
class FaultPlan:
    """Frozen, validated description of one chaos run's faults."""

    state_dir: str | None = None
    kill_worker_on_job: int | None = None
    kill_budget: int = 1
    drop_connection_after_frames: int | None = None
    drop_budget: int = 1
    corrupt_cache_store: int | None = None
    corrupt_budget: int = 1

    def __post_init__(self) -> None:
        for name in ("kill_worker_on_job", "drop_connection_after_frames",
                     "corrupt_cache_store"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or value < 1):
                raise ValueError(f"{name} must be a positive int, got {value!r}")
        for name in ("kill_budget", "drop_budget", "corrupt_budget"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative int, got {value!r}")
        if self.kill_worker_on_job is not None and not self.state_dir:
            # Without shared state each rebuilt worker would count jobs from
            # zero and kill itself again at the same ordinal -- an unbounded
            # crash loop instead of a deterministic one-shot fault.
            raise ValueError("kill_worker_on_job requires state_dir")

    @classmethod
    def from_dict(cls, spec: dict[str, Any]) -> "FaultPlan":
        unknown = set(spec) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown fault plan key(s): {', '.join(sorted(unknown))}")
        return cls(**spec)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """Plan from ``$REPRO_FAULTS``, or ``None`` when unset/empty."""
        raw = os.environ.get(FAULTS_ENV, "").strip()
        if not raw:
            return None
        try:
            spec = json.loads(raw)
        except ValueError as error:
            raise ValueError(f"${FAULTS_ENV} is not valid JSON: {error}") from None
        if not isinstance(spec, dict):
            raise ValueError(f"${FAULTS_ENV} must be a JSON object")
        return cls.from_dict(spec)


class FaultInjector:
    """Runtime state for one process's fault plan (``plan=None`` no-ops).

    The cache-store ordinal is process-local and lock-protected; the
    worker-kill ordinal is global across processes via ``O_EXCL`` token
    files in ``plan.state_dir``.
    """

    def __init__(self, plan: FaultPlan | None):
        self.plan = plan
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        #: site name -> number of times that fault actually fired.
        self.fired: dict[str, int] = {}

    @property
    def enabled(self) -> bool:
        return self.plan is not None

    def _next(self, site: str) -> int:
        """Claim the next 1-based process-local ordinal for ``site``."""
        with self._lock:
            self._counts[site] = self._counts.get(site, 0) + 1
            return self._counts[site]

    def _fire(self, site: str) -> None:
        with self._lock:
            self.fired[site] = self.fired.get(site, 0) + 1
        if telemetry.collection_enabled():
            telemetry.registry().counter(telemetry.FAULTS_INJECTED).inc()

    def _claim_token(self, name: str, budget: int) -> bool:
        """Claim one of ``budget`` cross-process tokens in ``state_dir``."""
        assert self.plan is not None and self.plan.state_dir
        state = Path(self.plan.state_dir)
        state.mkdir(parents=True, exist_ok=True)
        for slot in range(budget):
            try:
                fd = os.open(state / f"{name}.{slot}", os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            return True
        return False

    def _claim_ordinal(self, site: str) -> int:
        """Claim the next 1-based *global* ordinal for ``site`` (state_dir)."""
        assert self.plan is not None and self.plan.state_dir
        state = Path(self.plan.state_dir)
        state.mkdir(parents=True, exist_ok=True)
        with self._lock:
            ordinal = self._counts.get(f"global:{site}", 0)
        while True:
            ordinal += 1
            try:
                fd = os.open(
                    state / f"{site}.{ordinal}", os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                continue
            os.write(fd, str(os.getpid()).encode())
            os.close(fd)
            with self._lock:
                self._counts[f"global:{site}"] = ordinal
            return ordinal

    # --- fault sites -----------------------------------------------------

    def on_job_start(self) -> None:
        """Pool-worker entry: kill this worker if it drew the fatal ordinal."""
        plan = self.plan
        if plan is None or plan.kill_worker_on_job is None:
            return
        ordinal = self._claim_ordinal("job")
        if ordinal == plan.kill_worker_on_job and self._claim_token(
            "kill", plan.kill_budget
        ):
            self._fire("kill_worker")
            os._exit(KILLED_WORKER_EXIT)

    def on_frame_send(self, frames_sent: int) -> bool:
        """Applied before each daemon frame send; ``True`` = drop connection.

        ``frames_sent`` is how many frames this connection has already
        delivered.
        """
        plan = self.plan
        threshold = None if plan is None else plan.drop_connection_after_frames
        if threshold is None or frames_sent < threshold:
            return False
        with self._lock:
            if self.fired.get("drop_connection", 0) >= plan.drop_budget:
                return False
        self._fire("drop_connection")
        return True

    def on_cache_store(self, path: Path) -> None:
        """Garble the Nth stored cache blob in place (post-rename)."""
        plan = self.plan
        if plan is None or plan.corrupt_cache_store is None:
            return
        ordinal = self._next("cache_store")
        if ordinal != plan.corrupt_cache_store:
            return
        with self._lock:
            if self.fired.get("corrupt_cache_blob", 0) >= plan.corrupt_budget:
                return
        try:
            size = path.stat().st_size
            with open(path, "r+b") as blob:
                blob.seek(size // 2)
                blob.write(b"\xff\xfe CHAOS \xfe\xff")
        except OSError:
            return
        self._fire("corrupt_cache_blob")


#: Process-wide injector, keyed by pid so forked pool workers re-parse the
#: environment instead of inheriting the parent's (possibly stale) instance.
_ACTIVE: tuple[int, FaultInjector] | None = None
_ACTIVE_LOCK = threading.Lock()


def injector() -> FaultInjector:
    """The process's fault injector (a no-op instance when no plan is set)."""
    global _ACTIVE
    pid = os.getpid()
    with _ACTIVE_LOCK:
        if _ACTIVE is None or _ACTIVE[0] != pid:
            _ACTIVE = (pid, FaultInjector(FaultPlan.from_env()))
        return _ACTIVE[1]


def set_injector(instance: FaultInjector | None) -> None:
    """Install (or with ``None`` clear) the process injector -- test hook."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        _ACTIVE = None if instance is None else (os.getpid(), instance)
