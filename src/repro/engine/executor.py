"""Event-driven serial and process-pool execution of engine jobs.

:func:`iter_jobs` is the execution core: a generator that schedules jobs,
resolves cache hits in the parent process, executes the misses either inline
(``workers <= 1``) or on a process pool, stores fresh results back into the
cache, and yields a :class:`JobEvent` for every state transition --
``scheduled``, ``started``, ``cached``, ``finished``, ``failed`` -- the
moment it happens, in completion order.  It is the leaf stage of
:func:`repro.engine.sharding.iter_sharded`, the engine's one stream, which
:func:`~repro.engine.sharding.run_sharded` drains into submission-order
outcomes.  The first failure ends a stream: queued jobs are cancelled while
in-flight jobs drain into the cache.

Every pool is a :class:`PoolSupervisor`: a killed worker breaks a
``ProcessPoolExecutor`` permanently, so the supervisor rebuilds it and
:func:`iter_jobs` retries the interrupted jobs (pure functions of their
config, so retried results are bit-identical) with exponential backoff up
to the supervisor's attempt budget.  A stream that owns its pool allows one
attempt; the daemon passes in its long-lived supervisor, which serves many
streams without spin-up cost and retries.  A ``cancel``
:class:`threading.Event` (the daemon sets it when a client goes away) ends
a stream early: queued jobs are cancelled, in-flight jobs drain into the
cache, and the stream ends without terminal events for the abandoned work.
"""

from __future__ import annotations

import threading
import time
import traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro import telemetry
from repro.engine import faults
from repro.engine.cache import ResultCache
from repro.engine.jobs import (
    CACHED,
    FAILED,
    FINISHED,
    SCHEDULED,
    STARTED,
    TERMINAL_EVENTS,
    Job,
)


@dataclass
class JobOutcome:
    """Result of attempting one job."""

    job: Job
    value: Any = None
    duration_s: float = 0.0
    cached: bool = False
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class JobEvent:
    """One state transition of one job inside an event stream.

    ``index``/``total`` locate the job in its scheduling cohort (the leaf
    list for sharded runs) and are ``None`` for merged parent jobs, which
    complete outside any cohort.  Terminal events carry the full
    :class:`JobOutcome`; shard coordinates come from the job itself.
    """

    type: str
    job: Job
    index: int | None = None
    total: int | None = None
    outcome: JobOutcome | None = None

    @property
    def terminal(self) -> bool:
        return self.type in TERMINAL_EVENTS

    @property
    def job_id(self) -> str:
        return self.job.job_id

    @property
    def duration_s(self) -> float:
        return self.outcome.duration_s if self.outcome is not None else 0.0

    @property
    def shard(self) -> tuple[int, int] | None:
        """``(start, stop)`` coordinates for shard jobs, else ``None``."""
        return self.job.shard_range()

    def to_dict(self, *, include_value: bool = False) -> dict[str, Any]:
        """JSON-safe event record (the ``--stream`` / daemon wire format).

        With ``include_value`` a successful terminal event additionally
        carries the job's encoded result payload.
        """
        shard = self.shard
        payload: dict[str, Any] = {
            "event": self.type,
            "job": self.job.job_id,
            "kind": self.job.kind,
            "index": self.index,
            "total": self.total,
            "duration_s": round(self.duration_s, 6),
            "cached": bool(self.outcome.cached) if self.outcome is not None else False,
            "error": self.outcome.error if self.outcome is not None else None,
            "shard": list(shard) if shard is not None else None,
        }
        if include_value and self.outcome is not None and self.outcome.ok:
            payload["value"] = self.job.encode(self.outcome.value)
        return payload


class EngineError(RuntimeError):
    """One or more jobs failed; carries every failed outcome."""

    def __init__(self, failures: Sequence[JobOutcome]):
        self.failures = list(failures)
        ids = ", ".join(outcome.job.job_id for outcome in self.failures)
        super().__init__(f"{len(self.failures)} job(s) failed: {ids}")

    def render(self) -> str:
        """Full report with one traceback per failed job."""
        sections = [str(self)]
        for outcome in self.failures:
            sections.append(f"--- {outcome.job.job_id} ---\n{outcome.error}")
        return "\n".join(sections)


class PoolSupervisor:
    """Self-healing ``ProcessPoolExecutor``: rebuilds after worker crashes.

    One killed worker marks the whole executor broken -- every pending
    submit and future raises :class:`BrokenExecutor` forever.  The
    supervisor heals at submit time: a submit that lands on a broken pool
    shuts it down, forks a replacement, and retries, under a lock that
    dedupes concurrent healers (only the thread holding the *same* broken
    instance rebuilds).  :func:`iter_jobs` consults ``max_attempts`` /
    :meth:`backoff_delay` to bound crash retries per job.
    """

    def __init__(
        self,
        workers: int,
        *,
        max_attempts: int = 3,
        backoff_s: float = 0.1,
        backoff_cap_s: float = 2.0,
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if backoff_s < 0 or backoff_cap_s < 0:
            raise ValueError("backoff delays must be non-negative")
        self.workers = max(1, int(workers))
        self.max_attempts = max_attempts
        self.backoff_s = backoff_s
        self.backoff_cap_s = backoff_cap_s
        self._lock = threading.Lock()
        self._pool = ProcessPoolExecutor(max_workers=self.workers)
        self.rebuilds = 0

    def submit(self, fn, /, *args, **kwargs):
        while True:
            pool = self._pool
            try:
                return pool.submit(fn, *args, **kwargs)
            except BrokenExecutor:
                self._heal(pool)

    def _heal(self, broken: ProcessPoolExecutor) -> None:
        with self._lock:
            if self._pool is not broken:
                return  # another stream already replaced it
            try:
                broken.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self.rebuilds += 1
        telemetry.registry().counter(telemetry.ENGINE_POOL_REBUILDS).inc()

    def backoff_delay(self, attempt: int) -> float:
        """Exponential backoff before retry number ``attempt`` (1-based)."""
        return min(self.backoff_cap_s, self.backoff_s * (2 ** max(0, attempt - 1)))

    def warm(self) -> None:
        """Fork all workers now (first real submit pays no spin-up)."""
        for _ in self._pool.map(_warm_probe, range(self.workers)):
            pass

    def shutdown(self, wait: bool = False, cancel_futures: bool = True) -> None:
        self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)


def _warm_probe(index: int) -> int:
    """No-op picklable task used to pre-fork supervisor workers."""
    return index


def _span_labels(job: Job) -> dict[str, Any]:
    """JSON-safe span labels locating one job."""
    labels: dict[str, Any] = {"job": job.job_id, "job_kind": job.kind}
    shard = job.shard_range()
    if shard is not None:
        labels["shard"] = list(shard)
    return labels


def _run(job: Job, parent: str | None = None, **labels: Any) -> tuple[Any, float]:
    """Run one job under a ``job.run`` span and time it into
    ``engine_job_run_seconds``: the one runner behind inline and pool
    execution.  Untraced, the span is the shared no-op."""
    with telemetry.span(
        "job.run", kind="engine", parent=parent, **_span_labels(job), **labels
    ):
        start = time.perf_counter()
        value = job.run()
        duration = time.perf_counter() - start
    telemetry.registry().histogram(telemetry.ENGINE_RUN_SECONDS).observe(duration)
    return value, duration


def _pool_run(
    job: Job, context: "tuple[str | None, float, bool, str | None]"
) -> tuple[Any, float, list[dict[str, Any]], dict[str, Any]]:
    """The pool-worker entry point: ``(value, duration, spans, delta)``.

    Also the fault site for injected worker kills, which must never fire in
    the submitting process.  ``context`` is ``(parent_span, submitted_ts,
    trace, trace_id)``: the worker records queue wait, parents its span onto
    the submitting span under the request's trace id (one trace tree across
    the pool), and returns its registry's per-job metric delta -- reset
    before the job, drained after -- which the parent folds in exactly with
    :meth:`repro.telemetry.MetricsRegistry.merge_snapshot`.  The span buffer
    is drained after every job, so no record outlives its job.
    """
    faults.injector().on_job_start()
    parent, submitted_ts, trace, trace_id = context
    if trace and not telemetry.tracing_active():
        telemetry.enable_tracing(telemetry.SpanBuffer())
    telemetry.set_trace_id(trace_id)
    reg = telemetry.registry()
    # A forked worker inherits the submitting process's registry contents;
    # start this job's delta from empty.
    reg.reset()
    queue_wait = max(0.0, time.time() - submitted_ts)
    reg.histogram(telemetry.ENGINE_QUEUE_WAIT_SECONDS).observe(queue_wait)
    value, duration = _run(job, parent, queue_wait_s=round(queue_wait, 6))
    return value, duration, telemetry.drain_worker_spans(), reg.drain()


def iter_jobs(
    jobs: Sequence[Job],
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    pool: PoolSupervisor | None = None,
    cancel: threading.Event | None = None,
) -> Iterator[JobEvent]:
    """Yield a :class:`JobEvent` per state transition, in completion order.

    Every job gets a ``scheduled`` event up front (cache hits settle
    immediately with ``cached``), a ``started`` event when it is handed to
    execution -- inline runs emit it as the job begins; pool runs emit it at
    submission, so a queued job later cancelled by a failure shows
    ``started`` with no terminal event -- and at most one terminal
    ``finished``/``failed`` event as it completes.  ``workers <= 1`` or a
    single miss runs inline; otherwise misses fan out across a
    ``PoolSupervisor(min(workers, misses), max_attempts=1)`` that this
    stream owns and shuts down.  Passing ``pool`` reuses an external
    supervisor (never shut down here), so a warm daemon pool serves many
    streams.

    The first failure cancels queued jobs -- cancelled jobs emit *no*
    terminal event -- while in-flight jobs drain to completion so their
    results still land in the cache.  The stream simply ends after the
    drain; raising is the caller's policy
    (:func:`~repro.engine.sharding.run_sharded`).

    A job interrupted by a worker crash (``BrokenExecutor``) is resubmitted
    to the healed pool after exponential backoff, up to the supervisor's
    ``max_attempts`` total attempts; only then does it settle as ``failed``.
    Retries emit no extra ``started`` events and other jobs are unaffected.

    A set ``cancel`` event (checked between inline jobs and before every
    pool wait round) ends the stream early with the same drain semantics as
    a failure: queued futures are cancelled and emit nothing, in-flight
    results still land in the cache.  It is set only while the stream is
    suspended at a ``yield``, so no wait needs a timeout to notice it.
    """
    jobs = list(jobs)
    total = len(jobs)
    reg = telemetry.registry()
    reg.counter(telemetry.ENGINE_JOBS_SCHEDULED).inc(total)

    pending: list[int] = []
    for index, job in enumerate(jobs):
        yield JobEvent(SCHEDULED, job, index, total)
        value = cache.get(job) if cache is not None else None
        if value is not None:
            reg.counter(telemetry.ENGINE_JOBS_CACHED).inc()
            outcome = JobOutcome(job=job, value=value, cached=True)
            yield JobEvent(CACHED, job, index, total, outcome)
        else:
            pending.append(index)
    if not pending:
        return

    if pool is None and (workers <= 1 or len(pending) <= 1):
        for index in pending:
            if cancel is not None and cancel.is_set():
                return
            job = jobs[index]
            yield JobEvent(STARTED, job, index, total)
            outcome = _run_one(job, cache)
            reg.counter(
                telemetry.ENGINE_JOBS_FINISHED if outcome.ok
                else telemetry.ENGINE_JOBS_FAILED
            ).inc()
            kind = FINISHED if outcome.ok else FAILED
            yield JobEvent(kind, job, index, total, outcome)
            if not outcome.ok:
                return
        return

    supervisor = (
        pool if pool is not None
        else PoolSupervisor(min(workers, len(pending)), max_attempts=1)
    )
    try:
        futures: dict[Any, int] = {}
        attempts: dict[int, int] = {}
        parent_span = telemetry.current_span_id()
        trace = telemetry.tracing_active()
        trace_id = telemetry.current_trace_id()

        def _submit(index: int) -> None:
            attempts[index] = attempts.get(index, 0) + 1
            context = (parent_span, time.time(), trace, trace_id)
            futures[supervisor.submit(_pool_run, jobs[index], context)] = index

        def _harvest(future, index: int) -> JobEvent:
            """Fold one successful future into the cache; terminal event."""
            value, duration, spans, delta = future.result()
            telemetry.write_records(spans)
            reg.merge_snapshot(delta)
            reg.counter(telemetry.ENGINE_JOBS_FINISHED).inc()
            if cache is not None:
                cache.put(jobs[index], value)
            outcome = JobOutcome(job=jobs[index], value=value, duration_s=duration)
            return JobEvent(FINISHED, jobs[index], index, total, outcome)

        for index in pending:
            _submit(index)
            yield JobEvent(STARTED, jobs[index], index, total)
        failed = False
        while futures:
            if cancel is not None and cancel.is_set():
                # Same drain contract as a failure: queued work is cancelled
                # silently, in-flight results still land in the cache (a
                # client that reconnects reuses them); crash casualties of
                # the abandoned request are simply dropped.
                for future in futures:
                    future.cancel()
                wait(list(futures))
                for future, index in futures.items():
                    if future.cancelled():
                        continue
                    try:
                        yield _harvest(future, index)
                    except Exception:
                        continue
                return
            completed, _ = wait(futures, return_when=FIRST_COMPLETED)
            slept_this_round = False
            for future in completed:
                index = futures.pop(future)
                job = jobs[index]
                if future.cancelled():
                    continue
                try:
                    yield _harvest(future, index)
                    continue
                except BrokenExecutor:
                    # The worker running (or queued to run) this job was
                    # killed; the pool is broken.  The resubmit below heals
                    # it and the retried job returns a bit-identical result
                    # (jobs are pure).
                    if attempts[index] < supervisor.max_attempts:
                        reg.counter(telemetry.ENGINE_JOB_RETRIES).inc()
                        if not slept_this_round:
                            time.sleep(supervisor.backoff_delay(attempts[index]))
                            slept_this_round = True
                        _submit(index)
                        continue
                    failed = True
                    reg.counter(telemetry.ENGINE_JOBS_FAILED).inc()
                    error = (
                        f"worker crashed while running this job "
                        f"(gave up after {attempts[index]} attempt(s))\n"
                        + traceback.format_exc()
                    )
                    outcome = JobOutcome(job=job, error=error)
                    yield JobEvent(FAILED, job, index, total, outcome)
                    continue
                except Exception:
                    failed = True
                    reg.counter(telemetry.ENGINE_JOBS_FAILED).inc()
                    outcome = JobOutcome(job=job, error=traceback.format_exc())
                    yield JobEvent(FAILED, job, index, total, outcome)
                    continue
            if failed:
                # Queued (not-yet-started) jobs are cancelled but in-flight
                # jobs drain to completion so their results still land in the
                # cache -- a retry after fixing the failure reuses them.
                for future in futures:
                    future.cancel()
    finally:
        if pool is None:
            supervisor.shutdown(wait=True, cancel_futures=False)


def _run_one(job: Job, cache: ResultCache | None) -> JobOutcome:
    """Execute one job inline, storing the result in the cache on success."""
    try:
        value, duration = _run(job)
    except Exception:
        return JobOutcome(job=job, error=traceback.format_exc())
    if cache is not None:
        cache.put(job, value)
    return JobOutcome(job=job, value=value, duration_s=duration)
