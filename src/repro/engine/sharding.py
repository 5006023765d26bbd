"""Sharded execution: split jobs, schedule every shard on one pool, merge.

:func:`iter_sharded` is the intra-job parallelism core.  It expands each
:class:`~repro.engine.jobs.ShardedJob` recursively (an experiment into its
sweep points / pair batches, each of those into sample or pair ranges), runs
the resulting leaves through the ordinary
:func:`~repro.engine.executor.iter_jobs` stream -- so all shards of all jobs
share one process pool and each shard hits the content-addressed cache
individually -- and keeps *incremental merge state per parent job*: the
moment a parent's last outstanding shard lands, its children merge and the
parent's ``finished`` event is emitted, in completion order, with no global
barrier.  ``ordered=True`` gates top-level completion events back into
submission order for deterministic streaming output.

:func:`run_sharded` drains the stream and returns one merged
:class:`~repro.engine.executor.JobOutcome` per submitted job, in submission
order -- the original call-and-wait contract.

Because every leaf owns a partition-independent RNG stream, merged outcomes
are bit-identical to a serial ``run()`` for every ``shard_size`` and worker
count.  ``shard_size`` is therefore *not* part of any cache key: it only
decides how the same deterministic work is scheduled.

Cache interaction:

* a job already cached at any level short-circuits its whole subtree (and
  settles with a ``cached`` event as soon as expansion sees it);
* fresh leaf results are cached by the executor as usual;
* merged intermediate and top-level results are written back too, so a warm
  re-run is served without touching a single shard -- while a re-run with
  *more* samples misses only the parents and the new tail shards.
"""

from __future__ import annotations

import time
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro import telemetry
from repro.engine.cache import ResultCache
from repro.engine.executor import (
    CancelToken,
    JobEvent,
    JobOutcome,
    PoolSupervisor,
    ProgressFn,
    EngineError,
    _active_registry,
    iter_jobs,
)
from repro.engine.jobs import CACHED, FAILED, FINISHED, Job, ShardedJob


@dataclass
class _Node:
    """One job in the expansion tree of a sharded run."""

    job: Job
    children: "list[_Node]" = field(default_factory=list)
    outcome: JobOutcome | None = None  # set for cache hits and settled jobs


def _expand(job: Job, shard_size: int | None, cache: ResultCache | None) -> _Node:
    node = _Node(job)
    subs = (
        job.shard_jobs(shard_size)
        if shard_size is not None and isinstance(job, ShardedJob)
        else None
    )
    if not subs:
        return node  # leaf: executed (or cache-served) by iter_jobs
    cached = cache.get(job) if cache is not None else None
    if cached is not None:
        node.outcome = JobOutcome(job=job, value=cached, cached=True)
        return node
    node.children = [_expand(sub, shard_size, cache) for sub in subs]
    return node


def _leaves(node: _Node, out: "list[_Node]") -> None:
    if node.outcome is not None:
        return
    if not node.children:
        out.append(node)
        return
    for child in node.children:
        _leaves(child, out)


def _merge_outcome(node: _Node, cache: ResultCache | None) -> JobOutcome:
    """Fold the (fully settled) children of ``node`` into its own outcome."""
    child_outcomes = [child.outcome for child in node.children]
    failures = [outcome for outcome in child_outcomes if not outcome.ok]
    if failures:  # only reachable with fail_fast=False
        errors = "\n".join(
            f"[{outcome.job.job_id}] {outcome.error}" for outcome in failures
        )
        return JobOutcome(job=node.job, error=errors)
    with telemetry.span(
        "job.merge",
        kind="engine",
        job=node.job.job_id,
        job_kind=node.job.kind,
        children=len(child_outcomes),
    ):
        start = time.perf_counter()
        value = node.job.merge([outcome.value for outcome in child_outcomes])
        elapsed = time.perf_counter() - start
    reg = _active_registry()
    if reg is not None:
        reg.counter(telemetry.ENGINE_MERGES).inc()
        reg.histogram(telemetry.ENGINE_MERGE_SECONDS).observe(elapsed)
    if cache is not None:
        cache.put(node.job, value)
    return JobOutcome(
        job=node.job,
        value=value,
        duration_s=sum(outcome.duration_s for outcome in child_outcomes),
        cached=all(outcome.cached for outcome in child_outcomes),
    )


def _propagate(
    node: _Node,
    parents: dict[int, _Node],
    remaining: dict[int, int],
    cache: ResultCache | None,
) -> Iterator[JobEvent]:
    """Walk upward from a freshly settled node, merging every parent whose
    last outstanding child just landed and emitting its terminal event."""
    current = node
    while True:
        parent = parents.get(id(current))
        if parent is None:
            return
        remaining[id(parent)] -= 1
        if remaining[id(parent)] > 0:
            return
        outcome = _merge_outcome(parent, cache)
        parent.outcome = outcome
        yield JobEvent(FINISHED if outcome.ok else FAILED, parent.job, outcome=outcome)
        current = parent


def _ordered_gate(
    events: Iterator[JobEvent], roots: Sequence[Job]
) -> Iterator[JobEvent]:
    """Re-emit top-level terminal events in submission order.

    Non-root events (leaves, intermediate merges) flow through untouched in
    completion order; each root's settling event is held until every earlier
    root has settled.  Roots that never settle (fail-fast cancellations)
    leave gaps, so whatever is still buffered flushes, in order, at the end.
    """
    position = {id(job): index for index, job in enumerate(roots)}
    ready: dict[int, JobEvent] = {}
    next_index = 0
    for event in events:
        if event.terminal and id(event.job) in position:
            ready[position[id(event.job)]] = event
            while next_index in ready:
                yield ready.pop(next_index)
                next_index += 1
        else:
            yield event
    for index in sorted(ready):
        yield ready[index]


def iter_sharded(
    jobs: Sequence[Job],
    *,
    shard_size: int | None = None,
    workers: int = 1,
    cache: ResultCache | None = None,
    fail_fast: bool = True,
    ordered: bool = False,
    pool: "Executor | PoolSupervisor | None" = None,
    cancel: CancelToken | None = None,
) -> Iterator[JobEvent]:
    """Stream :class:`JobEvent` for a sharded run, merging incrementally.

    Leaf events (``scheduled``/``started``/``cached``/``finished``/
    ``failed``) carry leaf-cohort ``index``/``total``; a parent job's
    ``finished`` event -- emitted the moment its last shard lands, with no
    barrier on sibling jobs -- carries ``index=None``.  Jobs cached at any
    level settle with a ``cached`` event during expansion.  ``ordered=True``
    holds top-level terminal events back into submission order (deterministic
    output); everything else still streams in completion order.

    ``shard_size=None`` expands every job to a leaf with no children, so
    the run is exactly :func:`~repro.engine.executor.iter_jobs` over the
    jobs themselves.  A ``cancel`` token cancels the underlying leaf stream;
    parents whose shards were abandoned never merge and emit no terminal
    event.
    """
    jobs = list(jobs)
    if shard_size is not None and shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")

    roots = [_expand(job, shard_size, cache) for job in jobs]

    def stream() -> Iterator[JobEvent]:
        parents: dict[int, _Node] = {}
        remaining: dict[int, int] = {}
        settled: list[_Node] = []

        def index_tree(node: _Node) -> None:
            if node.outcome is not None:
                settled.append(node)
                return
            if node.children:
                remaining[id(node)] = len(node.children)
                for child in node.children:
                    parents[id(child)] = node
                    index_tree(child)

        for root in roots:
            index_tree(root)

        # Jobs served whole from the cache settle immediately -- and may
        # complete parents outright when every sibling was also cached.
        for node in settled:
            yield JobEvent(CACHED, node.job, outcome=node.outcome)
            yield from _propagate(node, parents, remaining, cache)

        leaves: list[_Node] = []
        for root in roots:
            _leaves(root, leaves)
        for event in iter_jobs(
            [leaf.job for leaf in leaves],
            workers=workers,
            cache=cache,
            fail_fast=fail_fast,
            pool=pool,
            cancel=cancel,
        ):
            yield event
            if not event.terminal:
                continue
            leaf = leaves[event.index]
            leaf.outcome = event.outcome
            yield from _propagate(leaf, parents, remaining, cache)

    yield from _ordered_gate(stream(), jobs) if ordered else stream()


def run_sharded(
    jobs: Sequence[Job],
    *,
    shard_size: int | None = None,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: ProgressFn | None = None,
    fail_fast: bool = True,
    ordered: bool = False,
    pool: Executor | None = None,
) -> list[JobOutcome]:
    """Execute ``jobs``, splitting shardable ones into ``shard_size``-unit
    shards scheduled together on one pool; outcomes come back merged, in
    submission order, bit-identical to a serial run for any configuration.

    Thin drain of :func:`iter_sharded`: progress is reported at leaf
    granularity as events land, and with ``fail_fast`` (the default) leaf
    failures raise :class:`~repro.engine.executor.EngineError` after
    in-flight shards drain into the cache.
    """
    jobs = list(jobs)
    position: dict[int, list[int]] = {}
    for index, job in enumerate(jobs):
        position.setdefault(id(job), []).append(index)
    outcomes: dict[int, JobOutcome] = {}
    failures: list[JobOutcome] = []
    done = 0
    for event in iter_sharded(
        jobs,
        shard_size=shard_size,
        workers=workers,
        cache=cache,
        fail_fast=fail_fast,
        ordered=ordered,
        pool=pool,
    ):
        if not event.terminal:
            continue
        if event.total is not None and progress is not None:
            done += 1
            progress(done, event.total, event.outcome)
        if not event.outcome.ok and event.total is not None:
            failures.append(event.outcome)
        for index in position.get(id(event.job), ()):
            outcomes[index] = event.outcome
    if failures and fail_fast:
        raise EngineError(failures)
    return [outcomes[index] for index in range(len(jobs))]
