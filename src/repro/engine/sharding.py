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
barrier.  It is the engine's one stream: the CLI renders it and the daemon
forwards it frame by frame.

:func:`run_sharded` is its one drain: it returns one merged
:class:`~repro.engine.executor.JobOutcome` per submitted job, in submission
order, and raises :class:`~repro.engine.executor.EngineError` when a job
failed -- the call-and-wait contract of the registry, sweeps and fleet CLI.

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

import threading
import time
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro import telemetry
from repro.engine.cache import ResultCache
from repro.engine.executor import (
    JobEvent,
    JobOutcome,
    PoolSupervisor,
    EngineError,
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
    if failures:
        # The parent's last outstanding child settled after a sibling failed
        # (or was itself the failure): fail the parent and merge nothing.
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
    reg = telemetry.registry()
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


def iter_sharded(
    jobs: Sequence[Job],
    *,
    shard_size: int | None = None,
    workers: int = 1,
    cache: ResultCache | None = None,
    pool: PoolSupervisor | None = None,
    cancel: threading.Event | None = None,
) -> Iterator[JobEvent]:
    """Stream :class:`JobEvent` for a sharded run, merging incrementally.

    Leaf events (``scheduled``/``started``/``cached``/``finished``/
    ``failed``) carry leaf-cohort ``index``/``total``; a parent job's
    terminal event -- emitted the moment its last shard lands, with no
    barrier on sibling jobs -- carries ``index=None``.  Jobs cached at any
    level settle with a ``cached`` event during expansion.  Every event
    streams in completion order.

    ``shard_size=None`` expands every job to a leaf with no children, so
    the run is exactly :func:`~repro.engine.executor.iter_jobs` over the
    jobs themselves, on ``pool`` when one is given.  A leaf failure cancels
    the queued leaves and the stream ends once in-flight leaves drain; a
    parent whose last outstanding shard settles after a failure emits
    ``failed``, and one whose shards were abandoned emits nothing.  Setting
    the ``cancel`` event ends the leaf stream the same way.
    """
    jobs = list(jobs)
    if shard_size is not None and shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")

    roots = [_expand(job, shard_size, cache) for job in jobs]
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
        pool=pool,
        cancel=cancel,
    ):
        yield event
        if not event.terminal:
            continue
        leaf = leaves[event.index]
        leaf.outcome = event.outcome
        yield from _propagate(leaf, parents, remaining, cache)


def run_sharded(
    jobs: Sequence[Job],
    *,
    shard_size: int | None = None,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> list[JobOutcome]:
    """Execute ``jobs``, splitting shardable ones into ``shard_size``-unit
    shards scheduled together on one pool; outcomes come back merged, in
    submission order, bit-identical to a serial run for any configuration.

    The drain of :func:`iter_sharded`: a leaf failure raises
    :class:`~repro.engine.executor.EngineError` naming the failed leaves,
    after in-flight shards drain into the cache.
    """
    jobs = list(jobs)
    roots = {id(job) for job in jobs}
    outcomes: dict[int, JobOutcome] = {}
    failures: list[JobOutcome] = []
    for event in iter_sharded(jobs, shard_size=shard_size, workers=workers, cache=cache):
        if not event.terminal:
            continue
        if event.total is not None and not event.outcome.ok:
            failures.append(event.outcome)
        if id(event.job) in roots:
            outcomes[id(event.job)] = event.outcome
    if failures:
        raise EngineError(failures)
    return [outcomes[id(job)] for job in jobs]
