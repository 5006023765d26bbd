"""repro.engine -- parallel experiment execution with result caching.

The engine is the substrate every scaling feature builds on:

* :mod:`repro.engine.jobs` -- picklable job descriptions (registry
  experiments, Monte Carlo sweep points, PUF pair batches, fleet traffic and
  enrollment) with deterministic configs, plus the :class:`ShardedJob`
  split/merge protocol and :class:`RangeJob`, the one shape every range-split
  job shares (its shards are :class:`RangeShard` unit ranges), and the names
  of the events a job passes through;
* :mod:`repro.engine.executor` -- the :class:`JobEvent` stream
  (:func:`iter_jobs`) over serial / ``ProcessPoolExecutor`` execution, with
  :func:`run_jobs` as the drain-the-stream wrapper (progress reporting,
  fail-fast error aggregation, submission-order outcomes);
* :mod:`repro.engine.sharding` -- :func:`iter_sharded`/:func:`run_sharded`,
  which expand sharded jobs so that the work *inside* one job (Monte Carlo
  samples, Jaccard pairs) fans out across the same pool and merges the
  moment each job's last shard lands, bit-identical to a serial run;
* :mod:`repro.engine.client` -- the daemon's wire protocol and its client
  side (:class:`DaemonClient`, :func:`start_daemon`, :func:`stop_daemon`),
  loading only the standard library;
* :mod:`repro.engine.daemon` -- the unix-socket server owning a persistent
  process pool and an in-memory result index, so repeat invocations skip
  pool spin-up and disk re-reads entirely;
* :mod:`repro.engine.cache` -- a content-addressed on-disk result store
  keyed by SHA-256(kind + config + code fingerprint), with LRU pruning;
* :mod:`repro.engine.serialization` -- lossless JSON round-trips for results
  and the canonical encoding behind the cache keys;
* :mod:`repro.engine.sweep` -- batch/grid fan-out for parameter studies.

Importing this package loads none of them: each public name below imports
its defining submodule on first use (PEP 562), so a caller pays only for the
layers it touches -- a daemon-routed CLI call never loads the server, the
executor or ``concurrent.futures``.

Quickstart
----------
>>> from repro.engine import ExperimentJob, ResultCache, run_jobs
>>> outcomes = run_jobs([ExperimentJob("table2")], workers=1)
>>> outcomes[0].value.experiment_id
'table2'
"""

import importlib

#: Public name -> the submodule defining it, imported on first use.
_EXPORTS = {
    "CacheStats": "repro.engine.cache",
    "ResultCache": "repro.engine.cache",
    "default_cache_dir": "repro.engine.cache",
    "source_fingerprint": "repro.engine.cache",
    "DaemonClient": "repro.engine.client",
    "DaemonError": "repro.engine.client",
    "default_socket_path": "repro.engine.client",
    "start_daemon": "repro.engine.client",
    "stop_daemon": "repro.engine.client",
    "ExperimentDaemon": "repro.engine.daemon",
    "MemoryIndexCache": "repro.engine.daemon",
    "CancelToken": "repro.engine.executor",
    "EngineError": "repro.engine.executor",
    "JobEvent": "repro.engine.executor",
    "JobOutcome": "repro.engine.executor",
    "PoolSupervisor": "repro.engine.executor",
    "iter_jobs": "repro.engine.executor",
    "run_jobs": "repro.engine.executor",
    "FAULTS_ENV": "repro.engine.faults",
    "FaultInjector": "repro.engine.faults",
    "FaultPlan": "repro.engine.faults",
    "CACHED": "repro.engine.jobs",
    "FAILED": "repro.engine.jobs",
    "FINISHED": "repro.engine.jobs",
    "SCHEDULED": "repro.engine.jobs",
    "STARTED": "repro.engine.jobs",
    "TERMINAL_EVENTS": "repro.engine.jobs",
    "ExperimentJob": "repro.engine.jobs",
    "FleetEnrollJob": "repro.engine.jobs",
    "FleetTrafficJob": "repro.engine.jobs",
    "Job": "repro.engine.jobs",
    "MonteCarloPointJob": "repro.engine.jobs",
    "PUFPairsJob": "repro.engine.jobs",
    "RangeJob": "repro.engine.jobs",
    "RangeShard": "repro.engine.jobs",
    "ShardedJob": "repro.engine.jobs",
    "shard_ranges": "repro.engine.jobs",
    "canonical_json": "repro.engine.serialization",
    "result_from_json": "repro.engine.serialization",
    "result_to_json": "repro.engine.serialization",
    "to_jsonable": "repro.engine.serialization",
    "iter_sharded": "repro.engine.sharding",
    "run_sharded": "repro.engine.sharding",
    "grid": "repro.engine.sweep",
    "monte_carlo_grid": "repro.engine.sweep",
    "run_sweep": "repro.engine.sweep",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
