"""repro.engine -- parallel experiment execution with result caching.

The engine is the substrate every scaling feature builds on:

* :mod:`repro.engine.jobs` -- picklable job descriptions (registry
  experiments, Monte Carlo sweep points, PUF pair batches, fleet traffic and
  enrollment) with deterministic configs, plus the :class:`ShardedJob`
  split/merge protocol and :class:`RangeJob`, the one shape every range-split
  job shares (its shards are :class:`RangeShard` unit ranges);
* :mod:`repro.engine.executor` -- the :class:`JobEvent` stream
  (:func:`iter_jobs`) over serial / ``ProcessPoolExecutor`` execution, with
  :func:`run_jobs` as the drain-the-stream wrapper (progress reporting,
  fail-fast error aggregation, submission-order outcomes);
* :mod:`repro.engine.sharding` -- :func:`iter_sharded`/:func:`run_sharded`,
  which expand sharded jobs so that the work *inside* one job (Monte Carlo
  samples, Jaccard pairs) fans out across the same pool and merges the
  moment each job's last shard lands, bit-identical to a serial run;
* :mod:`repro.engine.daemon` -- a unix-socket server owning a persistent
  process pool and an in-memory result index, so repeat invocations skip
  pool spin-up and disk re-reads entirely;
* :mod:`repro.engine.cache` -- a content-addressed on-disk result store
  keyed by SHA-256(kind + config + code fingerprint), with LRU pruning;
* :mod:`repro.engine.serialization` -- lossless JSON round-trips for results
  and the canonical encoding behind the cache keys;
* :mod:`repro.engine.sweep` -- batch/grid fan-out for parameter studies.

Quickstart
----------
>>> from repro.engine import ExperimentJob, ResultCache, run_jobs
>>> outcomes = run_jobs([ExperimentJob("table2")], workers=1)
>>> outcomes[0].value.experiment_id
'table2'
"""

from repro.engine.cache import CacheStats, ResultCache, default_cache_dir, source_fingerprint
from repro.engine.daemon import (
    DaemonClient,
    DaemonError,
    ExperimentDaemon,
    MemoryIndexCache,
    default_socket_path,
    start_daemon,
    stop_daemon,
)
from repro.engine.executor import (
    CACHED,
    FAILED,
    FINISHED,
    SCHEDULED,
    STARTED,
    TERMINAL_EVENTS,
    CancelToken,
    EngineError,
    JobEvent,
    JobOutcome,
    PoolSupervisor,
    iter_jobs,
    run_jobs,
)
from repro.engine.faults import FAULTS_ENV, FaultInjector, FaultPlan
from repro.engine.jobs import (
    ExperimentJob,
    FleetEnrollJob,
    FleetTrafficJob,
    Job,
    MonteCarloPointJob,
    PUFPairsJob,
    RangeJob,
    RangeShard,
    ShardedJob,
    shard_ranges,
)
from repro.engine.serialization import (
    canonical_json,
    result_from_json,
    result_to_json,
    to_jsonable,
)
from repro.engine.sharding import iter_sharded, run_sharded
from repro.engine.sweep import grid, monte_carlo_grid, run_sweep

__all__ = [
    "CACHED",
    "FAILED",
    "FINISHED",
    "SCHEDULED",
    "STARTED",
    "TERMINAL_EVENTS",
    "CacheStats",
    "CancelToken",
    "DaemonClient",
    "DaemonError",
    "EngineError",
    "ExperimentDaemon",
    "ExperimentJob",
    "FAULTS_ENV",
    "FaultInjector",
    "FaultPlan",
    "FleetEnrollJob",
    "FleetTrafficJob",
    "Job",
    "JobEvent",
    "JobOutcome",
    "MemoryIndexCache",
    "MonteCarloPointJob",
    "PoolSupervisor",
    "PUFPairsJob",
    "RangeJob",
    "RangeShard",
    "ResultCache",
    "ShardedJob",
    "canonical_json",
    "default_cache_dir",
    "default_socket_path",
    "grid",
    "iter_jobs",
    "iter_sharded",
    "monte_carlo_grid",
    "result_from_json",
    "result_to_json",
    "run_jobs",
    "run_sharded",
    "run_sweep",
    "shard_ranges",
    "source_fingerprint",
    "start_daemon",
    "stop_daemon",
    "to_jsonable",
]
