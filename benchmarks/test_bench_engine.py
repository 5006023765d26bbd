"""Benchmarks for the execution engine: cache warm-up, parallel fan-out and
intra-point sharding.

These quantify the engine value propositions: a warm content-addressed cache
turns a full report into pure disk reads, the Monte Carlo grid fans out
across worker processes without changing the results, and ``--shard-size``
style sharding splits the work *inside* a single sweep point across the same
pool -- bit-identically.  The serial/sharded sweep pair records the sharding
speedup in the benchmark JSON (compare their wall-clock times; the ratio
approaches the worker count on machines with that many cores).

``REPRO_BENCH_SMOKE=1`` shrinks the sweep workloads so CI can run the whole
harness quickly while still exercising every code path.
"""

from __future__ import annotations

import os

from repro.circuit.montecarlo import MonteCarloEngine
from repro.engine import (
    ExperimentJob,
    MonteCarloPointJob,
    PUFPairsJob,
    ResultCache,
    monte_carlo_grid,
    run_sharded,
)

#: Substrate-level experiments cheap enough to run once per benchmark round.
FAST_EXPERIMENTS = ("table1", "table2", "waveforms", "fig7", "fig7-energy", "table6")

#: Worker count for the sharded benchmarks (the ISSUE/ROADMAP target setup).
SHARD_BENCH_WORKERS = 8


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") == "1"


def _sweep_samples() -> int:
    """Samples per sweep point: paper-scale x20 normally, small in smoke mode.

    Scaled up so per-shard compute dominates process-pool overhead -- this is
    the configuration whose serial/sharded timing ratio documents the
    sharding speedup.
    """
    return 200_000 if _smoke() else 2_000_000


#: Sweep points of the sharded benchmark (Table 11's variation axis).
SWEEP_VARIATIONS = [2.0, 3.0, 4.0, 5.0]
SWEEP_TEMPERATURES = [30.0, 85.0]


def test_bench_engine_cold_cache(run_once, tmp_path):
    jobs = [ExperimentJob(experiment_id) for experiment_id in FAST_EXPERIMENTS]
    cache = ResultCache(tmp_path)
    outcomes = run_once(run_sharded, jobs, cache=cache)
    assert len(outcomes) == len(FAST_EXPERIMENTS)
    assert not any(outcome.cached for outcome in outcomes)
    assert cache.stats.stores == len(FAST_EXPERIMENTS)


def test_bench_engine_warm_cache(run_once, tmp_path):
    jobs = [ExperimentJob(experiment_id) for experiment_id in FAST_EXPERIMENTS]
    cache = ResultCache(tmp_path)
    cold = run_sharded(jobs, cache=cache)
    outcomes = run_once(run_sharded, jobs, cache=cache)
    assert all(outcome.cached for outcome in outcomes)
    for left, right in zip(cold, outcomes):
        assert left.value == right.value


def test_bench_monte_carlo_grid_parallel(run_once):
    points = run_once(
        monte_carlo_grid,
        [2.0, 3.0, 4.0, 5.0],
        [30.0, 60.0, 85.0],
        samples=20_000,
        workers=4,
    )
    assert len(points) == 12
    # Flip rate grows with process variation at fixed temperature.
    at_30c = [point for point in points if point.temperature_c == 30.0]
    assert at_30c[0].flip_rate <= at_30c[-1].flip_rate


def test_bench_monte_carlo_sweep_serial(run_once):
    """Baseline for the sharding speedup: the full sweep on one process."""
    points = run_once(
        monte_carlo_grid,
        SWEEP_VARIATIONS,
        SWEEP_TEMPERATURES,
        samples=_sweep_samples(),
        workers=1,
    )
    assert len(points) == len(SWEEP_VARIATIONS) * len(SWEEP_TEMPERATURES)


def test_bench_monte_carlo_sweep_sharded(run_once):
    """The same sweep with every point split across 8 workers.

    Compare against ``test_bench_monte_carlo_sweep_serial`` in the benchmark
    JSON for the sharding speedup.  One point is re-derived serially to pin
    the bit-identity contract inside the benchmark itself.
    """
    samples = _sweep_samples()
    points = run_once(
        monte_carlo_grid,
        SWEEP_VARIATIONS,
        SWEEP_TEMPERATURES,
        samples=samples,
        workers=SHARD_BENCH_WORKERS,
        shard_size=max(samples // SHARD_BENCH_WORKERS, 1),
    )
    assert len(points) == len(SWEEP_VARIATIONS) * len(SWEEP_TEMPERATURES)
    engine = MonteCarloEngine(samples=samples)
    assert points[0] == engine.run_point(SWEEP_VARIATIONS[0], SWEEP_TEMPERATURES[0])


def test_bench_puf_pairs_sharded(run_once):
    """One Figure 5 cell split into pair shards across 8 workers."""
    pairs = 30 if _smoke() else 120
    job = PUFPairsJob(
        puf="CODIC-sig PUF", mode="quality", pairs=pairs, seed=17, voltage="ddr3l"
    )
    outcomes = run_once(
        run_sharded,
        [job],
        shard_size=max(pairs // SHARD_BENCH_WORKERS, 1),
        workers=SHARD_BENCH_WORKERS,
    )
    value = outcomes[0].value
    assert len(value["intra"]) == len(value["inter"]) == pairs


def test_bench_sharded_incremental_rerun(run_once, tmp_path):
    """Growing a cached sweep only computes the new tail shards."""
    samples = _sweep_samples() // 4
    shard = max(samples // SHARD_BENCH_WORKERS, 1)
    seed_cache = ResultCache(tmp_path)
    run_sharded(
        [MonteCarloPointJob(4.0, 30.0, samples=samples)],
        shard_size=shard, cache=seed_cache,
    )
    grown = MonteCarloPointJob(4.0, 30.0, samples=samples + samples // 2)
    cache = ResultCache(tmp_path)
    outcomes = run_once(
        run_sharded, [grown], shard_size=shard, cache=cache,
    )
    assert cache.stats.hits > 0  # prior shards served from disk
    assert outcomes[0].value == grown.run()
