"""Tests for the shardable evaluation pipeline.

Covers the determinism contract end to end: per-unit RNG streams
(``StreamTree``), mergeable distributions, partition-independent Monte Carlo
blocks, the ``ShardedJob`` split/merge protocol and its ``RangeJob``/
``RangeShard`` shape, pinned unit and shard identities, sharded execution
through the engine (including uneven shard sizes and multiple workers),
shard-level cache reuse, LRU cache pruning, and the new CLI surface.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.circuit.montecarlo import MC_SAMPLE_BLOCK, MonteCarloEngine
from repro.engine import (
    ExperimentJob,
    MonteCarloPointJob,
    PUFPairsJob,
    RangeShard,
    ResultCache,
    monte_carlo_grid,
    run_sharded,
    shard_ranges,
)
from repro.engine.jobs import ShardedJob
from repro.engine.serialization import canonical_json
from repro.experiments.__main__ import main
from repro.experiments.registry import run_all
from repro.experiments.sharding import SHARD_PLANS
from repro.puf.codic_puf import CODICSigPUF
from repro.puf.evaluation import PUFEvaluator
from repro.puf.jaccard import JaccardDistribution
from repro.utils.rng import StreamTree

SHARD_IDS_GOLDEN = Path(__file__).parent / "golden" / "shard_ids.json"


class TestStreamTree:
    def test_same_path_same_stream(self):
        tree = StreamTree(7)
        assert tree.rng("a", 3).random(4).tolist() == tree.rng("a", 3).random(4).tolist()

    def test_different_paths_differ(self):
        tree = StreamTree(7)
        assert tree.rng("a", 3).random(4).tolist() != tree.rng("a", 4).random(4).tolist()
        assert tree.rng("a", 3).random(4).tolist() != tree.rng("b", 3).random(4).tolist()
        assert tree.rng("a").random(4).tolist() != StreamTree(8).rng("a").random(4).tolist()

    def test_child_is_order_free_spawn(self):
        """child(i) addresses the i-th spawn child without the spawn counter."""
        import numpy as np

        parent = np.random.SeedSequence(entropy=11)
        spawned = parent.spawn(5)[4]
        direct = StreamTree(11).child(4).sequence()
        assert list(spawned.generate_state(4)) == list(direct.generate_state(4))

    def test_paths_compose(self):
        tree = StreamTree(9)
        assert tree.child("a").child("b") == tree.child("a", "b")


class TestJaccardMerge:
    def test_merge_concatenates_in_order(self):
        parts = [
            JaccardDistribution([0.1, 0.2]),
            JaccardDistribution([]),
            JaccardDistribution([0.3]),
        ]
        assert JaccardDistribution.merge(parts).values == [0.1, 0.2, 0.3]

    def test_merge_is_associative(self):
        a = JaccardDistribution([0.1])
        b = JaccardDistribution([0.2])
        c = JaccardDistribution([0.3])
        left = JaccardDistribution.merge([JaccardDistribution.merge([a, b]), c])
        right = JaccardDistribution.merge([a, JaccardDistribution.merge([b, c])])
        assert left.values == right.values

    def test_from_values_validates(self):
        with pytest.raises(ValueError):
            JaccardDistribution.from_values([0.5, 1.5])


class TestMonteCarloPartitionIndependence:
    def test_uneven_shards_merge_to_serial(self):
        engine = MonteCarloEngine(samples=20_000)
        serial = engine.run_point(5.0, 30.0).bit_flips
        # Boundaries crossing blocks, single samples, and uneven tails.
        parts = [(0, 1), (1, 6_999), (6_999, MC_SAMPLE_BLOCK + 1), (MC_SAMPLE_BLOCK + 1, 20_000)]
        assert sum(engine.shard_flips(5.0, 30.0, a, b) for a, b in parts) == serial

    def test_shard_depends_only_on_range(self):
        one = MonteCarloEngine(samples=20_000)
        other = MonteCarloEngine(samples=50_000)
        assert one.shard_flips(4.0, 85.0, 3_000, 9_000) == other.shard_flips(
            4.0, 85.0, 3_000, 9_000
        )

    def test_empty_and_invalid_ranges(self):
        engine = MonteCarloEngine()
        assert engine.shard_flips(4.0, 30.0, 5, 5) == 0
        with pytest.raises(ValueError):
            engine.shard_flips(4.0, 30.0, 10, 5)

    def test_point_job_merge_matches_run(self):
        job = MonteCarloPointJob(4.0, 60.0, samples=20_000)
        for shard_size in (3_000, MC_SAMPLE_BLOCK, 20_000 - 1):
            subs = job.shard_jobs(shard_size)
            assert job.merge([sub.run() for sub in subs]) == job.run()

    def test_point_job_shards_align_to_blocks(self):
        job = MonteCarloPointJob(4.0, 60.0, samples=20_000)
        subs = job.shard_jobs(12_500)  # not a block multiple
        # Rounded down to one block (8192) so no block straddles two shards.
        assert [(sub.start, sub.stop) for sub in subs] == [
            (0, MC_SAMPLE_BLOCK),
            (MC_SAMPLE_BLOCK, 2 * MC_SAMPLE_BLOCK),
            (2 * MC_SAMPLE_BLOCK, 20_000),
        ]

    def test_shard_job_round_trips_payload(self):
        job = RangeShard(MonteCarloPointJob(4.0, 30.0), 0, 2_000)
        flips = job.run()
        assert job.decode(job.encode(flips)) == flips


def _identity_rows(job, shard_size: int, rows: list) -> None:
    """Append ``job`` and (recursively) its shards as identity rows."""
    rows.append([job.kind, job.job_id, job.config, job.shard_range()])
    subs = job.shard_jobs(shard_size) if isinstance(job, ShardedJob) else None
    for sub in subs or ():
        _identity_rows(sub, shard_size, rows)


def shard_identity_document() -> str:
    """``tests/golden/shard_ids.json``: one ``[kind, job_id, config,
    shard_range]`` row per unit job or shard -- every shard plan's quick unit
    jobs at shard size 60.

    These four fields are what cache keys and ``--stream``/daemon event
    frames are built from, so any drift here silently orphans cached shards
    or changes the wire format.
    """
    rows: list = []
    for plan in SHARD_PLANS.values():
        for unit in plan.unit_jobs(True):
            _identity_rows(unit, 60, rows)
    return "[\n" + ",\n".join(canonical_json(row) for row in rows) + "\n]\n"


class TestShardIdentity:
    def test_unit_and_shard_identities_match_golden(self):
        assert shard_identity_document() == SHARD_IDS_GOLDEN.read_text()

    def test_golden_covers_every_job_kind(self):
        kinds = {row[0] for row in json.loads(SHARD_IDS_GOLDEN.read_text())}
        assert kinds == {
            "montecarlo-point", "montecarlo-shard",
            "puf-pairs", "puf-pairs-shard",
            "fleet-traffic", "fleet-traffic-shard",
        }


class TestShardRanges:
    def test_uneven_tail(self):
        assert shard_ranges(10, 4) == [(0, 4), (4, 8), (8, 10)]

    def test_growth_keeps_prefix(self):
        assert shard_ranges(20, 6)[:3] == shard_ranges(18, 6)[:3]

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_ranges(10, 0)
        with pytest.raises(ValueError):
            shard_ranges(-1, 4)
        assert shard_ranges(0, 4) == []


class TestPUFShardDeterminism:
    def test_quality_shards_merge_to_full(self, small_population):
        evaluator = PUFEvaluator(
            small_population.modules, lambda m: CODICSigPUF(m), pairs=12, seed=5
        )
        full_intra, full_inter = evaluator.quality_shard(0, 12)
        parts = [(0, 5), (5, 6), (6, 12)]
        intra = JaccardDistribution.merge(
            [evaluator.quality_shard(a, b)[0] for a, b in parts]
        )
        inter = JaccardDistribution.merge(
            [evaluator.quality_shard(a, b)[1] for a, b in parts]
        )
        assert intra.values == full_intra.values
        assert inter.values == full_inter.values

    def test_shard_is_slice_of_full_run(self, small_population):
        """Pair #7 computes identically whether or not pairs #0..#6 ran."""
        evaluator = PUFEvaluator(
            small_population.modules, lambda m: CODICSigPUF(m), pairs=10, seed=5
        )
        full, _ = evaluator.quality_shard(0, 10)
        alone, _ = evaluator.quality_shard(7, 9)
        assert alone.values == full.values[7:9]

    def test_temperature_and_aging_shards_merge(self, small_population):
        evaluator = PUFEvaluator(
            small_population.modules, lambda m: CODICSigPUF(m), pairs=9, seed=3
        )
        full = evaluator.temperature_shard(25.0, 0, 9)
        merged = JaccardDistribution.merge(
            [evaluator.temperature_shard(25.0, a, b) for a, b in [(0, 4), (4, 9)]]
        )
        assert merged.values == full.values
        aging_full = evaluator.aging_shard(0, 9)
        aging_merged = JaccardDistribution.merge(
            [evaluator.aging_shard(a, b) for a, b in [(0, 2), (2, 9)]]
        )
        assert aging_merged.values == aging_full.values

    def test_range_validation(self, small_population):
        evaluator = PUFEvaluator(
            small_population.modules, lambda m: CODICSigPUF(m), pairs=5, seed=3
        )
        with pytest.raises(ValueError):
            evaluator.quality_shard(0, 6)
        with pytest.raises(ValueError):
            evaluator.quality_shard(-1, 2)


class TestEvaluatorValidation:
    def test_rejects_non_positive_segment_bytes(self, small_population):
        for bad in (0, -8192):
            with pytest.raises(ValueError, match="segment_bytes must be positive"):
                PUFEvaluator(
                    small_population.modules,
                    lambda m: CODICSigPUF(m),
                    segment_bytes=bad,
                )

    def test_rejects_segment_larger_than_smallest_module(self, small_population):
        smallest = min(m.capacity_bytes for m in small_population.modules)
        with pytest.raises(ValueError, match="exceeds the smallest module"):
            PUFEvaluator(
                small_population.modules,
                lambda m: CODICSigPUF(m),
                segment_bytes=smallest + 1,
            )

    def test_accepts_segment_at_module_boundary(self, small_population):
        smallest = min(m.capacity_bytes for m in small_population.modules)
        PUFEvaluator(
            small_population.modules, lambda m: CODICSigPUF(m), segment_bytes=smallest
        )


class TestPUFPairsJobs:
    def test_sharded_equals_serial(self):
        job = PUFPairsJob(
            puf="CODIC-sig PUF", mode="quality", pairs=8, seed=17, voltage="ddr3l"
        )
        serial = job.run()
        merged = job.merge([sub.run() for sub in job.shard_jobs(3)])
        assert merged == serial
        assert len(serial["intra"]) == len(serial["inter"]) == 8

    def test_declines_to_shard_tiny_batches(self):
        job = PUFPairsJob(puf="CODIC-sig PUF", mode="quality", pairs=4, seed=17)
        assert job.shard_jobs(4) is None

    def test_unknown_puf_and_mode_raise(self):
        with pytest.raises(KeyError, match="unknown PUF"):
            PUFPairsJob(puf="nope", mode="quality", pairs=1, seed=1).run()
        with pytest.raises(ValueError, match="unknown mode"):
            PUFPairsJob(puf="CODIC-sig PUF", mode="nope", pairs=1, seed=1).run()
        with pytest.raises(ValueError, match="unknown voltage class"):
            PUFPairsJob(
                puf="CODIC-sig PUF", mode="quality", pairs=1, seed=1, voltage="ddr5"
            ).run()

    def test_payload_round_trip(self):
        job = PUFPairsJob(puf="CODIC-sig PUF", mode="aging", pairs=3, seed=29)
        value = job.run()
        assert job.decode(json.loads(json.dumps(job.encode(value)))) == value


class TestRunSharded:
    def test_table11_sharded_matches_serial_across_workers(self):
        serial = ExperimentJob("table11").run()
        for workers in (1, 4):
            outcomes = run_sharded(
                [ExperimentJob("table11")], shard_size=6_000, workers=workers
            )
            assert outcomes[0].value.to_dict() == serial.to_dict()

    def test_non_shardable_jobs_run_whole(self):
        serial = ExperimentJob("table2").run()
        outcomes = run_sharded([ExperimentJob("table2")], shard_size=10)
        assert outcomes[0].value.to_dict() == serial.to_dict()

    def test_monte_carlo_grid_shard_size_is_transparent(self):
        plain = monte_carlo_grid([3.0, 5.0], [30.0], samples=12_000)
        sharded = monte_carlo_grid(
            [3.0, 5.0], [30.0], samples=12_000, shard_size=5_000, workers=2
        )
        assert sharded == plain

    def test_shard_size_validation(self):
        with pytest.raises(ValueError):
            run_sharded([ExperimentJob("table2")], shard_size=0)

    def test_run_all_accepts_shard_size(self):
        results = run_all(jobs=1, shard_size=8_000)
        direct = ExperimentJob("table11").run()
        assert results["table11"].to_dict() == direct.to_dict()

    def test_shard_cache_reused_for_larger_run(self, tmp_path):
        small = 2 * MC_SAMPLE_BLOCK + 1_000
        cache = ResultCache(tmp_path)
        run_sharded(
            [MonteCarloPointJob(4.0, 30.0, samples=small)],
            shard_size=MC_SAMPLE_BLOCK,
            cache=cache,
        )
        grown_samples = 4 * MC_SAMPLE_BLOCK
        grown = ResultCache(tmp_path)
        outcomes = run_sharded(
            [MonteCarloPointJob(4.0, 30.0, samples=grown_samples)],
            shard_size=MC_SAMPLE_BLOCK,
            cache=grown,
        )
        # The two full shards from the smaller run are served from disk; the
        # old tail [2*BLOCK, 2*BLOCK+1000) and the new shards are recomputed.
        assert grown.stats.hits == 2
        assert outcomes[0].value == MonteCarloPointJob(4.0, 30.0, samples=grown_samples).run()

    def test_warm_rerun_served_from_parent_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = ExperimentJob("table11")
        cold = run_sharded([job], shard_size=6_000, cache=cache)
        warm_cache = ResultCache(tmp_path)
        warm = run_sharded([job], shard_size=6_000, cache=warm_cache)
        assert warm[0].cached
        assert warm[0].value.to_dict() == cold[0].value.to_dict()
        # Short-circuited at the experiment level: exactly one lookup.
        assert warm_cache.stats.hits == 1
        assert warm_cache.stats.misses == 0


class TestCachePruning:
    def _fill(self, cache: ResultCache, count: int) -> list:
        jobs = [
            RangeShard(MonteCarloPointJob(4.0, 30.0, seed=seed), 0, 100)
            for seed in range(count)
        ]
        for job in jobs:
            cache.put(job, job.run())
        return jobs

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = self._fill(cache, 4)
        now = time.time()
        for age, job in enumerate(jobs):  # jobs[0] most recent, jobs[3] oldest
            os.utime(cache.path_for(job), (now - age, now - age))
        blob = cache.path_for(jobs[0]).stat().st_size
        removed, freed = cache.prune(2 * blob + blob // 2)
        assert removed == 2
        assert freed > 0
        # The two most recently used blobs (earliest jobs) survive.
        assert cache.path_for(jobs[0]).exists()
        assert cache.path_for(jobs[1]).exists()
        assert not cache.path_for(jobs[3]).exists()

    def test_hit_refreshes_recency(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = self._fill(cache, 3)
        past = time.time() - 1000
        for job in jobs:
            os.utime(cache.path_for(job), (past, past))
        assert cache.get(jobs[0]) is not None  # refreshes mtime
        blob = cache.path_for(jobs[0]).stat().st_size
        cache.prune(blob + blob // 2)
        assert cache.path_for(jobs[0]).exists()

    def test_prune_to_zero_clears_store(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 3)
        removed, _ = cache.prune(0)
        assert removed == 3
        assert len(cache) == 0
        assert cache.size_bytes() == 0

    def test_prune_validates(self, tmp_path):
        with pytest.raises(ValueError):
            ResultCache(tmp_path).prune(-1)


class TestShardingCLI:
    def test_shard_size_json_identical_to_serial(self, tmp_path, capsys):
        assert main(["table11", "--json", "--cache-dir", str(tmp_path / "a")]) == 0
        serial_out = capsys.readouterr().out
        assert main([
            "table11", "--json", "--jobs", "2", "--shard-size", "6000",
            "--cache-dir", str(tmp_path / "b"),
        ]) == 0
        sharded_out = capsys.readouterr().out
        assert sharded_out == serial_out

    def test_shard_size_must_be_positive(self, capsys):
        assert main(["table11", "--shard-size", "0"]) == 2
        assert "--shard-size" in capsys.readouterr().err

    def test_cache_max_mb_must_be_non_negative(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["cache-prune", "--max-mb", "-1"])
        assert excinfo.value.code == 2
        assert "--max-mb" in capsys.readouterr().err

    def test_cache_prune_defaults_to_env_cache_dir(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["table1"]) == 0
        capsys.readouterr()
        assert list(tmp_path.glob("*/*.json"))
        assert main(["cache-prune", "--max-mb", "0"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert not list(tmp_path.glob("*/*.json"))

    def test_cache_prune_subcommand(self, tmp_path, capsys):
        assert main(["table1", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert list(tmp_path.glob("*/*.json"))
        assert main(["cache-prune", "--cache-dir", str(tmp_path), "--max-mb", "0"]) == 0
        out = capsys.readouterr().out
        assert "removed 1" in out
        assert not list(tmp_path.glob("*/*.json"))
