"""Tests for the repro.engine subsystem (jobs, executor, cache, sweeps, CLI)."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import pytest

from repro.circuit.montecarlo import MonteCarloEngine
from repro.engine import (
    EngineError,
    ExperimentJob,
    Job,
    MonteCarloPointJob,
    ResultCache,
    canonical_json,
    grid,
    monte_carlo_grid,
    result_from_json,
    result_to_json,
    run_sharded,
    to_jsonable,
)
from repro.experiments.__main__ import main
from repro.experiments.base import ExperimentResult
from repro.experiments.registry import run_all

#: Fast registry experiments used for executor parity tests.
FAST_EXPERIMENTS = ("table1", "table2", "table6")


@dataclass(frozen=True)
class FailingJob(Job):
    """Job that always raises; exercises error aggregation."""

    name: str = "boom"

    kind = "failing"

    @property
    def job_id(self) -> str:
        return self.name

    @property
    def config(self) -> dict:
        return {"name": self.name}

    def run(self) -> None:
        raise RuntimeError(f"{self.name} exploded")


class TestSerialization:
    def test_result_json_round_trip_is_lossless(self):
        result = ExperimentResult("x", "title", headers=["name", "value"])
        result.add_row("one", 1.5)
        result.add_row("two", np.float64(2.25))
        result.add_row("three", np.int64(3))
        result.add_note("a note")
        assert result_from_json(result_to_json(result)) == result

    def test_to_dict_rejects_unserializable_cells(self):
        result = ExperimentResult("x", "t", headers=["a"])
        result.add_row(object())
        with pytest.raises(TypeError):
            result.to_dict()

    def test_to_jsonable_normalizes_numpy(self):
        payload = to_jsonable({"a": np.float64(1.5), "b": np.arange(3), "c": (1, 2)})
        assert payload == {"a": 1.5, "b": [0, 1, 2], "c": [1, 2]}
        json.dumps(payload)  # must be representable

    def test_canonical_json_is_order_insensitive(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = ExperimentJob("table2")
        assert cache.get(job) is None
        result = job.run()
        cache.put(job, result)
        assert cache.get(job) == result
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_key_separates_config_and_code_version(self, tmp_path):
        cache = ResultCache(tmp_path)
        quick_key = cache.key_for(ExperimentJob("table2", quick=True))
        full_key = cache.key_for(ExperimentJob("table2", quick=False))
        assert quick_key != full_key
        other = ResultCache(tmp_path, code_version="different")
        assert other.key_for(ExperimentJob("table2", quick=True)) != quick_key

    def test_invalidate_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = ExperimentJob("table1")
        cache.put(job, job.run())
        assert len(cache) == 1
        assert cache.invalidate(job)
        assert not cache.invalidate(job)
        assert cache.get(job) is None
        cache.put(job, job.run())
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_corrupt_blob_is_a_miss_and_is_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = ExperimentJob("table1")
        cache.put(job, job.run())
        cache.path_for(job).write_text("{not json")
        assert cache.get(job) is None
        assert not cache.path_for(job).exists()
        assert len(cache) == 0

    def test_truncated_blob_is_a_miss_and_is_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = ExperimentJob("table1")
        path = cache.put(job, job.run())
        path.write_text(path.read_text()[: path.stat().st_size // 2])  # torn write
        assert cache.get(job) is None
        assert not path.exists()
        # A fresh put repopulates the slot cleanly.
        cache.put(job, job.run())
        assert cache.get(job) is not None

    def test_undecodable_payload_is_a_miss_and_is_evicted(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = ExperimentJob("table1")
        cache.put(job, job.run())
        cache.path_for(job).write_text(json.dumps({"payload": {}}))
        assert cache.get(job) is None
        assert cache.stats.hits == 0
        assert not cache.path_for(job).exists()

    def test_absent_blob_is_a_plain_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(ExperimentJob("table1")) is None
        assert cache.stats.misses == 1


class TestExecutor:
    def test_serial_and_parallel_results_match(self):
        jobs = [ExperimentJob(experiment_id) for experiment_id in FAST_EXPERIMENTS]
        serial = run_sharded(jobs, workers=1)
        parallel = run_sharded(jobs, workers=2)
        assert [o.job.job_id for o in parallel] == list(FAST_EXPERIMENTS)
        for left, right in zip(serial, parallel):
            assert left.value.to_dict() == right.value.to_dict()

    def test_cache_serves_second_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [ExperimentJob(experiment_id) for experiment_id in FAST_EXPERIMENTS]
        cold = run_sharded(jobs, cache=cache)
        warm = run_sharded(jobs, cache=cache)
        assert not any(outcome.cached for outcome in cold)
        assert all(outcome.cached for outcome in warm)
        assert cache.stats.hit_rate == pytest.approx(0.5)
        for left, right in zip(cold, warm):
            assert left.value == right.value

    def test_fail_fast_raises_engine_error(self):
        with pytest.raises(EngineError) as excinfo:
            run_sharded([ExperimentJob("table1"), FailingJob()])
        assert "boom" in str(excinfo.value)
        assert "exploded" in excinfo.value.render()

    def test_fail_fast_parallel(self):
        with pytest.raises(EngineError):
            run_sharded([FailingJob("a"), FailingJob("b"), ExperimentJob("table1")], workers=2)

    def test_run_all_through_engine_matches_direct_drivers(self):
        from repro.experiments.registry import EXPERIMENTS

        results = run_all(jobs=4)
        assert list(results) == list(EXPERIMENTS)
        for experiment_id in FAST_EXPERIMENTS:
            direct = EXPERIMENTS[experiment_id](True)
            assert results[experiment_id].to_dict() == direct.to_dict()


class TestSweep:
    def test_grid_order(self):
        points = grid(a=[1, 2], b=["x", "y"])
        assert points == [
            {"a": 1, "b": "x"}, {"a": 1, "b": "y"},
            {"a": 2, "b": "x"}, {"a": 2, "b": "y"},
        ]

    def test_monte_carlo_grid_matches_serial_sweep(self):
        engine = MonteCarloEngine(samples=2_000)
        serial = engine.sweep_variation([3.0, 5.0], temperature_c=30.0)
        fanned = monte_carlo_grid([3.0, 5.0], [30.0], samples=2_000, workers=2)
        assert fanned == serial

    def test_monte_carlo_point_job_round_trips_through_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = MonteCarloPointJob(4.0, 85.0, samples=1_000)
        cold = run_sharded([job], cache=cache)[0]
        warm = run_sharded([job], cache=cache)[0]
        assert warm.cached
        assert warm.value == cold.value


class TestMonteCarloSeeding:
    def test_points_are_deterministic(self):
        engine = MonteCarloEngine(samples=5_000)
        assert engine.run_point(5.0, 30.0) == engine.run_point(5.0, 30.0)

    def test_fractional_temperatures_get_distinct_streams(self):
        engine = MonteCarloEngine(samples=5_000)
        a = engine.point_seed(4.0, 25.3).generate_state(4)
        b = engine.point_seed(4.0, 25.7).generate_state(4)
        assert list(a) != list(b)

    def test_nearby_points_do_not_collide(self):
        engine = MonteCarloEngine(samples=5_000)
        seen = set()
        for variation in (2.0, 2.5, 3.0):
            for temperature in (30.0, 30.5, 31.0):
                state = tuple(engine.point_seed(variation, temperature).generate_state(4))
                assert state not in seen
                seen.add(state)


class TestRowByUnknownHeader:
    def test_row_by_raises_key_error_for_unknown_header(self):
        result = ExperimentResult("x", "t", headers=["name"])
        result.add_row("one")
        with pytest.raises(KeyError, match="no column named"):
            result.row_by("missing", "one")


class TestEngineCLI:
    def test_json_output_parses_and_is_jobs_invariant(self, tmp_path, capsys):
        argv = ["table1", "table2", "--json", "--cache-dir", str(tmp_path / "a")]
        assert main(argv + ["--jobs", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["table1", "table2", "--json", "--jobs", "2",
                     "--cache-dir", str(tmp_path / "b")]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out
        report = json.loads(serial_out)
        assert list(report) == ["table1", "table2"]
        assert ExperimentResult.from_dict(report["table2"]).column("Latency (ns)")

    def test_repeat_run_is_served_from_cache(self, tmp_path, capsys):
        argv = ["table2", "table6", "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first_err = capsys.readouterr().err
        assert "2 misses" in first_err
        assert main(argv) == 0
        second_err = capsys.readouterr().err
        assert "2 hits" in second_err
        assert "100% hit rate" in second_err
        assert "cached" in second_err

    def test_no_cache_bypasses_store(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["table1", "--no-cache"]) == 0
        err = capsys.readouterr().err
        assert "cache:" not in err
        assert not list(tmp_path.glob("*/*.json"))

    def test_cache_dir_env_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["table1"]) == 0
        capsys.readouterr()
        assert list(tmp_path.glob("*/*.json"))

    def test_full_and_quick_results_cached_separately(self, tmp_path, capsys):
        assert main(["table2", "--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["table2", "--full", "--cache-dir", str(tmp_path)]) == 0
        assert "1 misses" in capsys.readouterr().err
