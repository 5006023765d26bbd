"""Tests for the deterministic fault-injection harness (:mod:`repro.engine.faults`).

Covers plan validation and environment parsing, the determinism guarantees
(frame-drop thresholds and budgets, cross-process ordinal claims via
``state_dir``), and the cache-corruption fault site together with the
evict-then-recompute recovery path it is designed to exercise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import telemetry
from repro.engine import ExperimentJob, ResultCache
from repro.engine import faults


@pytest.fixture(autouse=True)
def _fresh_injector():
    """Isolate the process-wide injector singleton between tests."""
    faults.set_injector(None)
    yield
    faults.set_injector(None)


class TestFaultPlan:
    def test_defaults_are_a_no_op_plan(self):
        plan = faults.FaultPlan()
        assert plan.kill_worker_on_job is None
        assert plan.drop_connection_after_frames is None
        assert plan.corrupt_cache_store is None

    @pytest.mark.parametrize(
        "spec, match",
        [
            ({"kill_worker_on_job": 0, "state_dir": "x"}, "positive int"),
            ({"drop_connection_after_frames": -1}, "positive int"),
            ({"corrupt_cache_store": "one"}, "positive int"),
            ({"kill_budget": -1}, "non-negative"),
            ({"drop_budget": -2}, "non-negative"),
            ({"corrupt_budget": -1}, "non-negative"),
            ({"drop_budget": 0.5}, "non-negative int"),
            ({"kill_worker_on_job": 2}, "requires state_dir"),
        ],
    )
    def test_invalid_plans_are_rejected(self, spec, match):
        with pytest.raises(ValueError, match=match):
            faults.FaultPlan(**spec)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault plan key"):
            faults.FaultPlan.from_dict({"kill_wroker_on_job": 3})

    def test_from_env_unset_is_none(self, monkeypatch):
        monkeypatch.delenv(faults.FAULTS_ENV, raising=False)
        assert faults.FaultPlan.from_env() is None

    def test_from_env_parses_a_plan(self, monkeypatch):
        monkeypatch.setenv(
            faults.FAULTS_ENV,
            json.dumps({"drop_connection_after_frames": 4}),
        )
        plan = faults.FaultPlan.from_env()
        assert plan.drop_connection_after_frames == 4

    @pytest.mark.parametrize("raw", ["{not json", "[1,2]", '"kill"'])
    def test_from_env_rejects_junk(self, monkeypatch, raw):
        monkeypatch.setenv(faults.FAULTS_ENV, raw)
        with pytest.raises(ValueError, match=faults.FAULTS_ENV):
            faults.FaultPlan.from_env()

    def test_injector_singleton_parses_env_once_per_pid(self, monkeypatch):
        monkeypatch.setenv(
            faults.FAULTS_ENV, json.dumps({"corrupt_cache_store": 5})
        )
        faults.set_injector(None)
        active = faults.injector()
        assert active.plan.corrupt_cache_store == 5
        assert faults.injector() is active  # cached for this pid


class TestDeterminism:
    def test_drop_threshold_and_budget(self):
        plan = faults.FaultPlan(drop_connection_after_frames=2, drop_budget=1)
        injector = faults.FaultInjector(plan)
        assert not injector.on_frame_send(0)
        assert not injector.on_frame_send(1)
        assert injector.on_frame_send(2)  # threshold reached: drop
        assert not injector.on_frame_send(5)  # budget spent
        assert injector.fired["drop_connection"] == 1

    def test_ordinal_claims_are_global_across_injectors(self, tmp_path):
        # Two injectors sharing one state_dir model a worker and its
        # post-rebuild replacement: ordinals never repeat, so a kill fault
        # with budget 1 cannot re-fire on the retried job.
        plan = faults.FaultPlan(
            state_dir=str(tmp_path), kill_worker_on_job=99
        )
        first = faults.FaultInjector(plan)
        second = faults.FaultInjector(plan)
        assert first._claim_ordinal("job") == 1
        assert second._claim_ordinal("job") == 2
        assert first._claim_ordinal("job") == 3
        assert (tmp_path / "job.2").exists()

    def test_kill_token_is_single_use(self, tmp_path):
        plan = faults.FaultPlan(state_dir=str(tmp_path), kill_worker_on_job=1)
        injector = faults.FaultInjector(plan)
        assert injector._claim_token("kill", 1)
        assert not faults.FaultInjector(plan)._claim_token("kill", 1)

    def test_on_job_start_kills_only_the_fatal_ordinal(self, tmp_path):
        # Run the fatal draw in a subprocess: ordinal 1 must os._exit with
        # the sentinel code, while a survivor process (ordinal 2) returns.
        plan = {"state_dir": str(tmp_path), "kill_worker_on_job": 1}
        script = (
            "import json, sys\n"
            "from repro.engine import faults\n"
            "plan = faults.FaultPlan.from_dict(json.loads(sys.argv[1]))\n"
            "faults.FaultInjector(plan).on_job_start()\n"
            "print('survived')\n"
        )
        import repro

        src_dir = str(os.path.dirname(os.path.dirname(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        doomed = subprocess.run(
            [sys.executable, "-c", script, json.dumps(plan)],
            capture_output=True, text=True, env=env,
        )
        assert doomed.returncode == faults.KILLED_WORKER_EXIT
        survivor = subprocess.run(
            [sys.executable, "-c", script, json.dumps(plan)],
            capture_output=True, text=True, env=env,
        )
        assert survivor.returncode == 0
        assert "survived" in survivor.stdout


class TestCacheCorruption:
    def test_corrupt_blob_is_evicted_and_recomputed_identically(self, tmp_path):
        plan = faults.FaultPlan(corrupt_cache_store=1)
        injector = faults.FaultInjector(plan)
        faults.set_injector(injector)
        cache = ResultCache(tmp_path / "cache")
        job = ExperimentJob("table1")
        value = job.run()
        path = cache.put(job, value)  # fault site garbles the blob in place
        assert injector.fired["corrupt_cache_blob"] == 1
        with pytest.raises(ValueError):
            json.loads(path.read_text())  # really corrupt on disk
        # Recovery: the corrupt blob reads as a miss and is evicted...
        assert cache.get(job) is None
        assert not path.exists()
        # ... and the recomputed result round-trips bit-identically.
        cache.put(job, value)  # ordinal 2: left intact
        assert cache.get(job) == value

    def test_corrupt_budget_zero_disarms_the_site(self, tmp_path):
        plan = faults.FaultPlan(corrupt_cache_store=1, corrupt_budget=0)
        faults.set_injector(faults.FaultInjector(plan))
        cache = ResultCache(tmp_path / "cache")
        job = ExperimentJob("table1")
        cache.put(job, job.run())
        assert cache.get(job) is not None

    def test_fires_are_counted_in_telemetry(self):
        was_collecting = telemetry.collection_enabled()
        telemetry.enable_collection()
        try:
            counter = telemetry.registry().counter(telemetry.FAULTS_INJECTED)
            before = counter.value
            plan = faults.FaultPlan(drop_connection_after_frames=1)
            faults.FaultInjector(plan).on_frame_send(1)
            assert counter.value == before + 1
        finally:
            if not was_collecting:
                telemetry.disable_collection()
