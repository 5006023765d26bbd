"""Tests for the experiment drivers (paper tables/figures reproduction)."""

from __future__ import annotations

import importlib

import pytest

from repro.engine import ExperimentJob
from repro.experiments import EXPERIMENT_IDS, EXPERIMENTS, driver, run_experiment
from repro.experiments.base import ExperimentResult


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        expected = {
            "table1", "table2", "waveforms", "fig5", "fig6", "aging",
            "table4", "table10", "fig7", "fig7-energy", "table6", "table11",
            "fig8", "fig9", "fleet-roc", "fleet-aging",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_ids_list_the_registry_in_order(self):
        assert EXPERIMENT_IDS == tuple(EXPERIMENTS)

    @pytest.mark.parametrize("experiment_id", EXPERIMENT_IDS)
    def test_driver_resolves_the_registered_function(self, experiment_id):
        # Catches a mistyped module or function name in the driver table.
        assert driver(experiment_id) is EXPERIMENTS[experiment_id]

    def test_unknown_id_keeps_the_key_error_text(self):
        expected = (
            f"unknown experiment 'fig99'; known experiments: {sorted(EXPERIMENTS)}"
        )
        for call in (lambda: driver("fig99"), lambda: ExperimentJob("fig99").run()):
            with pytest.raises(KeyError) as info:
                call()
            assert info.value.args == (expected,)

    @pytest.mark.parametrize("package", ["repro", "repro.utils"])
    def test_every_public_name_resolves(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert getattr(module, name) is not None, name


class TestResultContainer:
    def test_add_row_validates_width(self):
        result = ExperimentResult("x", "t", headers=["a", "b"])
        result.add_row(1, 2)
        with pytest.raises(ValueError):
            result.add_row(1)

    def test_column_and_row_lookup(self):
        result = ExperimentResult("x", "t", headers=["name", "value"])
        result.add_row("one", 1)
        result.add_row("two", 2)
        assert result.column("value") == [1, 2]
        assert result.row_by("name", "two") == ["two", 2]
        with pytest.raises(KeyError):
            result.column("missing")
        with pytest.raises(KeyError):
            result.row_by("name", "three")

    def test_render_includes_notes(self):
        result = ExperimentResult("x", "t", headers=["a"])
        result.add_row(1)
        result.add_note("hello")
        rendered = result.render()
        assert "hello" in rendered
        assert "x: t" in rendered


class TestFastDrivers:
    def test_table1_lists_all_variants(self):
        result = run_experiment("table1")
        assert len(result.rows) >= 7

    def test_table2_matches_paper(self):
        result = run_experiment("table2")
        latencies = dict(zip(result.column("Primitive"), result.column("Latency (ns)")))
        assert latencies["CODIC-activate"] == 35.0
        assert latencies["CODIC-sig-opt"] == 13.0
        energies = dict(zip(result.column("Primitive"), result.column("Energy (nJ)")))
        assert all(17.0 <= energy <= 17.5 for energy in energies.values())

    def test_waveforms_landmarks(self):
        result = run_experiment("waveforms")
        sig_row = result.row_by("Figure", "fig3a-codic-sig")
        assert sig_row[2] == pytest.approx(0.5, abs=0.05)
        det_row = result.row_by("Figure", "fig3b-codic-det")
        assert det_row[2] == pytest.approx(0.0, abs=0.05)

    def test_table4_ratios(self):
        result = run_experiment("table4")
        values = dict(zip(result.column("PUF"), result.column("With filter (ms)")))
        assert values["CODIC-sig PUF"] < values["PreLatPUF"] < values["DRAM Latency PUF"]

    def test_table6_rows(self):
        result = run_experiment("table6")
        assert len(result.rows) == 3
        codic_row = result.row_by("Mechanism", "CODIC Self-Destruction")
        assert codic_row[1] == 0.0  # zero runtime performance overhead

    def test_table11_monotonic(self):
        result = run_experiment("table11")
        pv_rows = [row for row in result.rows if row[0] == "process variation"]
        flips = [row[2] for row in pv_rows]
        assert flips[0] == 0.0
        assert flips[-1] > 0.0

    def test_fig7_codic_column_fastest(self):
        result = run_experiment("fig7")
        assert len(result.rows) == 6
        # The speedup column must show CODIC is always faster than TCG.
        for speedup in result.column("CODIC speedup vs TCG"):
            assert speedup.endswith("x")
            assert float(speedup[:-1]) > 100

    def test_fig7_energy_ratios(self):
        result = run_experiment("fig7-energy")
        ratios = dict(zip(result.column("Mechanism"), result.column("Ratio vs CODIC")))
        assert float(ratios["TCG"][:-1]) > 10
        assert float(ratios["CODIC"][:-1]) == pytest.approx(1.0)


class TestSlowDriversQuickMode:
    def test_fig6_codic_robust(self):
        result = run_experiment("fig6")
        codic_row = result.row_by("PUF", "CODIC-sig PUF")
        assert codic_row[-1] > 0.9  # still repeatable at dT = 55C
        latency_row = result.row_by("PUF", "DRAM Latency PUF")
        assert latency_row[-1] < latency_row[1]

    def test_aging_driver(self):
        result = run_experiment("aging")
        assert result.rows[0][1] > 0.9
