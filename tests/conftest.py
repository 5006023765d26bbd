"""Shared fixtures for the test suite.

Fixtures deliberately use small geometries and sample counts: the goal of the
unit/integration tests is behavioural correctness; the paper-scale numbers
are produced by the benchmark harness.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.substrate import CODICSubstrate
from repro.dram.chip import DRAMChip, VENDOR_PROFILES
from repro.dram.geometry import DRAMGeometry
from repro.dram.module import DRAMModule
from repro.dram.population import ChipPopulation, PAPER_MODULE_SPECS


@pytest.fixture(autouse=True)
def private_cache_and_socket(
    tmp_path_factory: pytest.TempPathFactory, monkeypatch: pytest.MonkeyPatch
) -> None:
    """Point the default result cache and daemon socket at per-test paths.

    A CLI call without ``--cache-dir`` or ``--no-daemon`` then neither writes
    ``./.repro-cache`` into the checkout nor routes through a developer's
    running daemon.  Tests that set either variable themselves override this.
    """
    private = tmp_path_factory.mktemp("repro-env")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(private / "cache"))
    monkeypatch.setenv("REPRO_DAEMON_SOCKET", str(private / "daemon.sock"))


#: A small chip geometry used throughout the tests (8 banks x 64 rows x 1 KB).
SMALL_GEOMETRY = DRAMGeometry(banks=8, rows_per_bank=64, row_bits=8192, device_width=8)


@pytest.fixture
def small_geometry() -> DRAMGeometry:
    """Small chip geometry shared by most DRAM-level tests."""
    return SMALL_GEOMETRY


@pytest.fixture
def chip(small_geometry: DRAMGeometry) -> DRAMChip:
    """One small simulated chip."""
    return DRAMChip(
        chip_id="test-chip",
        geometry=small_geometry,
        vendor=VENDOR_PROFILES["A"],
        seed=1234,
    )


@pytest.fixture
def module(small_geometry: DRAMGeometry) -> DRAMModule:
    """One small simulated module (8 chips, 1 rank)."""
    return DRAMModule(
        module_id="test-module",
        chip_geometry=small_geometry,
        chips_per_rank=8,
        ranks=1,
        seed=99,
    )


@pytest.fixture
def second_module(small_geometry: DRAMGeometry) -> DRAMModule:
    """A second module with a different seed (a physically different device)."""
    return DRAMModule(
        module_id="other-module",
        chip_geometry=small_geometry,
        chips_per_rank=8,
        ranks=1,
        seed=12345,
    )


@pytest.fixture
def substrate() -> CODICSubstrate:
    """A CODIC substrate with the default variant library."""
    return CODICSubstrate()


@pytest.fixture
def small_population() -> ChipPopulation:
    """A reduced chip population (first four Table 12 modules, small rows)."""
    return ChipPopulation(
        specs=PAPER_MODULE_SPECS[:4], seed=77, rows_per_bank_limit=128
    )


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded NumPy generator for test-local randomness."""
    return np.random.default_rng(2024)


@pytest.fixture
def generator_calls(monkeypatch: pytest.MonkeyPatch) -> SimpleNamespace:
    """Count generator constructions for the duration of one test.

    ``make_rng`` lists the label paths passed to ``repro.dram.chip.make_rng``
    (the chip's seed-addressed streams); ``default_rng`` counts every
    ``numpy.random.default_rng`` call, whoever makes it.
    """
    import repro.dram.chip as chip_module

    calls = SimpleNamespace(make_rng=[], default_rng=0)
    make_rng, default_rng = chip_module.make_rng, np.random.default_rng

    def counting_make_rng(seed, *labels):
        calls.make_rng.append(labels)
        return make_rng(seed, *labels)

    def counting_default_rng(*args, **kwargs):
        calls.default_rng += 1
        return default_rng(*args, **kwargs)

    monkeypatch.setattr(chip_module, "make_rng", counting_make_rng)
    monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
    return calls
