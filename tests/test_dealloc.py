"""Tests for the secure-deallocation workloads, mechanisms and study."""

from __future__ import annotations

import gc

import pytest

from repro.dealloc.mechanisms import (
    CODICZeroing,
    LISACloneZeroing,
    MECHANISM_FACTORIES,
    RowCloneZeroing,
    SoftwareZeroing,
)
from repro.dealloc.simulation import COMPARED_MECHANISMS, DeallocStudy
from repro.dealloc.workloads import (
    ALLOC_INTENSIVE_BENCHMARKS,
    BACKGROUND_BENCHMARKS,
    PAPER_MIXES,
    generate_mix,
    generate_trace,
    lookup_profile,
    random_mixes,
)
from repro.dram.geometry import DRAMGeometry
from repro.memctrl.controller import MemoryController
from repro.memctrl.cpu import InOrderCore
from repro.memctrl.request import RequestType
from repro.memctrl.system import System, SystemConfig
from repro.memctrl.trace import TraceEvent, TraceEventType


class TestWorkloadGeneration:
    def test_paper_benchmarks_defined(self):
        assert set(ALLOC_INTENSIVE_BENCHMARKS) == {
            "mysql", "memcached", "compiler", "bootup", "shell", "malloc",
        }
        assert len(BACKGROUND_BENCHMARKS) >= 10

    def test_paper_mixes_reference_known_benchmarks(self):
        for benchmarks in PAPER_MIXES.values():
            assert len(benchmarks) == 4
            for name in benchmarks:
                lookup_profile(name)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            lookup_profile("nope")

    def test_trace_length_close_to_target(self):
        trace = generate_trace("mysql", instructions=20_000, seed=1)
        assert 20_000 <= trace.instruction_count <= 22_000

    def test_alloc_intensive_trace_contains_deallocs(self):
        trace = generate_trace("malloc", instructions=60_000, seed=1)
        assert trace.deallocated_bytes > 0

    def test_background_trace_has_no_deallocs(self):
        trace = generate_trace("stream", instructions=20_000, seed=1)
        assert trace.deallocated_bytes == 0

    def test_dealloc_regions_row_aligned(self):
        trace = generate_trace("malloc", instructions=60_000, seed=2)
        deallocs = [e for e in trace.events if e.event_type is TraceEventType.DEALLOC]
        assert deallocs
        for event in deallocs:
            assert event.address % 8192 == 0
            assert event.size_bytes % 8192 == 0

    def test_trace_reproducible(self):
        first = generate_trace("shell", instructions=10_000, seed=3)
        second = generate_trace("shell", instructions=10_000, seed=3)
        assert first.events == second.events

    def test_mix_generation_disjoint_address_spaces(self):
        traces = generate_mix(PAPER_MIXES["MIX1"], instructions_per_core=5_000, seed=1)
        assert len(traces) == 4
        first_core_max = max(
            (e.address for e in traces[0].events if e.event_type is not TraceEventType.COMPUTE),
            default=0,
        )
        second_core_min = min(
            (e.address for e in traces[1].events if e.event_type is not TraceEventType.COMPUTE),
            default=1 << 40,
        )
        assert first_core_max < second_core_min

    def test_random_mixes_structure(self):
        mixes = random_mixes(count=10, seed=4)
        assert len(mixes) == 10
        for benchmarks in mixes.values():
            assert benchmarks[0] in ALLOC_INTENSIVE_BENCHMARKS
            assert benchmarks[1] in ALLOC_INTENSIVE_BENCHMARKS
            assert benchmarks[2] in BACKGROUND_BENCHMARKS
            assert benchmarks[3] in BACKGROUND_BENCHMARKS


class TestMechanisms:
    def _system(self) -> System:
        return System(
            SystemConfig(
                cores=1,
                chip_geometry=DRAMGeometry(banks=8, rows_per_bank=1024, row_bits=8192),
            )
        )

    def test_factories_cover_all_mechanisms(self):
        assert set(MECHANISM_FACTORIES) == {"software", "lisa", "rowclone", "codic"}

    def test_software_zeroing_issues_stores_and_flushes(self):
        system = self._system()
        core = system.cores[0]
        handler = SoftwareZeroing()
        stores_before = core.stats.stores
        handler.handle(core, TraceEvent(TraceEventType.DEALLOC, address=0, size_bytes=8192))
        assert core.stats.stores - stores_before == 128  # one per cache line

    def test_codic_zeroing_issues_one_row_op_per_row(self):
        system = self._system()
        core = system.cores[0]
        handler = CODICZeroing()
        handler.handle(core, TraceEvent(TraceEventType.DEALLOC, address=0, size_bytes=16384))
        system.controller.drain()
        assert system.controller.stats.row_ops == 2

    def test_partial_rows_fall_back_to_software(self):
        system = self._system()
        core = system.cores[0]
        handler = CODICZeroing()
        # 4 KB region in the middle of a row: no full row available.
        handler.handle(
            core, TraceEvent(TraceEventType.DEALLOC, address=4096, size_bytes=4096)
        )
        system.controller.drain()
        assert system.controller.stats.row_ops == 0
        assert core.stats.stores == 64

    def test_mechanism_request_types(self):
        assert CODICZeroing().request_type is RequestType.CODIC_ZERO_ROW
        assert RowCloneZeroing().request_type is RequestType.ROWCLONE_ZERO_ROW
        assert LISACloneZeroing().request_type is RequestType.LISA_ZERO_ROW


class TestStudy:
    @pytest.fixture(scope="class")
    def malloc_result(self):
        return DeallocStudy(instructions=25_000).run_workload("malloc")

    def test_hardware_beats_software(self, malloc_result):
        for mechanism in COMPARED_MECHANISMS:
            comparison = malloc_result.comparison(mechanism)
            assert comparison.speedup > 1.0
            assert comparison.energy_savings > 0.0

    def test_codic_is_best_mechanism(self, malloc_result):
        codic = malloc_result.comparison("codic")
        assert codic.speedup >= malloc_result.comparison("rowclone").speedup
        assert codic.speedup >= malloc_result.comparison("lisa").speedup
        assert malloc_result.best_mechanism() == "codic"

    def test_energy_ordering(self, malloc_result):
        assert (
            malloc_result.comparison("codic").energy_savings
            >= malloc_result.comparison("rowclone").energy_savings
            >= malloc_result.comparison("lisa").energy_savings
        )

    def test_unknown_mechanism_lookup(self, malloc_result):
        with pytest.raises(KeyError):
            malloc_result.comparison("bogus")

    def test_four_core_mix_runs(self):
        study = DeallocStudy(instructions=8_000)
        result = study.run_mix("MIX5", PAPER_MIXES["MIX5"])
        for mechanism in COMPARED_MECHANISMS:
            assert result.comparison(mechanism).speedup > 0.9

    def test_finished_systems_are_freed_without_the_cycle_collector(self):
        # A handler that held its core would close a core -> handler -> core
        # cycle: each finished System's cores, and the controller and caches
        # behind them, would then wait for the cyclic collector.
        trace = generate_trace(
            ALLOC_INTENSIVE_BENCHMARKS["malloc"], instructions=4_000, seed=5
        )
        study = DeallocStudy()
        was_enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            study._compare([trace], label="malloc", cores=1)
            gc.collect()
            stranded = [
                type(obj).__name__
                for obj in gc.garbage
                if isinstance(obj, (System, InOrderCore, MemoryController))
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
        assert stranded == []

    def test_percent_properties(self, malloc_result):
        comparison = malloc_result.comparison("codic")
        assert comparison.speedup_percent == pytest.approx(100 * (comparison.speedup - 1))
        assert comparison.energy_savings_percent == pytest.approx(
            100 * comparison.energy_savings
        )
