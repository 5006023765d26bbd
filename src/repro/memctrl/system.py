"""Full simulated system: cores + caches + memory controller + DRAM.

The system model mirrors the paper's Ramulator configuration (Table 5 /
Table 7): 1-4 in-order cores with private L1/L2 caches sharing one memory
controller and one channel of DDR3-1600.  Multi-core execution interleaves
the per-core traces in (local) time order, so cores contend for the shared
memory controller, banks and data bus.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.dram.geometry import DRAMGeometry, ModuleGeometry
from repro.dram.timing import DDR3_1600_11_11_11, TimingParameters
from repro.memctrl.cache import Cache, CacheConfig, CacheHierarchy
from repro.memctrl.controller import ControllerConfig, MemoryController
from repro.memctrl.cpu import DeallocHandler, InOrderCore, NullDeallocHandler, CoreStats
from repro.memctrl.scheduler import FRFCFSScheduler, Scheduler
from repro.memctrl.trace import WorkloadTrace
from repro.power.model import CommandEnergyModel


@dataclass(frozen=True)
class SystemConfig:
    """Configuration of the simulated system (paper Tables 5 and 7)."""

    cores: int = 1
    clock_ghz: float = 3.2
    l1_size_bytes: int = 64 * 1024
    l2_size_bytes: int = 512 * 1024
    line_bytes: int = 64
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    timing: TimingParameters = field(default_factory=lambda: DDR3_1600_11_11_11)
    #: Per-chip geometry of the attached module (default 4 Gb x8).
    chip_geometry: DRAMGeometry = field(
        default_factory=lambda: DRAMGeometry(
            banks=8, rows_per_bank=65536, row_bits=8192, device_width=8
        )
    )
    chips_per_rank: int = 8
    ranks: int = 1

    def module_geometry(self) -> ModuleGeometry:
        """Geometry of the attached DRAM module."""
        return ModuleGeometry(
            chip=self.chip_geometry,
            chips_per_rank=self.chips_per_rank,
            ranks=self.ranks,
        )


@dataclass
class SystemStats:
    """Results of running one (multi-programmed) workload on the system."""

    #: Finish time of each core, in nanoseconds of wall-clock time.
    core_finish_ns: list[float]
    #: Cycles executed by each core (including stalls).
    core_cycles: list[float]
    #: Aggregated per-core statistics.
    core_stats: list[CoreStats]
    #: Total DRAM energy (commands + background), nanojoules.
    dram_energy_nj: float
    #: Memory-controller statistics snapshot.
    row_hit_rate: float
    dram_reads: int
    dram_writes: int
    dram_row_ops: int

    @property
    def finish_time_ns(self) -> float:
        """Wall-clock completion time of the whole workload."""
        return max(self.core_finish_ns) if self.core_finish_ns else 0.0


@dataclass
class System:
    """A simulated multicore system with one shared memory controller."""

    config: SystemConfig = field(default_factory=SystemConfig)
    scheduler: Scheduler = field(default_factory=FRFCFSScheduler)
    energy_model: CommandEnergyModel = field(default_factory=CommandEnergyModel)
    controller: MemoryController = field(init=False)
    cores: list[InOrderCore] = field(init=False)

    def __post_init__(self) -> None:
        self.controller = MemoryController(
            geometry=self.config.module_geometry(),
            timing=self.config.timing,
            config=self.config.controller,
            scheduler=self.scheduler,
            energy_model=self.energy_model,
        )
        self.cores = [
            InOrderCore(
                core_id=index,
                controller=self.controller,
                caches=self._make_caches(),
                clock_ghz=self.config.clock_ghz,
            )
            for index in range(self.config.cores)
        ]

    def _make_caches(self) -> CacheHierarchy:
        return CacheHierarchy(
            l1=Cache(
                CacheConfig(
                    size_bytes=self.config.l1_size_bytes,
                    line_bytes=self.config.line_bytes,
                    latency_cycles=2,
                )
            ),
            l2=Cache(
                CacheConfig(
                    size_bytes=self.config.l2_size_bytes,
                    line_bytes=self.config.line_bytes,
                    latency_cycles=10,
                )
            ),
        )

    def set_dealloc_handler(
        self, factory: Callable[[InOrderCore], DeallocHandler] | None
    ) -> None:
        """Install a secure-deallocation mechanism on every core.

        ``factory`` receives the core and returns its handler; ``None``
        installs the do-nothing baseline.
        """
        for core in self.cores:
            core.dealloc_handler = factory(core) if factory else NullDeallocHandler()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, traces: Sequence[WorkloadTrace]) -> SystemStats:
        """Run one trace per core to completion and return system statistics.

        Cores are interleaved in local-time order so that they contend
        realistically for the shared memory system.  Fewer traces than cores
        leaves the extra cores idle.
        """
        if len(traces) > len(self.cores):
            raise ValueError(
                f"{len(traces)} traces provided but the system has "
                f"{len(self.cores)} cores"
            )
        events = [list(trace.events) for trace in traces]
        positions = [0] * len(events)
        # Cores with events left, as (local time, index): the heap's head is
        # the core furthest behind in wall-clock time, the lowest index on
        # ties.  Executing an event advances only that core's clock.
        runnable = [
            (self.cores[index].time_ns, index)
            for index, core_events in enumerate(events)
            if core_events
        ]
        heapq.heapify(runnable)
        while runnable:
            index = runnable[0][1]
            core = self.cores[index]
            core.execute(events[index][positions[index]])
            positions[index] += 1
            if positions[index] < len(events[index]):
                heapq.heapreplace(runnable, (core.time_ns, index))
            else:
                heapq.heappop(runnable)

        # Drain any buffered writes / row operations left in the controller.
        # The drain time bounds the finish time of the workload as a whole
        # (deallocation-heavy traces can leave long tails of row operations).
        drain_finish_ns = self.controller.drain()

        stats = SystemStats(
            core_finish_ns=[
                max(core.time_ns, drain_finish_ns)
                for core in self.cores[: len(traces)]
            ],
            core_cycles=[core.cycles for core in self.cores[: len(traces)]],
            core_stats=[core.stats for core in self.cores[: len(traces)]],
            dram_energy_nj=self.controller.total_energy_nj(),
            row_hit_rate=self.controller.stats.row_hit_rate,
            dram_reads=self.controller.stats.reads,
            dram_writes=self.controller.stats.writes,
            dram_row_ops=self.controller.stats.row_ops,
        )
        return stats
