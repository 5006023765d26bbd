"""Destruction mechanisms compared in Figure 7.

Each mechanism destroys the full contents of a DRAM module at power-on and
reports the time and energy it needs:

* **TCG zeroing** -- the firmware overwrites every cache line with zeros
  through the memory controller (regular write commands), per the TCG
  platform-reset mitigation specification.
* **RowClone destruction** -- an in-DRAM mechanism copies a reserved all-zero
  row over every other row using RowClone-FPM (two back-to-back activations
  per destination row).
* **LISA-clone destruction** -- like RowClone, but the copy crosses subarrays
  through the LISA inter-subarray links, occupying the bank slightly longer.
* **CODIC self-destruction** -- the paper's mechanism: one CODIC command per
  row (parallelized across banks, respecting tRRD/tFAW), entirely inside the
  DRAM chip and without memory-controller involvement.

Latency is computed from the rank-level activation throughput model
(per-bank row-cycle time, tRRD, tFAW -- the same constraints the cycle-level
controller enforces); energy comes from the DRAMPower-style command energy
model plus background power over the destruction interval.  The TCG baseline
additionally models the data-bus bottleneck of streaming zeros from the
controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.commands import CommandType
from repro.dram.geometry import ModuleGeometry
from repro.dram.timing import TimingParameters, timing_for_module
from repro.power.model import CommandEnergyModel


@dataclass(frozen=True)
class DestructionResult:
    """Time and energy one mechanism needs to destroy one module."""

    mechanism: str
    capacity_bytes: int
    destruction_time_ns: float
    energy_nj: float
    rows_destroyed: int

    @property
    def energy_mj(self) -> float:
        """Energy in millijoules."""
        return self.energy_nj / 1e6


@dataclass
class DestructionMechanism:
    """Base class for destruction mechanisms."""

    name: str = "base"
    energy_model: CommandEnergyModel = field(default_factory=CommandEnergyModel)

    # -- hooks -----------------------------------------------------------
    def activations_per_row(self) -> int:
        """Row activations the mechanism performs per destroyed row."""
        raise NotImplementedError

    def bank_occupancy_ns(self, timing: TimingParameters) -> float:
        """Time one destroyed row keeps its bank busy."""
        raise NotImplementedError

    def row_command(self) -> CommandType:
        """Command whose energy is charged once per destroyed row."""
        raise NotImplementedError

    def extra_row_energy_nj(self, geometry: ModuleGeometry) -> float:
        """Additional per-row energy beyond the row command (e.g. data bursts)."""
        return 0.0

    # -- evaluation ------------------------------------------------------
    def per_row_interval_ns(
        self, geometry: ModuleGeometry, timing: TimingParameters
    ) -> float:
        """Sustained interval between consecutive destroyed rows in one rank.

        The rate is bounded by the slowest of: the per-bank row cycle spread
        over all banks, the ACT-to-ACT spacing tRRD, and the four-activation
        window tFAW -- with the latter two scaled by how many activations the
        mechanism issues per row.
        """
        acts = self.activations_per_row()
        per_bank = (self.bank_occupancy_ns(timing) + timing.tRP_ns) / geometry.banks
        return max(per_bank, timing.tRRD_ns * acts, (timing.tFAW_ns / 4.0) * acts)

    def destroy(
        self,
        geometry: ModuleGeometry,
        timing: TimingParameters | None = None,
    ) -> DestructionResult:
        """Destroy a whole module (all ranks run in parallel internally)."""
        timing = timing or timing_for_module(geometry.capacity_bytes,
                                             geometry.chips_per_rank, geometry.ranks)
        rows_per_rank = geometry.rows_per_rank
        interval = self.per_row_interval_ns(geometry, timing)
        # Ranks destroy their rows concurrently: each rank has its own banks
        # and the mechanisms run inside the DRAM devices (for TCG the shared
        # bus is accounted for separately in ``extra_interval``).
        time_ns = rows_per_rank * interval + self.fixed_overhead_ns(geometry, timing)

        per_row_energy = self.energy_model.command_energy_nj(self.row_command())
        per_row_energy += self.extra_row_energy_nj(geometry)
        total_rows = geometry.total_rows
        energy = per_row_energy * total_rows
        energy += self.energy_model.background_energy_nj(time_ns)

        return DestructionResult(
            mechanism=self.name,
            capacity_bytes=geometry.capacity_bytes,
            destruction_time_ns=time_ns,
            energy_nj=energy,
            rows_destroyed=total_rows,
        )

    def fixed_overhead_ns(
        self, geometry: ModuleGeometry, timing: TimingParameters
    ) -> float:
        """One-time overhead (e.g. programming CODIC mode registers)."""
        return 0.0


@dataclass
class CODICSelfDestruction(DestructionMechanism):
    """One CODIC command per row, issued by the in-DRAM power-on FSM."""

    name: str = "CODIC"

    def activations_per_row(self) -> int:
        return 1

    def bank_occupancy_ns(self, timing: TimingParameters) -> float:
        # A CODIC command occupies its bank like an activation through the
        # restore phase (tRAS); the following tRP is added by the caller.
        return timing.tRAS_ns

    def row_command(self) -> CommandType:
        return CommandType.CODIC

    def fixed_overhead_ns(
        self, geometry: ModuleGeometry, timing: TimingParameters
    ) -> float:
        # Programming the four CODIC mode registers once at power-on.
        return 4 * 10 * timing.tCK_ns


@dataclass
class RowCloneDestruction(DestructionMechanism):
    """RowClone-FPM copy of a reserved zero row over every other row."""

    name: str = "RowClone"

    def activations_per_row(self) -> int:
        return 2

    def bank_occupancy_ns(self, timing: TimingParameters) -> float:
        # Source activation + destination activation, both kept open through
        # their restore phases.
        return 2.0 * timing.tRAS_ns

    def row_command(self) -> CommandType:
        return CommandType.ROWCLONE_COPY

    def fixed_overhead_ns(
        self, geometry: ModuleGeometry, timing: TimingParameters
    ) -> float:
        # The reserved all-zero source row in each bank must be initialized
        # once with regular writes before the copies start.
        lines_per_row = geometry.row_bytes // 64
        return geometry.banks * lines_per_row * timing.burst_time_ns + timing.tRC_ns


@dataclass
class LISACloneDestruction(DestructionMechanism):
    """LISA-clone copy of a zero row across subarrays."""

    name: str = "LISA-clone"

    def activations_per_row(self) -> int:
        return 2

    def bank_occupancy_ns(self, timing: TimingParameters) -> float:
        # LISA-clone chains row-buffer movements between subarrays on top of
        # the two activations, occupying the bank for roughly three row
        # cycles per destroyed row (Chang et al., HPCA'16).
        return 3.0 * timing.tRAS_ns + 2.0 * timing.tRP_ns

    def row_command(self) -> CommandType:
        return CommandType.LISA_COPY

    def fixed_overhead_ns(
        self, geometry: ModuleGeometry, timing: TimingParameters
    ) -> float:
        lines_per_row = geometry.row_bytes // 64
        return geometry.banks * lines_per_row * timing.burst_time_ns + timing.tRC_ns


@dataclass
class TCGZeroing(DestructionMechanism):
    """Firmware zeroing through the memory controller (TCG baseline).

    The firmware walks physical memory, writing zeros and flushing them to
    DRAM.  The sustained rate is limited by the slower of the DRAM data bus
    and the core's store+flush issue rate; the paper's measured rate for this
    baseline corresponds to roughly 1.9 GB/s on the evaluated system.
    """

    name: str = "TCG"
    #: Cycles the in-order core spends per zeroed cache line (store + CLFLUSH
    #: issue + loop overhead), at ``core_clock_ghz``.
    core_cycles_per_line: float = 110.0
    core_clock_ghz: float = 3.2

    def activations_per_row(self) -> int:
        return 1

    def bank_occupancy_ns(self, timing: TimingParameters) -> float:
        return timing.tRAS_ns

    def row_command(self) -> CommandType:
        return CommandType.ACTIVATE

    def extra_row_energy_nj(self, geometry: ModuleGeometry) -> float:
        lines_per_row = geometry.row_bytes // 64
        write_energy = self.energy_model.command_energy_nj(CommandType.WRITE)
        precharge = self.energy_model.command_energy_nj(CommandType.PRECHARGE)
        return lines_per_row * write_energy + precharge

    def per_row_interval_ns(
        self, geometry: ModuleGeometry, timing: TimingParameters
    ) -> float:
        lines_per_row = geometry.row_bytes // 64
        bus_time = lines_per_row * timing.burst_time_ns
        core_time = lines_per_row * self.core_cycles_per_line / self.core_clock_ghz
        row_overhead = timing.tRCD_ns + timing.tRP_ns
        # Writes to all ranks share the channel, so the per-row rate does not
        # improve with rank count; the core issue rate dominates in practice.
        return max(bus_time, core_time) + row_overhead

    def destroy(
        self,
        geometry: ModuleGeometry,
        timing: TimingParameters | None = None,
    ) -> DestructionResult:
        """TCG destroys rows strictly sequentially over the shared channel."""
        timing = timing or timing_for_module(geometry.capacity_bytes,
                                             geometry.chips_per_rank, geometry.ranks)
        interval = self.per_row_interval_ns(geometry, timing)
        total_rows = geometry.total_rows
        time_ns = total_rows * interval

        per_row_energy = (
            self.energy_model.command_energy_nj(self.row_command())
            + self.extra_row_energy_nj(geometry)
        )
        energy = per_row_energy * total_rows
        energy += self.energy_model.background_energy_nj(time_ns)
        return DestructionResult(
            mechanism=self.name,
            capacity_bytes=geometry.capacity_bytes,
            destruction_time_ns=time_ns,
            energy_nj=energy,
            rows_destroyed=total_rows,
        )


def all_mechanisms(
    energy_model: CommandEnergyModel | None = None,
) -> list[DestructionMechanism]:
    """The four mechanisms of Figure 7, in the paper's plotting order."""
    model = energy_model or CommandEnergyModel()
    return [
        TCGZeroing(energy_model=model),
        LISACloneDestruction(energy_model=model),
        RowCloneDestruction(energy_model=model),
        CODICSelfDestruction(energy_model=model),
    ]
