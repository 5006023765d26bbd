"""The :class:`CODICSubstrate` facade.

The substrate ties together the variant library, the mode-register file, the
configurable delay elements and the circuit simulator.  It exposes the two
operations the rest of the library builds on:

* ``configure(variant)`` -- program the mode registers with a variant's
  signal schedule (issuing MRS commands, exactly as a memory controller
  would);
* ``execute(...)`` / ``simulate_cell(...)`` -- run the currently configured
  schedule, either against the behavioral circuit model of a single cell (for
  waveform-level studies) or against a row of a DRAM chip model (for
  application-level studies such as the PUF and self-destruction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.circuit.process_variation import ComponentVariation
from repro.circuit.simulator import CellCircuitSimulator, SimulationResult
from repro.core.delay_element import ConfigurableDelayElement, total_cost, DelayPathCost
from repro.core.mode_registers import ModeRegisterFile, MRSCommand
from repro.core.signals import CONTROL_SIGNALS, SignalSchedule
from repro.core.variants import (
    CODICVariant,
    VariantFunction,
    VariantLibrary,
    classify_schedule,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.dram.chip import DRAMChip


@dataclass
class CODICSubstrate:
    """Facade over the CODIC substrate of one DRAM chip.

    Parameters
    ----------
    register_sets:
        Number of independently programmable CODIC register sets.
    coarsening:
        Time-granularity coarsening factor of the delay elements (1 = 1 ns
        steps as in the paper; larger values trade control granularity for
        area, per footnote 3).
    """

    register_sets: int = 1
    coarsening: int = 1
    library: VariantLibrary = field(default_factory=VariantLibrary)
    registers: ModeRegisterFile = field(init=False)
    simulator: CellCircuitSimulator = field(default_factory=CellCircuitSimulator)

    def __post_init__(self) -> None:
        self.registers = ModeRegisterFile(register_sets=self.register_sets)

    # ------------------------------------------------------------------
    # Configuration path (memory controller -> MRS -> mode registers)
    # ------------------------------------------------------------------
    def configure(
        self, variant: CODICVariant | str, register_set: int = 0
    ) -> list[MRSCommand]:
        """Program a register set with a variant's signal schedule.

        Returns the MRS commands that a memory controller would issue, which
        is useful for accounting for configuration latency in end-to-end
        studies.
        """
        if isinstance(variant, str):
            variant = self.library.get(variant)
        return self.registers.program_schedule(variant.schedule, register_set)

    def configured_schedule(self, register_set: int = 0) -> SignalSchedule:
        """Schedule currently held in a register set."""
        return self.registers.read_schedule(register_set)

    def configured_function(self, register_set: int = 0) -> VariantFunction:
        """Functional classification of the currently configured schedule."""
        return classify_schedule(self.configured_schedule(register_set))

    def delay_elements(self, register_set: int = 0) -> dict[str, ConfigurableDelayElement]:
        """Delay elements as they would be configured for the current schedule."""
        schedule = self.configured_schedule(register_set)
        elements: dict[str, ConfigurableDelayElement] = {}
        for signal in CONTROL_SIGNALS:
            pulse = schedule.pulse(signal)
            tap = pulse.start_ns if pulse is not None else 0
            elements[signal] = ConfigurableDelayElement(
                signal=signal, tap=tap, coarsening=self.coarsening
            )
        return elements

    def hardware_cost(self) -> DelayPathCost:
        """Area/energy cost of the substrate (Section 4.2.1 numbers)."""
        return total_cost(coarsening=self.coarsening)

    # ------------------------------------------------------------------
    # Execution path
    # ------------------------------------------------------------------
    def simulate_cell(
        self,
        initial_cell_voltage: float,
        variation: ComponentVariation | None = None,
        temperature_c: float = 30.0,
        register_set: int = 0,
        record: bool = True,
    ) -> SimulationResult:
        """Run the configured schedule against the single-cell circuit model."""
        schedule = self.configured_schedule(register_set)
        return self.simulator.run(
            schedule.to_waveforms(),
            initial_cell_voltage=initial_cell_voltage,
            variation=variation,
            temperature_c=temperature_c,
            record=record,
        )

    def simulate_variant_on_cell(
        self,
        variant: CODICVariant | str,
        initial_cell_voltage: float,
        variation: ComponentVariation | None = None,
        temperature_c: float = 30.0,
        record: bool = True,
    ) -> SimulationResult:
        """Configure ``variant`` and immediately simulate it on one cell."""
        self.configure(variant)
        return self.simulate_cell(
            initial_cell_voltage,
            variation=variation,
            temperature_c=temperature_c,
            record=record,
        )

    def execute_on_chip(
        self,
        chip: "DRAMChip",
        bank: int,
        row: int,
        register_set: int = 0,
        temperature_c: float | None = None,
    ) -> None:
        """Execute the configured schedule against one row of a chip model.

        The chip model interprets the schedule by its functional class (the
        same classification the circuit model produces), which keeps row-level
        execution fast while staying consistent with the cell-level dynamics.
        """
        schedule = self.configured_schedule(register_set)
        chip.execute_codic(schedule, bank=bank, row=row, temperature_c=temperature_c)

    def variant_latency_ns(self, variant: CODICVariant | str) -> float:
        """Latency of a variant (Table 2 model), resolving names via the library."""
        if isinstance(variant, str):
            variant = self.library.get(variant)
        return variant.latency_ns
