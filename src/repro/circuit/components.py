"""Passive circuit components of the cell / bitline / precharge path.

The components hold *state* (a voltage) and expose small update rules used by
:class:`repro.circuit.simulator.CellCircuitSimulator`.  All voltages are
normalized to ``Vdd = 1.0``; all times are nanoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CircuitConstants:
    """Electrical constants of the behavioral model.

    The absolute values are representative of a modern DDR3 device (see Keeth,
    "DRAM Circuit Design"); only their ratios and time constants influence the
    behavioral results.
    """

    #: Supply voltage (normalized).
    vdd: float = 1.0
    #: Precharge voltage (normalized), Vdd/2.
    vpre: float = 0.5
    #: Ratio of bitline capacitance to cell capacitance (typically 5-8).
    bitline_to_cell_cap_ratio: float = 6.0
    #: Time constant of the precharge/equalization path, ns.
    precharge_tau_ns: float = 0.8
    #: Time constant of charge sharing through the access transistor, ns.
    charge_sharing_tau_ns: float = 1.2
    #: Time constant of regenerative SA amplification, ns.
    sense_tau_ns: float = 1.5
    #: Time constant of the single-sided pull when only one SA half is on, ns.
    half_sense_tau_ns: float = 2.5
    #: Structural speed advantage of the bitline node over the reference node
    #: when a single SA half is enabled.  This encodes the paper's observation
    #: that triggering sense_n alone deviates the *bitline* towards 0 (and
    #: sense_p alone towards 1), which is what makes CODIC-det deterministic.
    single_sided_asymmetry: float = 2.0
    #: Simulation time step, ns.
    dt_ns: float = 0.05
    #: Cell leakage time constant at nominal temperature, seconds.  Real DRAM
    #: cells retain data for seconds to minutes; the value only matters for
    #: the retention-based emulation methodology (Section 6.1).
    leakage_tau_s: float = 64.0

    @property
    def cell_cap_weight(self) -> float:
        """Relative weight of the cell capacitance in charge sharing."""
        return 1.0 / (1.0 + self.bitline_to_cell_cap_ratio)

    @property
    def bitline_cap_weight(self) -> float:
        """Relative weight of the bitline capacitance in charge sharing."""
        return self.bitline_to_cell_cap_ratio / (1.0 + self.bitline_to_cell_cap_ratio)


@dataclass
class CellCapacitor:
    """The storage capacitor of one DRAM cell."""

    voltage: float
    cap_factor: float = 1.0

    def share_charge(
        self,
        bitline: "Bitline",
        constants: CircuitConstants,
        wl_drive_factor: float,
        dt_ns: float,
    ) -> None:
        """Exchange charge with ``bitline`` through the open access transistor.

        The current through the access transistor is proportional to the
        voltage difference; the per-node voltage change is inversely
        proportional to that node's capacitance (so the small cell capacitor
        moves much faster than the large bitline).
        """
        conductance = wl_drive_factor / constants.charge_sharing_tau_ns
        flow = (self.voltage - bitline.voltage) * conductance * dt_ns
        cell_cap = self.cap_factor
        bitline_cap = constants.bitline_to_cell_cap_ratio * bitline.cap_factor
        self.voltage -= flow / cell_cap
        bitline.voltage += flow / bitline_cap

    def leak(self, dt_s: float, constants: CircuitConstants, leakage_factor: float,
             temperature_c: float = 30.0) -> None:
        """Leak charge towards the precharge level over ``dt_s`` seconds.

        Retention time roughly halves for every 10 C increase in temperature
        (the paper's retention-based CODIC-sig emulation exploits exactly this
        leakage towards Vdd/2).
        """
        acceleration = 2.0 ** ((temperature_c - 30.0) / 10.0)
        tau = constants.leakage_tau_s / (leakage_factor * acceleration)
        decay = 1.0 - pow(2.718281828459045, -dt_s / max(tau, 1e-9))
        self.voltage += (constants.vpre - self.voltage) * decay


@dataclass
class Bitline:
    """One bitline (the side connected to the accessed cell)."""

    voltage: float
    cap_factor: float = 1.0

    def precharge(self, constants: CircuitConstants, dt_ns: float) -> None:
        """Drive the bitline towards Vdd/2 through the equalization devices."""
        rate = dt_ns / constants.precharge_tau_ns
        self.voltage += (constants.vpre - self.voltage) * min(rate, 1.0)


@dataclass
class PrechargeUnit:
    """The equalization circuit controlled by the EQ signal.

    It simultaneously drives the bitline and the reference bitline towards the
    precharge voltage.  The unit itself is stateless; it simply applies the
    precharge update to both nodes when enabled.
    """

    def apply(
        self,
        bitline: Bitline,
        reference: Bitline,
        constants: CircuitConstants,
        dt_ns: float,
    ) -> None:
        """Equalize both bitlines towards Vdd/2 for one time step."""
        bitline.precharge(constants, dt_ns)
        reference.precharge(constants, dt_ns)
        # Equalization also shorts the two bitlines together, pulling them
        # towards their common average.
        average = 0.5 * (bitline.voltage + reference.voltage)
        rate = min(dt_ns / constants.precharge_tau_ns, 1.0)
        bitline.voltage += (average - bitline.voltage) * rate
        reference.voltage += (average - reference.voltage) * rate
