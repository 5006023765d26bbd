"""Behavioral model of the cross-coupled DRAM sense amplifier.

The sense amplifier (SA) consists of a cross-coupled PMOS pair (enabled by
``sense_p``) and a cross-coupled NMOS pair (enabled by ``sense_n``).  The
behavioral rules implemented here capture the functional properties the paper
relies on:

* **Both halves enabled** (regular activation): the SA regeneratively
  amplifies the developed differential between the bitline and the reference
  bitline.  If the differential is smaller than the SA's input-referred
  offset, the offset decides the outcome (this is what CODIC-sig /
  CODIC-sigsa exploit).
* **Only the NMOS half enabled** (CODIC-det first phase for generating '0'):
  both bitlines are pulled towards ground, with the bitline node moving
  faster than the reference node, deterministically developing a negative
  differential.
* **Only the PMOS half enabled**: the mirror image, developing a positive
  differential and hence a deterministic '1'.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuit.components import Bitline, CircuitConstants
from repro.circuit.process_variation import ComponentVariation


@dataclass
class SenseAmplifier:
    """One sense amplifier attached to a bitline pair."""

    variation: ComponentVariation = field(default_factory=ComponentVariation)
    temperature_c: float = 30.0
    #: True once the SA has committed to a resolution direction.  Regenerative
    #: latches do not change their mind once the differential is large.
    _latched_direction: int = 0

    def reset(self) -> None:
        """Forget any latched state (called when both SA halves turn off)."""
        self._latched_direction = 0

    def effective_offset(self) -> float:
        """Input-referred offset of this SA at the current temperature."""
        return self.variation.sa_offset_at(self.temperature_c)

    def step(
        self,
        bitline: Bitline,
        reference: Bitline,
        sense_n_on: bool,
        sense_p_on: bool,
        constants: CircuitConstants,
        dt_ns: float,
    ) -> None:
        """Advance the SA dynamics by one time step."""
        if not sense_n_on and not sense_p_on:
            self.reset()
            return

        if sense_n_on and sense_p_on:
            self._step_regenerative(bitline, reference, constants, dt_ns)
        elif sense_n_on:
            self._step_single_sided(bitline, reference, constants, dt_ns, target=0.0)
        else:
            self._step_single_sided(bitline, reference, constants, dt_ns, target=constants.vdd)

    # ------------------------------------------------------------------
    # Internal update rules
    # ------------------------------------------------------------------
    def _step_regenerative(
        self,
        bitline: Bitline,
        reference: Bitline,
        constants: CircuitConstants,
        dt_ns: float,
    ) -> None:
        """Full cross-coupled amplification towards the rails."""
        differential = bitline.voltage - reference.voltage
        if self._latched_direction == 0:
            decision = differential + self.effective_offset() * _offset_weight(differential)
            self._latched_direction = 1 if decision >= 0.0 else -1

        rate = min(dt_ns / constants.sense_tau_ns, 1.0)
        if self._latched_direction > 0:
            bitline.voltage += (constants.vdd - bitline.voltage) * rate
            reference.voltage += (0.0 - reference.voltage) * rate
        else:
            bitline.voltage += (0.0 - bitline.voltage) * rate
            reference.voltage += (constants.vdd - reference.voltage) * rate

    def _step_single_sided(
        self,
        bitline: Bitline,
        reference: Bitline,
        constants: CircuitConstants,
        dt_ns: float,
        target: float,
    ) -> None:
        """Pull both bitlines towards ``target`` with a structural asymmetry.

        The bitline node moves ``single_sided_asymmetry`` times faster than
        the reference node, which is what develops a deterministic
        differential for CODIC-det.
        """
        self._latched_direction = 0
        rate = min(dt_ns / constants.half_sense_tau_ns, 1.0)
        bitline.voltage += (target - bitline.voltage) * min(
            rate * constants.single_sided_asymmetry, 1.0
        )
        reference.voltage += (target - reference.voltage) * rate


def _offset_weight(differential: float, crossover: float = 0.05) -> float:
    """Weight of the SA offset in the latch decision.

    When the developed differential is large (a real stored value was sensed),
    the offset is negligible; when the bitline pair is near-balanced (CODIC-sig
    after driving the cell to Vdd/2), the offset dominates.  The weight decays
    smoothly between the two regimes.
    """
    magnitude = abs(differential)
    if magnitude >= crossover:
        return 0.1
    return 1.0 - 0.9 * (magnitude / crossover)
