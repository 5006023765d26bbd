"""Process-variation models for the behavioral circuit simulator.

Process variation is the physical phenomenon CODIC-sig and CODIC-sigsa turn
into signatures: random, static, per-device mismatch in transistor threshold
voltages, transistor geometry and capacitances.  The paper models it in SPICE
as Gaussian variation of transistor length/width/threshold; here we collapse
those sources into the quantities that matter for circuit behaviour:

* ``sa_offset``        -- input-referred offset voltage of the sense amplifier
                          (in units of Vdd).  Positive offsets bias the SA
                          towards resolving to 1.
* ``cell_cap_factor``  -- multiplicative variation of the cell capacitance.
* ``bitline_cap_factor`` -- multiplicative variation of the bitline capacitance.
* ``leakage_factor``   -- multiplicative variation of the cell leakage current
                          (drives retention behaviour).
* ``wl_drive_factor``  -- multiplicative variation of the access-transistor
                          conductance.

The structural (design-time) asymmetry of the sense amplifier is modeled by
``STRUCTURAL_SA_OFFSET``: in the absence of process variation every SA in the
paper's SPICE model resolves a perfectly precharged bitline to '1'
(Appendix C).  The constant is calibrated so that the Monte Carlo bit-flip
rates of Table 11 are reproduced (~0.02 % of SAs flip at 4 % variation,
~0.2 % at 5 %, none at or below 3 %).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Input-referred offset (in Vdd units) that every SA has by construction.
#: With zero process variation this makes all SAs resolve a precharged bitline
#: to '1', matching the paper's SPICE observation in Appendix C.
STRUCTURAL_SA_OFFSET = 0.142 * 0.1

#: Scale factor converting "percent process variation" into the standard
#: deviation of the SA input-referred offset, in Vdd units.  A variation level
#: of 4 % therefore corresponds to sigma = 0.004 Vdd.
OFFSET_SIGMA_PER_PERCENT = 0.001

#: Additional offset noise introduced per degree Celsius away from the nominal
#: 30 C operating point (thermal noise / mobility mismatch drift).
THERMAL_OFFSET_SIGMA_PER_DEGREE = 2.0e-5

#: Nominal temperature at which variation parameters are defined.
NOMINAL_TEMPERATURE_C = 30.0


@dataclass(frozen=True)
class VariationParameters:
    """Statistical description of process variation for one manufacturing lot.

    ``variation_percent`` follows the paper's Table 11 convention: it is the
    single knob that scales all mismatch sources.  The individual sigma fields
    allow finer control for ablation studies.
    """

    variation_percent: float = 4.0
    cell_cap_sigma: float = 0.05
    bitline_cap_sigma: float = 0.03
    leakage_sigma: float = 0.30
    wl_drive_sigma: float = 0.05

    @property
    def sa_offset_sigma(self) -> float:
        """Standard deviation of the SA input-referred offset (Vdd units)."""
        return self.variation_percent * OFFSET_SIGMA_PER_PERCENT

    def scaled(self, variation_percent: float) -> "VariationParameters":
        """Return a copy with a different headline variation percentage."""
        scale = variation_percent / max(self.variation_percent, 1e-12)
        return VariationParameters(
            variation_percent=variation_percent,
            cell_cap_sigma=self.cell_cap_sigma * scale,
            bitline_cap_sigma=self.bitline_cap_sigma * scale,
            leakage_sigma=self.leakage_sigma,
            wl_drive_sigma=self.wl_drive_sigma * scale,
        )


@dataclass(frozen=True)
class ComponentVariation:
    """Concrete variation sample for one cell + its sense amplifier."""

    sa_offset: float = STRUCTURAL_SA_OFFSET
    sa_offset_temp_coeff: float = 0.0
    cell_cap_factor: float = 1.0
    bitline_cap_factor: float = 1.0
    leakage_factor: float = 1.0
    wl_drive_factor: float = 1.0

    def sa_offset_at(self, temperature_c: float, rng: np.random.Generator | None = None) -> float:
        """Effective SA offset at ``temperature_c``.

        The offset drifts linearly with temperature through the per-component
        temperature coefficient, and (optionally) receives a small thermal
        noise sample when ``rng`` is given, modelling shot-to-shot noise.
        """
        delta_t = temperature_c - NOMINAL_TEMPERATURE_C
        offset = self.sa_offset + self.sa_offset_temp_coeff * delta_t
        if rng is not None and abs(delta_t) > 0:
            offset += rng.normal(0.0, THERMAL_OFFSET_SIGMA_PER_DEGREE * abs(delta_t))
        return offset


@dataclass
class VariationModel:
    """Samples :class:`ComponentVariation` instances from a parameter set.

    The model owns its RNG so that a chip (or a Monte Carlo engine) can draw a
    reproducible stream of component samples.
    """

    parameters: VariationParameters = field(default_factory=VariationParameters)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))

    def sample(self) -> ComponentVariation:
        """Draw one component sample."""
        params = self.parameters
        return ComponentVariation(
            sa_offset=STRUCTURAL_SA_OFFSET
            + self.rng.normal(0.0, params.sa_offset_sigma),
            sa_offset_temp_coeff=self.rng.normal(0.0, params.sa_offset_sigma * 2e-3),
            cell_cap_factor=_positive(self.rng.normal(1.0, params.cell_cap_sigma)),
            bitline_cap_factor=_positive(self.rng.normal(1.0, params.bitline_cap_sigma)),
            leakage_factor=_positive(self.rng.lognormal(0.0, params.leakage_sigma)),
            wl_drive_factor=_positive(self.rng.normal(1.0, params.wl_drive_sigma)),
        )

    def sample_many(self, count: int) -> list[ComponentVariation]:
        """Draw ``count`` independent component samples."""
        return [self.sample() for _ in range(count)]


def _positive(value: float, floor: float = 1e-3) -> float:
    """Clamp a sampled multiplicative factor away from zero/negative values."""
    return float(max(value, floor))
