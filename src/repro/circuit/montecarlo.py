"""Monte Carlo engine for process-variation sweeps (paper Table 11).

The paper evaluates CODIC-sigsa by running 100,000 SPICE Monte Carlo samples
per process-variation level and counting how many sense amplifiers resolve a
perfectly precharged bitline to '0' instead of the nominal '1'.  This module
reproduces that experiment with the behavioral model.

Two execution paths are provided:

* a *vectorized* path that uses the closed-form resolution rule of the SA
  (sign of the effective offset) -- this is what the table-scale sweeps use;
* a *full-simulation* path that runs the time-stepped circuit simulator for a
  subset of samples, used by the tests to check that both paths agree.

The vectorized path draws its offsets in fixed canonical *blocks* of
:data:`MC_SAMPLE_BLOCK` samples.  Block ``b`` of a sweep point always uses
the stream ``point_seed(...).spawn()[b]`` (addressed directly via its spawn
key), and a sample's flip decision depends only on its absolute index -- so
any partition of the sample range into shards, executed on any workers in
any order, merges to exactly the serial result.  This is what lets
``repro.engine`` split one 100,000-sample Table 11 point across a process
pool (and cache the shards individually) without changing a single bit of
the output.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from repro.circuit.components import CircuitConstants
from repro.circuit.process_variation import (
    NOMINAL_TEMPERATURE_C,
    STRUCTURAL_SA_OFFSET,
    THERMAL_OFFSET_SIGMA_PER_DEGREE,
    VariationModel,
    VariationParameters,
)
from repro.circuit.simulator import CellCircuitSimulator
from repro.circuit.waveform import ControlWaveforms


def _float_entropy(value: float) -> int:
    """Lossless integer encoding of a float for ``SeedSequence`` entropy."""
    return int.from_bytes(struct.pack("<d", float(value)), "little")


#: Samples per canonical RNG block of the vectorized Monte Carlo path.  Each
#: block owns an independent ``SeedSequence`` spawn child of the point seed,
#: which makes flip counts independent of how a sample range is partitioned
#: into shards.  Changing this constant changes the sampled offsets (it is
#: part of the deterministic scheme, like the seed itself).
MC_SAMPLE_BLOCK = 8192


@dataclass(frozen=True)
class MonteCarloResult:
    """Result of one Monte Carlo sweep point."""

    variation_percent: float
    temperature_c: float
    samples: int
    bit_flips: int

    @property
    def flip_rate(self) -> float:
        """Fraction of samples that flipped away from the nominal value."""
        return self.bit_flips / self.samples if self.samples else 0.0

    @property
    def flip_percent(self) -> float:
        """Flip rate expressed in percent, as reported in Table 11."""
        return 100.0 * self.flip_rate


@dataclass
class MonteCarloEngine:
    """Runs SA-offset Monte Carlo sweeps for CODIC-sigsa-style commands."""

    seed: int = 12345
    samples: int = 100_000
    constants: CircuitConstants = field(default_factory=CircuitConstants)

    def sweep_variation(
        self,
        variation_percents: list[float],
        temperature_c: float = NOMINAL_TEMPERATURE_C,
    ) -> list[MonteCarloResult]:
        """Flip rates across process-variation levels at a fixed temperature."""
        return [
            self.run_point(percent, temperature_c) for percent in variation_percents
        ]

    def sweep_temperature(
        self,
        temperatures_c: list[float],
        variation_percent: float = 4.0,
    ) -> list[MonteCarloResult]:
        """Flip rates across temperatures at a fixed process-variation level."""
        return [
            self.run_point(variation_percent, temperature)
            for temperature in temperatures_c
        ]

    def point_seed(
        self, variation_percent: float, temperature_c: float
    ) -> np.random.SeedSequence:
        """Collision-free seed for one sweep point.

        The sweep coordinates enter the entropy tuple as their exact IEEE-754
        bit patterns, so distinct points (including fractional temperatures)
        never share a stream and per-point jobs can run on any worker while
        remaining bit-identical to the serial sweep.
        """
        return np.random.SeedSequence(
            entropy=(
                self.seed,
                _float_entropy(variation_percent),
                _float_entropy(temperature_c),
            )
        )

    def block_seed(
        self, variation_percent: float, temperature_c: float, block: int
    ) -> np.random.SeedSequence:
        """Stream of canonical block ``block`` of one sweep point.

        Addressed directly by spawn key: this is the ``block``-th child that
        ``point_seed(...).spawn(...)`` would produce, without the stateful
        spawn counter, so shards can materialize any block independently.
        """
        return np.random.SeedSequence(
            entropy=self.point_seed(variation_percent, temperature_c).entropy,
            spawn_key=(block,),
        )

    def shard_flips(
        self, variation_percent: float, temperature_c: float, start: int, stop: int
    ) -> int:
        """Bit flips among samples ``[start, stop)`` of one sweep point.

        A sample flips when its effective SA offset (static mismatch plus
        thermal drift) is negative, i.e. the SA resolves the precharged
        bitline to 0 instead of the structural default of 1.  Each sample's
        offset comes from its canonical block stream, so
        ``shard_flips(v, t, 0, n) == sum(shard_flips over any partition of
        [0, n))`` -- bit-for-bit, for any shard boundaries.
        """
        if not 0 <= start <= stop:
            raise ValueError(f"invalid sample range [{start}, {stop})")
        if start == stop:
            return 0
        parameters = VariationParameters(variation_percent=variation_percent)
        delta_t = abs(temperature_c - NOMINAL_TEMPERATURE_C)
        thermal_sigma = THERMAL_OFFSET_SIGMA_PER_DEGREE * delta_t
        flips = 0
        first_block = start // MC_SAMPLE_BLOCK
        last_block = (stop - 1) // MC_SAMPLE_BLOCK
        for block in range(first_block, last_block + 1):
            base = block * MC_SAMPLE_BLOCK
            rng = np.random.default_rng(
                self.block_seed(variation_percent, temperature_c, block)
            )
            # Always draw the full block so a sample's offset depends only on
            # its absolute index, never on the shard boundaries around it.
            offsets = STRUCTURAL_SA_OFFSET + rng.normal(
                0.0, parameters.sa_offset_sigma, size=MC_SAMPLE_BLOCK
            )
            if delta_t > 0:
                offsets = offsets + rng.normal(
                    0.0, thermal_sigma, size=MC_SAMPLE_BLOCK
                )
            lo = max(start - base, 0)
            hi = min(stop - base, MC_SAMPLE_BLOCK)
            flips += int(np.count_nonzero(offsets[lo:hi] < 0.0))
        return flips

    def run_point(
        self, variation_percent: float, temperature_c: float
    ) -> MonteCarloResult:
        """Vectorized Monte Carlo at one (variation, temperature) point.

        Runs the canonical block scheme over the full sample range, so the
        result is identical to merging :meth:`shard_flips` over any
        partition of ``[0, samples)``.
        """
        flips = self.shard_flips(variation_percent, temperature_c, 0, self.samples)
        return MonteCarloResult(
            variation_percent=variation_percent,
            temperature_c=temperature_c,
            samples=self.samples,
            bit_flips=flips,
        )

    def run_point_full_simulation(
        self,
        variation_percent: float,
        temperature_c: float,
        waveforms: ControlWaveforms,
        samples: int = 200,
    ) -> MonteCarloResult:
        """Slow path: run the full circuit simulator for each sample.

        Used by tests to verify that the vectorized shortcut agrees with the
        time-stepped dynamics for the CODIC-sigsa waveform.
        """
        rng = np.random.default_rng(self.seed)
        model = VariationModel(
            parameters=VariationParameters(variation_percent=variation_percent),
            rng=rng,
        )
        simulator = CellCircuitSimulator(constants=self.constants)
        flips = 0
        for _ in range(samples):
            variation = model.sample()
            result = simulator.run(
                waveforms,
                initial_cell_voltage=self.constants.vpre,
                variation=variation,
                temperature_c=temperature_c,
                record=False,
            )
            if result.final_bitline_value == 0:
                flips += 1
        return MonteCarloResult(
            variation_percent=variation_percent,
            temperature_c=temperature_c,
            samples=samples,
            bit_flips=flips,
        )
