"""The DRAM Latency PUF baseline (Kim et al., HPCA 2018).

The DRAM Latency PUF accesses a segment with a strongly reduced tRCD
(2.5 ns in the paper's comparison); cells that cannot be read reliably under
that timing fail, and the addresses of the failing cells form the response.
Because individual failures are probabilistic, the mechanism reads the
segment 100 times and keeps only cells that failed more than 90 times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dram.module import DRAMModule
from repro.puf.base import Challenge, PUFResponse
from repro.utils.rng import make_rng


@dataclass
class DRAMLatencyPUF:
    """Reduced-tRCD failure PUF with heavy filtering."""

    module: DRAMModule
    trcd_ns: float = 2.5
    #: Number of reads the filtering mechanism performs.
    filter_reads: int = 100
    #: Minimum number of observed failures for a cell to enter the response.
    filter_threshold: int = 90
    name: str = "DRAM Latency PUF"
    noise_seed: int = 202

    #: Count of default-seeded raw evaluations; bookkeeping only (excluded
    #: from equality/repr, untouched when the caller supplies an rng).
    _evaluations: int = field(default=0, compare=False, repr=False)

    def evaluation_passes(self) -> int:
        """Raw segment evaluations needed per response."""
        return self.filter_reads

    def evaluate(
        self,
        challenge: Challenge,
        temperature_c: float = 30.0,
        rng: np.random.Generator | None = None,
    ) -> PUFResponse:
        """Evaluate the PUF on one challenge (filtered response).

        Routes through the fused counting kernel
        (:meth:`repro.dram.module.DRAMModule.rcd_filtered_response` with a
        live rng: one rank-wide binomial draw over the memoized segment
        profile), bit-identical to :meth:`evaluate_scalar`, the per-chip
        reference loop the tests compare it against.
        """
        if rng is None:
            self._evaluations += 1
            noise_rng = make_rng(self.noise_seed, "latency-puf", self._evaluations)
        else:
            noise_rng = rng
        positions = self.module.rcd_filtered_response(
            challenge.segment,
            trcd_ns=self.trcd_ns,
            reads=self.filter_reads,
            threshold=self.filter_threshold,
            temperature_c=temperature_c,
            rng=noise_rng,
        )
        # Freshly built and unaliased: freeze in place so PUFResponse takes
        # the zero-copy fast path.
        positions.setflags(write=False)
        return PUFResponse(
            position_array=positions, challenge=challenge, temperature_c=temperature_c
        )

    def evaluate_scalar(
        self,
        challenge: Challenge,
        temperature_c: float = 30.0,
        rng: np.random.Generator | None = None,
    ) -> PUFResponse:
        """Scalar reference loop: per-chip profile shift and binomial draws."""
        if rng is None:
            self._evaluations += 1
            noise_rng = make_rng(self.noise_seed, "latency-puf", self._evaluations)
        else:
            noise_rng = rng
        positions = self.module.rcd_filtered_response_scalar(
            challenge.segment,
            trcd_ns=self.trcd_ns,
            reads=self.filter_reads,
            threshold=self.filter_threshold,
            temperature_c=temperature_c,
            rng=noise_rng,
        )
        positions.setflags(write=False)
        return PUFResponse(
            position_array=positions, challenge=challenge, temperature_c=temperature_c
        )

    def evaluate_unfiltered(
        self,
        challenge: Challenge,
        temperature_c: float = 30.0,
        rng: np.random.Generator | None = None,
    ) -> PUFResponse:
        """One raw (single-read) response, without the filtering mechanism.

        The paper notes that a lightly-filtered Latency PUF would be fast but
        of much lower quality; this method exposes that configuration for the
        quality-versus-latency ablation.
        """
        if rng is None:
            self._evaluations += 1
            noise_rng = make_rng(self.noise_seed, "latency-puf-raw", self._evaluations)
        else:
            noise_rng = rng
        positions = self.module.rcd_response(
            challenge.segment,
            trcd_ns=self.trcd_ns,
            temperature_c=temperature_c,
            rng=noise_rng,
        )
        positions.setflags(write=False)
        return PUFResponse(
            position_array=positions, challenge=challenge, temperature_c=temperature_c
        )
