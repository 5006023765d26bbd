"""The PreLatPUF baseline (Talukder et al., IEEE Access 2019).

PreLatPUF generates responses from failures induced by a strongly reduced
precharge latency (tRP = 2.5 ns in the paper's comparison).  The failures are
dominated by per-column sense-amplifier behaviour, which makes the responses
very repeatable (good Intra-Jaccard) but poorly unique across segments of the
same device (dispersed Inter-Jaccard), exactly the trade-off visible in the
paper's Figure 5.

As in the paper's methodology, the per-cell selection mechanism proposed by
the PreLatPUF authors is *not* applied: the goal is to compare the quality of
the underlying failure mechanisms under the same conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dram.module import DRAMModule
from repro.puf.base import Challenge, PUFResponse
from repro.puf.filtering import intersect_filter
from repro.utils.rng import make_rng


@dataclass
class PreLatPUF:
    """Reduced-tRP failure PUF with lightweight filtering."""

    module: DRAMModule
    trp_ns: float = 2.5
    #: Number of repeated evaluations combined by the lightweight filter
    #: (``1`` disables filtering).
    filter_passes: int = 5
    name: str = "PreLatPUF"
    noise_seed: int = 303

    #: Count of default-seeded raw evaluations; bookkeeping only (excluded
    #: from equality/repr, untouched when the caller supplies an rng).
    _evaluations: int = field(default=0, compare=False, repr=False)

    def evaluation_passes(self) -> int:
        """Raw segment evaluations needed per response."""
        return self.filter_passes

    def evaluate(
        self,
        challenge: Challenge,
        temperature_c: float = 30.0,
        rng: np.random.Generator | None = None,
    ) -> PUFResponse:
        """Evaluate the PUF on one challenge.

        Routes through the coalesced multi-read kernel
        (:meth:`repro.dram.module.DRAMModule.rp_response_multi`), which is
        bit-identical to :meth:`evaluate_scalar`, the reference loop the
        tests compare it against.
        """
        passes = self.filter_passes
        if rng is None:
            # Advance the bookkeeping counter exactly as the scalar loop's
            # per-pass `_single_pass` calls would, so default-seeded noise
            # sequences stay reproducible across both paths.
            rngs = []
            for pass_index in range(passes):
                self._evaluations += 1
                rngs.append(
                    make_rng(self.noise_seed, "prelat-puf", self._evaluations, pass_index)
                )
        else:
            rngs = [rng] * passes
        positions = self.module.rp_response_multi(
            challenge.segment,
            passes,
            trp_ns=self.trp_ns,
            temperature_c=temperature_c,
            rngs=rngs,
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
        """Scalar reference loop: per-pass reads reduced by `intersect_filter`."""
        observations = [
            self._single_pass(challenge, temperature_c, rng, pass_index)
            for pass_index in range(self.filter_passes)
        ]
        if len(observations) == 1:
            positions = observations[0]
        else:
            positions = intersect_filter(observations)
        # Freshly built and unaliased: freeze in place so PUFResponse takes
        # the zero-copy fast path.
        positions.setflags(write=False)
        return PUFResponse(
            position_array=positions, challenge=challenge, temperature_c=temperature_c
        )

    def _single_pass(
        self,
        challenge: Challenge,
        temperature_c: float,
        rng: np.random.Generator | None,
        pass_index: int,
    ) -> np.ndarray:
        if rng is None:
            self._evaluations += 1
            noise_rng = make_rng(
                self.noise_seed, "prelat-puf", self._evaluations, pass_index
            )
        else:
            noise_rng = rng
        return self.module.rp_response(
            challenge.segment,
            trp_ns=self.trp_ns,
            temperature_c=temperature_c,
            rng=noise_rng,
        )
