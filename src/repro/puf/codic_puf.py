"""The CODIC-sig PUF (Section 5.1).

Evaluating the PUF on a segment consists of:

1. issuing a CODIC-sig command to every row of the segment (driving the
   cells to Vdd/2),
2. issuing a regular activation, which amplifies each cell to 0 or 1
   depending on process variation,
3. reading the segment and taking the addresses of the minority ('1') cells
   as the response.

Because the responses are highly stable, the PUF works with a lightweight
filter (a handful of repeated evaluations intersected together) or with no
filter at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dram.module import DRAMModule
from repro.puf.base import Challenge, PUFResponse
from repro.puf.filtering import intersect_filter
from repro.utils.rng import make_rng


@dataclass
class CODICSigPUF:
    """CODIC-sig based DRAM PUF."""

    module: DRAMModule
    #: Number of repeated evaluations combined by the lightweight filter.
    #: ``1`` disables filtering (the "w/o filter" configuration of Table 4).
    filter_passes: int = 5
    name: str = "CODIC-sig PUF"
    #: Seed stream for read noise (each evaluation draws fresh noise).
    noise_seed: int = 101

    #: Count of default-seeded raw evaluations; bookkeeping only, so it is
    #: excluded from equality and repr (cache fingerprints stay clean) and
    #: untouched when the caller supplies its own rng.
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

        Routes through the multi-read counting kernel
        (:meth:`repro.dram.module.DRAMModule.sig_response_multi`), which is
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
                    make_rng(self.noise_seed, "codic-sig", self._evaluations, pass_index)
                )
        else:
            rngs = [rng] * passes
        positions = self.module.sig_response_multi(
            challenge.segment, passes, temperature_c=temperature_c, rngs=rngs
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
                self.noise_seed, "codic-sig", self._evaluations, pass_index
            )
        else:
            noise_rng = rng
        return self.module.sig_response(
            challenge.segment, temperature_c=temperature_c, rng=noise_rng
        )
