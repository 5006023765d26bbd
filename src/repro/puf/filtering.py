"""Response filtering mechanisms.

Raw DRAM PUF observations are noisy: a cell that usually exhibits the
characteristic behaviour may occasionally not, and vice versa.  The paper
distinguishes between the *heavy* filtering the DRAM Latency PUF needs
(100 reads, keep cells failing more than 90 times) and the *lightweight*
filter that is sufficient for CODIC-sig and PreLatPUF (5 reads).  Both reduce
to set combinators over repeated observations, implemented here as vectorized
operations over sorted position arrays (:mod:`repro.puf.positions`).
Observations may be given as arrays or as Python sets; the result is always a
canonical sorted ``np.int64`` array.

The multi-read module kernels (:meth:`repro.dram.module.DRAMModule.
sig_response_multi` and friends) use the *counting formulation* of these
combinators: every per-pass observation array is unique, so one
``np.unique(return_counts=True)`` over the concatenated passes replaces the
pairwise :func:`intersect_filter` reduction (keep ``counts == passes``) and
directly generalizes :func:`majority_filter` (keep ``counts > threshold``).
The PUF classes route their ``evaluate`` methods through those kernels; the
CODIC-sig and PreLat ``evaluate_scalar`` reference loops still reduce their
per-pass observations with :func:`intersect_filter`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.puf.positions import as_position_array, intersect_positions


def majority_filter(
    observations: "Sequence[np.ndarray | frozenset[int] | set[int]]",
    threshold: int | None = None,
) -> np.ndarray:
    """Keep positions that appear in more than ``threshold`` observations.

    With the default threshold (strict majority), a position must appear in
    more than half of the observations.  The DRAM Latency PUF uses 100
    observations with a threshold of 90.  Implemented as one
    ``np.unique(..., return_counts=True)`` over the concatenated observation
    arrays.
    """
    if not observations:
        raise ValueError("at least one observation is required")
    if threshold is None:
        threshold = len(observations) // 2
    if not 0 <= threshold < len(observations):
        raise ValueError(
            f"threshold {threshold} must be in [0, {len(observations) - 1}]"
        )
    concatenated = np.concatenate(
        [as_position_array(observation) for observation in observations]
    )
    positions, counts = np.unique(concatenated, return_counts=True)
    return positions[counts > threshold]


def intersect_filter(
    observations: "Iterable[np.ndarray | frozenset[int] | set[int]]",
) -> np.ndarray:
    """Keep only positions present in *every* observation.

    This is the conservative filter the paper applies to CODIC-sig and
    PreLatPUF responses ("a conservative filter of 5 challenges for
    generating always the same response"): the resulting response contains
    only perfectly repeatable positions.  Implemented as a reduction with
    ``np.intersect1d(assume_unique=True)`` over sorted observation arrays.
    """
    result: np.ndarray | None = None
    reduced = False
    for observation in observations:
        array = as_position_array(observation)
        if result is None:
            result = array
        else:
            result = intersect_positions(result, array)
            reduced = True
    if result is None:
        raise ValueError("at least one observation is required")
    if not reduced:
        # A single observation would be returned as the caller's own array
        # (as_position_array passes canonical ndarrays through); copy so the
        # result is always an independent array, like every multi-observation
        # path.
        result = result.copy()
    return result
