"""PUF abstractions: challenges, responses and the DRAM PUF interface.

Following the paper, a *challenge* is the address and size of a memory
segment, and the *response* is the set of cell addresses (bit positions
within the segment) that exhibit the PUF's characteristic behaviour
(minority amplification value for CODIC-sig, access failures for the
latency-based PUFs).

Responses are **array-native**: the position set is stored as a sorted
``np.int64`` array (see :mod:`repro.puf.positions`) so Jaccard comparisons
and filtering reduce to sorted-array set operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol

import numpy as np

from repro.dram.module import DRAMModule, SegmentAddress
from repro.puf.positions import (
    as_position_array,
    check_canonical,
    jaccard_index_arrays,
    positions_equal,
)


@dataclass(frozen=True)
class Challenge:
    """A PUF challenge: which memory segment to evaluate."""

    segment: SegmentAddress
    #: Size of the segment in bytes (the paper uses 8 KB segments).
    size_bytes: int = 8192

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("segment size must be positive")

    @classmethod
    def random(cls, module: DRAMModule, rng: np.random.Generator,
               size_bytes: int = 8192) -> "Challenge":
        """Draw a random challenge addressing one segment of ``module``."""
        return cls(segment=module.random_segment(rng), size_bytes=size_bytes)


class PUFResponse:
    """A PUF response: the set of characteristic bit positions of a segment.

    The representation is :attr:`position_array`, a sorted unique
    ``np.int64`` array.  Construct from a position set or from that array::

        PUFResponse(positions={3, 17}, challenge=challenge)
        PUFResponse(position_array=sorted_array, challenge=challenge)

    The ``position_array`` keyword is the fast path: the array must already
    be canonical (sorted, duplicate-free -- validated in O(n)).  The input is
    copied unless it is a read-only array that *owns its data*; freezing a
    freshly built array with ``setflags(write=False)`` skips the copy.
    Passing a frozen array is a buffer-sharing promise: the caller must not
    re-enable writeability and mutate it afterwards (numpy cannot prevent
    that), or the stored hashable response is corrupted.
    """

    __slots__ = ("position_array", "challenge", "temperature_c")

    def __init__(
        self,
        positions: "frozenset[int] | set[int] | Iterable[int] | None" = None,
        challenge: Challenge | None = None,
        temperature_c: float = 30.0,
        *,
        position_array: np.ndarray | None = None,
    ) -> None:
        if challenge is None:
            raise TypeError("PUFResponse requires a challenge")
        if position_array is not None:
            if positions is not None:
                raise TypeError("pass either positions or position_array, not both")
            array = check_canonical(position_array)
        elif positions is not None:
            array = as_position_array(positions)
            if not isinstance(positions, np.ndarray):
                # Materialized fresh from a set/iterable: freeze in place
                # instead of paying a second allocation in the copy below.
                array.setflags(write=False)
        else:
            raise TypeError("PUFResponse requires positions or position_array")
        if array.flags.writeable or not array.flags.owndata:
            # A read-only *view* is not immutable (its base may be writable),
            # so only read-only owning arrays are stored without copying.
            array = array.copy()
        array.setflags(write=False)
        self.position_array = array
        self.challenge = challenge
        self.temperature_c = temperature_c

    def __setattr__(self, name: str, value: object) -> None:
        # Immutable after construction (responses are hashable): temperature_c
        # is the last slot __init__ fills, so once it is set every write fails.
        if hasattr(self, "temperature_c"):
            raise AttributeError(f"PUFResponse is immutable; cannot set {name!r}")
        object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return int(self.position_array.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PUFResponse):
            return NotImplemented
        return (
            self.challenge == other.challenge
            and self.temperature_c == other.temperature_c
            and positions_equal(self.position_array, other.position_array)
        )

    def __hash__(self) -> int:
        return hash(
            (self.challenge, self.temperature_c, self.position_array.tobytes())
        )

    def __repr__(self) -> str:
        return (
            f"PUFResponse(len={len(self)}, challenge={self.challenge!r}, "
            f"temperature_c={self.temperature_c!r})"
        )

    def jaccard_with(self, other: "PUFResponse") -> float:
        """Jaccard similarity with another response."""
        return jaccard_index_arrays(self.position_array, other.position_array)

    def matches(self, other: "PUFResponse") -> bool:
        """Exact-match comparison (used by no-filter authentication)."""
        return positions_equal(self.position_array, other.position_array)


class DRAMPUF(Protocol):
    """Interface shared by all DRAM PUF implementations."""

    #: Human-readable name used in reports and plots.
    name: str

    def evaluate(
        self,
        challenge: Challenge,
        temperature_c: float = 30.0,
        rng: np.random.Generator | None = None,
    ) -> PUFResponse:
        """Produce one (possibly filtered) response to ``challenge``."""
        ...  # pragma: no cover - protocol definition

    def evaluation_passes(self) -> int:
        """Number of raw segment evaluations one response requires."""
        ...  # pragma: no cover - protocol definition
