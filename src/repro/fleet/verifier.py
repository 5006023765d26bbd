"""The fleet verifier: an array-native store of golden responses.

During enrollment the verifier evaluates each device's challenges once at the
reference temperature and stores the *golden* responses.  The store is
array-native in the same sense as the response pipeline
(:mod:`repro.puf.positions`): all golden position sets live concatenated in
one growable ``int64`` buffer, with a slot table mapping
``(device_id, challenge_index)`` to its ``[start, stop)`` slice -- no Python
sets, no per-response ndarray objects.

Because golden responses are pure functions of the fleet config (device
``i``'s ``k``-th golden response is the PUF evaluated on the challenge at
stream ``("challenge", i, k)`` with the noise stream ``("enroll", i, k)``),
the verifier enrolls **lazily**: a traffic shard that authenticates against
device 8231 materializes that device's golden responses on first use, and
the stored values are the same whichever shard, process or request order
enrolled them first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.fleet.devices import DeviceFleet
from repro.puf.base import PUFResponse
from repro.puf.positions import (
    jaccard_index_arrays,
    jaccard_index_batch,
    positions_equal,
)

#: Initial capacity of the store's position buffer.
_INITIAL_CAPACITY = 256


class GoldenStore:
    """Array-native storage of golden responses.

    One growable sorted-positions buffer plus a slot table; ``get`` returns a
    read-only slice (zero copies on the verification hot path).
    """

    __slots__ = ("_positions", "_size", "_slots")

    def __init__(self) -> None:
        self._positions = np.empty(_INITIAL_CAPACITY, dtype=np.int64)
        self._size = 0
        self._slots: dict[tuple[int, int], tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, key: tuple[int, int]) -> bool:
        return key in self._slots

    @property
    def total_positions(self) -> int:
        """Total stored golden positions across all slots."""
        return self._size

    def add(
        self, device_id: int, challenge_index: int, positions: np.ndarray
    ) -> None:
        """Store one golden position array (sorted unique ``int64``)."""
        key = (device_id, challenge_index)
        if key in self._slots:
            raise KeyError(f"golden response for {key} already enrolled")
        block = np.asarray(positions, dtype=np.int64)
        needed = self._size + block.size
        if needed > self._positions.size:
            capacity = max(self._positions.size * 2, needed, _INITIAL_CAPACITY)
            grown = np.empty(capacity, dtype=np.int64)
            grown[: self._size] = self._positions[: self._size]
            self._positions = grown
        self._positions[self._size : needed] = block
        self._slots[key] = (self._size, needed)
        self._size = needed

    def get(self, device_id: int, challenge_index: int) -> np.ndarray | None:
        """Read-only golden position slice, or ``None`` when not enrolled."""
        slot = self._slots.get((device_id, challenge_index))
        if slot is None:
            return None
        view = self._positions[slot[0] : slot[1]]
        view.setflags(write=False)
        return view

    def get_many(
        self, keys: "Iterable[tuple[int, int]]"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Golden slices of ``keys``, gathered into batch ``(buffer, offsets)``.

        The returned buffer concatenates the slot slices in the given key
        order (repeated keys are gathered repeatedly), ready for
        :func:`repro.puf.positions.jaccard_index_batch`.  Raises ``KeyError``
        on the first key without an enrolled slot.
        """
        slots = []
        for key in keys:
            slot = self._slots.get(key)
            if slot is None:
                raise KeyError(f"golden response for {key} is not enrolled")
            slots.append(slot)
        offsets = np.zeros(len(slots) + 1, dtype=np.int64)
        if slots:
            np.cumsum([stop - start for start, stop in slots], out=offsets[1:])
        buffer = np.empty(int(offsets[-1]), dtype=np.int64)
        for index, (start, stop) in enumerate(slots):
            buffer[offsets[index] : offsets[index + 1]] = self._positions[start:stop]
        return buffer, offsets


@dataclass
class FleetVerifier:
    """Enrollment registry plus golden-response matcher for one fleet."""

    fleet: DeviceFleet
    store: GoldenStore = field(default_factory=GoldenStore)

    # ------------------------------------------------------------------
    # Enrollment
    # ------------------------------------------------------------------
    def enroll(self, device_id: int, challenge_index: int) -> np.ndarray:
        """Enroll one (device, challenge): evaluate and store the golden."""
        config = self.fleet.config
        device = self.fleet.device(device_id)
        response = device.evaluate(
            self.fleet.challenge(device_id, challenge_index),
            config.enroll_temperature_c,
            rng=self.fleet.enrollment_rng(device_id, challenge_index),
        )
        self.store.add(device_id, challenge_index, response.position_array)
        return self.store.get(device_id, challenge_index)

    def golden(self, device_id: int, challenge_index: int) -> np.ndarray:
        """Golden positions of one (device, challenge), enrolling lazily.

        The enrolled array is a function of the fleet config alone, not of
        which slots were enrolled before it, so shards may materialize only
        the devices their requests touch.
        """
        golden = self.store.get(device_id, challenge_index)
        if golden is None:
            golden = self.enroll(device_id, challenge_index)
        return golden

    def golden_many(
        self, keys: "list[tuple[int, int]]"
    ) -> tuple[np.ndarray, np.ndarray]:
        """Golden slices of many ``(device, challenge)`` keys, batch form.

        Missing slots are enrolled lazily first, grouped by device so one
        device build covers all of its missing challenges; the gathered
        values are identical to per-key :meth:`golden` calls (enrollment
        streams are independent of gather order).
        """
        missing: dict[int, list[int]] = {}
        for device_id, challenge_index in dict.fromkeys(keys):
            if (device_id, challenge_index) not in self.store:
                missing.setdefault(device_id, []).append(challenge_index)
        for device_id in sorted(missing):
            for challenge_index in missing[device_id]:
                self.enroll(device_id, challenge_index)
        return self.store.get_many(keys)

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def similarity(
        self, device_id: int, challenge_index: int, response: PUFResponse
    ) -> float:
        """Jaccard similarity of a candidate response to the golden one."""
        return jaccard_index_arrays(
            self.golden(device_id, challenge_index), response.position_array
        )

    def similarity_batch(
        self,
        keys: "list[tuple[int, int]]",
        candidates: np.ndarray,
        candidate_offsets: np.ndarray,
    ) -> np.ndarray:
        """Jaccard similarities of a batch of candidates to their goldens.

        ``candidates``/``candidate_offsets`` is the concatenated batch form
        of :func:`repro.puf.positions.concat_position_arrays`; slice ``i`` is
        matched against the golden of ``keys[i]``.  Bit-identical to looping
        :meth:`similarity` (one float64 per request, same integer-ratio
        division), which is what lets the batched traffic kernel replace the
        scalar one without perturbing any recorded similarity.
        """
        golden, golden_offsets = self.golden_many(keys)
        return jaccard_index_batch(
            golden, golden_offsets, candidates, candidate_offsets
        )

    def verify(
        self,
        device_id: int,
        challenge_index: int,
        response: PUFResponse,
        acceptance_threshold: float = 1.0,
    ) -> bool:
        """Accept or reject a candidate response.

        Mirrors :class:`repro.puf.authentication.AuthenticationProtocol`:
        a threshold of ``1.0`` is exact matching, anything lower accepts at
        ``jaccard >= threshold``.
        """
        if not 0.0 <= acceptance_threshold <= 1.0:
            raise ValueError(
                "acceptance_threshold must be in [0, 1], got "
                f"{acceptance_threshold}"
            )
        golden = self.golden(device_id, challenge_index)
        if acceptance_threshold >= 1.0:
            return positions_equal(golden, response.position_array)
        return (
            jaccard_index_arrays(golden, response.position_array)
            >= acceptance_threshold
        )
