"""DRAM module (DIMM): a rank of chips operated in lockstep.

A module-level row is the concatenation of the per-chip rows of every chip in
the rank.  The PUF evaluation operates on 8 KB *memory segments*, which for
the x8, 8-chip modules of the paper correspond exactly to one module row, so
the module exposes segment-granular signature / failure reads that aggregate
the per-chip responses with the appropriate bit offsets.

The multi-read entry points (:meth:`DRAMModule.sig_response_multi`,
:meth:`DRAMModule.rp_response_multi`, and the counting-kernel
:meth:`DRAMModule.rcd_filtered_response`) evaluate a whole filtered response
in one pass -- per-chip profile memos and hoisted read state derived once per
call, all per-read noise drawn from the supplied generators in the exact
scalar order -- and are bit-identical to the per-chip scalar loops.  One of
those stays here: :meth:`DRAMModule.rcd_filtered_response_scalar` is both
the reference the tests compare the counting kernel against and the live
path when no generator is supplied.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.signals import SignalSchedule
from repro.core.variants import VariantFunction
from repro.dram.chip import DRAMChip, VendorProfile, VENDOR_PROFILES, _ProfileMemo
from repro.dram.geometry import DRAMGeometry, ModuleGeometry, STANDARD_CHIP_GEOMETRIES
from repro.utils.rng import derive_seed


#: Byte budget of the module-level segment-profile memo.  One warm entry is a
#: whole rank's concatenated profile (~32 KB for the paper's 8-chip DDR3
#: modules), and the warm regimes this memo serves (daemon steady state,
#: warm fleet replays, pair-block replays) revisit hundreds of distinct rows
#: -- a per-chip-sized budget would thrash before a block replay completes.
SEGMENT_PROFILE_MEMO_BYTES = 4 * 1024 * 1024


@dataclass(frozen=True)
class SegmentAddress:
    """Address of one PUF memory segment (= one module row)."""

    bank: int
    row: int

    def as_tuple(self) -> tuple[int, int]:
        """(bank, row) tuple, convenient for dictionary keys."""
        return (self.bank, self.row)


@dataclass
class DRAMModule:
    """A module: ``chips_per_rank`` chips sharing command/address signals."""

    module_id: str
    chip_geometry: DRAMGeometry = field(
        default_factory=lambda: STANDARD_CHIP_GEOMETRIES["4Gb_x8"]
    )
    chips_per_rank: int = 8
    ranks: int = 1
    vendor: VendorProfile = field(default_factory=lambda: VENDOR_PROFILES["A"])
    voltage: float = 1.35
    data_rate_mt_s: int = 1600
    seed: int = 0
    chips: list[DRAMChip] = field(init=False)

    def __post_init__(self) -> None:
        self.chips = [
            DRAMChip(
                chip_id=f"{self.module_id}.chip{i}",
                geometry=self.chip_geometry,
                vendor=self.vendor,
                voltage=self.voltage,
                seed=derive_seed(self.seed, "module", self.module_id, "chip", i),
            )
            for i in range(self.chips_per_rank * self.ranks)
        ]
        # Memo of *concatenated* segment failure profiles (offset cells +
        # probabilities across the rank), so the multi-read kernels derive a
        # segment's profile once per (timing, rank) instead of touching every
        # chip memo on every evaluate.  Entries are deterministic, so a
        # wholesale clear never changes responses.
        self._segment_profile_cache = _ProfileMemo(SEGMENT_PROFILE_MEMO_BYTES)

    def reset_profile_memos(self) -> None:
        """Drop the segment-profile memo and every chip's profile memos.

        Responses are unchanged (the memos hold pure functions of seed,
        address and timing); used by cold-path benchmarks and memory-pressure
        escape hatches.  Each chip's per-chip variation is not a memo and
        stays (see :meth:`DRAMChip.reset_profile_memos`).
        """
        self._segment_profile_cache.clear()
        for chip in self.chips:
            chip.reset_profile_memos()

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def geometry(self) -> ModuleGeometry:
        """Module-level geometry."""
        return ModuleGeometry(
            chip=self.chip_geometry,
            chips_per_rank=self.chips_per_rank,
            ranks=self.ranks,
        )

    @property
    def capacity_bytes(self) -> int:
        """Total module capacity."""
        return self.geometry.capacity_bytes

    @property
    def segment_bits(self) -> int:
        """Size of one PUF segment (one module row) in bits."""
        return self.chip_geometry.row_bits * self.chips_per_rank

    @property
    def segment_bytes(self) -> int:
        """Size of one PUF segment in bytes (8 KB for the paper's modules)."""
        return self.segment_bits // 8

    def rank_chips(self, rank: int = 0) -> list[DRAMChip]:
        """Chips belonging to one rank."""
        if not 0 <= rank < self.ranks:
            raise ValueError(f"rank {rank} out of range (module has {self.ranks})")
        start = rank * self.chips_per_rank
        return self.chips[start : start + self.chips_per_rank]

    def random_segment(self, rng: np.random.Generator) -> SegmentAddress:
        """Draw a uniformly random segment address."""
        bank = int(rng.integers(0, self.chip_geometry.banks))
        row = int(rng.integers(0, self.chip_geometry.rows_per_bank))
        return SegmentAddress(bank=bank, row=row)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def write_segment(self, segment: SegmentAddress, bits: np.ndarray, rank: int = 0) -> None:
        """Write one module row across all chips of a rank."""
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (self.segment_bits,):
            raise ValueError(
                f"segment data must have {self.segment_bits} bits, got {bits.shape}"
            )
        per_chip = self.chip_geometry.row_bits
        for index, chip in enumerate(self.rank_chips(rank)):
            chip.write_row(
                segment.bank, segment.row, bits[index * per_chip : (index + 1) * per_chip]
            )

    def read_segment(
        self, segment: SegmentAddress, temperature_c: float = 30.0, rank: int = 0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Read one module row across all chips of a rank."""
        parts = [
            chip.read_row(segment.bank, segment.row, temperature_c, rng)
            for chip in self.rank_chips(rank)
        ]
        return np.concatenate(parts)

    def execute_codic(
        self,
        schedule: SignalSchedule,
        segment: SegmentAddress,
        temperature_c: float | None = None,
        rank: int = 0,
    ) -> VariantFunction:
        """Broadcast a CODIC schedule to every chip of a rank (one module row)."""
        function = VariantFunction.NOOP
        for chip in self.rank_chips(rank):
            function = chip.execute_codic(
                schedule, segment.bank, segment.row, temperature_c
            )
        return function

    # ------------------------------------------------------------------
    # Aggregated PUF primitives
    # ------------------------------------------------------------------
    def _aggregate(self, per_chip_positions: list[np.ndarray]) -> np.ndarray:
        """Concatenate per-chip position arrays with per-chip bit offsets.

        Each chip contributes a sorted unique array and the offsets grow with
        the chip index, so the concatenation is itself sorted and unique --
        the canonical array-native response representation
        (:mod:`repro.puf.positions`).
        """
        per_chip_bits = self.chip_geometry.row_bits
        parts = [
            chip_positions.astype(np.int64, copy=False) + (index * per_chip_bits)
            for index, chip_positions in enumerate(per_chip_positions)
            if chip_positions.size
        ]
        if not parts:
            return np.empty(0, dtype=np.int64)
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def sig_response(
        self,
        segment: SegmentAddress,
        temperature_c: float = 30.0,
        rng: np.random.Generator | None = None,
        rank: int = 0,
    ) -> np.ndarray:
        """CODIC-sig PUF response of one segment: sorted '1' bit positions."""
        return self._aggregate(
            [
                chip.sig_response(segment.bank, segment.row, temperature_c, rng)
                for chip in self.rank_chips(rank)
            ]
        )

    def sig_response_multi(
        self,
        segment: SegmentAddress,
        passes: int,
        temperature_c: float = 30.0,
        rngs: "list[np.random.Generator] | None" = None,
        rank: int = 0,
    ) -> np.ndarray:
        """Filtered CODIC-sig response: ``passes`` reads, intersection kept.

        One-pass counting kernel for the multi-read evaluate hot path.  Noise
        is drawn in exactly the scalar order -- pass-major, chip-minor, one
        generator per pass (repeat the same live generator to share one
        stream) -- with the per-chip weak-cell memo lookup and instability
        hoisted out of the read loop (:meth:`DRAMChip.sig_noise_state`).  The
        per-pass ``intersect_filter`` reduction is replaced by a single
        ``np.unique(return_counts=True)`` over the concatenated per-pass
        position arrays: every pass contributes a sorted *unique* array, so a
        position is in the intersection iff its count equals ``passes``.
        """
        if passes <= 0:
            raise ValueError(f"passes must be positive, got {passes}")
        if rngs is None or len(rngs) != passes:
            raise ValueError("rngs must supply exactly one generator per pass")
        per_chip_bits = self.chip_geometry.row_bits
        states = []
        for offset, chip, weak in self._sig_weak_parts(segment, rank):
            # Same float association as DRAMChip.sig_noise_state:
            # (instability * fraction) * row_bits.
            instability = chip._sig_instability(temperature_c)
            spurious_lam = (instability * chip.sig_weak_fraction) * per_chip_bits
            states.append((offset, chip, (weak, instability, spurious_lam)))
        parts: list[np.ndarray] = []
        for rng in rngs:
            for offset, chip, state in states:
                positions = chip.sig_read_from_state(state, rng)
                if positions.size:
                    parts.append(positions + offset)
        if not parts:
            return np.empty(0, dtype=np.int64)
        if passes == 1:
            return parts[0] if len(parts) == 1 else np.concatenate(parts)
        positions, counts = np.unique(np.concatenate(parts), return_counts=True)
        return positions[counts == passes]

    def rcd_response(
        self,
        segment: SegmentAddress,
        trcd_ns: float,
        temperature_c: float = 30.0,
        rng: np.random.Generator | None = None,
        rank: int = 0,
    ) -> np.ndarray:
        """DRAM Latency PUF raw response (one reduced-tRCD read)."""
        return self._aggregate(
            [
                chip.rcd_response(segment.bank, segment.row, trcd_ns, temperature_c, rng)
                for chip in self.rank_chips(rank)
            ]
        )

    def _sig_weak_parts(
        self, segment: SegmentAddress, rank: int
    ) -> tuple[tuple[int, DRAMChip, np.ndarray], ...]:
        """Per-chip ``(offset, chip, weak_cells)`` of one segment, memoized.

        The weak arrays stay per-chip (each read draws per-chip noise between
        them, so they cannot concatenate), but the module-level memo keeps a
        whole segment's worth resident through block replays that would
        thrash the byte-bounded per-chip memos.
        """
        key = ("sig", segment.bank, segment.row, rank)
        cached = self._segment_profile_cache.get(key)
        if cached is not None:
            return cached
        per_chip_bits = self.chip_geometry.row_bits
        parts = tuple(
            (index * per_chip_bits, chip, chip.sig_weak_cells(segment.bank, segment.row))
            for index, chip in enumerate(self.rank_chips(rank))
        )
        self._segment_profile_cache.put(
            key, parts, sum(part[2].nbytes for part in parts)
        )
        return parts

    def _concat_profile(
        self, kind: str, segment: SegmentAddress, timing_ns: float, rank: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rank-wide failure profile: offset cells + probabilities, memoized.

        Chips with an empty profile are skipped entirely, matching the scalar
        per-chip loops that return before consuming any noise draw for them.
        """
        key = (kind, segment.bank, segment.row, float(timing_ns), rank)
        cached = self._segment_profile_cache.get(key)
        if cached is not None:
            return cached
        per_chip_bits = self.chip_geometry.row_bits
        cell_parts: list[np.ndarray] = []
        prob_parts: list[np.ndarray] = []
        for index, chip in enumerate(self.rank_chips(rank)):
            if kind == "rcd":
                cells, probabilities = chip.rcd_failure_profile(
                    segment.bank, segment.row, timing_ns
                )
            else:
                cells, probabilities = chip.rp_failure_profile(
                    segment.bank, segment.row, timing_ns
                )
            if cells.size:
                cell_parts.append(cells + (index * per_chip_bits))
                prob_parts.append(probabilities)
        if not cell_parts:
            cells = np.empty(0, dtype=np.int64)
            probabilities = np.empty(0, dtype=np.float64)
        elif len(cell_parts) == 1:
            cells = cell_parts[0]
            probabilities = prob_parts[0]
        else:
            cells = np.concatenate(cell_parts)
            probabilities = np.concatenate(prob_parts)
        cells.setflags(write=False)
        probabilities.setflags(write=False)
        self._segment_profile_cache.put(
            key, (cells, probabilities), cells.nbytes + probabilities.nbytes
        )
        return cells, probabilities

    def rcd_filtered_response(
        self,
        segment: SegmentAddress,
        trcd_ns: float,
        reads: int,
        threshold: int,
        temperature_c: float = 30.0,
        rng: np.random.Generator | None = None,
        rank: int = 0,
    ) -> np.ndarray:
        """DRAM Latency PUF filtered response (``reads`` reads, keep > threshold).

        Counting kernel: with a supplied ``rng``, all per-chip per-read
        binomial failure-count draws fuse into one rank-wide
        ``rng.binomial`` over the memoized concatenated segment profile --
        bit-identical to the per-chip loop because binomial sampling consumes
        the stream element-wise in array order.  Without a supplied ``rng``
        every chip derives its own default noise stream, so the retained
        scalar loop runs instead.
        """
        if rng is None:
            return self.rcd_filtered_response_scalar(
                segment, trcd_ns, reads, threshold, temperature_c, rng, rank
            )
        cells, probabilities = self._concat_profile("rcd", segment, trcd_ns, rank)
        if cells.size == 0:
            return np.empty(0, dtype=np.int64)
        delta_t = temperature_c - 30.0
        if delta_t:
            shifted = probabilities + self.vendor.rcd_temp_sensitivity * delta_t
            shifted.clip(0.0, 1.0, out=shifted)
        else:
            # Profile probabilities are already clipped to [0.02, 0.98], so
            # the scalar path's "+ 0.0 then clip" is a value-level no-op.
            shifted = probabilities
        counts = rng.binomial(reads, shifted)
        return cells[counts > threshold]

    def rcd_filtered_response_scalar(
        self,
        segment: SegmentAddress,
        trcd_ns: float,
        reads: int,
        threshold: int,
        temperature_c: float = 30.0,
        rng: np.random.Generator | None = None,
        rank: int = 0,
    ) -> np.ndarray:
        """Scalar reference loop for :meth:`rcd_filtered_response`.

        Retained verbatim (per-chip profile lookup, shift, binomial): the
        byte-identity reference of the counting kernel, and the live path
        when no ``rng`` is supplied.
        """
        return self._aggregate(
            [
                chip.rcd_filtered_response(
                    segment.bank, segment.row, trcd_ns, reads, threshold,
                    temperature_c, rng,
                )
                for chip in self.rank_chips(rank)
            ]
        )

    def rp_response(
        self,
        segment: SegmentAddress,
        trp_ns: float,
        temperature_c: float = 30.0,
        rng: np.random.Generator | None = None,
        rank: int = 0,
    ) -> np.ndarray:
        """PreLatPUF raw response (one reduced-tRP access)."""
        return self._aggregate(
            [
                chip.rp_response(segment.bank, segment.row, trp_ns, temperature_c, rng)
                for chip in self.rank_chips(rank)
            ]
        )

    def rp_response_multi(
        self,
        segment: SegmentAddress,
        passes: int,
        trp_ns: float,
        temperature_c: float = 30.0,
        rngs: "list[np.random.Generator] | None" = None,
        rank: int = 0,
    ) -> np.ndarray:
        """Filtered PreLatPUF response: ``passes`` accesses, intersection kept.

        Because every reduced-tRP read draws exactly ``cells.size`` uniforms
        against a fixed effective-probability vector, all passes coalesce:
        with one shared generator the kernel makes a single
        ``rng.random(passes * cells)`` draw (bit-identical to the scalar
        pass-major/chip-minor order, since uniform fills split exactly at any
        boundary), and the intersection is ``fails.all(axis=0)`` over the
        (passes, cells) failure matrix -- no per-pass reduction at all.
        """
        if passes <= 0:
            raise ValueError(f"passes must be positive, got {passes}")
        if rngs is None or len(rngs) != passes:
            raise ValueError("rngs must supply exactly one generator per pass")
        cells, probabilities = self._concat_profile("rp", segment, trp_ns, rank)
        if cells.size == 0:
            return np.empty(0, dtype=np.int64)
        delta_t = abs(temperature_c - 30.0)
        if delta_t:
            effective = probabilities - self.vendor.rp_temp_sensitivity * delta_t
            effective.clip(0.0, 1.0, out=effective)
        else:
            effective = probabilities
        total = cells.size
        first = rngs[0]
        if all(rng is first for rng in rngs):
            draws = first.random(passes * total).reshape(passes, total)
        else:
            draws = np.stack([rng.random(total) for rng in rngs])
        fails = draws < effective
        if passes == 1:
            return cells[fails[0]]
        return cells[fails.all(axis=0)]
