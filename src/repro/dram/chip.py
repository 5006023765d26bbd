"""Behavioral model of one DRAM chip.

The chip model is the substitute for the 136 real DDR3/DDR3L devices the
paper characterizes with SoftMC.  It provides:

* **data storage** at row granularity (sparse: only written rows are
  materialized),
* **per-chip and per-cell process variation**, generated lazily and
  deterministically from the chip's seed.  The per-chip part (the
  signature-cell and readable fractions, the reduced-tRP failing columns) is
  drawn on first read and then kept for the chip's lifetime: it is part of
  the chip's identity, not a memo, so :meth:`DRAMChip.reset_profile_memos`
  never drops it.  Building a chip draws nothing, which keeps a large fleet
  of short-lived devices cheap.  The per-cell part gives each chip a stable
  but unique population of

  - *signature cells* (the minority of cells that CODIC-sig amplifies to '1'),
  - *reduced-tRCD failure cells* (exploited by the DRAM Latency PUF),
  - *reduced-tRP failure cells* (exploited by PreLatPUF; dominated by
    per-column sense-amplifier variation, which is what limits that PUF's
    uniqueness),
* **retention behaviour** (cells leak towards Vdd/2, faster at higher
  temperature), used both by the paper's CODIC-sig emulation methodology and
  by the cold-boot attack model,
* **execution of CODIC signal schedules** at row granularity, interpreted
  through the same functional classification the circuit model produces.

All stochastic behaviour is derived from the chip seed so that repeated reads
of the same chip reproduce the same signatures (which is the whole point of a
PUF).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from repro.core.signals import SignalSchedule
from repro.core.variants import VariantFunction, classify_schedule
from repro.dram.geometry import DRAMGeometry, STANDARD_CHIP_GEOMETRIES
from repro.utils.rng import derive_seed, make_rng


# ---------------------------------------------------------------------------
# Vendor profiles (Table 3 / Table 12 population characteristics)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class VendorProfile:
    """Statistical characteristics of one DRAM vendor's chips.

    The numeric ranges are calibrated so that the simulated population
    reproduces the paper's observations: 0.01 %-0.22 % of cells amplify to
    the minority value under CODIC-sig, 34 %-99 % of cells are testable with
    the 48-hour retention methodology, and the three PUFs show their
    characteristic noise/uniqueness behaviour.
    """

    name: str
    #: Range of the per-chip fraction of CODIC-sig minority ('1') cells.
    sig_weak_fraction_range: tuple[float, float] = (1e-4, 2.2e-3)
    #: Per-read probability that a signature cell reads back consistently.
    sig_stability: float = 0.9972
    #: Additional instability per degree C of temperature delta.
    sig_temp_sensitivity: float = 6e-6
    #: Fraction of cells that can fail under strongly reduced tRCD.
    rcd_failure_fraction: float = 0.03
    #: Per-degree shift of the reduced-tRCD failure population.
    rcd_temp_sensitivity: float = 6e-3
    #: Fraction of *columns* whose sense amplifiers fail under reduced tRP.
    rp_column_failure_fraction: float = 0.02
    #: Fraction of reduced-tRP failures that are row-specific rather than
    #: column-wide (low => poor uniqueness across segments).
    rp_row_specific_fraction: float = 0.25
    #: Fraction of failing columns that are common to the vendor's design
    #: (the same sense-amplifier layout is reused across chips of a part
    #: number, so reduced-tRP failures repeat across chips and modules).
    rp_vendor_common_fraction: float = 0.55
    #: Per-read stability of reduced-tRP failures.
    rp_stability: float = 0.998
    #: Per-degree instability of reduced-tRP failures.
    rp_temp_sensitivity: float = 3e-5
    #: Range of the per-chip fraction of cells testable via the 48 h
    #: retention methodology (Section 6.1).
    readable_fraction_range: tuple[float, float] = (0.34, 0.99)


#: The three anonymized vendors of the paper's chip population.
VENDOR_PROFILES: dict[str, VendorProfile] = {
    "A": VendorProfile(
        name="A",
        sig_weak_fraction_range=(3e-4, 2.2e-3),
        sig_stability=0.9975,
        readable_fraction_range=(0.55, 0.99),
    ),
    "B": VendorProfile(
        name="B",
        sig_weak_fraction_range=(1e-4, 1.2e-3),
        sig_stability=0.9960,
        rcd_failure_fraction=0.04,
        readable_fraction_range=(0.34, 0.90),
    ),
    "C": VendorProfile(
        name="C",
        sig_weak_fraction_range=(2e-4, 1.8e-3),
        sig_stability=0.9970,
        rp_column_failure_fraction=0.025,
        readable_fraction_range=(0.45, 0.97),
    ),
}


def _sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.union1d(a, b).astype(np.int64)``, without NumPy's generic ``unique``.

    Concatenate, sort, then keep each element that differs from its
    predecessor: the same sorted, unique int64 array, in about a quarter of
    the time on row-sized inputs.
    """
    merged = np.concatenate((a, b)).astype(np.int64, copy=False)
    merged.sort()
    keep = np.empty(merged.size, dtype=bool)
    keep[:1] = True
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    return merged[keep]


@lru_cache(maxsize=None)
def _vendor_rp_columns(vendor_name: str, n_columns: int, n_vendor: int) -> np.ndarray:
    """The reduced-tRP failing columns common to every chip of a vendor.

    A pure function of its arguments, drawn once per process and shared
    read-only by every chip of that vendor and row width (so the cache
    holds one small array per vendor and row width in use).
    """
    vendor_rng = make_rng(0xC0D1C, "rp-vendor-columns", vendor_name)
    columns = vendor_rng.choice(n_columns, size=n_vendor, replace=False)
    columns.setflags(write=False)
    return columns


class _ProfileMemo:
    """Byte-bounded memo of deterministic per-row profile arrays.

    Entries are pure functions of (chip seed, address, timing), so a
    wholesale clear when the byte budget is exceeded never changes any
    response value -- it only trades recomputation for memory.  The budget
    is deliberately small: PUF evaluation reuses only the rows of the pair
    currently being evaluated (a few KB), while a paper-scale Jaccard study
    touches tens of thousands of distinct rows that would otherwise stay
    resident forever.
    """

    __slots__ = ("entries", "nbytes", "limit_bytes")

    #: Default per-memo budget (per chip).  ~128 KB keeps dozens of row
    #: profiles resident -- far more than one pair needs -- while capping a
    #: full population at tens of MB total.
    DEFAULT_LIMIT_BYTES = 128 * 1024

    def __init__(self, limit_bytes: int = DEFAULT_LIMIT_BYTES) -> None:
        self.entries: dict = {}
        self.nbytes = 0
        self.limit_bytes = limit_bytes

    def get(self, key: object):
        return self.entries.get(key)

    #: Accounted fixed cost per entry (dict slot, key tuple, array objects) so
    #: that entries with empty payload arrays still consume budget and cannot
    #: grow the dict unboundedly.
    ENTRY_OVERHEAD_BYTES = 256

    def put(self, key: object, value, nbytes: int) -> None:
        nbytes += self.ENTRY_OVERHEAD_BYTES
        if self.nbytes + nbytes > self.limit_bytes:
            self.clear()
        self.entries[key] = value
        self.nbytes += nbytes

    def clear(self) -> None:
        self.entries.clear()
        self.nbytes = 0

    def __len__(self) -> int:
        return len(self.entries)


class RowState(enum.Enum):
    """Content state of one DRAM row."""

    #: Row holds ordinary data (possibly the default all-zeros).
    DATA = "data"
    #: Row cells were driven to Vdd/2 by CODIC-sig and await amplification.
    SIGNATURE_PENDING = "signature_pending"


@dataclass
class DRAMChip:
    """One simulated DRAM chip."""

    chip_id: str
    geometry: DRAMGeometry = field(
        default_factory=lambda: STANDARD_CHIP_GEOMETRIES["4Gb_x8"]
    )
    vendor: VendorProfile = field(default_factory=lambda: VENDOR_PROFILES["A"])
    voltage: float = 1.35
    seed: int = 0

    #: Sparse storage of written rows: (bank, row) -> bit array (uint8, 0/1).
    _rows: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    #: Rows currently in the SIGNATURE_PENDING state.
    _pending_signature: set[tuple[int, int]] = field(default_factory=set)
    #: Seconds elapsed since the last refresh of the array (retention model).
    seconds_since_refresh: float = 0.0
    #: Whether auto-refresh is currently enabled.
    refresh_enabled: bool = True

    def __post_init__(self) -> None:
        # DDR3L (1.35 V) devices showed slightly more stable CODIC-sig
        # responses than DDR3 (1.50 V) devices in the paper's evaluation.
        voltage_bonus = 0.0012 if self.voltage <= 1.40 else 0.0
        self.sig_stability = min(0.99995, self.vendor.sig_stability + voltage_bonus)
        #: Pre-derived root seed of every per-row stream (saves one SHA-256
        #: per ``_row_rng`` call on the PUF hot path).
        self._row_seed = derive_seed(self.seed, "chip", self.chip_id)
        #: Pre-hashed ``derive_seed`` prefix of the row seed: ``_row_rng``
        #: clones it and appends only the per-call labels, skipping the
        #: root-seed hashing that is identical for every row stream.
        row_hasher = hashlib.sha256()
        row_hasher.update(str(self._row_seed).encode("utf-8"))
        self._row_hasher = row_hasher
        # Memos of *deterministic* per-row properties (weak cells, reduced
        # timing failure profiles).  They are pure functions of (chip seed,
        # address, timing), so caching changes no observable value -- it only
        # avoids re-deriving the same RNG stream on every filter pass of every
        # PUF evaluation.  Byte-bounded per chip: PUF evaluation only needs
        # the *current pair's* rows resident (a few KB), so a small budget
        # keeps the within-pair reuse while full-scale runs over tens of
        # thousands of random rows stay at O(budget * chips) memory instead
        # of O(rows * chips).
        self._sig_weak_cache = _ProfileMemo()
        self._rcd_profile_cache = _ProfileMemo()
        self._rp_profile_cache = _ProfileMemo()

    # ------------------------------------------------------------------
    # Per-chip variation, derived on first read
    # ------------------------------------------------------------------
    # Each value is drawn from the same seed-addressed stream whatever
    # attribute is read first, and then lives in the instance ``__dict__``,
    # where a read costs what a plain attribute read costs.
    def _draw_fractions(self) -> tuple[float, float]:
        """Both ``chip-profile`` draws, in stream order, stored together."""
        profile_rng = make_rng(self.seed, "chip-profile", self.chip_id)
        low, high = self.vendor.sig_weak_fraction_range
        sig_weak_fraction = float(profile_rng.uniform(low, high))
        low, high = self.vendor.readable_fraction_range
        readable_fraction = float(profile_rng.uniform(low, high))
        self.__dict__.update(
            sig_weak_fraction=sig_weak_fraction, readable_fraction=readable_fraction
        )
        return sig_weak_fraction, readable_fraction

    @cached_property
    def sig_weak_fraction(self) -> float:
        """Fraction of this chip's cells that are CODIC-sig minority cells."""
        return self._draw_fractions()[0]

    @cached_property
    def readable_fraction(self) -> float:
        """Fraction of cells testable within the 48 h retention window."""
        return self._draw_fractions()[1]

    @cached_property
    def _rp_failing_columns(self) -> np.ndarray:
        """Columns whose sense amplifiers fail under reduced tRP.

        Part of the failing columns is common to the vendor's design (the
        same sense-amplifier layout is reused across every chip of a part
        number) and part is chip-specific; both are shared by all rows of a
        chip, because the same physical sense amplifiers serve every row of
        a subarray.
        """
        n_columns = self.geometry.row_bits
        n_fail = max(1, int(round(self.vendor.rp_column_failure_fraction * n_columns)))
        n_vendor = int(round(n_fail * self.vendor.rp_vendor_common_fraction))
        column_rng = make_rng(self.seed, "rp-columns", self.chip_id)
        chip_columns = column_rng.choice(
            n_columns, size=max(0, n_fail - n_vendor), replace=False
        )
        vendor_columns = _vendor_rp_columns(self.vendor.name, n_columns, n_vendor)
        return _sorted_union(vendor_columns, chip_columns)

    def reset_profile_memos(self) -> None:
        """Drop the deterministic per-row memos (weak cells, failure profiles).

        Purely a memory/benchmarking control: the memos cache pure functions
        of (chip seed, address, timing), so clearing them never changes any
        response value -- it only restores cold-cache timing behaviour.  The
        per-chip variation derived on first read (``sig_weak_fraction``,
        ``readable_fraction``, the reduced-tRP failing columns) is not a memo
        but part of the chip's identity, and is never reset.
        """
        self._sig_weak_cache.clear()
        self._rcd_profile_cache.clear()
        self._rp_profile_cache.clear()

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def _check_location(self, bank: int, row: int) -> None:
        if not 0 <= bank < self.geometry.banks:
            raise ValueError(f"bank {bank} out of range (chip has {self.geometry.banks})")
        if not 0 <= row < self.geometry.rows_per_bank:
            raise ValueError(
                f"row {row} out of range (bank has {self.geometry.rows_per_bank} rows)"
            )

    def _row_rng(self, *labels: object) -> np.random.Generator:
        # Inlined ``make_rng(self._row_seed, *labels)`` on the memoized
        # prefix hasher: same SHA-256 label path, same 63-bit seed, same
        # generator -- only the repeated root-seed hashing is skipped.
        hasher = self._row_hasher.copy()
        for label in labels:
            hasher.update(b"/")
            hasher.update(str(label).encode("utf-8"))
        seed = int.from_bytes(hasher.digest()[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF
        return np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def write_row(self, bank: int, row: int, bits: np.ndarray) -> None:
        """Write a full row of bits (length ``row_bits``)."""
        self._check_location(bank, row)
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.shape != (self.geometry.row_bits,):
            raise ValueError(
                f"row data must have {self.geometry.row_bits} bits, got {bits.shape}"
            )
        if not np.all((bits == 0) | (bits == 1)):
            raise ValueError("row data must contain only 0/1 values")
        self._rows[(bank, row)] = bits.copy()
        self._pending_signature.discard((bank, row))

    def fill_row(self, bank: int, row: int, value: int) -> None:
        """Fill a row with a constant bit value."""
        if value not in (0, 1):
            raise ValueError("fill value must be 0 or 1")
        self.write_row(
            bank, row, np.full(self.geometry.row_bits, value, dtype=np.uint8)
        )

    def read_row(
        self, bank: int, row: int, temperature_c: float = 30.0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Activate and read a full row, resolving retention decay and
        pending CODIC-sig signatures."""
        self._check_location(bank, row)
        key = (bank, row)
        if key in self._pending_signature:
            bits = self._resolve_signature(bank, row, temperature_c, rng)
            self._rows[key] = bits
            self._pending_signature.discard(key)
            return bits.copy()

        stored = self._rows.get(key)
        if stored is None:
            stored = np.zeros(self.geometry.row_bits, dtype=np.uint8)
        if self.seconds_since_refresh > 0.0:
            stored = self._apply_retention_decay(bank, row, stored, temperature_c, rng)
            self._rows[key] = stored
        return stored.copy()

    def _resolve_signature(
        self,
        bank: int,
        row: int,
        temperature_c: float,
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        """Amplify a SIGNATURE_PENDING row into concrete signature values."""
        return self.signature_row_values(bank, row, temperature_c, rng)

    def row_state(self, bank: int, row: int) -> RowState:
        """Content state of a row."""
        self._check_location(bank, row)
        if (bank, row) in self._pending_signature:
            return RowState.SIGNATURE_PENDING
        return RowState.DATA

    # ------------------------------------------------------------------
    # Retention model
    # ------------------------------------------------------------------
    def disable_refresh(self) -> None:
        """Stop auto-refresh (the paper's 48 h emulation methodology)."""
        self.refresh_enabled = False

    def enable_refresh(self) -> None:
        """Re-enable auto-refresh and reset the retention clock."""
        self.refresh_enabled = True
        self.seconds_since_refresh = 0.0

    def advance_time(self, seconds: float, temperature_c: float = 30.0) -> None:
        """Advance wall-clock time; cells decay only while refresh is off.

        Temperature accelerates leakage with the usual factor-of-2-per-10C
        rule, which is why the paper's high-temperature experiments only need
        4 hours instead of 48.
        """
        if seconds < 0:
            raise ValueError("seconds must be non-negative")
        if not self.refresh_enabled:
            acceleration = 2.0 ** ((temperature_c - 30.0) / 10.0)
            self.seconds_since_refresh += seconds * acceleration

    def retention_times_s(self, bank: int, row: int) -> np.ndarray:
        """Per-cell retention times (seconds at 30 C) for one row.

        Retention times are log-normally distributed; the per-chip
        ``readable_fraction`` controls how many cells decay within the
        48-hour window of the paper's methodology.
        """
        rng = self._row_rng("retention", bank, row)
        # Choose the log-normal median so that ``readable_fraction`` of cells
        # decay within 48 h (172800 s).
        target = 172_800.0
        sigma = 1.6
        # P(T < target) = readable_fraction  =>  median = target / exp(sigma*z)
        from math import exp, sqrt

        z = _normal_quantile(self.readable_fraction)
        median = target / exp(sigma * z)
        return median * np.exp(sigma * rng.standard_normal(self.geometry.row_bits))

    def _apply_retention_decay(
        self,
        bank: int,
        row: int,
        bits: np.ndarray,
        temperature_c: float,
        rng: np.random.Generator | None,
    ) -> np.ndarray:
        retention = self.retention_times_s(bank, row)
        decayed = retention < self.seconds_since_refresh
        if not np.any(decayed):
            return bits
        signature = self.signature_row_values(bank, row, temperature_c, rng)
        result = bits.copy()
        result[decayed] = signature[decayed]
        return result

    # ------------------------------------------------------------------
    # CODIC-sig / signature behaviour
    # ------------------------------------------------------------------
    def sig_weak_cells(self, bank: int, row: int) -> np.ndarray:
        """Bit positions of this row's CODIC-sig minority ('1') cells.

        The set is a stable property of the chip: it is generated
        deterministically from the chip seed and the row address, and memoized
        (read-only) so repeated filter passes over the same row do not
        re-derive the stream.
        """
        self._check_location(bank, row)
        cached = self._sig_weak_cache.get((bank, row))
        if cached is not None:
            return cached
        rng = self._row_rng("sig-weak", bank, row)
        expected = self.sig_weak_fraction * self.geometry.row_bits
        count = int(rng.poisson(expected))
        count = min(max(count, 0), self.geometry.row_bits)
        if count == 0:
            cells = np.empty(0, dtype=np.int64)
        else:
            cells = np.sort(rng.choice(self.geometry.row_bits, size=count, replace=False))
            cells = cells.astype(np.int64, copy=False)
        cells.setflags(write=False)
        self._sig_weak_cache.put((bank, row), cells, cells.nbytes)
        return cells

    def signature_row_values(
        self,
        bank: int,
        row: int,
        temperature_c: float = 30.0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Full row of values produced by amplifying Vdd/2 cells.

        The majority of cells resolve to 0 (the structural SA offset); the
        chip's weak cells resolve to 1.  A small, temperature-dependent
        fraction of borderline cells flips from read to read, which is what
        the PUF filtering mechanisms have to tolerate.
        """
        self._check_location(bank, row)
        bits = np.zeros(self.geometry.row_bits, dtype=np.uint8)
        weak = self.sig_weak_cells(bank, row)
        bits[weak] = 1
        noise_rng = rng if rng is not None else make_rng(self.seed, "sig-noise-default")
        instability = self._sig_instability(temperature_c)
        if weak.size and instability > 0.0:
            drop = noise_rng.random(weak.size) < instability
            bits[weak[drop]] = 0
        # Spurious extra '1' cells are much rarer than dropouts.
        spurious_rate = instability * self.sig_weak_fraction
        n_spurious = noise_rng.poisson(spurious_rate * self.geometry.row_bits)
        if n_spurious > 0:
            extra = noise_rng.integers(0, self.geometry.row_bits, size=int(n_spurious))
            bits[extra] = 1
        return bits

    def sig_noise_state(
        self, bank: int, row: int, temperature_c: float = 30.0
    ) -> tuple[np.ndarray, float, float]:
        """Hoisted per-row read state: ``(weak, instability, spurious_lam)``.

        Everything :meth:`sig_read_from_state` needs that does not depend on
        the noise stream, derived once per multi-read call instead of once
        per read (one weak-cell memo lookup, one instability evaluation).
        """
        self._check_location(bank, row)
        weak = self.sig_weak_cells(bank, row)
        instability = self._sig_instability(temperature_c)
        spurious_rate = instability * self.sig_weak_fraction
        return weak, instability, spurious_rate * self.geometry.row_bits

    def sig_read_from_state(
        self,
        state: tuple[np.ndarray, float, float],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """One sig observation from a hoisted :meth:`sig_noise_state`.

        Consumes the noise stream in exactly :meth:`sig_response`'s order
        (dropout uniforms, spurious-cell Poisson draw, spurious addresses),
        so repeated calls are bit-identical to repeated ``sig_response``
        calls on the same stream.
        """
        weak, instability, spurious_lam = state
        kept = weak
        if weak.size and instability > 0.0:
            drop = rng.random(weak.size) < instability
            if drop.any():
                kept = weak[~drop]
        n_spurious = rng.poisson(spurious_lam)
        if n_spurious > 0:
            extra = rng.integers(0, self.geometry.row_bits, size=int(n_spurious))
            return _sorted_union(kept, extra)
        return kept.astype(np.int64, copy=False)

    def sig_response(
        self,
        bank: int,
        row: int,
        temperature_c: float = 30.0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """One CODIC-sig PUF observation: positions of cells that read '1'.

        Sparse fast path of :meth:`signature_row_values`: the noise stream is
        consumed in exactly the same order (dropout uniforms, then the
        spurious-cell Poisson draw, then spurious addresses), so the returned
        sorted position array is bit-identical to ``flatnonzero`` over the
        dense row -- without materializing ``row_bits`` values per read.
        """
        noise_rng = rng if rng is not None else make_rng(self.seed, "sig-noise-default")
        return self.sig_read_from_state(
            self.sig_noise_state(bank, row, temperature_c), noise_rng
        )

    def sig_response_multi(
        self,
        bank: int,
        row: int,
        passes: int,
        temperature_c: float = 30.0,
        rngs: "list[np.random.Generator] | None" = None,
    ) -> list[np.ndarray]:
        """``passes`` sig observations with the per-row state hoisted.

        ``rngs`` holds one generator per pass -- repeat the same live
        generator to consume a shared stream exactly as ``passes``
        back-to-back :meth:`sig_response` calls would.  Returns the per-pass
        position arrays (the caller applies its own filter reduction).
        """
        if passes <= 0:
            raise ValueError(f"passes must be positive, got {passes}")
        if rngs is None or len(rngs) != passes:
            raise ValueError("rngs must supply exactly one generator per pass")
        state = self.sig_noise_state(bank, row, temperature_c)
        return [self.sig_read_from_state(state, rng) for rng in rngs]

    def _sig_instability(self, temperature_c: float) -> float:
        base = 1.0 - self.sig_stability
        delta_t = abs(temperature_c - 30.0)
        return min(0.5, base + self.vendor.sig_temp_sensitivity * delta_t)

    def sigsa_weak_cells(self, bank: int, row: int) -> np.ndarray:
        """Minority cells of the CODIC-sigsa (SA-only) signature (Appendix C)."""
        self._check_location(bank, row)
        rng = self._row_rng("sigsa-weak", bank, row)
        expected = 0.0002 * self.geometry.row_bits
        count = int(rng.poisson(expected))
        if count == 0:
            return np.empty(0, dtype=np.int64)
        return np.sort(rng.choice(self.geometry.row_bits, size=count, replace=False))

    # ------------------------------------------------------------------
    # Reduced-timing failure behaviour (baseline PUFs)
    # ------------------------------------------------------------------
    def rcd_failure_profile(
        self, bank: int, row: int, trcd_ns: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Failure-prone cells and their per-access failure probabilities
        when the row is accessed with a reduced ``tRCD``.

        Failures only appear for aggressively reduced timings (the DRAM
        Latency PUF uses tRCD = 2.5 ns); at nominal timing the set is empty.
        The profile is deterministic per (address, timing) and memoized.
        """
        self._check_location(bank, row)
        if trcd_ns >= 10.0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        key = (bank, row, float(trcd_ns))
        cached = self._rcd_profile_cache.get(key)
        if cached is not None:
            return cached
        severity = min(1.0, (10.0 - trcd_ns) / 7.5)
        rng = self._row_rng("rcd-fail", bank, row)
        fraction = self.vendor.rcd_failure_fraction * severity
        count = int(rng.poisson(fraction * self.geometry.row_bits))
        count = min(count, self.geometry.row_bits)
        if count == 0:
            cells = np.empty(0, dtype=np.int64)
            probabilities = np.empty(0, dtype=np.float64)
        else:
            cells = np.sort(rng.choice(self.geometry.row_bits, size=count, replace=False))
            cells = cells.astype(np.int64, copy=False)
            # Per-cell failure probabilities follow a U-shaped (bathtub)
            # distribution: most failure-prone cells fail either rarely or
            # almost always, with a long tail of borderline cells.  The
            # borderline cells are what makes raw responses noisy and forces
            # the DRAM Latency PUF to use a heavy (100-read) filtering
            # mechanism.
            probabilities = np.clip(rng.beta(0.5, 0.5, size=count), 0.02, 0.98)
        cells.setflags(write=False)
        probabilities.setflags(write=False)
        self._rcd_profile_cache.put(
            key, (cells, probabilities), cells.nbytes + probabilities.nbytes
        )
        return cells, probabilities

    def rcd_response(
        self,
        bank: int,
        row: int,
        trcd_ns: float,
        temperature_c: float = 30.0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """One reduced-tRCD access: positions of cells that failed."""
        cells, probabilities = self.rcd_failure_profile(bank, row, trcd_ns)
        if cells.size == 0:
            return cells
        sample_rng = rng if rng is not None else make_rng(self.seed, "rcd-noise-default")
        shifted = self._shift_probabilities(
            probabilities, temperature_c, self.vendor.rcd_temp_sensitivity
        )
        failed = sample_rng.random(cells.size) < shifted
        return cells[failed]

    def rcd_filtered_response(
        self,
        bank: int,
        row: int,
        trcd_ns: float,
        reads: int,
        threshold: int,
        temperature_c: float = 30.0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Filtered DRAM Latency PUF response.

        The filter reads the segment ``reads`` times and keeps only the cells
        that failed more than ``threshold`` times (Kim et al., HPCA'18 use
        100 reads and a threshold of 90).
        """
        cells, probabilities = self.rcd_failure_profile(bank, row, trcd_ns)
        if cells.size == 0:
            return cells
        sample_rng = rng if rng is not None else make_rng(self.seed, "rcd-noise-default")
        shifted = self._shift_probabilities(
            probabilities, temperature_c, self.vendor.rcd_temp_sensitivity
        )
        counts = sample_rng.binomial(reads, shifted)
        return cells[counts > threshold]

    def rp_failure_profile(
        self, bank: int, row: int, trp_ns: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Failure-prone cells under reduced ``tRP`` (PreLatPUF behaviour).

        Most failures are column-determined (the sense amplifier does not
        finish precharging), so the same positions fail in *every* row of the
        chip -- this shared structure is what makes PreLatPUF responses from
        different segments look similar (poor Inter-Jaccard in Figure 5).
        """
        self._check_location(bank, row)
        if trp_ns >= 10.0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
        key = (bank, row, float(trp_ns))
        cached = self._rp_profile_cache.get(key)
        if cached is not None:
            return cached
        rng = self._row_rng("rp-fail", bank, row)
        row_specific_target = self._rp_failing_columns.size * (
            self.vendor.rp_row_specific_fraction
            / max(1e-9, 1.0 - self.vendor.rp_row_specific_fraction)
        )
        count = int(rng.poisson(row_specific_target))
        count = min(count, self.geometry.row_bits)
        if count:
            row_specific = rng.choice(self.geometry.row_bits, size=count, replace=False)
            cells = _sorted_union(self._rp_failing_columns, row_specific)
        else:
            cells = self._rp_failing_columns.copy()
        probabilities = np.full(cells.size, self.vendor.rp_stability, dtype=np.float64)
        cells.setflags(write=False)
        probabilities.setflags(write=False)
        self._rp_profile_cache.put(
            key, (cells, probabilities), cells.nbytes + probabilities.nbytes
        )
        return cells, probabilities

    def rp_response(
        self,
        bank: int,
        row: int,
        trp_ns: float,
        temperature_c: float = 30.0,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """One reduced-tRP access: positions of cells that failed."""
        cells, probabilities = self.rp_failure_profile(bank, row, trp_ns)
        if cells.size == 0:
            return cells
        sample_rng = rng if rng is not None else make_rng(self.seed, "rp-noise-default")
        delta_t = abs(temperature_c - 30.0)
        effective = np.clip(
            probabilities - self.vendor.rp_temp_sensitivity * delta_t, 0.0, 1.0
        )
        failed = sample_rng.random(cells.size) < effective
        return cells[failed]

    @staticmethod
    def _shift_probabilities(
        probabilities: np.ndarray, temperature_c: float, sensitivity: float
    ) -> np.ndarray:
        """Shift failure probabilities with temperature (latency failures
        become more likely when the device is hotter)."""
        delta_t = temperature_c - 30.0
        return np.clip(probabilities + sensitivity * delta_t, 0.0, 1.0)

    # ------------------------------------------------------------------
    # CODIC execution and destruction
    # ------------------------------------------------------------------
    def execute_codic(
        self,
        schedule: SignalSchedule,
        bank: int,
        row: int,
        temperature_c: float | None = None,
    ) -> VariantFunction:
        """Execute a CODIC signal schedule against one row.

        The row-level effect is derived from the schedule's functional
        classification, keeping chip-level execution fast while staying
        consistent with the cell-level circuit dynamics.
        """
        self._check_location(bank, row)
        temperature = 30.0 if temperature_c is None else temperature_c
        function = classify_schedule(schedule)
        key = (bank, row)
        if function is VariantFunction.SIGNATURE:
            self._rows.pop(key, None)
            self._pending_signature.add(key)
        elif function is VariantFunction.DETERMINISTIC_ZERO:
            self.fill_row(bank, row, 0)
        elif function is VariantFunction.DETERMINISTIC_ONE:
            self.fill_row(bank, row, 1)
        elif function is VariantFunction.SIGNATURE_SA:
            bits = np.zeros(self.geometry.row_bits, dtype=np.uint8)
            bits[self.sigsa_weak_cells(bank, row)] = 1
            self._rows[key] = bits
            self._pending_signature.discard(key)
        elif function is VariantFunction.ACTIVATE:
            # A regular activation resolves a pending signature (if any) and
            # otherwise restores the stored data unchanged.
            self.read_row(bank, row, temperature_c=temperature)
        elif function in (VariantFunction.PRECHARGE, VariantFunction.NOOP):
            pass
        else:  # OTHER: unclassified combinations are treated as destructive.
            self._rows.pop(key, None)
            self._pending_signature.add(key)
        return function

    def destroy_all(self, fill_value: int | None = None) -> None:
        """Destroy the entire chip contents (self-destruction fast path).

        ``fill_value`` of 0/1 models CODIC-det-based destruction; ``None``
        models CODIC-sig-based destruction (rows left pending signature).
        """
        self._rows.clear()
        self._pending_signature.clear()
        if fill_value is None:
            for bank in range(self.geometry.banks):
                for row in range(self.geometry.rows_per_bank):
                    # Materializing every row of a large chip is wasteful; the
                    # pending-signature set is enough because unwritten rows
                    # read as zero anyway.  Only mark rows, bounded by what is
                    # practical, when the chip is small.
                    if self.geometry.rows_per_bank <= 4096:
                        self._pending_signature.add((bank, row))
        self._destroyed = True

    @property
    def written_rows(self) -> int:
        """Number of rows currently materialized with explicit data."""
        return len(self._rows)


def _normal_quantile(p: float) -> float:
    """Inverse CDF of the standard normal (Acklam's approximation).

    Used to place the retention-time distribution so that a target fraction
    of cells decays within the 48-hour window.  Accurate to ~1e-9, which is
    far more than the model needs.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    # Coefficients for the rational approximations.
    a = [-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00]
    b = [-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00]
    p_low = 0.02425
    if p < p_low:
        q = (-2.0 * np.log(p)) ** 0.5
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > 1.0 - p_low:
        q = (-2.0 * np.log(1.0 - p)) ** 0.5
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / \
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / \
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
