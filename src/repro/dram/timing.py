"""DDR3 timing parameters.

The timing parameters drive both the cycle-level memory-controller simulation
(Figures 8/9) and the analytic throughput models used for the very large
module sizes of Figure 7.  The default preset is DDR3-1600 11-11-11, the
configuration the paper's Ramulator setup uses (Table 5).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

from repro.utils.units import GB, MB


@dataclass(frozen=True)
class TimingParameters:
    """JEDEC DDR3 timing parameters (times in nanoseconds unless noted)."""

    #: Clock period (DDR3-1600: 1.25 ns, i.e. 800 MHz command clock).
    tCK_ns: float = 1.25
    #: ACT to internal read/write delay.
    tRCD_ns: float = 13.75
    #: Precharge period.
    tRP_ns: float = 13.75
    #: ACT to PRE minimum (row active time).
    tRAS_ns: float = 35.0
    #: ACT to ACT on the same bank (tRAS + tRP).
    tRC_ns: float = 48.75
    #: ACT to ACT on different banks of the same rank.
    tRRD_ns: float = 6.25
    #: Four-activation window.
    tFAW_ns: float = 30.0
    #: Write recovery time.
    tWR_ns: float = 15.0
    #: CAS to CAS delay, in clock cycles.
    tCCD_cycles: int = 4
    #: Read to precharge delay.
    tRTP_ns: float = 7.5
    #: Write to read turnaround, in clock cycles.
    tWTR_cycles: int = 4
    #: CAS (read) latency, in clock cycles.
    CL_cycles: int = 11
    #: CAS write latency, in clock cycles.
    CWL_cycles: int = 8
    #: Burst length (transfers per column access).
    burst_length: int = 8
    #: Refresh cycle time (depends on device density).
    tRFC_ns: float = 260.0
    #: Refresh interval.
    tREFI_ns: float = 7800.0

    def __post_init__(self) -> None:
        if self.tCK_ns <= 0:
            raise ValueError("tCK must be positive")
        if self.tRC_ns < self.tRAS_ns:
            raise ValueError("tRC must be at least tRAS")

    # ------------------------------------------------------------------
    # Derived quantities (the bank model reads the cached ones per command)
    # ------------------------------------------------------------------
    @cached_property
    def tCCD_ns(self) -> float:
        """CAS-to-CAS delay in nanoseconds."""
        return self.tCCD_cycles * self.tCK_ns

    @cached_property
    def tWTR_ns(self) -> float:
        """Write-to-read turnaround in nanoseconds."""
        return self.tWTR_cycles * self.tCK_ns

    @cached_property
    def CL_ns(self) -> float:
        """Read latency in nanoseconds."""
        return self.CL_cycles * self.tCK_ns

    @cached_property
    def CWL_ns(self) -> float:
        """Write latency in nanoseconds."""
        return self.CWL_cycles * self.tCK_ns

    @cached_property
    def burst_time_ns(self) -> float:
        """Data-bus occupancy of one burst (BL/2 clock cycles, DDR)."""
        return (self.burst_length / 2) * self.tCK_ns

    @property
    def data_rate_mt_s(self) -> float:
        """Data rate in mega-transfers per second."""
        return 2.0 * 1000.0 / self.tCK_ns

    def to_cycles(self, time_ns: float) -> int:
        """Convert a duration to (rounded-up) clock cycles."""
        cycles = time_ns / self.tCK_ns
        whole = int(cycles)
        return whole if abs(cycles - whole) < 1e-9 else whole + 1

    def row_cycle_rate_per_bank(self) -> float:
        """Maximum row activations per nanosecond within a single bank."""
        return 1.0 / self.tRC_ns

    def scaled_frequency(self, data_rate_mt_s: float) -> "TimingParameters":
        """Return a copy retargeted to a different data rate.

        Analog timings (tRCD, tRP, ...) are kept in nanoseconds (they are
        device characteristics); only the clock period changes.
        """
        if data_rate_mt_s <= 0:
            raise ValueError("data rate must be positive")
        return replace(self, tCK_ns=2.0 * 1000.0 / data_rate_mt_s)


#: The paper's simulated configuration: DDR3-1600 with 11-11-11 timings.
DDR3_1600_11_11_11 = TimingParameters()

#: DDR3-1333 9-9-9 (the vendor-B modules of Table 12 run at 1333 MT/s).
DDR3_1333_9_9_9 = TimingParameters(
    tCK_ns=1.5,
    CL_cycles=9,
    tRCD_ns=13.5,
    tRP_ns=13.5,
    tRAS_ns=36.0,
    tRC_ns=49.5,
    tFAW_ns=30.0,
)


def trfc_for_density_gbit(density_gbit: float) -> float:
    """Refresh cycle time as a function of device density (JEDEC DDR3).

    1 Gb -> 110 ns, 2 Gb -> 160 ns, 4 Gb -> 260 ns, 8 Gb -> 350 ns; larger
    (hypothetical) densities extrapolate linearly, matching the paper's
    extrapolation for its 64 GB module.
    """
    table = [(1.0, 110.0), (2.0, 160.0), (4.0, 260.0), (8.0, 350.0)]
    if density_gbit <= table[0][0]:
        return table[0][1]
    for (d_low, t_low), (d_high, t_high) in zip(table, table[1:]):
        if density_gbit <= d_high:
            fraction = (density_gbit - d_low) / (d_high - d_low)
            return t_low + fraction * (t_high - t_low)
    # Extrapolate beyond 8 Gb at the 8 Gb slope.
    (d_low, t_low), (d_high, t_high) = table[-2], table[-1]
    slope = (t_high - t_low) / (d_high - d_low)
    return t_high + slope * (density_gbit - d_high)


def timing_for_module(capacity_bytes: int, chips_per_rank: int = 8,
                      ranks: int = 1) -> TimingParameters:
    """Timing preset for a module of the given capacity (Figure 7 sweep).

    All modules use DDR3-1600 11-11-11 core timings; only tRFC scales with
    per-chip density.  Timing parameters for capacities without public
    datasheets (64 MB, 64 GB) are extrapolated, as the paper does.
    """
    if capacity_bytes <= 0:
        raise ValueError("capacity must be positive")
    per_chip_bytes = capacity_bytes // (chips_per_rank * ranks)
    density_gbit = per_chip_bytes * 8 / (1024 ** 3)
    trfc = trfc_for_density_gbit(max(density_gbit, 0.25))
    return replace(DDR3_1600_11_11_11, tRFC_ns=trfc)


#: Module capacities evaluated in Figure 7 with convenient labels.
FIGURE7_CAPACITY_LABELS: tuple[tuple[str, int], ...] = (
    ("64MB", 64 * MB),
    ("256MB", 256 * MB),
    ("1GB", 1 * GB),
    ("4GB", 4 * GB),
    ("16GB", 16 * GB),
    ("64GB", 64 * GB),
)
