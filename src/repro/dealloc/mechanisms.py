"""Secure-deallocation zeroing mechanisms.

Each mechanism is a dealloc handler for the in-order core model
(:class:`repro.memctrl.cpu.DeallocHandler`): when the traced program
deallocates a region, the handler zeroes it --

* **SoftwareZeroing**: the OS writes zeros through the cache hierarchy and
  flushes every line to DRAM (the paper's software baseline, per Chow et
  al.'s secure-deallocation proposal),
* **RowCloneZeroing / LISACloneZeroing**: the OS issues one in-DRAM
  row-copy command per row, copying a reserved all-zero row over the
  deallocated rows,
* **CODICZeroing**: the OS issues one CODIC-det command per row, generating
  the zeros inside the row itself (no source row, no data movement).

Hardware mechanisms only spend a few core cycles issuing each row operation;
the zeroing itself proceeds inside DRAM, overlapping with subsequent
execution but occupying banks (which the shared memory controller models).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.memctrl.cpu import InOrderCore
from repro.memctrl.request import RequestType
from repro.memctrl.trace import TraceEvent

#: Cache-line and DRAM-row sizes used to expand deallocated regions.
LINE_BYTES = 64
ROW_BYTES = 8192


def _region_lines(event: TraceEvent) -> range:
    """Byte addresses of every cache line in a deallocated region."""
    start = (event.address // LINE_BYTES) * LINE_BYTES
    end = event.address + event.size_bytes
    return range(start, end, LINE_BYTES)


def _region_rows(event: TraceEvent) -> range:
    """Byte addresses of every DRAM row touched by a deallocated region."""
    start = (event.address // ROW_BYTES) * ROW_BYTES
    end = event.address + event.size_bytes
    return range(start, end, ROW_BYTES)


@dataclass
class SoftwareZeroing:
    """Software baseline: store zeros to every line, then CLFLUSH it."""

    name: str = "software"

    def handle(self, core: InOrderCore, event: TraceEvent) -> None:
        """Zero the region with ordinary stores and cache flushes."""
        for address in _region_lines(event):
            core.do_store(address)
            core.do_flush(address)


@dataclass
class _RowGranularZeroing:
    """Shared implementation of the in-DRAM row-granular mechanisms."""

    request_type: RequestType = RequestType.CODIC_ZERO_ROW
    name: str = "codic"

    def handle(self, core: InOrderCore, event: TraceEvent) -> None:
        """Zero the region one DRAM row at a time, in-memory.

        Partial rows at the edges of the region cannot be zeroed at row
        granularity without destroying a neighbour's data, so they fall back
        to software zeroing (this is the row-granularity challenge Section
        4.4 discusses).
        """
        start = event.address
        end = event.address + event.size_bytes
        for row_address in _region_rows(event):
            row_end = row_address + ROW_BYTES
            if row_address >= start and row_end <= end:
                core.issue_row_op(self.request_type, row_address)
            else:
                partial_start = max(start, row_address)
                partial_end = min(end, row_end)
                for address in range(
                    (partial_start // LINE_BYTES) * LINE_BYTES, partial_end, LINE_BYTES
                ):
                    core.do_store(address)
                    core.do_flush(address)


@dataclass
class CODICZeroing(_RowGranularZeroing):
    """CODIC-det based zeroing: one CODIC command per row."""

    request_type: RequestType = RequestType.CODIC_ZERO_ROW
    name: str = "codic"


@dataclass
class RowCloneZeroing(_RowGranularZeroing):
    """RowClone-FPM based zeroing: copy a reserved zero row over each row."""

    request_type: RequestType = RequestType.ROWCLONE_ZERO_ROW
    name: str = "rowclone"


@dataclass
class LISACloneZeroing(_RowGranularZeroing):
    """LISA-clone based zeroing: inter-subarray copy of a zero row."""

    request_type: RequestType = RequestType.LISA_ZERO_ROW
    name: str = "lisa"


#: Factories keyed by the mechanism names used in Figures 8 and 9.  A
#: handler keeps no reference to its core (``handle`` receives it), so a
#: finished system is freed by reference counting, not by the cyclic
#: garbage collector.
MECHANISM_FACTORIES: dict[str, Callable[[InOrderCore], object]] = {
    "software": lambda core: SoftwareZeroing(),
    "lisa": lambda core: LISACloneZeroing(),
    "rowclone": lambda core: RowCloneZeroing(),
    "codic": lambda core: CODICZeroing(),
}
