"""Memory-request scheduling policies.

The paper's Ramulator configuration uses FR-FCFS (first-ready,
first-come-first-served): among queued requests, those that hit the currently
open row of their bank are served first (oldest first), and only when no
request is row-hit is the oldest request served.  An FCFS policy is provided
for the scheduling-policy ablation called out in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.dram.address import AddressMapper
from repro.memctrl.request import MemoryRequest


class BankStateView(Protocol):
    """The minimal view of DRAM state a scheduler needs."""

    def open_row(self, channel: int, rank: int, bank: int) -> int | None:
        """Row currently open in a bank, or ``None`` when precharged."""
        ...  # pragma: no cover - protocol definition


class Scheduler(Protocol):
    """Scheduling policy interface."""

    def select(
        self,
        queue: Sequence[MemoryRequest],
        mapper: AddressMapper,
        bank_state: BankStateView,
    ) -> MemoryRequest | None:
        """Pick the next request to service, or ``None`` if the queue is empty."""
        ...  # pragma: no cover - protocol definition


@dataclass
class FCFSScheduler:
    """Strict first-come-first-served (oldest request first)."""

    def select(
        self,
        queue: Sequence[MemoryRequest],
        mapper: AddressMapper,
        bank_state: BankStateView,
    ) -> MemoryRequest | None:
        if not queue:
            return None
        return min(queue, key=lambda request: (request.arrival_ns, request.request_id))


@dataclass
class FRFCFSScheduler:
    """First-ready FCFS: row-buffer hits first, then oldest."""

    def select(
        self,
        queue: Sequence[MemoryRequest],
        mapper: AddressMapper,
        bank_state: BankStateView,
    ) -> MemoryRequest | None:
        if len(queue) <= 1:
            return queue[0] if queue else None
        best: MemoryRequest | None = None
        best_key: tuple[int, float, int] | None = None
        for request in queue:
            # A controller decodes each request when it accepts it.
            decoded = request.decoded or mapper.decode(request.address)
            open_row = bank_state.open_row(decoded.channel, decoded.rank, decoded.bank)
            is_hit = open_row is not None and open_row == decoded.row
            key = (0 if is_hit else 1, request.arrival_ns, request.request_id)
            if best_key is None or key < best_key:
                best_key = key
                best = request
        return best
