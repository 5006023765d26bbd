"""Rank-level timing constraints (tRRD, tFAW) and bank aggregation.

Activation-class commands (ACT, CODIC, RowClone, LISA) draw a large burst of
current from the charge pumps, so JEDEC limits how closely they may follow
each other across the banks of a rank: consecutive activations must be at
least ``tRRD`` apart and no more than four may fall inside any ``tFAW``
window.  These two constraints are exactly what bounds the throughput of the
self-destruction sweep (Figure 7), so the rank model enforces them for the
CODIC/RowClone/LISA commands too, as the paper's mechanisms do.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.dram.bank import Bank
from repro.dram.commands import CommandType
from repro.dram.timing import TimingParameters


@dataclass
class Rank:
    """A rank: a set of banks sharing tRRD/tFAW activation constraints."""

    timing: TimingParameters
    num_banks: int = 8
    banks: list[Bank] = field(init=False)
    _recent_activations: deque = field(init=False)
    _last_activation_ns: float = field(default=-1e18)

    def __post_init__(self) -> None:
        if self.num_banks <= 0:
            raise ValueError("a rank needs at least one bank")
        self.banks = [Bank(timing=self.timing) for _ in range(self.num_banks)]
        self._recent_activations = deque(maxlen=4)

    def bank(self, index: int) -> Bank:
        """Bank ``index`` of this rank."""
        return self.banks[index]

    # ------------------------------------------------------------------
    # Rank-level constraints
    # ------------------------------------------------------------------
    def earliest_issue_time(
        self, command: CommandType, bank_index: int, now_ns: float
    ) -> float:
        """Earliest legal issue time considering bank and rank constraints."""
        earliest = self.banks[bank_index].earliest_issue_time(command, now_ns)
        if command.activation_class:
            # Explicit comparisons: ``if x > earliest: earliest = x`` is
            # exactly ``earliest = max(earliest, x)``.
            rrd_ready = self._last_activation_ns + self.timing.tRRD_ns
            if rrd_ready > earliest:
                earliest = rrd_ready
            if len(self._recent_activations) == 4:
                faw_ready = self._recent_activations[0] + self.timing.tFAW_ns
                if faw_ready > earliest:
                    earliest = faw_ready
        return earliest

    def issue(
        self,
        command: CommandType,
        bank_index: int,
        issue_ns: float,
        row: int | None = None,
    ) -> float:
        """Issue a command on one bank, updating rank-level state."""
        earliest = self.earliest_issue_time(command, bank_index, issue_ns)
        if issue_ns + 1e-9 < earliest:
            raise ValueError(
                f"{command.value} at {issue_ns:.2f} ns violates rank timing "
                f"(earliest legal time is {earliest:.2f} ns)"
            )
        completion = self.banks[bank_index].issue(command, issue_ns, row=row)
        if command.activation_class:
            self._last_activation_ns = issue_ns
            self._recent_activations.append(issue_ns)
        return completion

    # ------------------------------------------------------------------
    # Throughput helpers (used by the analytic Figure 7 model)
    # ------------------------------------------------------------------
    def sustained_activation_interval_ns(self, occupancy_ns: float) -> float:
        """Average interval between activation-class commands across the rank.

        With ``num_banks`` banks available, the sustainable rate is limited by
        the slowest of three constraints: the per-bank cycle time (each bank
        can only accept a new row-granular command every
        ``occupancy_ns + tRP``), the ACT-to-ACT spacing ``tRRD``, and the
        four-activation window ``tFAW``.
        """
        per_bank_interval = (occupancy_ns + self.timing.tRP_ns) / self.num_banks
        return max(per_bank_interval, self.timing.tRRD_ns, self.timing.tFAW_ns / 4.0)
