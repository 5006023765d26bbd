"""Bank state machine with JEDEC timing enforcement.

A :class:`Bank` tracks which row (if any) is open and the earliest time each
command type may legally be issued, given the timing parameters.  The memory
controller asks ``earliest_issue_time`` before scheduling a command and calls
``issue`` once it commits to it; both the cycle-level simulator and the
analytic throughput models build on these rules.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.dram.commands import CommandType
from repro.dram.timing import TimingParameters


class BankState(enum.Enum):
    """State of one DRAM bank."""

    IDLE = "idle"          # precharged, no row open
    ACTIVE = "active"      # a row is open in the row buffer


# Module-level aliases: the timing checks below run several times per DRAM
# command, and an identity test against a global is far cheaper than an
# enum class-attribute lookup or a tuple membership test.
_IDLE = BankState.IDLE
_ACTIVE = BankState.ACTIVE
_ACTIVATE = CommandType.ACTIVATE
_PRECHARGE = CommandType.PRECHARGE
_PRECHARGE_ALL = CommandType.PRECHARGE_ALL
_READ = CommandType.READ
_READ_AP = CommandType.READ_AP
_WRITE = CommandType.WRITE
_WRITE_AP = CommandType.WRITE_AP
_REFRESH = CommandType.REFRESH
_CODIC = CommandType.CODIC
_ROWCLONE_COPY = CommandType.ROWCLONE_COPY
_LISA_COPY = CommandType.LISA_COPY


@dataclass
class Bank:
    """Timing/state model of one bank."""

    timing: TimingParameters
    state: BankState = BankState.IDLE
    open_row: int | None = None

    # Earliest times (ns) at which the next command of each family may issue.
    next_activate_ns: float = 0.0
    next_precharge_ns: float = 0.0
    next_read_ns: float = 0.0
    next_write_ns: float = 0.0

    # Bookkeeping of the last issued commands (for tRAS / tWR accounting).
    last_activate_ns: float = field(default=-1e18)
    last_write_data_end_ns: float = field(default=-1e18)
    last_read_data_end_ns: float = field(default=-1e18)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_open(self, row: int) -> bool:
        """True when ``row`` is currently open in the row buffer."""
        return self.state is _ACTIVE and self.open_row == row

    def earliest_issue_time(self, command: CommandType, now_ns: float) -> float:
        """Earliest legal issue time for ``command``, not before ``now_ns``.

        Dispatches on the command family by identity, most frequent first:
        column reads and writes, then activate and precharge, then the
        row-granular operations and refresh (which wait like an activation).
        """
        if command is _READ or command is _READ_AP:
            if self.state is not _ACTIVE:
                raise ValueError(f"cannot issue {command.value}: no row is open")
            ready_ns = self.next_read_ns
        elif command is _WRITE or command is _WRITE_AP:
            if self.state is not _ACTIVE:
                raise ValueError(f"cannot issue {command.value}: no row is open")
            ready_ns = self.next_write_ns
        elif command is _ACTIVATE:
            if self.state is _ACTIVE:
                raise ValueError("cannot activate: a row is already open")
            ready_ns = self.next_activate_ns
        elif command is _PRECHARGE or command is _PRECHARGE_ALL:
            ready_ns = self.next_precharge_ns
        elif (
            command is _CODIC
            or command is _ROWCLONE_COPY
            or command is _LISA_COPY
            or command is _REFRESH
        ):
            ready_ns = self.next_activate_ns
        else:
            raise ValueError(f"bank cannot time command {command!r}")
        return ready_ns if ready_ns > now_ns else now_ns

    # ------------------------------------------------------------------
    # Issue
    # ------------------------------------------------------------------
    def issue(self, command: CommandType, issue_ns: float, row: int | None = None) -> float:
        """Issue ``command`` at ``issue_ns``; returns the command's completion time.

        The caller is responsible for having checked ``earliest_issue_time``;
        issuing earlier raises, which is how the tests verify that the
        controller respects JEDEC timings.
        """
        earliest = self.earliest_issue_time(command, issue_ns)
        if issue_ns + 1e-9 < earliest:
            raise ValueError(
                f"{command.value} issued at {issue_ns:.2f} ns violates timing "
                f"(earliest legal time is {earliest:.2f} ns)"
            )
        if command is _READ:
            return self._issue_read(issue_ns, auto_precharge=False)
        if command is _WRITE:
            return self._issue_write(issue_ns, auto_precharge=False)
        if command is _ACTIVATE:
            return self._issue_activate(issue_ns, row)
        if command is _PRECHARGE or command is _PRECHARGE_ALL:
            return self._issue_precharge(issue_ns)
        if command is _READ_AP:
            return self._issue_read(issue_ns, auto_precharge=True)
        if command is _WRITE_AP:
            return self._issue_write(issue_ns, auto_precharge=True)
        t = self.timing
        if command is _CODIC:
            return self._issue_row_granular(issue_ns, occupancy_ns=t.tRAS_ns)
        if command is _ROWCLONE_COPY:
            # RowClone-FPM: ACT(src) -> ACT(dst) -> PRE, roughly two row cycles
            # minus the overlapped precharge (Seshadri et al., MICRO'13).
            return self._issue_row_granular(issue_ns, occupancy_ns=2 * t.tRAS_ns)
        if command is _LISA_COPY:
            # LISA: row-buffer movement between adjacent subarrays; slightly
            # slower than RowClone-FPM across arbitrary subarrays.
            return self._issue_row_granular(issue_ns, occupancy_ns=2.5 * t.tRAS_ns)
        if command is _REFRESH:
            return self._issue_refresh(issue_ns)
        raise ValueError(f"bank cannot issue command {command!r}")

    # ------------------------------------------------------------------
    # Per-command rules
    # ------------------------------------------------------------------
    # The hot rules below raise each next-issue time with an explicit
    # comparison, ``if ready > next: next = ready``, which is exactly
    # ``next = max(next, ready)`` without a builtin call per update.
    def _issue_activate(self, issue_ns: float, row: int | None) -> float:
        if row is None:
            raise ValueError("activate requires a row")
        t = self.timing
        self.state = _ACTIVE
        self.open_row = row
        self.last_activate_ns = issue_ns
        column_ready = issue_ns + t.tRCD_ns
        if column_ready > self.next_read_ns:
            self.next_read_ns = column_ready
        if column_ready > self.next_write_ns:
            self.next_write_ns = column_ready
        precharge_ready = issue_ns + t.tRAS_ns
        if precharge_ready > self.next_precharge_ns:
            self.next_precharge_ns = precharge_ready
        activate_ready = issue_ns + t.tRC_ns
        if activate_ready > self.next_activate_ns:
            self.next_activate_ns = activate_ready
        return column_ready

    def _issue_row_granular(self, issue_ns: float, occupancy_ns: float) -> float:
        """Row-granular in-DRAM operation (CODIC / RowClone / LISA).

        The operation occupies the bank like an activation and leaves the
        bank precharged when it completes (these commands embed their own
        precharge), so the next activation may follow after
        ``occupancy_ns + tRP``.
        """
        t = self.timing
        completion = issue_ns + occupancy_ns
        self.state = _IDLE
        self.open_row = None
        self.last_activate_ns = issue_ns
        self.next_activate_ns = max(self.next_activate_ns, completion + t.tRP_ns)
        self.next_precharge_ns = max(self.next_precharge_ns, completion)
        self.next_read_ns = max(self.next_read_ns, completion + t.tRP_ns)
        self.next_write_ns = max(self.next_write_ns, completion + t.tRP_ns)
        return completion

    def _issue_precharge(self, issue_ns: float) -> float:
        t = self.timing
        self.state = _IDLE
        self.open_row = None
        completion = issue_ns + t.tRP_ns
        if completion > self.next_activate_ns:
            self.next_activate_ns = completion
        return completion

    def _issue_read(self, issue_ns: float, auto_precharge: bool) -> float:
        t = self.timing
        data_end = issue_ns + t.CL_ns + t.burst_time_ns
        self.last_read_data_end_ns = data_end
        read_ready = issue_ns + t.tCCD_ns
        if read_ready > self.next_read_ns:
            self.next_read_ns = read_ready
        write_ready = data_end + t.tWTR_ns
        if write_ready > self.next_write_ns:
            self.next_write_ns = write_ready
        precharge_ready = issue_ns + t.tRTP_ns
        if precharge_ready > self.next_precharge_ns:
            self.next_precharge_ns = precharge_ready
        if auto_precharge:
            precharge_start = max(issue_ns + t.tRTP_ns, self.last_activate_ns + t.tRAS_ns)
            self.state = _IDLE
            self.open_row = None
            self.next_activate_ns = max(self.next_activate_ns, precharge_start + t.tRP_ns)
        return data_end

    def _issue_write(self, issue_ns: float, auto_precharge: bool) -> float:
        t = self.timing
        data_end = issue_ns + t.CWL_ns + t.burst_time_ns
        self.last_write_data_end_ns = data_end
        write_ready = issue_ns + t.tCCD_ns
        if write_ready > self.next_write_ns:
            self.next_write_ns = write_ready
        read_ready = data_end + t.tWTR_ns
        if read_ready > self.next_read_ns:
            self.next_read_ns = read_ready
        precharge_ready = data_end + t.tWR_ns
        if precharge_ready > self.next_precharge_ns:
            self.next_precharge_ns = precharge_ready
        if auto_precharge:
            precharge_start = max(
                data_end + t.tWR_ns, self.last_activate_ns + t.tRAS_ns
            )
            self.state = _IDLE
            self.open_row = None
            self.next_activate_ns = max(self.next_activate_ns, precharge_start + t.tRP_ns)
        return data_end

    def _issue_refresh(self, issue_ns: float) -> float:
        t = self.timing
        self.state = _IDLE
        self.open_row = None
        completion = issue_ns + t.tRFC_ns
        self.next_activate_ns = max(self.next_activate_ns, completion)
        self.next_precharge_ns = max(self.next_precharge_ns, completion)
        return completion
