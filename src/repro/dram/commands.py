"""DRAM bus commands.

The command set covers the standard DDR3 commands the memory controller
issues plus the CODIC command added by the paper (Section 4.2.2) and the
in-DRAM copy commands of the RowClone / LISA baselines used in the cold-boot
and secure-deallocation comparisons.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Mnemonics of the commands that draw activation current from the charge
#: pumps, so that the rank-level tRRD/tFAW limits apply to them.
_ACTIVATION_CLASS_MNEMONICS = frozenset({"ACT", "CODIC", "RC_COPY", "LISA_COPY", "REF"})


class CommandType(enum.Enum):
    """Types of commands the controller can issue to a DRAM device."""

    ACTIVATE = "ACT"
    PRECHARGE = "PRE"
    PRECHARGE_ALL = "PREA"
    READ = "RD"
    READ_AP = "RDA"
    WRITE = "WR"
    WRITE_AP = "WRA"
    REFRESH = "REF"
    MODE_REGISTER_SET = "MRS"
    #: The new CODIC command (same bus format as an activation).
    CODIC = "CODIC"
    #: RowClone-FPM in-DRAM row copy (back-to-back activation of src and dst).
    ROWCLONE_COPY = "RC_COPY"
    #: LISA inter-subarray row copy (row buffer movement between subarrays).
    LISA_COPY = "LISA_COPY"

    # Members are singletons, so identity hashing is exact; it keeps the
    # memory controller's per-command Counter out of ``Enum.__hash__``.
    __hash__ = object.__hash__

    def __init__(self, mnemonic: str) -> None:
        #: Whether the rank-level activation limits (tRRD, tFAW) apply.
        self.activation_class = mnemonic in _ACTIVATION_CLASS_MNEMONICS

    @property
    def opens_row(self) -> bool:
        """Whether this command leaves a row open in the bank's row buffer."""
        return self in {CommandType.ACTIVATE}

    @property
    def is_column_command(self) -> bool:
        """Whether this command targets an already-open row (RD/WR family)."""
        return self in {
            CommandType.READ,
            CommandType.READ_AP,
            CommandType.WRITE,
            CommandType.WRITE_AP,
        }

    @property
    def is_row_command(self) -> bool:
        """Whether this command operates at row granularity."""
        return self in {
            CommandType.ACTIVATE,
            CommandType.PRECHARGE,
            CommandType.CODIC,
            CommandType.ROWCLONE_COPY,
            CommandType.LISA_COPY,
        }


@dataclass(frozen=True)
class DRAMCommand:
    """One command with its target coordinates and issue time."""

    command_type: CommandType
    channel: int = 0
    rank: int = 0
    bank: int = 0
    row: int = 0
    column: int = 0
    issue_time_ns: float = 0.0

    def __post_init__(self) -> None:
        for name in ("channel", "rank", "bank", "row", "column"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.issue_time_ns < 0:
            raise ValueError("issue_time_ns must be non-negative")

    def same_bank(self, other: "DRAMCommand") -> bool:
        """Whether two commands target the same bank of the same rank."""
        return (
            self.channel == other.channel
            and self.rank == other.rank
            and self.bank == other.bank
        )
