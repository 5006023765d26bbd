"""Physical-address mapping.

Maps linear physical addresses to DRAM coordinates (channel, rank, bank, row,
column) and back.  The default interleaving is row:rank:bank:column:offset
("RoRaBaCo"), which spreads consecutive cache lines across columns of the
same row and consecutive rows across banks -- the layout Ramulator uses by
default and the one that maximizes bank-level parallelism for the sequential
sweeps performed by the cold-boot and secure-deallocation mechanisms.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.geometry import ModuleGeometry


@dataclass(frozen=True)
class DecodedAddress:
    """DRAM coordinates of one physical address."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int
    byte_offset: int

    def row_key(self) -> tuple[int, int, int, int]:
        """Hashable identifier of the (channel, rank, bank, row) tuple."""
        return (self.channel, self.rank, self.bank, self.row)


@dataclass(frozen=True)
class AddressMapper:
    """Bidirectional mapping between physical addresses and DRAM coordinates."""

    geometry: ModuleGeometry
    channels: int = 1
    #: Size of one column access in bytes (a 64-bit bus with BL8 = 64 bytes,
    #: i.e. one cache line).
    column_bytes: int = 64

    def __post_init__(self) -> None:
        if self.channels <= 0:
            raise ValueError("channels must be positive")
        if self.column_bytes <= 0:
            raise ValueError("column_bytes must be positive")
        if self.geometry.row_bytes % self.column_bytes != 0:
            raise ValueError(
                "row size must be a multiple of the column access size"
            )
        # The geometry is frozen, so the strides of the interleaving are
        # computed once instead of walking its property chain per decode.
        strides = (
            self.geometry.row_bytes // self.column_bytes,
            self.geometry.banks,
            self.geometry.ranks,
            self.channels,
            self.geometry.chip.rows_per_bank,
        )
        object.__setattr__(self, "_strides", strides)
        object.__setattr__(
            self, "_capacity_bytes", self.geometry.capacity_bytes * self.channels
        )

    @property
    def columns_per_row(self) -> int:
        """Number of column accesses (cache lines) per module row."""
        return self._strides[0]

    @property
    def capacity_bytes(self) -> int:
        """Total capacity across all channels."""
        return self._capacity_bytes

    def decode(self, physical_address: int) -> DecodedAddress:
        """Decode a physical byte address into DRAM coordinates."""
        if not 0 <= physical_address < self._capacity_bytes:
            raise ValueError(
                f"address {physical_address:#x} outside module capacity "
                f"{self._capacity_bytes:#x}"
            )
        columns, banks, ranks, channels, rows_per_bank = self._strides
        line, offset = divmod(physical_address, self.column_bytes)
        line, column = divmod(line, columns)
        line, bank = divmod(line, banks)
        line, rank = divmod(line, ranks)
        row, channel = divmod(line, channels)
        if row >= rows_per_bank:
            raise ValueError(
                f"address {physical_address:#x} maps to row {row}, beyond "
                f"{rows_per_bank} rows per bank"
            )
        return DecodedAddress(
            channel=channel,
            rank=rank,
            bank=bank,
            row=row,
            column=column,
            byte_offset=offset,
        )

    def encode(self, decoded: DecodedAddress) -> int:
        """Encode DRAM coordinates back into a physical byte address."""
        line = decoded.row
        line = line * self.channels + decoded.channel
        line = line * self.geometry.ranks + decoded.rank
        line = line * self.geometry.banks + decoded.bank
        line = line * self.columns_per_row + decoded.column
        return line * self.column_bytes + decoded.byte_offset

    def iter_row_keys(self):
        """Iterate over every (channel, rank, bank, row) tuple in the module."""
        for channel in range(self.channels):
            for rank in range(self.geometry.ranks):
                for bank in range(self.geometry.banks):
                    for row in range(self.geometry.chip.rows_per_bank):
                        yield (channel, rank, bank, row)
