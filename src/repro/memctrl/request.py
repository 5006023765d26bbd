"""Memory requests exchanged between cores/caches and the memory controller."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from repro.dram.address import DecodedAddress


class RequestType(enum.Enum):
    """Kinds of requests the controller accepts."""

    READ = "read"
    WRITE = "write"
    #: Row-granular in-DRAM zeroing via a CODIC command (CODIC-det).
    CODIC_ZERO_ROW = "codic_zero_row"
    #: Row-granular in-DRAM copy of an all-zero source row (RowClone-FPM).
    ROWCLONE_ZERO_ROW = "rowclone_zero_row"
    #: Row-granular in-DRAM copy through the LISA inter-subarray links.
    LISA_ZERO_ROW = "lisa_zero_row"

    # Members are singletons: identity hashing is exact and keeps dict
    # lookups keyed by request type out of ``Enum.__hash__``.
    __hash__ = object.__hash__

    @property
    def is_row_granular(self) -> bool:
        """Whether the request operates on a whole DRAM row."""
        return self is _CODIC_ZERO_ROW or self is _ROWCLONE_ZERO_ROW or self is _LISA_ZERO_ROW

    @property
    def needs_data_bus(self) -> bool:
        """Whether the request transfers data over the memory channel."""
        return self is _READ or self is _WRITE


_READ = RequestType.READ
_WRITE = RequestType.WRITE
_CODIC_ZERO_ROW = RequestType.CODIC_ZERO_ROW
_ROWCLONE_ZERO_ROW = RequestType.ROWCLONE_ZERO_ROW
_LISA_ZERO_ROW = RequestType.LISA_ZERO_ROW


_request_ids = itertools.count()


@dataclass(eq=False)
class MemoryRequest:
    """One request in flight through the memory system.

    Requests are compared by identity (each carries a unique id), which also
    keeps removing one from a controller queue a pointer scan.
    """

    request_type: RequestType
    address: int
    arrival_ns: float
    core_id: int = 0
    request_id: int = field(default_factory=lambda: next(_request_ids))

    # Filled in by the controller.
    issue_ns: float | None = None
    completion_ns: float | None = None
    #: DRAM coordinates of ``address``, decoded once when a controller
    #: accepts the request.
    decoded: DecodedAddress | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError("address must be non-negative")
        if self.arrival_ns < 0:
            raise ValueError("arrival_ns must be non-negative")

    @property
    def latency_ns(self) -> float:
        """Total latency from arrival to completion (requires completion)."""
        if self.completion_ns is None:
            raise ValueError("request has not completed yet")
        return self.completion_ns - self.arrival_ns

    @property
    def is_complete(self) -> bool:
        """Whether the controller has finished servicing this request."""
        return self.completion_ns is not None
