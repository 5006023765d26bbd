"""In-order core model.

The core executes a :class:`~repro.memctrl.trace.WorkloadTrace`: one
instruction per cycle for compute, blocking loads (the in-order pipeline
stalls until the fill returns from the cache hierarchy or DRAM), buffered
stores, CLFLUSH, and deallocation events that are delegated to a pluggable
:class:`DeallocHandler` (the secure-deallocation mechanisms live in
:mod:`repro.dealloc.mechanisms`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro.memctrl.cache import CacheHierarchy
from repro.memctrl.controller import MemoryController
from repro.memctrl.request import MemoryRequest, RequestType
from repro.memctrl.trace import TraceEvent, TraceEventType

# Module-level aliases keep enum class-attribute lookups off the per-event path.
_COMPUTE = TraceEventType.COMPUTE
_LOAD = TraceEventType.LOAD
_STORE = TraceEventType.STORE
_FLUSH = TraceEventType.FLUSH
_DEALLOC = TraceEventType.DEALLOC
_READ = RequestType.READ
_WRITE = RequestType.WRITE


class DeallocHandler(Protocol):
    """Policy deciding how a deallocated region is zeroed."""

    def handle(self, core: "InOrderCore", event: TraceEvent) -> None:
        """Zero the region described by a DEALLOC event using this mechanism."""
        ...  # pragma: no cover - protocol definition


@dataclass
class NullDeallocHandler:
    """Deallocation policy that performs no zeroing (insecure baseline)."""

    def handle(self, core: "InOrderCore", event: TraceEvent) -> None:
        """Do nothing: deallocated data stays in DRAM."""


@dataclass
class CoreStats:
    """Per-core execution statistics."""

    instructions: int = 0
    loads: int = 0
    stores: int = 0
    flushes: int = 0
    deallocs: int = 0
    stall_cycles: float = 0.0

    def merge(self, other: "CoreStats") -> "CoreStats":
        """Combine statistics from two cores."""
        return CoreStats(
            instructions=self.instructions + other.instructions,
            loads=self.loads + other.loads,
            stores=self.stores + other.stores,
            flushes=self.flushes + other.flushes,
            deallocs=self.deallocs + other.deallocs,
            stall_cycles=self.stall_cycles + other.stall_cycles,
        )


@dataclass
class InOrderCore:
    """One in-order core attached to a private cache hierarchy."""

    core_id: int
    controller: MemoryController
    caches: CacheHierarchy = field(default_factory=CacheHierarchy)
    clock_ghz: float = 3.2
    dealloc_handler: DeallocHandler = field(default_factory=NullDeallocHandler)
    #: Fixed pipeline cost of executing a CLFLUSH instruction, cycles.
    flush_instruction_cycles: int = 40
    #: Pipeline cost of issuing one in-DRAM row operation (an uncached store
    #: to a memory-mapped controller register), cycles.
    row_op_issue_cycles: int = 10

    cycles: float = 0.0
    stats: CoreStats = field(default_factory=CoreStats)

    # ------------------------------------------------------------------
    # Time conversion
    # ------------------------------------------------------------------
    @property
    def time_ns(self) -> float:
        """Current core-local time in nanoseconds."""
        return self.cycles / self.clock_ghz

    def ns_to_cycles(self, duration_ns: float) -> float:
        """Convert a duration in nanoseconds into core cycles."""
        return duration_ns * self.clock_ghz

    # ------------------------------------------------------------------
    # Event execution
    # ------------------------------------------------------------------
    def execute(self, event: TraceEvent) -> None:
        """Execute one trace event, advancing the core's local time."""
        event_type = event.event_type
        if event_type is _COMPUTE:
            self.cycles += event.count
            self.stats.instructions += event.count
        elif event_type is _LOAD:
            self.stats.loads += 1
            self.stats.instructions += 1
            self._memory_access(event.address, is_write=False)
        elif event_type is _STORE:
            self.stats.stores += 1
            self.stats.instructions += 1
            self._memory_access(event.address, is_write=True)
        elif event_type is _FLUSH:
            self.stats.flushes += 1
            self.stats.instructions += 1
            self.do_flush(event.address)
        elif event_type is _DEALLOC:
            self.stats.deallocs += 1
            self.stats.instructions += 1
            self.dealloc_handler.handle(self, event)
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown trace event {event.event_type!r}")

    def run(self, events) -> float:
        """Execute a full trace; returns the core's finish time in ns."""
        for event in events:
            self.execute(event)
        return self.time_ns

    # ------------------------------------------------------------------
    # Memory operations (also used by dealloc handlers)
    # ------------------------------------------------------------------
    def do_store(self, address: int) -> None:
        """Issue one store through the cache hierarchy."""
        self.stats.stores += 1
        self.stats.instructions += 1
        self._memory_access(address, is_write=True)

    def do_flush(self, address: int) -> None:
        """Execute a CLFLUSH of the line containing ``address``."""
        self.cycles += self.flush_instruction_cycles
        for writeback_address, _ in self.caches.flush(address):
            self._enqueue_write(writeback_address)

    def issue_row_op(self, request_type: RequestType, address: int) -> None:
        """Issue a row-granular in-DRAM operation (CODIC / RowClone / LISA)."""
        if not request_type.is_row_granular:
            raise ValueError(f"{request_type} is not a row-granular operation")
        self.cycles += self.row_op_issue_cycles
        self._enqueue(MemoryRequest(request_type, address, self.time_ns, self.core_id))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _memory_access(self, address: int, is_write: bool) -> None:
        latency_cycles, memory_ops = self.caches.access(address, is_write)
        self.cycles += latency_cycles
        for op_address, op_is_write in memory_ops:
            if op_is_write:
                self._enqueue_write(op_address)
            else:
                self._blocking_read(op_address)

    def _blocking_read(self, address: int) -> None:
        request = MemoryRequest(_READ, address, self.time_ns, self.core_id)
        self._enqueue(request)
        completion_ns = self.controller.wait_for(request)
        stall_ns = max(0.0, completion_ns - request.arrival_ns)
        stall_cycles = self.ns_to_cycles(stall_ns)
        self.cycles += stall_cycles
        self.stats.stall_cycles += stall_cycles

    def _enqueue_write(self, address: int) -> None:
        self._enqueue(MemoryRequest(_WRITE, address, self.time_ns, self.core_id))

    def _enqueue(self, request: MemoryRequest) -> None:
        """Enqueue a request, draining the controller if the queue is full."""
        is_read = request.request_type is _READ
        while (
            self.controller.read_queue_full()
            if is_read
            else self.controller.write_queue_full()
        ):
            serviced = self.controller.service_one()
            if serviced is None:  # pragma: no cover - defensive
                break
        self.controller.enqueue(request)
