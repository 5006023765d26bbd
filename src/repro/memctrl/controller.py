"""Event-driven memory controller with JEDEC-timed command issue.

The controller owns per-bank timing state (through the
:class:`~repro.dram.rank.Rank` state machines), per-channel data-bus
occupancy, read/write request queues with FR-FCFS scheduling, an open-page
row-buffer policy, and per-command energy accounting.  It services ordinary
read/write requests as well as the row-granular in-DRAM operations used by
the cold-boot and secure-deallocation mechanisms (CODIC, RowClone, LISA).

It is *event-driven* rather than cycle-driven: time advances directly to the
next legal command issue time, which keeps multi-million-request simulations
tractable in Python while preserving the JEDEC timing relationships that the
paper's results depend on (tRCD/tRP/tRAS/tRC/tRRD/tFAW/tCCD/tWR/tWTR and the
burst occupancy of the shared data bus).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.address import AddressMapper
from repro.dram.commands import CommandType
from repro.dram.geometry import ModuleGeometry
from repro.dram.rank import Rank
from repro.dram.timing import DDR3_1600_11_11_11, TimingParameters
from repro.memctrl.request import MemoryRequest, RequestType
from repro.memctrl.scheduler import FRFCFSScheduler, Scheduler
from repro.power.counters import EnergyAccountant
from repro.power.model import CommandEnergyModel

_READ = RequestType.READ
# DRAM commands of the column-access path, by their bus mnemonics.
_ACT = CommandType.ACTIVATE
_PRE = CommandType.PRECHARGE
_RD = CommandType.READ
_WR = CommandType.WRITE

#: The DRAM command that carries out each row-granular request.
_ROW_OP_COMMANDS = {
    RequestType.CODIC_ZERO_ROW: CommandType.CODIC,
    RequestType.ROWCLONE_ZERO_ROW: CommandType.ROWCLONE_COPY,
    RequestType.LISA_ZERO_ROW: CommandType.LISA_COPY,
}


@dataclass(frozen=True)
class ControllerConfig:
    """Configuration of the memory controller (paper Table 5 defaults)."""

    read_queue_entries: int = 64
    write_queue_entries: int = 64
    #: Write-queue occupancy above which writes get priority over reads.
    write_drain_watermark: int = 48
    channels: int = 1
    #: Bytes per column access (one cache line).
    column_bytes: int = 64


@dataclass
class ControllerStats:
    """Aggregate statistics of one controller instance."""

    reads: int = 0
    writes: int = 0
    row_ops: int = 0
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    activations: int = 0
    precharges: int = 0

    @property
    def row_hit_rate(self) -> float:
        """Fraction of column accesses that hit an open row."""
        total = self.row_hits + self.row_misses + self.row_conflicts
        return self.row_hits / total if total else 0.0


@dataclass
class _BankTracker:
    """Open-row bookkeeping for one bank (the rank handles timing)."""

    open_row: int | None = None


@dataclass
class MemoryController:
    """One memory controller driving one or more channels of DRAM."""

    geometry: ModuleGeometry
    timing: TimingParameters = field(default_factory=lambda: DDR3_1600_11_11_11)
    config: ControllerConfig = field(default_factory=ControllerConfig)
    scheduler: Scheduler = field(default_factory=FRFCFSScheduler)
    energy_model: CommandEnergyModel = field(default_factory=CommandEnergyModel)

    now_ns: float = 0.0
    stats: ControllerStats = field(default_factory=ControllerStats)
    energy: EnergyAccountant = field(init=False)
    mapper: AddressMapper = field(init=False)

    _read_queue: list[MemoryRequest] = field(default_factory=list)
    _write_queue: list[MemoryRequest] = field(default_factory=list)
    _ranks: dict[tuple[int, int], Rank] = field(default_factory=dict)
    _banks: dict[tuple[int, int, int], _BankTracker] = field(default_factory=dict)
    _bus_free_ns: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.energy = EnergyAccountant(model=self.energy_model)
        self.mapper = AddressMapper(
            geometry=self.geometry,
            channels=self.config.channels,
            column_bytes=self.config.column_bytes,
        )
        for channel in range(self.config.channels):
            self._bus_free_ns[channel] = 0.0
            for rank_index in range(self.geometry.ranks):
                self._ranks[(channel, rank_index)] = Rank(
                    timing=self.timing, num_banks=self.geometry.banks
                )
                for bank in range(self.geometry.banks):
                    self._banks[(channel, rank_index, bank)] = _BankTracker()

    # ------------------------------------------------------------------
    # Scheduler bank-state view
    # ------------------------------------------------------------------
    def open_row(self, channel: int, rank: int, bank: int) -> int | None:
        """Row currently open in a bank (scheduler view)."""
        return self._banks[(channel, rank, bank)].open_row

    # ------------------------------------------------------------------
    # Queue management
    # ------------------------------------------------------------------
    def read_queue_full(self) -> bool:
        """Whether the read queue cannot accept another request."""
        return len(self._read_queue) >= self.config.read_queue_entries

    def write_queue_full(self) -> bool:
        """Whether the write queue cannot accept another request."""
        return len(self._write_queue) >= self.config.write_queue_entries

    def enqueue(self, request: MemoryRequest) -> None:
        """Accept a request into the appropriate queue.

        Callers must check the corresponding ``*_queue_full`` predicate first;
        over-filling raises (which models back-pressure to the core).  The
        request's address is decoded here, once, for the scheduler and the
        service step.
        """
        if request.request_type is _READ:
            if self.read_queue_full():
                raise RuntimeError("read queue overflow: drain before enqueueing")
            queue = self._read_queue
        else:
            if self.write_queue_full():
                raise RuntimeError("write queue overflow: drain before enqueueing")
            queue = self._write_queue
        request.decoded = self.mapper.decode(request.address)
        queue.append(request)

    @property
    def pending_requests(self) -> int:
        """Number of requests currently queued."""
        return len(self._read_queue) + len(self._write_queue)

    # ------------------------------------------------------------------
    # Servicing
    # ------------------------------------------------------------------
    def service_one(self) -> MemoryRequest | None:
        """Pick and fully service one queued request; returns it, or ``None``.

        Reads have priority unless the write queue has crossed its drain
        watermark (or there are no reads), matching common write-drain
        policies.
        """
        request = self._pick_next()
        if request is None:
            return None
        self._service(request)
        return request

    def advance(self, until_ns: float) -> None:
        """Service queued requests whose issue time falls at or before ``until_ns``."""
        while self.pending_requests:
            request = self._pick_next()
            if request is None:
                break
            issue_estimate = max(self.now_ns, request.arrival_ns)
            if issue_estimate > until_ns:
                self._requeue(request)
                break
            self._service(request)
        self.now_ns = max(self.now_ns, until_ns)

    def _requeue(self, request: MemoryRequest) -> None:
        """Put a picked-but-not-serviced request back into its queue."""
        if request.request_type is _READ:
            self._read_queue.append(request)
        else:
            self._write_queue.append(request)

    def wait_for(self, request: MemoryRequest) -> float:
        """Service requests until ``request`` completes; return its completion time."""
        while not request.is_complete:
            serviced = self.service_one()
            if serviced is None:
                raise RuntimeError(
                    "waiting for a request that is not queued in this controller"
                )
        assert request.completion_ns is not None
        return request.completion_ns

    def drain(self) -> float:
        """Service every queued request; return the time the last one completed."""
        last = self.now_ns
        while self.pending_requests:
            serviced = self.service_one()
            assert serviced is not None and serviced.completion_ns is not None
            last = max(last, serviced.completion_ns)
        return last

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _pick_next(self) -> MemoryRequest | None:
        drain_writes = (
            len(self._write_queue) >= self.config.write_drain_watermark
            or not self._read_queue
        )
        queue = self._write_queue if (drain_writes and self._write_queue) else self._read_queue
        request = self.scheduler.select(queue, self.mapper, self)
        if request is not None:
            queue.remove(request)
        return request

    def _service(self, request: MemoryRequest) -> None:
        decoded = request.decoded
        rank = self._ranks[(decoded.channel, decoded.rank)]
        tracker = self._banks[(decoded.channel, decoded.rank, decoded.bank)]
        # Explicit comparisons stand in for max() on this per-request path:
        # ``b if b > a else a`` is exactly ``max(a, b)``.
        arrival = request.arrival_ns
        start = arrival if arrival > self.now_ns else self.now_ns

        if request.request_type.is_row_granular:
            completion = self._service_row_op(request, decoded, rank, tracker, start)
        else:
            completion = self._service_column_access(request, decoded, rank, tracker, start)

        request.issue_ns = start
        request.completion_ns = completion
        busy_ns = completion - self.now_ns
        self.energy.record_time(busy_ns if busy_ns > 0.0 else 0.0)
        if start > self.now_ns:
            self.now_ns = start

    def _service_column_access(
        self,
        request: MemoryRequest,
        decoded,
        rank: Rank,
        tracker: _BankTracker,
        start: float,
    ) -> float:
        is_read = request.request_type is _READ
        bank_index = decoded.bank

        # Row-buffer management (open-page policy).
        if tracker.open_row is None:
            self.stats.row_misses += 1
            start = self._issue(rank, _ACT, bank_index, start, decoded.row)
            tracker.open_row = decoded.row
        elif tracker.open_row != decoded.row:
            self.stats.row_conflicts += 1
            start = self._issue(rank, _PRE, bank_index, start)
            start = self._issue(rank, _ACT, bank_index, start, decoded.row)
            tracker.open_row = decoded.row
        else:
            self.stats.row_hits += 1

        command = _RD if is_read else _WR
        issue = rank.earliest_issue_time(command, bank_index, start)
        bus_free_ns = self._bus_free_ns[decoded.channel]
        if bus_free_ns > issue:
            issue = bus_free_ns
        completion = rank.issue(command, bank_index, issue)
        self._bus_free_ns[decoded.channel] = completion
        self.energy.record_command(command)
        if is_read:
            self.stats.reads += 1
        else:
            self.stats.writes += 1
        if issue > self.now_ns:
            self.now_ns = issue
        return completion

    def _service_row_op(
        self,
        request: MemoryRequest,
        decoded,
        rank: Rank,
        tracker: _BankTracker,
        start: float,
    ) -> float:
        command = _ROW_OP_COMMANDS[request.request_type]
        bank_index = decoded.bank

        if tracker.open_row is not None:
            start = self._issue(rank, _PRE, bank_index, start)
            tracker.open_row = None

        issue = rank.earliest_issue_time(command, bank_index, start)
        completion = rank.issue(command, bank_index, issue, row=decoded.row)
        self.energy.record_command(command)
        self.stats.row_ops += 1
        self.now_ns = max(self.now_ns, issue)
        return completion

    def _issue(
        self,
        rank: Rank,
        command: CommandType,
        bank_index: int,
        not_before_ns: float,
        row: int | None = None,
    ) -> float:
        issue = rank.earliest_issue_time(command, bank_index, not_before_ns)
        rank.issue(command, bank_index, issue, row=row)
        self.energy.record_command(command)
        if command is _ACT:
            self.stats.activations += 1
        elif command is _PRE:
            self.stats.precharges += 1
        return issue

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------
    def submit_and_wait(self, request: MemoryRequest) -> float:
        """Enqueue one request and service the queues until it completes."""
        self.enqueue(request)
        return self.wait_for(request)

    def total_energy_nj(self, include_background: bool = True) -> float:
        """Energy consumed so far."""
        return self.energy.total_energy_nj(include_background=include_background)
