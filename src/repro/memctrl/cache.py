"""Set-associative write-back caches with CLFLUSH support.

The paper's Ramulator configuration uses a 64 KB L1 (data + instruction) and
a 512 KB L2 per core.  The secure-deallocation baseline (software zeroing)
writes zeros through the cache hierarchy and uses CLFLUSH to force the zeroed
lines back to DRAM, so the cache model implements write-back/write-allocate
semantics, LRU replacement, dirty-line eviction and explicit flushes.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property


@dataclass(frozen=True)
class CacheConfig:
    """Configuration of one cache level."""

    size_bytes: int
    line_bytes: int = 64
    associativity: int = 8
    #: Access latency of this level in CPU cycles.
    latency_cycles: int = 2

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.line_bytes <= 0 or self.associativity <= 0:
            raise ValueError("cache parameters must be positive")
        if self.size_bytes % (self.line_bytes * self.associativity) != 0:
            raise ValueError("cache size must be divisible by line size x associativity")

    @cached_property
    def num_sets(self) -> int:
        """Number of sets."""
        return self.size_bytes // (self.line_bytes * self.associativity)


@dataclass
class CacheStats:
    """Hit/miss/writeback statistics of one cache level."""

    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    flushes: int = 0

    @property
    def accesses(self) -> int:
        """Total number of accesses."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit rate (0 when the cache was never accessed)."""
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class Cache:
    """One level of a set-associative, write-back, write-allocate cache."""

    config: CacheConfig
    stats: CacheStats = field(default_factory=CacheStats)
    #: set index -> OrderedDict mapping tag -> dirty flag (LRU order).
    _sets: dict[int, OrderedDict] = field(default_factory=dict)

    def _locate(self, address: int) -> tuple[int, int]:
        tag, set_index = divmod(address // self.config.line_bytes, self.config.num_sets)
        return set_index, tag

    def access(self, address: int, is_write: bool) -> tuple[bool, int | None]:
        """Access one address.

        Returns ``(hit, writeback_address)``: ``hit`` is True on a cache hit;
        ``writeback_address`` is the address of a dirty line evicted to make
        room (or ``None``).  On a miss the line is allocated (write-allocate).
        """
        set_index, tag = self._locate(address)
        ways = self._sets.get(set_index)
        if ways is None:
            ways = self._sets[set_index] = OrderedDict()
        if tag in ways:
            self.stats.hits += 1
            ways.move_to_end(tag)
            if is_write:
                ways[tag] = True
            return True, None

        self.stats.misses += 1
        writeback: int | None = None
        if len(ways) >= self.config.associativity:
            victim_tag, dirty = ways.popitem(last=False)
            if dirty:
                self.stats.writebacks += 1
                victim_line = victim_tag * self.config.num_sets + set_index
                writeback = victim_line * self.config.line_bytes
        ways[tag] = is_write
        return False, writeback

    def flush(self, address: int) -> bool:
        """CLFLUSH one line: invalidate it, returning True if it was dirty."""
        set_index, tag = self._locate(address)
        ways = self._sets.get(set_index)
        if not ways or tag not in ways:
            return False
        dirty = ways.pop(tag)
        self.stats.flushes += 1
        if dirty:
            self.stats.writebacks += 1
        return bool(dirty)

    def invalidate_all(self) -> int:
        """Drop every line (power-cycle); returns the number of dirty lines lost."""
        dirty = sum(
            1 for ways in self._sets.values() for flag in ways.values() if flag
        )
        self._sets.clear()
        return dirty


@dataclass
class CacheHierarchy:
    """A two-level cache hierarchy in front of the memory controller.

    ``access`` returns the list of memory-level operations the access caused:
    each entry is ``(address, is_write)`` -- a miss that must be fetched from
    DRAM (is_write=False) or a dirty writeback (is_write=True).
    """

    l1: Cache = field(
        default_factory=lambda: Cache(CacheConfig(size_bytes=64 * 1024, latency_cycles=2))
    )
    l2: Cache = field(
        default_factory=lambda: Cache(
            CacheConfig(size_bytes=512 * 1024, latency_cycles=10)
        )
    )

    def access(self, address: int, is_write: bool) -> tuple[int, list[tuple[int, bool]]]:
        """Access the hierarchy.

        Returns ``(latency_cycles, memory_operations)`` where
        ``memory_operations`` lists DRAM-level accesses (fills and dirty
        writebacks) triggered by this access.
        """
        memory_ops: list[tuple[int, bool]] = []
        latency = self.l1.config.latency_cycles
        l1_hit, l1_writeback = self.l1.access(address, is_write)
        if l1_writeback is not None:
            # An L1 victim is absorbed by the L2 (allocate on writeback).
            _, l2_victim = self.l2.access(l1_writeback, True)
            if l2_victim is not None:
                memory_ops.append((l2_victim, True))
        if l1_hit:
            return latency, memory_ops

        latency += self.l2.config.latency_cycles
        l2_hit, l2_writeback = self.l2.access(address, is_write=False)
        if l2_writeback is not None:
            memory_ops.append((l2_writeback, True))
        if not l2_hit:
            memory_ops.append((address, False))
        return latency, memory_ops

    def flush(self, address: int) -> list[tuple[int, bool]]:
        """CLFLUSH one line through both levels; returns DRAM writebacks."""
        memory_ops: list[tuple[int, bool]] = []
        l1_dirty = self.l1.flush(address)
        if l1_dirty:
            # The dirty L1 line is written back through the L2; keep it simple
            # and send it straight to memory (as CLFLUSH semantics require the
            # data to reach the point of persistence anyway).
            memory_ops.append((address, True))
            self.l2.flush(address)
            return memory_ops
        l2_dirty = self.l2.flush(address)
        if l2_dirty:
            memory_ops.append((address, True))
        return memory_ops
