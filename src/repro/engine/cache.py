"""Content-addressed on-disk cache for engine job results.

Every cache entry is addressed by the SHA-256 of a canonical JSON encoding of
``{kind, config, code_version}``:

* ``kind``/``config`` come from the job (deterministic by contract);
* ``code_version`` defaults to a fingerprint of the installed ``repro``
  package sources plus ``repro.__version__``, so editing any source file
  silently invalidates stale results — no manual cache busting needed.

Entries are stored as ``<key[:2]>/<key>.json`` under the cache directory and
written atomically (temp file + rename), so concurrent runs sharing one cache
directory never observe torn blobs.  The cache keeps hit/miss/store counters
for the CLI's summary line and the acceptance tests.

The store is bounded on request rather than on every write: :meth:`prune`
evicts least-recently-used blobs (every hit refreshes its blob's mtime)
until the directory fits a byte budget.  The CLI exposes this as the
``cache-prune`` subcommand.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Iterator

from repro import telemetry
from repro.engine import faults
from repro.engine.jobs import Job
from repro.engine.serialization import canonical_json


def _count(name: str, amount: int = 1) -> None:
    """Bump a global telemetry counter when collection is on (else free)."""
    if telemetry.collection_enabled():
        telemetry.registry().counter(name).inc(amount)

#: Default cache location; overridable via the CLI or this environment variable.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> Path:
    """Cache directory from ``$REPRO_CACHE_DIR``, else ``./.repro-cache``."""
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


@lru_cache(maxsize=1)
def source_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (plus the package version).

    Computed once per process; any edit to the package sources yields a new
    fingerprint and therefore a disjoint cache key space.
    """
    import repro

    package_root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256(repro.__version__.encode())
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when never queried)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses "
            f"({100.0 * self.hit_rate:.0f}% hit rate)"
        )


@dataclass
class ResultCache:
    """Content-addressed store mapping job descriptions to result payloads."""

    cache_dir: Path = field(default_factory=default_cache_dir)
    code_version: str = field(default_factory=source_fingerprint)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.cache_dir = Path(self.cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    def key_for(self, job: Job) -> str:
        """Content address of one job under the current code version."""
        material = {
            "kind": job.kind,
            "config": job.config,
            "code_version": self.code_version,
        }
        return hashlib.sha256(canonical_json(material).encode()).hexdigest()

    def path_for(self, job: Job) -> Path:
        key = self.key_for(job)
        return self.cache_dir / key[:2] / f"{key}.json"

    def get(self, job: Job) -> Any | None:
        """Decoded cached result for ``job``, or ``None`` on a miss.

        A corrupt, truncated, or undecodable blob (garbage JSON, a partial
        write, a payload the job cannot decode) counts as a miss *and is
        evicted* so it cannot shadow the key or linger in the store.  A
        transient read error (``OSError`` other than the file being absent)
        is a plain miss: the blob may be perfectly valid, so it is left in
        place.
        """
        path = self.path_for(job)
        try:
            entry = json.loads(path.read_text())
            value = job.decode(entry["payload"])
        except OSError:
            self.stats.misses += 1
            _count(telemetry.CACHE_MISSES)
            return None
        except (ValueError, KeyError, TypeError):
            self.stats.misses += 1
            _count(telemetry.CACHE_MISSES)
            try:
                path.unlink()  # evict the bad blob instead of leaving it
                _count(telemetry.CACHE_EVICTIONS)
            except OSError:
                pass
            return None
        try:
            os.utime(path)  # refresh recency for LRU pruning
        except OSError:
            pass
        self.stats.hits += 1
        _count(telemetry.CACHE_HITS)
        return value

    def put(self, job: Job, result: Any) -> Path:
        """Persist one result atomically; returns the blob path."""
        path = self.path_for(job)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": path.stem,
            "kind": job.kind,
            "job_id": job.job_id,
            "config": job.config,
            "code_version": self.code_version,
            "payload": job.encode(result),
        }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(entry, indent=2, sort_keys=True))
        os.replace(tmp, path)
        # Chaos hook: a configured fault plan may garble this blob in place;
        # get() treats an undecodable blob as an evict-then-miss, so the
        # engine recomputes bit-identically -- exactly what chaos runs assert.
        faults.injector().on_cache_store(path)
        self.stats.stores += 1
        _count(telemetry.CACHE_STORES)
        return path

    def invalidate(self, job: Job) -> bool:
        """Drop one entry; returns whether anything was removed."""
        path = self.path_for(job)
        try:
            path.unlink()
            return True
        except FileNotFoundError:
            return False

    def clear(self) -> int:
        """Drop every entry (all code versions); returns the count removed."""
        removed = 0
        for path in self.iter_paths():
            path.unlink()
            removed += 1
        return removed

    def iter_paths(self) -> Iterator[Path]:
        """Paths of every stored blob, across all code versions."""
        yield from sorted(self.cache_dir.glob("*/*.json"))

    def size_bytes(self) -> int:
        """Total size of every stored blob."""
        total = 0
        for path in self.iter_paths():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    def prune(self, max_bytes: int) -> tuple[int, int]:
        """Evict least-recently-used blobs until the store fits ``max_bytes``.

        Recency is the blob mtime, which every :meth:`get` hit refreshes, so
        entries a live workload keeps touching survive while abandoned
        configurations (old code versions, one-off sweeps) age out first.
        Returns ``(entries_removed, bytes_freed)``.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be non-negative, got {max_bytes}")
        entries = []
        for path in self.iter_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path, stat.st_size))
        total = sum(size for _, _, size in entries)
        removed = 0
        freed = 0
        for _, path, size in sorted(entries, key=lambda entry: (entry[0], str(entry[1]))):
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            _count(telemetry.CACHE_EVICTIONS)
            total -= size
            freed += size
            removed += 1
        return removed, freed

    def __len__(self) -> int:
        return sum(1 for _ in self.iter_paths())
