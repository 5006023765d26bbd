"""Shared utilities: units, deterministic RNG helpers, and table rendering.

These helpers are deliberately small and dependency-free so that every other
subpackage can rely on them without introducing import cycles.  The RNG
helpers need NumPy, so they are imported on first use (PEP 562).
"""

from repro.utils.units import (
    KB,
    MB,
    GB,
    NS_PER_MS,
    NS_PER_S,
    NS_PER_US,
    format_bytes,
    format_energy_nj,
    format_time_ns,
)
from repro.utils.tables import render_table

__all__ = [
    "KB",
    "MB",
    "GB",
    "NS_PER_US",
    "NS_PER_MS",
    "NS_PER_S",
    "format_bytes",
    "format_time_ns",
    "format_energy_nj",
    "derive_seed",
    "make_rng",
    "render_table",
]


def __getattr__(name: str):
    if name in ("derive_seed", "make_rng"):
        from repro.utils import rng

        return getattr(rng, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
