"""Registry of all experiment drivers, keyed by paper table/figure.

The registry is one ordered table: experiment id -> (driver module, driver
function).  Checking an id (:data:`EXPERIMENT_IDS`) imports nothing, and
:func:`driver` imports the one driver module it needs, so a front end that
lists, validates or forwards experiments never loads NumPy or the drivers.
:data:`EXPERIMENTS` maps every id to its driver function; touching it
imports every driver module.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.engine.cache import ResultCache
    from repro.experiments.base import ExperimentResult

#: Every reproducible table/figure: id -> (module under ``repro.experiments``,
#: driver function), in report order; ids are the ones used throughout
#: DESIGN.md and EXPERIMENTS.md.
_DRIVERS: dict[str, tuple[str, str]] = {
    "table1": ("substrate_tables", "run_table1"),
    "table2": ("substrate_tables", "run_table2"),
    "waveforms": ("substrate_tables", "run_waveforms"),
    "fig5": ("puf_experiments", "run_fig5"),
    "fig6": ("puf_experiments", "run_fig6"),
    "aging": ("puf_experiments", "run_aging"),
    "table4": ("puf_experiments", "run_table4"),
    "table10": ("puf_experiments", "run_table10"),
    "fig7": ("coldboot_experiments", "run_fig7"),
    "fig7-energy": ("coldboot_experiments", "run_energy_comparison"),
    "table6": ("coldboot_experiments", "run_table6"),
    "table11": ("coldboot_experiments", "run_table11"),
    "fig8": ("dealloc_experiments", "run_fig8"),
    "fig9": ("dealloc_experiments", "run_fig9"),
    "fleet-roc": ("fleet_experiments", "run_fleet_roc"),
    "fleet-aging": ("fleet_experiments", "run_fleet_aging"),
}

#: Every experiment identifier, in report order.
EXPERIMENT_IDS: tuple[str, ...] = tuple(_DRIVERS)


def driver(experiment_id: str) -> Callable[[bool], ExperimentResult]:
    """The driver function of one experiment, importing only its module."""
    try:
        module, function = _DRIVERS[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known experiments: "
            f"{sorted(EXPERIMENT_IDS)}"
        ) from None
    return getattr(importlib.import_module(f"repro.experiments.{module}"), function)


def __getattr__(name: str) -> dict[str, Callable[[bool], ExperimentResult]]:
    # ``EXPERIMENTS`` (id -> driver function, in report order) is built on
    # first access and then stored as a module attribute, so this runs once.
    if name == "EXPERIMENTS":
        experiments = {eid: driver(eid) for eid in EXPERIMENT_IDS}
        globals()["EXPERIMENTS"] = experiments
        return experiments
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_experiment(experiment_id: str, quick: bool = True) -> ExperimentResult:
    """Run one experiment by identifier."""
    return driver(experiment_id)(quick)


def run_all(
    quick: bool = True,
    *,
    jobs: int = 1,
    shard_size: int | None = None,
    cache: "ResultCache | None" = None,
) -> dict[str, ExperimentResult]:
    """Run every registered experiment and return results keyed by id.

    Execution is routed through :mod:`repro.engine`: ``jobs > 1`` fans the
    drivers out across worker processes, ``shard_size`` additionally splits
    the shardable experiments (Table 11, Figures 5/6, aging) into sample/pair
    ranges scheduled on the same pool, and passing a
    :class:`~repro.engine.cache.ResultCache` serves repeat invocations from
    disk.  Result ordering and values match the registry regardless of worker
    count or shard size.
    """
    # Imported lazily: the engine's job classes resolve this registry at call
    # time, so a module-level import here would be circular.
    from repro.engine.jobs import ExperimentJob
    from repro.engine.sharding import run_sharded

    outcomes = run_sharded(
        [ExperimentJob(experiment_id, quick=quick) for experiment_id in EXPERIMENT_IDS],
        shard_size=shard_size,
        workers=jobs,
        cache=cache,
    )
    return {outcome.job.experiment_id: outcome.value for outcome in outcomes}


def render_report(quick: bool = True, *, jobs: int = 1) -> str:
    """Render a full plain-text reproduction report (all experiments)."""
    sections = [result.render() for result in run_all(quick, jobs=jobs).values()]
    return "\n\n".join(sections)
