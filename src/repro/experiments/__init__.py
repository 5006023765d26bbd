"""Experiment drivers that regenerate every table and figure of the paper.

Each driver module exposes a ``run(quick=True)`` function returning an
:class:`ExperimentResult` whose rows mirror the corresponding table or the
series of the corresponding figure.  ``quick=True`` shrinks sample counts so
that the full set of experiments finishes in minutes on a laptop;
``quick=False`` uses paper-scale sample counts.

The registry maps experiment identifiers (e.g. ``"table2"``, ``"fig7"``) to
their drivers so that the benchmark harness and the command-line report
generator can enumerate them.  Importing this package loads no driver:
``EXPERIMENT_IDS`` and ``driver(eid)`` import one driver on demand, while
``EXPERIMENTS`` (id -> driver) imports every driver on first access.
"""

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENT_IDS, driver, run_all, run_experiment

__all__ = [
    "ExperimentResult",
    "EXPERIMENTS",
    "EXPERIMENT_IDS",
    "driver",
    "run_experiment",
    "run_all",
]


def __getattr__(name: str):
    if name == "EXPERIMENTS":
        from repro.experiments import registry

        return registry.EXPERIMENTS
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
