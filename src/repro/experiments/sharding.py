"""Shard plans: how registry experiments decompose into engine unit jobs.

A :class:`ShardPlan` names the two halves of a shardable experiment driver:
``unit_jobs(quick)`` builds the per-cell/per-point jobs (each itself a
:class:`~repro.engine.jobs.ShardedJob` that splits into sample or pair
ranges), and ``assemble(quick, values)`` folds their results back into the
driver's :class:`~repro.experiments.base.ExperimentResult`.  The serial
drivers are implemented as ``assemble(quick, [job.run() for job in
unit_jobs(quick)])``, which is what guarantees sharded execution reproduces
them bit-for-bit.

Experiments without a plan (cheap closed-form tables) simply run whole.

A unit job's ``config`` (and hence its cache key) holds every field of the
job: each one determines the job's value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.experiments import (
    coldboot_experiments,
    fleet_experiments,
    puf_experiments,
)
from repro.experiments.base import ExperimentResult


@dataclass(frozen=True)
class ShardPlan:
    """Unit-job builder and table assembler of one shardable experiment."""

    unit_jobs: Callable[[bool], Sequence[Any]]
    assemble: Callable[[bool, Sequence[Any]], ExperimentResult]


#: Shard plans keyed by experiment identifier.
SHARD_PLANS: dict[str, ShardPlan] = {
    "fig5": ShardPlan(puf_experiments.fig5_unit_jobs, puf_experiments.assemble_fig5),
    "fig6": ShardPlan(puf_experiments.fig6_unit_jobs, puf_experiments.assemble_fig6),
    "aging": ShardPlan(
        puf_experiments.aging_unit_jobs, puf_experiments.assemble_aging
    ),
    "table11": ShardPlan(
        coldboot_experiments.table11_unit_jobs,
        coldboot_experiments.assemble_table11,
    ),
    "fleet-roc": ShardPlan(
        fleet_experiments.fleet_roc_unit_jobs,
        fleet_experiments.assemble_fleet_roc,
    ),
    "fleet-aging": ShardPlan(
        fleet_experiments.fleet_aging_unit_jobs,
        fleet_experiments.assemble_fleet_aging,
    ),
}


def plan_for(experiment_id: str) -> ShardPlan | None:
    """Shard plan of one experiment, or ``None`` when it runs whole."""
    return SHARD_PLANS.get(experiment_id)
