"""Batch/grid sweep API on top of the job executor.

This is the fan-out layer used by the examples and by parameter studies: a
cartesian grid of configuration points, one job per point, executed through
:func:`repro.engine.sharding.run_sharded` so points run on as many workers as
requested and individually hit the content-addressed cache.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Callable, Sequence

from repro.engine.cache import ResultCache
from repro.engine.jobs import Job, MonteCarloPointJob
from repro.engine.sharding import run_sharded


def grid(**axes: Sequence[Any]) -> list[dict[str, Any]]:
    """Cartesian product of named axes, in axis-then-value order.

    >>> grid(a=[1, 2], b=["x"])
    [{'a': 1, 'b': 'x'}, {'a': 2, 'b': 'x'}]
    """
    names = list(axes)
    return [
        dict(zip(names, values)) for values in product(*(axes[name] for name in names))
    ]


def run_sweep(
    make_job: Callable[[dict[str, Any]], Job],
    points: Sequence[dict[str, Any]],
    *,
    workers: int = 1,
    shard_size: int | None = None,
    cache: ResultCache | None = None,
) -> list[Any]:
    """Run one job per grid point; results come back in grid order.

    With ``shard_size``, shardable point jobs additionally split *within*
    the point (sample/pair ranges), so even a single-point sweep saturates
    the worker pool -- results are unchanged for any configuration.
    """
    outcomes = run_sharded(
        [make_job(point) for point in points],
        shard_size=shard_size,
        workers=workers,
        cache=cache,
    )
    return [outcome.value for outcome in outcomes]


def monte_carlo_grid(
    variation_percents: Sequence[float],
    temperatures_c: Sequence[float],
    *,
    samples: int = 100_000,
    seed: int = 12345,
    workers: int = 1,
    shard_size: int | None = None,
    cache: ResultCache | None = None,
) -> list[Any]:
    """Monte Carlo flip rates over the (variation x temperature) grid.

    Each point is an independent job with a collision-free
    ``SeedSequence``-derived stream, so the result list is identical for any
    worker count and bit-identical to the serial
    :meth:`~repro.circuit.montecarlo.MonteCarloEngine.sweep_variation` /
    ``sweep_temperature`` paths.  ``shard_size`` splits each point's sample
    range across the same pool (and cache) without changing a single bit.
    """
    points = grid(variation_percent=variation_percents, temperature_c=temperatures_c)
    return run_sweep(
        lambda point: MonteCarloPointJob(samples=samples, seed=seed, **point),
        points,
        workers=workers,
        shard_size=shard_size,
        cache=cache,
    )
