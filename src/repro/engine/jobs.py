"""Job abstractions executed by the engine.

A job is a frozen, picklable description of one unit of work with a fully
deterministic configuration: the same job run on any worker process produces
the same result.  The job kinds covering the repository today:

* :class:`ExperimentJob` wraps one registry driver (``table2``, ``fig7``, ...)
  in quick or paper-scale mode;
* :class:`MonteCarloPointJob` wraps a single (variation, temperature) Monte
  Carlo sweep point so that the Table 11 style sweeps can fan out per point;
* :class:`PUFPairsJob` is a batch of Jaccard pairs for one Figure 5/6 cell
  or the aging study;
* :class:`FleetTrafficJob` replays a stream of fleet authentication traffic
  (:mod:`repro.fleet`), enrolling each golden response on first use.

Jobs whose work splits into independent units additionally implement the
:class:`ShardedJob` protocol (``shard_jobs`` -> run each shard -> ``merge``),
which :func:`repro.engine.sharding.run_sharded` uses to schedule the shards
of many jobs on one process pool and cache them individually.  The last three
kinds are :class:`RangeJob` subclasses: each covers units ``[0, total)``
(samples, pairs, requests) and splits into :class:`RangeShard` ranges -- the
one shard class -- whose kind is the parent's ``shard_kind``
(``montecarlo-shard``, ``puf-pairs-shard``, ``fleet-traffic-shard``).
Because every unit owns an index-derived RNG stream, merged shard results
are bit-identical to a serial ``run()`` for every shard size and worker
count.

Each job also knows how to ``encode``/``decode`` its result to/from a
JSON-safe dict, which is what the content-addressed cache persists.

Cross-package imports happen lazily inside methods: the experiment registry
imports this module at call time and vice versa, and jobs must stay cheap to
unpickle inside ``ProcessPoolExecutor`` workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any

#: The events a job passes through in an engine event stream
#: (:class:`repro.engine.executor.JobEvent` types, the ``event`` field of
#: the ``--stream`` and daemon wire records).
SCHEDULED = "scheduled"
STARTED = "started"
CACHED = "cached"
FINISHED = "finished"
FAILED = "failed"

#: Events that settle a job; exactly one is emitted per executed job.
TERMINAL_EVENTS = frozenset({CACHED, FINISHED, FAILED})


class Job:
    """Abstract unit of work; subclasses are frozen dataclasses."""

    #: Stable discriminator used in cache keys and decoded payloads.
    kind: str = "job"

    @property
    def job_id(self) -> str:
        """Human-readable identifier used in progress lines and stats."""
        raise NotImplementedError

    @property
    def config(self) -> dict[str, Any]:
        """Deterministic JSON-safe configuration; part of the cache key."""
        raise NotImplementedError

    def run(self) -> Any:
        """Execute the job and return its result object."""
        raise NotImplementedError

    def encode(self, result: Any) -> dict[str, Any]:
        """Convert a result object to a JSON-safe dict for the cache."""
        raise NotImplementedError

    def decode(self, payload: dict[str, Any]) -> Any:
        """Inverse of :meth:`encode`."""
        raise NotImplementedError

    def shard_range(self) -> tuple[int, int] | None:
        """``(start, stop)`` unit coordinates for shard jobs, else ``None``.

        Event streams (:class:`repro.engine.executor.JobEvent`) surface this
        so ``--stream`` consumers can locate a shard without parsing job ids.
        """
        return None


class ShardedJob(Job):
    """A job whose work splits into independently runnable sub-jobs.

    Contract: for any ``shard_size``, ``merge([sub.run() for sub in
    shard_jobs(shard_size)])`` is bit-identical to ``run()``.  Sub-jobs may
    themselves be sharded (e.g. an experiment splits into sweep points, each
    point into sample ranges); :func:`repro.engine.sharding.run_sharded`
    expands recursively.  Sharding is purely an execution concern
    (parallelism plus per-shard caching), never a semantic one: shard
    boundaries must not influence the merged value.
    """

    def shard_jobs(self, shard_size: int) -> "list[Job] | None":
        """Sub-jobs of at most ``shard_size`` units, or ``None`` to run whole."""
        raise NotImplementedError

    def merge(self, values: list[Any]) -> Any:
        """Combine sub-job results (in shard order) into this job's result."""
        raise NotImplementedError


def shard_ranges(total: int, shard_size: int) -> list[tuple[int, int]]:
    """``[start, stop)`` ranges of at most ``shard_size`` covering ``total``.

    Boundaries are aligned to multiples of ``shard_size``, so growing
    ``total`` (e.g. re-running a sweep with more samples) leaves every
    previously computed shard job identical -- only the tail is new work.

    >>> shard_ranges(10, 4)
    [(0, 4), (4, 8), (8, 10)]
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    return [
        (start, min(start + shard_size, total))
        for start in range(0, total, shard_size)
    ]


@dataclass(frozen=True)
class ExperimentJob(ShardedJob):
    """One registry experiment (a paper table or figure) in one mode.

    Experiments with a shard plan (Table 11, Figures 5/6, aging) split into
    their unit jobs -- sweep points or pair batches -- which shard further.
    """

    experiment_id: str
    quick: bool = True

    kind = "experiment"

    def __post_init__(self) -> None:
        # Refuse a mistyped field where the job is made (a daemon submit),
        # not cache its run under a key of its own or fail in a worker.
        if not isinstance(self.experiment_id, str):
            raise TypeError(f"experiment_id must be a str, got {self.experiment_id!r}")
        if not isinstance(self.quick, bool):
            raise TypeError(f"quick must be a bool, got {self.quick!r}")

    @property
    def job_id(self) -> str:
        return self.experiment_id

    @property
    def config(self) -> dict[str, Any]:
        return {"experiment_id": self.experiment_id, "quick": self.quick}

    def run(self) -> Any:
        from repro.experiments.registry import driver

        return driver(self.experiment_id)(self.quick)

    def shard_jobs(self, shard_size: int) -> list[Job] | None:
        from repro.experiments.sharding import plan_for

        plan = plan_for(self.experiment_id)
        if plan is None:
            return None
        return list(plan.unit_jobs(self.quick))

    def merge(self, values: list[Any]) -> Any:
        from repro.experiments.sharding import plan_for

        return plan_for(self.experiment_id).assemble(self.quick, values)

    def encode(self, result: Any) -> dict[str, Any]:
        return result.to_dict()

    def decode(self, payload: dict[str, Any]) -> Any:
        from repro.experiments.base import ExperimentResult

        return ExperimentResult.from_dict(payload)


class RangeJob(ShardedJob):
    """A sharded job over units ``[0, total)`` that splits into contiguous
    :class:`RangeShard` ranges.

    Subclasses name the dataclass field holding the unit total
    (``total_field``) and the kind of their shards (``shard_kind``), and
    implement :meth:`run_range`.  The defaults run the whole range, split it
    with :func:`shard_ranges`, and treat a range's value as a dict of lists
    (``{"intra": [...], ...}``) that merges by per-key concatenation in
    range order and round-trips through the cache as float lists.  A
    subclass whose values take another form overrides ``merge`` and
    ``encode``/``decode``; one whose range values differ from its whole
    result also overrides ``encode_range``/``decode_range``.
    """

    #: Field holding the unit total; shard configs drop it.
    total_field: str = ""
    #: Discriminator of this job's :class:`RangeShard` cache entries.
    shard_kind: str = ""

    def run_range(self, start: int, stop: int) -> Any:
        """The value of units ``[start, stop)``."""
        raise NotImplementedError

    def run(self) -> Any:
        return self.run_range(0, getattr(self, self.total_field))

    def shard_jobs(self, shard_size: int) -> "list[Job] | None":
        total = getattr(self, self.total_field)
        if shard_size >= total:
            return None
        return [
            RangeShard(self, start, stop)
            for start, stop in shard_ranges(total, shard_size)
        ]

    def merge(self, values: list[Any]) -> Any:
        merged: dict[str, list[Any]] = {}
        for value in values:
            for key, part in value.items():
                merged.setdefault(key, []).extend(part)
        return merged

    def encode(self, result: Any) -> dict[str, Any]:
        return result

    def decode(self, payload: dict[str, Any]) -> Any:
        return {key: [float(v) for v in values] for key, values in payload.items()}

    def encode_range(self, value: Any) -> dict[str, Any]:
        """Cache payload of one range's value (defaults to :meth:`encode`)."""
        return self.encode(value)

    def decode_range(self, payload: dict[str, Any]) -> Any:
        """Inverse of :meth:`encode_range`."""
        return self.decode(payload)


@dataclass(frozen=True)
class RangeShard(Job):
    """Units ``[start, stop)`` of one :class:`RangeJob`.

    Wraps the batch job verbatim so batch parameters have one source of
    truth.  The config is the batch's *minus* its unit total, plus the range:
    every unit owns an index-addressed RNG stream, so a range's value depends
    on the range alone and growing a study (more samples, pairs or requests)
    re-uses every previously cached shard -- only the tail is new.
    """

    batch: RangeJob
    start: int
    stop: int

    @property
    def kind(self) -> str:  # type: ignore[override]
        return self.batch.shard_kind

    @property
    def job_id(self) -> str:
        return f"{self.batch.job_id}[{self.start}:{self.stop}]"

    @property
    def config(self) -> dict[str, Any]:
        config = dict(self.batch.config)
        del config[self.batch.total_field]
        config["start"] = self.start
        config["stop"] = self.stop
        return config

    def run(self) -> Any:
        return self.batch.run_range(self.start, self.stop)

    def shard_range(self) -> tuple[int, int]:
        return (self.start, self.stop)

    def encode(self, result: Any) -> dict[str, Any]:
        return self.batch.encode_range(result)

    def decode(self, payload: dict[str, Any]) -> Any:
        return self.batch.decode_range(payload)


@dataclass(frozen=True)
class MonteCarloPointJob(RangeJob):
    """One (variation, temperature) point of a Monte Carlo sweep.

    Its shards (kind ``montecarlo-shard``) count the bit flips of a sample
    range; the point itself returns a
    :class:`~repro.circuit.montecarlo.MonteCarloResult`.
    """

    variation_percent: float
    temperature_c: float
    samples: int = 100_000
    seed: int = 12345

    kind = "montecarlo-point"
    shard_kind = "montecarlo-shard"
    total_field = "samples"

    @property
    def job_id(self) -> str:
        return f"mc[{self.variation_percent:g}%,{self.temperature_c:g}C]"

    @property
    def config(self) -> dict[str, Any]:
        return {
            "variation_percent": self.variation_percent,
            "temperature_c": self.temperature_c,
            "samples": self.samples,
            "seed": self.seed,
        }

    def run(self) -> Any:
        from repro.circuit.montecarlo import MonteCarloEngine

        engine = MonteCarloEngine(seed=self.seed, samples=self.samples)
        return engine.run_point(self.variation_percent, self.temperature_c)

    def run_range(self, start: int, stop: int) -> int:
        from repro.circuit.montecarlo import MonteCarloEngine

        engine = MonteCarloEngine(seed=self.seed)
        return engine.shard_flips(
            self.variation_percent, self.temperature_c, start, stop
        )

    def shard_jobs(self, shard_size: int) -> "list[Job] | None":
        from repro.circuit.montecarlo import MC_SAMPLE_BLOCK

        # Align shards to the canonical RNG blocks: a boundary inside a block
        # would make both neighbouring shards draw that whole block.  Safe for
        # bit-identity (per-sample values are index-addressed) and for cache
        # reuse (alignment depends only on shard_size).
        aligned = max(shard_size // MC_SAMPLE_BLOCK, 1) * MC_SAMPLE_BLOCK
        return super().shard_jobs(aligned)

    def merge(self, values: list[Any]) -> Any:
        from repro.circuit.montecarlo import MonteCarloResult

        return MonteCarloResult(
            variation_percent=self.variation_percent,
            temperature_c=self.temperature_c,
            samples=self.samples,
            bit_flips=sum(int(value) for value in values),
        )

    def encode(self, result: Any) -> dict[str, Any]:
        return {
            "variation_percent": result.variation_percent,
            "temperature_c": result.temperature_c,
            "samples": result.samples,
            "bit_flips": result.bit_flips,
        }

    def decode(self, payload: dict[str, Any]) -> Any:
        from repro.circuit.montecarlo import MonteCarloResult

        return MonteCarloResult(**payload)

    def encode_range(self, value: Any) -> dict[str, Any]:
        return {"bit_flips": int(value)}

    def decode_range(self, payload: dict[str, Any]) -> Any:
        return int(payload["bit_flips"])


@lru_cache(maxsize=1)
def _paper_population():
    """Per-process memo of the paper's module population.

    PUF evaluation only reads seed-derived responses (it never writes rows),
    so sharing one population across every pair job in a worker process is
    safe and avoids rebuilding 136 chips per shard.
    """
    from repro.dram.population import paper_population

    return paper_population()


@dataclass(frozen=True)
class PUFPairsJob(RangeJob):
    """A batch of Jaccard pairs: one Figure 5/6 cell or the aging study.

    The result value is a dict of Jaccard index lists in pair-index order --
    ``{"intra": [...], "inter": [...]}`` for quality mode, ``{"intra": [...]}``
    for temperature/aging.  Per-pair RNG streams make the value independent
    of sharding and worker count.
    """

    puf: str
    mode: str  # "quality" | "temperature" | "aging"
    pairs: int
    seed: int
    voltage: str = "all"  # "all" | "ddr3" | "ddr3l"
    base_temperature_c: float = 30.0
    temperature_delta_c: float = 0.0
    aging_hours: float = 8.0
    segment_bytes: int = 8192

    kind = "puf-pairs"
    shard_kind = "puf-pairs-shard"
    total_field = "pairs"

    @property
    def job_id(self) -> str:
        detail = f"dT={self.temperature_delta_c:g}" if self.mode == "temperature" else self.voltage
        return f"{self.mode}[{self.puf},{detail}]"

    @property
    def config(self) -> dict[str, Any]:
        return {
            "puf": self.puf,
            "mode": self.mode,
            "pairs": self.pairs,
            "seed": self.seed,
            "voltage": self.voltage,
            "base_temperature_c": self.base_temperature_c,
            "temperature_delta_c": self.temperature_delta_c,
            "aging_hours": self.aging_hours,
            "segment_bytes": self.segment_bytes,
        }

    def run(self) -> Any:
        # Defined here rather than inherited: perfbench/layers.py wraps this
        # class's own ``run`` to attribute whole-batch pair time.
        return self.run_range(0, self.pairs)

    def run_range(self, start: int, stop: int) -> dict[str, list[float]]:
        from repro.experiments.puf_experiments import PUF_FACTORIES
        from repro.puf.evaluation import PUFEvaluator

        population = _paper_population()
        if self.voltage == "all":
            modules = population.modules
        elif self.voltage in ("ddr3", "ddr3l"):
            modules = population.modules_by_voltage(self.voltage == "ddr3l")
        else:
            raise ValueError(
                f"unknown voltage class {self.voltage!r}; expected all/ddr3/ddr3l"
            )
        try:
            factory = PUF_FACTORIES[self.puf]
        except KeyError:
            raise KeyError(
                f"unknown PUF {self.puf!r}; known PUFs: {sorted(PUF_FACTORIES)}"
            ) from None
        evaluator = PUFEvaluator(
            modules,
            factory,
            pairs=self.pairs,  # the batch total, so range checks stay meaningful
            segment_bytes=self.segment_bytes,
            seed=self.seed,
        )
        # The *_shard methods route through the batched pair kernels
        # (quality_pairs_batch and friends); .values converts the float64
        # result arrays to the JSON-safe lists the cache persists, with floats
        # identical to the scalar kernel loop.
        if self.mode == "quality":
            intra, inter = evaluator.quality_shard(
                start, stop, temperature_c=self.base_temperature_c
            )
            return {"intra": intra.values, "inter": inter.values}
        if self.mode == "temperature":
            distribution = evaluator.temperature_shard(
                self.temperature_delta_c, start, stop,
                base_temperature_c=self.base_temperature_c,
            )
            return {"intra": distribution.values}
        if self.mode == "aging":
            distribution = evaluator.aging_shard(
                start, stop, aging_hours=self.aging_hours
            )
            return {"intra": distribution.values}
        raise ValueError(
            f"unknown mode {self.mode!r}; expected quality/temperature/aging"
        )


@lru_cache(maxsize=8)
def _fleet_runtime(fleet_config):
    """Per-process memo of (fleet, verifier) for one fleet config.

    The verifier enrolls lazily, so the golden store only ever holds the
    (device, challenge) slots the requests of this worker actually touched.
    Sharing it across the shard jobs of one worker is safe: golden responses
    are pure functions of the fleet config, so a memoized slot holds exactly
    the array a fresh enrollment would recompute.
    """
    from repro.fleet.devices import DeviceFleet
    from repro.fleet.verifier import FleetVerifier

    fleet = DeviceFleet(fleet_config)
    return fleet, FleetVerifier(fleet)


@dataclass(frozen=True)
class FleetTrafficJob(RangeJob):
    """One authentication traffic stream replayed against one fleet.

    The result value is ``{"genuine": [...], "impostor": [...]}``: the
    Jaccard similarity of every request, split by presenter category, in
    request-index order.  Per-request streams make the value independent of
    sharding and worker count (:mod:`repro.fleet.traffic`).
    """

    fleet_seed: int
    devices: int
    puf: str
    requests: int
    challenges_per_device: int = 4
    impostor_ratio: float = 0.1
    temperature_jitter_c: float = 0.0
    aging_horizon_hours: float = 0.0
    reenroll_hours: float = 0.0

    kind = "fleet-traffic"
    shard_kind = "fleet-traffic-shard"
    total_field = "requests"

    def __post_init__(self) -> None:
        # Refuse a bad configuration where the job is made (the CLI, a daemon
        # submit), not inside a pool worker.  The seed is checked here so the
        # refusal names this job's field, not ``FleetConfig.seed``.
        if type(self.fleet_seed) is not int:
            raise TypeError(f"fleet_seed must be an int, got {self.fleet_seed!r}")
        self.traffic_config().check_fleet_size(self.fleet_config().devices)

    def fleet_config(self):
        """The :class:`repro.fleet.devices.FleetConfig` this job addresses."""
        from repro.fleet.devices import FleetConfig

        return FleetConfig(
            seed=self.fleet_seed,
            devices=self.devices,
            puf=self.puf,
            challenges_per_device=self.challenges_per_device,
        )

    def traffic_config(self):
        """The :class:`repro.fleet.traffic.TrafficConfig` this job replays."""
        from repro.fleet.traffic import TrafficConfig

        return TrafficConfig(
            requests=self.requests,
            impostor_ratio=self.impostor_ratio,
            temperature_jitter_c=self.temperature_jitter_c,
            aging_horizon_hours=self.aging_horizon_hours,
            reenroll_hours=self.reenroll_hours,
        )

    @property
    def job_id(self) -> str:
        if self.aging_horizon_hours:
            detail = (
                f"reenroll={self.reenroll_hours:g}h"
                if self.reenroll_hours
                else "reenroll=never"
            )
        else:
            detail = f"imp={self.impostor_ratio:g}"
        return f"fleet[{self.puf},n={self.devices},{detail}]"

    @property
    def config(self) -> dict[str, Any]:
        return {
            "fleet_seed": self.fleet_seed,
            "devices": self.devices,
            "puf": self.puf,
            "requests": self.requests,
            "challenges_per_device": self.challenges_per_device,
            "impostor_ratio": self.impostor_ratio,
            "temperature_jitter_c": self.temperature_jitter_c,
            "aging_horizon_hours": self.aging_horizon_hours,
            "reenroll_hours": self.reenroll_hours,
        }

    def run_range(self, start: int, stop: int) -> dict[str, list[float]]:
        from repro.fleet.traffic import authenticate_block

        fleet, verifier = _fleet_runtime(self.fleet_config())
        genuine, impostor = authenticate_block(
            fleet, verifier, self.traffic_config(), start, stop
        )
        return {"genuine": genuine.tolist(), "impostor": impostor.tolist()}

