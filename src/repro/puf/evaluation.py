"""PUF quality evaluation harness (Figures 5 and 6, aging study).

The harness reproduces the paper's methodology:

* draw random 8 KB memory segments from the evaluated module population,
* compute **Intra-Jaccard** indices over pairs of responses to the *same*
  challenge and **Inter-Jaccard** indices over pairs of responses to
  *different* challenges (10,000 pairs each in the paper),
* repeat across temperatures (30 C + deltas of 15/25/55 C) for the
  temperature study of Figure 6, and across accelerated-aging steps for the
  aging study.

Evaluation is *shardable*: every pair is computed by a pure kernel
(:func:`quality_pair`, :func:`temperature_pair`, :func:`aging_pair`) on an
independent RNG stream derived from the pair's index through a
:class:`~repro.utils.rng.StreamTree`, so pair order is never load-bearing.
Any contiguous range of pairs can be evaluated in isolation via the
``*_shard`` methods and merged back with
:meth:`~repro.puf.jaccard.JaccardDistribution.merge` -- bit-identical to a
serial evaluation of the full range, for any partition and worker count.

On top of the scalar kernels sit the **batched pair kernels**
(:func:`quality_pairs_batch`, :func:`temperature_pairs_batch`,
:func:`aging_pairs_batch`): they evaluate a block of pair indices into
preallocated ``float64`` arrays, reusing one PUF instance per module, while
drawing from the same per-pair streams in the same order -- so batch results
are bit-identical to looping the scalar kernel, and the ``*_shard`` methods
(and therefore the engine's ``PUFPairsJob`` ranges) route through them.

Since the multi-read refactor, every ``puf.evaluate`` call inside these
kernels runs a one-pass multi-read module kernel (hoisted profile memos, one
counting reduction instead of per-pass set intersection; see
:mod:`repro.dram.module`), so the pair kernels inherit the speedup without
changing shape.  Each PUF class keeps its per-pass ``evaluate_scalar`` loop
as the reference the tests compare ``evaluate`` against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.dram.module import DRAMModule
from repro.puf.base import Challenge, DRAMPUF
from repro.puf.jaccard import JaccardDistribution
from repro.utils.rng import StreamTree

#: Temperatures evaluated in Figure 6 (deltas from the 30 C baseline).
FIGURE6_TEMPERATURE_DELTAS: tuple[float, ...] = (0.0, 15.0, 25.0, 55.0)

#: Factory building a PUF instance for one module (e.g. ``CODICSigPUF``).
PUFFactory = Callable[[DRAMModule], DRAMPUF]

#: Bound on the inter-pair challenge re-draw loop of :func:`quality_pair`.
#: On a healthy population a redraw is only needed when the loop happens to
#: land on the intra challenge again (vanishingly rare); hitting the bound
#: means the population cannot produce a distinct second challenge at all.
MAX_INTER_CHALLENGE_REDRAWS = 256


@dataclass
class PUFQualityResult:
    """Intra/Inter Jaccard distributions of one PUF on one module set."""

    puf_name: str
    intra: JaccardDistribution
    inter: JaccardDistribution
    voltage_class: str = "all"

    @property
    def is_repeatable(self) -> bool:
        """Heuristic check: most Intra indices close to one."""
        return self.intra.fraction_above(0.9) >= 0.5

    @property
    def is_unique(self) -> bool:
        """Heuristic check: most Inter indices close to zero."""
        return self.inter.fraction_below(0.1) >= 0.5

    def summary(self) -> dict[str, float]:
        """Compact summary for reports."""
        return {
            "intra_mean": self.intra.mean,
            "intra_std": self.intra.std,
            "inter_mean": self.inter.mean,
            "inter_std": self.inter.std,
        }


@dataclass
class TemperaturePoint:
    """Intra-Jaccard distribution at one temperature delta (Figure 6)."""

    puf_name: str
    temperature_delta_c: float
    intra: JaccardDistribution


# ----------------------------------------------------------------------
# Pure per-pair kernels
# ----------------------------------------------------------------------
def _pick_module(modules: Sequence[DRAMModule], rng: np.random.Generator) -> DRAMModule:
    index = int(rng.integers(0, len(modules)))
    return modules[index]


def quality_pair(
    modules: Sequence[DRAMModule],
    puf_factory: PUFFactory,
    rng: np.random.Generator,
    *,
    segment_bytes: int = 8192,
    temperature_c: float = 30.0,
) -> tuple[float, float]:
    """One Figure 5 pair: ``(intra_jaccard, inter_jaccard)``.

    Intra compares two responses to the same random challenge; Inter compares
    the first response with a response to a different random challenge.  The
    kernel consumes only ``rng``, so a pair's result depends exclusively on
    the stream it is handed.
    """
    module = _pick_module(modules, rng)
    puf = puf_factory(module)
    challenge = Challenge.random(module, rng, segment_bytes)
    first = puf.evaluate(challenge, temperature_c, rng=rng)
    second = puf.evaluate(challenge, temperature_c, rng=rng)
    intra = first.jaccard_with(second)

    other_module = _pick_module(modules, rng)
    other_puf = puf_factory(other_module)
    other_challenge = Challenge.random(other_module, rng, segment_bytes)
    redraws = 0
    while other_module is module and other_challenge.segment == challenge.segment:
        redraws += 1
        if redraws > MAX_INTER_CHALLENGE_REDRAWS:
            # With >= 2 addressable segments a redraw collides with
            # probability <= 1/2, so reaching the bound is a 2^-256 event --
            # in practice it means the stream is broken, not unlucky.
            raise ValueError(
                "cannot draw a distinct inter-pair challenge after "
                f"{MAX_INTER_CHALLENGE_REDRAWS} attempts on a degenerate "
                "module population; grow the population or the geometry"
            )
        geometry = module.chip_geometry
        if geometry.banks * geometry.rows_per_bank == 1:
            # Single-segment module: redrawing the challenge alone can never
            # produce a distinct segment (the pre-guard code spun forever
            # here, so resampling draws no compatibility concern).
            if len(modules) == 1:
                raise ValueError(
                    "cannot draw a distinct inter-pair challenge: the module "
                    "population is degenerate (a single module with a single "
                    "addressable segment); grow the population or the geometry"
                )
            other_module = _pick_module(modules, rng)
            other_puf = puf_factory(other_module)
        other_challenge = Challenge.random(other_module, rng, segment_bytes)
    other = other_puf.evaluate(other_challenge, temperature_c, rng=rng)
    return intra, first.jaccard_with(other)


def temperature_pair(
    modules: Sequence[DRAMModule],
    puf_factory: PUFFactory,
    rng: np.random.Generator,
    *,
    delta_c: float,
    segment_bytes: int = 8192,
    base_temperature_c: float = 30.0,
) -> float:
    """One Figure 6 pair: Intra-Jaccard between a ``base_temperature_c``
    reference response and a response taken ``delta_c`` degrees hotter."""
    module = _pick_module(modules, rng)
    puf = puf_factory(module)
    challenge = Challenge.random(module, rng, segment_bytes)
    reference = puf.evaluate(challenge, base_temperature_c, rng=rng)
    heated = puf.evaluate(challenge, base_temperature_c + delta_c, rng=rng)
    return reference.jaccard_with(heated)


def aging_pair(
    modules: Sequence[DRAMModule],
    puf_factory: PUFFactory,
    rng: np.random.Generator,
    *,
    aging_hours: float = 8.0,
    segment_bytes: int = 8192,
) -> float:
    """One aging-study pair: Intra-Jaccard before vs. after accelerated aging.

    Aging stress slightly perturbs the device's variation profile; the chip
    model represents the post-aging readback as an evaluation with a residual
    temperature shift proportional to the stress received.
    """
    module = _pick_module(modules, rng)
    puf = puf_factory(module)
    challenge = Challenge.random(module, rng, segment_bytes)
    before = puf.evaluate(challenge, 30.0, rng=rng)
    residual_delta = min(10.0, aging_hours * 0.25)
    after = puf.evaluate(challenge, 30.0 + residual_delta, rng=rng)
    return before.jaccard_with(after)


# ----------------------------------------------------------------------
# Batched pair kernels
# ----------------------------------------------------------------------
def _memoized_factory(puf_factory: PUFFactory) -> PUFFactory:
    """Wrap ``puf_factory`` to build at most one PUF instance per module.

    Safe for batching: when the caller supplies the rng, PUF evaluation
    reads only seed-derived device state and never mutates the instance, so
    reusing one instance across a block of pairs is bit-identical to
    constructing a fresh one per pair.
    """
    instances: dict[int, DRAMPUF] = {}

    def factory(module: DRAMModule) -> DRAMPUF:
        puf = instances.get(id(module))
        if puf is None:
            puf = instances[id(module)] = puf_factory(module)
        return puf

    return factory


def quality_pairs_batch(
    modules: Sequence[DRAMModule],
    puf_factory: PUFFactory,
    rngs: Sequence[np.random.Generator],
    *,
    segment_bytes: int = 8192,
    temperature_c: float = 30.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Figure 5 pairs for a block of per-pair streams: ``(intra, inter)``.

    ``rngs[i]`` is consumed exactly as :func:`quality_pair` would consume it,
    so the returned ``float64`` arrays are bit-identical to evaluating each
    pair with the scalar kernel -- batching only amortizes PUF construction
    (one instance per module) and collects results array-natively.
    """
    factory = _memoized_factory(puf_factory)
    intra = np.empty(len(rngs), dtype=np.float64)
    inter = np.empty(len(rngs), dtype=np.float64)
    for position, rng in enumerate(rngs):
        intra[position], inter[position] = quality_pair(
            modules,
            factory,
            rng,
            segment_bytes=segment_bytes,
            temperature_c=temperature_c,
        )
    return intra, inter


def temperature_pairs_batch(
    modules: Sequence[DRAMModule],
    puf_factory: PUFFactory,
    rngs: Sequence[np.random.Generator],
    *,
    delta_c: float,
    segment_bytes: int = 8192,
    base_temperature_c: float = 30.0,
) -> np.ndarray:
    """Figure 6 pairs for a block of per-pair streams (Intra indices)."""
    factory = _memoized_factory(puf_factory)
    intra = np.empty(len(rngs), dtype=np.float64)
    for position, rng in enumerate(rngs):
        intra[position] = temperature_pair(
            modules,
            factory,
            rng,
            delta_c=delta_c,
            segment_bytes=segment_bytes,
            base_temperature_c=base_temperature_c,
        )
    return intra


def aging_pairs_batch(
    modules: Sequence[DRAMModule],
    puf_factory: PUFFactory,
    rngs: Sequence[np.random.Generator],
    *,
    aging_hours: float = 8.0,
    segment_bytes: int = 8192,
) -> np.ndarray:
    """Aging-study pairs for a block of per-pair streams (Intra indices)."""
    factory = _memoized_factory(puf_factory)
    intra = np.empty(len(rngs), dtype=np.float64)
    for position, rng in enumerate(rngs):
        intra[position] = aging_pair(
            modules,
            factory,
            rng,
            aging_hours=aging_hours,
            segment_bytes=segment_bytes,
        )
    return intra


@dataclass
class PUFEvaluator:
    """Evaluates PUF quality over a set of modules.

    Every pair index owns an independent stream under the evaluator's
    :class:`~repro.utils.rng.StreamTree`, so the ``*_shard`` methods evaluate
    any ``[start, stop)`` sub-range in isolation and
    :meth:`JaccardDistribution.merge` of the shards (in index order)
    reproduces the full-range result bit-for-bit.
    """

    modules: Sequence[DRAMModule]
    puf_factory: PUFFactory
    pairs: int = 1000
    segment_bytes: int = 8192
    seed: int = 7
    _streams: StreamTree = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.modules:
            raise ValueError("at least one module is required")
        if self.pairs <= 0:
            raise ValueError(f"pairs must be positive, got {self.pairs}")
        if self.segment_bytes <= 0:
            raise ValueError(
                f"segment_bytes must be positive, got {self.segment_bytes}"
            )
        smallest = min(self.modules, key=lambda module: module.capacity_bytes)
        if self.segment_bytes > smallest.capacity_bytes:
            raise ValueError(
                f"segment_bytes={self.segment_bytes} exceeds the smallest "
                f"module {smallest.module_id!r} "
                f"({smallest.capacity_bytes} bytes)"
            )
        self._streams = StreamTree(self.seed).child("puf-evaluator")

    # ------------------------------------------------------------------
    # Quality (Figure 5)
    # ------------------------------------------------------------------
    def quality_shard(
        self, start: int, stop: int, temperature_c: float = 30.0
    ) -> tuple[JaccardDistribution, JaccardDistribution]:
        """``(intra, inter)`` distributions of pairs ``[start, stop)``.

        Routed through :func:`quality_pairs_batch` on the per-pair streams of
        the shard's index range (bit-identical to the scalar kernel loop).
        """
        self._check_range(start, stop)
        intra, inter = quality_pairs_batch(
            self.modules,
            self.puf_factory,
            self._pair_rngs("quality", start, stop),
            segment_bytes=self.segment_bytes,
            temperature_c=temperature_c,
        )
        return (
            JaccardDistribution.from_values(intra),
            JaccardDistribution.from_values(inter),
        )

    def quality(
        self, temperature_c: float = 30.0, puf_name: str | None = None
    ) -> PUFQualityResult:
        """Intra/Inter Jaccard distributions at one temperature."""
        intra, inter = self.quality_shard(0, self.pairs, temperature_c)
        name = puf_name or self.puf_factory(self.modules[0]).name
        return PUFQualityResult(puf_name=name, intra=intra, inter=inter)

    # ------------------------------------------------------------------
    # Temperature study (Figure 6)
    # ------------------------------------------------------------------
    def temperature_shard(
        self,
        delta_c: float,
        start: int,
        stop: int,
        base_temperature_c: float = 30.0,
    ) -> JaccardDistribution:
        """Intra distribution of pairs ``[start, stop)`` at one delta."""
        self._check_range(start, stop)
        intra = temperature_pairs_batch(
            self.modules,
            self.puf_factory,
            self._pair_rngs("temperature", start, stop, float(delta_c)),
            delta_c=delta_c,
            segment_bytes=self.segment_bytes,
            base_temperature_c=base_temperature_c,
        )
        return JaccardDistribution.from_values(intra)

    def temperature_sweep(
        self,
        deltas_c: Sequence[float] = FIGURE6_TEMPERATURE_DELTAS,
        base_temperature_c: float = 30.0,
    ) -> list[TemperaturePoint]:
        """Intra-Jaccard between a 30 C reference response and responses taken
        at elevated temperatures (the Figure 6 methodology)."""
        name = self.puf_factory(self.modules[0]).name
        return [
            TemperaturePoint(
                puf_name=name,
                temperature_delta_c=delta,
                intra=self.temperature_shard(delta, 0, self.pairs, base_temperature_c),
            )
            for delta in deltas_c
        ]

    # ------------------------------------------------------------------
    # Aging study (Section 6.1.1, accelerated aging)
    # ------------------------------------------------------------------
    def aging_shard(
        self, start: int, stop: int, aging_hours: float = 8.0
    ) -> JaccardDistribution:
        """Aging distribution of pairs ``[start, stop)``."""
        self._check_range(start, stop)
        intra = aging_pairs_batch(
            self.modules,
            self.puf_factory,
            self._pair_rngs("aging", start, stop),
            aging_hours=aging_hours,
            segment_bytes=self.segment_bytes,
        )
        return JaccardDistribution.from_values(intra)

    def aging_study(self, aging_hours: float = 8.0) -> JaccardDistribution:
        """Intra-Jaccard between pre-aging and post-aging responses.

        The model represents the paper's 125 C accelerated-aging stress as a
        residual temperature shift proportional to ``aging_hours`` (see
        :func:`aging_pair`); CODIC-sig responses stay essentially identical
        (most indices equal to 1), as the paper reports.
        """
        return self.aging_shard(0, self.pairs, aging_hours)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _pair_rngs(
        self, label: str, start: int, stop: int, *extra_labels: object
    ) -> list[np.random.Generator]:
        """Per-pair streams of an index range (the same streams the scalar
        path hands ``<label>_pair`` one at a time)."""
        subtree = self._streams.child(label, *extra_labels)
        return [subtree.rng(index) for index in range(start, stop)]

    def _check_range(self, start: int, stop: int) -> None:
        if not 0 <= start <= stop <= self.pairs:
            raise ValueError(
                f"invalid pair range [{start}, {stop}) for {self.pairs} pairs"
            )
