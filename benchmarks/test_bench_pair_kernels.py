"""Micro-benchmark: scalar vs batched PUF pair kernels (Figure 5 workload).

Measures pairs-per-second of the Figure 5 quality kernel for each PUF in two
configurations on the paper population's DDR3 class:

* **scalar** -- one :func:`repro.puf.evaluation.quality_pair` call per pair,
  a fresh PUF instance per pair (the pre-batching execution shape);
* **batched** -- one :func:`repro.puf.evaluation.quality_pairs_batch` call
  over the whole pair block (the shape the ``*_shard`` methods and the
  engine's ``PUFPairsJob`` ranges use);
* **batched-warm** -- the same batched call replayed with the deterministic
  profile memos already resident (the steady-state regime of a warm daemon
  or a repeated fleet replay): per-pair cost is the multi-read noise kernels alone, with no
  profile re-derivation.

Both draw from the same per-pair ``StreamTree`` streams, so the benchmark
asserts bit-identical results before timing anything.  ``REPRO_BENCH_SMOKE=1``
shrinks the pair count so CI can run the whole harness quickly.

Each run writes a ``bench-pair-kernels.json`` record at the repository root
(uploaded as a CI artifact; gitignored) whose entry shape matches the
committed ``BENCH_pair_kernels.json`` trajectory file -- append CI entries
there to track pairs/sec across commits.
"""

from __future__ import annotations

import json
import os
import time
from functools import lru_cache
from pathlib import Path

from repro.experiments.puf_experiments import PUF_FACTORIES
from repro.puf.evaluation import quality_pair, quality_pairs_batch
from repro.utils.rng import StreamTree

#: Seed shared with the Figure 5 unit jobs.
FIG5_SEED = 17


def _smoke() -> bool:
    return os.environ.get("REPRO_BENCH_SMOKE", "") == "1"


def _pairs() -> int:
    return 24 if _smoke() else 120


@lru_cache(maxsize=1)
def _modules():
    from repro.dram.population import paper_population

    return tuple(paper_population().modules_by_voltage(False))


def _pair_rngs(count: int):
    streams = StreamTree(FIG5_SEED).child("puf-evaluator", "quality")
    return [streams.rng(index) for index in range(count)]


def _cold_modules():
    """The shared module population with every profile memo dropped.

    Both timed phases replay the same StreamTree streams over the same
    modules, so without this reset (module-level segment memo *and* per-chip
    memos) the phase that runs *second* would be measured entirely warm and
    the scalar/batched ratio would conflate batching with memo reuse.
    """
    modules = _modules()
    for module in modules:
        module.reset_profile_memos()
    return modules


def _scalar_rates() -> dict[str, float]:
    pairs = _pairs()
    rates = {}
    for puf_name, factory in PUF_FACTORIES.items():
        modules = _cold_modules()
        rngs = _pair_rngs(pairs)
        start = time.perf_counter()
        for rng in rngs:
            quality_pair(modules, factory, rng)
        rates[puf_name] = pairs / (time.perf_counter() - start)
    return rates


def _batched_rates() -> dict[str, float]:
    pairs = _pairs()
    rates = {}
    for puf_name, factory in PUF_FACTORIES.items():
        modules = _cold_modules()
        rngs = _pair_rngs(pairs)
        start = time.perf_counter()
        quality_pairs_batch(modules, factory, rngs)
        rates[puf_name] = pairs / (time.perf_counter() - start)
    return rates


def _warm_rates() -> dict[str, float]:
    """Batched rates with the deterministic profile memos already resident.

    One untimed replay of the identical pair block populates the module-level
    segment-profile memo, then the timed replay measures the steady-state
    regime (warm daemon, repeated fleet replays) where per-pair cost is noise
    draws + filter reduction only.  Responses are bit-identical either way.
    """
    pairs = _pairs()
    rates = {}
    for puf_name, factory in PUF_FACTORIES.items():
        modules = _cold_modules()
        quality_pairs_batch(modules, factory, _pair_rngs(pairs))
        rngs = _pair_rngs(pairs)
        start = time.perf_counter()
        quality_pairs_batch(modules, factory, rngs)
        rates[puf_name] = pairs / (time.perf_counter() - start)
    return rates


#: Rates measured by the timed tests, reused by the artifact writer so the
#: kernel sweeps run exactly once per benchmark session.
_MEASURED: dict[str, dict[str, float]] = {}


def test_bench_pair_kernels_scalar(run_once):
    rates = run_once(_scalar_rates)
    assert set(rates) == set(PUF_FACTORIES)
    _MEASURED["scalar"] = rates


def test_bench_pair_kernels_batched(run_once):
    rates = run_once(_batched_rates)
    assert set(rates) == set(PUF_FACTORIES)
    _MEASURED["batched"] = rates


def test_bench_pair_kernels_batched_warm(run_once):
    rates = run_once(_warm_rates)
    assert set(rates) == set(PUF_FACTORIES)
    _MEASURED["batched-warm"] = rates


def test_bench_batched_bit_identical_and_artifact(run_once):
    """Batched == scalar values, then record the pairs/sec comparison."""
    modules = _modules()
    pairs = _pairs()
    factory = PUF_FACTORIES["CODIC-sig PUF"]
    scalar = [quality_pair(modules, factory, rng) for rng in _pair_rngs(pairs)]
    intra, inter = run_once(
        quality_pairs_batch, modules, factory, _pair_rngs(pairs)
    )
    assert intra.tolist() == [pair[0] for pair in scalar]
    assert inter.tolist() == [pair[1] for pair in scalar]

    # Reuse the timed tests' measurements; re-measure if this test runs
    # alone (e.g. under -k selection) so the record is never empty.
    scalar = _MEASURED.get("scalar") or _scalar_rates()
    batched = _MEASURED.get("batched") or _batched_rates()
    warm = _MEASURED.get("batched-warm") or _warm_rates()
    entry = {
        "label": "ci" if _smoke() else "local",
        "smoke": _smoke(),
        "pairs": pairs,
        "pairs_per_second": {
            "scalar": {k: round(v, 1) for k, v in scalar.items()},
            "batched": {k: round(v, 1) for k, v in batched.items()},
            "batched-warm": {k: round(v, 1) for k, v in warm.items()},
        },
    }
    # Anchor to the repo root regardless of the pytest cwd, so the artifact
    # lands where CI (and .gitignore) expect it.
    artifact = Path(__file__).resolve().parent.parent / "bench-pair-kernels.json"
    artifact.write_text(json.dumps(entry, indent=2) + "\n")
