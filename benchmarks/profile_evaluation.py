"""Attribution profiler for the PUF pair-evaluation hot path.

Runs the committed pair-kernel benchmark workload (Figure 5 quality pairs on
the paper population's DDR3 class, ``StreamTree(17)`` streams) under
``cProfile`` and prints a cumulative-time attribution of where a pair's
budget goes -- profile derivation, noise draws, filter reduction, Jaccard,
and glue.  This is the "profile before optimizing" companion of
``test_bench_pair_kernels.py``: use it to decide which kernel layer to
attack next, and to verify that a claimed optimization actually moved the
layer it targeted.

Usage::

    PYTHONPATH=src python benchmarks/profile_evaluation.py \
        --puf "DRAM Latency PUF" --pairs 120 [--sort tottime]
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import time


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--puf",
        default="DRAM Latency PUF",
        help="PUF factory name (see repro.experiments.puf_experiments.PUF_FACTORIES)",
    )
    parser.add_argument("--pairs", type=int, default=120, help="pairs to evaluate")
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime", "ncalls"],
        help="pstats sort key",
    )
    parser.add_argument("--lines", type=int, default=30, help="stat lines to print")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)

    from repro.dram.population import paper_population
    from repro.experiments.puf_experiments import PUF_FACTORIES
    from repro.puf.evaluation import quality_pairs_batch
    from repro.utils.rng import StreamTree

    if args.puf not in PUF_FACTORIES:
        known = ", ".join(sorted(PUF_FACTORIES))
        raise SystemExit(f"unknown PUF {args.puf!r}; choose one of: {known}")
    factory = PUF_FACTORIES[args.puf]
    modules = tuple(paper_population().modules_by_voltage(False))

    def pair_rngs():
        streams = StreamTree(17).child("puf-evaluator", "quality")
        return [streams.rng(index) for index in range(args.pairs)]

    def cold():
        for module in modules:
            module.reset_profile_memos()

    # Untimed warm-up so import-time and first-touch costs (ufunc dispatch
    # caches, lazy imports) do not pollute the attribution.
    cold()
    quality_pairs_batch(modules, factory, pair_rngs())

    cold()
    rngs = pair_rngs()
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    quality_pairs_batch(modules, factory, rngs)
    profiler.disable()
    elapsed = time.perf_counter() - start

    print(
        f"{args.puf}: {args.pairs} pairs in {elapsed:.3f}s "
        f"= {args.pairs / elapsed:.1f} pairs/s ({elapsed / args.pairs * 1e3:.3f} ms/pair)"
    )
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.lines)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
