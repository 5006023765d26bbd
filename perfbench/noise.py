#!/usr/bin/env python3
"""Noise report: how well each end-to-end metric repeats across runs.

Usage (from the repository root)::

    python3 perfbench/noise.py --workload fleet-10k --runs 5
    python3 perfbench/noise.py --runs 10 --save set-a.json       # every workload
    python3 perfbench/noise.py --runs 10 --baseline set-a.json   # a second set

Runs ``perfbench/run.py`` once per seed (seeds 1..N unless ``--first-seed``
moves them, ``run_seconds`` from ``BENCHMARK.json``) and prints, per workload and metric, the sample count,
the quartiles of the per-run values (``statistics.quantiles(n=4)``, as the
regression gate computes them) and their spread -- (q3 - q1) / median.  For
latency metrics it also prints the tail: the 95th percentile and the maximum
of every raw (unscaled) sample pooled over the runs, with their count.  A metric whose
spread exceeds a tenth, or a third of its bound, is flagged before it gates.

``--save FILE`` writes the per-run values of the set; ``--baseline FILE``
compares this set's medians with a saved set's, metric by metric, next to
the bound: the check that two sets of runs of the same code agree.  A
median worse than the baseline's by more than its bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = ROOT / "BENCHMARK.json"
OUT_DIR = Path(".perfbench-run") / "noise"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = OUT_DIR / f"{workload}-{seed}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"# {workload} seed {seed}: {result['failed']} failed operation(s)")
    return json.loads((ROOT / out).read_text())


def pooled_tail(samples: list[float]) -> str:
    if len(samples) < 20:
        return f"max {max(samples):.6g} of {len(samples)}"
    p95 = statistics.quantiles(samples, n=20, method="inclusive")[-1]
    return f"p95 {p95:.6g}, max {max(samples):.6g} of {len(samples)}"


def compare(values: dict, baseline: dict, metrics: dict[str, dict]) -> list[str]:
    """Print each metric's relative median difference from ``baseline``."""
    print("\nmedians against the baseline set")
    print(f"{'metric':<32} {'baseline':>11} {'this set':>11} {'change':>7} {'bound':>6}")
    flagged = []
    for workload, per_metric in values.items():
        for name, now in per_metric.items():
            before = baseline.get(workload, {}).get(name)
            if not before:
                continue
            old, new = statistics.median(before), statistics.median(now)
            change = (new - old) / old
            spec = metrics[name]
            worse = change if spec["better"] == "lower" else -change
            label = f"{workload}/{name}"
            print(f"{label:<32} {old:>11.6g} {new:>11.6g} {change:>+7.3f} {spec['bound']:>6}")
            if worse > spec["bound"]:
                flagged.append(f"{label}: median {change:+.3f} against the baseline "
                               f"(bound {spec['bound']})")
    return flagged


def report(workload: str, runs: list[dict], bounds: dict[str, float]) -> list[str]:
    """Print the table for one workload; return the flagged metrics."""
    print(f"\n{workload}: {len(runs)} run(s), seeds {[run['seed'] for run in runs]}, "
          f"nproc={runs[0]['nproc']} cpu={runs[0]['cpu']!r}")
    print(f"{'metric':<12} {'unit':<4} {'n':>3} {'q1':>11} {'median':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}  tail")
    flagged = []
    for name, entry in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        q1, mid, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / mid if mid else 0.0
        bound = bounds.get(name)
        unit = entry["unit"]
        tail = ""
        if unit in ("ms", "s") and name != "setup_s":
            tail = pooled_tail([s for run in runs for s in run["samples"][name]])
        print(f"{name:<12} {unit:<4} {len(values):>3} {q1:>11.6g} {mid:>11.6g} {q3:>11.6g} "
              f"{spread:>7.3f} {bound if bound is not None else '-':>6}  {tail}")
        limit = 0.1 if bound is None else min(0.1, bound / 3)
        if name != "setup_s" and spread > limit:
            flagged.append(f"{workload}/{name}: spread {spread:.3f} > {limit:.3f}")
    return flagged


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads(BENCHMARK.read_text())
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description="Run-to-run noise of every end-to-end metric.")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload(s) to measure (default: all)")
    parser.add_argument("--runs", type=int, default=10, help="runs per workload")
    parser.add_argument("--first-seed", type=int, default=1,
                        help="seed of the first run; the others follow it")
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--save", metavar="FILE", help="write this set's per-run values")
    parser.add_argument("--baseline", metavar="FILE",
                        help="compare medians with a set written by --save")
    args = parser.parse_args(argv)
    metrics = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    bounds = {name: metric["bound"] for name, metric in metrics.items()}
    (ROOT / OUT_DIR).mkdir(parents=True, exist_ok=True)
    flagged, values = [], {}
    for workload in args.workload or names:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run_once(workload, seed, args.seconds) for seed in seeds]
        flagged += report(workload, runs, bounds)
        values[workload] = {
            name: [run["metrics"][name]["value"] for run in runs] for name in runs[0]["metrics"]
        }
    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1) + "\n")
    if args.baseline:
        flagged += compare(values, json.loads(Path(args.baseline).read_text()), metrics)
    print()
    for line in flagged:
        print(f"UNSTEADY {line}")
    print("steady" if not flagged else f"{len(flagged)} unsteady metric(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
