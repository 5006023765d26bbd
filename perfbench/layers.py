"""Layer spans for the traced run, added from outside the program.

:func:`install` wraps public functions of each layer in
:func:`repro.telemetry.span`, so a traced unit writes the repository's own
NDJSON span records (``benchmarks/summarize_trace.py`` reads them unchanged)
without any change under ``src/``.  The span ``kind`` is the layer name.
Counts ride on the span labels, at the same boundary as the time, so every
ratio computed from a trace has its base in the same trace.

:func:`paper_quick_metrics`, :func:`fleet_metrics` and :func:`self_times`
turn span records back into the per-layer metrics ``perfbench/run.py``
prints.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Any, Callable

from repro import telemetry

#: Simulated statistics of every ``System.run`` of the current process, in
#: call order; the traced paper-quick unit compares them to recorded values.
MEMCTRL_RUNS: list[list[Any]] = []

#: ``DRAMModule`` constructions so far (a miss of the fleet's device memo
#: builds one module).
_MODULE_BUILDS = [0]

#: Per-layer self time is reported for these span kinds.  ``bench`` is the
#: benchmark's own root span; ``cli``, ``engine`` and ``daemon`` spans come
#: from the program's existing instrumentation.
LAYERS = (
    "bench",
    "cli",
    "engine",
    "daemon",
    "experiments",
    "memctrl",
    "dealloc",
    "rng",
    "puf",
    "dram",
    "fleet",
)

#: Fleet PUF class -> metric-name slug.
PUF_SLUGS = {
    "CODIC-sig PUF": "codic-sig",
    "DRAM Latency PUF": "dram-latency",
    "PreLatPUF": "prelat",
}

#: NIST tests timed one by one (the slowest three of the quick Table 10).
NIST_TESTS = (
    "linear_complexity",
    "cumulative_sums",
    "non_overlapping_template_matching",
)

#: The quick experiments timed one by one; the rest sum into ``other``.
TIMED_EXPERIMENTS = (
    "fig9",
    "fig8",
    "table10",
    "fig5",
    "fig6",
    "aging",
    "fleet-roc",
    "fleet-aging",
)


def _span_wrapper(
    func: Callable,
    name: str,
    layer: str,
    labels: Callable[..., dict] | None = None,
    after: Callable[..., None] | None = None,
) -> Callable:
    """``func`` inside a span; ``after(span, result, *args)`` may add labels."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        extra = labels(*args, **kwargs) if labels else {}
        with telemetry.span(name, kind=layer, **extra) as span:
            result = func(*args, **kwargs)
            if after is not None and span is not None:
                after(span, result, *args, **kwargs)
        return result

    return wrapper


def _patch_function(module_name: str, attr: str, wrap: Callable[[Callable], Callable]) -> None:
    """Replace a module-level function everywhere it was imported by name."""
    original = getattr(importlib.import_module(module_name), attr)
    wrapper = wrap(original)
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not namespace:
            continue
        for key, value in list(namespace.items()):
            if value is original:
                setattr(module, key, wrapper)


def _patch_method(
    module_name: str, cls_name: str, attr: str, wrap: Callable[[Callable], Callable]
) -> None:
    cls = getattr(importlib.import_module(module_name), cls_name)
    setattr(cls, attr, wrap(cls.__dict__[attr]))


def _memctrl_after(span, stats, system, traces) -> None:
    events = sum(len(trace.events) for trace in traces)
    requests = stats.dram_reads + stats.dram_writes + stats.dram_row_ops
    span.labels.update(events=events, dram_requests=requests)
    MEMCTRL_RUNS.append(
        [
            stats.finish_time_ns,
            stats.dram_energy_nj,
            stats.dram_reads,
            stats.dram_writes,
            stats.dram_row_ops,
        ]
    )


def _count_module_build(init: Callable) -> Callable:
    @functools.wraps(init)
    def wrapper(*args, **kwargs):
        _MODULE_BUILDS[0] += 1
        return init(*args, **kwargs)

    return wrapper


def _device_lookup(device: Callable) -> Callable:
    @functools.wraps(device)
    def wrapper(fleet, device_id):
        before = _MODULE_BUILDS[0]
        with telemetry.span("dram.device", kind="dram") as span:
            result = device(fleet, device_id)
            if span is not None:
                span.labels["built"] = _MODULE_BUILDS[0] != before
        return result

    return wrapper


def install() -> None:
    """Wrap every layer's public entry points in spans (once per process).

    Every layer is imported first, so names imported with ``from ... import``
    are replaced too.
    """
    import repro.experiments.registry  # noqa: F401 - import every layer first

    def span(name, layer, labels=None, after=None):
        return lambda func: _span_wrapper(func, name, layer, labels, after)

    _patch_method(
        "repro.engine.jobs", "ExperimentJob", "run",
        span("experiments.run", "experiments", lambda job: {"experiment": job.experiment_id}),
    )
    _patch_method(
        "repro.memctrl.system", "System", "run",
        span("memctrl.run", "memctrl", after=_memctrl_after),
    )
    for attr in ("generate_trace", "generate_mix"):
        _patch_function("repro.dealloc.workloads", attr, span("dealloc.tracegen", "dealloc"))
    _patch_function("repro.rng.stream", "signature_bitstream", span("rng.bitstream", "rng"))
    _patch_function("repro.rng.nist.suite", "run_nist_suite", span("rng.nist.suite", "rng"))
    _patch_function(
        "repro.rng.nist.suite", "run_single_test",
        span("rng.nist.test", "rng", lambda name, bits: {"test": name}),
    )
    _patch_method(
        "repro.engine.jobs", "PUFPairsJob", "run",
        span(
            "puf.pairs", "puf",
            lambda job: {"puf": job.puf, "mode": job.mode, "pairs": job.pairs},
        ),
    )
    for module_name, cls_name in (
        ("repro.puf.codic_puf", "CODICSigPUF"),
        ("repro.puf.latency_puf", "DRAMLatencyPUF"),
        ("repro.puf.prelat_puf", "PreLatPUF"),
    ):
        _patch_method(module_name, cls_name, "evaluate", span("puf.evaluate", "puf"))
    _patch_method("repro.dram.module", "DRAMModule", "__init__", _count_module_build)
    _patch_method("repro.fleet.devices", "DeviceFleet", "device", _device_lookup)
    _patch_function(
        "repro.fleet.traffic", "authenticate_block", span("fleet.authenticate_block", "fleet")
    )
    _patch_method("repro.fleet.verifier", "FleetVerifier", "enroll", span("fleet.enroll", "fleet"))
    _patch_method(
        "repro.fleet.verifier", "FleetVerifier", "similarity_batch",
        span("fleet.similarity", "fleet"),
    )


# ----------------------------------------------------------------------
# Reading span records back
# ----------------------------------------------------------------------
def _interval(record: dict) -> tuple[float, float]:
    start = float(record["ts"])
    return start, start + float(record["duration_s"])


def self_time(record: dict, children: list[dict]) -> float:
    """Span duration minus the part of its interval its children cover."""
    start, stop = _interval(record)
    covered = 0.0
    cursor = start
    for child_start, child_stop in sorted(_interval(child) for child in children):
        child_start, child_stop = max(child_start, cursor), min(child_stop, stop)
        if child_stop > child_start:
            covered += child_stop - child_start
            cursor = child_stop
    return max(0.0, float(record["duration_s"]) - covered)


def self_times(records: list[dict]) -> dict[str, float]:
    """Summed self time per span kind, for every kind in :data:`LAYERS`."""
    children: dict[str, list[dict]] = {}
    for record in records:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(record)
    totals = dict.fromkeys(LAYERS, 0.0)
    for record in records:
        if record["kind"] in totals:
            totals[record["kind"]] += self_time(record, children.get(record["span"], []))
    return totals


def _named(records: list[dict], name: str) -> list[dict]:
    return [record for record in records if record["name"] == name]


def _total(records: list[dict]) -> float:
    return sum(float(record["duration_s"]) for record in records)


def paper_quick_metrics(records: list[dict]) -> dict[str, float]:
    """``memctrl``/``dealloc``/``rng``/``puf`` pair metrics of a traced
    paper-quick unit."""
    runs = _named(records, "memctrl.run")
    run_s = _total(runs)
    events = sum(int(record["labels"]["events"]) for record in runs)
    spans = {record["span"]: record for record in records}
    tracegen = [
        record
        for record in _named(records, "dealloc.tracegen")
        if spans.get(record["parent"], {}).get("name") != "dealloc.tracegen"
    ]
    metrics = {
        "memctrl.run_s": run_s,
        "memctrl.runs": len(runs),
        "memctrl.events": events,
        "memctrl.host_us_per_event": 1e6 * run_s / events if events else 0.0,
        "memctrl.dram_requests": sum(int(r["labels"]["dram_requests"]) for r in runs),
        "dealloc.tracegen_s": _total(tracegen),
        "rng.bitstream_s": _total(_named(records, "rng.bitstream")),
        "rng.nist.suite_s": _total(_named(records, "rng.nist.suite")),
    }
    tests = _named(records, "rng.nist.test")
    for test in NIST_TESTS:
        metrics[f"rng.nist.{test}_s"] = _total(
            [record for record in tests if record["labels"]["test"] == test]
        )
    pairs = [r for r in _named(records, "puf.pairs") if r["labels"]["mode"] != "aging"]
    for puf, slug in PUF_SLUGS.items():
        mine = [record for record in pairs if record["labels"]["puf"] == puf]
        seconds = _total(mine)
        count = sum(int(record["labels"]["pairs"]) for record in mine)
        metrics[f"puf.pairs.{slug}"] = count
        metrics[f"puf.pairs_per_s.{slug}"] = count / seconds if seconds else 0.0
    return metrics


def fleet_metrics(records: list[dict]) -> dict[str, float]:
    """``puf``/``dram``/``fleet`` metrics of a traced fleet-10k unit."""
    children: dict[str, list[dict]] = {}
    for record in records:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(record)
    lookups = _named(records, "dram.device")
    builds = [record for record in lookups if record["labels"].get("built")]
    evaluations = _named(records, "puf.evaluate")
    enrollments = _named(records, "fleet.enroll")
    blocks = _named(records, "fleet.authenticate_block")
    return {
        "puf.evaluations": len(evaluations),
        "puf.evaluate_s": _total(evaluations),
        "dram.device_lookups": len(lookups),
        "dram.device_builds": len(builds),
        "dram.device_build_s": _total(builds),
        "fleet.device_memo_hit_ratio": 1.0 - len(builds) / len(lookups) if lookups else 0.0,
        "fleet.enrollments": len(enrollments),
        "fleet.enroll_s": _total(enrollments),
        "fleet.similarity_s": _total(_named(records, "fleet.similarity")),
        "fleet.plan_s": sum(
            self_time(record, children.get(record["span"], [])) for record in blocks
        ),
    }

