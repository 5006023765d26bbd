#!/usr/bin/env python3
"""One unit of benchmark work in a fresh interpreter (run by ``run.py``).

Every mode prints ``ready`` on stdout once its set-up is done -- the parent
times spawn to ``ready`` as set-up -- and then one JSON line of results::

    probe.py paper-quick CACHE_DIR [--trace FILE] [--setup-only]
    probe.py fleet SEED [--trace FILE] [--setup-only]
    probe.py daemon SOCKET CACHE_DIR TRACE_FILE RECORDER_CAPACITY
    probe.py record

``paper-quick`` regenerates the 16 quick experiments through the CLI entry
point, ``python -m repro.experiments --no-cache --jobs 1 --stream``, called
in this process, then seeds a result cache with them (untimed) for the
parent's CLI re-runs; its result carries the digests those CLI runs must
print.  ``fleet`` replays the fleet-10k stream against fresh
10,000-device fleets, cold then warm, per PUF class.  ``daemon`` runs the
warm daemon with the layer spans installed (the traced daemon unit).
``record`` rewrites ``expected.json``: the output digests every run checks
against.  With ``--trace FILE`` the unit runs with the spans of ``layers.py``
and writes them to FILE as NDJSON.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
GOLDEN_DIR = ROOT / "tests" / "golden"
#: Experiments whose quick JSON is committed under ``tests/golden``.
GOLDEN_IDS = ("fig5", "fig6", "aging", "table11")
#: The fleet PUF figures paper-quick also regenerates alone through the CLI
#: (registry order, as ``--json`` prints them).
PUF_CLI_IDS = ("fleet-roc", "fleet-aging")

#: fleet-10k stream shape (BENCH_fleet's): 25% impostors, +-5 C jitter, two
#: enrolled challenges per device, replayed in fixed-size blocks.
FLEET_DEVICES = 10_000
FLEET_REQUESTS = 2_000
FLEET_BLOCK = 250
FLEET_CHALLENGES = 2
FLEET_IMPOSTOR_RATIO = 0.25
FLEET_JITTER_C = 5.0
#: Requests per class replayed through the scalar reference as a check.
FLEET_REFERENCE_REQUESTS = 32
#: fleet-10k streams whose similarity digests ``record`` stores; benchmark
#: seed ``s`` replays stream ``s % FLEET_STREAMS``, so every run is checked
#: against a recorded digest.
FLEET_STREAMS = 16


def fleet_seed(seed: int) -> int:
    """The fleet (and hence request stream) seed of benchmark seed ``seed``."""
    return derive_seed("fleet-10k", seed % FLEET_STREAMS)


def derive_seed(*parts: object) -> int:
    """A 31-bit seed derived from ``parts`` (stable across processes)."""
    text = ":".join(str(part) for part in parts)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


def canonical(value: object) -> str:
    """The text ``tests/golden`` stores for one experiment value."""
    return json.dumps(value, sort_keys=True, indent=2) + "\n"


def sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def wrong_experiments(values: dict[str, object], expected: dict) -> list[str]:
    """Experiment ids whose value differs from the golden file or digest."""
    wrong = []
    for eid, digest in expected["experiments"].items():
        if eid not in values:
            wrong.append(eid)
        elif eid in GOLDEN_IDS:
            if canonical(values[eid]) != (GOLDEN_DIR / f"{eid}_quick.json").read_text():
                wrong.append(eid)
        elif sha256(canonical(values[eid])) != digest:
            wrong.append(eid)
    return wrong


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def ready() -> None:
    print("ready", flush=True)


def emit(result: dict) -> None:
    print(json.dumps(result), flush=True)


class Tracer:
    """Layer spans into an in-memory buffer, written as NDJSON at the end."""

    def __init__(self, path: str | None):
        self.path = path
        if path is None:
            return
        import layers
        from repro import telemetry

        layers.install()
        self.buffer = telemetry.SpanBuffer()
        telemetry.enable_tracing(self.buffer)
        telemetry.set_trace_id(telemetry.new_trace_id())

    def root(self, name: str):
        from repro import telemetry

        return telemetry.span(name, kind="bench")

    def close(self) -> None:
        if self.path is None:
            return
        from repro import telemetry

        telemetry.disable_tracing()
        with open(self.path, "w", encoding="utf-8") as stream:
            for record in self.buffer.drain():
                stream.write(json.dumps(record, separators=(",", ":")) + "\n")


def regenerate() -> dict:
    """Regenerate the quick suite through the CLI entry point, in this process.

    ``--stream`` prints one NDJSON event per state transition; the terminal
    experiment events carry each experiment's encoded value and
    ``duration_s``, and the values in registry order make the document
    ``--json`` prints (``--json`` and ``--stream`` cannot be combined).
    """
    from repro.experiments.__main__ import main

    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["--no-cache", "--jobs", "1", "--stream", "--no-daemon"])
    values, durations, failed = {}, {}, []
    for line in stdout.getvalue().splitlines():
        event = json.loads(line)
        if event["kind"] != "experiment" or event["event"] not in ("finished", "failed"):
            continue
        if "value" in event:
            values[event["job"]] = event["value"]
            durations[event["job"]] = event["duration_s"]
        else:
            failed.append(event["job"])
    if code != 0:
        failed.append(f"CLI exit code {code}")
    return {
        "values": values,
        "durations": durations,
        "failed": failed,
        "document": json.dumps(values, indent=2),
    }


def paper_quick(cache_dir: str, trace: str | None, setup_only: bool) -> None:
    from repro.engine import ExperimentJob, ResultCache
    from repro.experiments.registry import EXPERIMENTS

    tracer = Tracer(trace)
    ready()
    if setup_only:
        return
    expected = json.loads(EXPECTED.read_text())
    with tracer.root("perfbench.paper-quick"):
        start = time.perf_counter()
        cold = regenerate()
        wall_s = time.perf_counter() - start
    tracer.close()
    if list(cold["values"]) != list(EXPERIMENTS):
        cold["failed"].append("experiments missing or out of registry order")
    wrong = cold["failed"] + wrong_experiments(cold["values"], expected)
    if sha256(cold["document"]) != expected["document_sha256"]:
        wrong.append("document")
    if trace is not None:
        import layers

        if layers.MEMCTRL_RUNS != expected["memctrl_runs"]:
            wrong.append("memctrl-stats")

    # Seed a result cache with exactly what a cached regeneration stores, for
    # the CLI re-runs the parent times (the researcher's second run).
    store = ResultCache(cache_dir)
    for eid, value in cold["values"].items():
        job = ExperimentJob(eid, quick=True)
        store.put(job, job.decode(value))
    emit(
        {
            "wall_s": wall_s,
            "experiments": list(EXPERIMENTS),
            "durations": cold["durations"],
            "document_sha256": sha256(cold["document"]),
            "puf_document_sha256": sha256(
                json.dumps({eid: cold["values"].get(eid) for eid in PUF_CLI_IDS}, indent=2)
            ),
            "operations": 1,
            "wrong": wrong,
            "peak_rss_mb": peak_rss_mb(),
        }
    )


def _fleet_setup(seed: int):
    from repro.fleet import (
        FLEET_PUF_FACTORIES,
        DeviceFleet,
        FleetConfig,
        FleetVerifier,
        TrafficConfig,
    )

    traffic = TrafficConfig(
        requests=FLEET_REQUESTS,
        impostor_ratio=FLEET_IMPOSTOR_RATIO,
        temperature_jitter_c=FLEET_JITTER_C,
    )
    units = []
    for puf in sorted(FLEET_PUF_FACTORIES):
        fleet = DeviceFleet(
            FleetConfig(
                seed=fleet_seed(seed),
                devices=FLEET_DEVICES,
                puf=puf,
                challenges_per_device=FLEET_CHALLENGES,
            )
        )
        units.append((puf, fleet, FleetVerifier(fleet)))
    return traffic, units


def _fleet_warm_up(seed: int) -> None:
    """Untimed first calls of every kernel, on small fleets of another seed."""
    from repro.fleet import FLEET_PUF_FACTORIES, DeviceFleet, FleetConfig, FleetVerifier
    from repro.fleet import TrafficConfig, authenticate_block

    traffic = TrafficConfig(
        requests=32, impostor_ratio=FLEET_IMPOSTOR_RATIO, temperature_jitter_c=FLEET_JITTER_C
    )
    for puf in sorted(FLEET_PUF_FACTORIES):
        config = FleetConfig(
            seed=derive_seed("warm-up", seed),
            devices=64,
            puf=puf,
            challenges_per_device=FLEET_CHALLENGES,
        )
        fleet = DeviceFleet(config)
        authenticate_block(fleet, FleetVerifier(fleet), traffic, 0, 32)


def replay(fleet, verifier, traffic) -> tuple[list[float], list, list]:
    """One pass over the stream in blocks: per-block seconds and arrays."""
    from repro.fleet import authenticate_block

    blocks, genuine, impostor = [], [], []
    for start in range(0, traffic.requests, FLEET_BLOCK):
        stop = min(traffic.requests, start + FLEET_BLOCK)
        t0 = time.perf_counter()
        good, bad = authenticate_block(fleet, verifier, traffic, start, stop)
        blocks.append(time.perf_counter() - t0)
        genuine.append(good)
        impostor.append(bad)
    return blocks, genuine, impostor


def fleet_digest(genuine, impostor) -> str:
    import numpy as np

    return sha256(np.concatenate(genuine).tobytes() + b"|" + np.concatenate(impostor).tobytes())


def reference_mismatch(fleet, verifier, traffic, genuine, impostor) -> bool:
    """Whether the first requests disagree with the scalar reference kernel."""
    from repro.fleet import authenticate_request

    good, bad = [], []
    for index in range(FLEET_REFERENCE_REQUESTS):
        is_impostor, similarity = authenticate_request(fleet, verifier, traffic, index)
        (bad if is_impostor else good).append(similarity)
    return genuine[: len(good)].tolist() != good or impostor[: len(bad)].tolist() != bad


def fleet(seed: int, trace: str | None, setup_only: bool) -> None:
    tracer = Tracer(trace)
    traffic, units = _fleet_setup(seed)
    ready()
    if setup_only:
        return
    expected = json.loads(EXPECTED.read_text())["fleet"][str(seed % FLEET_STREAMS)]
    _fleet_warm_up(seed)
    classes, wrong, first_block, first_arrays = {}, [], {}, {}
    with tracer.root("perfbench.fleet-10k"):
        for puf, fleet, verifier in units:
            passes = {}
            for phase in ("cold", "warm"):
                start = time.perf_counter()
                blocks, genuine, impostor = replay(fleet, verifier, traffic)
                elapsed = time.perf_counter() - start
                passes[phase] = (elapsed, blocks, fleet_digest(genuine, impostor))
                if phase == "cold":
                    first_arrays[puf] = (genuine[0], impostor[0])
            cold_digest = passes["cold"][2]
            if passes["warm"][2] != cold_digest:
                wrong.append(f"{puf}: warm pass differs from cold pass")
            if expected[puf] != cold_digest:
                wrong.append(f"{puf}: similarity digest differs from the recorded one")
            classes[puf] = {
                "cold_s": passes["cold"][0],
                "warm_s": passes["warm"][0],
                "cold_blocks": passes["cold"][1],
                "warm_blocks": passes["warm"][1],
            }
            genuine, impostor = first_arrays[puf]
            first_block[puf] = {
                "genuine_trials": int(genuine.size),
                "impostor_trials": int(impostor.size),
                "genuine_mean_jaccard": round(float(genuine.mean()), 6) if genuine.size else 0.0,
                "impostor_mean_jaccard": round(float(impostor.mean()), 6) if impostor.size else 0.0,
            }
    tracer.close()
    for puf, fleet, verifier in units:
        if reference_mismatch(fleet, verifier, traffic, *first_arrays[puf]):
            wrong.append(f"{puf}: batched kernel differs from the scalar reference")
    emit(
        {
            "fleet_seed": fleet_seed(seed),
            "requests": FLEET_REQUESTS,
            "block": FLEET_BLOCK,
            "classes": classes,
            "first_block": first_block,
            "operations": 2 * len(units),
            "wrong": wrong,
            "peak_rss_mb": peak_rss_mb(),
        }
    )


def daemon(socket: str, cache_dir: str, trace: str, recorder_capacity: str) -> None:
    """Serve the daemon in the foreground with the layer spans installed."""
    import layers
    from repro.experiments.__main__ import main

    layers.install()
    raise SystemExit(
        main(
            ["daemon", "run", "--socket", socket, "--cache-dir", cache_dir, "--trace", trace,
             "--recorder-capacity", recorder_capacity]
        )
    )


def record() -> None:
    """Rewrite ``expected.json`` from the current program's outputs."""
    import layers
    from repro import telemetry

    layers.install()
    telemetry.enable_tracing(telemetry.SpanBuffer())
    cold = regenerate()
    telemetry.disable_tracing()
    if cold["failed"]:
        raise SystemExit(f"experiments failed: {cold['failed']}")
    expected = {
        "experiments": {
            eid: None if eid in GOLDEN_IDS else sha256(canonical(value))
            for eid, value in cold["values"].items()
        },
        "document_sha256": sha256(cold["document"]),
        "memctrl_runs": layers.MEMCTRL_RUNS,
        "fleet": {},
    }
    for seed in range(FLEET_STREAMS):
        traffic, units = _fleet_setup(seed)
        expected["fleet"][str(seed)] = {
            puf: fleet_digest(*replay(fleet, verifier, traffic)[1:])
            for puf, fleet, verifier in units
        }
        print(f"recorded fleet seed {seed}", file=sys.stderr)
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")


def main(argv: list[str]) -> None:
    mode, rest = argv[0], argv[1:]
    trace = rest[rest.index("--trace") + 1] if "--trace" in rest else None
    setup_only = "--setup-only" in rest
    if mode == "paper-quick":
        paper_quick(rest[0], trace, setup_only)
    elif mode == "fleet":
        fleet(int(rest[0]), trace, setup_only)
    elif mode == "daemon":
        daemon(*rest[:4])
    elif mode == "record":
        record()
    else:
        raise SystemExit(f"unknown probe mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
