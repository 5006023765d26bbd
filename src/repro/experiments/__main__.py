"""Command-line reproduction report generator.

Usage::

    python -m repro.experiments                  # run every quick-mode experiment
    python -m repro.experiments table2 fig7      # run a subset
    python -m repro.experiments --full fig5      # paper-scale sample counts
    python -m repro.experiments --jobs 4         # fan out across 4 processes
    python -m repro.experiments --jobs 4 --shard-size 5000 --full table11
                                                 # split work *inside* each point
    python -m repro.experiments --json table2    # machine-readable output
    python -m repro.experiments --stream table11 --shard-size 6000
                                                 # NDJSON event per shard/experiment
    python -m repro.experiments --no-cache       # always recompute
    python -m repro.experiments cache-prune --max-mb 64  # trim without running
    python -m repro.experiments daemon start     # warm daemon (pool + memory index)
    python -m repro.experiments daemon status    # JSON status of the running daemon
    python -m repro.experiments daemon dump      # flight-recorder ring as NDJSON
    python -m repro.experiments daemon tail -n 5 --follow
                                                 # newest request records, then live
    python -m repro.experiments daemon stop
    python -m repro.experiments fleet --devices 10000 --requests 2000 --jobs 4
                                                 # ad-hoc fleet authentication run
    python -m repro.experiments --list           # list experiment identifiers

Execution goes through :mod:`repro.engine` as an *event stream*: experiments
run serially or on a process pool (``--jobs``), ``--shard-size``
additionally splits the shardable experiments (Table 11, Figures 5/6,
aging) into sample/pair ranges scheduled on the same pool, and each
experiment's table renders the moment its last shard lands -- long sweeps
stream rows instead of blocking on a global barrier.  ``--stream`` exposes
the raw event stream as NDJSON lines on stdout.  Each call imports only the
engine modules it runs: ``--list`` none, a daemon-routed call the client
(:mod:`repro.engine.client`), the job classes and the source fingerprint,
an inline run the cache and the sharded executor; only ``daemon run``
loads the server (:mod:`repro.engine.daemon`).

When a warm daemon is listening (``daemon start``; socket from
``$REPRO_DAEMON_SOCKET`` or a per-user default) and the invocation does not
pin a local cache (``--cache-dir``/``--no-cache``), execution is routed
through it: the daemon's long-lived worker pool and in-memory result index
skip pool spin-up and per-request disk reads.  Without a daemon the exact
same events are produced inline -- output is byte-identical either way.

Results are served from a content-addressed on-disk cache (``--cache-dir``,
default ``$REPRO_CACHE_DIR`` or ``./.repro-cache``) keyed by experiment
config plus a fingerprint of the package sources -- editing any source file
invalidates stale entries.  Sharded runs cache every shard individually, so
re-running with more samples only computes the new tail shards.

Tables render as plain text on stdout; with ``--json`` stdout is a single
JSON document (identical for any ``--jobs``/``--shard-size`` value and for
daemon-vs-inline execution) and all progress/cache reporting stays on
stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from functools import partial

from repro import telemetry
from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENT_IDS


def build_parser() -> argparse.ArgumentParser:
    """Command-line interface definition."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the tables and figures of the CODIC paper.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help="experiment identifiers to run (default: all)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use paper-scale sample counts instead of quick mode",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        dest="list_experiments",
        help="list the available experiment identifiers and exit",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="number of worker processes (default: 1, serial)",
    )
    parser.add_argument(
        "--shard-size",
        type=int,
        default=None,
        metavar="N",
        help="split shardable experiments into shards of N units (Monte Carlo "
        "samples / Jaccard pairs) scheduled across --jobs workers; results "
        "are bit-identical for any value",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or ./.repro-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every experiment, bypassing the result cache",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit one JSON document on stdout instead of rendered tables",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="emit one NDJSON engine event per line on stdout as shards and "
        "experiments complete (instead of rendered tables)",
    )
    parser.add_argument(
        "--no-daemon",
        action="store_true",
        help="never route execution through a running warm daemon",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="append one NDJSON span record per timed region to FILE "
        "(forces inline execution so spans cover this process and its "
        "workers); summarize with benchmarks/summarize_trace.py",
    )
    return parser


class _EventRenderer:
    """Turn a stream of engine event dicts into CLI output.

    Consumes the JSON-safe event records produced by
    :meth:`repro.engine.JobEvent.to_dict` -- the same shape whether events
    come from an inline run or over the daemon socket -- and renders progress
    lines on stderr, plus one of: NDJSON event lines (``--stream``), tables
    as each experiment completes (default), or a final submission-order JSON
    report (``--json``).
    """

    def __init__(self, selected: list[str], *, as_json: bool, stream: bool):
        from repro.engine.jobs import TERMINAL_EVENTS

        self._terminal_events = TERMINAL_EVENTS
        self.selected = list(selected)
        self.as_json = as_json
        self.stream = stream
        self.report: dict[str, dict] = {}
        self.failures: list[dict] = []
        self.done = 0
        self.rendered = 0
        self._stdout_lines = 0

    @property
    def emitted(self) -> bool:
        """Whether anything reached stdout yet.

        Until then an interrupted daemon stream may be retried or re-run
        inline without duplicating output (``--json`` buffers everything
        until :meth:`finish`; table and ``--stream`` modes emit as they go).
        """
        return bool(self._stdout_lines or self.rendered)

    def feed(self, payload: dict) -> None:
        if self.stream:
            print(json.dumps(payload, separators=(",", ":")), flush=True)
            self._stdout_lines += 1
        if payload.get("event") not in self._terminal_events:
            return
        if payload.get("total") is not None:
            self.done += 1
            if payload.get("error"):
                status = "FAILED"
            elif payload.get("cached"):
                status = "cached"
            else:
                status = f"{payload.get('duration_s', 0.0):.3f}s"
            print(
                f"[{self.done}/{payload['total']}] {payload['job']}  {status}",
                file=sys.stderr,
            )
        if payload.get("error"):
            self.failures.append(payload)
        if payload.get("kind") == "experiment" and "value" in payload:
            self.report[payload["job"]] = payload["value"]
            if not self.as_json and not self.stream:
                if self.rendered:
                    print()
                print(ExperimentResult.from_dict(payload["value"]).render())
                self.rendered += 1

    def finish(self) -> int:
        """Emit the final document / failure report; returns an exit code."""
        if self.failures:
            ids = ", ".join(dict.fromkeys(f["job"] for f in self.failures))
            print(f"{len(self.failures)} job(s) failed: {ids}", file=sys.stderr)
            for failure in self.failures:
                print(f"--- {failure['job']} ---\n{failure['error']}", file=sys.stderr)
            return 1
        missing = [eid for eid in self.selected if eid not in self.report]
        if missing:
            print(f"missing result(s) for: {', '.join(missing)}", file=sys.stderr)
            return 1
        if self.as_json:
            document = {eid: self.report[eid] for eid in self.selected}
            print(json.dumps(document, indent=2))
        return 0


#: Client-side attempts against a saturated daemon (``busy`` frames or a
#: connection dropped before any output) before degrading to inline
#: execution.  Patchable in tests to keep retry paths fast.
_RETRY_ATTEMPTS = 3
_RETRY_BASE_S = 0.1


def _retry_delay(attempt: int) -> float:
    """Jittered exponential backoff before retry ``attempt`` (0-based)."""
    return _RETRY_BASE_S * (2**attempt) + random.uniform(0.0, 0.05)


class _Collector:
    """Keeps each root job's value from a daemon stream; writes nothing."""

    emitted = False

    def __init__(self) -> None:
        self.values: dict[str, dict] = {}

    def feed(self, event: dict) -> None:
        if "value" in event:
            self.values[event["job"]] = event["value"]


def _route(jobs: list, new_sink, *, shard_size: int | None, workers: int):
    """Serve root ``jobs`` through a live daemon.

    Returns ``(sink, done_frame)``, ``(sink, None)`` when the request failed
    after ``sink`` had written to stdout (the call must exit 1), or ``None``
    when the caller must run inline.  ``new_sink()`` builds a fresh event
    consumer (``feed(event)``, ``emitted``) for every attempt, so a retry
    repeats no progress line and no failure.

    One rule for every caller: until the sink has written to stdout, a
    ``busy`` frame or a dropped connection is retried with jittered backoff
    and then runs inline, and ``stale`` or ``error`` runs inline at once.
    Once output exists, inline execution would print it twice, so anything
    but ``done`` is a failure.

    The invocation's trace context rides along: the daemon adopts this
    process's ``trace_id`` and parents its ``daemon.request`` span under the
    client's active span, so a traced daemon-routed request forms one tree
    across client, daemon, and the daemon's pool workers.

    Loads the client, the job classes and the source fingerprint, never
    the server, the executor or the pool.
    """
    from repro.engine.cache import source_fingerprint
    from repro.engine.client import DaemonClient, DaemonError

    try:
        client = DaemonClient()
    except DaemonError as error:
        # e.g. a tampered default socket directory: never trust it, but the
        # run itself can still proceed inline.
        print(f"daemon unavailable ({error}); running inline", file=sys.stderr)
        return None
    if not client.is_running():
        return None
    print(f"daemon: routing via {client.socket_path}", file=sys.stderr)
    if workers != 1:
        print(
            f"daemon: worker count is fixed by the daemon's pool; "
            f"ignoring --jobs {workers}",
            file=sys.stderr,
        )
    specs = [{"kind": job.kind, "config": job.config} for job in jobs]
    for attempt in range(_RETRY_ATTEMPTS + 1):
        if attempt:
            time.sleep(_retry_delay(attempt - 1))
        sink = new_sink()
        try:
            for frame in client.work(
                specs,
                shard_size=shard_size,
                code_version=source_fingerprint(),
                trace_id=telemetry.current_trace_id(),
                parent_span=telemetry.current_span_id(),
            ):
                if frame["type"] == "event":
                    sink.feed(frame["event"])
            kind, message = frame["type"], frame.get("message")
        except DaemonError as error:
            kind, message = "unreachable", str(error)
        if kind == "done":
            return sink, frame
        if sink.emitted:
            print(f"daemon {kind}: {message}; output is incomplete", file=sys.stderr)
            return sink, None
        if kind not in ("busy", "unreachable"):
            print(f"daemon {kind}: {message}; running inline", file=sys.stderr)
            return None
        print(f"daemon {kind}: {message}", file=sys.stderr)
    print("daemon: retry budget exhausted; running inline", file=sys.stderr)
    return None


def _cache_prune_main(argv: list[str]) -> int:
    """``cache-prune`` subcommand: LRU-trim the store without running jobs."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments cache-prune",
        description="Evict least-recently-used result-cache entries until the "
        "store fits the given size budget.",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache directory (default: $REPRO_CACHE_DIR or ./.repro-cache)",
    )
    parser.add_argument(
        "--max-mb",
        type=float,
        default=0.0,
        metavar="MB",
        help="target store size in megabytes (default: 0, evict everything)",
    )
    args = parser.parse_args(argv)
    if args.max_mb < 0:
        parser.error("--max-mb must be non-negative")
    from repro.engine.cache import ResultCache, default_cache_dir

    try:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    except OSError as error:
        print(f"unusable cache directory: {error}", file=sys.stderr)
        return 2
    removed, freed = cache.prune(int(args.max_mb * 1_000_000))
    print(
        f"cache-prune: removed {removed} entrie(s), freed {freed / 1e6:.2f} MB, "
        f"{len(cache)} entrie(s) ({cache.size_bytes() / 1e6:.2f} MB) remain"
    )
    return 0


def _fleet_main(argv: list[str]) -> int:
    """``fleet`` subcommand: one ad-hoc fleet authentication traffic run.

    Provisions a device fleet, replays a deterministic mixed
    genuine/impostor request stream against it (optionally sharded across
    worker processes -- results are bit-identical for any ``--jobs`` /
    ``--shard-size``, and identical inline or through a warm daemon) and
    reports FAR/FRR at the given acceptance threshold plus service-grade
    latency: auths/sec throughput and p50/p95/p99 per-request latency from
    the fleet auth histogram.  In ``--json`` those wall-clock readings live
    under the volatile ``elapsed_seconds``/``auths_per_second``/``latency``
    keys; every other field is deterministic.
    """
    from repro.engine.jobs import FleetTrafficJob
    from repro.fleet.devices import FLEET_PUF_FACTORIES
    from repro.fleet.traffic import TrafficSummary
    from repro.utils.tables import render_table

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments fleet",
        description="Replay an authentication traffic stream against a "
        "simulated device fleet and report FAR/FRR/throughput.",
    )
    parser.add_argument("--devices", type=int, default=1000, metavar="N",
                        help="fleet size (default: 1000)")
    parser.add_argument("--requests", type=int, default=1000, metavar="N",
                        help="authentication requests to replay (default: 1000)")
    parser.add_argument("--puf", default="CODIC-sig PUF", metavar="NAME",
                        choices=sorted(FLEET_PUF_FACTORIES),
                        help="PUF class (default: CODIC-sig PUF)")
    parser.add_argument("--challenges", type=int, default=4, metavar="K",
                        help="enrolled challenges per device (default: 4)")
    parser.add_argument("--impostor-ratio", type=float, default=0.1, metavar="R",
                        help="fraction of impostor requests (default: 0.1)")
    parser.add_argument("--temperature-jitter", type=float, default=0.0,
                        metavar="C", help="per-request temperature jitter in "
                        "degrees, uniform in [-C, +C] (default: 0)")
    parser.add_argument("--aging-horizon", type=float, default=0.0, metavar="H",
                        help="device ages drawn from [0, H] hours (default: 0)")
    parser.add_argument("--reenroll", type=float, default=0.0, metavar="H",
                        help="re-enrollment interval in hours; 0 = never "
                        "(default: 0)")
    parser.add_argument("--threshold", type=float, default=1.0, metavar="T",
                        help="acceptance threshold; 1.0 = exact matching "
                        "(default: 1.0)")
    parser.add_argument("--seed", type=int, default=4242, metavar="S",
                        help="fleet seed (default: 4242)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default: 1, serial)")
    parser.add_argument("--shard-size", type=int, default=None, metavar="N",
                        help="split the stream into request blocks of N")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit one JSON document on stdout")
    parser.add_argument("--no-daemon", action="store_true",
                        help="never route the run through a warm daemon")
    parser.add_argument("--trace", default=None, metavar="FILE",
                        help="append NDJSON span records to FILE; daemon-routed "
                        "runs write this process's spans here (the daemon's own "
                        "spans go to its --trace file, joined under one trace "
                        "id), inline runs cover the whole request")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        print("--jobs must be a positive worker count", file=sys.stderr)
        return 2
    if args.shard_size is not None and args.shard_size <= 0:
        print("--shard-size must be positive", file=sys.stderr)
        return 2
    if not 0.0 <= args.threshold <= 1.0:
        print("--threshold must be in [0, 1]", file=sys.stderr)
        return 2

    try:
        # The job refuses a bad configuration when it is made, so bad values
        # fail with a clear message before any worker sees them.
        job = FleetTrafficJob(
            fleet_seed=args.seed,
            devices=args.devices,
            puf=args.puf,
            requests=args.requests,
            challenges_per_device=args.challenges,
            impostor_ratio=args.impostor_ratio,
            temperature_jitter_c=args.temperature_jitter,
            aging_horizon_hours=args.aging_horizon,
            reenroll_hours=args.reenroll,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2

    # A single traffic job only parallelizes through request sharding, so
    # --jobs without an explicit --shard-size defaults to an even split
    # (results are bit-identical for any value).
    shard_size = args.shard_size
    if shard_size is None and args.jobs > 1:
        shard_size = -(-args.requests // args.jobs)

    # The latency report is the per-request delta of the shared histogram,
    # which attributes this run's observations even when earlier runs in the
    # same process already recorded some.
    trace_writer: telemetry.TraceWriter | None = None
    if args.trace is not None:
        trace_writer = telemetry.TraceWriter(args.trace)
        telemetry.enable_tracing(trace_writer)
    try:
        start = time.perf_counter()
        routed = None
        # One root span covers the whole request either way: daemon-routed
        # runs hand its id to the daemon as parent_span, so the daemon's
        # spans (and its workers') join this tree under one trace id.
        with telemetry.span("fleet.request", kind="fleet", requests=args.requests):
            if not args.no_daemon:
                routed = _route(
                    [job], _Collector, shard_size=shard_size, workers=args.jobs
                )
            payload = routed and routed[0].values.get(job.job_id)
            if routed and payload is None:
                print(
                    "daemon: stream ended without a result; running inline",
                    file=sys.stderr,
                )
            if payload is not None:
                value = job.decode(payload)
                latency = telemetry.Histogram.from_dict(routed[1]["latency"])
            else:
                from repro.engine.sharding import run_sharded

                reg = telemetry.registry()
                auth_latency = reg.histogram(telemetry.FLEET_AUTH_SECONDS)
                before = telemetry.Histogram.from_dict(auth_latency.to_dict())
                value = run_sharded(
                    [job], shard_size=shard_size, workers=args.jobs, cache=None
                )[0].value
                latency = auth_latency.subtract(before)
        elapsed = time.perf_counter() - start
    finally:
        if trace_writer is not None:
            telemetry.disable_tracing()
            trace_writer.close()

    summary = TrafficSummary.from_payload(value)
    percentiles = telemetry.percentiles_ms(latency)
    # A fully-cached daemon reply replays the stored result and measures no
    # per-auth latency; mark that explicitly so --json consumers need not
    # infer it from "count": 0 / null percentiles.
    percentiles["cached"] = percentiles["count"] == 0
    print(
        f"fleet: {args.requests} auths in {elapsed:.3f}s "
        f"({args.requests / elapsed:,.0f} auths/sec, {args.jobs} worker(s))",
        file=sys.stderr,
    )
    if percentiles["count"]:
        print(
            f"fleet: auth latency p50 {percentiles['p50_ms']:.3f} ms, "
            f"p95 {percentiles['p95_ms']:.3f} ms, "
            f"p99 {percentiles['p99_ms']:.3f} ms "
            f"({percentiles['count']} measured)",
            file=sys.stderr,
        )
    else:
        print(
            "fleet: auth latency n/a (request served from the daemon cache)",
            file=sys.stderr,
        )
    document = {
        "config": job.config,
        "threshold": args.threshold,
        "requests": args.requests,
        "genuine_trials": summary.genuine_trials,
        "impostor_trials": summary.impostor_trials,
        "frr": summary.frr(args.threshold),
        "far": summary.far(args.threshold),
        "genuine_mean_jaccard": round(summary.genuine_mean(), 6),
        "impostor_mean_jaccard": round(summary.impostor_mean(), 6),
        # Volatile wall-clock readings -- strip these three keys (and only
        # these) before comparing fleet JSON across runs or execution modes.
        "elapsed_seconds": round(elapsed, 6),
        "auths_per_second": round(args.requests / elapsed, 3) if elapsed > 0 else None,
        "latency": percentiles,
    }
    if args.as_json:
        print(json.dumps(document, indent=2))
        return 0

    def _ms(key: str) -> str:
        return f"{percentiles[key]:.3f}" if percentiles[key] is not None else "n/a"

    rows = [
        ["devices", args.devices],
        ["requests", args.requests],
        ["PUF", args.puf],
        ["acceptance threshold", args.threshold],
        ["genuine trials", summary.genuine_trials],
        ["impostor trials", summary.impostor_trials],
        ["FRR (%)", round(summary.frr(args.threshold) * 100.0, 2)],
        ["FAR (%)", round(summary.far(args.threshold) * 100.0, 2)],
        ["genuine mean Jaccard", round(summary.genuine_mean(), 4)],
        ["impostor mean Jaccard", round(summary.impostor_mean(), 4)],
        ["auths/sec", f"{args.requests / elapsed:,.0f}"],
        ["auth latency p50 (ms)", _ms("p50_ms")],
        ["auth latency p95 (ms)", _ms("p95_ms")],
        ["auth latency p99 (ms)", _ms("p99_ms")],
    ]
    print(render_table(["Metric", "Value"], rows, title="fleet authentication"))
    return 0


def _daemon_main(argv: list[str]) -> int:
    """``daemon`` subcommand: start/stop/status/run the warm daemon."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments daemon",
        description="Manage the warm experiment daemon (persistent worker "
        "pool + in-memory result index over a unix socket).",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    for action in ("start", "stop", "status", "metrics", "dump", "tail", "run"):
        sp = sub.add_parser(action)
        sp.add_argument(
            "--socket",
            default=None,
            metavar="PATH",
            help="daemon socket (default: $REPRO_DAEMON_SOCKET or a per-user "
            "path under the temp directory)",
        )
        if action in ("start", "run"):
            sp.add_argument(
                "--cache-dir",
                default=None,
                metavar="DIR",
                help="result cache directory the daemon serves "
                "(default: $REPRO_CACHE_DIR or ./.repro-cache)",
            )
            sp.add_argument(
                "--workers",
                type=int,
                default=2,
                metavar="N",
                help="persistent worker processes (default: 2)",
            )
            sp.add_argument(
                "--trace",
                default=None,
                metavar="FILE",
                help="append one NDJSON span record per daemon-side timed "
                "region to FILE",
            )
            sp.add_argument(
                "--max-inflight",
                type=int,
                default=4,
                metavar="N",
                help="work requests executing concurrently (default: 4)",
            )
            sp.add_argument(
                "--queue-depth",
                type=int,
                default=16,
                metavar="N",
                help="work requests waiting beyond --max-inflight before new "
                "ones are refused with a busy frame (default: 16)",
            )
            sp.add_argument(
                "--recorder-capacity",
                type=int,
                default=256,
                metavar="N",
                help="completed work requests retained in the flight "
                "recorder's ring buffer (default: 256)",
            )
            sp.add_argument(
                "--slow-request-s",
                type=float,
                default=1.0,
                metavar="SECONDS",
                help="requests at least this long are flagged slow in the "
                "flight recorder and counted in status (default: 1.0)",
            )
        if action == "tail":
            sp.add_argument(
                "-n",
                "--count",
                type=int,
                default=10,
                metavar="N",
                help="newest flight-recorder records to print (default: 10)",
            )
            sp.add_argument(
                "--follow",
                action="store_true",
                help="after the initial records, stream each new request "
                "record as it completes (until interrupted)",
            )
        if action == "stop":
            sp.add_argument(
                "--force",
                action="store_true",
                help="SIGKILL the daemon (from its pid file), with its pool "
                "workers, if it does not shut down gracefully within --timeout",
            )
            sp.add_argument(
                "--timeout",
                type=float,
                default=10.0,
                metavar="SECONDS",
                help="grace period for orderly shutdown (default: 10)",
            )
    args = parser.parse_args(argv)
    if args.action in ("start", "run") and args.workers < 1:
        print("--workers must be >= 1", file=sys.stderr)
        return 2
    if args.action in ("start", "run") and (
        args.max_inflight < 1 or args.queue_depth < 0
    ):
        print(
            "--max-inflight must be >= 1 and --queue-depth must be >= 0",
            file=sys.stderr,
        )
        return 2
    if args.action in ("start", "run") and (
        args.recorder_capacity < 1 or args.slow_request_s <= 0
    ):
        print(
            "--recorder-capacity must be >= 1 and --slow-request-s must be "
            "positive",
            file=sys.stderr,
        )
        return 2
    if args.action == "tail" and args.count < 0:
        print("--count must be non-negative", file=sys.stderr)
        return 2
    from repro.engine.client import (
        DaemonClient,
        DaemonError,
        default_socket_path,
        start_daemon,
        stop_daemon,
    )

    try:
        socket_path = args.socket or default_socket_path()
        if args.action == "start":
            pid = start_daemon(
                socket_path,
                cache_dir=args.cache_dir,
                workers=args.workers,
                trace=args.trace,
                max_inflight=args.max_inflight,
                queue_depth=args.queue_depth,
                recorder_capacity=args.recorder_capacity,
                slow_request_s=args.slow_request_s,
            )
            print(f"daemon started (pid {pid}, socket {socket_path})")
            return 0
        if args.action == "stop":
            outcome = stop_daemon(socket_path, wait_s=args.timeout, force=args.force)
            if outcome == "forced":
                print(f"daemon on {socket_path} force-killed (SIGKILL)")
                return 0
            if outcome:
                print(f"daemon on {socket_path} stopped gracefully")
                return 0
            print(f"no daemon running on {socket_path}", file=sys.stderr)
            return 1
        if args.action == "status":
            client = DaemonClient(socket_path)
            print(json.dumps(client.status(), indent=2, sort_keys=True))
            return 0
        if args.action == "metrics":
            client = DaemonClient(socket_path)
            print(client.metrics(), end="")
            return 0
        if args.action == "dump":
            dump = DaemonClient(socket_path).dump()
            records = dump.get("records", [])
            for record in records:
                print(json.dumps(record, separators=(",", ":")))
            print(
                f"dump: {len(records)} record(s) "
                f"({dump.get('recorded_total', 0)} recorded, "
                f"{dump.get('dropped', 0)} dropped, "
                f"{dump.get('slow_requests', 0)} slow, "
                f"capacity {dump.get('capacity', 0)})",
                file=sys.stderr,
            )
            return 0
        if args.action == "tail":
            client = DaemonClient(socket_path)
            if args.follow:
                try:
                    for record in client.tail_follow(args.count):
                        print(json.dumps(record, separators=(",", ":")), flush=True)
                except KeyboardInterrupt:
                    pass
                return 0
            for record in client.tail(args.count).get("records", []):
                print(json.dumps(record, separators=(",", ":")))
            return 0
        # "run": serve in the foreground (what `daemon start` spawns); the
        # only call that loads the server.
        from repro.engine.daemon import ExperimentDaemon

        ExperimentDaemon(
            socket_path,
            cache_dir=args.cache_dir,
            workers=args.workers,
            trace=args.trace,
            max_inflight=args.max_inflight,
            queue_depth=args.queue_depth,
            recorder_capacity=args.recorder_capacity,
            slow_request_s=args.slow_request_s,
        ).serve_forever()
        return 0
    except DaemonError as error:
        print(str(error), file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    # One trace id per CLI invocation, minted whether or not spans are being
    # recorded: daemon-routed requests carry it in their frames and the
    # daemon's flight recorder files every request under it, and when --trace
    # is active every span record this invocation produces (here, in the
    # daemon, in its pool workers) shares it -- one tree per request.  The
    # context is restored on exit so in-process callers are not left tagged.
    token = telemetry.set_trace_id(telemetry.new_trace_id())
    try:
        return _dispatch(argv)
    finally:
        telemetry.reset_trace_id(token)


def _dispatch(argv: list[str] | None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv[:1] == ["cache-prune"]:
        return _cache_prune_main(argv[1:])
    if argv[:1] == ["daemon"]:
        return _daemon_main(argv[1:])
    if argv[:1] == ["fleet"]:
        return _fleet_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.jobs < 1:
        print("--jobs must be a positive worker count", file=sys.stderr)
        return 2
    if args.shard_size is not None and args.shard_size <= 0:
        print("--shard-size must be positive", file=sys.stderr)
        return 2
    if args.as_json and args.stream:
        print("--json and --stream are mutually exclusive", file=sys.stderr)
        return 2

    if args.list_experiments:
        for experiment_id in EXPERIMENT_IDS:
            print(experiment_id)
        return 0

    selected = args.experiments or list(EXPERIMENT_IDS)
    unknown = [experiment_id for experiment_id in selected if experiment_id not in EXPERIMENT_IDS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"known experiments: {', '.join(EXPERIMENT_IDS)}", file=sys.stderr)
        return 2

    from repro.engine.jobs import ExperimentJob

    jobs = [ExperimentJob(experiment_id, quick=not args.full) for experiment_id in selected]
    new_renderer = partial(
        _EventRenderer, selected, as_json=args.as_json, stream=args.stream
    )
    # A live daemon owns its own cache (memory index over its disk store), so
    # only route through it when this invocation does not pin a local cache
    # (--cache-dir/--no-cache stay inline).  --trace also stays inline:
    # spans must cover this process and its pool.
    if (
        not args.no_daemon
        and not args.no_cache
        and args.cache_dir is None
        and args.trace is None
    ):
        routed = _route(jobs, new_renderer, shard_size=args.shard_size, workers=args.jobs)
        if routed is not None:
            renderer, done = routed
            if done is None:
                return 1
            code = renderer.finish()
            if code == 0:
                from repro.engine.cache import CacheStats

                stats = CacheStats(hits=done["hits"], misses=done["misses"])
                print(
                    f"cache: {stats.summary()}, {done['memory_hits']} from memory "
                    f"index (daemon)",
                    file=sys.stderr,
                )
            return code

    from repro.engine.cache import ResultCache, default_cache_dir
    from repro.engine.sharding import iter_sharded

    trace_writer: telemetry.TraceWriter | None = None
    if args.trace is not None:
        trace_writer = telemetry.TraceWriter(args.trace)
        telemetry.enable_tracing(trace_writer)
    try:
        cache = None
        if not args.no_cache:
            try:
                cache = ResultCache(args.cache_dir or default_cache_dir())
            except OSError as error:
                print(f"unusable cache directory: {error}", file=sys.stderr)
                return 2

        roots = {id(job) for job in jobs}
        renderer = new_renderer()
        with telemetry.span("cli.run", kind="cli", experiments=list(selected)):
            for event in iter_sharded(
                jobs,
                shard_size=args.shard_size,
                workers=args.jobs,
                cache=cache,
            ):
                include_value = (
                    event.terminal
                    and id(event.job) in roots
                    and event.outcome is not None
                    and event.outcome.ok
                )
                renderer.feed(event.to_dict(include_value=include_value))
        code = renderer.finish()
        if code:
            return code

        if cache is not None:
            print(f"cache: {cache.stats.summary()}", file=sys.stderr)
        return 0
    finally:
        if trace_writer is not None:
            telemetry.disable_tracing()
            trace_writer.close()


if __name__ == "__main__":
    raise SystemExit(main())
