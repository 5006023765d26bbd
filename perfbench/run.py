#!/usr/bin/env python3
"""End-to-end benchmark of the CODIC reproduction: three closed-loop workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-quick --seed 1 --seconds 30 --trace 0

One client process (this one) drives one workload in a closed loop: it sends
its next operation only after the previous one completed, and every timed
operation runs alone -- a fresh interpreter per unit of work, a fresh daemon
with an empty cache directory per daemon cycle, untimed warm-ups first -- so
the numbers measure the program, not two cores being shared.  Workloads (see
``perfbench/README.md`` for why each exists and which layer moves which
metric):

``paper-quick``
    the 16 quick experiments regenerated inline, ``--jobs 1``, no result
    cache; then ``--json`` CLI re-runs served from a result cache holding
    them, bare ``--list`` startups and cold CLI regenerations of the two
    fleet PUF figures.  The paper's fixed configs: the seed is recorded but
    changes no input.
``fleet-10k``
    for each PUF class a fresh 10,000-device fleet replays one request
    stream through ``authenticate_block`` in blocks, twice (lazy enrolment,
    then resident goldens); then cold ``fleet`` CLI runs.  Fleet and stream
    seeds derive from ``--seed``.
``daemon-closed-loop``
    a detached daemon with its default 2-worker pool: one cold full-suite
    submit into an empty cache, warm resubmits, then fleet-op requests with
    distinct seeds derived from ``--seed`` (cache misses) alternating with
    CLI calls routed to the warm daemon.

Every run checks every output and counts each failed, refused or wrong
operation in ``failed``.  The last stdout line is one JSON object: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``.  The lines before it print every metric under its
``<workload>/<metric>`` name plus the machine fingerprint; ``--out FILE``
also writes the raw samples (read by ``perfbench/noise.py``).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBE = HERE / "probe.py"
#: Scratch space of a run (caches, sockets, logs, traces), inside the
#: checkout and ignored by git.  Relative, so socket paths stay short.
RUN_BASE = Path(".perfbench-run")

#: Upper bound on any single child process; the whole run must end < 180 s.
CHILD_TIMEOUT_S = 120.0

#: Daemon closed loop, per cycle: warm resubmits, fleet-op requests and CLI
#: calls after the one cold submit.
DAEMON_WARM_REQUESTS = 100
DAEMON_FLEET_REQUESTS = 4
DAEMON_CLI_CALLS = 3
#: The shard size every submit uses, by the repository README's rule
#: ``--jobs N --shard-size <units/N>``: fig5's 120 Jaccard pairs per point
#: (the quick suite's largest shardable points) over the pool's 2 workers.
#: The cold submit then runs 81 jobs with 31 merges and 112 cache stores.
DAEMON_SHARD_SIZE = 60
#: Fleet-op request shape: small CODIC-sig fleets, each with its own seed,
#: replaying one request per device.  A request's cost depends on its
#: fleet: over 12 seeds a cold 256-device request varied by 21% (coefficient
#: of variation), a 1,024-device one by 6.5%, so the timed requests use
#: 1,024.  The first requests of a cycle, untimed and smaller, warm the pool
#: workers' fleet code.
DAEMON_FLEET_WARM_UPS = 2
DAEMON_FLEET_WARM_UP_DEVICES = 256
DAEMON_FLEET_DEVICES = 1024
#: The traced daemon unit sends more warm requests so the daemon's CPU
#: time per request (10 ms clock ticks) is resolved to about 1%.  Its flight
#: recorder keeps every request of the cycle (cold, warm and fleet).
TRACED_WARM_REQUESTS = 400
TRACED_FLEET_REQUESTS = 3
TRACED_RECORDER_CAPACITY = 1 + TRACED_WARM_REQUESTS + DAEMON_FLEET_WARM_UPS + TRACED_FLEET_REQUESTS

#: Per paper-quick iteration: ``--json`` CLI re-runs from the result cache,
#: and as many bare ``--list`` startups and cold CLI regenerations of the
#: fleet PUF figures (``probe.PUF_CLI_IDS``, the workload's ``puf_ms``).
PQ_CLI_CALLS = 2
#: Cold ``fleet`` CLI runs per fleet-10k iteration (the workload's ``cli_s``).
FLEET_CLI_CALLS = 2

#: Extra set-up-only launches per run; the median of all set-ups is reported.
SETUP_PROBES = {"paper-quick": 2, "fleet-10k": 2, "daemon-closed-loop": 3}
#: Minimum measured iterations per run (more when ``--seconds`` allows).
MIN_ITERATIONS = {"paper-quick": 2, "fleet-10k": 3, "daemon-closed-loop": 2}

#: Metric names and units, as ``BENCHMARK.json`` declares them: the
#: end-to-end metrics every workload reports (what each one times on each
#: workload is documented in perfbench/README.md) and the traced run's
#: per-layer metrics.
BENCHMARK = ROOT / "BENCHMARK.json"


#: Machine-speed yardstick.  The box this was tuned on changes speed with its
#: neighbours' load, in phases of seconds to minutes and by up to 1.8x
#: between hours, so a run times a fixed yardstick before each operation,
#: never during one, and reports every time scaled to the yardstick's
#: reference speed: raw x reference / (the run's mean yardstick time without
#: its slowest tenth).  A yardstick run is a fresh interpreter that imports
#: NumPy and prints the best of 3 timings of a fixed compute kernel (a
#: pure-Python loop plus a NumPy sort), so it lands on a CPU the way the
#: program's processes do and does not depend on the program.  Scoring rules
#: on the same 60 runs (perfbench/README.md): this one kept every run-to-run
#: spread within 0.192 and every median within 0.152 between two sets (0.218
#: for ``setup_s``); using the child's start-up time for start-up-bound
#: metrics moved one median by 0.289, and scaling each sample by the
#: yardstick runs around it spread more.  A mean follows a run that alternates between fast and slow phases,
#: where a median snaps to one of them; the slowest tenth is dropped because
#: a yardstick run just after an operation can compete with the program's
#: own tail work, such as the daemon's cache stores.  The printed lines show
#: the raw statistics too.
YARDSTICK_CODE = """
import time
import numpy as np

def kernel():
    start = time.perf_counter()
    total, table = 0, {}
    for k in range(30_000):
        total += k * 3 % 7
        table[k & 1023] = total
    values = np.random.default_rng(1).random(100_000)
    np.sort(values)
    np.unique((values * 1000).astype(np.int64))
    return time.perf_counter() - start

print(min(kernel() for _ in range(3)))
"""
YARDSTICK_REFERENCE_S = 0.01
YARDSTICK_DROPPED_SHARE = 0.1


def yardstick() -> float:
    """Seconds of the yardstick kernel, best of 3 in a fresh interpreter (8-14 ms)."""
    proc = subprocess.run(
        [sys.executable, "-c", YARDSTICK_CODE], cwd=ROOT, stdin=subprocess.DEVNULL,
        capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S,
    )
    return float(proc.stdout)


#: The percentile each metric reports (the median unless listed).  The
#: daemon's warm requests take under 3 ms each and a host scheduling burst
#: can double a whole cycle of them, so their reported value is the lower
#: quartile of the run's 200.
PERCENTILE = {("daemon-closed-loop", "warm_ms"): 25}


def declared_units(section: str) -> dict[str, str]:
    """``name -> unit`` of one metric list of ``BENCHMARK.json``."""
    return {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text())[section]}


def percentile(values: list[float], q: int) -> float:
    """Inclusive-method percentile ``q`` (1-99) of ``values``."""
    if q == 50 or len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong output)."""


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def machine() -> dict:
    """Where the numbers were taken."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def become_subreaper() -> None:
    """Adopt orphans (the daemon's pool workers) so they can be waited for."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_children(deadline_s: float = 10.0) -> None:
    """Wait for every child process (adopted ones included) to end."""
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                raise BenchError("child processes did not exit")
            time.sleep(0.02)


def _proc_children(pid: int) -> list[int]:
    """Child pids of ``pid``, whichever of its threads forked them."""
    children = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            children += [int(child) for child in (task / "children").read_text().split()]
        except OSError:
            pass
    return children


def _peak_rss_kb(pid: int) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def _cpu_seconds(pid: int) -> float:
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class Bench:
    """State of one run: environment, counters and samples."""

    def __init__(self, args):
        self.args = args
        self.seed = args.seed
        self.run_dir = RUN_BASE / args.workload
        shutil.rmtree(self.run_dir, ignore_errors=True)
        (self.run_dir / "tmp").mkdir(parents=True)
        self.log = open(self.run_dir / "children.log", "ab")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["TMPDIR"] = str((self.run_dir / "tmp").resolve())
        self.env.pop("REPRO_DAEMON_SOCKET", None)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.end_to_end = declared_units("end_to_end")
        self.samples: dict[str, list[float]] = {name: [] for name in self.end_to_end}
        self.daemons: list[tuple[Path, int]] = []
        self.yardstick: list[float] = []

    def calibrate(self) -> None:
        """Time the yardstick; called between operations, never during one."""
        self.yardstick.append(yardstick())

    def speed(self) -> float:
        """The run's yardstick time: the mean without the slowest tenth."""
        times = sorted(self.yardstick)
        return statistics.fmean(times[: len(times) - int(len(times) * YARDSTICK_DROPPED_SHARE)])

    def speed_scale(self) -> float:
        """Reference over measured yardstick time (above 1 on a slow run)."""
        return YARDSTICK_REFERENCE_S / self.speed()

    def record(self, values: dict[str, float | list[float]]) -> None:
        """Raw samples of one operation, by metric."""
        for name, value in values.items():
            self.samples[name] += value if isinstance(value, list) else [value]

    # -- bookkeeping ------------------------------------------------------
    def attempt(self, ok: bool, problem: str = "", count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def wrong(self, problems: list[str]) -> None:
        self.failed += len(problems)
        self.problems.extend(problems)

    # -- child processes --------------------------------------------------
    def run(self, argv: list[str], **env) -> tuple[float, subprocess.CompletedProcess]:
        """Run a child to completion; seconds from spawn to exit."""
        self.calibrate()
        start = time.perf_counter()
        proc = subprocess.run(
            argv,
            cwd=ROOT,
            env={**self.env, **env},
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        return time.perf_counter() - start, proc

    def probe(self, args: list[str], *, setup_only: bool = False) -> tuple[float, dict | None]:
        """Launch ``probe.py``; seconds from spawn to ``ready``, and its result."""
        argv = [sys.executable, str(PROBE), *args] + (["--setup-only"] if setup_only else [])
        self.calibrate()
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=self.env, stdout=subprocess.PIPE, stderr=self.log, text=True
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
        if first.strip() != "ready" or code != 0:
            raise BenchError(f"probe {' '.join(args)} failed (exit {code}); see {self.log.name}")
        return setup_s, None if setup_only else json.loads(rest.strip().splitlines()[-1])

    def close(self) -> None:
        from repro.engine import stop_daemon

        for socket, pid in self.daemons:
            try:
                stop_daemon(socket, wait_s=5.0, force=True)
            except Exception:  # noqa: BLE001 - cleanup must reach every daemon
                try:
                    os.kill(pid, 9)
                except OSError:
                    pass
        self.daemons.clear()
        self.log.close()
        reap_children()


# ----------------------------------------------------------------------
# paper-quick
# ----------------------------------------------------------------------
def pq_iteration(bench: Bench, index: int, trace: str | None = None) -> dict:
    cache_dir = bench.run_dir / f"pq-cache-{index}"
    args = ["paper-quick", str(cache_dir)] + (["--trace", trace] if trace else [])
    setup_s, result = bench.probe(args)
    bench.attempt(True, count=result["operations"])
    bench.wrong([f"paper-quick: {item}" for item in result["wrong"]])
    result["setup_s"] = setup_s
    return result


def paper_quick(bench: Bench) -> None:
    bench.probe(["paper-quick", "-"], setup_only=True)  # untimed warm-up
    for _ in range(SETUP_PROBES["paper-quick"]):
        bench.record({"setup_s": bench.probe(["paper-quick", "-"], setup_only=True)[0]})
        bench.attempt(True)

    def iteration(index: int) -> None:
        result = pq_iteration(bench, index)
        bench.record({
            "setup_s": result["setup_s"],
            "cold_s": result["wall_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        })
        for _ in range(PQ_CLI_CALLS):
            elapsed, proc = bench.run(
                [sys.executable, "-m", "repro.experiments", "--json", "--jobs", "1",
                 "--no-daemon", "--cache-dir", str(bench.run_dir / f"pq-cache-{index}")]
            )
            bench.record({"warm_ms": 1e3 * elapsed})
            bench.attempt(
                proc.returncode == 0
                and probe.sha256(proc.stdout.removesuffix("\n")) == result["document_sha256"],
                "paper-quick: CLI re-run from the result cache printed another document",
            )
            elapsed, proc = bench.run([sys.executable, "-m", "repro.experiments", "--list"])
            bench.record({"cli_s": elapsed})
            bench.attempt(
                proc.returncode == 0 and proc.stdout.split() == result["experiments"],
                "paper-quick: --list printed another experiment list",
            )
            elapsed, proc = bench.run(
                [sys.executable, "-m", "repro.experiments", *probe.PUF_CLI_IDS,
                 "--no-cache", "--json", "--jobs", "1", "--no-daemon"]
            )
            bench.record({"puf_ms": 1e3 * elapsed})
            bench.attempt(
                proc.returncode == 0
                and probe.sha256(proc.stdout.removesuffix("\n")) == result["puf_document_sha256"],
                "paper-quick: CLI regeneration of the fleet PUF figures printed another document",
            )

    measure(bench, iteration)


# ----------------------------------------------------------------------
# fleet-10k
# ----------------------------------------------------------------------
def fleet_iteration(bench: Bench, trace: str | None = None) -> dict:
    args = ["fleet", str(bench.seed)] + (["--trace", trace] if trace else [])
    setup_s, result = bench.probe(args)
    bench.attempt(True, count=result["operations"])
    bench.wrong([f"fleet-10k: {item}" for item in result["wrong"]])
    result["setup_s"] = setup_s
    return result


def fleet_10k(bench: Bench) -> None:
    bench.probe(["fleet", str(bench.seed)], setup_only=True)  # untimed warm-up
    for _ in range(SETUP_PROBES["fleet-10k"]):
        bench.record({"setup_s": bench.probe(["fleet", str(bench.seed)], setup_only=True)[0]})
        bench.attempt(True)

    def iteration(index: int) -> None:
        result = fleet_iteration(bench)
        classes = result["classes"].values()
        bench.record({
            "setup_s": result["setup_s"],
            "cold_s": sum(c["cold_s"] for c in classes),
            "warm_ms": 1e3 * sum(c["warm_s"] for c in classes),
            "puf_ms": [1e3 * s for c in classes for s in c["cold_blocks"]],
            "peak_rss_mb": result["peak_rss_mb"],
        })
        expected = result["first_block"]["CODIC-sig PUF"]
        for _ in range(FLEET_CLI_CALLS):
            elapsed, proc = bench.run(
                [sys.executable, "-m", "repro.experiments", "fleet",
                 "--devices", str(probe.FLEET_DEVICES),
                 # One replay block, so the replay's first block is the expected output.
                 "--requests", str(probe.FLEET_BLOCK),
                 "--challenges", str(probe.FLEET_CHALLENGES),
                 "--impostor-ratio", str(probe.FLEET_IMPOSTOR_RATIO),
                 "--temperature-jitter", str(probe.FLEET_JITTER_C),
                 "--seed", str(result["fleet_seed"]), "--json", "--no-daemon"]
            )
            bench.record({"cli_s": elapsed})
            ok = proc.returncode == 0
            if ok:
                document = json.loads(proc.stdout)
                ok = all(document[key] == value for key, value in expected.items())
            bench.attempt(ok, "fleet-10k: fleet CLI output differs from the replay's first block")

    measure(bench, iteration)


# ----------------------------------------------------------------------
# daemon-closed-loop
# ----------------------------------------------------------------------
def _drain(frames) -> tuple[dict, dict]:
    """Consume one request's frames: ``(terminal frame, root values)``."""
    values, last = {}, {}
    for frame in frames:
        if frame.get("type") == "event" and "value" in frame["event"]:
            values[frame["event"]["job"]] = frame["event"]["value"]
        last = frame
    return last, values


def start_daemon_unit(bench: Bench, index: int, trace: str | None) -> tuple[Path, int]:
    """A fresh daemon on an empty cache; records the seconds until it answers ping."""
    from repro.engine import DaemonClient, start_daemon

    socket = bench.run_dir / f"d{index}.sock"
    cache_dir = bench.run_dir / f"d{index}-cache"
    bench.calibrate()
    start = time.perf_counter()
    if trace is None:
        pid = start_daemon(socket, cache_dir=cache_dir, workers=2)
    else:
        proc = subprocess.Popen(
            [sys.executable, str(PROBE), "daemon", str(socket), str(cache_dir), trace,
             str(TRACED_RECORDER_CAPACITY)],
            cwd=ROOT, env=bench.env, stdin=subprocess.DEVNULL,
            stdout=bench.log, stderr=bench.log, start_new_session=True,
        )
        pid = proc.pid
        client = DaemonClient(socket)
        while not client.is_running():
            if proc.poll() is not None or time.perf_counter() - start > 60:
                raise BenchError(f"traced daemon did not start; see {bench.log.name}")
            time.sleep(0.02)
    bench.record({"setup_s": time.perf_counter() - start})
    bench.daemons.append((socket, pid))
    return socket, pid


def stop_daemon_unit(bench: Bench, socket: Path, pid: int) -> None:
    from repro.engine import stop_daemon

    workers = _proc_children(pid)
    stop_daemon(socket, wait_s=10.0, force=True)
    bench.daemons.remove((socket, pid))
    try:
        os.waitpid(pid, 0)
    except ChildProcessError:
        pass
    deadline = time.monotonic() + 10.0
    while any(Path(f"/proc/{worker}").exists() for worker in workers):
        try:
            os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            pass
        if time.monotonic() > deadline:
            raise BenchError("daemon pool workers did not exit")
        time.sleep(0.02)


def daemon_cycle(
    bench: Bench,
    index: int,
    *,
    warm_requests: int,
    fleet_requests: int,
    cli_calls: int,
    trace: str | None = None,
) -> dict:
    """One closed-loop cycle against a fresh daemon; timings in seconds."""
    from repro.engine import DaemonClient, FleetTrafficJob, source_fingerprint
    from repro.experiments.registry import EXPERIMENTS

    expected = json.loads(probe.EXPECTED.read_text())
    socket, pid = start_daemon_unit(bench, index, trace)
    client = DaemonClient(socket)
    version = source_fingerprint()
    ids = list(EXPERIMENTS)
    out = {"warm_s": [], "fleet_s": [], "cli_s": []}

    def submit():
        return _drain(
            client.submit(ids, quick=True, shard_size=DAEMON_SHARD_SIZE, code_version=version)
        )

    out["status_before"] = client.status()
    bench.calibrate()
    start = time.perf_counter()
    done, values = submit()
    out["cold_s"] = time.perf_counter() - start
    bench.record({"cold_s": out["cold_s"]})
    out["status_cold"] = client.status()
    document = json.dumps({eid: values.get(eid) for eid in ids}, indent=2)
    bench.attempt(done.get("type") == "done" and done.get("misses", 0) > 0,
                  f"daemon: cold submit ended with {done.get('type')} frame")
    bench.wrong([f"daemon: cold payload {eid}" for eid in probe.wrong_experiments(values, expected)])
    if probe.sha256(document) != expected["document_sha256"]:
        bench.wrong(["daemon: cold document"])

    bench.calibrate()
    cpu0 = _cpu_seconds(pid)
    for _ in range(warm_requests):
        start = time.perf_counter()
        done, warm_values = submit()
        out["warm_s"].append(time.perf_counter() - start)
        bench.attempt(
            done.get("type") == "done" and done.get("misses") == 0 and warm_values == values,
            f"daemon: warm resubmit ended with {done.get('type')} frame or another payload",
        )
    out["warm_cpu_s"] = _cpu_seconds(pid) - cpu0
    bench.record({"warm_ms": [1e3 * s for s in out["warm_s"]]})
    out["status_warm"] = client.status()

    fleet_payloads = []

    def fleet_request(k: int, devices: int) -> float:
        job = FleetTrafficJob(
            fleet_seed=probe.derive_seed("daemon-fleet", bench.seed, index, k),
            devices=devices,
            puf="CODIC-sig PUF",
            requests=devices,
            challenges_per_device=probe.FLEET_CHALLENGES,
            impostor_ratio=probe.FLEET_IMPOSTOR_RATIO,
            temperature_jitter_c=probe.FLEET_JITTER_C,
        )
        start = time.perf_counter()
        done, fleet_values = _drain(client.fleet(job.config, code_version=version))
        elapsed = time.perf_counter() - start
        ok = done.get("type") == "done" and done.get("misses", 0) > 0 and len(fleet_values) == 1
        bench.attempt(ok, f"daemon: fleet request ended with {done.get('type')} frame")
        if ok:
            fleet_payloads.append((job, next(iter(fleet_values.values()))))
        return elapsed

    def cli_call() -> None:
        elapsed, proc = bench.run(
            [sys.executable, "-m", "repro.experiments", "--json"],
            REPRO_DAEMON_SOCKET=str(socket),
        )
        out["cli_s"].append(elapsed)
        bench.record({"cli_s": elapsed})
        bench.attempt(
            proc.returncode == 0
            and "daemon: routing via" in proc.stderr
            and proc.stdout.removesuffix("\n") == document,
            "daemon: CLI call was not served by the daemon or printed another document",
        )

    bench.calibrate()
    for k in range(DAEMON_FLEET_WARM_UPS):
        fleet_request(k, DAEMON_FLEET_WARM_UP_DEVICES)
    # Fleet requests and CLI calls alternate, so each kind samples the whole
    # warm phase of the cycle, not one few-second window of the host's speed.
    for k in range(max(fleet_requests, cli_calls)):
        if k < fleet_requests:
            out["fleet_s"].append(fleet_request(DAEMON_FLEET_WARM_UPS + k, DAEMON_FLEET_DEVICES))
            bench.record({"puf_ms": 1e3 * out["fleet_s"][-1]})
        if k < cli_calls:
            cli_call()

    if trace is not None:
        out["dump"] = client.dump()
    out["peak_rss_mb"] = sum(_peak_rss_kb(p) for p in [pid, *_proc_children(pid)]) / 1024.0
    bench.record({"peak_rss_mb": out["peak_rss_mb"]})
    stop_daemon_unit(bench, socket, pid)
    # Untimed: every fleet-op payload must equal the same job replayed inline.
    for job, payload in fleet_payloads:
        inline = job.encode(job.run())
        if json.dumps(inline, sort_keys=True) != json.dumps(payload, sort_keys=True):
            bench.wrong([f"daemon: fleet payload {job.job_id} differs from the inline replay"])
    return out


def daemon_closed_loop(bench: Bench) -> None:
    bench.probe(["paper-quick", "-"], setup_only=True)  # untimed warm-up
    for index in range(SETUP_PROBES["daemon-closed-loop"]):
        socket, pid = start_daemon_unit(bench, 100 + index, None)
        bench.attempt(True)
        stop_daemon_unit(bench, socket, pid)

    def iteration(index: int) -> None:
        daemon_cycle(
            bench, index,
            warm_requests=DAEMON_WARM_REQUESTS,
            fleet_requests=DAEMON_FLEET_REQUESTS,
            cli_calls=DAEMON_CLI_CALLS,
        )

    measure(bench, iteration)


def measure(bench: Bench, iteration) -> None:
    """Closed loop: iterate for about ``--seconds`` (at least the minimum)."""
    start = time.perf_counter()
    iteration(0)
    first = time.perf_counter() - start
    total = max(MIN_ITERATIONS[bench.args.workload], int(bench.args.seconds / first))
    for index in range(1, total):
        iteration(index)
    bench.calibrate()


WORKLOADS = {
    "paper-quick": paper_quick,
    "fleet-10k": fleet_10k,
    "daemon-closed-loop": daemon_closed_loop,
}


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------
def _delta(after: dict, before: dict, kind: str, name: str, field: str | None = None) -> float:
    def read(status):
        metric = status["metrics"][kind].get(name)
        if metric is None:
            return 0.0
        return float(metric[field] if field else metric)

    return read(after) - read(before)


def traced_run(bench: Bench) -> tuple[dict[str, float], list[str]]:
    """Every layer once with spans, plus the workload's untraced unit."""
    import layers

    trace_dir = bench.run_dir / "trace"
    trace_dir.mkdir()
    metrics: dict[str, float] = {}

    for name, code in (("cli.interpreter_s", "pass"), ("cli.import_s", "import repro.experiments")):
        seconds = []
        for _ in range(3):
            elapsed, proc = bench.run([sys.executable, "-c", code])
            bench.attempt(proc.returncode == 0, f"traced: python -c {code!r} failed")
            seconds.append(elapsed)
        metrics[name] = median(seconds)

    # paper-quick unit: experiments, memctrl/dealloc, rng, puf pairs.
    pq_trace = str(trace_dir / "paper-quick.ndjson")
    pq = pq_iteration(bench, 0, trace=pq_trace)
    pq_records = _load(pq_trace)
    durations = pq["durations"]
    for eid in layers.TIMED_EXPERIMENTS:
        metrics[f"experiments.{eid}_s"] = durations[eid]
    metrics["experiments.other_s"] = sum(
        seconds for eid, seconds in durations.items() if eid not in layers.TIMED_EXPERIMENTS
    )
    metrics.update(layers.paper_quick_metrics(pq_records))

    # fleet-10k unit: puf evaluate, dram device memo, fleet.
    fleet_trace = str(trace_dir / "fleet-10k.ndjson")
    fleet = fleet_iteration(bench, trace=fleet_trace)
    fleet_records = _load(fleet_trace)
    metrics.update(layers.fleet_metrics(fleet_records))
    blocks = []
    for puf, numbers in fleet["classes"].items():
        slug = layers.PUF_SLUGS[puf]
        metrics[f"fleet.{slug}.cold_auths_per_s"] = fleet["requests"] / numbers["cold_s"]
        metrics[f"fleet.{slug}.warm_auths_per_s"] = fleet["requests"] / numbers["warm_s"]
        blocks += numbers["cold_blocks"] + numbers["warm_blocks"]
    metrics["fleet.blocks"] = len(blocks)
    metrics["fleet.block_p50_ms"] = 1e3 * median(blocks)
    metrics["fleet.block_p95_ms"] = 1e3 * percentile(blocks, 95)

    # daemon unit: engine scheduling, merge, cache; daemon CPU per request.
    daemon_trace = str(trace_dir / "daemon.ndjson")
    cycle = daemon_cycle(
        bench, 0,
        warm_requests=TRACED_WARM_REQUESTS,
        fleet_requests=TRACED_FLEET_REQUESTS,
        cli_calls=0,
        trace=daemon_trace,
    )
    before, cold, warm = cycle["status_before"], cycle["status_cold"], cycle["status_warm"]
    job_run_s = _delta(cold, before, "histograms", "engine_job_run_seconds", "sum")
    metrics["engine.jobs"] = _delta(cold, before, "counters", "engine_jobs_finished_total")
    metrics["engine.job_run_s"] = job_run_s
    metrics["engine.pool_busy_ratio"] = job_run_s / (cold["workers"] * cycle["cold_s"])
    metrics["engine.queue_wait_s"] = _delta(
        cold, before, "histograms", "engine_job_queue_wait_seconds", "sum"
    )
    metrics["engine.merges"] = _delta(cold, before, "counters", "engine_merges_total")
    metrics["engine.merge_s"] = _delta(cold, before, "histograms", "engine_merge_seconds", "sum")
    metrics["engine.cache.stores"] = _delta(cold, before, "counters", "cache_stores_total")
    lookups = sum(warm[key] - cold[key] for key in ("memory_hits", "disk_hits", "disk_misses"))
    metrics["engine.cache.lookups"] = lookups
    metrics["engine.cache.memory_hit_ratio"] = (
        (warm["memory_hits"] - cold["memory_hits"]) / lookups if lookups else 0.0
    )
    metrics["engine.pool_rebuilds"] = warm["pool_rebuilds"]
    metrics["engine.retry_attempts"] = _delta(warm, before, "counters", "engine_job_retries_total")
    metrics["daemon.warm_requests"] = len(cycle["warm_s"])
    metrics["daemon.cpu_ms_per_warm_request"] = 1e3 * cycle["warm_cpu_s"] / len(cycle["warm_s"])
    warm_records = [
        record["duration_s"]
        for record in cycle["dump"]["records"]
        if record["op"] == "submit" and record["warm"]
    ]
    bench.attempt(
        len(warm_records) == len(cycle["warm_s"]),
        f"traced: flight recorder kept {len(warm_records)} of {len(cycle['warm_s'])} warm requests",
    )
    metrics["daemon.warm_request_p95_ms"] = 1e3 * percentile(warm_records, 95)

    for layer, seconds in layers.self_times(pq_records + fleet_records + _load(daemon_trace)).items():
        metrics[f"{layer}.self_s"] = seconds

    # The same unit of the selected workload without spans.
    workload = bench.args.workload
    if workload == "paper-quick":
        untraced = pq_iteration(bench, 1)["wall_s"]
        traced = pq["wall_s"]
    elif workload == "fleet-10k":
        untraced = sum(c["cold_s"] + c["warm_s"] for c in fleet_iteration(bench)["classes"].values())
        traced = sum(c["cold_s"] + c["warm_s"] for c in fleet["classes"].values())
    else:
        plain = daemon_cycle(
            bench, 1,
            warm_requests=TRACED_WARM_REQUESTS,
            fleet_requests=TRACED_FLEET_REQUESTS,
            cli_calls=0,
        )
        untraced = plain["cold_s"] + sum(plain["warm_s"]) + sum(plain["fleet_s"])
        traced = cycle["cold_s"] + sum(cycle["warm_s"]) + sum(cycle["fleet_s"])
    metrics["trace_overhead"] = traced - untraced
    return metrics, [pq_trace, fleet_trace, daemon_trace]


def _load(path: str) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
#: What each JSON metric is called on each workload: (printed name, unit,
#: JSON metric).
DISPLAY = {
    "paper-quick": [
        ("setup_s", "s", "setup_s"),
        ("wall_s", "s", "cold_s"),
        ("cli_rerun_ms", "ms", "warm_ms"),
        ("puf_cli_ms", "ms", "puf_ms"),
        ("cli_list_s", "s", "cli_s"),
        ("peak_rss_mb", "MB", "peak_rss_mb"),
    ],
    "fleet-10k": [
        ("setup_s", "s", "setup_s"),
        ("cold_pass_s", "s", "cold_s"),
        ("warm_pass_ms", "ms", "warm_ms"),
        ("cold_block_ms", "ms", "puf_ms"),
        ("fleet_cli_s", "s", "cli_s"),
        ("peak_rss_mb", "MB", "peak_rss_mb"),
    ],
    "daemon-closed-loop": [
        ("setup_s", "s", "setup_s"),
        ("cold_submit_s", "s", "cold_s"),
        ("warm_request_ms", "ms", "warm_ms"),
        ("fleet_request_ms", "ms", "puf_ms"),
        ("cli_request_s", "s", "cli_s"),
        ("peak_rss_mb", "MB", "peak_rss_mb"),
    ],
}


def report(bench: Bench) -> dict[str, dict]:
    workload = bench.args.workload
    scale = bench.speed_scale()
    print(
        f"# machine speed: yardstick {1e3 * bench.speed():.4g} ms (mean of the fastest "
        f"{1 - YARDSTICK_DROPPED_SHARE:.0%} of {len(bench.yardstick)} runs); times scaled "
        f"by {scale:.4g} to the {1e3 * YARDSTICK_REFERENCE_S:g} ms reference"
    )
    metrics = {}
    for name, unit in bench.end_to_end.items():
        value = percentile(bench.samples[name], PERCENTILE.get((workload, name), 50))
        metrics[name] = {"value": value if unit == "MB" else value * scale, "unit": unit}
    for label, unit, name in DISPLAY[workload]:
        raw = bench.samples[name]
        q = PERCENTILE.get((workload, name), 50)
        tail = ""
        if q != 50:
            tail += f", raw median {median(raw):.6g}"
        if unit == "ms" or name in ("cli_s", "cold_s"):
            tail += f", raw max {max(raw):.6g}"
        print(
            f"{workload}/{label} = {metrics[name]['value']:.6g} {unit}  "
            f"[{name}; raw p{q} {percentile(raw, q):.6g} of {len(raw)}{tail}]"
        )
    if workload == "fleet-10k":
        from repro.fleet import FLEET_PUF_FACTORIES

        per_pass = len(FLEET_PUF_FACTORIES) * probe.FLEET_REQUESTS
        cold_s, warm_s = metrics["cold_s"]["value"], metrics["warm_ms"]["value"] / 1e3
        print(f"{workload}/cold_auths_per_s = {per_pass / cold_s:.6g} 1/s")
        print(f"{workload}/warm_auths_per_s = {per_pass / warm_s:.6g} 1/s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="also write raw samples and the machine fingerprint as JSON")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    become_subreaper()
    # A terminated run still stops its daemons (``finally`` below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    info = {**machine(), "workload": args.workload, "seed": args.seed, "trace": args.trace}
    print(
        f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"nproc={info['nproc']} cpu={info['cpu']!r} python={info['python']} "
        f"numpy={info['numpy']} (paper-quick runs the paper's fixed configs; "
        f"the seed drives fleet-10k and the daemon's fleet requests)"
    )
    bench = Bench(args)
    try:
        if args.trace:
            layer_metrics, trace_files = traced_run(bench)
        else:
            WORKLOADS[args.workload](bench)
    except (BenchError, subprocess.SubprocessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        bench.close()
    if args.trace:
        units = declared_units("per_layer")
        if set(layer_metrics) != set(units):
            print(f"perfbench: traced metrics differ from {BENCHMARK.name}: "
                  f"{sorted(set(layer_metrics) ^ set(units))}", file=sys.stderr)
            return 1
        metrics = {}
        for name, unit in units.items():
            metrics[name] = {"value": layer_metrics[name], "unit": unit}
            print(f"{args.workload}/{name} = {layer_metrics[name]:.6g} {unit}")
        print(f"# traces (NDJSON): {', '.join(trace_files)}")
    else:
        metrics = report(bench)
    print(
        f"{args.workload}/error_rate = {bench.failed / bench.attempted:.6g} "
        f"({bench.failed} failed of {bench.attempted} attempted)"
    )
    for problem in bench.problems:
        print(f"# failed: {problem}")
    if args.out:
        Path(args.out).write_text(
            json.dumps(
                {**info, "samples": bench.samples, "metrics": metrics,
                 "yardstick": bench.yardstick,
                 "attempted": bench.attempted, "failed": bench.failed},
                indent=1,
            )
        )
    print(
        json.dumps(
            {
                "correct": bench.failed == 0,
                "attempted": bench.attempted,
                "failed": bench.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
