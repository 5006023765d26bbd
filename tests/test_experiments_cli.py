"""Tests for the command-line reproduction report generator."""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.experiments.__main__ import build_parser, main
from repro.experiments.registry import EXPERIMENTS


class TestCLI:
    def test_list_option(self, capsys):
        assert main(["--list"]) == 0
        listed = capsys.readouterr().out.split()
        assert set(listed) == set(EXPERIMENTS)

    def test_run_single_experiment(self, capsys):
        assert main(["table2"]) == 0
        output = capsys.readouterr().out
        assert "CODIC-sig" in output
        assert "Latency (ns)" in output

    def test_run_multiple_experiments(self, capsys):
        assert main(["table4", "table6"]) == 0
        output = capsys.readouterr().out
        assert "PreLatPUF" in output
        assert "ChaCha-8" in output

    def test_unknown_experiment_is_an_error(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.experiments == []
        assert not args.full
        assert not args.list_experiments


#: What a CLI call that runs no experiment itself must not import.
HEAVY_MODULES = ("numpy",) + tuple(
    f"repro.experiments.{name}"
    for name in (
        "substrate_tables",
        "puf_experiments",
        "coldboot_experiments",
        "dealloc_experiments",
        "fleet_experiments",
    )
)

#: ``python -m repro.experiments ARGS`` that reports, as its last stderr line,
#: its exit code and every module it loaded.
_FRESH_CLI = """
import json, runpy, sys
sys.argv = ["repro.experiments", *sys.argv[1:]]
code = 0
try:
    runpy.run_module("repro.experiments", run_name="__main__", alter_sys=True)
except SystemExit as exit:
    code = exit.code
sys.stdout.flush()
print(json.dumps({"code": code, "modules": sorted(sys.modules)}), file=sys.stderr)
"""


def _fresh_cli(args: list[str], cwd: Path, socket_path: Path) -> tuple[str, str]:
    """Run the CLI in a fresh interpreter; returns ``(stdout, stderr)``.

    Asserts a zero exit and that none of :data:`HEAVY_MODULES` was loaded.
    """
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, REPRO_DAEMON_SOCKET=str(socket_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_CLI, *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["code"] == 0, proc.stderr
    loaded = [name for name in HEAVY_MODULES if name in report["modules"]]
    assert not loaded, f"{args} imported {loaded}"
    return proc.stdout, proc.stderr


class TestFrontDoor:
    """Listing, cache-served and daemon-served calls import only what they run."""

    def test_list(self, tmp_path, capsys):
        assert main(["--list"]) == 0
        stdout, _ = _fresh_cli(["--list"], tmp_path, tmp_path / "none.sock")
        assert stdout == capsys.readouterr().out

    def test_cached_json_rerun(self, tmp_path, capsys):
        args = ["table1", "fig7", "fleet-roc", "--json", "--no-daemon",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        inline = capsys.readouterr().out
        stdout, stderr = _fresh_cli(args, tmp_path, tmp_path / "none.sock")
        assert stdout == inline
        assert "100% hit rate" in stderr

    @pytest.mark.skipif(not hasattr(socket, "AF_UNIX"), reason="needs AF_UNIX")
    def test_daemon_routed_json(self, tmp_path, capsys):
        from repro.engine import DaemonClient, ExperimentDaemon

        assert main(["table1", "--json", "--no-daemon", "--no-cache"]) == 0
        inline = capsys.readouterr().out
        socket_path = tmp_path / "d.sock"
        server = ExperimentDaemon(socket_path, cache_dir=tmp_path / "cache", workers=1)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        client = DaemonClient(socket_path)
        try:
            deadline = time.time() + 30.0
            while not client.is_running():
                assert time.time() < deadline, "daemon did not come up"
                time.sleep(0.02)
            stdout, stderr = _fresh_cli(["--json", "table1"], tmp_path, socket_path)
        finally:
            client.shutdown()
            thread.join(timeout=15.0)
        assert "daemon: routing via" in stderr
        assert stdout == inline
