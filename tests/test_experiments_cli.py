"""Tests for the command-line reproduction report generator."""

from __future__ import annotations

import importlib
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


def _fresh_env(socket_path: Path) -> dict[str, str]:
    """The environment of a fresh interpreter running this checkout."""
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, REPRO_DAEMON_SOCKET=str(socket_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    return env


def _fresh_cli(
    args: list[str], cwd: Path, socket_path: Path, absent: tuple[str, ...] = ()
) -> tuple[str, str]:
    """Run the CLI in a fresh interpreter; returns ``(stdout, stderr)``.

    Asserts a zero exit and that none of :data:`HEAVY_MODULES`, nor any
    ``absent`` module or submodule of one, was loaded.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_CLI, *args],
        cwd=cwd, env=_fresh_env(socket_path), capture_output=True, text=True, timeout=120,
    )
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    assert report["code"] == 0, proc.stderr
    loaded = [name for name in HEAVY_MODULES if name in report["modules"]]
    loaded += [
        name
        for name in report["modules"]
        if any(name == prefix or name.startswith(prefix + ".") for prefix in absent)
    ]
    assert not loaded, f"{args} imported {loaded}"
    return proc.stdout, proc.stderr


class TestFrontDoor:
    """Listing, cache-served and daemon-served calls import only what they run."""

    def test_list(self, tmp_path, capsys):
        assert main(["--list"]) == 0
        stdout, _ = _fresh_cli(
            ["--list"], tmp_path, tmp_path / "none.sock", absent=("repro.engine",)
        )
        assert stdout == capsys.readouterr().out

    def test_cached_json_rerun(self, tmp_path, capsys):
        args = ["table1", "fig7", "fleet-roc", "--json", "--no-daemon",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        inline = capsys.readouterr().out
        stdout, stderr = _fresh_cli(
            args, tmp_path, tmp_path / "none.sock",
            absent=("repro.engine.daemon", "repro.engine.client", "socketserver"),
        )
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
            stdout, stderr = _fresh_cli(
                ["--json", "table1"], tmp_path, socket_path,
                absent=(
                    "repro.engine.daemon", "repro.engine.executor", "repro.engine.sharding",
                    "concurrent.futures", "socketserver",
                ),
            )
        finally:
            client.shutdown()
            thread.join(timeout=15.0)
        assert "daemon: routing via" in stderr
        assert stdout == inline

    def test_client_loads_no_other_repro_module(self, tmp_path):
        code = (
            "import json, sys\n"
            "import repro.engine.client\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=_fresh_env(tmp_path / "none.sock"),
            capture_output=True, text=True, timeout=60, check=True,
        )
        assert json.loads(proc.stdout) == ["repro", "repro.engine", "repro.engine.client"]

    def test_engine_exports_resolve_to_their_defining_submodules(self):
        import repro.engine as engine

        assert sorted(engine.__all__) == sorted(engine._EXPORTS)
        for name in engine.__all__:
            module = importlib.import_module(engine._EXPORTS[name])
            value = getattr(engine, name)
            assert value is getattr(module, name), name
            if isinstance(value, type) or callable(value):
                assert value.__module__ == module.__name__, name
        with pytest.raises(AttributeError, match="no_such_name"):
            engine.no_such_name  # noqa: B018 - the lookup is the test
