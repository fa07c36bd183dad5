"""Byte-identity of the CLI surface against a recorded golden file.

``latticeflow --help``, every subcommand's ``--help`` (at ``COLUMNS=80``)
and a set of usage errors must give the stdout, stderr and exit code
recorded in ``golden/cli_usage.json``. A second test runs several
commands in one process and checks that each prints what it prints in a
process of its own, so no option carries over from one call to the next.

Regenerate only when an output change is intended, and say so where the
change is recorded:

    PYTHONPATH=src python tests/test_cli_usage_golden.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latticeflow.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli_usage.json"
SRC = Path(__file__).resolve().parent.parent / "src"
NETWORK_FILE = SRC / "latticeflow" / "data" / "supply_chain.json"

COMMANDS = ("check-lattice", "bottleneck", "maxflow", "dilworth", "gallery", "random-check")
USAGE_ERRORS = (
    [],
    ["frobnicate"],
    ["bottleneck"],
    ["check-lattice", "--format", "json"],
    ["bottleneck", "net.json", "--mode", "loose"],
    ["maxflow", "net.json", "--mode", "loose"],
    ["dilworth", "poset.json", "--method", "sideways"],
    ["gallery", "--format", "xml"],
    ["bottleneck", "net.json", "--oracle", "--dp"],
    ["bottleneck", "net.json", "--max-paths", "-1"],
    ["bottleneck", "net.json", "--max-vertices", "-2"],
    ["check-lattice", "lattice.json", "--max-size", "-1"],
    ["random-check", "--instances", "-3"],
    ["random-check", "--instances", "many"],
    ["random-check", "--max-vertices", "1"],
)


def argv_cases():
    yield ["--help"]
    for command in COMMANDS:
        yield [command, "--help"]
    yield from USAGE_ERRORS


def run_main(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def golden_cases():
    for run in json.loads(GOLDEN.read_text())["runs"]:
        yield pytest.param(run, id=" ".join(run["argv"]) or "(no arguments)")


@pytest.mark.parametrize("recorded", golden_cases())
def test_cli_usage_is_byte_identical(recorded, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = run_main(recorded["argv"])
    assert got == {k: recorded[k] for k in ("exit", "stdout", "stderr")}


def test_calls_in_one_process_match_calls_alone():
    f = str(NETWORK_FILE)
    sequence = [
        ["bottleneck", f, "--oracle", "--witness"],
        ["bottleneck", f],
        ["bottleneck", f, "--oracle", "--dp"],
        ["maxflow", f, "--mode", "lenient"],
        ["bottleneck", f, "--dp"],
    ]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    script = "import sys; from latticeflow.cli import main; sys.exit(main(sys.argv[1:]))"
    alone = []
    for argv in sequence:
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, check=False
        )
        alone.append({"exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr})
    assert [run_main(argv) for argv in sequence] == alone
    assert "optimal path" in alone[0]["stdout"] and "optimal path" not in alone[1]["stdout"]
    assert alone[2]["exit"] == 1 and "not allowed with argument" in alone[2]["stderr"]


def write_golden() -> int:
    os.environ["COLUMNS"] = "80"
    runs = [{"argv": argv, **run_main(argv)} for argv in argv_cases()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    return len(runs)


if __name__ == "__main__":
    print(f"wrote {write_golden()} runs to {GOLDEN}")
