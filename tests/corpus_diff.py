"""Byte-identity check of the CLI between two checkouts.

    python3 tests/corpus_diff.py PARENT CHANGE

PARENT and CHANGE are checkouts of the repository. The seed-1 ``fuzz``,
``poset`` and ``explicit`` benchmark corpora are written once, into a
temporary directory, by PARENT's ``perfbench.corpus.BUILDERS`` and
program; every ``maxflow`` call also gets a ``--mode lenient`` variant,
and every ``dilworth`` call a ``--format text`` variant, a ``--method
direct`` one without the correspondence check and a ``--method network``
one with it. Error paths are called too: copies of the first few
``fuzz`` and ``poset`` files with one field broken each, and usage
errors (no argument, an unknown command or option, ``-h`` on its own
and after each command).
Each checkout then runs every call in-process through
``latticeflow.cli.run_command``, one subprocess per checkout. Each call
whose exit code, stdout or stderr differ is printed; the exit code is 1
if any does, else 0. Standard library only; neither checkout is written
to (no bytecode cache either). pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 1
WORKLOADS = ("fuzz", "poset", "explicit")
COMMANDS = ("check-lattice", "bottleneck", "maxflow", "dilworth", "gallery", "random-check")
# broken copies are made of this many files of each of the two workloads
BROKEN_FILES = 3
NETWORK_FAULTS = ("vertex-not-a-name", "edge-a-list", "edge-without-capacity", "capacity-not-an-element")
POSET_FAULTS = ("cover-of-an-unknown-element", "weight-not-an-element")


def _import_from(tree: Path, *extra: Path):
    """``latticeflow.cli`` from ``tree``'s sources, and nowhere else."""
    sys.path[:0] = [str(tree / "src"), *map(str, extra)]
    import latticeflow.cli as cli

    if Path(cli.__file__).resolve().parent != (tree / "src" / "latticeflow").resolve():
        raise SystemExit(f"error: imported latticeflow from {cli.__file__}, not from {tree}")
    return cli


def _variants(argv: list[str]) -> list[list[str]]:
    """The extra calls made of one corpus call; a repeated option's last value wins."""
    if argv[0] == "maxflow":
        return [[*argv, "--mode", "lenient"]]
    if argv[0] == "dilworth":
        alone = [a for a in argv if a != "--correspondences"]
        return [[*argv, "--format", "text"], [*alone, "--method", "direct"], [*argv, "--method", "network"]]
    return []


def _broken(doc: dict, fault: str) -> dict:
    """A copy of an instance document with one field broken. Edge faults
    go to the last edge, so that the error names an index past the first."""
    doc = json.loads(json.dumps(doc))
    if fault == "vertex-not-a-name":
        doc["vertices"][-1] = 7
    elif fault == "edge-a-list":
        edge = doc["edges"][-1]
        doc["edges"][-1] = [edge["from"], edge["to"], edge["capacity"]]
    elif fault == "edge-without-capacity":
        del doc["edges"][-1]["capacity"]
    elif fault == "capacity-not-an-element":
        doc["edges"][-1]["capacity"] = "not-an-element"
    elif fault == "cover-of-an-unknown-element":
        doc["covers"].append([doc["elements"][-1], "not-an-element"])
    else:  # weight-not-an-element
        doc["weights"][doc["elements"][-1]] = "not-an-element"
    return doc


def _error_calls(units: dict, workdir: Path) -> list[list[str]]:
    """Each corpus call of the first fuzz and poset files on their broken
    copies, then the usage errors."""
    calls = []
    for workload, faults in (("fuzz", NETWORK_FAULTS), ("poset", POSET_FAULTS)):
        for unit in units[workload][:BROKEN_FILES]:
            given = Path(unit.argvs[0][1])
            doc = json.loads(given.read_text())
            for fault in faults:
                broken = workdir / f"{given.stem}-{fault}.json"
                broken.write_text(json.dumps(_broken(doc, fault)))
                calls += [[argv[0], str(broken), *argv[2:]] for argv in unit.argvs]
    example = units["fuzz"][0].argvs[0][1]
    calls += [[], ["frobnicate"], ["-h"], ["bottleneck", example, "--frobnicate"]]
    return calls + [[command, "-h"] for command in COMMANDS]


def build(tree: Path, workdir: Path) -> list[list[str]]:
    """Every call of the three corpora, then the maxflow and dilworth
    variants, then the error calls."""
    _import_from(tree, tree)
    from perfbench.corpus import BUILDERS

    units = {w: BUILDERS[w](SEED, workdir) for w in WORKLOADS}
    calls = [argv for w in WORKLOADS for unit in units[w] for argv in unit.argvs]
    return calls + [variant for argv in calls for variant in _variants(argv)] + _error_calls(units, workdir)


def run(tree: Path, calls: list[list[str]]) -> list[list]:
    """(exit code, stdout, stderr) of each call; an exception is reported
    by its type and message, which name no path of the checkout, and the
    exit of ``-h`` by its code."""
    cli = _import_from(tree)
    outputs = []
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run_command(argv)[1]
            except SystemExit as exc:
                code = f"SystemExit {exc.code}"
            except Exception as exc:
                code = "exception"
                err.write(f"{type(exc).__name__}: {exc}\n")
        outputs.append([code, out.getvalue(), err.getvalue()])
    return outputs


def _worker(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    if done.returncode != 0:
        raise SystemExit(f"error: worker {args[0]} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _show(label: str, a: str, b: str) -> list[str]:
    lines = difflib.unified_diff(a.splitlines(), b.splitlines(), "parent", "change", lineterm="", n=1)
    return [f"  {label}:", *(f"    {line}" for line in list(lines)[:40])]


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[1] in ("build", "run"):  # worker
        tree, arg = Path(argv[2]), Path(argv[3])
        if argv[1] == "build":
            result = build(tree, arg)
        else:
            result = run(tree, json.loads(arg.read_text()))
        json.dump(result, sys.stdout)
        return 0
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in argv[1:])
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        calls = _worker("build", str(parent), str(work))
        calls_file = work / "calls.json"
        calls_file.write_text(json.dumps(calls))
        before = _worker("run", str(parent), str(calls_file))
        after = _worker("run", str(change), str(calls_file))
        differ = 0
        for call, a, b in zip(calls, before, after):
            if a == b:
                continue
            differ += 1
            print(" ".join(Path(x).name if x.startswith(tmp) else x for x in call))
            if a[0] != b[0]:
                print(f"  exit code: {a[0]} -> {b[0]}")
            for label, i in (("stdout", 1), ("stderr", 2)):
                if a[i] != b[i]:
                    print("\n".join(_show(label, a[i], b[i])))
    print(f"{len(calls)} calls, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
