"""Replayable mutation checks: planted faults that named tests must catch.

    python3 tests/mutants.py [--only ID]

Each entry of ``MUTANTS`` names a file under ``src/``, an exact ``old``
text that occurs once in it, the ``new`` text that replaces it, and the
pytest node ids that must go red on the result. For each entry the
checkout is copied into a temporary directory (without ``.git`` and
caches), the substitution is applied there, and every node id runs in
its own ``python -m pytest`` subprocess from the copy's root. A node id
is red only when pytest exits 1 (tests failed); a collection error or
any other exit code does not count. Survivors, node ids that stayed
green or did not run, are listed, and the exit code is 1 if any
survive, else 0. The checkout itself is never written to.
``tests/test_mutants.py`` checks, in tier-1, that every ``old`` text
still occurs exactly once. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str  # relative to the checkout's root, under src/
    old: str
    new: str
    red: tuple[str, ...]  # pytest node ids that must fail


MUTANTS = (
    Mutant(
        id="five-candidates-no-comparable-pair",
        file="src/latticeflow/certify.py",
        old=(
            "            if bxy & outside or two_x >> y & 1:\n"
            "                continue  # no set holding x and y is closed in ``within``, or x, y hold two pairs\n"
            "            if one_x >> y & 1:  # z comparable with neither\n"
            "                keep = ~(one_x | one[q])\n"
            "            else:  # z comparable one way with one of them at most\n"
            "                keep = ~(two_x | two[q] | one_x & one[q])\n"
        ),
        new=(
            "            if bxy & outside or one_x >> y & 1:\n"
            "                continue\n"
            "            keep = ~(one_x | one[q])\n"
        ),
        red=(
            "tests/test_certify.py::TestForbiddenScanContract::test_lattice_draws",
            "tests/test_certify.py::TestForbiddenScanContract::test_corrupted_tables",
            "tests/test_certify.py::TestForbiddenScanContract::test_operations_that_do_not_commute",
        ),
    ),
    Mutant(
        id="verdict-without-lattice-test",
        file="src/latticeflow/certify.py",
        old=(
            "        elif _is_lattice(lattice):\n"
            "            verdict = _join_prime_test(lattice.tables())\n"
            "        else:\n"
            "            verdict = _first_distributive_failure(lattice) is None\n"
        ),
        new=(
            "        else:\n"
            "            verdict = _join_prime_test(lattice.tables())\n"
        ),
        red=("tests/test_certify.py::TestVerdictWithoutWitness::test_is_the_certificate_verdict_on_fresh_lattices",),
    ),
    Mutant(
        id="verdict-read-before-the-cap",
        file="src/latticeflow/certify.py",
        old=(
            "    if not structural:\n"
            "        _guard_size(lattice, max_size)\n"
            "    verdict = getattr(lattice, \"_distributive_verdict\", None)\n"
            "    if verdict is None:\n"
        ),
        new=(
            "    verdict = getattr(lattice, \"_distributive_verdict\", None)\n"
            "    if verdict is None:\n"
            "        if not structural:\n"
            "            _guard_size(lattice, max_size)\n"
        ),
        red=("tests/test_certify.py::TestVerdictWithoutWitness::test_cap_is_checked_before_the_kept_verdict",),
    ),
    Mutant(
        id="verdict-through-the-certificate",
        file="src/latticeflow/certify.py",
        old="        return _distributive(lattice)\n",
        new="        return check_distributive(lattice).distributive\n",
        red=(
            "tests/test_certify.py::TestVerdictWithoutWitness::test_network_commands_build_no_witness[pentagon]",
            "tests/test_certify.py::TestVerdictWithoutWitness::test_network_commands_build_no_witness[diamond]",
        ),
    ),
)

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".bench_*")


def apply(mutant: Mutant, root: Path) -> None:
    """Substitute ``mutant.new`` for its ``old`` text in the tree at ``root``."""
    path = root / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.id}: the old text occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def survivors(mutant: Mutant) -> list[str]:
    """The node ids that do not go red on ``mutant``, applied to a copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        apply(mutant, copy)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        left = []
        for node in mutant.red:
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", node],
                cwd=copy, env=env, capture_output=True, text=True,
            )
            if run.returncode != 1:
                left.append(f"{node} (exit {run.returncode})")
        return left


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", metavar="ID", help="run one entry")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.only in (None, m.id)]
    if not chosen:
        parser.error(f"no mutant {args.only!r}")
    failed = False
    for mutant in chosen:
        left = survivors(mutant)
        print(f"{mutant.id}: {'red' if not left else 'SURVIVED'} ({len(mutant.red) - len(left)}/{len(mutant.red)} red)")
        for node in left:
            print(f"  survivor: {node}")
        failed |= bool(left)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
