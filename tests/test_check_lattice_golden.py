"""Byte-identity of ``latticeflow check-lattice`` against a recorded golden file.

The pentagon, the diamond, every gallery lattice, explicit copies of
products of 20 to 48 elements of both verdicts, and corrupted relation
tables (one with more violations than the report keeps) run in JSON and
in text; stdout, stderr and the exit code must match
``golden/check_lattice_cli.json`` exactly. Gallery lattices of more than
64 elements (231 and 512) run under ``--max-size 64``, which pins the
skipped axiom check and the structural certificate; their exhaustive
scans take minutes. The products also run once under ``--max-size 30``.
The lattice files themselves are stored in the golden file, so a change
to the gallery or to the helpers below does not move the pins.

Regenerate only when an output change is intended, and say so where the
change is recorded:

    PYTHONPATH=src python tests/test_check_lattice_golden.py
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

from latticeflow.cli import run_command

GOLDEN = Path(__file__).with_name("golden") / "check_lattice_cli.json"
LARGE = 64


def flag_sets(name: str, size: int):
    cap = ["--max-size", str(LARGE)] if size > LARGE else []
    for fmt in ("json", "text"):
        yield [*cap, "--format", fmt]
    if name.startswith("product"):
        yield ["--max-size", "30", "--format", "text"]


def run_check_lattice(spec: dict, flags: list[str], tmp_dir: Path) -> dict:
    path = tmp_dir / "lattice.json"
    path.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        _, code = run_command(["check-lattice", str(path), *flags])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def golden_cases():
    golden = json.loads(GOLDEN.read_text())
    for run in golden["runs"]:
        case_id = f"{run['lattice']}:{' '.join(run['flags'])}"
        yield pytest.param(golden["lattices"][run["lattice"]], run, id=case_id)


@pytest.mark.parametrize("spec, recorded", golden_cases())
def test_check_lattice_output_is_byte_identical(spec, recorded, tmp_path):
    got = run_check_lattice(spec, recorded["flags"], tmp_path)
    assert got == {k: recorded[k] for k in ("exit", "stdout", "stderr")}


def product_spec(factors, rng: random.Random) -> dict:
    """An explicit ``covers`` spec of a product, its elements renamed in a
    shuffled order so that element order is not the product order."""
    from latticeflow.lattices import ProductLattice

    lat = ProductLattice(factors)
    members = list(lat.element_list())
    rng.shuffle(members)
    leq = {(a, b) for a in members for b in members if lat.leq(a, b)}
    names = {x: f"e{i}" for i, x in enumerate(members)}
    covers = [
        [names[a], names[b]]
        for a, b in sorted(leq, key=lambda p: (members.index(p[0]), members.index(p[1])))
        if a != b and not any(c not in (a, b) and (a, c) in leq and (c, b) in leq for c in members)
    ]
    return {"kind": "explicit", "elements": [names[x] for x in members], "covers": covers}


def corrupted_spec(rng: random.Random, size: int, density: float) -> dict:
    """A ``relation`` spec used verbatim: a random relation, not an order."""
    elements = [f"x{i}" for i in range(size)]
    relation = [[a, b] for a in elements for b in elements if rng.random() < density]
    return {"kind": "explicit", "elements": elements, "relation": relation}


def pinned_lattices() -> dict[str, dict]:
    from latticeflow.gallery import gallery_names, gallery_source
    from latticeflow.lattices import ChainLattice, DiamondLattice, PentagonLattice

    lattices = {"pentagon": {"kind": "pentagon"}, "diamond": {"kind": "diamond"}}
    for name in gallery_names():
        lattices[f"gallery-{name}"] = json.loads(gallery_source(name))
    rng = random.Random(2024)
    for label, factors in (
        ("pentagon-x-chain4", [PentagonLattice(), ChainLattice(4)]),
        ("chain4-x-chain5", [ChainLattice(4), ChainLattice(5)]),
        ("chain2-x-chain3-x-chain4", [ChainLattice(2), ChainLattice(3), ChainLattice(4)]),
        ("diamond-x-chain2-x-chain3", [DiamondLattice(), ChainLattice(2), ChainLattice(3)]),
        ("pentagon-x-chain2-x-chain4", [PentagonLattice(), ChainLattice(2), ChainLattice(4)]),
        ("diamond-x-chain3-x-chain3", [DiamondLattice(), ChainLattice(3), ChainLattice(3)]),
        ("chain6-x-chain8", [ChainLattice(6), ChainLattice(8)]),
    ):
        lattices[f"product-{label}"] = product_spec(factors, rng)
    for i, (size, density) in enumerate(((3, 0.6), (5, 0.5), (6, 0.7), (8, 0.4), (8, 0.9))):
        lattices[f"corrupted-{i}"] = corrupted_spec(rng, size, density)
    # reflexive pairs plus a chain with one implied pair dropped
    lattices["corrupted-intransitive"] = {
        "kind": "explicit",
        "elements": ["0", "a", "b"],
        "relation": [["0", "0"], ["a", "a"], ["b", "b"], ["0", "a"], ["a", "b"]],
    }
    # no pairs at all: far more than the 25 violations a report keeps
    lattices["corrupted-empty-relation"] = {
        "kind": "explicit",
        "elements": [f"y{i}" for i in range(8)],
        "relation": [],
    }
    return lattices


def write_golden() -> int:
    from latticeflow.instances import load_lattice

    lattices = pinned_lattices()
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in lattices.items():
            path = Path(tmp) / "size.json"
            path.write_text(json.dumps(spec))
            for flags in flag_sets(name, load_lattice(str(path)).size()):
                runs.append({"lattice": name, "flags": flags, **run_check_lattice(spec, flags, Path(tmp))})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"lattices": lattices, "runs": runs}, indent=1) + "\n")
    return len(runs)


if __name__ == "__main__":
    print(f"wrote {write_golden()} runs to {GOLDEN}")
