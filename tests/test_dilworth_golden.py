"""Byte-identity of ``latticeflow dilworth`` against a recorded golden file.

Every combination of ``--method direct|network|both``, with and without
``--correspondences``, in JSON and in text, runs on the gallery posets
and on the pinned small posets of ``test_dilworth.py``; stdout, stderr
and the exit code must match ``golden/dilworth_cli.json`` exactly. The
instances themselves are stored in the golden file, so a change to the
gallery or to the test helpers does not move the pins.

Regenerate only when an output change is intended, and say so where the
change is recorded:

    PYTHONPATH=src python tests/test_dilworth_golden.py
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from latticeflow.cli import run_command

GOLDEN = Path(__file__).with_name("golden") / "dilworth_cli.json"


def flag_sets():
    for method in ("direct", "network", "both"):
        for correspondences in (False, True):
            for fmt in ("json", "text"):
                extra = ["--correspondences"] if correspondences else []
                yield ["--method", method, *extra, "--format", fmt]


def run_dilworth(instance: dict, flags: list[str], tmp_dir: Path) -> dict:
    path = tmp_dir / "instance.json"
    path.write_text(json.dumps(instance))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        _, code = run_command(["dilworth", str(path), *flags])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def golden_cases():
    golden = json.loads(GOLDEN.read_text())
    for run in golden["runs"]:
        case_id = f"{run['instance']}:{' '.join(run['flags'])}"
        yield pytest.param(golden["instances"][run["instance"]], run, id=case_id)


@pytest.mark.parametrize("instance, recorded", golden_cases())
def test_dilworth_output_is_byte_identical(instance, recorded, tmp_path):
    got = run_dilworth(instance, recorded["flags"], tmp_path)
    assert got == {k: recorded[k] for k in ("exit", "stdout", "stderr")}


def pinned_instances() -> dict[str, dict]:
    """The gallery posets and the small posets the dilworth tests pin."""
    from latticeflow.gallery import gallery_instance, gallery_names
    from latticeflow.instances import Instance, instance_to_dict
    from test_dilworth import (
        antichain_poset,
        complete_bipartite_poset,
        n_poset,
        total_order,
        transversal_gap_poset,
    )

    instances = {}
    for name in gallery_names():
        inst = gallery_instance(name)
        if inst.poset is not None:
            instances[name] = instance_to_dict(inst)
    for name, poset in (
        ("n-poset", n_poset()),
        ("transversal-gap", transversal_gap_poset()),
        ("bipartite-2+2", complete_bipartite_poset()),
        ("antichain-3", antichain_poset(3)),
        ("total-order-4", total_order([3, 1, 4, 2])),
    ):
        instances[name] = instance_to_dict(Instance(poset.lattice, name, poset=poset))
    return instances


def write_golden() -> int:
    instances = pinned_instances()
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, instance in instances.items():
            for flags in flag_sets():
                runs.append({"instance": name, "flags": flags, **run_dilworth(instance, flags, Path(tmp))})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"instances": instances, "runs": runs}, indent=1) + "\n")
    return len(runs)


if __name__ == "__main__":
    print(f"wrote {write_golden()} runs to {GOLDEN}")
