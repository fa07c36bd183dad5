"""Byte-identity of ``latticeflow bottleneck`` and ``maxflow`` against a
recorded golden file.

``bottleneck`` runs in strict and lenient mode with ``--oracle``,
``--dp`` and the automatic path side, in JSON and in text with
``--witness``; ``maxflow`` runs in strict and lenient mode, in JSON and
in text. The networks are the gallery networks, the pentagon and diamond
``counterexample_for`` networks, layered networks of more than 16 edges,
a network with dead ends, and one with no source-to-sink path. stdout,
stderr and the exit code must match ``golden/bottleneck_cli.json``
exactly. The instances are stored in the golden file, so a change to the
gallery or to the generators does not move the pins.

Regenerate only when an output change is intended, and say so where the
change is recorded:

    PYTHONPATH=src python tests/test_bottleneck_golden.py
"""

import contextlib
import io
import json
import random
import tempfile
from pathlib import Path

import pytest

from latticeflow.cli import run_command

GOLDEN = Path(__file__).with_name("golden") / "bottleneck_cli.json"


def flag_sets():
    for mode in ("strict", "lenient"):
        for path_side in ([], ["--oracle"], ["--dp"]):
            for fmt in (["--format", "json"], ["--format", "text", "--witness"]):
                yield ["bottleneck", "--mode", mode, *path_side, *fmt]
        for fmt in ("json", "text"):
            yield ["maxflow", "--mode", mode, "--format", fmt]


def run_cli(instance: dict, argv: list[str], tmp_dir: Path) -> dict:
    path = tmp_dir / "instance.json"
    path.write_text(json.dumps(instance))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        _, code = run_command([argv[0], str(path), *argv[1:]])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def golden_cases():
    golden = json.loads(GOLDEN.read_text())
    for run in golden["runs"]:
        case_id = f"{run['instance']}:{' '.join(run['argv'])}"
        yield pytest.param(golden["instances"][run["instance"]], run, id=case_id)


@pytest.mark.parametrize("instance, recorded", golden_cases())
def test_bottleneck_output_is_byte_identical(instance, recorded, tmp_path):
    got = run_cli(instance, recorded["argv"], tmp_path)
    assert got == {k: recorded[k] for k in ("exit", "stdout", "stderr")}


def pinned_instances() -> dict[str, dict]:
    """The gallery networks, the two counterexample networks, and seeded
    networks that reach past one 8-edge table and repeat capacities."""
    from latticeflow import (
        CapacityAssignment,
        ChainLattice,
        DiamondLattice,
        FlowNetwork,
        PentagonLattice,
        PowersetLattice,
        counterexample_for,
    )
    from latticeflow.certify import is_distributive
    from latticeflow.gallery import gallery_instance, gallery_names
    from latticeflow.generators import (
        add_dead_ends,
        random_capacities,
        random_explicit_lattice,
        random_network,
    )
    from latticeflow.instances import Instance, instance_to_dict
    from test_network import layered_network

    def entry(name, net, cap):
        return instance_to_dict(Instance(cap.lattice, name, network=net, capacities=cap))

    instances = {}
    for name in gallery_names():
        inst = gallery_instance(name)
        if inst.network is not None:
            instances[name] = instance_to_dict(inst)
    for name, lattice in (("pentagon-counterexample", PentagonLattice()), ("diamond-counterexample", DiamondLattice())):
        instances[name] = entry(name, *counterexample_for(lattice))

    rng = random.Random(304)
    net = layered_network(3, 4)
    powerset = PowersetLattice("abcdef")
    caps = {e: frozenset(rng.sample("abcdef", 3)) for e in net.edges}
    instances["layered-3x4-powerset"] = entry("layered-3x4-powerset", net, CapacityAssignment(powerset, caps))
    net = layered_network(3, 3)
    instances["layered-3x3-chain3"] = entry("layered-3x3-chain3", net, random_capacities(rng, net, ChainLattice(3)))
    for verdict in ("distributive", "non-distributive"):
        while True:
            lattice = random_explicit_lattice(rng)
            if lattice.size() >= 5 and (verdict == "distributive") == (is_distributive(lattice) is True):
                break
        net = layered_network(2, 4)
        name = f"layered-2x4-explicit-{verdict}"
        instances[name] = entry(name, net, random_capacities(rng, net, lattice))
    net = add_dead_ends(rng, random_network(rng, max_vertices=9), count=3)
    instances["dead-ends"] = entry("dead-ends", net, random_capacities(rng, net, PowersetLattice("abc")))
    net = FlowNetwork(["s", "u", "v", "t"], [("s", "u"), ("v", "t")], "s", "t")
    instances["no-path"] = entry("no-path", net, random_capacities(rng, net, ChainLattice(4)))
    return instances


def write_golden() -> int:
    instances = pinned_instances()
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, instance in instances.items():
            for argv in flag_sets():
                runs.append({"instance": name, "argv": argv, **run_cli(instance, argv, Path(tmp))})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"instances": instances, "runs": runs}, indent=1) + "\n")
    return len(runs)


if __name__ == "__main__":
    print(f"wrote {write_golden()} runs to {GOLDEN}")
