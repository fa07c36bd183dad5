"""Each fact about a network, a stored lattice universe or the gallery is
derived in one place and read everywhere else.

The references below are the separate derivations those shared ones
replaced: the validator's own sort, the per-kind ``size()``, the ring's
folded bounds and the gallery's file table. The tests check that the
shared derivations give the same answers, and that one ``bottleneck`` or
``maxflow`` call sorts its network once.
"""

import json
import random
from functools import reduce
from importlib import resources

import pytest

from latticeflow import (
    DownsetLattice,
    ExplicitLattice,
    FlowNetwork,
    Instance,
    RingOfSetsLattice,
    network,
    validate_network,
)
from latticeflow.cli import run_command
from latticeflow.gallery import gallery_names, gallery_source
from latticeflow.generators import add_dead_ends, random_explicit_lattice, random_instance, random_network
from latticeflow.instances import instance_to_dict
from latticeflow.network import ValidationReport, Violation, _reachable
from latticeflow.orderutils import topological_order

# -- validate_network --------------------------------------------------------


def reference_validate(net: FlowNetwork, mode: str = "strict") -> ValidationReport:
    """The validator with its own sort of the loop-free edges."""
    violations = []
    loops = tuple(e for e in net.edges if e[0] == e[1])
    if loops:
        violations.append(Violation("self-loops", "self-loops are not allowed", loops))
    try:
        topological_order(net.vertices, (e for e in net.edges if e[0] != e[1]))
    except ValueError as exc:
        violations.append(Violation("acyclic", str(exc), ()))
    into_source = net.in_edges(net.source)
    if into_source:
        violations.append(Violation("source-edges", "all edges at the source must be outgoing", into_source))
    out_of_sink = net.out_edges(net.sink)
    if out_of_sink:
        violations.append(Violation("sink-edges", "all edges at the sink must be incoming", out_of_sink))
    if mode == "strict" and not any(v.clause == "acyclic" for v in violations):
        reach_s = _reachable(net, net.source, forward=True)
        reach_t = _reachable(net, net.sink, forward=False)
        stranded = tuple(v for v in net.internal_vertices() if v not in reach_s or v not in reach_t)
        if stranded:
            violations.append(
                Violation("connectivity", "every internal vertex must lie on some source-to-sink path", stranded)
            )
    return ValidationReport(ok=not violations, mode=mode, violations=tuple(violations))


def random_graph(rng: random.Random, shape: str) -> FlowNetwork:
    """A DAG (with dead ends half the time), a DAG with back edges, or a
    graph with self-loops; the last two may also enter the source or
    leave the sink."""
    net = random_network(rng, max_vertices=8)
    if rng.random() < 0.5:
        net = add_dead_ends(rng, net, count=rng.randint(1, 2))
    if shape == "dag":
        return net
    edges = list(net.edges)
    vertices = net.vertices
    for _ in range(rng.randint(1, 3)):
        if shape == "loop":
            v = rng.choice(vertices)
            e = (v, v)
        else:
            u, v = rng.sample(vertices, 2)
            e = (u, v)
        if e not in edges:
            edges.append(e)
    if shape == "loop" and rng.random() < 0.5:
        u, v = rng.sample(vertices, 2)
        if (u, v) not in edges:
            edges.append((u, v))
    return FlowNetwork(vertices, edges, net.source, net.sink)


def test_validate_network_matches_its_own_sort_on_every_shape():
    rng = random.Random(20241001)
    seen = {"dag": 0, "cycle": 0, "loop": 0}
    failing = set()
    for i in range(600):
        shape = ("dag", "cycle", "loop")[i % 3]
        net = random_graph(rng, shape)
        for mode in ("strict", "lenient"):
            want = reference_validate(net, mode)
            assert validate_network(net, mode) == want, (shape, net.edges, mode)
            failing.update(v.clause for v in want.violations)
        try:  # with the order kept (or refused), the answer must not move
            net.topological_order()
        except ValueError:
            pass
        for mode in ("strict", "lenient"):
            assert validate_network(net, mode) == reference_validate(net, mode)
        seen[shape] += 1
    assert seen == {"dag": 200, "cycle": 200, "loop": 200}
    # every clause was exercised, so the comparison covers each branch
    assert failing == {"self-loops", "acyclic", "source-edges", "sink-edges", "connectivity"}


def test_self_loop_is_reported_once_not_again_as_a_cycle():
    net = FlowNetwork(["s", "u", "t"], [("s", "u"), ("u", "u"), ("u", "t")], "s", "t")
    report = validate_network(net)
    assert [v.clause for v in report.violations] == ["self-loops"]
    with pytest.raises(ValueError, match="directed cycle"):
        net.topological_order()


# -- one sort per call ---------------------------------------------------------


@pytest.mark.parametrize("command", ["bottleneck", "maxflow"])
def test_one_cli_call_sorts_its_network_once(command, tmp_path, monkeypatch):
    calls = []

    def counted(vertices, edges):
        calls.append(1)
        return topological_order(vertices, edges)

    monkeypatch.setattr(network, "topological_order", counted)
    rng = random.Random(7)
    for i in range(20):
        net, cap = random_instance(rng, max_vertices=10)
        path = tmp_path / f"net{i}.json"
        path.write_text(json.dumps(instance_to_dict(Instance(cap.lattice, network=net, capacities=cap))))
        calls.clear()
        report, code = run_command([command, str(path), "--format", "json"])
        assert code == 0 and report["equal"] is True
        assert len(calls) == 1, (command, i)


# -- sizes and bounds of stored universes -----------------------------------------


def test_ring_size_and_bounds_match_the_folded_family():
    rng = random.Random(3)
    for i in range(120):
        atoms = "abcdef"[: rng.randint(1, 6)]
        gens = [set(rng.sample(atoms, rng.randint(0, len(atoms)))) for _ in range(rng.randint(1, 4))]
        lat = RingOfSetsLattice(gens, universe=atoms, adjoin_bounds=i % 2 == 0)
        family = lat.element_list()
        assert lat.size() == len(family)
        for _ in range(2):  # the kept bounds stay the same
            assert lat.bottom() == reduce(frozenset.__and__, family)
            assert lat.top() == reduce(frozenset.__or__, family)


def test_downset_and_explicit_sizes_count_the_stored_universe():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.randint(1, 6)
        names = [f"p{i}" for i in range(n)]
        rels = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
        lat = DownsetLattice(names, rels)
        assert lat.size() == len(lat._universe)
        explicit = random_explicit_lattice(rng)
        assert isinstance(explicit, ExplicitLattice)
        assert explicit.size() == len(explicit._elements)


# -- one gallery table ----------------------------------------------------------

REFERENCE_FILES = {
    "pentagon": "pentagon.json",
    "diamond": "diamond.json",
    "no-optimal-cut": "no_optimal_cut.json",
    "no-optimal-path": "no_optimal_path.json",
    "supply-chain": "supply_chain.json",
    "packaging": "packaging.json",
    "compliance": "compliance.json",
    "security-levels": "security_levels.json",
    "survival": "survival.json",
    "competencies": "competencies.json",
}


def test_gallery_names_and_files_match_the_file_table():
    assert gallery_names() == list(REFERENCE_FILES)
    data = resources.files("latticeflow.data")
    for name, file in REFERENCE_FILES.items():
        assert gallery_source(name) == data.joinpath(file).read_text()
    with pytest.raises(KeyError) as info:
        gallery_source("nonesuch")
    assert info.value.args[0] == f"unknown gallery entry 'nonesuch'; known: {', '.join(REFERENCE_FILES)}"
