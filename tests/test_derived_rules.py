"""Each rule is stated in one place and read everywhere else.

The references below are the separate statements those shared ones
replaced: the three join/meet closure loops (distributivity witness
search, ring of sets, random explicit lattices), the recursive path and
chain walks, and the strict cut count. The tests check that the shared
statements give the same answers, in the same order, and that the CLI's
cut route, exit-2 rule and payload check each come from one place.
"""

import itertools
import json
import random

import pytest

from latticeflow import DownsetLattice, ExplicitLattice, FlowNetwork, RingOfSetsLattice
from latticeflow import bottleneck
from latticeflow.certify import DEFAULT_MAX_UNIVERSE
from latticeflow.cli import EXIT_OK, EXIT_VIOLATION, _verdict, build_parser, run_command
from latticeflow.dilworth import WeightedPoset, maximal_chains
from latticeflow.errors import CapExceeded, UniverseTooLarge
from latticeflow.gallery import gallery_expected, gallery_names, gallery_source
from latticeflow.generators import (
    _AMBIENT_POOL,
    add_dead_ends,
    random_capacities,
    random_explicit_lattice,
    random_instance,
    random_network,
    random_weighted_poset,
)
from latticeflow.instances import instance_to_dict, Instance
from latticeflow.lattices import ChainLattice, PowersetLattice, ProductLattice, pairwise_closure
from latticeflow.network import _check_cut_cap, enumerate_paths

# -- the closure routine -----------------------------------------------------


def reference_table_closure(join: tuple, meet: tuple, seeds) -> list[int]:
    """The distributivity witness search's own closure loop."""
    current = set(seeds)
    while True:
        new = set()
        for a, b in itertools.combinations(current, 2):
            for x in (join[a][b], meet[a][b]):
                if x not in current:
                    new.add(x)
        if not new:
            break
        current |= new
    return sorted(current)


def corrupted_tables(rng: random.Random, lattice, changes: int) -> tuple:
    """The lattice's join and meet tables with ``changes`` entries moved
    to random indices on one side of the diagonal only, so the tables no
    longer commute but most closures stay small."""
    _, J, M, _, _ = lattice.tables()
    J, M = [list(row) for row in J], [list(row) for row in M]
    n = len(J)
    for _ in range(changes):
        a, b = rng.sample(range(n), 2)
        rng.choice((J, M))[a][b] = rng.randrange(n)
    return tuple(map(tuple, J)), tuple(map(tuple, M))


def test_closure_matches_the_table_loop_on_tables_that_do_not_commute():
    rng = random.Random(18)
    lattices = [ProductLattice([ChainLattice(a), ChainLattice(b)]) for a, b in ((4, 5), (6, 8), (5, 9))]
    for _ in range(300):
        J, M = corrupted_tables(rng, rng.choice(lattices), rng.randint(1, 6))
        seeds = rng.sample(range(len(J)), 3)
        got = pairwise_closure(seeds, lambda a, b: J[a][b], lambda a, b: M[a][b])
        assert sorted(got) == reference_table_closure(J, M, seeds)


def reference_ring_family(gens, universe, adjoin_bounds, limit):
    """The ring of sets' own closure loop, limit checked after each round."""
    family = set(gens)
    if adjoin_bounds:
        family.add(frozenset())
        family.add(universe)
    while True:
        new = set()
        for a, b in itertools.combinations(sorted(family, key=lambda s: (len(s), sorted(s))), 2):
            for x in (a | b, a & b):
                if x not in family:
                    new.add(x)
        if not new:
            return family
        family |= new
        if len(family) > limit:
            return None


@pytest.mark.parametrize("limit", [4096, 12])
def test_ring_closure_matches_its_own_loop_and_limit(monkeypatch, limit):
    monkeypatch.setattr("latticeflow.lattices._MAX_RING_SETS", limit)
    rng = random.Random(limit)
    shapes = [[frozenset("abcdefghijklmn"[:k]) for k in range(1, 15)]]  # closed, past a limit of 12
    for _ in range(150):
        atoms = "abcdef"[: rng.randint(1, 6)]
        shapes.append([frozenset(rng.sample(atoms, rng.randint(0, len(atoms)))) for _ in range(rng.randint(1, 4))])
    for i, gens in enumerate(shapes):
        adjoin = i % 2 == 1
        universe = frozenset().union(*gens)
        want = reference_ring_family(gens, universe, adjoin, limit)
        if want is None:
            with pytest.raises(UniverseTooLarge, match=f"exceeded {limit} sets"):
                RingOfSetsLattice(gens, adjoin_bounds=adjoin)
        else:
            lat = RingOfSetsLattice(gens, adjoin_bounds=adjoin)
            assert list(lat.element_list()) == sorted(want, key=lambda s: (len(s), sorted(s)))


def reference_random_explicit_lattice(rng: random.Random, max_size: int = 12) -> ExplicitLattice:
    """The generator with its own closure loop."""
    for _ in range(40):
        ambient = rng.choice(_AMBIENT_POOL)()
        elems = ambient.element_list()
        seeds = rng.sample(range(len(elems)), k=min(rng.randint(3, 6), len(elems)))
        current = {elems[i] for i in seeds}
        while True:
            new = set()
            for a, b in itertools.combinations(list(current), 2):
                for x in (ambient._join(a, b), ambient._meet(a, b)):
                    if x not in current:
                        new.add(x)
            if not new or len(current) + len(new) > max_size + 8:
                current |= new
                break
            current |= new
        if not (2 <= len(current) <= max_size):
            continue
        index = {x: i for i, x in enumerate(elems)}
        members = sorted(current, key=index.__getitem__)
        names = [f"x{i}" for i in range(len(members))]
        by_member = dict(zip(members, names))
        pairs = [(by_member[a], by_member[b]) for a in members for b in members if ambient._leq(a, b)]
        return ExplicitLattice.from_relation(names, pairs)
    cube = PowersetLattice("xy")
    members = cube.element_list()
    names = [f"x{i}" for i in range(len(members))]
    by_member = dict(zip(members, names))
    return ExplicitLattice.from_relation(names, [(by_member[a], by_member[b]) for a in members for b in members if cube._leq(a, b)])


@pytest.mark.parametrize("max_size", [12, 4, 1])
def test_random_explicit_lattice_matches_its_own_loop(max_size):
    for seed in range(120):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = random_explicit_lattice(got_rng, max_size)
        want = reference_random_explicit_lattice(want_rng, max_size)
        assert got.spec() == want.spec()
        assert got_rng.getstate() == want_rng.getstate()


def test_closure_limit_counts_rounds_not_seeds():
    chain = [frozenset(range(k)) for k in range(10)]
    assert pairwise_closure(chain, frozenset.__or__, frozenset.__and__, 5) == set(chain)
    singletons = [frozenset([i]) for i in range(4)]
    assert pairwise_closure(singletons, frozenset.__or__, frozenset.__and__, 10) is None
    assert len(pairwise_closure(singletons, frozenset.__or__, frozenset.__and__, 16)) == 16


# -- one route rule for the cut side ------------------------------------------


def write(tmp_path, name, net, cap) -> str:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(instance_to_dict(Instance(cap.lattice, network=net, capacities=cap))))
    return str(path)


def test_maxflow_and_bottleneck_take_the_same_cut_route(tmp_path, capsys):
    rng = random.Random(1800)
    for i in range(40):
        if i % 2:
            net, cap = random_instance(rng, max_vertices=7)
        else:
            net = random_network(rng, max_vertices=7)
            cap = random_capacities(rng, net, random_explicit_lattice(rng))
        f = write(tmp_path, f"n{i}", net, cap)
        for mode in ("strict", "lenient"):
            dual, _ = run_command(["bottleneck", f, "--mode", mode, "--format", "json"])
            flow, _ = run_command(["maxflow", f, "--mode", mode, "--unsafe-dp", "--format", "json"])
            assert (flow["min_cut_method"], flow["min_cut_value"]) == (dual["beta_method"], dual["beta"])
            assert flow["max_flow_value"] == dual["alpha"]
    capsys.readouterr()


def test_a_wrong_threshold_side_reaches_both_commands(tmp_path, monkeypatch):
    f = tmp_path / "supply.json"
    f.write_text(gallery_source("supply-chain"))
    monkeypatch.setattr(bottleneck, "_threshold_side", lambda net, cap: (None, cap.lattice.bottom()))
    for command in ("bottleneck", "maxflow"):
        report, code = run_command([command, str(f), "--format", "json"])
        assert code == EXIT_VIOLATION and report["equal"] is False
        _, code = run_command([command, str(f), "--mode", "lenient", "--format", "json"])
        assert code == EXIT_OK


def test_a_wrong_dynamic_program_reaches_both_commands(tmp_path, monkeypatch):
    f = tmp_path / "supply.json"
    f.write_text(gallery_source("supply-chain"))
    monkeypatch.setattr(bottleneck, "alpha_dp", lambda net, cap, allow_non_distributive=False: cap.lattice.bottom())
    for command in ("bottleneck", "maxflow"):
        report, code = run_command([command, str(f), "--format", "json"])
        assert code == EXIT_VIOLATION and report["equal"] is False


@pytest.mark.parametrize("distributive", [True, False, None])
@pytest.mark.parametrize("failed", [True, False])
def test_exit_two_only_for_a_failure_on_a_certified_lattice(distributive, failed):
    want = EXIT_VIOLATION if distributive is True and failed else EXIT_OK
    assert _verdict(distributive, failed) == want


def test_bottleneck_on_a_poset_names_the_payload(tmp_path, capsys):
    f = tmp_path / "c.json"
    f.write_text(gallery_source("competencies"))
    _, code = run_command(["bottleneck", str(f)])
    assert code == 1
    assert capsys.readouterr().err == "error: bottleneck needs a network instance, got a poset\n"


# -- one strict cut count -------------------------------------------------------


def test_strict_cut_count_and_cap_message_read_the_partition_layout():
    rng = random.Random(7)
    for _ in range(100):
        net = random_network(rng, max_vertices=9)
        if rng.random() < 0.5:
            net = add_dead_ends(rng, net, count=2)
        n = len(net.vertices) - 2
        assert net.n_partitions == 2**n
        if len(net.vertices) > 3:
            with pytest.raises(CapExceeded) as info:
                _check_cut_cap(net, 3)
            assert str(info.value) == f"cut enumeration needs 2^{n} partitions; cap is 3 vertices"


# -- walks without recursion ------------------------------------------------------


def reference_paths(net: FlowNetwork, max_paths: int) -> list:
    """The recursive walk."""
    succ = {v: sorted(e[1] for e in net.out_edges(v)) for v in net.vertices}
    out, path = [], [net.source]

    def walk(v):
        if v == net.sink:
            if len(out) >= max_paths:
                raise CapExceeded(f"more than {max_paths} source-to-sink paths")
            out.append(tuple(path))
            return
        for w in succ[v]:
            if w not in path:
                path.append(w)
                walk(w)
                path.pop()

    walk(net.source)
    return out


def reference_chains(poset: WeightedPoset, max_chains: int) -> list:
    """The recursive walk."""
    out, chain = [], []

    def walk(x):
        chain.append(x)
        succ = poset.cover_successors(x)
        if not succ:
            if len(out) >= max_chains:
                raise CapExceeded(f"more than {max_chains} maximal chains")
            out.append(tuple(chain))
        for y in succ:
            walk(y)
        chain.pop()

    for m in poset.minimal_elements():
        walk(m)
    return out


def same_outcome(walk, reference, *args):
    try:
        want = reference(*args)
    except CapExceeded as exc:
        with pytest.raises(CapExceeded) as info:
            walk(*args)
        assert str(info.value) == str(exc)
    else:
        assert walk(*args) == want


def test_path_walk_keeps_the_order_and_the_cap():
    rng = random.Random(11)
    for _ in range(200):
        net = random_network(rng, max_vertices=9)
        if rng.random() < 0.5:
            net = add_dead_ends(rng, net, count=2)
        same_outcome(enumerate_paths, reference_paths, net, rng.choice([1, 3, 1_000_000]))


def test_chain_walk_keeps_the_order_and_the_cap():
    rng = random.Random(12)
    lat = PowersetLattice("ab")
    for _ in range(200):
        poset = random_weighted_poset(rng, lat, max_elements=9)
        same_outcome(maximal_chains, reference_chains, poset, rng.choice([1, 3, 1_000_000]))


def long_path(n: int) -> dict:
    vertices = ["s", *(f"v{i}" for i in range(n)), "t"]
    return {
        "lattice": {"kind": "chain", "levels": 3},
        "vertices": vertices,
        "source": "s",
        "sink": "t",
        "edges": [{"from": u, "to": v, "capacity": 2} for u, v in zip(vertices, vertices[1:])],
    }


@pytest.mark.parametrize("command", ["bottleneck", "maxflow"])
def test_a_path_longer_than_the_recursion_limit(tmp_path, capsys, command):
    f = tmp_path / "path.json"
    f.write_text(json.dumps(long_path(1200)))
    _, code = run_command([command, str(f)])
    out = capsys.readouterr()
    assert code == 0 and out.err == ""
    assert "paths: 1 " in out.out if command == "bottleneck" else "equal: True" in out.out


def test_a_chain_longer_than_the_recursion_limit(tmp_path, capsys):
    elements = [f"p{i}" for i in range(1200)]
    doc = {
        "lattice": {"kind": "chain", "levels": 3},
        "elements": elements,
        "covers": [[a, b] for a, b in zip(elements, elements[1:])],
        "weights": dict.fromkeys(elements, 1),
    }
    f = tmp_path / "chain.json"
    f.write_text(json.dumps(doc))
    _, code = run_command(["dilworth", str(f), "--method", "direct"])
    assert code == 1
    assert capsys.readouterr().err == "error: antichain enumeration capped at 20 elements\n"


def test_json_nested_past_the_recursion_limit_is_an_input_error(tmp_path, capsys):
    f = tmp_path / "deep.json"
    f.write_text("[" * 100_000)
    _, code = run_command(["bottleneck", str(f)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {f}: not valid JSON: ") and err.count("\n") == 1


# -- small derived facts ------------------------------------------------------------


def test_edge_lists_are_built_once():
    net = random_network(random.Random(3), max_vertices=8)
    for v in net.vertices:
        assert net.out_edges(v) is net.out_edges(v)
        assert net.in_edges(v) is net.in_edges(v)
        assert net.out_edges(v) == tuple(e for e in net.edges if e[0] == v)
        assert net.in_edges(v) == tuple(e for e in net.edges if e[1] == v)


def test_downset_bounds_are_the_empty_set_and_the_base():
    rng = random.Random(5)
    for _ in range(30):
        base = [f"b{i}" for i in range(rng.randint(1, 6))]
        covers = [(a, b) for a, b in itertools.combinations(base, 2) if rng.random() < 0.3]
        lat = DownsetLattice(base, covers)
        assert lat.bottom() == frozenset() and lat.top() == frozenset(base)


def test_check_lattice_size_cap_defaults_to_the_certification_cap():
    assert build_parser().parse_args(["check-lattice", "x.json"]).max_size == DEFAULT_MAX_UNIVERSE


def test_every_unknown_entry_answer_is_the_same():
    message = f"unknown gallery entry 'nonesuch'; known: {', '.join(gallery_names())}"
    for lookup in (gallery_source, gallery_expected):
        with pytest.raises(KeyError) as info:
            lookup("nonesuch")
        assert info.value.args[0] == message
