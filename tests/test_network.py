import random

import pytest

from latticeflow import (
    CapacityAssignment,
    CapExceeded,
    ChainLattice,
    Cut,
    FlowNetwork,
    Lattice,
    NoBottomError,
    beta_bruteforce,
    crossing_edges,
    enumerate_cuts,
    enumerate_paths,
    gallery_instance,
    is_distributive,
    minimal_cuts,
    validate_network,
    verify_duality,
)
from latticeflow.generators import (
    add_dead_ends,
    random_any_lattice,
    random_capacities,
    random_distributive_lattice,
    random_explicit_lattice,
    random_instance,
    random_network,
    random_weighted_poset,
)
from latticeflow.network import minimal_cut_masks
from latticeflow.orderutils import topological_order


def single_edge():
    return FlowNetwork(["s", "t"], [("s", "t")], "s", "t")


class TestConstruction:
    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError):
            FlowNetwork(["s", "t"], [("s", "t"), ("s", "t")], "s", "t")

    def test_rejects_unknown_vertices(self):
        with pytest.raises(ValueError):
            FlowNetwork(["s", "t"], [("s", "x")], "s", "t")

    def test_rejects_equal_source_sink(self):
        with pytest.raises(ValueError):
            FlowNetwork(["s"], [], "s", "s")


class TestValidation:
    def test_pentagon_example_strict_pass(self):
        net = gallery_instance("pentagon").network
        assert validate_network(net, "strict").ok

    def test_edge_into_source_fails(self):
        net = FlowNetwork(["s", "u", "t"], [("s", "t"), ("u", "s")], "s", "t")
        report = validate_network(net)
        assert not report.ok
        assert any(v.clause == "source-edges" for v in report.violations)

    def test_edge_out_of_sink_fails(self):
        net = FlowNetwork(["s", "u", "t"], [("s", "t"), ("t", "u")], "s", "t")
        report = validate_network(net)
        assert any(v.clause == "sink-edges" for v in report.violations)

    def test_dead_end_fails_strict_passes_lenient(self):
        net = FlowNetwork(["s", "d", "t"], [("s", "t"), ("s", "d")], "s", "t")
        assert not validate_network(net, "strict").ok
        assert validate_network(net, "lenient").ok

    def test_cycle_reported(self):
        net = FlowNetwork(["s", "u", "v", "t"], [("s", "u"), ("u", "v"), ("v", "u"), ("u", "t")], "s", "t")
        report = validate_network(net)
        assert any(v.clause == "acyclic" for v in report.violations)

    def test_self_loop_reported(self):
        net = FlowNetwork(["s", "u", "t"], [("s", "u"), ("u", "u"), ("u", "t")], "s", "t")
        report = validate_network(net)
        assert any(v.clause == "self-loops" for v in report.violations)


class TestPaths:
    def test_diamond_has_two_paths(self):
        net = gallery_instance("diamond").network
        assert len(enumerate_paths(net)) == 2

    def test_single_edge(self):
        assert enumerate_paths(single_edge()) == [("s", "t")]

    def test_lexicographic_order(self):
        net = FlowNetwork(
            ["s", "a", "b", "t"], [("s", "b"), ("s", "a"), ("a", "t"), ("b", "t"), ("a", "b")], "s", "t"
        )
        assert enumerate_paths(net) == [("s", "a", "b", "t"), ("s", "a", "t"), ("s", "b", "t")]

    def test_path_cap(self):
        net = random_network(random.Random(5), max_vertices=8)
        with pytest.raises(CapExceeded):
            enumerate_paths(net, max_paths=1)


class TestCuts:
    def test_pentagon_example_has_eight_cuts(self):
        net = gallery_instance("pentagon").network
        assert len(enumerate_cuts(net)) == 8

    def test_diamond_example_has_two_cuts(self):
        assert len(enumerate_cuts(gallery_instance("diamond").network)) == 2

    def test_single_edge_has_one_cut(self):
        assert len(enumerate_cuts(single_edge())) == 1

    def test_count_is_two_to_the_internals(self):
        rng = random.Random(11)
        for _ in range(10):
            net = random_network(rng, max_vertices=8)
            assert len(enumerate_cuts(net)) == 2 ** (len(net.vertices) - 2)

    def test_partition_invariants(self):
        net = gallery_instance("pentagon").network
        for cut in enumerate_cuts(net):
            assert net.source in cut.source_side
            assert net.sink in cut.sink_side
            assert cut.source_side | cut.sink_side == set(net.vertices)
            assert not (cut.source_side & cut.sink_side)

    def test_vertex_cap(self):
        net = random_network(random.Random(0), max_vertices=10)
        with pytest.raises(CapExceeded):
            enumerate_cuts(net, max_vertices=3)


class TestMinimalCuts:
    def test_single_edge(self):
        assert len(minimal_cuts(single_edge())) == 1

    def test_diamond_both_cuts_minimal(self):
        net = gallery_instance("diamond").network
        cuts = minimal_cuts(net)
        crossings = {frozenset(crossing_edges(net, c)) for c in cuts}
        assert crossings == {
            frozenset({("s", "t"), ("s", "u")}),
            frozenset({("s", "t"), ("u", "t")}),
        }

    def test_dead_end_edge_excluded(self):
        net = FlowNetwork(["s", "d", "t"], [("s", "t"), ("s", "d")], "s", "t")
        cuts = minimal_cuts(net)
        assert len(cuts) == 1
        assert crossing_edges(net, cuts[0]) == (("s", "t"),)

    def test_minimality_by_inclusion(self):
        rng = random.Random(2)
        for _ in range(10):
            net = random_network(rng, max_vertices=7)
            all_crossings = [frozenset(crossing_edges(net, c)) for c in enumerate_cuts(net)]
            kept = [frozenset(crossing_edges(net, c)) for c in minimal_cuts(net)]
            for k in kept:
                assert not any(other < k for other in all_crossings)


class TestTopologicalOrderKept:
    def test_kept_order_matches_orderutils(self):
        from test_orderutils import TestTopologicalOrder, topological_result

        cyclic = 0
        for vertices, edges in TestTopologicalOrder().graphs(11, 500):
            if len(vertices) < 2:
                continue
            net = FlowNetwork(vertices, edges, vertices[0], vertices[1])
            expected = topological_result(topological_order, vertices, edges)
            if isinstance(expected, str):
                cyclic += 1
                for _ in range(2):
                    with pytest.raises(ValueError) as info:
                        net.topological_order()
                    assert str(info.value) == expected
            else:
                first = net.topological_order()
                assert list(first) == expected
                assert net.topological_order() is first
        assert cyclic > 50


class TestPathCutInteraction:
    def test_every_path_meets_every_cut(self):
        rng = random.Random(13)
        for _ in range(15):
            net = random_network(rng, max_vertices=7)
            paths = enumerate_paths(net)
            cuts = enumerate_cuts(net)
            for p in paths:
                p_edges = set(zip(p, p[1:]))
                for c in cuts:
                    assert p_edges & set(crossing_edges(net, c))

    def test_isolating_cut_exists_for_every_path_edge(self):
        # for each path P and edge e on it there is a cut crossing P exactly at e
        rng = random.Random(17)
        for _ in range(10):
            net = random_network(rng, max_vertices=7)
            paths = enumerate_paths(net)
            cuts = enumerate_cuts(net)
            for p in paths:
                p_edges = list(zip(p, p[1:]))
                for e in p_edges:
                    assert any(
                        set(crossing_edges(net, c)) & set(p_edges) == {e} for c in cuts
                    ), (net.edges, p, e)

    def test_strict_mode_every_edge_on_some_path(self):
        rng = random.Random(19)
        for _ in range(15):
            net = random_network(rng, max_vertices=8)
            assert validate_network(net, "strict").ok
            covered = set()
            for p in enumerate_paths(net):
                covered |= set(zip(p, p[1:]))
            assert covered == set(net.edges)

    def test_dead_ends_break_edge_coverage(self):
        rng = random.Random(23)
        net = add_dead_ends(rng, random_network(rng, max_vertices=6))
        assert validate_network(net, "lenient").ok
        assert not validate_network(net, "strict").ok


# Reference implementations of the cut enumeration contract: one Cut and
# one frozenset crossing set per partition, in binary-counter order.


def reference_enumerate_cuts(net):
    internal = sorted(net.internal_vertices())
    k = len(internal)
    cuts = []
    for mask in range(2**k):
        s_side = {net.source} | {internal[i] for i in range(k) if mask >> i & 1}
        t_side = frozenset(v for v in net.vertices if v not in s_side)
        cuts.append(Cut(frozenset(s_side), t_side))
    return cuts


def minimal_masks(masks):
    """The inclusion-minimal masks among distinct ``masks``, in their
    order, by the pairwise filter: each mask is tested, in popcount
    order, against the minimal ones already found (a proper subset
    always has fewer bits)."""
    found = []
    for m in sorted(masks, key=int.bit_count):
        if not any(f & m == f for f in found):
            found.append(m)
    keep = set(found)
    return [m for m in masks if m in keep]


def reference_minimal_cuts(net):
    by_crossing = {}
    for cut in reference_enumerate_cuts(net):
        by_crossing.setdefault(frozenset(crossing_edges(net, cut)), cut)
    keys = list(by_crossing)
    return [by_crossing[k] for k in keys if not any(other < k for other in keys)]


def reference_walk(net):
    """Every distinct crossing-edge mask (bit k is ``net.edges[k]``) of
    the partitions, mapped to the first partition mask that induces it,
    in first-seen order: one plain loop over the partition masks."""
    internal = sorted(net.internal_vertices())
    outs, ins = dict.fromkeys(net.vertices, 0), dict.fromkeys(net.vertices, 0)
    for k, (u, v) in enumerate(net.edges):
        outs[u] |= 1 << k
        ins[v] |= 1 << k
    first = {}
    for mask in range(2 ** len(internal)):
        out = into = 0
        for v in (net.source, *(v for i, v in enumerate(internal) if mask >> i & 1)):
            out |= outs[v]
            into |= ins[v]
        first.setdefault(out & ~into, mask)
    return first


def reference_cut_side(net, cap, mode):
    """(n_cuts, optimal_cut, beta): beta folded over every cut in strict
    mode and over the minimal cuts in lenient mode; the witness is the
    first minimal cut that attains it."""
    lat = cap.lattice
    minimal = reference_minimal_cuts(net)
    cuts = reference_enumerate_cuts(net) if mode == "strict" else minimal

    def capacity(cut):
        return lat.join_all(cap[e] for e in crossing_edges(net, cut))

    beta = lat.meet_all([capacity(c) for c in cuts])
    witness = next((c for c in minimal if capacity(c) == beta), None)
    return len(cuts), witness, beta


def layered_network(width, layers):
    """Source, ``layers`` layers of ``width`` vertices, sink; every layer
    fully joined to the next."""
    rows = [["s"], *([f"v{i}_{j}" for j in range(width)] for i in range(layers)), ["t"]]
    edges = [(u, v) for a, b in zip(rows, rows[1:]) for u in a for v in b]
    return FlowNetwork([v for row in rows for v in row], edges, "s", "t")


def differential_instances(seed, count):
    """Seeded networks of 2-10 vertices over distributive and other
    lattices, each also with two dead ends added; then layered networks
    of 24 and 40 edges (the first over a 3-element chain, so capacities
    repeat), and networks over explicit tables of both verdicts."""
    rng = random.Random(seed)
    for i in range(count):
        factory = {"lattice_factory": random_any_lattice} if i % 2 else {}
        net, cap = random_instance(rng, max_vertices=10, **factory)
        yield net, cap
        dead = add_dead_ends(rng, net)
        yield dead, random_capacities(rng, dead, cap.lattice)
    for net, lattice in ((layered_network(3, 3), ChainLattice(3)), (layered_network(4, 3), random_distributive_lattice(rng))):
        yield net, random_capacities(rng, net, lattice)
    verdicts = set()
    while len(verdicts) < 2:
        lattice = random_explicit_lattice(rng)
        verdict = is_distributive(lattice) is True
        if verdict not in verdicts:
            verdicts.add(verdict)
            net = add_dead_ends(rng, random_network(rng, max_vertices=10))
            yield net, random_capacities(rng, net, lattice)


class Integers(Lattice):
    """All integers in their usual order: a lattice with no bottom."""

    kind = "integers"

    def __contains__(self, x):
        return isinstance(x, int) and not isinstance(x, bool)

    def _leq(self, a, b):
        return a <= b

    def _join(self, a, b):
        return max(a, b)

    def _meet(self, a, b):
        return min(a, b)

    def bottom(self):
        return None

    def top(self):
        return None


class TestEnumerationContract:
    def test_enumerate_cuts_matches_reference(self):
        for net, _ in differential_instances(41, 15):
            assert enumerate_cuts(net) == reference_enumerate_cuts(net)

    def test_minimal_cuts_match_reference_in_order(self):
        for net, _ in differential_instances(43, 40):
            assert minimal_cuts(net) == reference_minimal_cuts(net)

    def test_minimal_cut_masks_equal_the_walk_in_order(self):
        # the plain partition walk and the pairwise filter are the
        # reference, with no edge avoided and with the source edges avoided:
        # the same masks in the same order, each with the walk's first partition
        rng = random.Random(71)
        posets = (random_weighted_poset(rng, random_distributive_lattice(rng), max_elements=13) for _ in range(200))
        auxiliary = [p.network[0] for p in posets if len(p.elements) >= 10]
        no_path = [
            FlowNetwork(["s", "t"], [], "s", "t"),
            FlowNetwork(["s", "a", "t"], [("s", "a")], "s", "t"),
            FlowNetwork(["s", "u", "v", "t"], [("s", "u"), ("v", "t")], "s", "t"),
            FlowNetwork(["s", "a", "b", "t"], [("s", "a"), ("b", "t"), ("b", "a")], "s", "t"),
        ]
        nets = [net for net, _ in differential_instances(11, 300)] + auxiliary + no_path
        assert len(auxiliary) >= 40
        assert any((net.source, net.sink) in net.edge_set for net in nets)
        for net in nets:
            walk = reference_walk(net)
            source_edges = sum(1 << i for i, e in enumerate(net.edges) if e[0] == net.source)
            for avoid in (0, source_edges):
                expected = [(m, walk[m]) for m in minimal_masks([m for m in walk if not m & avoid])]
                assert list(minimal_cut_masks(net, avoid).items()) == expected

    @pytest.mark.parametrize("mode", ["strict", "lenient"])
    def test_cut_side_matches_reference(self, mode):
        # no source-to-sink path, so some cut crosses no edge: its empty
        # join needs the bottom that the integers lack
        no_path = FlowNetwork(["s", "u", "v", "t"], [("s", "u"), ("v", "t")], "s", "t")
        no_bottom = CapacityAssignment(Integers(), {("s", "u"): 3, ("v", "t"): -1})
        for net, cap in [*differential_instances(47, 40), (no_path, no_bottom)]:
            try:
                expected = reference_cut_side(net, cap, mode)
            except NoBottomError:
                with pytest.raises(NoBottomError):
                    beta_bruteforce(net, cap)
                continue
            report = verify_duality(net, cap, mode=mode, method="bruteforce")
            assert (report.n_cuts, report.optimal_cut, report.beta) == expected
            if report.optimal_cut is not None:  # a minimal cut that attains beta
                assert report.optimal_cut in reference_minimal_cuts(net)
                assert cap.lattice.join_all(cap[e] for e in crossing_edges(net, report.optimal_cut)) == report.beta

    def test_cut_side_folds_each_capacity_set_once(self, monkeypatch):
        # every out-edge of a poset element carries its weight, so the
        # auxiliary network's crossing sets share few sets of values
        rng = random.Random(12)
        poset = random_weighted_poset(rng, random_distributive_lattice(rng), max_elements=12)
        while len(poset.elements) != 12:
            poset = random_weighted_poset(rng, random_distributive_lattice(rng), max_elements=12)
        net, cap = poset.network
        crossings = {frozenset(crossing_edges(net, c)) for c in reference_minimal_cuts(net)}
        value_sets = {frozenset(cap[e] for e in c) for c in crossings}
        assert len(value_sets) < len(crossings)
        lat, calls = cap.lattice, []

        def counted_join_all(items):
            calls.append(1)
            return type(lat).join_all(lat, items)

        monkeypatch.setattr(lat, "join_all", counted_join_all)
        beta_bruteforce(net, cap)
        assert len(calls) == len(value_sets)

    @pytest.mark.parametrize("method", ["bruteforce", "auto"])
    def test_path_witness_is_first_attaining_path(self, method):
        for net, cap in differential_instances(61, 20):
            lat = cap.lattice
            paths = enumerate_paths(net)
            values = [lat.meet_all(cap[e] for e in zip(p, p[1:])) for p in paths]
            report = verify_duality(net, cap, mode="lenient", method=method)
            assert report.n_paths == len(paths)
            assert report.optimal_path == next((p for p, v in zip(paths, values) if v == report.alpha), None)
