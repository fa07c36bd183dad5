import itertools
import json
import random
import sys
import time
from collections import Counter

import pytest

from latticeflow import (
    CapExceeded,
    ChainLattice,
    PentagonLattice,
    PowersetLattice,
    WeightedPoset,
    auxiliary_network,
    check_correspondences,
    crossing_edges,
    dilworth_direct,
    dilworth_via_network,
    enumerate_paths,
    gallery_instance,
    maximal_antichains,
    maximal_chains,
    minimal_cuts,
    validate_network,
    verify_duality,
)
import latticeflow.dilworth as dilworth
from latticeflow.cli import run_command
from latticeflow.dilworth import CorrespondenceReport, _cut_for_antichain
from latticeflow.gallery import gallery_source
from latticeflow.generators import random_any_lattice, random_distributive_lattice, random_weighted_poset
from latticeflow.instances import Instance, instance_to_dict


def competency_poset():
    return gallery_instance("competencies").poset


def total_order(weights):
    n = len(weights)
    names = [f"x{i}" for i in range(n)]
    L = ChainLattice(max(weights) + 1)
    return WeightedPoset(
        names, [(names[i], names[i + 1]) for i in range(n - 1)],
        dict(zip(names, weights)), L,
    )


def antichain_poset(n=3):
    names = [f"x{i}" for i in range(n)]
    L = ChainLattice(n + 1)
    return WeightedPoset(names, [], {x: i for i, x in enumerate(names)}, L)


def n_poset():
    # a < c, a < d, b < d; the smallest poset where a maximal antichain
    # ({b, c}) misses a maximal chain ({a, d})
    L = PowersetLattice("p")
    weights = {
        "a": frozenset("p"),
        "b": frozenset(),
        "c": frozenset(),
        "d": frozenset("p"),
    }
    return WeightedPoset(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "d")], weights, L)


def transversal_gap_poset():
    # a < b < e, a < c, d < e; the smallest poset where every maximal
    # antichain meets every maximal chain yet the sides differ: {a, e}
    # is a minimal chain transversal that is not an antichain
    L = PowersetLattice("p")
    weights = {x: frozenset("p" if x in "bcd" else "") for x in "abcde"}
    return WeightedPoset(
        list("abcde"), [("a", "b"), ("b", "e"), ("a", "c"), ("d", "e")], weights, L
    )


def pentagon_poset():
    # weights in N5, which is not distributive, so the network route walks
    L = PentagonLattice()
    weights = {"x": "a", "y": "b", "z": "c", "w": "1"}
    return WeightedPoset(list("xyzw"), [("x", "z"), ("y", "z"), ("y", "w")], weights, L)


def complete_bipartite_poset():
    # m1, m2 < f1, f2; both sides agree, yet a minimal cut has comparable
    # crossing sources, so the cut round trip breaks
    return WeightedPoset(
        ["m1", "m2", "f1", "f2"],
        [("m1", "f1"), ("m1", "f2"), ("m2", "f1"), ("m2", "f2")],
        {"m1": 1, "m2": 2, "f1": 3, "f2": 4},
        ChainLattice(5),
    )


class TestChains:
    def test_competency_chains_match_roster(self):
        chains = maximal_chains(competency_poset())
        assert len(chains) == 5
        assert chains == [
            ("JD", "SD", "CTO", "CEO"),
            ("JD", "SD", "PM", "CEO"),
            ("QA", "PM", "CEO"),
            ("HR", "COO", "CEO"),
            ("MS", "PM", "CEO"),
        ]

    def test_total_order_has_one_chain(self):
        poset = total_order([3, 1, 2, 4])
        assert maximal_chains(poset) == [("x0", "x1", "x2", "x3")]

    def test_antichain_poset_has_singleton_chains(self):
        assert maximal_chains(antichain_poset(3)) == [("x0",), ("x1",), ("x2",)]

    def test_chains_are_maximal(self):
        rng = random.Random(51)
        for _ in range(20):
            poset = random_weighted_poset(rng, ChainLattice(3), max_elements=6)
            for chain in maximal_chains(poset):
                members = set(chain)
                for x in poset.elements:
                    if x in members:
                        continue
                    assert not all(poset.comparable(x, y) for y in chain)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            maximal_chains(antichain_poset(4), max_chains=2)


class TestAntichains:
    def test_antichain_poset_has_one_maximal_antichain(self):
        assert maximal_antichains(antichain_poset(3)) == [("x0", "x1", "x2")]

    def test_total_order_has_singletons(self):
        assert maximal_antichains(total_order([1, 2, 0, 3])) == [
            ("x0",), ("x1",), ("x2",), ("x3",),
        ]

    def test_every_competency_antichain_carries_employee_management(self):
        poset = competency_poset()
        em_roles = {x for x in poset.elements if frozenset(["EM"]) <= poset.weights[x]}
        assert em_roles == {"CEO", "COO", "HR"}
        for antichain in maximal_antichains(poset):
            assert set(antichain) & em_roles, antichain


class TestDilworthDirect:
    def test_competency_fixture_values(self):
        report = dilworth_direct(competency_poset())
        assert report.lhs == frozenset(["EM"])
        assert report.rhs == frozenset(["EM"])
        assert report.equal
        assert list(report.chain_values) == [
            frozenset(),
            frozenset(),
            frozenset(),
            frozenset(["EM"]),
            frozenset(),
        ]

    def test_single_element(self):
        L = ChainLattice(5)
        poset = WeightedPoset(["x"], [], {"x": 2}, L)
        report = dilworth_direct(poset)
        assert report.lhs == report.rhs == 2

    def test_n_poset_sides_differ(self):
        # the identity genuinely fails here: the chain side keeps "p"
        # through the a < d chain while the antichain {b, c} has join
        # empty, so the two folds land on different values
        report = dilworth_direct(n_poset())
        assert report.lhs == frozenset("p")
        assert report.rhs == frozenset()
        assert not report.equal

    def test_transversal_gap_poset_sides_differ(self):
        # the antichain round trip holds, so no maximal antichain misses a
        # maximal chain; the chain side still drops "p" while every maximal
        # antichain ({a, d}, {b, c, d}, {c, e}) carries it, and the network
        # cut side lands on the fold over the transversal {a, e}
        poset = transversal_gap_poset()
        assert maximal_antichains(poset) == [("a", "d"), ("b", "c", "d"), ("c", "e")]
        assert check_correspondences(poset).antichain_roundtrip_ok
        direct = dilworth_direct(poset)
        via = dilworth_via_network(poset)
        assert direct.lhs == frozenset()
        assert direct.rhs == frozenset("p")
        assert not direct.equal
        L = poset.lattice
        assert via.rhs == L.join(poset.weights["a"], poset.weights["e"]) == direct.lhs


class TestAuxiliaryNetwork:
    def test_two_chain_construction(self):
        L = ChainLattice(6)
        poset = WeightedPoset(["x", "y"], [("x", "y")], {"x": 2, "y": 5}, L)
        net, cap = auxiliary_network(poset)
        assert net.edges == (("s", "x"), ("x", "y"), ("y", "t"))
        assert cap[("s", "x")] == 5  # join of all weights
        assert cap[("x", "y")] == 2
        assert cap[("y", "t")] == 5

    def test_competency_shape(self):
        net, _ = auxiliary_network(competency_poset())
        source_edges = [e for e in net.edges if e[0] == net.source]
        sink_edges = [e for e in net.edges if e[1] == net.sink]
        assert {e[1] for e in source_edges} == {"JD", "QA", "HR", "MS"}
        assert [e[0] for e in sink_edges] == ["CEO"]

    def test_antichain_poset_gives_parallel_corridors(self):
        net, _ = auxiliary_network(antichain_poset(3))
        assert len(net.edges) == 6  # s->x_i and x_i->t for each of the three

    def test_strict_valid(self):
        rng = random.Random(61)
        for _ in range(20):
            poset = random_weighted_poset(rng, ChainLattice(4), max_elements=6)
            net, _ = auxiliary_network(poset)
            assert validate_network(net, "strict").ok

    def test_name_clash_avoided(self):
        L = ChainLattice(2)
        poset = WeightedPoset(["s", "t"], [("s", "t")], {"s": 0, "t": 1}, L)
        net, _ = auxiliary_network(poset)
        assert net.source not in ("s", "t")
        assert net.sink not in ("s", "t")


class TestDilworthViaNetwork:
    def test_competency_agreement(self):
        direct = dilworth_direct(competency_poset())
        via = dilworth_via_network(competency_poset())
        assert (via.lhs, via.rhs) == (direct.lhs, direct.rhs) == (frozenset(["EM"]),) * 2

    def test_total_order_meets_all_weights(self):
        poset = total_order([3, 1, 4, 2])
        report = dilworth_via_network(poset)
        assert report.lhs == report.rhs == 1

    def test_chain_side_always_agrees_with_direct(self):
        # the chain/path bijection is unconditional, so the lhs values
        # must match even on posets where the antichain side detaches
        rng = random.Random(71)
        for _ in range(25):
            poset = random_weighted_poset(rng, random_distributive_lattice(rng), max_elements=6)
            assert dilworth_via_network(poset).lhs == dilworth_direct(poset).lhs

    def test_auto_routes_equal_the_bruteforce_walk(self):
        # the walk stays the network route's oracle, on posets of both
        # verdicts and over lattices of both certificates
        rng = random.Random(79)
        posets = [n_poset(), transversal_gap_poset(), complete_bipartite_poset(), pentagon_poset()]
        for i in range(60):
            lattice = random_any_lattice(rng) if i % 3 else random_distributive_lattice(rng)
            posets.append(random_weighted_poset(rng, lattice, max_elements=13))
        routes, known_red = Counter(), 0
        for poset in posets:
            net, cap = poset.network
            walk = verify_duality(net, cap, mode="strict", method="bruteforce")
            auto = verify_duality(net, cap, mode="strict")
            via = dilworth_via_network(poset)
            assert (auto.alpha, auto.beta) == (via.lhs, via.rhs) == (walk.alpha, walk.beta)
            routes[auto.alpha_method, auto.beta_method] += 1
            known_red += dilworth_direct(poset).rhs != via.rhs
        assert set(routes) == {("dp", "threshold"), ("bruteforce", "bruteforce")} and known_red

    @pytest.mark.parametrize(
        "lattice, message",
        [({"kind": "chain", "levels": 3}, "antichain enumeration capped at 20 elements"),
         ({"kind": "pentagon"}, "cut enumeration needs 2^21 partitions; cap is 22 vertices")],
        ids=["certified", "uncertified"],
    )
    def test_a_21_element_poset_stops_at_the_first_cap_its_route_meets(self, lattice, message, tmp_path, capsys):
        # certified: the network sides enumerate no cuts, so the antichain
        # list the report shows is the first to refuse
        elements = [f"p{i}" for i in range(21)]
        weight = 1 if lattice["kind"] == "chain" else "a"
        doc = {"lattice": lattice, "elements": elements, "covers": [], "weights": dict.fromkeys(elements, weight)}
        f = tmp_path / "wide.json"
        f.write_text(json.dumps(doc))
        _, code = run_command(["dilworth", str(f), "--method", "network"])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("method", ["direct", "network", "both"])
    def test_a_chain_past_the_cap_is_refused_before_its_order_is_built(self, method, monkeypatch, tmp_path, capsys):
        # a certified lattice: every route lists the antichains before any
        # other capped work, so the file is refused as it is loaded
        elements = [f"p{i}" for i in range(1200)]
        doc = {
            "lattice": {"kind": "chain", "levels": 3},
            "elements": elements,
            "covers": [[a, b] for a, b in zip(elements, elements[1:])],
            "weights": dict.fromkeys(elements, 1),
        }
        f = tmp_path / "chain.json"
        f.write_text(json.dumps(doc))
        orders = []
        partial_order = dilworth.partial_order
        monkeypatch.setattr(dilworth, "partial_order", lambda *args: orders.append(1) or partial_order(*args))
        started = time.perf_counter()
        _, code = run_command(["dilworth", str(f), "--method", method])
        elapsed = time.perf_counter() - started
        assert code == 1 and not orders
        assert capsys.readouterr().err == "error: antichain enumeration capped at 20 elements\n"
        assert elapsed < 0.25  # building the order took 0.5-1.1 s

    def test_n_poset_network_side_stays_self_dual(self):
        # network duality holds (the lattice is distributive) even though
        # the poset antichain fold disagrees with it
        direct = dilworth_direct(n_poset())
        via = dilworth_via_network(n_poset())
        assert via.equal
        assert via.lhs == via.rhs == direct.lhs == frozenset("p")
        assert via.rhs != direct.rhs


class TestCorrespondences:
    def test_competency_chain_path_bijection(self):
        poset = competency_poset()
        net, _ = auxiliary_network(poset)
        assert len(enumerate_paths(net)) == len(maximal_chains(poset)) == 5
        report = check_correspondences(poset)
        assert report.chains_match_paths

    def test_antichain_poset_single_cut(self):
        report = check_correspondences(antichain_poset(3))
        assert report.ok
        assert report.antichain_count == report.poset_edge_cut_count == 1

    def test_total_orders_roundtrip(self):
        report = check_correspondences(total_order([2, 0, 1]))
        assert report.ok

    def test_disjoint_chains_roundtrip(self):
        # two disjoint 2-chains: the four maximal antichains pick one
        # element per chain and correspond exactly to the four minimal
        # cuts over cover/sink edges
        L = ChainLattice(5)
        poset = WeightedPoset(
            ["x0", "x1", "y0", "y1"],
            [("x0", "x1"), ("y0", "y1")],
            {"x0": 1, "x1": 2, "y0": 3, "y1": 4},
            L,
        )
        report = check_correspondences(poset)
        assert report.ok, report.problems
        assert report.antichain_count == report.poset_edge_cut_count == 4

    def test_layered_poset_values_agree_despite_broken_bijection(self):
        # complete bipartite two-layer poset: the identity holds (both
        # sides fold to join-of-layer-meets) yet a minimal cut with
        # comparable crossing sources exists, so the bijection breaks
        L = ChainLattice(5)
        poset = WeightedPoset(
            ["m1", "m2", "f1", "f2"],
            [("m1", "f1"), ("m1", "f2"), ("m2", "f1"), ("m2", "f2")],
            {"m1": 1, "m2": 2, "f1": 3, "f2": 4},
            L,
        )
        direct = dilworth_direct(poset)
        via = dilworth_via_network(poset)
        assert direct.equal and via.equal
        assert (direct.lhs, direct.rhs) == (via.lhs, via.rhs)
        report = check_correspondences(poset)
        assert not report.ok
        assert not report.cut_roundtrip_ok

    def test_n_poset_correspondence_breaks(self):
        report = check_correspondences(n_poset())
        assert not report.ok
        assert not report.cut_roundtrip_ok or not report.antichain_roundtrip_ok
        assert report.problems


def red_problems(poset) -> tuple[str, ...]:
    report = check_correspondences(poset)
    assert not report.ok
    return report.problems


class TestCorrespondencesGoRed:
    """Faults planted in what the check reads, on the three-element chain
    that ``test_total_orders_roundtrip`` finds green: each problem message
    appears and ``ok`` is False."""

    def test_a_dropped_path(self, monkeypatch):
        paths = dilworth.enumerate_paths
        monkeypatch.setattr(dilworth, "enumerate_paths", lambda net: paths(net)[1:])
        assert "stripped paths differ from maximal chains" in red_problems(total_order([2, 0, 1]))

    def test_a_side_without_its_minimal_elements(self, monkeypatch):
        poset = total_order([2, 0, 1])
        monkeypatch.setattr(
            dilworth, "_cut_for_antichain", lambda *args: _cut_for_antichain(*args) - set(poset.minimal_elements())
        )
        problems = red_problems(poset)
        assert "cut for antichain ('x1',) crosses a source edge" in problems
        assert "cut with sources ('x1',) does not round-trip" in problems

    def test_a_side_without_its_middle(self, monkeypatch):
        def without_middle(poset, net, antichain):
            keep = {net.source, *poset.minimal_elements(), *antichain}
            return frozenset(x for x in _cut_for_antichain(poset, net, antichain) if x in keep)

        monkeypatch.setattr(dilworth, "_cut_for_antichain", without_middle)
        assert "cut for antichain ('x2',) is not a minimal cut" in red_problems(total_order([2, 0, 1]))

    def test_a_missing_antichain(self, monkeypatch):
        poset = total_order([2, 0, 1])
        monkeypatch.setattr(poset, "antichains", poset.antichains[1:])
        assert "minimal cut sources ('x0',) are not a maximal antichain" in red_problems(poset)


def reference_maximal_antichains(poset):
    """The 2^n mask scan the clique enumeration must reproduce, order included."""
    elems, n = poset.elements, len(poset.elements)
    out = []
    for mask in range(1, 2**n):
        members = [elems[i] for i in range(n) if mask >> i & 1]
        if any(poset.comparable(x, y) for x, y in itertools.combinations(members, 2)):
            continue
        if any(
            x not in members and not any(poset.comparable(x, y) for y in members)
            for x in elems
        ):
            continue
        out.append(tuple(members))
    return out


class TestEnumerationContract:
    def posets(self, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            yield random_weighted_poset(rng, random_distributive_lattice(rng), max_elements=12)

    def test_maximal_antichains_match_mask_scan(self):
        for poset in self.posets(53, 40):
            assert maximal_antichains(poset) == reference_maximal_antichains(poset)

    def test_auxiliary_network_cut_side_matches_reference(self):
        from test_network import reference_cut_side, reference_minimal_cuts

        for poset in self.posets(59, 12):
            net, cap = auxiliary_network(poset)
            assert minimal_cuts(net) == reference_minimal_cuts(net)
            report = verify_duality(net, cap, mode="strict", method="bruteforce")
            n_cuts, witness, beta = reference_cut_side(net, cap, "strict")
            assert (report.beta, report.n_cuts, report.optimal_cut) == (beta, n_cuts, witness)
            assert dilworth_via_network(poset).rhs == beta


def reference_correspondences(poset):
    """The correspondence check on fresh enumerations: ``minimal_cuts``
    and ``crossing_edges`` over the whole walk, then a frozenset scan
    per antichain and per cut."""
    net, _ = auxiliary_network(poset)
    problems = []
    paths = enumerate_paths(net)
    chains = maximal_chains(poset)
    chains_match = sorted(p[1:-1] for p in paths) == sorted(chains)
    if not chains_match:
        problems.append("stripped paths differ from maximal chains")
    poset_edges = {e for e in net.edges if e[0] != net.source}
    mcut_crossings = [frozenset(crossing_edges(net, c)) for c in minimal_cuts(net)]
    in_poset_edges = [x for x in mcut_crossings if x <= poset_edges]
    antichains = maximal_antichains(poset)
    antichain_rt_ok = True
    for a in antichains:
        s_side = _cut_for_antichain(poset, net, a)
        crossing = frozenset(e for e in net.edges if e[0] in s_side and e[1] not in s_side)
        if not crossing <= poset_edges:
            antichain_rt_ok = False
            problems.append(f"cut for antichain {a} crosses a source edge")
            continue
        if crossing not in in_poset_edges:
            antichain_rt_ok = False
            problems.append(f"cut for antichain {a} is not a minimal cut")
            continue
        back = tuple(sorted({e[0] for e in crossing}, key=poset.elements.index))
        if back != a:
            antichain_rt_ok = False
            problems.append(f"antichain {a} round-trips to {back}")
    cut_rt_ok = True
    for crossing in in_poset_edges:
        sources = tuple(sorted({e[0] for e in crossing}, key=poset.elements.index))
        if any(poset.comparable(x, y) for x, y in itertools.combinations(sources, 2)):
            cut_rt_ok = False
            problems.append(f"minimal cut sources {sources} are not an antichain")
            continue
        if sources not in antichains:
            cut_rt_ok = False
            problems.append(f"minimal cut sources {sources} are not a maximal antichain")
            continue
        s_side = _cut_for_antichain(poset, net, sources)
        back = frozenset(e for e in net.edges if e[0] in s_side and e[1] not in s_side)
        if back != crossing:
            cut_rt_ok = False
            problems.append(f"cut with sources {sources} does not round-trip")
    bijective_counts = len(antichains) == len(in_poset_edges)
    if not bijective_counts:
        problems.append(
            f"{len(antichains)} maximal antichains vs {len(in_poset_edges)} "
            "minimal cuts over cover/sink edges"
        )
    return CorrespondenceReport(
        ok=chains_match and antichain_rt_ok and cut_rt_ok and bijective_counts,
        chain_count=len(chains),
        path_count=len(paths),
        chains_match_paths=chains_match,
        antichain_count=len(antichains),
        poset_edge_cut_count=len(in_poset_edges),
        antichain_roundtrip_ok=antichain_rt_ok,
        cut_roundtrip_ok=cut_rt_ok,
        problems=tuple(problems),
    )


class TestCorrespondenceContract:
    def test_random_posets_match_reference(self):
        rng = random.Random(67)
        posets = [random_weighted_poset(rng, random_distributive_lattice(rng), max_elements=12) for _ in range(60)]
        # then 13 elements, the largest benchmark poset, where minimal cuts far outnumber antichains
        while len(posets) < 72:
            poset = random_weighted_poset(rng, random_distributive_lattice(rng), max_elements=13)
            if len(poset.elements) == 13:
                posets.append(poset)
        broken = 0
        for poset in posets:
            report = check_correspondences(poset)
            assert report == reference_correspondences(poset), poset
            broken += not report.ok
        assert 0 < broken < len(posets)  # both verdicts are exercised

    @pytest.mark.parametrize(
        "make",
        [n_poset, transversal_gap_poset, complete_bipartite_poset,
         lambda: antichain_poset(3), lambda: total_order([3, 1, 4, 2])],
        ids=["n-poset", "transversal-gap", "bipartite-2+2", "antichain", "total-order"],
    )
    def test_pinned_posets_match_reference(self, make):
        assert check_correspondences(make()) == reference_correspondences(make())


def count_enumerations(monkeypatch, argv):
    """Run the CLI with every binding of the enumerations wrapped, as the
    benchmark's span recorders do. Of the cut lister's calls, the network
    route's count, not the correspondence check's."""
    from latticeflow import bottleneck, dilworth

    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    wrappers = [
        (dilworth.maximal_chains, counted("maximal_chains", dilworth.maximal_chains)),
        (dilworth.maximal_antichains, counted("maximal_antichains", dilworth.maximal_antichains)),
        (dilworth.auxiliary_network, counted("auxiliary_network", dilworth.auxiliary_network)),
    ]
    monkeypatch.setattr(bottleneck, "minimal_cut_masks", counted("cut listings", bottleneck.minimal_cut_masks))
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "latticeflow"]
    for module in modules:
        for attr, value in list(vars(module).items()):
            for original, wrapper in wrappers:
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    _, code = run_command(argv)
    return counts, code


class TestOneEnumerationPerPoset:
    @pytest.mark.parametrize("poset", ["competencies", "survival", "n-poset"])
    def test_both_routes_and_correspondences_enumerate_once(self, poset, monkeypatch, tmp_path, capsys):
        path = tmp_path / "poset.json"
        if poset == "n-poset":
            path.write_text(json.dumps(instance_to_dict(Instance(n_poset().lattice, poset, poset=n_poset()))))
        else:
            path.write_text(gallery_source(poset))
        counts, _ = count_enumerations(
            monkeypatch, ["dilworth", str(path), "--method", "both", "--correspondences"]
        )
        # certified lattices: the network route lists no cuts
        assert counts == {"maximal_chains": 1, "maximal_antichains": 1, "auxiliary_network": 1}

    @pytest.mark.parametrize("method, listings", [("both", 1), ("network", 1), ("direct", 0)])
    def test_an_uncertified_lattice_lists_cuts_for_the_network_route_only(self, method, listings, monkeypatch, tmp_path, capsys):
        poset = pentagon_poset()
        path = tmp_path / "poset.json"
        path.write_text(json.dumps(instance_to_dict(Instance(poset.lattice, "pentagon-poset", poset=poset))))
        counts, _ = count_enumerations(monkeypatch, ["dilworth", str(path), "--method", method, "--correspondences"])
        expected = {"maximal_chains": 1, "maximal_antichains": 1, "auxiliary_network": 1}
        assert counts == ({**expected, "cut listings": listings} if listings else expected)

    def test_direct_route_builds_no_network(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "poset.json"
        path.write_text(gallery_source("competencies"))
        counts, code = count_enumerations(monkeypatch, ["dilworth", str(path), "--method", "direct"])
        assert code == 0
        assert counts == {"maximal_chains": 1, "maximal_antichains": 1}

    @pytest.mark.parametrize("method", ["both", "network"])
    def test_each_chain_and_antichain_is_folded_once(self, method, monkeypatch, tmp_path, capsys):
        from latticeflow import cli, dilworth

        path = tmp_path / "poset.json"
        path.write_text(gallery_source("competencies"))
        folds = Counter()
        for name in ("chain_value", "antichain_value"):
            def counted(poset, items, name=name, fn=getattr(dilworth, name)):
                folds[name] += 1
                return fn(poset, items)
            monkeypatch.setattr(dilworth, name, counted)
        fresh_from_cli = []
        direct = cli.dilworth_direct

        def cli_direct(poset):
            fresh_from_cli.append(getattr(poset, "_direct_report", None) is None)
            return direct(poset)

        monkeypatch.setattr(cli, "dilworth_direct", cli_direct)
        report, code = run_command(["dilworth", str(path), "--method", method, "--format", "json"])
        assert code == 0
        listed = report["network"]
        assert folds == {"chain_value": len(listed["chains"]), "antichain_value": len(listed["antichains"])}
        # with both routes the CLI's own call is the one that folds
        assert fresh_from_cli == ([True] if method == "both" else [])

    def test_public_functions_still_enumerate_afresh(self):
        poset = competency_poset()
        assert maximal_chains(poset) is not maximal_chains(poset)
        assert poset.chains is poset.chains
        assert list(poset.chains) == maximal_chains(poset)
        assert list(poset.antichains) == maximal_antichains(poset)
