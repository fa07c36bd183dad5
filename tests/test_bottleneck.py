import random

import pytest

from latticeflow import (
    CapacityAssignment,
    ChainLattice,
    DistributivityRequired,
    DiamondLattice,
    FlowNetwork,
    IntervalGridLattice,
    PentagonLattice,
    PowersetLattice,
    ProductLattice,
    alpha_bruteforce,
    alpha_dp,
    beta_bruteforce,
    beta_threshold,
    check_distributive,
    counterexample_for,
    cut_capacity,
    enumerate_cuts,
    enumerate_paths,
    gallery_instance,
    path_throughput,
    verify_duality,
)
from latticeflow.bottleneck import _cut_side, _threshold_side, first_path_at_least
from latticeflow.network import Cut, count_paths
from latticeflow.generators import (
    add_dead_ends,
    random_any_lattice,
    random_capacities,
    random_explicit_lattice,
    random_instance,
    random_network,
)
from test_lattices import certified_lattice


def pentagon_instance():
    inst = gallery_instance("pentagon")
    return inst.network, inst.capacities


def diamond_instance():
    inst = gallery_instance("diamond")
    return inst.network, inst.capacities


def two_route_instance():
    # both routes bottleneck to the empty set; their join is empty as well
    net = FlowNetwork(["s", "u", "v", "t"], [("s", "u"), ("u", "t"), ("s", "v"), ("v", "t")], "s", "t")
    L = PowersetLattice("ab")
    cap = CapacityAssignment(
        L,
        {
            ("s", "u"): frozenset("a"),
            ("u", "t"): frozenset("b"),
            ("s", "v"): frozenset("b"),
            ("v", "t"): frozenset("a"),
        },
    )
    return net, cap


class TestPathThroughput:
    def test_pentagon_a_path(self):
        net, cap = pentagon_instance()
        assert path_throughput(net, cap, ("s", "u", "w", "t")) == "0"  # a ^ 1 ^ b

    def test_single_edge(self):
        net = FlowNetwork(["s", "t"], [("s", "t")], "s", "t")
        cap = CapacityAssignment(ChainLattice(5), {("s", "t"): 3})
        assert path_throughput(net, cap, ("s", "t")) == 3

    def test_diamond_indirect_path(self):
        net, cap = diamond_instance()
        assert path_throughput(net, cap, ("s", "u", "t")) == "0"  # b ^ c

    def test_invalid_path_rejected(self):
        net, cap = diamond_instance()
        with pytest.raises(ValueError):
            path_throughput(net, cap, ("s", "x", "t"))


class TestCutCapacity:
    def test_diamond_source_side_cut(self):
        net, cap = diamond_instance()
        cut = Cut(frozenset({"s"}), frozenset({"u", "t"}))
        assert cut_capacity(net, cap, cut) == "1"  # a v b

    def test_pentagon_cut_with_c_and_b(self):
        net, cap = pentagon_instance()
        cut = Cut(frozenset({"s", "u", "w"}), frozenset({"v", "t"}))
        assert cut_capacity(net, cap, cut) == "b"  # c v b = b

    def test_single_edge(self):
        net = FlowNetwork(["s", "t"], [("s", "t")], "s", "t")
        cap = CapacityAssignment(ChainLattice(4), {("s", "t"): 2})
        assert cut_capacity(net, cap, Cut(frozenset("s"), frozenset("t"))) == 2


class TestBruteforceSides:
    def test_pentagon(self):
        net, cap = pentagon_instance()
        assert alpha_bruteforce(net, cap) == "c"
        assert beta_bruteforce(net, cap) == "b"

    def test_diamond(self):
        net, cap = diamond_instance()
        assert alpha_bruteforce(net, cap) == "a"
        assert beta_bruteforce(net, cap) == "1"

    def test_two_route_instance_meets_to_empty(self):
        net, cap = two_route_instance()
        assert alpha_bruteforce(net, cap) == frozenset()
        assert beta_bruteforce(net, cap) == frozenset()
        # every individual cut sits strictly above the beta fold
        for cut in enumerate_cuts(net):
            assert cut_capacity(net, cap, cut) != frozenset()


class TestAlphaDp:
    def test_single_edge(self):
        net = FlowNetwork(["s", "t"], [("s", "t")], "s", "t")
        cap = CapacityAssignment(ChainLattice(5), {("s", "t"): 4})
        assert alpha_dp(net, cap) == 4

    def test_refuses_non_distributive(self):
        net, cap = pentagon_instance()
        with pytest.raises(DistributivityRequired):
            alpha_dp(net, cap)

    def test_override_on_diamond_happens_to_agree(self):
        net, cap = diamond_instance()
        assert alpha_dp(net, cap, allow_non_distributive=True) == "a"

    def test_matches_bruteforce_on_random_distributive(self):
        rng = random.Random(99)
        for _ in range(50):
            net, cap = random_instance(rng, max_vertices=8)
            assert alpha_dp(net, cap) == alpha_bruteforce(net, cap)

    def test_rejects_cyclic_graph(self):
        net = FlowNetwork(["s", "u", "v", "t"], [("s", "u"), ("u", "v"), ("v", "u"), ("v", "t")], "s", "t")
        cap = CapacityAssignment(ChainLattice(3), {e: 1 for e in net.edges})
        with pytest.raises(ValueError):
            alpha_dp(net, cap)


class TestVerifyDuality:
    def test_pentagon_report(self):
        net, cap = pentagon_instance()
        report = verify_duality(net, cap)
        assert (report.alpha, report.beta, report.equal) == ("c", "b", False)
        assert report.alpha_method == "bruteforce"  # auto backs off the DP here
        assert report.n_paths == 2 and report.n_cuts == 8

    def test_supply_chain_equal(self):
        inst = gallery_instance("supply-chain")
        report = verify_duality(inst.network, inst.capacities)
        assert report.equal

    def test_witnesses_on_two_route_instance(self):
        net, cap = two_route_instance()
        report = verify_duality(net, cap)
        assert report.equal and report.alpha == frozenset()
        assert report.optimal_path is not None
        assert report.optimal_cut is None

    def test_no_optimal_path_instance(self):
        inst = gallery_instance("no-optimal-path")
        report = verify_duality(inst.network, inst.capacities)
        assert report.equal
        assert report.optimal_path is None
        assert report.optimal_cut is not None

    def test_auto_uses_dp_on_distributive(self):
        inst = gallery_instance("supply-chain")
        report = verify_duality(inst.network, inst.capacities, method="auto")
        assert report.alpha_method == "dp"
        oracle = verify_duality(inst.network, inst.capacities, method="bruteforce")
        assert report.alpha == oracle.alpha


def enumerated_witness(net, cap, alpha):
    """The first enumerated path whose throughput is ``alpha``."""
    return next((p for p in enumerate_paths(net) if path_throughput(net, cap, p) == alpha), None)


class TestDpPathSide:
    """The ``dp`` route counts the paths and finds its witness without
    listing paths; both must be what enumeration gives."""

    def assert_matches_enumeration(self, net, cap, mode):
        report = verify_duality(net, cap, mode=mode, method="dp", allow_non_distributive=True)
        assert report.n_paths == len(enumerate_paths(net)) == count_paths(net)
        assert report.optimal_path == enumerated_witness(net, cap, report.alpha)
        oracle = verify_duality(net, cap, mode=mode, method="bruteforce")
        assert oracle.n_paths == report.n_paths
        if oracle.alpha == report.alpha:
            assert oracle.optimal_path == report.optimal_path
        return report

    def test_differential_instances_in_both_modes(self):
        from test_network import differential_instances

        witnesses = missing = 0
        for net, cap in differential_instances(11, 300):
            for mode in ("strict", "lenient"):
                report = self.assert_matches_enumeration(net, cap, mode)
                witnesses += report.optimal_path is not None
                missing += report.optimal_path is None
        assert witnesses > 500 and missing > 0

    def test_layered_dead_end_and_no_path_networks(self):
        from test_network import layered_network

        rng = random.Random(19)
        nets = [layered_network(w, l) for w, l in ((1, 1), (2, 5), (3, 4), (4, 3))]
        nets += [add_dead_ends(rng, random_network(rng, max_vertices=8)) for _ in range(20)]
        nets += [
            FlowNetwork(["s", "t"], [], "s", "t"),
            FlowNetwork(["s", "a", "t"], [("s", "a")], "s", "t"),
            FlowNetwork(["s", "u", "v", "t"], [("s", "u"), ("v", "t")], "s", "t"),
            FlowNetwork(["s", "a", "b", "t"], [("s", "a"), ("b", "t"), ("b", "a")], "s", "t"),
        ]
        lattice = PowersetLattice("abc")
        for net in nets:
            for _ in range(3):
                cap = random_capacities(rng, net, lattice)
                for mode in ("strict", "lenient"):
                    self.assert_matches_enumeration(net, cap, mode)
        assert count_paths(layered_network(10, 7)) == 10**7

    def test_counterexample_networks_with_the_override(self):
        for lattice in non_distributive_lattices():
            net, cap = counterexample_for(lattice)
            report = self.assert_matches_enumeration(net, cap, "strict")
            assert report.alpha_method == "dp"

    def test_a_path_of_every_threshold(self):
        # the helper finds a path of G_j for any j, not only for alpha
        inst = gallery_instance("supply-chain")
        net, cap = inst.network, inst.capacities
        for j in cap.lattice.element_list():
            in_g_j = [p for p in enumerate_paths(net) if all(cap.lattice.leq(j, cap[e]) for e in zip(p, p[1:]))]
            assert first_path_at_least(net, cap, j) == (in_g_j[0] if in_g_j else None)


class TestThresholdSide:
    def instances(self, seed, count):
        """Networks of 2-10 vertices over every certified kind; every third
        one gains dead ends, and every tenth loses its edges into the sink."""
        rng = random.Random(seed)
        for i in range(count):
            net, cap = random_instance(rng, lattice_factory=certified_lattice)
            if i % 3 == 1:
                net = add_dead_ends(rng, net)
            if i % 10 == 2:
                net = FlowNetwork(net.vertices, [e for e in net.edges if e[1] != net.sink], net.source, net.sink)
            yield net, random_capacities(rng, net, cap.lattice)

    def test_matches_the_partition_walk(self):
        kinds, no_path = set(), 0
        for net, cap in self.instances(83, 2100):
            n_cuts, cut, beta = _cut_side(net, cap, "strict", 22)
            assert _threshold_side(net, cap) == (cut, beta), (net, cap.lattice.describe())
            kinds.add(cap.lattice.kind)
            no_path += not net.in_edges(net.sink)
        assert kinds == {"chain", "powerset", "downset", "ring", "intervals", "survival", "explicit", "product"}
        assert no_path >= 200

    def test_witness_and_value_on_a_chain(self):
        # s -> u -> t and s -> t: beta is max(min(3, 1), 2) = 2, and the
        # cut {s, u} crosses u -> t (1) and s -> t (2), both <= 2
        net = FlowNetwork(["s", "u", "t"], [("s", "u"), ("u", "t"), ("s", "t")], "s", "t")
        cap = CapacityAssignment(ChainLattice(4), {("s", "u"): 3, ("u", "t"): 1, ("s", "t"): 2})
        assert _threshold_side(net, cap) == (Cut(frozenset("su"), frozenset("t")), 2)
        assert beta_threshold(net, cap) == 2

    def test_refuses_the_pentagon(self):
        net, cap = pentagon_instance()
        with pytest.raises(DistributivityRequired, match="threshold cut side") as info:
            beta_threshold(net, cap)
        assert "allow_non_distributive" not in str(info.value)

    def test_only_strict_auto_takes_it(self):
        inst = gallery_instance("supply-chain")
        net, cap = inst.network, inst.capacities
        auto = verify_duality(net, cap)
        assert (auto.alpha_method, auto.beta_method) == ("dp", "threshold")
        assert auto.n_cuts == 2 ** (len(net.vertices) - 2)
        for mode, method in (("lenient", "auto"), ("strict", "dp"), ("strict", "bruteforce")):
            report = verify_duality(net, cap, mode=mode, method=method)
            assert report.beta_method == "bruteforce"
            assert (report.beta, report.optimal_cut) == (auto.beta, auto.optimal_cut)

    def test_a_fine_interval_grid(self):
        L = IntervalGridLattice(0.0001)
        assert len(L.join_irreducibles()) == 20_000
        rng = random.Random(97)
        for _ in range(12):
            net = random_network(rng, 7)
            caps = {e: L.parse(sorted(rng.randint(0, 10_000) / 10_000 for _ in "lh")) for e in net.edges}
            cap = CapacityAssignment(L, caps)
            _, cut, beta = _cut_side(net, cap, "strict", 22)
            assert beta_threshold(net, cap) == beta == beta_bruteforce(net, cap) == alpha_dp(net, cap)
            assert _threshold_side(net, cap) == (cut, beta)

    def test_no_vertex_cap(self):
        from test_network import layered_network

        net = layered_network(7, 4)
        cap = random_capacities(random.Random(89), net, ChainLattice(5))
        report = verify_duality(net, cap, max_vertices=22)
        assert len(net.vertices) == 30 and report.beta_method == "threshold"
        assert report.equal and report.n_cuts == 2**28


def reference_counterexample(lattice):
    """Both counterexample templates built by hand: an N5 witness fills
    the five-edge two-path network, an M3 witness the three-edge one."""
    witness = check_distributive(lattice).sublattice
    if witness.label == "N5":
        net = FlowNetwork(
            ["s", "u", "v", "w", "t"],
            [("s", "u"), ("s", "v"), ("u", "w"), ("v", "w"), ("w", "t")],
            "s",
            "t",
        )
        roles = {("s", "u"): "a", ("s", "v"): "c", ("u", "w"): "1", ("v", "w"): "1", ("w", "t"): "b"}
    else:
        net = FlowNetwork(["s", "u", "t"], [("s", "t"), ("s", "u"), ("u", "t")], "s", "t")
        roles = {("s", "t"): "a", ("s", "u"): "b", ("u", "t"): "c"}
    return net, CapacityAssignment(lattice, {e: witness.embedding[r] for e, r in roles.items()})


def non_distributive_lattices():
    fixed = [
        PentagonLattice(),
        DiamondLattice(),
        ProductLattice([PentagonLattice(), ChainLattice(2)]),
        ProductLattice([ChainLattice(3), DiamondLattice()]),
        ProductLattice([PowersetLattice("ab"), PentagonLattice()]),
        ProductLattice([DiamondLattice(), PentagonLattice()]),
    ]
    rng, drawn = random.Random(24), []
    while len(drawn) < 30:
        lattice = random_explicit_lattice(rng)
        if not check_distributive(lattice).distributive:
            drawn.append(lattice)
    return fixed + drawn


class TestCounterexampleFor:
    def test_matches_the_hand_built_templates(self):
        labels = set()
        for lattice in non_distributive_lattices():
            labels.add(check_distributive(lattice).sublattice.label)
            net, cap = counterexample_for(lattice)
            ref_net, ref_cap = reference_counterexample(lattice)
            assert (net.vertices, net.edges, net.source, net.sink) == (
                ref_net.vertices, ref_net.edges, ref_net.source, ref_net.sink
            ), lattice.describe()
            assert list(cap.items()) == list(ref_cap.items()), lattice.describe()
            assert cap.lattice is lattice
            assert verify_duality(net, cap, method="bruteforce").equal is False, lattice.describe()
        assert labels == {"N5", "M3"}

    def test_pentagon_template(self):
        L = PentagonLattice()
        net, cap = counterexample_for(L)
        assert len(net.edges) == 5
        report = verify_duality(net, cap, method="bruteforce")
        assert (report.alpha, report.beta, report.equal) == ("c", "b", False)

    def test_diamond_template(self):
        L = DiamondLattice()
        net, cap = counterexample_for(L)
        assert len(net.edges) == 3
        report = verify_duality(net, cap, method="bruteforce")
        assert (report.alpha, report.beta, report.equal) == ("a", "1", False)

    def test_product_with_embedded_pentagon(self):
        L = ProductLattice([PentagonLattice(), ChainLattice(2)])
        net, cap = counterexample_for(L)
        report = verify_duality(net, cap, method="bruteforce")
        assert not report.equal

    def test_rejects_distributive_lattice(self):
        with pytest.raises(ValueError):
            counterexample_for(PowersetLattice("ab"))


class TestWeakDuality:
    def test_holds_for_non_distributive_lattices_too(self):
        rng = random.Random(4)
        for _ in range(60):
            net, cap = random_instance(rng, lattice_factory=random_any_lattice, max_vertices=7)
            alpha = alpha_bruteforce(net, cap)
            beta = beta_bruteforce(net, cap)
            assert cap.lattice.leq(alpha, beta)


class TestDeadEnds:
    def test_lenient_duality_with_dead_ends(self):
        from latticeflow.generators import add_dead_ends, random_capacities, random_network

        rng = random.Random(31)
        for _ in range(30):
            net = add_dead_ends(rng, random_network(rng, max_vertices=6))
            cap = random_capacities(rng, net, PowersetLattice("abc"))
            alpha = alpha_bruteforce(net, cap)
            beta = beta_bruteforce(net, cap, mode="lenient")
            assert alpha == beta

    def test_no_path_gives_bottom_on_both_sides(self):
        net = FlowNetwork(["s", "d", "t"], [("s", "d")], "s", "t")
        L = ChainLattice(4)
        cap = CapacityAssignment(L, {("s", "d"): 3})
        assert alpha_bruteforce(net, cap) == 0
        assert beta_bruteforce(net, cap, mode="lenient") == 0

    def test_beta_all_cuts_equals_beta_minimal_cuts(self):
        rng = random.Random(37)
        for _ in range(20):
            net, cap = random_instance(rng, max_vertices=7)
            assert beta_bruteforce(net, cap, mode="strict") == beta_bruteforce(net, cap, mode="lenient")

    def test_layered_row_lists_every_minimal_cut(self):
        # 18 vertices, 65,056 distinct crossing sets: the minimal cuts are
        # listed by their source sides, not filtered pairwise out of the walk
        from test_network import layered_network

        net = layered_network(4, 4)
        rng = random.Random(404)
        cap = CapacityAssignment(PowersetLattice("abcdef"), {e: frozenset(rng.sample("abcdef", 3)) for e in net.edges})
        report = verify_duality(net, cap, mode="lenient")
        assert (report.n_cuts, report.beta_method) == (44553, "bruteforce")
        assert report.beta == beta_threshold(net, cap) == frozenset("abcdf")
