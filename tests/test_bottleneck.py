import random

import pytest

from latticeflow import (
    CapacityAssignment,
    ChainLattice,
    DistributivityRequired,
    DiamondLattice,
    FlowNetwork,
    PentagonLattice,
    PowersetLattice,
    ProductLattice,
    alpha_bruteforce,
    alpha_dp,
    beta_bruteforce,
    counterexample_for,
    cut_capacity,
    enumerate_cuts,
    gallery_instance,
    path_throughput,
    verify_duality,
)
from latticeflow.network import Cut
from latticeflow.generators import random_instance, random_any_lattice


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


class TestCounterexampleFor:
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
