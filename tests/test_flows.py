import functools
import random

import pytest

from latticeflow import (
    CapacityAssignment,
    ChainLattice,
    DistributivityRequired,
    FlowNetwork,
    MismatchError,
    PowersetLattice,
    alpha_bruteforce,
    beta_bruteforce,
    enumerate_paths,
    flow_value,
    gallery_instance,
    is_feasible_flow,
    joined_path_flow,
    max_flow_value,
    path_flow,
    path_throughput,
)
from latticeflow.generators import (
    add_dead_ends,
    random_capacities,
    random_instance,
    random_network,
    sample_feasible_flows,
)


def single_edge_instance(value=3, levels=5):
    net = FlowNetwork(["s", "t"], [("s", "t")], "s", "t")
    cap = CapacityAssignment(ChainLattice(levels), {("s", "t"): value})
    return net, cap


class TestFeasibility:
    def test_capacities_themselves_are_feasible_on_single_edge(self):
        net, cap = single_edge_instance()
        check = is_feasible_flow(net, cap, {("s", "t"): 3})
        assert check.ok

    def test_capacity_violation_reported_with_edge(self):
        net, cap = single_edge_instance(value=2)
        check = is_feasible_flow(net, cap, {("s", "t"): 4})
        assert not check.ok
        assert check.capacity_violations[0][0] == ("s", "t")

    def test_conservation_violation_reported_with_vertex(self):
        net = FlowNetwork(["s", "u", "t"], [("s", "u"), ("u", "t")], "s", "t")
        cap = CapacityAssignment(ChainLattice(5), {("s", "u"): 4, ("u", "t"): 4})
        check = is_feasible_flow(net, cap, {("s", "u"): 4, ("u", "t"): 2})
        assert not check.ok
        assert check.conservation_violations[0][0] == "u"

    def test_every_diamond_path_flow_is_feasible(self):
        inst = gallery_instance("diamond")
        for p in enumerate_paths(inst.network):
            phi = path_flow(inst.network, inst.capacities, p)
            assert is_feasible_flow(inst.network, inst.capacities, phi).ok

    def test_missing_edge_rejected(self):
        net, cap = single_edge_instance()
        with pytest.raises(ValueError):
            is_feasible_flow(net, cap, {})


class TestFlowValue:
    def test_single_edge(self):
        net, cap = single_edge_instance(value=3)
        assert flow_value(net, cap, {("s", "t"): 3}) == 3

    def test_diamond_direct_path_flow(self):
        inst = gallery_instance("diamond")
        phi = path_flow(inst.network, inst.capacities, ("s", "t"))
        assert flow_value(inst.network, inst.capacities, phi) == "a"

    def test_pentagon_c_path_flow(self):
        inst = gallery_instance("pentagon")
        phi = path_flow(inst.network, inst.capacities, ("s", "v", "w", "t"))
        assert flow_value(inst.network, inst.capacities, phi) == "c"

    def test_infeasible_flow_raises_but_its_check_carries_the_value(self):
        net, cap = single_edge_instance(value=2)
        with pytest.raises(ValueError):
            flow_value(net, cap, {("s", "t"): 4})
        assert is_feasible_flow(net, cap, {("s", "t"): 4}).value == 4

    def test_checked_flow_value_rejects_foreign_element(self):
        net, cap = single_edge_instance(levels=5)
        with pytest.raises(MismatchError):
            is_feasible_flow(net, cap, {("s", "t"): 7})


def unchecked_join_of_source_edges(net, cap, phi):
    """The value ``flow_value`` computed without a feasibility check: the
    join over the source's out-edges, bottom if there are none."""
    lat = cap.lattice
    return functools.reduce(lat.join, (phi[e] for e in net.out_edges(net.source)), lat.bottom())


class TestFlowCheckValue:
    def test_value_is_the_join_over_source_edges_feasible_or_not(self):
        rng = random.Random(24)
        verdicts = set()
        for _ in range(40):
            net, cap = random_instance(rng, max_vertices=7)
            caps = [value for _, value in cap.items()]
            flows = sample_feasible_flows(rng, net, cap, enumerate_paths(net))
            flows += [{e: rng.choice(caps) for e in net.edges} for _ in range(3)]
            for phi in flows:
                check = is_feasible_flow(net, cap, phi)
                verdicts.add(check.ok)
                assert check.value == unchecked_join_of_source_edges(net, cap, phi)
                if check.ok:
                    assert flow_value(net, cap, phi) == check.value
        assert verdicts == {True, False}

    def test_to_dict_emits_the_value_last_as_a_literal(self):
        inst = gallery_instance("supply-chain")
        phi = path_flow(inst.network, inst.capacities, enumerate_paths(inst.network)[0])
        out = is_feasible_flow(inst.network, inst.capacities, phi).to_dict(inst.capacities)
        assert list(out) == ["ok", "capacity_violations", "conservation_violations", "value"]
        assert out["value"] == inst.lattice.literal(flow_value(inst.network, inst.capacities, phi))


class TestPathFlow:
    def test_off_path_edges_carry_capacity_meet(self):
        inst = gallery_instance("diamond")
        phi = path_flow(inst.network, inst.capacities, ("s", "t"))
        assert phi[("s", "t")] == "a"
        assert phi[("s", "u")] == "0"  # a ^ b ^ c in the diamond
        assert phi[("u", "t")] == "0"

    def test_value_equals_throughput_on_random_instances(self):
        rng = random.Random(12)
        for _ in range(25):
            net, cap = random_instance(rng, max_vertices=7)
            for p in enumerate_paths(net):
                phi = path_flow(net, cap, p)
                assert is_feasible_flow(net, cap, phi).ok
                assert flow_value(net, cap, phi) == path_throughput(net, cap, p)

    def test_lenient_mode_uses_bottom_off_path(self):
        rng = random.Random(41)
        net = add_dead_ends(rng, random_network(rng, max_vertices=5))
        cap = random_capacities(rng, net, PowersetLattice("ab"))
        for p in enumerate_paths(net):
            phi = path_flow(net, cap, p, mode="lenient")
            assert is_feasible_flow(net, cap, phi).ok


class TestSampledFlows:
    def test_sampled_flows_feasible_and_weakly_dual(self):
        rng = random.Random(8)
        for _ in range(20):
            net, cap = random_instance(rng, max_vertices=7)
            paths = enumerate_paths(net)
            beta = beta_bruteforce(net, cap)
            for phi in sample_feasible_flows(rng, net, cap, paths):
                assert is_feasible_flow(net, cap, phi).ok
                assert cap.lattice.leq(flow_value(net, cap, phi), beta)

    def test_joined_path_flows_conserve(self):
        inst = gallery_instance("supply-chain")
        paths = enumerate_paths(inst.network)
        phi = joined_path_flow(inst.network, inst.capacities, paths[:3])
        assert is_feasible_flow(inst.network, inst.capacities, phi).ok


class TestMaxFlowValue:
    def test_single_edge(self):
        net, cap = single_edge_instance(value=4)
        assert max_flow_value(net, cap) == 4

    def test_supply_chain_matches_cut_side(self):
        inst = gallery_instance("supply-chain")
        assert max_flow_value(inst.network, inst.capacities) == beta_bruteforce(
            inst.network, inst.capacities
        )

    def test_two_route_empty_value(self):
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
        assert max_flow_value(net, cap) == frozenset()

    def test_refuses_non_distributive_without_override(self):
        inst = gallery_instance("pentagon")
        with pytest.raises(DistributivityRequired):
            max_flow_value(inst.network, inst.capacities)
        assert max_flow_value(inst.network, inst.capacities, allow_non_distributive=True) == "c"

    def test_equals_both_bruteforce_sides_on_random_instances(self):
        rng = random.Random(21)
        for _ in range(30):
            net, cap = random_instance(rng, max_vertices=7)
            value = max_flow_value(net, cap)
            assert value == alpha_bruteforce(net, cap)
            assert value == beta_bruteforce(net, cap)


class TestDeadEndConservation:
    def test_dead_end_vertices_balance_via_bottom(self):
        # sink-less vertex: the empty outgoing join is the bottom element,
        # so a lenient path flow keeps conservation at the dead end
        net = FlowNetwork(["s", "u", "d", "t"], [("s", "u"), ("u", "t"), ("u", "d")], "s", "t")
        L = ChainLattice(5)
        cap = CapacityAssignment(L, {("s", "u"): 4, ("u", "t"): 3, ("u", "d"): 2})
        phi = path_flow(net, cap, ("s", "u", "t"), mode="lenient")
        assert phi[("u", "d")] == 0
        assert is_feasible_flow(net, cap, phi).ok
