"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime (run with `pytest -s tests/test_acceptance.py` to
see every line).

Fuzz corpora are seeded, so runs are reproducible.
"""

import random
import time
from functools import reduce

import pytest

from latticeflow import (
    CapacityAssignment,
    ChainLattice,
    DiamondLattice,
    DownsetLattice,
    FlowNetwork,
    IntervalGridLattice,
    PentagonLattice,
    PowersetLattice,
    ProductLattice,
    SurvivalLattice,
    alpha_bruteforce,
    alpha_dp,
    beta_bruteforce,
    check_correspondences,
    check_distributive,
    counterexample_for,
    crossing_edges,
    dilworth_direct,
    dilworth_via_network,
    enumerate_cuts,
    enumerate_paths,
    find_forbidden_sublattice,
    flow_value,
    gallery_instance,
    is_feasible_flow,
    max_flow_value,
    path_flow,
    path_throughput,
    ring_of_sets_closure,
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
)

SEED = 20250808


def report(num, ok, elapsed, limit, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:>2}: {status}  ({elapsed:.2f}s, limit {limit}s)  {detail}")


@pytest.fixture(scope="module")
def fuzz_corpus():
    rng = random.Random(SEED)
    started = time.perf_counter()
    instances = [random_instance(rng, max_vertices=10) for _ in range(1000)]
    return instances, time.perf_counter() - started


@pytest.fixture(scope="module")
def explicit_lattices():
    rng = random.Random(SEED + 1)
    return [random_explicit_lattice(rng, max_size=12) for _ in range(200)]


def test_criterion_1_pentagon_counterexample():
    started = time.perf_counter()
    inst = gallery_instance("pentagon")
    rep = verify_duality(inst.network, inst.capacities, method="bruteforce")
    elapsed = time.perf_counter() - started
    ok = (rep.alpha, rep.beta, rep.equal) == ("c", "b", False) and elapsed < 1
    report(1, ok, elapsed, 1, f"alpha={rep.alpha} beta={rep.beta} equal={rep.equal}")
    assert (rep.alpha, rep.beta, rep.equal) == ("c", "b", False)
    assert elapsed < 1


def test_criterion_2_diamond_counterexample():
    started = time.perf_counter()
    inst = gallery_instance("diamond")
    rep = verify_duality(inst.network, inst.capacities, method="bruteforce")
    elapsed = time.perf_counter() - started
    ok = (rep.alpha, rep.beta, rep.equal) == ("a", "1", False) and elapsed < 1
    report(2, ok, elapsed, 1, f"alpha={rep.alpha} beta={rep.beta} equal={rep.equal}")
    assert (rep.alpha, rep.beta, rep.equal) == ("a", "1", False)
    assert elapsed < 1


def test_criterion_3_competency_fixture():
    started = time.perf_counter()
    poset = gallery_instance("competencies").poset
    direct = dilworth_direct(poset)
    via = dilworth_via_network(poset)
    elapsed = time.perf_counter() - started
    em = frozenset(["EM"])
    empty = frozenset()
    values_ok = list(direct.chain_values) == [empty, empty, empty, em, empty]
    ok = (
        direct.lhs == direct.rhs == em
        and via.lhs == via.rhs == em
        and values_ok
        and elapsed < 1
    )
    report(3, ok, elapsed, 1, f"lhs={set(direct.lhs)} rhs={set(direct.rhs)} chain values ok={values_ok}")
    assert direct.lhs == direct.rhs == em
    assert via.lhs == via.rhs == em
    assert values_ok
    assert elapsed < 1


def test_criterion_4_distributive_fuzz(fuzz_corpus):
    instances, gen_seconds = fuzz_corpus
    started = time.perf_counter()
    failures = []
    for i, (net, cap) in enumerate(instances):
        alpha = alpha_bruteforce(net, cap)
        beta = beta_bruteforce(net, cap)
        dp = alpha_dp(net, cap)
        flow = max_flow_value(net, cap)
        if not (alpha == beta == dp == flow):
            failures.append((i, cap.lattice.describe(), alpha, beta, dp, flow))
    elapsed = time.perf_counter() - started + gen_seconds
    ok = not failures and len(instances) >= 1000 and elapsed < 60
    report(4, ok, elapsed, 60, f"{len(instances) - len(failures)}/{len(instances)} instances satisfied all four equalities")
    assert len(instances) >= 1000
    assert not failures, failures[:3]
    assert elapsed < 60


def test_criterion_5_weak_duality_universal():
    rng = random.Random(SEED + 2)
    started = time.perf_counter()
    total = 500
    nondistributive_seen = 0
    failures = []
    for i in range(total):
        net, cap = random_instance(rng, lattice_factory=random_any_lattice, max_vertices=9)
        if not cap.lattice.known_distributive:
            nondistributive_seen += 1
        alpha = alpha_bruteforce(net, cap)
        beta = beta_bruteforce(net, cap)
        if not cap.lattice.leq(alpha, beta):
            failures.append((i, cap.lattice.describe(), alpha, beta))
    elapsed = time.perf_counter() - started
    ok = not failures and nondistributive_seen > 0 and elapsed < 30
    report(5, ok, elapsed, 30, f"{total - len(failures)}/{total} (incl. {nondistributive_seen} pentagon/diamond-valued)")
    assert nondistributive_seen > 0
    assert not failures, failures[:3]
    assert elapsed < 30


def _builtin_lattices():
    return [
        PentagonLattice(),
        DiamondLattice(),
        ChainLattice(6),
        PowersetLattice("wxyz"),
        ProductLattice([ChainLattice(2), ChainLattice(3)]),
        ProductLattice([PentagonLattice(), ChainLattice(2)]),
        IntervalGridLattice(0.25),
        DownsetLattice(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d")]),
        ring_of_sets_closure([{"r1", "m1"}, {"r2", "m1"}, {"r3"}]),
        SurvivalLattice(4, 3),
    ]


def test_criterion_6_certification_agreement(explicit_lattices):
    started = time.perf_counter()
    lattices = _builtin_lattices() + list(explicit_lattices)
    disagreements = []
    bad_witnesses = []
    nondistributive = 0
    for L in lattices:
        cert = check_distributive(L)
        wit = find_forbidden_sublattice(L)
        if cert.distributive != (wit is None):
            disagreements.append(L.describe())
        if not cert.distributive:
            nondistributive += 1
            a, b, c = cert.witness_triple
            law1 = L.meet(a, L.join(b, c)) == L.join(L.meet(a, b), L.meet(a, c))
            law2 = L.join(a, L.meet(b, c)) == L.meet(L.join(a, b), L.join(a, c))
            if law1 and law2:
                bad_witnesses.append(L.describe())
    elapsed = time.perf_counter() - started
    ok = not disagreements and not bad_witnesses and elapsed < 30
    report(
        6, ok, elapsed, 30,
        f"{len(lattices)} lattices ({nondistributive} non-distributive), agreement + witness replay",
    )
    assert not disagreements, disagreements
    assert not bad_witnesses, bad_witnesses
    assert elapsed < 30


def test_criterion_7_counterexample_generator(explicit_lattices):
    started = time.perf_counter()
    lattices = _builtin_lattices() + list(explicit_lattices)
    failures = []
    generated = 0
    for L in lattices:
        cert = check_distributive(L)
        if cert.distributive:
            continue
        generated += 1
        net, cap = counterexample_for(L, cert)
        rep = verify_duality(net, cap, method="bruteforce")
        if rep.equal:
            failures.append(L.describe())
    elapsed = time.perf_counter() - started
    ok = not failures and generated > 0 and elapsed < 30
    report(7, ok, elapsed, 30, f"{generated} non-distributive lattices, all produced equal=false instances")
    assert generated > 0
    assert not failures, failures
    assert elapsed < 30


def _order_scan(poset):
    """Maximal chains, maximal antichains and minimal chain transversals of
    a poset, found by a bitmask scan over its elements that uses only the
    order relation (bit i stands for ``poset.elements[i]``)."""
    elems = poset.elements
    n = len(elems)
    comp = [
        sum(1 << j for j in range(n) if poset.comparable(elems[i], elems[j]))
        for i in range(n)
    ]
    chains, antichains = [], []
    for m in range(1, 1 << n):
        inside = [i for i in range(n) if m >> i & 1]
        outside = [j for j in range(n) if not m >> j & 1]
        if all(m & ~comp[i] == 0 for i in inside):
            if not any(m & ~comp[j] == 0 for j in outside):
                chains.append(m)
        if all(m & comp[i] == 1 << i for i in inside):
            if all(m & comp[j] for j in outside):
                antichains.append(m)
    transversals = {m for m in range(1, 1 << n) if all(m & c for c in chains)}
    minimal = [
        m for m in sorted(transversals)
        if not any(m >> i & 1 and m ^ 1 << i in transversals for i in range(n))
    ]
    return chains, antichains, minimal


def test_criterion_8_dilworth_fuzz():
    """Chain/antichain duality, stated as what the two routes promise.

    The auxiliary network's cut side is the meet, over minimal chain
    transversals (element sets meeting every maximal chain), of their
    weight joins; it always equals the chain side. The antichain side is
    the same fold over maximal antichains, so the plain chain/antichain
    identity is promised exactly on posets whose maximal antichains are
    the minimal chain transversals, and checked there.
    """
    from latticeflow.generators import random_distributive_lattice, random_weighted_poset

    rng = random.Random(SEED + 3)
    started = time.perf_counter()
    total = 300
    failures = {}  # failed check -> failing cases
    on_condition = 0
    unequal_off = 0
    for i in range(total):
        poset = random_weighted_poset(rng, random_distributive_lattice(rng), max_elements=8)
        lat = poset.lattice
        direct = dilworth_direct(poset)
        via = dilworth_via_network(poset)
        corr = check_correspondences(poset)
        chains, antichains, transversals = _order_scan(poset)
        elems = poset.elements

        def weight_join(mask):
            return reduce(lat.join, (poset.weights[x] for j, x in enumerate(elems) if mask >> j & 1))

        transversal_side = reduce(lat.meet, (weight_join(t) for t in transversals))
        condition = set(antichains) == set(transversals)
        all_meet = all(a & c for a in antichains for c in chains)
        if condition:
            on_condition += 1
        elif direct.rhs != via.rhs:
            unequal_off += 1
        verdicts = {
            "stripped network paths differ from the maximal chains": corr.chains_match_paths,
            "direct.lhs == via.lhs == via.rhs fails": direct.lhs == via.lhs == via.rhs,
            "via.rhs differs from the fold over minimal chain transversals":
                via.rhs == transversal_side,
            "antichains = minimal transversals, yet the sides differ":
                not condition or (direct.equal and direct.rhs == via.rhs),
            "antichain_roundtrip_ok disagrees with antichains meeting chains":
                corr.antichain_roundtrip_ok == all_meet,
            "check_correspondences is ok off the condition": not corr.ok or condition,
        }
        for what, held in verdicts.items():
            if not held:
                failures.setdefault(what, []).append((i, poset, chains, antichains, transversals))
    elapsed = time.perf_counter() - started
    failed = sum(map(len, failures.values()))
    ok = not failed and elapsed < 60
    report(
        8, ok, elapsed, 60,
        f"{total} posets: {on_condition} with maximal antichains = minimal chain "
        f"transversals, {unequal_off} of {total - on_condition} off it with unequal "
        f"sides; {failed} check failures",
    )

    def describe(i, poset, chains, antichains, transversals):
        elems = poset.elements

        def names(mask):
            return "{" + ", ".join(x for j, x in enumerate(elems) if mask >> j & 1) + "}"

        witness = next(
            (
                f"maximal antichain {names(a)} misses maximal chain {names(c)}"
                for a in antichains for c in chains if not a & c
            ),
            None,
        ) or next(
            (
                f"minimal chain transversal {names(t)} is not an antichain"
                for t in transversals if t not in antichains
            ),
            "maximal antichains are exactly the minimal chain transversals",
        )
        return (
            f"poset #{i}: elements={elems} covers={poset.covers} "
            f"weights={{ {', '.join(f'{x}: {poset.lattice.format(poset.weights[x])}' for x in elems)} }}; "
            f"witness: {witness}"
        )

    first = next(iter(failures.items()), None)
    assert first is None, f"{first[0]}, first case: " + describe(*first[1][0])
    assert elapsed < 60


def test_criterion_9_dead_end_handling():
    rng = random.Random(SEED + 4)
    started = time.perf_counter()
    failures = []
    for i in range(100):
        net = add_dead_ends(rng, random_network(rng, max_vertices=7), count=rng.randint(1, 3))
        L = random_distributive_lattice(rng)  # bounded: all menu kinds carry bottom and top
        cap = random_capacities(rng, net, L)
        alpha = alpha_bruteforce(net, cap)
        beta = beta_bruteforce(net, cap, mode="lenient")
        if alpha != beta:
            failures.append((i, L.describe()))
    # no-path instance degenerates to bottom on both sides
    net = FlowNetwork(["s", "d", "t"], [("s", "d")], "s", "t")
    cap = CapacityAssignment(ChainLattice(5), {("s", "d"): 4})
    alpha = alpha_bruteforce(net, cap)
    beta = beta_bruteforce(net, cap, mode="lenient")
    no_path_ok = alpha == beta == 0
    elapsed = time.perf_counter() - started
    ok = not failures and no_path_ok and elapsed < 5
    report(9, ok, elapsed, 5, f"100 dead-end instances equal, no-path bottom=bottom {no_path_ok}")
    assert not failures, failures[:3]
    assert no_path_ok
    assert elapsed < 5


def test_criterion_10_path_flow_soundness(fuzz_corpus):
    instances, _ = fuzz_corpus
    started = time.perf_counter()
    checked = 0
    failures = []
    for i, (net, cap) in enumerate(instances):
        for p in enumerate_paths(net):
            phi = path_flow(net, cap, p)
            checked += 1
            if not is_feasible_flow(net, cap, phi).ok:
                failures.append((i, p, "infeasible"))
            elif flow_value(net, cap, phi) != path_throughput(net, cap, p):
                failures.append((i, p, "value mismatch"))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 60
    report(10, ok, elapsed, 60, f"{checked} path flows feasible with value = throughput")
    assert not failures, failures[:3]
    assert elapsed < 60


def test_criterion_11_exchange_identity(fuzz_corpus):
    instances, _ = fuzz_corpus
    started = time.perf_counter()
    checked = 0
    failures = []
    for i, (net, cap) in enumerate(instances):
        if checked >= 200:
            break
        paths = enumerate_paths(net)
        if not paths or len(paths) > 20:
            continue
        cuts = enumerate_cuts(net)
        if len(cuts) > 256:
            continue
        checked += 1
        lat = cap.lattice
        path_edges = [set(zip(p, p[1:])) for p in paths]
        crossings = [set(crossing_edges(net, c)) for c in cuts]
        # the interchange array: join of capacities over each cut/path overlap
        a = [
            [lat.join_all(cap[e] for e in (cr & pe)) for pe in path_edges]
            for cr in crossings
        ]
        lhs = lat.meet_all(lat.join_all(row) for row in a)
        rhs = lat.join_all(
            lat.meet_all(a[ci][pi] for ci in range(len(cuts))) for pi in range(len(paths))
        )
        if lhs != rhs:
            failures.append((i, lat.describe()))
    elapsed = time.perf_counter() - started
    ok = not failures and checked >= 100 and elapsed < 30
    report(11, ok, elapsed, 30, f"interchange identity exact on {checked} instances")
    assert checked >= 100
    assert not failures, failures[:3]
    assert elapsed < 30
