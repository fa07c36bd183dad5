"""Seeded random generators for fuzzing: distributive and non-distributive
lattices, strict and dead-end networks, capacity assignments, explicit
lattices, weighted posets and feasible flows.

Everything is driven by a caller-supplied random.Random so runs are
reproducible from a seed.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable

from .dilworth import WeightedPoset
from .lattices import (
    ChainLattice,
    DiamondLattice,
    DownsetLattice,
    ExplicitLattice,
    IntervalGridLattice,
    Lattice,
    PentagonLattice,
    PowersetLattice,
    ProductLattice,
    pairwise_closure,
)
from .network import CapacityAssignment, FlowNetwork

_ATOMS = "abcdefgh"


def random_distributive_lattice(rng: random.Random) -> Lattice:
    """One of: powerset (<= 5 atoms), chain (<= 8), product of <= 3 chains,
    downset lattice of a random poset (<= 5 elements), interval grid with
    step 0.25."""
    pick = rng.randrange(5)
    if pick == 0:
        return PowersetLattice(_ATOMS[: rng.randint(1, 5)])
    if pick == 1:
        return ChainLattice(rng.randint(2, 8))
    if pick == 2:
        return ProductLattice(
            [ChainLattice(rng.randint(2, 4)) for _ in range(rng.randint(2, 3))]
        )
    if pick == 3:
        n = rng.randint(2, 5)
        names = [f"p{i}" for i in range(n)]
        rels = [
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        return DownsetLattice(names, rels)
    return IntervalGridLattice(0.25)


def random_any_lattice(rng: random.Random) -> Lattice:
    """Distributive menu plus the pentagon, the diamond, and products
    embedding them; used for weak-duality fuzzing."""
    pick = rng.randrange(8)
    if pick == 0:
        return PentagonLattice()
    if pick == 1:
        return DiamondLattice()
    if pick == 2:
        return ProductLattice([PentagonLattice(), ChainLattice(2)])
    if pick == 3:
        return ProductLattice([DiamondLattice(), ChainLattice(2)])
    return random_distributive_lattice(rng)


def random_element(rng: random.Random, lattice: Lattice):
    return rng.choice(lattice.element_list())


def random_network(rng: random.Random, max_vertices: int = 10) -> FlowNetwork:
    """Random strict-valid DAG: vertices are topologically ordered by
    construction and every internal vertex gets at least one edge from an
    earlier vertex and one to a later vertex."""
    k = rng.randint(0, max_vertices - 2)
    order = ["s"] + [f"v{i}" for i in range(k)] + ["t"]
    edges = set()
    for i in range(1, k + 1):
        edges.add((order[rng.randrange(0, i)], order[i]))
        edges.add((order[i], order[rng.randrange(i + 1, k + 2)]))
    for i, j in itertools.combinations(range(k + 2), 2):
        if (i, j) == (0, k + 1):
            continue
        if rng.random() < 0.35:
            edges.add((order[i], order[j]))
    if k == 0 or rng.random() < 0.3:
        edges.add(("s", "t"))
    pos = {v: i for i, v in enumerate(order)}
    edge_list = sorted(edges, key=lambda e: (pos[e[0]], pos[e[1]]))
    return FlowNetwork(order, edge_list, "s", "t")


def add_dead_ends(rng: random.Random, net: FlowNetwork, count: int = 2) -> FlowNetwork:
    """Lenient-mode decoration: sink-less vertices fed from the network
    and source-less vertices feeding into it."""
    vertices = list(net.vertices)
    edges = list(net.edges)
    feeders = [v for v in vertices if v != net.sink]
    drains = [v for v in vertices if v != net.source]
    for i in range(count):
        d = f"dead{i}"
        vertices.append(d)
        if rng.random() < 0.5:
            edges.append((rng.choice(feeders), d))  # no way out of d
        else:
            edges.append((d, rng.choice(drains)))  # no way into d
    return FlowNetwork(vertices, edges, net.source, net.sink)


def random_capacities(
    rng: random.Random, net: FlowNetwork, lattice: Lattice
) -> CapacityAssignment:
    return CapacityAssignment(
        lattice, {e: random_element(rng, lattice) for e in net.edges}
    )


def random_instance(
    rng: random.Random,
    lattice_factory: Callable[[random.Random], Lattice] = random_distributive_lattice,
    max_vertices: int = 10,
) -> tuple[FlowNetwork, CapacityAssignment]:
    net = random_network(rng, max_vertices)
    return net, random_capacities(rng, net, lattice_factory(rng))


# non-distributive ambients are over-represented so sampled sublattices
# exercise both certification verdicts
_AMBIENT_POOL: list[Callable[[], Lattice]] = [
    PentagonLattice,
    PentagonLattice,
    DiamondLattice,
    DiamondLattice,
    lambda: PowersetLattice("xyz"),
    lambda: PowersetLattice("wxyz"),
    lambda: ProductLattice([PentagonLattice(), ChainLattice(2)]),
    lambda: ProductLattice([DiamondLattice(), ChainLattice(2)]),
    lambda: ProductLattice([ChainLattice(3), ChainLattice(4)]),
    lambda: ChainLattice(7),
]


def random_explicit_lattice(rng: random.Random, max_size: int = 12) -> ExplicitLattice:
    """Random small lattice as an explicit order table.

    Draws a few elements from an ambient lattice (mixing distributive and
    non-distributive ambients), closes them under join and meet, and
    rebuilds the induced order as an ExplicitLattice. Sublattices of the
    non-distributive ambients regularly contain pentagons or diamonds, so
    both certification verdicts occur.
    """
    for _ in range(40):
        ambient = rng.choice(_AMBIENT_POOL)()
        elems = ambient.element_list()
        seeds = rng.sample(range(len(elems)), k=min(rng.randint(3, 6), len(elems)))
        current = pairwise_closure((elems[i] for i in seeds), ambient._join, ambient._meet, max_size + 8)
        if current is None or not 2 <= len(current) <= max_size:
            continue
        index = {x: i for i, x in enumerate(elems)}
        return _explicit_copy(ambient, sorted(current, key=index.__getitem__))
    # dependable fallback: a small Boolean cube
    cube = PowersetLattice("xy")
    return _explicit_copy(cube, cube.element_list())


def _explicit_copy(lattice: Lattice, members) -> ExplicitLattice:
    """The order ``lattice`` induces on ``members``, as an explicit table
    whose i-th element, named ``x<i>``, is the i-th member."""
    names = {x: f"x{i}" for i, x in enumerate(members)}
    pairs = [(names[a], names[b]) for a in members for b in members if lattice._leq(a, b)]
    return ExplicitLattice.from_relation(list(names.values()), pairs)


def random_weighted_poset(
    rng: random.Random,
    lattice: Lattice,
    max_elements: int = 8,
) -> WeightedPoset:
    n = rng.randint(1, max_elements)
    names = [f"p{i}" for i in range(n)]
    rels = [
        (names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < 0.35
    ]
    weights = {x: random_element(rng, lattice) for x in names}
    return WeightedPoset(names, rels, weights, lattice)


def sample_feasible_flows(
    rng: random.Random,
    net: FlowNetwork,
    cap: CapacityAssignment,
    paths: list[tuple[str, ...]],
    count: int = 5,
    mode: str = "strict",
) -> list[dict]:
    """Random feasible flows: the all-bottom flow, the all-(meet of
    capacities) flow, and joins of random path-flow bundles."""
    from .flows import joined_path_flow  # deferred: flows imports network too

    lat = cap.lattice
    flows = []
    bot = lat.bottom()
    if bot is not None:
        flows.append({e: bot for e in net.edges})
    if net.edges:
        low = lat.meet_all(v for _, v in cap.items())
        flows.append({e: low for e in net.edges})
    if paths:
        for _ in range(count):
            bundle = rng.sample(paths, k=rng.randint(1, min(3, len(paths))))
            flows.append(joined_path_flow(net, cap, bundle, mode))
    return flows
