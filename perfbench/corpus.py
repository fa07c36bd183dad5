"""Seeded corpus writers: one list of units per workload.

A unit is one instance as a CLI user meets it: the files the benchmark
wrote, the CLI calls made on them, and the facts the checker needs. The
program only ever sees the files. Every random choice comes from one
``random.Random`` seeded with the workload name and the seed argument, so
a seed names its corpus. Sizes are fixed per workload (only contents are
seeded), which keeps the cost of a pass nearly the same from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from latticeflow.bottleneck import counterexample_for
from latticeflow.dilworth import WeightedPoset
from latticeflow.generators import (
    random_distributive_lattice,
    random_element,
    random_explicit_lattice,
    random_instance,
    random_network,
    random_weighted_poset,
)
from latticeflow.lattices import (
    ChainLattice,
    DiamondLattice,
    ExplicitLattice,
    PentagonLattice,
    ProductLattice,
)

from .check import LatticeTable, Order

# fuzz: networks of 2..10 vertices, the same number of each size
FUZZ_VERTICES = range(2, 11)
FUZZ_PER_SIZE = 111
# poset: random shapes of these element counts, weighted the same way, then
# copies of one fixed 13-element shape and lattice with seeded weights. Random shapes of
# 13 and 14 elements swing 3x in cost; as the top of a pass they made the
# pass time and the tail follow the seed. The fixed copies are the costliest
# units, so the tail (10 executions beyond) measures the same shape every
# time. The median of a pass falls in the middle of the 11-element class,
# which is large because one random shape's cost varies by a fifth either
# way with its shape and lattice.
POSET_SIZES = (10,) * 4 + (11,) * 24 + (12,) * 4
POSET_FIXED_SIZE = 13
POSET_FIXED_COPIES = 4
# explicit: random order tables of the criterion-6 generator, then explicit
# copies of products of 20..48 elements of both verdicts. The two
# 48-element products are the costliest units, so the tail (10 executions
# beyond) falls among their executions on every seed. The 64-element cube
# is left out: at 3 s it was most of a pass, and its few samples carried
# the machine's noise straight into every metric
# random tables are drawn until each verdict has its quota, so the median
# lands among the many non-distributive ones (three CLI calls) on every seed
EXPLICIT_RANDOM = {True: 12, False: 30}
EXPLICIT_PRODUCTS = (
    ("chain4 x chain5", lambda: [ChainLattice(4), ChainLattice(5)]),
    ("pentagon x chain4", lambda: [PentagonLattice(), ChainLattice(4)]),
    ("chain2 x chain3 x chain4", lambda: [ChainLattice(2), ChainLattice(3), ChainLattice(4)]),
    ("diamond x chain2 x chain3", lambda: [DiamondLattice(), ChainLattice(2), ChainLattice(3)]),
    ("chain6 x chain6", lambda: [ChainLattice(6), ChainLattice(6)]),
    ("pentagon x chain2 x chain4", lambda: [PentagonLattice(), ChainLattice(2), ChainLattice(4)]),
    ("chain6 x chain8", lambda: [ChainLattice(6), ChainLattice(8)]),
    ("chain2 x chain4 x chain6", lambda: [ChainLattice(2), ChainLattice(4), ChainLattice(6)]),
)
# the independent 5-subset scan decides the verdict up to this size; larger
# products take the verdict of their construction
SUBSET_SCAN_MAX = 24
EXPLICIT_NETWORK_VERTICES = 9


@dataclass
class Unit:
    """One instance: the CLI calls made for it and what the checker needs."""

    name: str
    size: int
    argvs: list
    meta: dict = field(default_factory=dict)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}")


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def network_doc(net, cap, lattice_spec: dict) -> dict:
    lat = cap.lattice
    return {
        "lattice": lattice_spec,
        "vertices": list(net.vertices),
        "source": net.source,
        "sink": net.sink,
        "edges": [{"from": u, "to": v, "capacity": lat.literal(cap[(u, v)])} for u, v in net.edges],
    }


def fuzz(seed: int, workdir: Path, vertices=FUZZ_VERTICES, per_size: int = FUZZ_PER_SIZE) -> list[Unit]:
    """Criterion-4 traffic: random strict-valid networks over random
    distributive lattices, drawn with ``random_instance`` until every vertex
    count has its quota; each runs bottleneck then maxflow."""
    rng = rng_for("fuzz", seed)
    quota = {v: per_size for v in vertices}
    units = []
    while any(quota.values()):
        net, cap = random_instance(rng, max_vertices=max(vertices))
        size = len(net.vertices)
        if not quota.get(size):
            continue
        quota[size] -= 1
        f = _write(workdir / f"fuzz{len(units)}.json", network_doc(net, cap, cap.lattice.spec()))
        units.append(Unit(f"fuzz{len(units)}", size, [["bottleneck", f, "--format", "json"], ["maxflow", f, "--format", "json"]]))
    return units


def _poset_unit(workdir: Path, name: str, p: WeightedPoset) -> Unit:
    lat = p.lattice
    doc = {
        "lattice": lat.spec(),
        "elements": list(p.elements),
        "covers": [list(c) for c in p.covers],
        "weights": {x: lat.literal(p.weights[x]) for x in p.elements},
    }
    f = _write(workdir / f"{name}.json", doc)
    argv = ["dilworth", f, "--method", "both", "--correspondences", "--format", "json"]
    return Unit(name, len(p.elements), [argv], doc)


def _poset_of_size(rng: random.Random, lat, n: int) -> WeightedPoset:
    p = random_weighted_poset(rng, lat, max_elements=n)
    while len(p.elements) != n:
        p = random_weighted_poset(rng, lat, max_elements=n)
    return p


def poset(seed: int, workdir: Path, sizes=POSET_SIZES, fixed_size: int = POSET_FIXED_SIZE,
          fixed_copies: int = POSET_FIXED_COPIES) -> list[Unit]:
    """Random weighted posets of exactly the listed sizes, drawn with
    ``random_weighted_poset`` over random distributive weights, then copies
    of one fixed shape and lattice with seeded weights. None is filtered by
    outcome: the known-red ones stay in."""
    rng = rng_for("poset", seed)
    units = []
    for n in sizes:
        p = _poset_of_size(rng, random_distributive_lattice(rng), n)
        units.append(_poset_unit(workdir, f"poset{len(units)}", p))
    fixed_rng = random.Random("perfbench/poset/fixed-shape")
    lat = random_distributive_lattice(fixed_rng)
    shape = _poset_of_size(fixed_rng, lat, fixed_size)
    for _ in range(fixed_copies):
        weights = {x: random_element(rng, lat) for x in shape.elements}
        p = WeightedPoset(shape.elements, shape.covers, weights, lat)
        units.append(_poset_unit(workdir, f"poset{len(units)}", p))
    return units


def explicit_covers(elements, leq_pairs) -> list[list[str]]:
    """The documented ``covers`` form of an order given by any relation.

    ``ExplicitLattice.spec()`` of a relation-built lattice writes the
    relation without its reflexive pairs, and ``check-lattice`` then reports
    reflexivity violations on the round trip; covers avoid that."""
    order = Order(elements, leq_pairs)
    return [[order.names[i], order.names[j]] for i in range(len(order.names)) for j in order.cover_successors(i)]


def _explicit_unit(rng, workdir: Path, name: str, elements, covers, distributive: bool) -> Unit:
    spec = {"kind": "explicit", "elements": list(elements), "covers": covers}
    if distributive:
        f = _write(workdir / f"{name}.json", spec)
        return Unit(name, len(elements), [["check-lattice", f, "--format", "json"]],
                    {"elements": spec["elements"], "covers": covers, "distributive": True, "networks": []})
    lattice = ExplicitLattice.from_covers(elements, [tuple(c) for c in covers])
    net = random_network(rng, EXPLICIT_NETWORK_VERTICES)
    while len(net.vertices) != EXPLICIT_NETWORK_VERTICES:  # one size: 128 cuts each
        net = random_network(rng, EXPLICIT_NETWORK_VERTICES)
    random_doc = {
        "lattice": spec,
        "vertices": list(net.vertices),
        "source": net.source,
        "sink": net.sink,
        "edges": [{"from": u, "to": v, "capacity": rng.choice(spec["elements"])} for u, v in net.edges],
    }
    cnet, ccap = counterexample_for(lattice)
    counter_doc = network_doc(cnet, ccap, spec)
    f = _write(workdir / f"{name}.json", random_doc)
    g = _write(workdir / f"{name}-counterexample.json", counter_doc)
    argvs = [["check-lattice", f, "--format", "json"], ["bottleneck", f, "--format", "json"], ["bottleneck", g, "--format", "json"]]
    meta = {"elements": spec["elements"], "covers": covers, "distributive": False,
            "networks": [(random_doc, False), (counter_doc, True)]}
    return Unit(name, len(elements), argvs, meta)


def explicit(seed: int, workdir: Path, n_random=EXPLICIT_RANDOM, products=EXPLICIT_PRODUCTS) -> list[Unit]:
    """Explicit order tables of both verdicts: the only workload with
    exhaustive certificates and the brute-force path side."""
    rng = rng_for("explicit", seed)
    quota = dict(n_random)
    units = []
    while any(quota.values()):
        lat = random_explicit_lattice(rng)
        elements = list(lat.element_list())
        covers = explicit_covers(elements, [(a, b) for a in elements for b in elements if lat.leq(a, b)])
        verdict = LatticeTable(elements, covers).scan_forbidden() is None
        if not quota[verdict]:
            continue
        quota[verdict] -= 1
        units.append(_explicit_unit(rng, workdir, f"explicit{len(units)}", elements, covers, verdict))
    for label, factors in products:
        factors = factors()
        lat = ProductLattice(factors)
        members = list(lat.element_list())
        rng.shuffle(members)
        names = {x: f"e{i}" for i, x in enumerate(members)}
        elements = [names[x] for x in members]
        covers = explicit_covers(elements, [(names[a], names[b]) for a in members for b in members if lat.leq(a, b)])
        verdict = not any(isinstance(f, (PentagonLattice, DiamondLattice)) for f in factors)
        if len(elements) <= SUBSET_SCAN_MAX and (LatticeTable(elements, covers).scan_forbidden() is None) != verdict:
            raise RuntimeError(f"5-subset scan disagrees with the construction of {label}")
        units.append(_explicit_unit(rng, workdir, f"explicit{len(units)}", elements, covers, verdict))
    return units


BUILDERS = {"fuzz": fuzz, "poset": poset, "explicit": explicit}
