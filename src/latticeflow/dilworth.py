"""Chain/antichain bottleneck duality on lattice-weighted finite posets.

Two independent routes are provided: direct enumeration of maximal
chains and maximal antichains, and a reduction to bottleneck duality on
an auxiliary flow network whose paths correspond one-to-one with maximal
chains. The two routes always agree on the chain side, and the
network's cut side always equals it: the cut side is the meet, over
minimal chain transversals (element sets meeting every maximal chain),
of their weight joins. The antichain side is the same fold over maximal
antichains, so the two are promised equal exactly when the maximal
antichains are the minimal chain transversals. That every maximal
antichain meets every maximal chain is necessary for this, not
sufficient: the four-element poset a<c, a<d, b<d breaks it (the maximal
antichain {b, c} misses the maximal chain {a, d}), while the
five-element poset a<b<e, a<c, d<e satisfies it and still has the
minimal chain transversal {a, e}, which is not an antichain.

Each poset is enumerated and folded once: it keeps its chains,
antichains, auxiliary network and direct report. The routes share only
lists that were already identical; lhs and rhs still come from each
route's own folds, and paths are still checked against chains. On a
certified-distributive lattice the network route enumerates no cuts (the
dynamic program and the threshold cut side); elsewhere it lists the
minimal cuts. The cut round trip lists only the minimal cuts over cover
and sink edges.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, reduce
from typing import Iterable, Mapping

from .bottleneck import verify_duality
from .errors import CapExceeded
from .lattices import Element, Lattice
from .network import CapacityAssignment, FlowNetwork, enumerate_paths, minimal_cut_masks
from .network import crossing_edges, minimal_cuts  # noqa: F401  (unused here; perfbench/spans.py wraps these bindings)
from .orderutils import cover_pairs, partial_order, set_bits

DEFAULT_MAX_CHAINS = 1_000_000
DEFAULT_MAX_POSET = 20


class WeightedPoset:
    """Finite poset with an element-to-lattice-element weight map.

    Order input may be cover pairs or any relation pairs; the transitive
    closure is taken and the stored cover relation is its transitive
    reduction, so Hasse-diagram-style input round-trips unchanged. Covers,
    like minimal and maximal elements, are listed in element order. The
    order is kept as up-set and down-set masks (see ``orderutils``).
    """

    def __init__(
        self,
        elements: Iterable[str],
        relations: Iterable[tuple[str, str]],
        weights: Mapping[str, Element],
        lattice: Lattice,
    ):
        self._build(elements, relations, weights, lattice)
        for x in self.elements:  # each weight is checked here, once
            lattice.check(self.weights[x])

    @classmethod
    def _of_members(cls, elements, relations, weights, lattice) -> WeightedPoset:
        """The poset of ``weights`` that are members already, returned by
        :meth:`Lattice.parse`: they are not checked again."""
        poset = cls.__new__(cls)
        poset._build(elements, relations, weights, lattice)
        return poset

    def _build(self, elements, relations, weights, lattice) -> None:
        elems = tuple(elements)
        if not elems:
            raise ValueError("poset needs at least one element")
        if len(set(elems)) != len(elems):
            raise ValueError("poset has duplicate element names")
        eset = set(elems)
        relations = [tuple(r) for r in relations]
        for a, b in relations:
            if a not in eset or b not in eset:
                raise ValueError(f"order pair ({a!r}, {b!r}) mentions unknown elements")
            if a == b:
                raise ValueError(f"order pair ({a!r}, {b!r}) is reflexive")
        up, down = partial_order(elems, relations)
        missing = [x for x in elems if x not in weights]
        if missing:
            raise ValueError(f"elements without weights: {missing}")
        self.elements = elems
        self.lattice = lattice
        self.weights = {x: weights[x] for x in elems}
        self._index = {x: i for i, x in enumerate(elems)}
        self._up = up
        self._down = down
        self.covers = tuple(cover_pairs(elems, up))
        self._successors = dict.fromkeys(elems, ())
        for a, b in self.covers:
            self._successors[a] += (b,)

    def leq(self, x: str, y: str) -> bool:
        return bool(self._up[self._index[x]] >> self._index[y] & 1)

    def comparable(self, x: str, y: str) -> bool:
        return self.leq(x, y) or self.leq(y, x)

    def minimal_elements(self) -> tuple[str, ...]:
        return tuple(x for i, x in enumerate(self.elements) if self._down[i] == 1 << i)

    def maximal_elements(self) -> tuple[str, ...]:
        return tuple(x for i, x in enumerate(self.elements) if self._up[i] == 1 << i)

    def cover_successors(self, x: str) -> tuple[str, ...]:
        return self._successors[x]

    # each runs once per poset, through the module function (whose binding spans wrap)
    chains = cached_property(lambda self: tuple(maximal_chains(self)))
    antichains = cached_property(lambda self: tuple(maximal_antichains(self)))
    network = cached_property(lambda self: auxiliary_network(self))

    def __repr__(self):
        return f"WeightedPoset({len(self.elements)} elements, {len(self.covers)} covers)"


def maximal_chains(poset: WeightedPoset, max_chains: int = DEFAULT_MAX_CHAINS) -> list[tuple[str, ...]]:
    """All maximal chains as ascending element sequences.

    A maximal chain is exactly a cover-walk from a minimal element to a
    maximal element, so this is a DFS over the cover relation, minimal
    elements and successors taken in element order, on a stack of its
    own (one iterator per chain element), so depth costs no recursion.
    """
    out: list[tuple[str, ...]] = []
    chain: list[str] = []
    stack = [iter(poset.minimal_elements())]
    while stack:
        for x in stack[-1]:
            break
        else:  # chain[-1]'s successors, or the minimal elements, are done
            stack.pop()
            if chain:
                chain.pop()
            continue
        chain.append(x)
        succ = poset.cover_successors(x)
        if succ:
            stack.append(iter(succ))
            continue
        if len(out) >= max_chains:
            raise CapExceeded(f"more than {max_chains} maximal chains")
        out.append(tuple(chain))
        chain.pop()
    return out


def _check_poset_cap(n: int) -> None:
    if n > DEFAULT_MAX_POSET:
        raise CapExceeded(f"antichain enumeration capped at {DEFAULT_MAX_POSET} elements")


def maximal_antichains(poset: WeightedPoset) -> list[tuple[str, ...]]:
    """All maximal antichains as element tuples in element order.

    They are the maximal cliques of the incomparability graph, found by
    Bron-Kerbosch with pivoting over element bitmasks (bit i is the i-th
    element) and listed in increasing mask order.
    """
    n = len(poset.elements)
    _check_poset_cap(n)
    elems = poset.elements
    apart = [((1 << n) - 1) & ~(u | d) for u, d in zip(poset._up, poset._down)]
    cliques: list[int] = []

    def extend(clique: int, candidates: int, excluded: int) -> None:
        if not candidates | excluded:
            cliques.append(clique)
            return
        pivot = max(set_bits(candidates | excluded), key=lambda u: (candidates & apart[u]).bit_count())
        for v in set_bits(candidates & ~apart[pivot]):
            extend(clique | 1 << v, candidates & apart[v], excluded & apart[v])
            candidates &= ~(1 << v)
            excluded |= 1 << v

    extend(0, (1 << n) - 1, 0)
    return [tuple(elems[i] for i in set_bits(m)) for m in sorted(cliques)]


def chain_value(poset: WeightedPoset, chain: Iterable[str]) -> Element:
    return poset.lattice.meet_all(poset.weights[x] for x in chain)


def antichain_value(poset: WeightedPoset, antichain: Iterable[str]) -> Element:
    return poset.lattice.join_all(poset.weights[x] for x in antichain)


@dataclass(frozen=True)
class DilworthReport:
    lhs: Element  # chain side: join over maximal chains of the weight meet
    rhs: Element  # direct: meet over maximal antichains of the weight join;
    # network: the cut side, meet over minimal chain transversals of the weight join
    equal: bool
    chains: tuple[tuple[str, ...], ...]
    antichains: tuple[tuple[str, ...], ...]
    chain_values: tuple
    antichain_values: tuple
    method: str  # "direct" or "network"

    def to_dict(self, lattice: Lattice) -> dict:
        return {
            "lhs": lattice.literal(self.lhs),
            "rhs": lattice.literal(self.rhs),
            "equal": self.equal,
            "method": self.method,
            "chains": [list(c) for c in self.chains],
            "chain_values": [lattice.literal(v) for v in self.chain_values],
            "antichains": [list(a) for a in self.antichains],
            "antichain_values": [lattice.literal(v) for v in self.antichain_values],
        }


def dilworth_direct(poset: WeightedPoset) -> DilworthReport:
    """Both duality sides by direct enumeration of chains and antichains.

    The folds run once per poset: the report is kept on ``poset`` and
    returned by later calls."""
    cached = getattr(poset, "_direct_report", None)
    if cached is not None:
        return cached
    chain_values = [chain_value(poset, c) for c in poset.chains]
    antichain_values = [antichain_value(poset, a) for a in poset.antichains]
    lhs = poset.lattice.join_all(chain_values)
    rhs = poset.lattice.meet_all(antichain_values)
    poset._direct_report = DilworthReport(
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
        chains=poset.chains,
        antichains=poset.antichains,
        chain_values=tuple(chain_values),
        antichain_values=tuple(antichain_values),
        method="direct",
    )
    return poset._direct_report


def _fresh_name(base: str, taken) -> str:
    name = base
    while name in taken:
        name = "_" + name
    return name


def auxiliary_network(poset: WeightedPoset) -> tuple[FlowNetwork, CapacityAssignment]:
    """The flow network whose source-to-sink paths are the maximal chains.

    A fresh source points at every minimal element, every maximal element
    points at a fresh sink, and internal edges are the cover pairs. Cover
    and sink edges (x, y) carry the weight of x; source edges carry the
    join of all weights, so they never constrain a path meet.
    """
    s = _fresh_name("s", poset.elements)
    t = _fresh_name("t", poset.elements)
    top_weight = poset.lattice.join_all(poset.weights[x] for x in poset.elements)
    edges = [
        *((s, m) for m in poset.minimal_elements()),
        *poset.covers,
        *((m, t) for m in poset.maximal_elements()),
    ]
    caps = {e: top_weight if e[0] == s else poset.weights[e[0]] for e in edges}
    net = FlowNetwork((s, *poset.elements, t), edges, s, t)
    return net, CapacityAssignment._of_members(poset.lattice, caps)  # the weights and their join


def dilworth_via_network(poset: WeightedPoset) -> DilworthReport:
    """Both sides via bottleneck duality on the auxiliary network.

    The path-side value maps to the chain side. The cut-side value is the
    meet, over minimal chain transversals, of their weight joins (every
    out-edge of an element carries its weight, so the tails of a cut's
    crossing edges are a chain transversal). It equals the direct
    antichain side only when the maximal antichains are exactly the
    minimal chain transversals. Chain/antichain lists and per-item values
    are the direct route's; only lhs and rhs come from the network, which
    is what makes the cross-method comparison meaningful. The sides take
    :func:`verify_duality`'s ``auto`` routes in strict mode: the dynamic
    program and the threshold cut side on a certified-distributive
    lattice, enumeration of paths and minimal cuts elsewhere.
    """
    net, cap = poset.network
    report = verify_duality(net, cap, mode="strict")
    return replace(
        dilworth_direct(poset),
        lhs=report.alpha,
        rhs=report.beta,
        equal=report.alpha == report.beta,
        method="network",
    )


@dataclass(frozen=True)
class CorrespondenceReport:
    ok: bool
    chain_count: int
    path_count: int
    chains_match_paths: bool
    antichain_count: int
    poset_edge_cut_count: int  # minimal cuts crossing only cover/sink edges
    antichain_roundtrip_ok: bool
    cut_roundtrip_ok: bool
    problems: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "chains": self.chain_count,
            "paths": self.path_count,
            "chains_match_paths": self.chains_match_paths,
            "antichains": self.antichain_count,
            "poset_edge_minimal_cuts": self.poset_edge_cut_count,
            "antichain_roundtrip_ok": self.antichain_roundtrip_ok,
            "cut_roundtrip_ok": self.cut_roundtrip_ok,
            "problems": list(self.problems),
        }


def _cut_for_antichain(poset: WeightedPoset, net: FlowNetwork, antichain) -> frozenset:
    """Source side of the cut induced by an antichain: the source vertex
    plus everything weakly below some antichain member."""
    below = reduce(int.__or__, (poset._down[poset._index[a]] for a in antichain), 0)
    return frozenset({net.source, *(poset.elements[i] for i in set_bits(below))})


def check_correspondences(poset: WeightedPoset) -> CorrespondenceReport:
    """Verify the chain/path and antichain/cut correspondences.

    Checks, and reports rather than raises:
      1. stripping source and sink from each network path gives exactly
         the maximal chains (a bijection);
      2. each maximal antichain A induces a cut whose crossing set uses
         only cover/sink edges and is inclusion-minimal, and taking the
         sources of those crossing edges recovers A;
      3. conversely each minimal cut crossing only cover/sink edges has
         crossing-edge sources forming a maximal antichain that induces
         the same crossing set.
    The antichain round trip (2) fails exactly when some maximal antichain
    misses some maximal chain. The cut round trip (3) works on
    inclusion-minimal crossing-edge sets, not on minimal sets of tail
    elements, so it also fails on posets where both duality sides agree
    (the complete bipartite poset on two plus two elements). Hence ``ok``
    implies that the maximal antichains are exactly the minimal chain
    transversals, but not conversely.

    Both round trips run on bitmasks: crossing sets on edge masks (bit k
    is ``net.edges[k]``), tail sets and antichains on element masks (bit
    i is ``poset.elements[i]``). A side's crossing mask is the OR of its
    vertices' out-edge masks less the OR of their in-edge masks; the
    sides themselves come from :func:`_cut_for_antichain`. Element names
    are built only for the problem messages.
    """
    net, _ = poset.network
    problems: list[str] = []

    paths = enumerate_paths(net)
    chains_match = sorted(p[1:-1] for p in paths) == sorted(poset.chains)
    if not chains_match:
        problems.append("stripped paths differ from maximal chains")

    antichains = poset.antichains  # its element cap applies before any cut is listed
    index = poset._index
    mask_of = {a: sum(1 << index[x] for x in a) for a in antichains}
    maximal = set(mask_of.values())
    elems = poset.elements
    outs = dict.fromkeys(net.vertices, 0)
    ins = dict.fromkeys(net.vertices, 0)
    for k, (u, v) in enumerate(net.edges):
        outs[u] |= 1 << k
        ins[v] |= 1 << k
    source_edges = outs[net.source]
    elem_outs = [(1 << i, outs[x]) for i, x in enumerate(elems)]
    above = [u & ~(1 << i) for i, u in enumerate(poset._up)]  # each element's strict up-set
    in_poset_edges = minimal_cut_masks(net, source_edges)

    def crossing_for(antichain) -> int:
        out = into = 0
        for v in _cut_for_antichain(poset, net, antichain):
            out |= outs[v]
            into |= ins[v]
        return out & ~into

    def tails(crossing: int) -> int:
        found = 0
        for bit, out in elem_outs:
            if out & crossing:
                found |= bit
        return found

    def is_antichain(mask: int) -> bool:
        rest = mask
        while rest:
            low = rest & -rest
            if above[low.bit_length() - 1] & mask:
                return False
            rest ^= low
        return True

    def names(mask: int) -> tuple[str, ...]:
        found = []
        while mask:
            low = mask & -mask
            found.append(elems[low.bit_length() - 1])
            mask ^= low
        return tuple(found)

    def antichain_problem(a) -> str | None:
        crossing = crossing_for(a)
        if crossing & source_edges:
            return f"cut for antichain {a} crosses a source edge"
        if crossing not in in_poset_edges:
            return f"cut for antichain {a} is not a minimal cut"
        back = tails(crossing)
        if back != mask_of[a]:
            return f"antichain {a} round-trips to {names(back)}"
        return None

    def cut_problem(crossing) -> str | None:
        sources = tails(crossing)
        if not is_antichain(sources):
            return f"minimal cut sources {names(sources)} are not an antichain"
        if sources not in maximal:
            return f"minimal cut sources {names(sources)} are not a maximal antichain"
        if crossing_for(names(sources)) != crossing:
            return f"cut with sources {names(sources)} does not round-trip"
        return None

    antichain_problems = [q for q in map(antichain_problem, antichains) if q]
    cut_problems = [q for q in map(cut_problem, in_poset_edges) if q]
    problems += antichain_problems + cut_problems
    if len(antichains) != len(in_poset_edges):
        problems.append(
            f"{len(antichains)} maximal antichains vs {len(in_poset_edges)} "
            "minimal cuts over cover/sink edges"
        )

    return CorrespondenceReport(
        ok=not problems,
        chain_count=len(poset.chains),
        path_count=len(paths),
        chains_match_paths=chains_match,
        antichain_count=len(antichains),
        poset_edge_cut_count=len(in_poset_edges),
        antichain_roundtrip_ok=not antichain_problems,
        cut_roundtrip_ok=not cut_problems,
        problems=tuple(problems),
    )
