"""Flow networks: a finite DAG with a source (all edges outgoing) and a
sink (all edges incoming), plus exhaustive path and cut enumeration.

Cuts are vertex partitions (S, T) with the source in S and the sink in T;
the crossing-edge set is always derived from the partition, never stored.
Enumeration orders are deterministic so reports and golden tests are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping

from .errors import CapExceeded
from .lattices import Element, Lattice
from .orderutils import topological_order

Edge = tuple[str, str]

DEFAULT_MAX_PATHS = 1_000_000
DEFAULT_MAX_CUT_VERTICES = 22


class FlowNetwork:
    """Directed graph with named vertices and distinguished source/sink.

    The constructor rejects structurally malformed data (unknown or
    duplicate vertices/edges, source == sink); the flow-network clauses
    that can meaningfully fail (self-loops, cycles, edge directions at
    source/sink, connectivity) are checked by :func:`validate_network`,
    which reports rather than raises. Instance files must pass its
    lenient clauses to load.
    """

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge], source: str, sink: str):
        self.vertices = tuple(vertices)
        self.edges = tuple((u, v) for u, v in edges)
        self.edge_set = frozenset(self.edges)
        self.source = source
        self.sink = sink
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        vset = set(self.vertices)
        if source not in vset or sink not in vset:
            raise ValueError("source and sink must be listed vertices")
        if source == sink:
            raise ValueError("source and sink must be distinct")
        if len(self.edge_set) != len(self.edges):
            raise ValueError("duplicate (parallel) edges are not representable")
        out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        into: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            u, v = e
            if u not in vset or v not in vset:
                raise ValueError(f"edge {e} mentions unknown vertices")
            out[u].append(e)
            into[v].append(e)
        self._out = {v: tuple(es) for v, es in out.items()}
        self._in = {v: tuple(es) for v, es in into.items()}

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        return self._out[v]

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        return self._in[v]

    def internal_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if v not in (self.source, self.sink))

    def topological_order(self) -> tuple[str, ...]:
        """The vertices in :func:`orderutils.topological_order`'s order,
        computed on the first call and kept; a cycle raises ValueError on
        every call."""
        order = getattr(self, "_topological_order", None)
        if order is None:
            order = self._topological_order = tuple(topological_order(self.vertices, self.edges))
        return order

    @cached_property
    def partition_order(self) -> tuple[str, ...]:
        """Name-sorted internal vertices; bit i of a partition mask is the i-th."""
        return tuple(sorted(self.internal_vertices()))

    @property
    def n_partitions(self) -> int:
        """How many cuts separate source from sink: 2^(internal vertices)."""
        return 2 ** len(self.partition_order)

    def __repr__(self):
        return (
            f"FlowNetwork({len(self.vertices)} vertices, {len(self.edges)} edges, "
            f"{self.source!r} -> {self.sink!r})"
        )


@dataclass(frozen=True)
class Cut:
    """Vertex partition with the source on the S side, sink on the T side."""

    source_side: frozenset
    sink_side: frozenset

    def to_dict(self, net: FlowNetwork) -> dict:
        return {
            "source_side": [v for v in net.vertices if v in self.source_side],
            "sink_side": [v for v in net.vertices if v in self.sink_side],
            "crossing": [list(e) for e in crossing_edges(net, self)],
        }


def source_side_cut(net: FlowNetwork, side) -> Cut:
    """The cut with source side ``side`` and every other vertex opposite."""
    return Cut(frozenset(side), frozenset(v for v in net.vertices if v not in side))


def crossing_edges(net: FlowNetwork, cut: Cut) -> tuple[Edge, ...]:
    """Edges from the S side to the T side, in network edge order."""
    s, t = cut.source_side, cut.sink_side
    return tuple(e for e in net.edges if e[0] in s and e[1] in t)


@dataclass(frozen=True)
class Violation:
    clause: str
    message: str
    offenders: tuple


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    mode: str
    violations: tuple[Violation, ...]


def validate_network(net: FlowNetwork, mode: str = "strict") -> ValidationReport:
    """Check the flow-network clauses; strict mode additionally requires
    every internal vertex to lie on some source-to-sink path, lenient
    mode permits dead ends."""
    if mode not in ("strict", "lenient"):
        raise ValueError(f"mode must be 'strict' or 'lenient', got {mode!r}")
    violations: list[Violation] = []

    loops = tuple(e for e in net.edges if e[0] == e[1])
    if loops:
        violations.append(Violation("self-loops", "self-loops are not allowed", loops))

    # loops are reported above, not again as a cycle; loop-free, reuse the kept order
    try:
        if loops:
            topological_order(net.vertices, (e for e in net.edges if e[0] != e[1]))
        else:
            net.topological_order()
    except ValueError as exc:
        violations.append(Violation("acyclic", str(exc), ()))

    into_source = net.in_edges(net.source)
    if into_source:
        violations.append(
            Violation("source-edges", "all edges at the source must be outgoing", into_source)
        )
    out_of_sink = net.out_edges(net.sink)
    if out_of_sink:
        violations.append(
            Violation("sink-edges", "all edges at the sink must be incoming", out_of_sink)
        )

    if mode == "strict" and not any(v.clause == "acyclic" for v in violations):
        reach_s = _reachable(net, net.source, forward=True)
        reach_t = _reachable(net, net.sink, forward=False)
        stranded = tuple(
            v for v in net.internal_vertices() if v not in reach_s or v not in reach_t
        )
        if stranded:
            violations.append(
                Violation(
                    "connectivity",
                    "every internal vertex must lie on some source-to-sink path",
                    stranded,
                )
            )

    return ValidationReport(ok=not violations, mode=mode, violations=tuple(violations))


def _reachable(net: FlowNetwork, start: str, forward: bool, through=None) -> set:
    """The vertices reachable from ``start`` (reaching it, when not
    ``forward``), along the edges in ``through`` if it is given."""
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        edges = net.out_edges(v) if forward else net.in_edges(v)
        for e in edges:
            w = e[1] if forward else e[0]
            if w not in seen and (through is None or e in through):
                seen.add(w)
                frontier.append(w)
    return seen


def enumerate_paths(net: FlowNetwork, max_paths: int = DEFAULT_MAX_PATHS) -> list[tuple[str, ...]]:
    """Every simple directed source-to-sink path, in lexicographic order
    of the vertex sequence, by a depth-first walk on a stack of its own.
    On a DAG all paths are simple, so this is all of them."""
    succ = {v: sorted(e[1] for e in net.out_edges(v)) for v in net.vertices}
    out: list[tuple[str, ...]] = []
    path = [net.source]
    on_path = {net.source}
    stack = [iter(succ[net.source])]  # one successor iterator per path vertex
    while stack:
        for w in stack[-1]:
            if w not in on_path:
                break
        else:
            stack.pop()
            on_path.remove(path.pop())
            continue
        if w == net.sink:
            if len(out) >= max_paths:
                raise CapExceeded(f"more than {max_paths} source-to-sink paths")
            out.append((*path, w))
        else:
            path.append(w)
            on_path.add(w)
            stack.append(iter(succ[w]))
    return out


def count_paths(net: FlowNetwork) -> int:
    """How many paths :func:`enumerate_paths` lists, without listing
    them: each vertex's count is the sum of its predecessors' counts over
    the kept topological order, in Python integers. ValueError on a
    cycle."""
    count = dict.fromkeys(net.vertices, 0)
    for v in net.topological_order():
        count[v] = 1 if v == net.source else sum(count[u] for u, _ in net.in_edges(v))
    return count[net.sink]


def _check_cut_cap(net: FlowNetwork, max_vertices: int) -> None:
    if len(net.vertices) > max_vertices:
        raise CapExceeded(
            f"cut enumeration needs 2^{len(net.partition_order)} partitions; "
            f"cap is {max_vertices} vertices"
        )


def partition_cut(net: FlowNetwork, mask: int) -> Cut:
    """The cut of partition mask ``mask``: bit i puts the i-th name-sorted
    internal vertex on the source side."""
    side = {net.source, *(v for i, v in enumerate(net.partition_order) if mask >> i & 1)}
    return source_side_cut(net, side)


def enumerate_cuts(net: FlowNetwork, max_vertices: int = DEFAULT_MAX_CUT_VERTICES) -> list[Cut]:
    """All 2^(|V|-2) vertex partitions separating source from sink, in
    binary-counter order over the name-sorted internal vertices."""
    _check_cut_cap(net, max_vertices)
    return [partition_cut(net, mask) for mask in range(net.n_partitions)]


def _or_table(base: int, masks: list[int]) -> list[int]:
    """Entry m is ``base`` OR-ed with masks[i] for every bit i of m."""
    table = [base]
    for m in range(1, 2 ** len(masks)):
        low = m & -m
        table.append(table[m ^ low] | masks[low.bit_length() - 1])
    return table


def crossing_masks(net: FlowNetwork, max_vertices: int = DEFAULT_MAX_CUT_VERTICES) -> dict[int, int]:
    """Every distinct crossing-edge set of the partitions of
    :func:`enumerate_cuts`, walked in the same order without building
    them.

    Keys are edge bitmasks (bit i is ``net.edges[i]``), each mapped to the
    first partition mask (see :func:`partition_cut`) that induces it;
    insertion order is first-seen order. A partition's crossing set is
    the OR of its source side's out-edge masks less the OR of its in-edge
    masks. Those ORs come from two tables over the low and the high half
    of the vertex bits, so memory grows with the distinct crossing sets,
    not with the partitions. Each call walks afresh and returns a dict of
    its own.
    """
    _check_cut_cap(net, max_vertices)
    bit = {e: 1 << i for i, e in enumerate(net.edges)}

    def edge_mask(edges) -> int:
        return sum(bit[e] for e in edges)

    internal = net.partition_order
    outs = [edge_mask(net.out_edges(v)) for v in internal]
    ins = [edge_mask(net.in_edges(v)) for v in internal]
    lo_bits = (len(internal) + 1) // 2
    lo = list(zip(
        _or_table(edge_mask(net.out_edges(net.source)), outs[:lo_bits]),
        _or_table(edge_mask(net.in_edges(net.source)), ins[:lo_bits]),
    ))
    hi = zip(_or_table(0, outs[lo_bits:]), _or_table(0, ins[lo_bits:]))
    first: dict[int, int] = {}
    for h, (h_out, h_in) in enumerate(hi):
        base = h << lo_bits
        for low, (l_out, l_in) in enumerate(lo):
            crossing = (l_out | h_out) & ~(l_in | h_in)
            if crossing not in first:
                first[crossing] = base | low
    return first


def minimal_cut_masks(net: FlowNetwork, avoid: int) -> dict[int, int]:
    """The minimal s-t cuts that share no edge with the edge mask
    ``avoid``, as :func:`crossing_masks` has them but without walking
    partitions: each crossing mask mapped to the first partition mask
    that induces it, in the walk's first-seen order.

    A crossing set C is minimal exactly when the vertices S that the
    source reaches in G - C have C as their out-edges and every head of
    C reaches the sink in G - S (Provan & Shier, "A paradigm for listing
    (s,t)-cuts in graphs", Algorithmica 1996). So this backtracks over
    the topological order on vertex bitmasks: a vertex with a
    predecessor in S joins S or is left out as a head, which must reach
    the sink avoiding S (checked by one reverse pass each time S grows)
    and may receive no ``avoid`` edge from S. Edges into the sink are
    only known at a leaf, where a crossing mask meeting ``avoid`` is
    dropped. S is the smallest side inducing C, so the first partition
    of the walk that does: the cuts are listed by its partition mask.
    Needs a DAG and checks no cap; it walks on a stack of its own.
    """
    order = net.topological_order()
    pos = {v: i for i, v in enumerate(order)}
    bit = {e: 1 << i for i, e in enumerate(net.edges)}
    n = len(order)
    succ = [sum(1 << pos[w] for _, w in net.out_edges(v)) for v in order]
    pred = [sum(1 << pos[u] for u, _ in net.in_edges(v)) for v in order]
    avoid_pred = [sum(1 << pos[e[0]] for e in net.in_edges(v) if bit[e] & avoid) for v in order]
    outs = [sum(bit[e] for e in net.out_edges(v)) for v in order]
    ins = [sum(bit[e] for e in net.in_edges(v)) for v in order]
    part = [0] * n  # partition-mask bit of each position; none for the source and sink
    for i, v in enumerate(net.partition_order):
        part[pos[v]] = 1 << i
    src, sink = pos[net.source], pos[net.sink]

    def reach_sink(side: int) -> int:
        """The vertices that reach the sink avoiding ``side``."""
        reach = 1 << sink
        for i in range(sink - 1, -1, -1):
            if succ[i] & reach and not side >> i & 1:
                reach |= 1 << i
        return reach

    found: list[tuple[int, int]] = []
    # next position, S, heads, reach; the ORs of S's out- and in-edge masks, its partition mask
    stack = [(src + 1, 1 << src, 0, reach_sink(1 << src), outs[src], ins[src], 0)]
    while stack:
        i, side, heads, reach, out, into, side_part = stack.pop()
        while i < n and (i == sink or not pred[i] & side):
            i += 1
        if i == n:
            crossing = out & ~into
            if not crossing & avoid:
                found.append((side_part, crossing))
            continue
        if reach >> i & 1 and not avoid_pred[i] & side:
            stack.append((i + 1, side, heads | 1 << i, reach, out, into, side_part))
        grown = side | 1 << i
        grown_reach = reach_sink(grown)
        if not heads & ~grown_reach:
            stack.append((i + 1, grown, heads, grown_reach, out | outs[i], into | ins[i], side_part | part[i]))
    return {crossing: side_part for side_part, crossing in sorted(found)}


def minimal_cuts(net: FlowNetwork, max_vertices: int = DEFAULT_MAX_CUT_VERTICES) -> list[Cut]:
    """Cuts whose crossing-edge sets are inclusion-minimal, deduplicated
    by crossing set (distinct partitions can induce the same crossing
    set); first representative in enumeration order is kept. Listed by
    :func:`minimal_cut_masks` under the partition walk's vertex cap."""
    _check_cut_cap(net, max_vertices)
    return [partition_cut(net, side_part) for side_part in minimal_cut_masks(net, 0).values()]


class CapacityAssignment:
    """Total map from edges to elements of one lattice. Each value is
    checked for membership here, once."""

    def __init__(self, lattice: Lattice, values: Mapping[Edge, Element]):
        self.lattice = lattice
        self._values: dict[Edge, Element] = {}
        for edge, value in values.items():
            edge = (edge[0], edge[1])
            lattice.check(value)
            self._values[edge] = value

    @classmethod
    def _of_members(cls, lattice: Lattice, values: dict[Edge, Element]) -> CapacityAssignment:
        """The assignment of ``values``, keyed by edge tuples, that are
        members already: returned by :meth:`Lattice.parse`, or folded from
        such. They are not checked again."""
        cap = cls.__new__(cls)
        cap.lattice, cap._values = lattice, values
        return cap

    def __getitem__(self, edge: Edge) -> Element:
        try:
            return self._values[edge]
        except KeyError:
            raise ValueError(f"edge {edge} has no assigned capacity") from None

    def __contains__(self, edge: Edge) -> bool:
        return edge in self._values

    def items(self):
        return self._values.items()
