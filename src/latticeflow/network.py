"""Flow networks: a finite DAG with a source (all edges outgoing) and a
sink (all edges incoming), plus exhaustive path and cut enumeration.

Cuts are vertex partitions (S, T) with the source in S and the sink in T;
the crossing-edge set is always derived from the partition, never stored.
Enumeration orders are deterministic so reports and golden tests are
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        self._out: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        self._in: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            u, v = e
            if u not in vset or v not in vset:
                raise ValueError(f"edge {e} mentions unknown vertices")
            self._out[u].append(e)
            self._in[v].append(e)

    def out_edges(self, v: str) -> tuple[Edge, ...]:
        return tuple(self._out[v])

    def in_edges(self, v: str) -> tuple[Edge, ...]:
        return tuple(self._in[v])

    def internal_vertices(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if v not in (self.source, self.sink))

    def topological_order(self) -> list[str]:
        return topological_order(self.vertices, self.edges)

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

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "mode": self.mode,
            "violations": [
                {"clause": v.clause, "message": v.message, "offenders": [list(o) if isinstance(o, tuple) else o for o in v.offenders]}
                for v in self.violations
            ],
        }


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

    try:
        topological_order(net.vertices, (e for e in net.edges if e[0] != e[1]))
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


def _reachable(net: FlowNetwork, start: str, forward: bool) -> set:
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        edges = net.out_edges(v) if forward else net.in_edges(v)
        for e in edges:
            w = e[1] if forward else e[0]
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def enumerate_paths(net: FlowNetwork, max_paths: int = DEFAULT_MAX_PATHS) -> list[tuple[str, ...]]:
    """Every simple directed source-to-sink path, in lexicographic order
    of the vertex sequence. On a DAG all paths are simple, so this is all
    of them."""
    succ = {v: sorted(e[1] for e in net.out_edges(v)) for v in net.vertices}
    out: list[tuple[str, ...]] = []
    path = [net.source]
    on_path = {net.source}

    def walk(v: str):
        if v == net.sink:
            if len(out) >= max_paths:
                raise CapExceeded(f"more than {max_paths} source-to-sink paths")
            out.append(tuple(path))
            return
        for w in succ[v]:
            if w in on_path:
                continue
            path.append(w)
            on_path.add(w)
            walk(w)
            path.pop()
            on_path.remove(w)

    walk(net.source)
    return out


def enumerate_cuts(net: FlowNetwork, max_vertices: int = DEFAULT_MAX_CUT_VERTICES) -> list[Cut]:
    """All 2^(|V|-2) vertex partitions separating source from sink, in
    binary-counter order over the name-sorted internal vertices."""
    if len(net.vertices) > max_vertices:
        raise CapExceeded(
            f"cut enumeration needs 2^{len(net.vertices) - 2} partitions; "
            f"cap is {max_vertices} vertices"
        )
    internal = sorted(net.internal_vertices())
    k = len(internal)
    cuts = []
    for mask in range(2**k):
        s_side = {net.source} | {internal[i] for i in range(k) if mask >> i & 1}
        t_side = frozenset(v for v in net.vertices if v not in s_side)
        cuts.append(Cut(frozenset(s_side), t_side))
    return cuts


def minimal_cuts(net: FlowNetwork, max_vertices: int = DEFAULT_MAX_CUT_VERTICES) -> list[Cut]:
    """Cuts whose crossing-edge sets are inclusion-minimal, deduplicated
    by crossing set (distinct partitions can induce the same crossing
    set); first representative in enumeration order is kept."""
    cuts = enumerate_cuts(net, max_vertices)
    by_crossing: dict[frozenset, Cut] = {}
    for cut in cuts:
        key = frozenset(crossing_edges(net, cut))
        if key not in by_crossing:
            by_crossing[key] = cut
    keys = list(by_crossing)
    minimal = [
        by_crossing[k] for k in keys if not any(other < k for other in keys)
    ]
    return minimal


class CapacityAssignment:
    """Total map from edges to elements of one lattice."""

    def __init__(self, lattice: Lattice, values: Mapping[Edge, Element]):
        self.lattice = lattice
        self._values: dict[Edge, Element] = {}
        for edge, value in values.items():
            edge = (edge[0], edge[1])
            lattice.check(value)
            self._values[edge] = value

    def __getitem__(self, edge: Edge) -> Element:
        try:
            return self._values[edge]
        except KeyError:
            raise ValueError(f"edge {edge} has no assigned capacity") from None

    def __contains__(self, edge: Edge) -> bool:
        return edge in self._values

    def items(self):
        return self._values.items()

    def check_total(self, net: FlowNetwork) -> None:
        missing = [e for e in net.edges if e not in self._values]
        extra = [e for e in self._values if e not in net.edge_set]
        if missing:
            raise ValueError(f"edges without capacity: {missing}")
        if extra:
            raise ValueError(f"capacities for unknown edges: {extra}")
