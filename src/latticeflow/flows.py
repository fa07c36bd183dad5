"""Lattice-valued flows: capacity-dominated edge labelings whose joins
balance at every internal vertex.

Conservation uses the join operator: the join of values on incoming
edges equals the join on outgoing edges. The set of all flows is never
materialized; the maximum flow value reduces to the join of path
throughputs via the path-flow construction, and arbitrary flows are only
checked for feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .bottleneck import alpha_bruteforce, path_throughput, require_distributive
from .certify import is_distributive  # noqa: F401  (unused here; perfbench/spans.py wraps this binding)
from .lattices import Element
from .network import CapacityAssignment, Edge, FlowNetwork
from .network import enumerate_paths  # noqa: F401  (unused here; perfbench/spans.py wraps this binding)


@dataclass(frozen=True)
class FlowCheck:
    ok: bool
    capacity_violations: tuple  # (edge, value, capacity)
    conservation_violations: tuple  # (vertex, in_value, out_value)
    value: Element  # join over the source's outgoing edges, feasible or not

    def to_dict(self, cap: CapacityAssignment) -> dict:
        fmt = cap.lattice.format
        return {
            "ok": self.ok,
            "capacity_violations": [
                {"edge": list(e), "value": fmt(v), "capacity": fmt(c)}
                for e, v, c in self.capacity_violations
            ],
            "conservation_violations": [
                {"vertex": v, "in": fmt(i), "out": fmt(o)}
                for v, i, o in self.conservation_violations
            ],
            "value": cap.lattice.literal(self.value),
        }


def is_feasible_flow(
    net: FlowNetwork,
    cap: CapacityAssignment,
    phi: Mapping[Edge, Element],
) -> FlowCheck:
    """Report whether phi is capacity-dominated and join-conserved, and
    its value: the join over the source's outgoing edges.

    Every value of phi is checked for membership first (MismatchError).
    Dead-end vertices (possible in lenient mode) compare against the
    empty join, the lattice bottom, as does a source without out-edges.
    """
    lat = cap.lattice
    missing = [e for e in net.edges if e not in phi]
    if missing:
        raise ValueError(f"flow is missing values for edges: {missing}")
    for e in net.edges:
        lat.check(phi[e])

    cap_bad = []
    for e in net.edges:
        if not lat._leq(phi[e], cap[e]):
            cap_bad.append((e, phi[e], cap[e]))

    cons_bad = []
    for v in net.internal_vertices():
        in_edges = net.in_edges(v)
        out_edges = net.out_edges(v)
        if not in_edges and not out_edges:
            continue  # isolated vertex conserves trivially
        in_value = lat.join_all((phi[e] for e in in_edges))
        out_value = lat.join_all((phi[e] for e in out_edges))
        if in_value != out_value:
            cons_bad.append((v, in_value, out_value))

    return FlowCheck(
        ok=not cap_bad and not cons_bad,
        capacity_violations=tuple(cap_bad),
        conservation_violations=tuple(cons_bad),
        value=lat.join_all(phi[e] for e in net.out_edges(net.source)),
    )


def flow_value(
    net: FlowNetwork,
    cap: CapacityAssignment,
    phi: Mapping[Edge, Element],
) -> Element:
    """The value of a feasible flow; ValueError if phi is infeasible.
    ``is_feasible_flow(...).value`` reads the value of any flow."""
    check = is_feasible_flow(net, cap, phi)
    if not check.ok:
        raise ValueError(
            f"flow is infeasible: {len(check.capacity_violations)} capacity and "
            f"{len(check.conservation_violations)} conservation violations"
        )
    return check.value


def path_flow(
    net: FlowNetwork,
    cap: CapacityAssignment,
    path: tuple[str, ...],
    mode: str = "strict",
) -> dict[Edge, Element]:
    """The canonical flow supported on one path.

    On-path edges carry the path throughput; off-path edges carry the
    meet of all assigned capacities (strict) or the lattice bottom
    (lenient, where dead ends need the empty join to balance). The result
    always passes is_feasible_flow and its value is the path throughput.
    """
    value = path_throughput(net, cap, path)
    lat = cap.lattice
    if mode == "lenient":
        base = lat.join_all(())
    else:
        base = lat.meet_all(v for _, v in cap.items())
    on_path = set(zip(path, path[1:]))
    return {e: (value if e in on_path else base) for e in net.edges}


def joined_path_flow(
    net: FlowNetwork,
    cap: CapacityAssignment,
    paths: Iterable[tuple[str, ...]],
    mode: str = "strict",
) -> dict[Edge, Element]:
    """Edgewise join of several path flows.

    Unlike joins of arbitrary flows (not assumed to be flows here), joins
    of path flows conserve: at any vertex both sides equal the join of
    the throughputs of the paths through it, over the common base value.
    """
    lat = cap.lattice
    flows = [path_flow(net, cap, p, mode) for p in paths]
    if not flows:
        raise ValueError("need at least one path")
    return {e: lat.join_all(f[e] for f in flows) for e in net.edges}


def max_flow_value(
    net: FlowNetwork,
    cap: CapacityAssignment,
    allow_non_distributive: bool = False,
) -> Element:
    """Largest flow value, computed as the join of path throughputs.

    The reduction from all flows to path flows (and the equality with the
    minimal cut value) is only valid over distributive lattices, so the
    same certification gate as the dynamic program applies.
    """
    require_distributive(
        cap.lattice, allow_non_distributive, "equating the maximal flow value with the path side"
    )
    return alpha_bruteforce(net, cap)
