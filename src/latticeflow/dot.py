"""DOT rendering of networks (with capacity labels) and posets (Hasse
diagrams with weight labels), with optional witness highlighting."""

from __future__ import annotations

from .bottleneck import DualityReport
from .dilworth import DilworthReport, WeightedPoset
from .instances import Instance
from .network import CapacityAssignment, Cut, FlowNetwork, crossing_edges


def _q(*lines: str) -> str:
    """A DOT quoted string of the lines, joined by DOT's ``\\n`` line
    break. Backslashes are doubled before quotes are escaped, so a name
    ending in a backslash cannot escape the closing quote."""
    return '"' + "\\n".join(x.replace("\\", "\\\\").replace('"', '\\"') for x in lines) + '"'


def network_dot(
    net: FlowNetwork,
    cap: CapacityAssignment,
    highlight_path: tuple[str, ...] | None = None,
    highlight_cut: Cut | None = None,
    name: str = "network",
) -> str:
    path_edges = set(zip(highlight_path, highlight_path[1:])) if highlight_path else set()
    cut_edges = set(crossing_edges(net, highlight_cut)) if highlight_cut else set()
    lines = [f"digraph {_q(name)} {{", "  rankdir=LR;"]
    for v in net.vertices:
        shape = "doublecircle" if v in (net.source, net.sink) else "circle"
        lines.append(f"  {_q(v)} [shape={shape}];")
    for e in net.edges:
        u, v = e
        attrs = [f"label={_q(cap.lattice.format(cap[e]))}"]
        if e in path_edges:
            attrs.append("color=blue")
            attrs.append("penwidth=2")
        if e in cut_edges:
            attrs.append("color=red")
            attrs.append("style=dashed")
        lines.append(f"  {_q(u)} -> {_q(v)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_dot(
    poset: WeightedPoset,
    highlight_chain: tuple[str, ...] | None = None,
    highlight_antichain: tuple[str, ...] | None = None,
    name: str = "poset",
) -> str:
    chain = set(highlight_chain or ())
    antichain = set(highlight_antichain or ())
    chain_edges = set(zip(highlight_chain, highlight_chain[1:])) if highlight_chain else set()
    lines = [f"digraph {_q(name)} {{", "  rankdir=BT;"]
    for x in poset.elements:
        attrs = [f"label={_q(x, poset.lattice.format(poset.weights[x]))}", "shape=box"]
        if x in chain:
            attrs.append("color=blue")
        if x in antichain:
            attrs.append("style=dashed")
            attrs.append("color=red")
        lines.append(f"  {_q(x)} [{', '.join(attrs)}];")
    for a, b in poset.covers:
        attrs = " [color=blue, penwidth=2]" if (a, b) in chain_edges else ""
        lines.append(f"  {_q(a)} -> {_q(b)}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_dot(instance: Instance, report=None) -> str:
    """DOT text for an instance, highlighting report witnesses if given.

    For networks the optimal path and cut of a DualityReport are styled;
    for posets the first maximal chain attaining the chain side and the
    first maximal antichain attaining the antichain side are styled.
    """
    title = instance.name or instance.payload
    if instance.network is not None:
        hp = hc = None
        if isinstance(report, DualityReport):
            hp, hc = report.optimal_path, report.optimal_cut
        return network_dot(instance.network, instance.capacities, hp, hc, name=title)
    poset = instance.poset
    chain = antichain = None
    if isinstance(report, DilworthReport):
        for c, v in zip(report.chains, report.chain_values):
            if v == report.lhs:
                chain = c
                break
        for a, v in zip(report.antichains, report.antichain_values):
            if v == report.rhs:
                antichain = a
                break
    return poset_dot(poset, chain, antichain, name=title)
