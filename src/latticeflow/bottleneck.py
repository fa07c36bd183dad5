"""Both sides of bottleneck path-cut duality, computed independently.

The path side (alpha) is the join over all source-to-sink paths of the
meet of capacities along the path; the cut side (beta) is the meet over
all cuts of the join of capacities across the cut. On a distributive
lattice the two sides agree; the pentagon and diamond lattices are the
minimal counterexamples, and :func:`counterexample_for` instantiates the
corresponding failing instance for any non-distributive lattice.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certify import DEFAULT_MAX_UNIVERSE, check_distributive, is_distributive
from .errors import DistributivityRequired
from .lattices import Element, Lattice
from .network import (
    DEFAULT_MAX_CUT_VERTICES,
    DEFAULT_MAX_PATHS,
    CapacityAssignment,
    Cut,
    FlowNetwork,
    crossing_edges,
    enumerate_cuts,
    enumerate_paths,
    minimal_cuts,
)


def path_throughput(net: FlowNetwork, cap: CapacityAssignment, path: tuple[str, ...]) -> Element:
    """Meet of the capacities along a source-to-sink path."""
    edges = list(zip(path, path[1:]))
    if not edges:
        raise ValueError("path must contain at least one edge")
    for e in edges:
        if e not in net.edge_set:
            raise ValueError(f"{e} is not an edge of the network")
    return cap.lattice.meet_all(cap[e] for e in edges)


def cut_capacity(net: FlowNetwork, cap: CapacityAssignment, cut: Cut) -> Element:
    """Join of the capacities across a cut.

    An empty crossing set (possible only when no source-to-sink path
    exists) is the empty join, i.e. the lattice bottom; NoBottomError if
    the lattice has none.
    """
    return cap.lattice.join_all(cap[e] for e in crossing_edges(net, cut))


def require_distributive(
    lattice: Lattice, allow_non_distributive: bool, max_size: int, what: str
) -> None:
    """The gate in front of every route that is exact only on distributive
    lattices: DistributivityRequired unless the lattice is certified
    distributive or the caller overrides."""
    dist = is_distributive(lattice, max_size)
    if dist is not True and not allow_non_distributive:
        raise DistributivityRequired(
            f"{lattice.describe()} is not certified distributive; {what} is only "
            "exact on distributive lattices (pass allow_non_distributive=True to "
            "force it)"
        )


def alpha_bruteforce(
    net: FlowNetwork, cap: CapacityAssignment, max_paths: int = DEFAULT_MAX_PATHS
) -> Element:
    """Join over all paths of the path throughput, by full enumeration.

    With no source-to-sink path at all the value is the empty join, the
    lattice bottom (the duality statement degenerates to bottom = bottom).
    """
    return cap.lattice.join_all(
        path_throughput(net, cap, p) for p in enumerate_paths(net, max_paths)
    )


def beta_bruteforce(
    net: FlowNetwork,
    cap: CapacityAssignment,
    mode: str = "strict",
    max_vertices: int = DEFAULT_MAX_CUT_VERTICES,
) -> Element:
    """Meet over cuts of the cut capacity, by full enumeration.

    Strict mode folds over all cuts. Lenient mode folds over minimal cuts
    only: with dead ends, non-minimal crossing sets pick up edges that lie
    on no path, and restricting to inclusion-minimal crossing sets is what
    keeps the duality intact (the two folds agree whenever every empty
    join involved is defined, since every crossing set contains a minimal
    one)."""
    return _cut_side(net, cap, mode, max_vertices)[2]


def _cut_side(
    net: FlowNetwork, cap: CapacityAssignment, mode: str, max_vertices: int
) -> tuple[list[Cut], list[Element], Element]:
    """The cuts the cut side ranges over, their capacities, and their meet."""
    cuts = enumerate_cuts(net, max_vertices) if mode == "strict" else minimal_cuts(net, max_vertices)
    capacities = [cut_capacity(net, cap, c) for c in cuts]
    return cuts, capacities, cap.lattice.meet_all(capacities)


def alpha_dp(
    net: FlowNetwork,
    cap: CapacityAssignment,
    allow_non_distributive: bool = False,
    max_size: int = DEFAULT_MAX_UNIVERSE,
) -> Element:
    """Path side by dynamic programming over a topological order.

    The source is seeded with the join of all assigned capacities, an
    upper bound of every path meet, so no global top is required. Each
    vertex folds join over incoming edges of meet(value(upstream),
    capacity). Correct on distributive lattices only, which is why it
    refuses non-certified lattices without the override flag.
    """
    require_distributive(cap.lattice, allow_non_distributive, max_size, "the dynamic program")
    order = net.topological_order()
    lat = cap.lattice
    value: dict[str, Element] = {net.source: lat.join_all(v for _, v in cap.items())}
    for v in order:
        if v == net.source:
            continue
        terms = [
            lat._meet(value[u], cap[(u, v)])
            for (u, _) in net.in_edges(v)
            if u in value
        ]
        if terms:
            value[v] = lat.join_all(terms)
    # an unreached sink means no source-to-sink path: the empty join
    return value[net.sink] if net.sink in value else lat.join_all(())


@dataclass(frozen=True)
class DualityReport:
    alpha: Element
    beta: Element
    equal: bool
    optimal_path: tuple[str, ...] | None
    optimal_cut: Cut | None
    alpha_method: str
    beta_method: str
    n_paths: int
    n_cuts: int

    def to_dict(self, net: FlowNetwork, cap: CapacityAssignment) -> dict:
        lat = cap.lattice
        return {
            "alpha": lat.literal(self.alpha),
            "beta": lat.literal(self.beta),
            "equal": self.equal,
            "alpha_method": self.alpha_method,
            "beta_method": self.beta_method,
            "optimal_path": list(self.optimal_path) if self.optimal_path else None,
            "optimal_cut": self.optimal_cut.to_dict(net) if self.optimal_cut else None,
            "paths": self.n_paths,
            "cuts": self.n_cuts,
        }


def verify_duality(
    net: FlowNetwork,
    cap: CapacityAssignment,
    mode: str = "strict",
    method: str = "auto",
    max_paths: int = DEFAULT_MAX_PATHS,
    max_vertices: int = DEFAULT_MAX_CUT_VERTICES,
    allow_non_distributive: bool = False,
) -> DualityReport:
    """Compute both duality sides and attach achieving witnesses.

    ``method`` picks how the path side is computed: "bruteforce" folds
    over enumerated paths, "dp" runs the dynamic program (distributive
    lattices only unless overridden), "auto" uses the dynamic program
    exactly when the lattice is certified distributive. The cut side is
    always brute force. A path or cut witness is attached only when some
    path/cut actually attains the reported value; either may be absent.
    """
    if method not in ("auto", "bruteforce", "dp"):
        raise ValueError(f"method must be auto, bruteforce or dp, got {method!r}")
    paths = enumerate_paths(net, max_paths)
    if method == "auto":
        method = "dp" if is_distributive(cap.lattice) is True else "bruteforce"
    if method == "dp":
        alpha = alpha_dp(net, cap, allow_non_distributive=allow_non_distributive)
    else:
        alpha = alpha_bruteforce(net, cap, max_paths)
    cuts, capacities, beta = _cut_side(net, cap, mode, max_vertices)

    optimal_path = next((p for p in paths if path_throughput(net, cap, p) == alpha), None)
    optimal_cut = next((c for c, value in zip(cuts, capacities) if value == beta), None)

    return DualityReport(
        alpha=alpha,
        beta=beta,
        equal=alpha == beta,
        optimal_path=optimal_path,
        optimal_cut=optimal_cut,
        alpha_method=method,
        beta_method="bruteforce",
        n_paths=len(paths),
        n_cuts=len(cuts),
    )


def counterexample_for(
    lattice: Lattice, certificate=None
) -> tuple[FlowNetwork, CapacityAssignment]:
    """A concrete instance over a non-distributive lattice on which the
    two duality sides differ.

    Uses the lattice's pentagon/diamond sublattice witness: an N5 witness
    fills the five-edge two-path template, an M3 witness the three-edge
    template. verify_duality on the result reports equal == False.
    """
    cert = certificate if certificate is not None else check_distributive(lattice)
    if cert.distributive:
        raise ValueError(f"{lattice.describe()} is distributive; no counterexample exists")
    wit = cert.sublattice
    if wit is None:
        raise ValueError("certificate carries no sublattice witness")
    emb = wit.embedding
    if wit.label == "N5":
        net = FlowNetwork(
            ["s", "u", "v", "w", "t"],
            [("s", "u"), ("s", "v"), ("u", "w"), ("v", "w"), ("w", "t")],
            "s",
            "t",
        )
        cap = CapacityAssignment(
            lattice,
            {
                ("s", "u"): emb["a"],
                ("s", "v"): emb["c"],
                ("u", "w"): emb["1"],
                ("v", "w"): emb["1"],
                ("w", "t"): emb["b"],
            },
        )
    else:  # M3
        net = FlowNetwork(["s", "u", "t"], [("s", "t"), ("s", "u"), ("u", "t")], "s", "t")
        cap = CapacityAssignment(
            lattice,
            {("s", "t"): emb["a"], ("s", "u"): emb["b"], ("u", "t"): emb["c"]},
        )
    return net, cap
