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

from .certify import check_distributive, is_distributive
from .errors import DistributivityRequired
from .lattices import Element, Lattice
from .network import (
    DEFAULT_MAX_CUT_VERTICES,
    DEFAULT_MAX_PATHS,
    CapacityAssignment,
    Cut,
    FlowNetwork,
    _check_cut_cap,
    _or_table,
    _reachable,
    count_paths,
    crossing_edges,
    crossing_masks,
    enumerate_paths,
    minimal_cut_masks,
    partition_cut,
    source_side_cut,
)
from .network import enumerate_cuts, minimal_cuts  # noqa: F401  (unused here; perfbench/spans.py wraps these bindings)
from .orderutils import set_bits


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
    lattice: Lattice, allow_non_distributive: bool, what: str, overridable: bool = True
) -> None:
    """The gate in front of every route that is exact only on distributive
    lattices: DistributivityRequired unless the lattice is certified
    distributive or the caller overrides. Routes that are not
    ``overridable`` leave the override out of the message."""
    dist = is_distributive(lattice)
    if dist is not True and not allow_non_distributive:
        hint = " (pass allow_non_distributive=True to force it)" if overridable else ""
        raise DistributivityRequired(
            f"{lattice.describe()} is not certified distributive; {what} is only "
            f"exact on distributive lattices{hint}"
        )


def alpha_bruteforce(net: FlowNetwork, cap: CapacityAssignment) -> Element:
    """Join over all paths of the path throughput, by full enumeration.

    With no source-to-sink path at all the value is the empty join, the
    lattice bottom (the duality statement degenerates to bottom = bottom).
    """
    return _path_side(net, cap, DEFAULT_MAX_PATHS)[2]


def _path_side(
    net: FlowNetwork, cap: CapacityAssignment, max_paths: int
) -> tuple[list[tuple[str, ...]], list[Element], Element]:
    """The paths the path side ranges over, their throughputs, and their
    join. The paths come from :func:`enumerate_paths`, so their edges are
    not looked up again as :func:`path_throughput` does."""
    paths = enumerate_paths(net, max_paths)
    meet_all, capacity = cap.lattice.meet_all, cap.__getitem__
    throughputs = [meet_all(map(capacity, zip(p, p[1:]))) for p in paths]
    return paths, throughputs, cap.lattice.join_all(throughputs)


def first_path_at_least(net: FlowNetwork, cap: CapacityAssignment, j: Element) -> tuple[str, ...] | None:
    """The first path in :func:`enumerate_paths`' order whose every edge
    has capacity >= ``j``: a source-to-sink path of G_j, or None when G_j
    has none.

    One backward pass marks the vertices that reach the sink in G_j; the
    path then steps from the source to the smallest marked successor
    along an edge of G_j until it meets the sink. A path's throughput is
    a meet, so it is >= j exactly when every edge on the path is. On the
    ``dp`` route j is alpha, which bounds every throughput from above, so
    this is the first path that attains alpha.
    """
    lat = cap.lattice
    kept = {e for e in net.edges if lat._leq(j, cap[e])}
    marked = _reachable(net, net.sink, False, kept)
    if net.source not in marked:
        return None
    path = [net.source]
    while path[-1] != net.sink:
        path.append(min(e[1] for e in net.out_edges(path[-1]) if e in kept and e[1] in marked))
    return tuple(path)


def beta_bruteforce(net: FlowNetwork, cap: CapacityAssignment, mode: str = "strict") -> Element:
    """Meet over cuts of the cut capacity, by full enumeration.

    Strict mode folds over all cuts, walking the partitions. Lenient mode
    folds over minimal cuts only, listed by their source sides: with dead
    ends, non-minimal crossing sets pick up edges that lie on no path, and
    restricting to inclusion-minimal crossing sets is what keeps the
    duality intact (the two folds agree whenever every empty join involved
    is defined, since every crossing set contains a minimal one). Both
    modes keep the partition walk's vertex cap."""
    return _cut_side(net, cap, mode, DEFAULT_MAX_CUT_VERTICES)[2]


def _cut_side(
    net: FlowNetwork, cap: CapacityAssignment, mode: str, max_vertices: int
) -> tuple[int, Cut | None, Element]:
    """How many cuts the cut side ranges over, the first of them (in
    enumeration order) whose capacity is the meet, and that meet.

    Strict mode walks every partition (:func:`crossing_masks`), lenient
    mode lists the minimal cuts (:func:`minimal_cut_masks`). A cut's
    capacity depends only on the set of distinct values that cross it,
    because join is associative, commutative and idempotent under the
    lattice axioms. So the distinct capacity values are numbered in
    first-edge order, each crossing-edge mask is mapped to its value mask
    through OR tables over 8 edges at a time, and each distinct value
    mask is folded once. The empty crossing set still folds as the empty
    join: the bottom, or NoBottomError.
    """
    if mode == "strict":
        first = crossing_masks(net, max_vertices)
    else:
        _check_cut_cap(net, max_vertices)
        first = minimal_cut_masks(net, 0)
    lat = cap.lattice
    value_bit: dict[Element, int] = {}
    edge_bits = [value_bit.setdefault(cap[e], 1 << len(value_bit)) for e in net.edges]
    tables = [_or_table(0, edge_bits[i:i + 8]) for i in range(0, len(edge_bits), 8)]

    def value_mask(m: int) -> int:
        out = 0
        for table in tables:
            out |= table[m & 0xFF]
            m >>= 8
        return out

    values = list(value_bit)
    value_masks = {m: value_mask(m) for m in first}
    capacity = {
        v: lat.join_all(values[i] for i in set_bits(v)) for v in dict.fromkeys(value_masks.values())
    }
    beta = lat.meet_all(capacity.values())
    witness = next((first[m] for m, v in value_masks.items() if capacity[v] == beta), None)
    n_cuts = net.n_partitions if mode == "strict" else len(first)
    return n_cuts, None if witness is None else partition_cut(net, witness), beta


def cut_side(
    net: FlowNetwork, cap: CapacityAssignment, mode: str, max_vertices: int
) -> tuple[str, int, Cut | None, Element]:
    """The route's name, cut count, first optimal cut and beta by the one
    route rule: strict mode on a certified-distributive lattice takes the
    threshold cut side, with no vertex cap; the rest enumerates cuts."""
    if mode == "strict" and is_distributive(cap.lattice) is True:
        return "threshold", net.n_partitions, *_threshold_side(net, cap)
    return "bruteforce", *_cut_side(net, cap, mode, max_vertices)


def beta_threshold(net: FlowNetwork, cap: CapacityAssignment) -> Element:
    """Strict-mode cut side from the join-irreducibles, with no cut
    enumeration and no vertex cap. Certified-distributive lattices only,
    with no override: elsewhere a join-irreducible need not be join-prime
    and the result can miss beta."""
    require_distributive(cap.lattice, False, "the threshold cut side", overridable=False)
    return _threshold_side(net, cap)[1]


def _threshold_side(net: FlowNetwork, cap: CapacityAssignment) -> tuple[Cut | None, Element]:
    """The strict cut side's optimal cut and value on a distributive
    lattice.

    There every join-irreducible j is join-prime, so j <= beta exactly
    when every cut crosses an edge of capacity >= j, that is, when those
    edges connect the source to the sink. Bit i of an edge's mask is set
    when the i-th join-irreducible lies below its capacity; one pass in
    topological order finds the bits each vertex is reached with, and
    beta is the join of the sink's bits. A cut attains beta exactly when
    no crossing edge has a bit outside the sink's, so the smallest such
    source side is the closure of the source along those edges: the first
    partition of :func:`crossing_masks`' walk that attains beta. When that
    closure holds the sink, no cut attains beta.
    """
    lat = cap.lattice
    joins = lat.join_irreducibles()
    value_mask = {  # built as bit strings, highest bit first: linear in the join-irreducibles
        v: int("0" + "".join("1" if lat._leq(j, v) else "0" for j in reversed(joins)), 2)
        for v in {cap[e] for e in net.edges}
    }
    edge_mask = {e: value_mask[cap[e]] for e in net.edges}
    reach = {net.source: (1 << len(joins)) - 1}
    for v in net.topological_order():
        if v != net.source:
            bits = 0
            for e in net.in_edges(v):
                bits |= reach[e[0]] & edge_mask[e]
            reach[v] = bits
    at_sink = reach[net.sink]
    beta = lat.join_all(j for j, bit in zip(joins, bin(at_sink)[:1:-1]) if bit == "1")  # lowest bit first
    side = _reachable(net, net.source, True, {e for e, m in edge_mask.items() if m & ~at_sink})
    if net.sink in side:
        return None, beta
    return source_side_cut(net, side), beta


def alpha_dp(
    net: FlowNetwork,
    cap: CapacityAssignment,
    allow_non_distributive: bool = False,
) -> Element:
    """Path side by dynamic programming over a topological order.

    The source is seeded with the join of all assigned capacities, an
    upper bound of every path meet, so no global top is required. Each
    vertex folds join over incoming edges of meet(value(upstream),
    capacity). Correct on distributive lattices only, which is why it
    refuses non-certified lattices without the override flag.
    """
    require_distributive(cap.lattice, allow_non_distributive, "the dynamic program")
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

    ``method`` picks the routes: "bruteforce" folds over enumerated paths,
    under ``max_paths``; "dp" runs the dynamic program (distributive
    lattices only unless overridden), counts the paths by
    :func:`count_paths` and takes the witness from
    :func:`first_path_at_least`, so it lists no path and no path cap
    binds it. Both go next to the brute-force cut side. "auto" takes the
    dynamic program exactly when the lattice is certified distributive,
    and the cut side by :func:`cut_side`'s route rule. Lenient mode's
    cut side is always brute force, since it counts the minimal crossing
    sets: it lists them by their source sides, under the vertex cap. A
    path or cut witness is attached only when some path/cut actually
    attains the reported value; either may be absent.
    """
    if method not in ("auto", "bruteforce", "dp"):
        raise ValueError(f"method must be auto, bruteforce or dp, got {method!r}")
    route = method == "auto"
    if route:
        method = "dp" if is_distributive(cap.lattice) is True else "bruteforce"
    if method == "dp":
        alpha = alpha_dp(net, cap, allow_non_distributive=allow_non_distributive)
        n_paths, optimal_path = count_paths(net), first_path_at_least(net, cap, alpha)
    else:
        paths, throughputs, alpha = _path_side(net, cap, max_paths)
        n_paths = len(paths)
        optimal_path = next((p for p, value in zip(paths, throughputs) if value == alpha), None)
    if route:
        beta_method, n_cuts, optimal_cut, beta = cut_side(net, cap, mode, max_vertices)
    else:
        beta_method = "bruteforce"
        n_cuts, optimal_cut, beta = _cut_side(net, cap, mode, max_vertices)

    return DualityReport(
        alpha=alpha,
        beta=beta,
        equal=alpha == beta,
        optimal_path=optimal_path,
        optimal_cut=optimal_cut,
        alpha_method=method,
        beta_method=beta_method,
        n_paths=n_paths,
        n_cuts=n_cuts,
    )


def counterexample_for(lattice: Lattice) -> tuple[FlowNetwork, CapacityAssignment]:
    """A concrete instance over a non-distributive lattice on which the
    two duality sides differ.

    Every non-distributive lattice embeds N5 or M3 (the M3-N5 theorem),
    so the failing instance is the gallery's ``pentagon`` or ``diamond``
    network with each capacity, a role name of the witness, carried along
    the lattice's sublattice embedding. verify_duality on the result
    reports equal == False.
    """
    from .gallery import gallery_instance  # deferred: the gallery imports this module

    cert = check_distributive(lattice)
    if cert.distributive:
        raise ValueError(f"{lattice.describe()} is distributive; no counterexample exists")
    wit = cert.sublattice
    if wit is None:
        raise ValueError("certificate carries no sublattice witness")
    inst = gallery_instance("pentagon" if wit.label == "N5" else "diamond")
    return inst.network, CapacityAssignment(
        lattice, {e: wit.embedding[role] for e, role in inst.capacities.items()}
    )
