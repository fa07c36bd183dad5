"""Finite orders as bitmask rows: bit j of ``up[i]`` is set when element
i <= element j (when the pair (i, j) is in the relation). This module is
the one place that builds such rows: from name pairs, by closure (a
whole row at a time), by transposing up-sets to down-sets, and by
transitive reduction to covers. :func:`partial_order` and
:func:`cover_pairs` are the entry points for a named partial order. Set
bits are walked lowest first, so every listing read off a row is in
element order.
"""

from __future__ import annotations

import heapq
from typing import Hashable, Iterable, Mapping, Sequence


def set_bits(mask: int):
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def relation_masks(index: Mapping[Hashable, int], pairs: Iterable[tuple[Hashable, Hashable]]) -> list[int]:
    """Rows of the relation holding exactly the given pairs of names;
    ``index`` maps each name to its position. ValueError on an unknown name."""
    up = [0] * len(index)
    for a, b in pairs:
        if a not in index or b not in index:
            raise ValueError(f"order pair ({a!r}, {b!r}) mentions unknown elements")
        up[index[a]] |= 1 << index[b]
    return up


def closure(rows: Sequence[int]) -> list[int]:
    """Reflexive-transitive closure; every row holding k takes in row k (Warshall)."""
    up = [r | 1 << i for i, r in enumerate(rows)]
    for k, row in enumerate(up):
        bit = 1 << k
        for i, r in enumerate(up):
            if r & bit:
                up[i] = r | row
    return up


def transpose(rows: Sequence[int]) -> list[int]:
    """Bit i of entry j is set when bit j of ``rows[i]`` is."""
    cols = [0] * len(rows)
    for i, r in enumerate(rows):
        for j in set_bits(r):
            cols[j] |= 1 << i
    return cols


def first_cycle(up: Sequence[int], down: Sequence[int]) -> tuple[int, int] | None:
    """The first element i with some j != i and i <= j <= i, and the
    lowest such j; None when the relation is antisymmetric."""
    for i, (u, d) in enumerate(zip(up, down)):
        both = u & d & ~(1 << i)
        if both:
            return i, (both & -both).bit_length() - 1
    return None


def cover_masks(up: Sequence[int]) -> list[int]:
    """Transitive reduction of a partial order: bit j of entry i is set
    when j covers i (i < j with nothing strictly between)."""
    strict = [u & ~(1 << i) for i, u in enumerate(up)]
    out = []
    for s in strict:
        beyond = 0
        for j in set_bits(s):
            beyond |= strict[j]
        out.append(s & ~beyond)
    return out


def partial_order(
    names: Sequence[Hashable], pairs: Iterable[tuple[Hashable, Hashable]]
) -> tuple[list[int], list[int]]:
    """Up and down rows of the partial order that ``pairs`` generate on
    ``names``; a repeated name counts once, at its first position.
    ValueError on an unknown name, or on a cycle, which is named by its
    first element and that element's lowest-index partner."""
    names = list(dict.fromkeys(names))
    up = closure(relation_masks({x: i for i, x in enumerate(names)}, pairs))
    down = transpose(up)
    bad = first_cycle(up, down)
    if bad is not None:
        raise ValueError(f"order relation has a cycle through {tuple(names[i] for i in bad)}")
    return up, down


def cover_pairs(names: Sequence[Hashable], up: Sequence[int]) -> list[tuple[Hashable, Hashable]]:
    """The cover pairs (lower, upper) of a partial order, in element order."""
    return [(names[i], names[j]) for i, c in enumerate(cover_masks(up)) for j in set_bits(c)]


def topological_order(
    vertices: Sequence[Hashable], edges: Iterable[tuple[Hashable, Hashable]]
) -> list:
    """Kahn's algorithm; ready vertices wait on a heap of their input
    positions, so ties go to the earliest. ValueError on a cycle, naming
    the vertices that lie on one, in input order."""
    edges = list(edges)
    indeg = {v: 0 for v in vertices}
    succ: dict[Hashable, list] = {v: [] for v in vertices}
    for u, v in edges:
        indeg[v] += 1
        succ[u].append(v)
    pos = {v: i for i, v in enumerate(vertices)}
    ready = [pos[v] for v in vertices if indeg[v] == 0]
    heapq.heapify(ready)
    out = []
    while ready:
        v = vertices[heapq.heappop(ready)]
        out.append(v)
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, pos[w])
    if len(out) != len(list(vertices)):
        stuck = [v for v in vertices if indeg[v] > 0]
        raise ValueError(f"graph has a directed cycle through {_on_cycles(stuck, succ)}")
    return out


def _on_cycles(stuck: list, succ: Mapping[Hashable, list]) -> list:
    """The vertices of ``stuck`` that lie on a directed cycle, in input
    order. Kahn's algorithm leaves every vertex that a cycle reaches, and
    every successor of such a vertex; one lies on a cycle exactly when its
    strongly connected component has more than one vertex or it has an
    edge to itself (Tarjan's algorithm, iterative, in O(V + E))."""
    stuck = list(dict.fromkeys(stuck))  # a repeated vertex name counts once
    index: dict = {}
    low: dict = {}
    stack: list = []
    on_stack: set = set()
    cyclic: set = set()
    for root in stuck:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, todo = work[-1]
            for w in todo:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
                    if w == v:
                        cyclic.add(v)
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    component = [stack.pop()]
                    while component[-1] != v:
                        component.append(stack.pop())
                    on_stack.difference_update(component)
                    if len(component) > 1:
                        cyclic.update(component)
    return [v for v in stuck if v in cyclic]
