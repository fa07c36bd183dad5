"""Answer checkers, one per workload, built on order arithmetic of their own.

Nothing here imports latticeflow: orders are bitmask closures of the
cover lists the corpus writer produced, maximal antichains come from
Bron-Kerbosch on the incomparability graph (the program scans 2^n masks),
and network sides are folded from scratch. A checker reads a unit's
printed JSON reports and returns a Verdict; it never runs inside the
timed loop.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    known_red: bool = False


OK = Verdict(True)


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Order:
    """Finite order from a cover list, as up/down bitmasks per element."""

    def __init__(self, elements, covers):
        self.names = list(elements)
        self.index = {x: i for i, x in enumerate(self.names)}
        n = len(self.names)
        up = [1 << i for i in range(n)]
        for a, b in covers:
            up[self.index[a]] |= 1 << self.index[b]
        changed = True
        while changed:
            changed = False
            for i in range(n):
                acc = up[i]
                for j in _bits(up[i] & ~(1 << i)):
                    acc |= up[j]
                if acc != up[i]:
                    up[i] = acc
                    changed = True
        down = [0] * n
        for i in range(n):
            for j in _bits(up[i]):
                down[j] |= 1 << i
        self.up, self.down = up, down

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def comparable(self, i: int, j: int) -> bool:
        return bool((self.up[i] | self.down[i]) >> j & 1)

    def cover_successors(self, i: int) -> list[int]:
        above = self.up[i] & ~(1 << i)
        return [j for j in _bits(above) if not (self.down[j] & above & ~(1 << j))]


class LatticeTable(Order):
    """Join and meet tables of a finite lattice given by its covers."""

    def __init__(self, elements, covers):
        super().__init__(elements, covers)
        n = len(self.names)
        self.n = n
        self.join = [self._extreme(self.up[i] & self.up[j], self.up) for i in range(n) for j in range(n)]
        self.meet = [self._extreme(self.down[i] & self.down[j], self.down) for i in range(n) for j in range(n)]

    @staticmethod
    def _extreme(mask: int, cone) -> int:
        for u in _bits(mask):
            if mask & ~cone[u] == 0:
                return u
        raise ValueError("not a lattice: a pair has no least upper or greatest lower bound")

    def j(self, a: int, b: int) -> int:
        return self.join[a * self.n + b]

    def m(self, a: int, b: int) -> int:
        return self.meet[a * self.n + b]

    def fold(self, op, items, empty: int) -> int:
        out = empty
        for x in items:
            out = op(out, x)
        return out

    def bottom(self) -> int:
        return self.fold(self.m, range(self.n), 0)

    def top(self) -> int:
        return self.fold(self.j, range(self.n), 0)

    def breaks_law(self, a: int, b: int, c: int, law: str) -> bool:
        j, m = self.j, self.m
        if law == "meet-over-join":
            return m(a, j(b, c)) != j(m(a, b), m(a, c))
        if law == "join-over-meet":
            return j(a, m(b, c)) != m(j(a, b), j(a, c))
        raise ValueError(f"unknown law {law!r}")

    def classify_five(self, five) -> str | None:
        """'N5' or 'M3' when the five elements form that sublattice."""
        fs = set(five)
        for a, b in itertools.combinations(five, 2):
            if self.j(a, b) not in fs or self.m(a, b) not in fs:
                return None
        bot = self.fold(self.m, five, five[0])
        top = self.fold(self.j, five, five[0])
        mids = [x for x in five if x not in (bot, top)]
        if len(mids) != 3:
            return None
        comparable = sum(self.comparable(x, y) for x, y in itertools.combinations(mids, 2))
        return {0: "M3", 1: "N5"}.get(comparable)

    def scan_forbidden(self):
        """First five-element N5/M3 sublattice, or None: the distributive
        verdict by Birkhoff's characterisation."""
        for five in itertools.combinations(range(self.n), 5):
            if self.classify_five(five) is not None:
                return five
        return None


# -- chain/antichain structure --------------------------------------------------


def maximal_chains(order: Order) -> set[int]:
    """Maximal chains as element bitmasks: cover walks from minimal to maximal elements."""
    n = len(order.names)
    succ = [order.cover_successors(i) for i in range(n)]
    out = set()

    def walk(i: int, mask: int):
        mask |= 1 << i
        if not succ[i]:
            out.add(mask)
        for k in succ[i]:
            walk(k, mask)

    for i in range(n):
        if order.down[i] == 1 << i:
            walk(i, 0)
    return out


def maximal_antichains(order: Order) -> set[int]:
    """Maximal antichains as bitmasks: maximal cliques of the
    incomparability graph, by Bron-Kerbosch with pivoting."""
    n = len(order.names)
    full = (1 << n) - 1
    incomparable = [full & ~(order.up[i] | order.down[i]) for i in range(n)]
    out = set()

    def expand(r: int, p: int, x: int):
        if not p and not x:
            out.add(r)
            return
        pivot = max(_bits(p | x), key=lambda u: bin(p & incomparable[u]).count("1"))
        for v in list(_bits(p & ~incomparable[pivot])):
            expand(r | 1 << v, p & incomparable[v], x & incomparable[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, full, 0)
    return out


def identity_gap(order: Order) -> str | None:
    """Why the chain/antichain identity can fail on this poset, or None.

    The network's cut side is the meet over minimal chain transversals
    (element sets meeting every maximal chain); the antichain side is the
    meet over maximal antichains. Every maximal antichain that meets every
    maximal chain is a minimal transversal, so the two families, and with
    them the two sides, coincide unless a maximal antichain misses a
    maximal chain or a minimal transversal is not an antichain."""
    names = order.names
    chains, antichains = sorted(maximal_chains(order)), sorted(maximal_antichains(order))
    show = lambda m: "{" + ",".join(names[i] for i in _bits(m)) + "}"  # noqa: E731
    for c in chains:
        for a in antichains:
            if not c & a:
                return f"maximal antichain {show(a)} misses maximal chain {show(c)}"
    for t in range(1, 2 ** len(names)):
        if any(not c & t for c in chains):
            continue
        if any(all(c & t & ~(1 << x) for c in chains) for x in _bits(t)):
            continue
        if any((order.up[x] | order.down[x]) & t != 1 << x for x in _bits(t)):
            return f"minimal chain transversal {show(t)} is not an antichain"
    return None


def lattice_ops(spec: dict):
    """(value, join, meet) on the printed literals of a distributive
    lattice spec; ``value`` makes a literal comparable. Only the kinds
    ``random_distributive_lattice`` draws are known."""
    kind = spec["kind"]
    if kind == "chain":
        return int, max, min
    if kind in ("powerset", "downset"):
        return frozenset, frozenset.union, frozenset.intersection
    if kind == "intervals":
        parts = [(float, max, min)] * 2
    elif kind == "product":
        parts = [lattice_ops(f) for f in spec["factors"]]
    else:
        raise ValueError(f"no independent operations for lattice kind {kind!r}")
    return (
        lambda x: tuple(v(c) for (v, _, _), c in zip(parts, x)),
        lambda a, b: tuple(j(x, y) for (_, j, _), x, y in zip(parts, a, b)),
        lambda a, b: tuple(m(x, y) for (_, _, m), x, y in zip(parts, a, b)),
    )


def poset_sides(weights: list, join, meet, chains, antichains) -> tuple:
    """(chain, antichain, transversal) sides, folded from scratch: the join
    over maximal chains of weight meets, the meet over maximal antichains
    of weight joins, and the meet over chain transversals (element sets
    meeting every maximal chain) of weight joins, which is the auxiliary
    network's cut side. Supersets only raise a join, so folding over every
    transversal gives the meet over the minimal ones."""
    joins = [None] * 2 ** len(weights)
    for t in range(1, len(joins)):
        low = t & -t
        joins[t] = weights[low.bit_length() - 1] if t == low else join(joins[t ^ low], joins[low])
    chain_side = functools.reduce(join, (functools.reduce(meet, (weights[i] for i in _bits(c))) for c in chains))
    antichain_side = functools.reduce(meet, (joins[a] for a in antichains))
    transversal_side = functools.reduce(
        meet, (joins[t] for t in range(1, len(joins)) if all(c & t for c in chains)))
    return chain_side, antichain_side, transversal_side


# -- report readers ---------------------------------------------------------------


def _reports(outputs, codes):
    """Parse each call's stdout after checking its exit code is allowed."""
    parsed = []
    for k, (code, out, err) in enumerate(outputs):
        if code not in codes[k]:
            return None, Verdict(False, f"call {k} exited {code}: {err.strip()[:200]}")
        try:
            parsed.append(json.loads(out))
        except json.JSONDecodeError:
            return None, Verdict(False, f"call {k} printed no JSON report")
    return parsed, None


def check_fuzz(meta: dict, outputs) -> Verdict:
    """bottleneck then maxflow on a distributive instance: the DP path side
    equals the brute-force cut side, and max flow equals min cut."""
    reports, bad = _reports(outputs, [(0,), (0,)])
    if bad:
        return bad
    b, f = reports
    if b["alpha_method"] != "dp":
        return Verdict(False, f"path side ran {b['alpha_method']}, expected the certified dp")
    if b["alpha"] != b["beta"] or b["equal"] is not True:
        return Verdict(False, f"dp alpha {b['alpha']} vs brute beta {b['beta']} (equal={b['equal']})")
    if f["max_flow_value"] != f["min_cut_value"] or f["equal"] is not True:
        return Verdict(False, f"max flow {f['max_flow_value']} vs min cut {f['min_cut_value']}")
    if f["max_flow_value"] != b["alpha"]:
        return Verdict(False, f"max flow {f['max_flow_value']} vs bottleneck alpha {b['alpha']}")
    return OK


def check_poset(meta: dict, outputs) -> Verdict:
    """dilworth --method both --correspondences: chains biject with paths,
    the enumerations match ours, each route's sides equal our folds of the
    weights (see poset_sides), and the exit code follows from them. An exit
    2 counts as known red only when the network's two sides agree and the
    poset's structure explains the failed identity (see identity_gap)."""
    reports, bad = _reports(outputs, [(0, 2)])
    if bad:
        return bad
    (r,) = reports
    order = Order(meta["elements"], meta["covers"])
    value, join, meet = lattice_ops(meta["lattice"])
    weights = [value(meta["weights"][x]) for x in order.names]

    def as_masks(seqs):
        return {sum(1 << order.index[x] for x in s) for s in seqs}

    corr = r["correspondences"]
    if not corr["chains_match_paths"] or corr["chains"] != corr["paths"]:
        return Verdict(False, "maximal chains do not biject with network paths")
    chains, antichains = maximal_chains(order), maximal_antichains(order)
    direct = r["direct"]
    if as_masks(direct["chains"]) != chains or len(direct["chains"]) != len(chains):
        return Verdict(False, "maximal chains differ from the independent enumeration")
    if as_masks(direct["antichains"]) != antichains or len(direct["antichains"]) != len(antichains):
        return Verdict(False, "maximal antichains differ from the independent enumeration")
    chain, antichain, transversal = poset_sides(weights, join, meet, chains, antichains)
    for route, (lhs, rhs) in (("direct", (chain, antichain)), ("network", (chain, transversal))):
        rep = r[route]
        if (value(rep["lhs"]), value(rep["rhs"])) != (lhs, rhs) or rep["equal"] is not (lhs == rhs):
            return Verdict(False, f"{route} sides {rep['lhs']}/{rep['rhs']} (equal={rep['equal']}), "
                                  f"expected {lhs}/{rhs}")
    if r["methods_agree"] is not (antichain == transversal):
        return Verdict(False, f"methods_agree={r['methods_agree']} with antichain side {antichain} "
                              f"and cut side {transversal}")
    holds = chain == antichain == transversal
    if outputs[0][0] != (0 if holds else 2):
        return Verdict(False, f"exit {outputs[0][0]} when the identity {'holds' if holds else 'fails'}")
    if holds:
        return OK
    if chain != transversal:
        return Verdict(False, "path and cut sides of the auxiliary network differ on a distributive lattice")
    gap = identity_gap(order)
    if gap is None:
        return Verdict(False, "exit 2 on a poset whose maximal antichains are its minimal chain transversals")
    return Verdict(True, gap, known_red=True)


def _network_sides(table: LatticeTable, inst: dict) -> tuple[int, int]:
    """Brute-force path and cut sides of a network instance over the table."""
    idx = table.index
    verts = inst["vertices"]
    cap = {(e["from"], e["to"]): idx[e["capacity"]] for e in inst["edges"]}
    succ = {v: [w for (u, w) in cap if u == v] for v in verts}
    bottom, top = table.bottom(), table.top()
    sink = inst["sink"]

    def path_meets(v, acc):
        if v == sink:
            yield acc
        for w in succ[v]:
            yield from path_meets(w, table.m(acc, cap[(v, w)]))

    alpha = table.fold(table.j, path_meets(inst["source"], top), bottom)
    internal = [v for v in verts if v not in (inst["source"], sink)]
    beta = top
    for mask in range(2 ** len(internal)):
        s_side = {inst["source"]} | {v for k, v in enumerate(internal) if mask >> k & 1}
        crossing = (c for (u, w), c in cap.items() if u in s_side and w not in s_side)
        beta = table.m(beta, table.fold(table.j, crossing, bottom))
    return alpha, beta


def check_explicit(meta: dict, outputs) -> Verdict:
    """check-lattice on an explicit order table, then bottleneck on a
    random network and on the counterexample when it is non-distributive."""
    reports, bad = _reports(outputs, [(0,)] * len(outputs))
    if bad:
        return bad
    table = LatticeTable(meta["elements"], meta["covers"])
    idx = table.index
    lat = reports[0]
    if lat["axioms"].get("ok") is not True:
        return Verdict(False, f"axioms fail on a lattice: {lat['axioms'].get('violations', '')!s:.200}")
    dist = lat["distributivity"]
    expect = "distributive" if meta["distributive"] else "non-distributive"
    if dist.get("verdict") != expect:
        return Verdict(False, f"verdict {dist.get('verdict')}, expected {expect}")
    if not meta["distributive"]:
        a, b, c = (idx[x] for x in dist["witness_triple"])
        if not table.breaks_law(a, b, c, dist["failed_law"]):
            return Verdict(False, f"witness triple {dist['witness_triple']} keeps {dist['failed_law']}")
        sub = dist["forbidden_sublattice"]
        emb = {role: idx[x] for role, x in sub["embedding"].items()}
        five = tuple(emb[k] for k in ("0", "a", "b", "c", "1"))
        if table.classify_five(five) != sub["label"] or emb["0"] != table.fold(table.m, five, five[0]):
            return Verdict(False, f"forbidden sublattice {sub} is not a {sub['label']}")
        if sub["label"] == "N5" and not (table.leq(emb["c"], emb["b"]) and emb["c"] != emb["b"]):
            return Verdict(False, "N5 embedding does not put c below b")
    for k, (inst, counterexample) in enumerate(meta["networks"], start=1):
        rep = reports[k]
        alpha, beta = _network_sides(table, inst)
        got_a, got_b = idx[rep["alpha"]], idx[rep["beta"]]
        if rep["alpha_method"] != "bruteforce":
            return Verdict(False, f"network {k}: path side ran {rep['alpha_method']} on a non-distributive lattice")
        if (got_a, got_b) != (alpha, beta):
            return Verdict(False, f"network {k}: sides {rep['alpha']}/{rep['beta']}, expected "
                                  f"{table.names[alpha]}/{table.names[beta]}")
        if not table.leq(got_a, got_b):
            return Verdict(False, f"network {k}: weak duality alpha <= beta fails")
        if counterexample and rep["equal"] is not False:
            return Verdict(False, f"network {k}: counterexample reports equal sides")
    return OK


CHECKERS = {
    "fuzz": check_fuzz,
    "poset": check_poset,
    "explicit": check_explicit,
}
