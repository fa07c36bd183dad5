"""Contract tests for the bitmask order form of ``latticeflow.orderutils``.

The frozenset-dict helpers and the sort-per-step Kahn's algorithm that
the mask helpers replaced are kept here as references. Every order the
package builds (closures, covers, cycle witnesses, topological orders,
weighted posets, down-set lattices and explicit relation tables) must
agree with them, order of listing included.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import latticeflow
from latticeflow.dilworth import (
    WeightedPoset,
    _cut_for_antichain,
    maximal_antichains,
    maximal_chains,
)
from latticeflow.generators import random_distributive_lattice, random_element
from latticeflow.lattices import DownsetLattice, ExplicitLattice, Lattice
from latticeflow.orderutils import (
    closure,
    cover_masks,
    cover_pairs,
    first_cycle,
    partial_order,
    relation_masks,
    set_bits,
    topological_order,
    transpose,
)


# -- references: the frozenset-dict forms the masks replaced -----------------


def reference_closure(elements, pairs):
    up = {x: {x} for x in elements}
    for a, b in pairs:
        up[a].add(b)
    changed = True
    while changed:
        changed = False
        for x in elements:
            new = set(up[x])
            for y in up[x]:
                new |= up[y]
            if len(new) != len(up[x]):
                up[x] = new
                changed = True
    return {x: frozenset(s) for x, s in up.items()}


def reference_first_cycle_element(up):
    """The element the old antisymmetry check named first; its partner
    came from a frozenset's iteration order, so only the first is pinned."""
    for x, above in up.items():
        for y in above:
            if y != x and x in up[y]:
                return x
    return None


def reference_covers(elements, up):
    out = []
    for x in elements:
        strictly_above = [y for y in elements if y != x and y in up[x]]
        for y in strictly_above:
            if not any(z != y and y in up[z] for z in strictly_above):
                out.append((x, y))
    return out


def reference_topological_order(vertices, edges):
    edges = list(edges)
    indeg = {v: 0 for v in vertices}
    succ = {v: [] for v in vertices}
    for u, v in edges:
        indeg[v] += 1
        succ[u].append(v)
    pos = {v: i for i, v in enumerate(vertices)}
    ready = sorted((v for v in vertices if indeg[v] == 0), key=pos.__getitem__)
    out = []
    while ready:
        v = ready.pop(0)
        out.append(v)
        changed = False
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
                changed = True
        if changed:
            ready.sort(key=pos.__getitem__)
    if len(out) != len(list(vertices)):
        stuck = [v for v in vertices if indeg[v] > 0]
        raise ValueError(f"graph has a directed cycle through {stuck}")
    return out


def topological_result(fn, vertices, edges):
    try:
        return fn(vertices, edges)
    except ValueError as exc:
        return str(exc)


def random_relation(rng):
    """Names and pairs of a random relation: empty, sparse or dense, with
    reflexive pairs and cycles left in."""
    n = rng.randint(0, 10)
    names = [f"e{i}" for i in rng.sample(range(20), n)]
    density = rng.choice([0.0, 0.05, 0.15, 0.3, 0.6])
    pairs = [(a, b) for a in names for b in names if rng.random() < density]
    rng.shuffle(pairs)
    return names, pairs


def names_of(names, mask):
    return frozenset(names[j] for j in set_bits(mask))


def random_poset(rng, lattice, n):
    names = [f"p{i}" for i in range(n)]
    order = rng.sample(names, n)  # a linear extension other than element order
    rels = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    rng.shuffle(rels)
    return WeightedPoset(names, rels, {x: random_element(rng, lattice) for x in names}, lattice), rels


# -- the mask helpers ---------------------------------------------------------------


class TestMaskHelpers:
    RELATIONS = [random_relation(random.Random(seed)) for seed in range(400)]

    def test_closure_matches_reference(self):
        for names, pairs in self.RELATIONS:
            up = closure(relation_masks({x: i for i, x in enumerate(names)}, pairs))
            ref = reference_closure(names, pairs)
            assert {x: names_of(names, m) for x, m in zip(names, up)} == ref
            if reference_first_cycle_element(ref) is None:
                order_up, order_down = partial_order(names, pairs)
                assert {x: names_of(names, m) for x, m in zip(names, order_up)} == ref
                assert [names_of(names, m) for m in order_down] == [
                    frozenset(y for y in names if x in ref[y]) for x in names
                ]

    def test_transpose_gives_down_sets(self):
        for names, pairs in self.RELATIONS:
            up = closure(relation_masks({x: i for i, x in enumerate(names)}, pairs))
            ref = reference_closure(names, pairs)
            down = transpose(up)
            assert [names_of(names, m) for m in down] == [
                frozenset(y for y in names if x in ref[y]) for x in names
            ]
            assert transpose(down) == up

    def test_first_cycle_matches_reference(self):
        cyclic = 0
        for names, pairs in self.RELATIONS:
            up = closure(relation_masks({x: i for i, x in enumerate(names)}, pairs))
            bad = first_cycle(up, transpose(up))
            first = reference_first_cycle_element(reference_closure(names, pairs))
            if first is None:
                assert bad is None
                partial_order(names, pairs)
                continue
            cyclic += 1
            i, j = bad
            assert names[i] == first
            mutual = [k for k in range(len(names)) if k != i and up[i] >> k & 1 and up[k] >> i & 1]
            assert j == min(mutual)
            with pytest.raises(ValueError) as err:
                partial_order(names, pairs)
            assert str(err.value) == f"order relation has a cycle through {(first, names[min(mutual)])}"
        assert 50 < cyclic < len(self.RELATIONS) - 50

    def test_covers_match_reference(self):
        orders = 0
        for names, pairs in self.RELATIONS:
            up = closure(relation_masks({x: i for i, x in enumerate(names)}, pairs))
            if first_cycle(up, transpose(up)) is not None:
                continue
            orders += 1
            covers = [(names[i], names[j]) for i, c in enumerate(cover_masks(up)) for j in set_bits(c)]
            ref = reference_covers(names, reference_closure(names, pairs))
            assert covers == ref
            assert cover_pairs(names, partial_order(names, pairs)[0]) == ref
        assert orders > 50

    def test_relation_masks_keep_pairs_as_given(self):
        up = relation_masks({"a": 0, "b": 1, "c": 2}, [("a", "b"), ("b", "c"), ("c", "c")])
        assert up == [0b010, 0b100, 0b100]

    def test_relation_masks_reject_unknown_names(self):
        with pytest.raises(ValueError, match=r"order pair \('a', 'zz'\) mentions unknown elements"):
            relation_masks({"a": 0, "b": 1}, [("a", "b"), ("a", "zz")])
        with pytest.raises(ValueError, match=r"order pair \('a', 'zz'\) mentions unknown elements"):
            partial_order(["a", "b"], [("a", "b"), ("a", "zz")])

    def test_partial_order_counts_a_repeated_name_once(self):
        assert partial_order(["a", "b", "a"], [("a", "b")]) == ([0b11, 0b10], [0b01, 0b11])
        with pytest.raises(ValueError, match=r"cycle through \('a', 'b'\)"):
            partial_order(["a", "b", "a"], [("b", "a"), ("a", "b")])


class TestTopologicalOrder:
    def graphs(self, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(0, 12)
            vertices = [f"v{i}" for i in rng.sample(range(30), n)]
            order = rng.sample(vertices, n)
            edges = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.25]
            if n > 1 and rng.random() < 0.4:  # a back edge closes a cycle
                i, j = sorted(rng.sample(range(n), 2))
                edges.append((order[j], order[i]))
            rng.shuffle(edges)
            yield vertices, edges

    def test_order_and_error_match_reference(self):
        cyclic = 0
        for vertices, edges in self.graphs(11, 500):
            got = topological_result(topological_order, vertices, edges)
            assert got == topological_result(reference_topological_order, vertices, edges)
            cyclic += isinstance(got, str)
        assert 50 < cyclic < 450

    def test_lowest_position_first(self):
        assert topological_order(["c", "b", "a"], [("c", "a")]) == ["c", "b", "a"]
        assert topological_order(["c", "b", "a"], [("b", "c")]) == ["b", "c", "a"]


# -- the classes that hold an order -------------------------------------------------


class TestWeightedPosetContract:
    def posets(self, seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            lattice = random_distributive_lattice(rng)
            yield random_poset(rng, lattice, rng.randint(1, 11))

    def test_order_queries_match_reference(self):
        for poset, rels in self.posets(23, 150):
            elems = poset.elements
            up = reference_closure(elems, rels)
            for x in elems:
                for y in elems:
                    assert poset.leq(x, y) == (y in up[x])
                    assert poset.comparable(x, y) == (y in up[x] or x in up[y])
            assert poset.minimal_elements() == tuple(
                x for x in elems if not any(y != x and x in up[y] for y in elems)
            )
            assert poset.maximal_elements() == tuple(
                x for x in elems if not any(y != x and y in up[x] for y in elems)
            )
            covers = reference_covers(elems, up)
            assert poset.covers == tuple(covers)
            for x in elems:
                assert poset.cover_successors(x) == tuple(b for a, b in covers if a == x)

    def test_chains_and_antichains_match_reference(self):
        for poset, rels in self.posets(29, 120):
            elems = poset.elements
            up = reference_closure(elems, rels)
            covers = reference_covers(elems, up)
            chains = []

            def walk(chain):
                succ = [b for a, b in covers if a == chain[-1]]
                if not succ:
                    chains.append(tuple(chain))
                for y in succ:
                    walk(chain + [y])

            for x in elems:
                if not any(y != x and x in up[y] for y in elems):
                    walk([x])
            assert maximal_chains(poset) == chains

            def comparable(x, y):
                return y in up[x] or x in up[y]

            antichains = []
            for mask in range(1, 2 ** len(elems)):
                members = [elems[i] for i in set_bits(mask)]
                if any(comparable(x, y) for x in members for y in members if x != y):
                    continue
                if all(x in members or any(comparable(x, y) for y in members) for x in elems):
                    antichains.append(tuple(members))
            assert maximal_antichains(poset) == antichains

            net, _ = poset.network
            for a in antichains:
                below = {x for x in elems if any(y in up[x] for y in a)}
                assert _cut_for_antichain(poset, net, a) == frozenset({net.source} | below)

    def test_cycle_and_error_order_unchanged(self):
        lattice = random_distributive_lattice(random.Random(3))
        w = {x: lattice.bottom() for x in "abc"}
        with pytest.raises(ValueError, match=r"cycle through \('a', 'b'\)"):
            WeightedPoset("abc", [("b", "c"), ("c", "b"), ("a", "b"), ("b", "a")], w, lattice)
        # unknown and reflexive pairs are checked in one pass, in pair order
        with pytest.raises(ValueError, match="is reflexive"):
            WeightedPoset("abc", [("a", "a"), ("a", "zz")], w, lattice)
        with pytest.raises(ValueError, match="unknown elements"):
            WeightedPoset("abc", [("a", "zz"), ("a", "a")], w, lattice)
        # a cycle is reported before a missing weight
        with pytest.raises(ValueError, match="cycle"):
            WeightedPoset("abc", [("a", "b"), ("b", "a")], {}, lattice)


def reference_downset_lattice(base, relations):
    """Element list and spec of the old frozenset construction."""
    up = reference_closure(base, relations)
    down = {x: frozenset(y for y in base if x in up[y]) for x in base}
    universe = []
    for mask in range(2 ** len(base)):
        s = frozenset(base[i] for i in range(len(base)) if mask >> i & 1)
        if all(down[x] <= s for x in s):
            universe.append(s)
    spec = {"kind": "downset", "elements": list(base), "covers": [list(c) for c in reference_covers(base, up)]}
    return tuple(universe), spec


class TestLatticeContract:
    def test_downset_lattice_matches_reference(self):
        rng = random.Random(31)
        for _ in range(150):
            n = rng.randint(0, 9)
            base = [f"b{i}" for i in rng.sample(range(20), n)]
            order = rng.sample(base, n)
            rels = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
            rng.shuffle(rels)
            lattice = DownsetLattice(base, rels)
            universe, spec = reference_downset_lattice(base, rels)
            assert lattice.element_list() == universe
            assert lattice.spec() == spec

    def test_downset_cycle_is_rejected(self):
        with pytest.raises(ValueError, match=r"cycle through \('a', 'b'\)"):
            DownsetLattice("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])

    def test_relation_spec_matches_reference(self):
        rng = random.Random(37)
        for _ in range(200):
            names, pairs = random_relation(rng)
            if not names:
                continue
            lattice = ExplicitLattice.from_relation(names, pairs)
            assert lattice.spec() == {
                "kind": "explicit",
                "elements": names,
                "relation": sorted([a, b] for a, b in set(pairs)),
            }
            for a in names:
                for b in names:
                    assert lattice._leq(a, b) == ((a, b) in set(pairs))
            assert lattice.tables().up == tuple(Lattice._up_masks(lattice))

    def test_from_covers_closes_and_keeps_covers(self):
        rng = random.Random(41)
        for _ in range(150):
            n = rng.randint(1, 9)
            names = [f"x{i}" for i in rng.sample(range(20), n)]
            order = rng.sample(names, n)
            covers = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
            lattice = ExplicitLattice.from_covers(names, covers)
            up = reference_closure(names, covers)
            for a in names:
                for b in names:
                    assert lattice._leq(a, b) == (b in up[a])
            assert lattice.spec() == {"kind": "explicit", "elements": names, "covers": [list(c) for c in covers]}

    def test_from_covers_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="mentions unknown elements"):
            ExplicitLattice.from_covers(["a", "b"], [("a", "zz")])

    def test_constructor_takes_up_rows(self):
        lattice = ExplicitLattice(["a", "b"], [0b11, 0b10])
        assert lattice.spec() == ExplicitLattice.from_relation(["a", "b"], [("a", "a"), ("a", "b"), ("b", "b")]).spec()
        for rows in ([0b11], [0b11, 0b110], [-1, 0b10], [("a", "b"), ("b", "b")]):
            with pytest.raises(ValueError, match="needs 2 up-set rows"):
                ExplicitLattice(["a", "b"], rows)

    def test_name_checks_keep_their_order(self):
        # a relation table: repeated or missing names before unknown pairs
        with pytest.raises(ValueError, match="duplicate element names"):
            ExplicitLattice.from_relation(["a", "a"], [("a", "zz")])
        with pytest.raises(ValueError, match="at least one element"):
            ExplicitLattice.from_relation([], [("a", "zz")])
        # a cover list: unknown pairs and cycles before repeated or missing names
        with pytest.raises(ValueError, match=r"cycle through \('a', 'b'\)"):
            ExplicitLattice.from_covers(["a", "a", "b"], [("a", "b"), ("b", "a")])
        with pytest.raises(ValueError, match="duplicate element names"):
            ExplicitLattice.from_covers(["a", "a", "b"], [("a", "b")])
        with pytest.raises(ValueError, match="mentions unknown elements"):
            ExplicitLattice.from_covers([], [("a", "zz")])
        with pytest.raises(ValueError, match="at least one element"):
            ExplicitLattice.from_covers(iter([]), [])


class TestCycleWitness:
    """The cycle named in an error must not depend on string hashing."""

    CYCLE = [["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]]
    FILES = {
        "check-lattice": ("check-lattice", {"kind": "explicit", "elements": ["a", "b", "c", "d"], "covers": CYCLE}),
        "dilworth": ("dilworth", {
            "lattice": {"kind": "chain", "levels": 2},
            "elements": ["a", "b", "c", "d"],
            "covers": CYCLE,
            "weights": {"a": 0, "b": 1, "c": 0, "d": 1},
        }),
        "downset": ("check-lattice", {"kind": "downset", "elements": ["a", "b", "c", "d"], "covers": CYCLE}),
    }

    @pytest.mark.parametrize("case", sorted(FILES))
    def test_same_witness_under_every_hash_seed(self, tmp_path, case):
        command, data = self.FILES[case]
        f = tmp_path / "cycle.json"
        f.write_text(json.dumps(data))
        src = str(Path(latticeflow.__file__).resolve().parent.parent)
        errors = set()
        for seed in ("1", "2", "3", "4"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-m", "latticeflow.cli", command, str(f)],
                capture_output=True, text=True, env=env,
            )
            assert done.returncode == 1
            errors.add(done.stderr)
        assert len(errors) == 1
        assert "order relation has a cycle through ('a', 'b')" in errors.pop()
