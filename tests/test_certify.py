import contextlib
import io
import itertools
import json
import random
from pathlib import Path

import pytest

import latticeflow.certify as certify
from latticeflow import (
    ChainLattice,
    DiamondLattice,
    ExplicitLattice,
    Lattice,
    PentagonLattice,
    PowersetLattice,
    ProductLattice,
    UniverseTooLarge,
    check_distributive,
    check_lattice_axioms,
    find_forbidden_sublattice,
)
from latticeflow.certify import (
    _SUBSET_SCAN_MAX,
    AxiomReport,
    AxiomViolation,
    DistributivityCertificate,
    SublatticeWitness,
    _join_prime_test,
    _lattice_test,
    _witness_from_triple,
)
from latticeflow.cli import run_command
from latticeflow.generators import random_any_lattice, random_explicit_lattice
from latticeflow.lattices import LatticeTables, pairwise_closure
from latticeflow.orderutils import transpose


class TestAxioms:
    def test_pentagon_is_a_lattice(self):
        report = check_lattice_axioms(PentagonLattice())
        assert report.ok, report.violations

    def test_product_of_chains(self):
        assert check_lattice_axioms(ProductLattice([ChainLattice(2), ChainLattice(3)])).ok

    def test_all_small_builtins(self):
        for L in (
            ChainLattice(6),
            PowersetLattice("wxyz"),
            DiamondLattice(),
            ProductLattice([PentagonLattice(), ChainLattice(2)]),
        ):
            report = check_lattice_axioms(L)
            assert report.ok, (L.describe(), report.violations)

    def test_corrupted_order_table_reported(self):
        # reflexive pairs plus 0<a<b, but the implied 0<b is dropped
        elems = ["0", "a", "b"]
        pairs = [(x, x) for x in elems] + [("0", "a"), ("a", "b")]
        L = ExplicitLattice.from_relation(elems, pairs)
        report = check_lattice_axioms(L)
        assert not report.ok
        assert any(v.law == "transitivity" for v in report.violations)

    def test_universe_cap(self):
        with pytest.raises(UniverseTooLarge):
            check_lattice_axioms(PowersetLattice("abcdefghij"))

    def test_a_product_with_one_corrupted_explicit_factor_fails(self):
        elems = ["0", "a", "b"]
        corrupted = ExplicitLattice.from_relation(elems, [(x, x) for x in elems] + [("0", "a"), ("a", "b")])
        for factors in ([ChainLattice(2), corrupted], [corrupted, PentagonLattice()]):
            L = ProductLattice(factors)
            report = check_lattice_axioms(L)
            assert not report.ok and report == reference_axioms(L)
            assert check_distributive(L) == reference_distributive(L)


class TestDistributivity:
    def test_pentagon_nondistributive_with_n5(self):
        cert = check_distributive(PentagonLattice())
        assert not cert.distributive
        assert cert.sublattice is not None and cert.sublattice.label == "N5"

    def test_diamond_nondistributive_with_m3(self):
        cert = check_distributive(DiamondLattice())
        assert not cert.distributive
        assert cert.sublattice.label == "M3"

    def test_powerset_distributive(self):
        cert = check_distributive(PowersetLattice("wxyz"))
        assert cert.distributive
        assert cert.method == "exhaustive" or cert.method == "structural"

    def test_structural_shortcut_for_large_powerset(self):
        L = PowersetLattice("abcdefghijkl")  # 4096 elements
        cert = check_distributive(L)
        assert cert.distributive and cert.method == "structural"

    def test_witness_triple_replays_as_violation(self):
        for L in (PentagonLattice(), DiamondLattice()):
            cert = check_distributive(L)
            a, b, c = cert.witness_triple
            law1 = L.meet(a, L.join(b, c)) == L.join(L.meet(a, b), L.meet(a, c))
            law2 = L.join(a, L.meet(b, c)) == L.meet(L.join(a, b), L.join(a, c))
            assert not (law1 and law2)

    def test_witness_sublattice_is_closed_and_faithful(self):
        cert = check_distributive(PentagonLattice())
        wit = cert.sublattice
        members = set(wit.elements())
        L = PentagonLattice()
        for x in members:
            for y in members:
                assert L.join(x, y) in members
                assert L.meet(x, y) in members
        emb = wit.embedding
        assert L.leq(emb["0"], emb["c"]) and L.leq(emb["c"], emb["b"])
        assert not L.leq(emb["a"], emb["b"]) and not L.leq(emb["b"], emb["a"])

    def test_universe_cap(self):
        big = ExplicitLattice.from_covers(
            [str(i) for i in range(600)], [(str(i), str(i + 1)) for i in range(599)]
        )
        with pytest.raises(UniverseTooLarge):
            check_distributive(big)

    def test_kept_certificate_does_not_skip_a_smaller_cap(self):
        def chain(n):
            names = [f"c{i}" for i in range(n)]
            return ExplicitLattice.from_covers(names, list(zip(names, names[1:])))

        fresh = ProductLattice([chain(3), chain(4)])
        with pytest.raises(UniverseTooLarge):
            check_distributive(fresh, 5)
        kept = ProductLattice([chain(3), chain(4)])
        cert = check_distributive(kept)
        assert cert.distributive and cert.method == "exhaustive"
        with pytest.raises(UniverseTooLarge):
            check_distributive(kept, 5)
        assert check_distributive(kept) is cert
        # structural certificates have no cap to check
        big = ProductLattice([ChainLattice(30), ChainLattice(30)])
        assert check_distributive(big, 5) is check_distributive(big, 5)


class TestForbiddenSublattice:
    def test_diamond_embeds_itself(self):
        wit = find_forbidden_sublattice(DiamondLattice())
        assert wit.label == "M3"
        assert set(wit.embedding.values()) == {"0", "a", "b", "c", "1"}

    def test_chain_has_none(self):
        assert find_forbidden_sublattice(ChainLattice(6)) is None

    def test_product_with_pentagon_factor_has_n5(self):
        L = ProductLattice([PentagonLattice(), ChainLattice(2)])
        wit = find_forbidden_sublattice(L)
        assert wit is not None and wit.label == "N5"
        # the embedded copy must behave as a pentagon inside the product
        emb = wit.embedding
        assert L.join(emb["a"], emb["c"]) == emb["1"]
        assert L.meet(emb["a"], emb["b"]) == emb["0"]

    def test_agreement_with_certification(self):
        rng = random.Random(7)
        for _ in range(60):
            L = random_explicit_lattice(rng)
            cert = check_distributive(L)
            wit = find_forbidden_sublattice(L)
            assert cert.distributive == (wit is None), L.spec()


# -- row scans against the triple-by-triple checks they replace --------------


def reference_bound(L: ExplicitLattice, a, b, upper: bool):
    """``ExplicitLattice._bound`` as a list scan with an O(c^2) minimality
    filter. Its last resort is the lower-index one of a and b: the old
    scan returned its first argument, but kept the answer for both
    argument orders, and the axiom check asked with the lower index first."""
    if L._index[b] < L._index[a]:
        a, b = b, a
    if upper:
        cands = [z for z in L._elements if L._leq(a, z) and L._leq(b, z)]
        best = [u for u in cands if not any(v != u and L._leq(v, u) for v in cands)]
    else:
        cands = [z for z in L._elements if L._leq(z, a) and L._leq(z, b)]
        best = [u for u in cands if not any(v != u and L._leq(u, v) for v in cands)]
    return best[0] if best else (cands[0] if cands else a)


def reference_axioms(lattice, max_size: int = 512) -> AxiomReport:
    """``check_lattice_axioms`` checking every pair and triple on the
    native operations, one at a time."""
    size = lattice.size()
    if size > max_size:
        raise UniverseTooLarge(lattice.describe())
    elems = lattice.element_list()
    violations = []
    truncated = False

    def report(law, witness, message) -> bool:
        nonlocal truncated
        if len(violations) >= 25:
            truncated = True
            return True
        violations.append(AxiomViolation(law, witness, message))
        return False

    leq, join, meet = lattice._leq, lattice._join, lattice._meet
    fmt = lattice.format

    for a in elems:
        if not leq(a, a):
            if report("reflexivity", (a,), f"{fmt(a)} <= {fmt(a)} fails"):
                break
        if join(a, a) != a:
            if report("join-idempotence", (a,), f"{fmt(a)} v {fmt(a)} != {fmt(a)}"):
                break
        if meet(a, a) != a:
            if report("meet-idempotence", (a,), f"{fmt(a)} ^ {fmt(a)} != {fmt(a)}"):
                break

    for a, b in itertools.combinations(elems, 2):
        if truncated:
            break
        if leq(a, b) and leq(b, a):
            report("antisymmetry", (a, b), f"{fmt(a)} and {fmt(b)} are mutually <= but distinct")

    for a, b in itertools.product(elems, repeat=2):
        if truncated:
            break
        jab, mab = join(a, b), meet(a, b)
        if jab != join(b, a):
            report("join-commutativity", (a, b), f"{fmt(a)} v {fmt(b)} != {fmt(b)} v {fmt(a)}")
        if mab != meet(b, a):
            report("meet-commutativity", (a, b), f"{fmt(a)} ^ {fmt(b)} != {fmt(b)} ^ {fmt(a)}")
        if join(a, mab) != a:
            report("absorption", (a, b), f"{fmt(a)} v ({fmt(a)} ^ {fmt(b)}) != {fmt(a)}")
        if meet(a, jab) != a:
            report("absorption", (a, b), f"{fmt(a)} ^ ({fmt(a)} v {fmt(b)}) != {fmt(a)}")
        if leq(a, b) != (jab == b) or leq(a, b) != (mab == a):
            report(
                "order-consistency",
                (a, b),
                f"leq({fmt(a)},{fmt(b)}), join={fmt(jab)}, meet={fmt(mab)} disagree",
            )
        if not (leq(a, jab) and leq(b, jab)):
            report("join-upper-bound", (a, b), f"{fmt(jab)} is not an upper bound")
        if not (leq(mab, a) and leq(mab, b)):
            report("meet-lower-bound", (a, b), f"{fmt(mab)} is not a lower bound")

    for a, b, c in itertools.product(elems, repeat=3):
        if truncated:
            break
        if leq(a, b) and leq(b, c) and not leq(a, c):
            report("transitivity", (a, b, c), f"{fmt(a)} <= {fmt(b)} <= {fmt(c)} but not {fmt(a)} <= {fmt(c)}")
            continue
        if join(a, join(b, c)) != join(join(a, b), c):
            report("join-associativity", (a, b, c), "join associativity fails")
        if meet(a, meet(b, c)) != meet(meet(a, b), c):
            report("meet-associativity", (a, b, c), "meet associativity fails")
        if leq(a, c) and leq(b, c) and not leq(join(a, b), c):
            report("join-least-upper-bound", (a, b, c), f"{fmt(join(a,b))} not least among upper bounds")
        if leq(c, a) and leq(c, b) and not leq(c, meet(a, b)):
            report("meet-greatest-lower-bound", (a, b, c), f"{fmt(meet(a,b))} not greatest among lower bounds")

    return AxiomReport(ok=not violations, size=size, violations=tuple(violations), truncated=truncated)


def classify_five(lattice, five: tuple) -> SublatticeWitness | None:
    """The N5/M3 witness of five elements, in index order, if they are
    closed under join and meet and form one, on native operations: the
    classifier the middle-triple search must agree with, one candidate
    at a time."""
    fs = frozenset(five)
    for a, b in itertools.combinations(five, 2):
        if lattice._join(a, b) not in fs or lattice._meet(a, b) not in fs:
            return None
    bot = top = five[0]
    for x in five[1:]:
        bot = lattice._meet(bot, x)
        top = lattice._join(top, x)
    if bot == top:
        return None
    mids = [x for x in five if x != bot and x != top]
    if len(mids) != 3:
        return None
    comp = [(x, y) for x, y in itertools.permutations(mids, 2) if lattice._leq(x, y)]
    if not comp:
        for x, y in itertools.combinations(mids, 2):
            if lattice._meet(x, y) != bot or lattice._join(x, y) != top:
                return None
        a, b, c = mids
        return SublatticeWitness("M3", {"0": bot, "a": a, "b": b, "c": c, "1": top})
    if len(comp) == 1:
        lo, hi = comp[0]
        lone = next(x for x in mids if x not in (lo, hi))
        if (
            lattice._meet(lone, lo) == bot
            and lattice._meet(lone, hi) == bot
            and lattice._join(lone, lo) == top
            and lattice._join(lone, hi) == top
        ):
            return SublatticeWitness("N5", {"0": bot, "a": lone, "b": hi, "c": lo, "1": top})
    return None


def reference_witness(lattice, triple):
    """The first N5/M3 five-subset of the element closure of the triple."""
    order = {x: i for i, x in enumerate(lattice.element_list())}
    current = set(triple)
    while True:
        new = {
            x
            for a, b in itertools.combinations(current, 2)
            for x in (lattice._join(a, b), lattice._meet(a, b))
            if x not in current
        }
        if not new:
            break
        current |= new
    for five in itertools.combinations(sorted(current, key=order.__getitem__), 5):
        wit = classify_five(lattice, five)
        if wit is not None:
            return wit
    return None


def reference_distributive(lattice) -> DistributivityCertificate:
    """``check_distributive`` triple by triple on the native operations,
    without its certificate cache."""
    if lattice.known_distributive:
        return DistributivityCertificate(True, "structural")
    join, meet = lattice._join, lattice._meet
    for a, b, c in itertools.product(lattice.element_list(), repeat=3):
        for law, holds in (
            ("meet-over-join", meet(a, join(b, c)) == join(meet(a, b), meet(a, c))),
            ("join-over-meet", join(a, meet(b, c)) == meet(join(a, b), join(a, c))),
        ):
            if not holds:
                return DistributivityCertificate(
                    False, "exhaustive", (a, b, c), law, reference_witness(lattice, (a, b, c))
                )
    return DistributivityCertificate(True, "exhaustive")


def corrupted_tables(seed: int, count: int):
    """Relation tables of at most 8 elements used verbatim: random
    relations, and order tables of random lattices with a few pairs
    flipped, so that most but not all laws hold."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 3 == 0:
            elems = [f"x{k}" for k in range(rng.randint(1, 8))]
            density = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
            pairs = {(a, b) for a in elems for b in elems if rng.random() < density}
        else:
            L = random_explicit_lattice(rng, max_size=8)
            elems = list(L.element_list())
            pairs = {(a, b) for a in elems for b in elems if L.leq(a, b)}
            for _ in range(rng.randint(1, 2)):
                pairs ^= {(rng.choice(elems), rng.choice(elems))}
        yield ExplicitLattice.from_relation(elems, sorted(pairs))


def explicit_copy(L) -> ExplicitLattice:
    """The same order as an explicit table, so no structural shortcut applies."""
    elems = L.element_list()
    names = [f"e{i}" for i in range(len(elems))]
    pairs = [(names[i], names[j]) for i, a in enumerate(elems) for j, b in enumerate(elems) if L._leq(a, b)]
    return ExplicitLattice.from_relation(names, pairs)


class RiggedPowerset(PowersetLattice):
    """A powerset whose join or meet gives a chosen answer on some ordered
    pairs, so that one pair law fails with every other pair law holding."""

    known_distributive = False

    def __init__(self, atoms, joins=(), meets=()):
        super().__init__(atoms)
        self.joins = {(frozenset(a), frozenset(b)): frozenset(x) for a, b, x in joins}
        self.meets = {(frozenset(a), frozenset(b)): frozenset(x) for a, b, x in meets}

    def _join(self, a, b):
        return self.joins.get((a, b), a | b)

    def _meet(self, a, b):
        return self.meets.get((a, b), a & b)


def rigged_lattices():
    # at the pair ({x}, {x,y}) only join-commutativity fails
    yield RiggedPowerset("xy", joins=[("xy", "x", "y")])
    # at the pair ({x}, {x,y}) only meet-commutativity fails
    yield RiggedPowerset("xy", meets=[("xy", "x", "y")])
    # at the pair ({x}, {y}) only join-upper-bound fails
    yield RiggedPowerset("xyz", joins=[("x", "y", "xz"), ("y", "x", "xz")])
    # at the pair ({x,y}, {y,z}) only meet-lower-bound fails
    yield RiggedPowerset("xyz", meets=[("xy", "yz", "x"), ("yz", "xy", "x")])


def contract_lattices():
    from test_acceptance import _builtin_lattices

    yield from _builtin_lattices()
    yield from rigged_lattices()
    rng = random.Random(17)
    for _ in range(30):
        yield random_explicit_lattice(rng)
    rng = random.Random(19)
    for _ in range(20):
        L = random_any_lattice(rng)
        if L.size() <= 24:
            yield L
            yield explicit_copy(L)
    yield from corrupted_tables(23, 40)


def per_pair_tables(L: ExplicitLattice) -> LatticeTables:
    """``L``'s tables with one ``_bound`` call per ordered pair and per
    operation, the down-sets transposed from the up-sets."""
    elems, up = L.element_list(), L._up_masks()
    n = len(elems)
    return LatticeTables(
        elems,
        tuple(tuple(L._bound(i, j, True) for j in range(n)) for i in range(n)),
        tuple(tuple(L._bound(i, j, False) for j in range(n)) for i in range(n)),
        tuple(up),
        tuple(transpose(up)),
    )


def random_relations(seed: int, count: int):
    """Relation tables of 1 to 16 elements drawn pair by pair at one
    density each, used verbatim."""
    rng = random.Random(seed)
    for _ in range(count):
        elems = [f"r{k}" for k in range(rng.randint(1, 16))]
        density = rng.random()
        yield ExplicitLattice.from_relation(elems, [(a, b) for a in elems for b in elems if rng.random() < density])


def count_calls(L, ops=("_join", "_meet")) -> list[int]:
    """Count calls of the named methods on L from now on."""
    calls = [0]
    for op in ops:
        native = getattr(L, op)
        setattr(L, op, lambda *xs, native=native: calls.__setitem__(0, calls[0] + 1) or native(*xs))
    return calls


class TestTableContract:
    @pytest.mark.parametrize("L", list(contract_lattices()), ids=lambda L: L.describe())
    def test_tables_equal_native_ops_on_every_pair(self, L):
        elems, J, M, up, down = L.tables()
        assert elems == L.element_list()
        assert L.tables() is L.tables()
        for i, a in enumerate(elems):
            for j, b in enumerate(elems):
                assert elems[J[i][j]] == L._join(a, b)
                assert elems[M[i][j]] == L._meet(a, b)
                assert bool(up[i] >> j & 1) == L._leq(a, b)
                assert bool(down[j] >> i & 1) == L._leq(a, b)

    def test_bitmask_bound_matches_list_scan(self):
        lattices = [L for L in contract_lattices() if isinstance(L, ExplicitLattice)]
        lattices += corrupted_tables(29, 200)
        for L in lattices:
            for a, b in itertools.product(L.element_list(), repeat=2):
                assert L._join(a, b) == reference_bound(L, a, b, upper=True), (L.spec(), a, b)
                assert L._meet(a, b) == reference_bound(L, a, b, upper=False), (L.spec(), a, b)

    def test_mask_rows_equal_the_per_pair_build(self):
        rng = random.Random(89)
        lattices = [random_explicit_lattice(rng, max_size=16) for _ in range(200)]
        lattices += random_relations(97, 300)
        lattices += corrupted_tables(101, 300)
        non_lattices = 0
        for L in lattices:
            assert L.tables() == per_pair_tables(L), L.spec()
            non_lattices += not _lattice_test(L.tables())
        assert non_lattices > 300

    def test_tables_of_a_lattice_call_no_bound(self):
        rng = random.Random(103)
        for _ in range(200):
            L = random_explicit_lattice(rng, max_size=16)
            calls = count_calls(L, ("_join", "_meet", "_bound"))
            assert _lattice_test(L.tables()) and calls == [0], L.spec()

    def test_result_outside_the_universe_raises(self):
        class Leaky(ChainLattice):
            def _join(self, a, b):
                return self.levels if {a, b} == {1, 2} else super()._join(a, b)

        with pytest.raises(RuntimeError, match="is not an element"):
            Leaky(4).tables()


class TestReportContract:
    def test_corrupted_tables(self):
        checked = with_violations = 0
        for L in corrupted_tables(31, 1000):
            report = check_lattice_axioms(L)
            assert report == reference_axioms(L), L.spec()
            assert check_distributive(L) == reference_distributive(L), L.spec()
            checked += 1
            with_violations += not report.ok
        assert checked == 1000 and with_violations > 700

    def test_lattice_draws(self):
        for L in contract_lattices():
            assert check_lattice_axioms(L) == reference_axioms(L), L.describe()
            assert check_distributive(L) == reference_distributive(L), L.describe()

    def test_truncated_report(self):
        L = ExplicitLattice.from_relation([f"y{i}" for i in range(8)], [])
        report = check_lattice_axioms(L)
        assert report.truncated and len(report.violations) == 25
        assert report == reference_axioms(L)
        assert check_distributive(L) == reference_distributive(L)

    @pytest.mark.parametrize(
        "dropped, truncated",
        [
            # 25 violations: every one is reported and none is cut
            ([("0", "0"), ("0", "2")], False),
            # 26 violations: the 26th is cut
            ([("0", "0"), ("1", "1")], True),
        ],
    )
    def test_report_at_the_cap(self, dropped, truncated):
        elems = ["0", "1", "2"]
        pairs = [(a, b) for a, b in itertools.combinations_with_replacement(elems, 2) if (a, b) not in dropped]
        L = ExplicitLattice.from_relation(elems, pairs)
        report = check_lattice_axioms(L)
        assert len(report.violations) == 25 and report.truncated is truncated
        assert report == reference_axioms(L)

    def test_no_native_call_after_tables(self):
        lattices = list(corrupted_tables(37, 60))
        expected = [reference_axioms(L) for L in lattices]
        calls = []
        for L in lattices:
            L.tables()
            for op in ("_leq", "_join", "_meet"):
                native = getattr(L, op)
                setattr(L, op, lambda *xs, native=native, op=op: calls.append(op) or native(*xs))
        assert [check_lattice_axioms(L) for L in lattices] == expected
        assert calls == []
        assert sum(not r.ok for r in expected) > 30


# -- the middle-triple scan against the scan of every five-subset --------------


def reference_forbidden(lattice):
    """``find_forbidden_sublattice`` as a scan of every five-subset in
    ``combinations`` order."""
    if lattice.known_distributive:
        return None
    if lattice.size() > _SUBSET_SCAN_MAX:
        return check_distributive(lattice).sublattice
    for five in itertools.combinations(lattice.element_list(), 5):
        wit = classify_five(lattice, five)
        if wit is not None:
            return wit
    return None


class OpTables(Lattice):
    """Elements 0 .. n-1 with arbitrary tables for the order, the join and
    the meet: the operations need not commute, and a result may lie
    outside the universe. That result is n, and any operation on it
    gives n again."""

    kind = "op-tables"

    def __init__(self, up, join, meet):
        self.up, self.join_table, self.meet_table = up, join, meet

    def __contains__(self, x):
        return x in range(len(self.up))

    def size(self):
        return len(self.up)

    def elements(self):
        return iter(range(len(self.up)))

    def _leq(self, a, b):
        return bool(self.up[a] >> b & 1)

    def _join(self, a, b):
        return self.join_table[a][b] if a in self and b in self else self.size()

    def _meet(self, a, b):
        return self.meet_table[a][b] if a in self and b in self else self.size()

    def literal(self, x):
        return x


class StrictOpTables(OpTables):
    """:class:`OpTables` whose operations refuse a value outside the
    universe instead of giving n."""

    def _join(self, a, b):
        assert a in self and b in self, (a, b)
        return self.join_table[a][b]

    def _meet(self, a, b):
        assert a in self and b in self, (a, b)
        return self.meet_table[a][b]


def lone_last_pentagon() -> OpTables:
    """An N5 that ``classify_five`` accepts, 0 < 1 < 2 < 4 and 0 < 3 < 4,
    whose lone middle 3 reaches the bottom and the top only as the first
    argument: meet(1, 3) and join(1, 3) give 1 and 3, meet(3, 1) and
    join(3, 1) give 0 and 4."""
    up = [0b11111, 0b10110, 0b10100, 0b11000, 0b10000]
    join = [[max(a, b) for b in range(5)] for a in range(5)]
    meet = [[min(a, b) for b in range(5)] for a in range(5)]
    for m in (1, 2):
        join[3][m], meet[3][m] = 4, 0
    return OpTables(up, join, meet)


def perturbed_op_tables(seed: int, count: int):
    """Tables of random lattices of at most 8 elements with a few join,
    meet or order entries changed on one ordered pair only, some of them
    to a value outside the universe."""
    rng = random.Random(seed)
    for _ in range(count):
        L = random_explicit_lattice(rng, max_size=8)
        _, J, M, up, _ = L.tables()
        n = len(up)
        join, meet, up = [list(r) for r in J], [list(r) for r in M], list(up)
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randrange(n), rng.randrange(n)
            change = rng.choice(("join", "meet", "leq"))
            if change == "leq":
                up[a] ^= 1 << b
            else:
                table = join if change == "join" else meet
                table[a][b] = rng.randrange(n) if rng.random() < 0.9 else n
        yield OpTables(up, join, meet)


def small_products():
    """Products of up to 24 elements, as explicit tables."""
    for factors in (
        [ChainLattice(4), ChainLattice(5)],
        [ChainLattice(2), ChainLattice(3), ChainLattice(4)],
        [PentagonLattice(), ChainLattice(4)],
        [DiamondLattice(), ChainLattice(2), ChainLattice(2)],
        [PentagonLattice(), ChainLattice(2), ChainLattice(2)],
        [PowersetLattice("xyz"), ChainLattice(3)],
    ):
        yield explicit_copy(ProductLattice(factors))


def forbidden_contract_lattices():
    from test_acceptance import _builtin_lattices

    yield from _builtin_lattices()
    yield from rigged_lattices()
    yield from small_products()


class TestForbiddenScanContract:
    @pytest.mark.parametrize("L", list(forbidden_contract_lattices()), ids=lambda L: L.describe())
    def test_same_witness_as_every_five_subset(self, L):
        assert find_forbidden_sublattice(L) == reference_forbidden(L)

    def test_corrupted_tables(self):
        found = 0
        for L in corrupted_tables(41, 1200):
            wit = reference_forbidden(L)
            assert find_forbidden_sublattice(L) == wit, L.spec()
            found += wit is not None
        assert found > 100

    def test_lattice_draws(self):
        rng = random.Random(43)
        found = 0
        for _ in range(400):
            L = random_explicit_lattice(rng)
            wit = reference_forbidden(L)
            assert find_forbidden_sublattice(L) == wit, L.spec()
            found += wit is not None
        assert found > 80

    def test_operations_that_do_not_commute(self):
        lone_last = lone_last_pentagon()
        assert reference_forbidden(lone_last) == find_forbidden_sublattice(lone_last)
        assert find_forbidden_sublattice(lone_last).embedding == {"0": 0, "a": 3, "b": 2, "c": 1, "1": 4}
        found = 0
        for L in perturbed_op_tables(47, 1500):
            wit = reference_forbidden(L)
            assert find_forbidden_sublattice(L) == wit, (L.up, L.join_table, L.meet_table)
            found += wit is not None
        assert found > 100

    def test_no_native_call_on_a_result_outside_the_universe(self):
        strict = 0
        for L in perturbed_op_tables(131, 600):
            S = StrictOpTables(L.up, L.join_table, L.meet_table)
            assert find_forbidden_sublattice(S) == reference_forbidden(L), (L.up, L.join_table, L.meet_table)
            strict += any(L.size() in row for row in L.join_table + L.meet_table)
        assert strict > 30

    def test_each_candidate_as_the_native_classifier(self):
        accepted = 0
        for L in itertools.chain(perturbed_op_tables(113, 200), corrupted_tables(127, 200)):
            elems = L.element_list()
            bounds, up = certify._native_bounds(L), L._up_masks()
            for five in itertools.combinations(range(len(elems)), 5):
                found = certify._classify(five, bounds, up)
                wit = classify_five(L, tuple(elems[i] for i in five))
                if found is None:
                    assert wit is None, (L.describe(), five)
                else:
                    label, roles = found
                    assert (label, {r: elems[i] for r, i in zip("0abc1", roles)}) == (wit.label, wit.embedding)
                    accepted += 1
        assert accepted > 80

    def test_native_calls_on_a_distributive_product(self):
        L = explicit_copy(ProductLattice([ChainLattice(4), ChainLattice(5)]))
        calls = count_calls(L)
        assert find_forbidden_sublattice(L) is None
        # a scan of all 15,504 five-subsets makes 127,333 calls here
        assert calls[0] <= 2 * L.size() ** 2
        assert getattr(L, "_tables_cache", None) is None


# -- the certificate's witness against the scan of every five-subset ----------------


def reference_table_witness(lattice, triple):
    """The first N5/M3 five-subset, in ``combinations`` order, of the
    sublattice the triple of indices generates, as a scan of every
    five-subset that is closed under the index tables."""
    elems, J, M, _, _ = lattice.tables()
    closure = pairwise_closure(triple, lambda a, b: J[a][b], lambda a, b: M[a][b])
    for five in itertools.combinations(sorted(closure), 5):
        if all(J[x][y] in five and M[x][y] in five for x, y in itertools.combinations(five, 2)):
            wit = classify_five(lattice, tuple(elems[i] for i in five))
            if wit is not None:
                return wit
    return None


class TestWitnessScanContract:
    def test_certificates_of_seeded_tables(self):
        rng = random.Random(53)
        lattices = [random_explicit_lattice(rng) for _ in range(240)] + list(corrupted_tables(59, 120))
        verdicts = []
        for L in lattices:
            cert = check_distributive(L)
            verdicts.append(cert.distributive)
            if not cert.distributive:
                index = {x: i for i, x in enumerate(L.element_list())}
                triple = tuple(index[x] for x in cert.witness_triple)
                assert cert.sublattice == reference_table_witness(L, triple), L.spec()
        assert len(verdicts) == 360 and 100 < verdicts.count(False) < 300

    def test_no_native_call_after_tables(self):
        rng = random.Random(107)
        lattices = [random_explicit_lattice(rng) for _ in range(300)] + list(corrupted_tables(109, 120))
        nondistributive = 0
        for L in lattices:
            L.tables()
            calls = count_calls(L, ("_leq", "_join", "_meet"))
            nondistributive += not check_distributive(L).distributive
            assert calls == [0], L.spec()
        assert nondistributive > 100

    def test_triples_of_perturbed_op_tables(self):
        """The certificate's triple and four random ones of each table
        whose operations stay in the universe."""
        rng = random.Random(61)
        checked = found = 0
        for L in perturbed_op_tables(67, 1200):
            try:
                cert = check_distributive(L)
            except RuntimeError:
                continue  # a result outside the universe has no index
            triples = [tuple(rng.sample(range(L.size()), 3)) for _ in range(4)] if L.size() >= 3 else []
            if not cert.distributive:
                triples.append(cert.witness_triple)  # elements 0 .. n-1 are their own indices
                assert cert.sublattice == reference_table_witness(L, cert.witness_triple)
            for triple in triples:
                wit = reference_table_witness(L, triple)
                assert _witness_from_triple(L, triple) == wit, (L.up, L.join_table, L.meet_table, triple)
                checked += 1
                found += wit is not None
        assert checked > 4000 and found > 200


# -- the O(n²) verdicts against the reference scans ------------------------------


def flipped_tables(seed: int, count: int):
    """Order tables of random lattices of at most 16 elements with 0 to 3
    relation pairs flipped, used verbatim."""
    rng = random.Random(seed)
    for _ in range(count):
        L = random_explicit_lattice(rng, max_size=16)
        elems = list(L.element_list())
        pairs = {(a, b) for a in elems for b in elems if L.leq(a, b)}
        for _ in range(rng.randint(0, 3)):
            pairs ^= {(rng.choice(elems), rng.choice(elems))}
        yield ExplicitLattice.from_relation(elems, sorted(pairs))


def fast_verdicts_seen(lattices) -> tuple[set[bool], set[bool]]:
    """Assert that the lattice test is "the reference axiom scan finds no
    violation", and that join-primality on each table passing it is "the
    reference distributive scan finds no failing triple"; the verdicts of
    each test that occurred."""
    lattice_verdicts, distributive_verdicts = set(), set()
    for L in lattices:
        tables = L.tables()
        is_lattice = _lattice_test(tables)
        assert is_lattice == reference_axioms(L).ok, L.describe()
        lattice_verdicts.add(is_lattice)
        if is_lattice:
            distributive = _join_prime_test(tables)
            assert distributive == reference_distributive(L).distributive, L.describe()
            distributive_verdicts.add(distributive)
    return lattice_verdicts, distributive_verdicts


def op_tables_in_universe(seed: int, count: int):
    """The perturbed operation tables whose results all lie in the universe."""
    for L in perturbed_op_tables(seed, count):
        try:
            L.tables()
        except RuntimeError:
            continue
        yield L


class TestFastVerdicts:
    @pytest.mark.parametrize(
        "corpus",
        [
            pytest.param(contract_lattices, id="contract-lattices"),
            pytest.param(lambda: corrupted_tables(71, 1000), id="corrupted-tables"),
            pytest.param(lambda: flipped_tables(7, 3000), id="flipped-tables"),
            pytest.param(lambda: op_tables_in_universe(73, 600), id="perturbed-op-tables"),
        ],
    )
    def test_agree_with_the_reference_scans(self, corpus):
        assert fast_verdicts_seen(corpus()) == ({True, False}, {True, False})


@pytest.fixture
def scan_calls(monkeypatch):
    """Count the calls of the two cubic scans from now on."""
    calls = {"_axiom_violations": 0, "_first_distributive_failure": 0}
    for name in calls:
        scan = getattr(certify, name)

        def counted(lattice, scan=scan, name=name):
            calls[name] += 1
            return scan(lattice)

        monkeypatch.setattr(certify, name, counted)
    return calls


class TestScansOnlyNameFailures:
    def test_check_lattice_on_a_distributive_product_enters_no_scan(self, scan_calls, tmp_path):
        golden = json.loads((Path(__file__).with_name("golden") / "check_lattice_cli.json").read_text())
        path = tmp_path / "product.json"
        path.write_text(json.dumps(golden["lattices"]["product-chain6-x-chain8"]))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            _, code = run_command(["check-lattice", str(path), "--format", "json"])
        report = json.loads(out.getvalue())
        assert (code, report["size"], report["axioms"]["ok"]) == (0, 48, True)
        assert report["distributivity"]["verdict"] == "distributive"
        assert scan_calls == {"_axiom_violations": 0, "_first_distributive_failure": 0}

    def test_every_table_with_a_violation_enters_the_axiom_scan(self, scan_calls):
        with_violations = 0
        for L in itertools.chain(contract_lattices(), corrupted_tables(79, 300)):
            before = scan_calls["_axiom_violations"]
            ok = check_lattice_axioms(L).ok
            assert scan_calls["_axiom_violations"] - before == (not ok), L.describe()
            with_violations += not ok
        assert with_violations > 200

    def test_every_nondistributive_lattice_enters_the_distributive_scan(self, scan_calls):
        rng = random.Random(83)
        lattices = [*contract_lattices(), *small_products(), *(random_explicit_lattice(rng) for _ in range(200))]
        nondistributive = 0
        for L in lattices:
            if not check_lattice_axioms(L).ok:
                continue
            before = scan_calls["_first_distributive_failure"]
            distributive = check_distributive(L).distributive
            entered = scan_calls["_first_distributive_failure"] - before
            assert entered == (not distributive), L.describe()
            nondistributive += not distributive
        assert nondistributive > 50

    @pytest.mark.parametrize("command", ["check-lattice", "bottleneck", "maxflow"])
    def test_the_lattice_test_runs_once_per_call(self, command, monkeypatch, tmp_path):
        runs = []
        test = certify._lattice_test
        monkeypatch.setattr(certify, "_lattice_test", lambda tables: runs.append(1) or test(tables))
        square = [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]
        instance = {
            "lattice": {"kind": "explicit", "elements": ["0", "a", "b", "1"], "covers": square},
            "vertices": ["s", "v", "t"],
            "source": "s",
            "sink": "t",
            "edges": [
                {"from": "s", "to": "v", "capacity": "a"},
                {"from": "v", "to": "t", "capacity": "b"},
                {"from": "s", "to": "t", "capacity": "1"},
            ],
        }
        path = tmp_path / "square.json"
        path.write_text(json.dumps(instance))
        with contextlib.redirect_stdout(io.StringIO()):
            _, code = run_command([command, str(path), "--format", "json"])
        assert code == 0 and len(runs) == 1


# -- the verdict alone, without a witness ---------------------------------------


class TestVerdictWithoutWitness:
    def test_is_the_certificate_verdict_on_fresh_lattices(self):
        from_the_scan = set()
        for L in contract_lattices():
            assert getattr(L, "_distributivity_cert", None) is None
            verdict = certify.is_distributive(L)
            assert verdict is check_distributive(L).distributive, L.describe()
            if not L.known_distributive and not _lattice_test(L.tables()):
                from_the_scan.add(verdict)
        # corrupted and rigged tables fail the lattice test: the failing-triple scan decides
        assert from_the_scan == {True, False}

    def test_tables_that_fail_the_lattice_test_are_scanned_once(self, monkeypatch):
        entered = []
        scan = certify._first_distributive_failure
        monkeypatch.setattr(certify, "_first_distributive_failure", lambda L: entered.append(L) or scan(L))
        scanned_once = 0
        for L in corrupted_tables(23, 40):
            entered.clear()
            cert = check_distributive(L)
            assert cert == reference_distributive(L), L.spec()
            if not cert.distributive and not _lattice_test(L.tables()):
                assert len(entered) == 1, L.spec()  # the verdict's scan keeps its triple
                scanned_once += 1
        assert scanned_once == 34

    def test_cap_is_checked_before_the_kept_verdict(self):
        names = [f"c{i}" for i in range(520)]
        L = ExplicitLattice.from_covers(names, list(zip(names, names[1:])))
        assert check_distributive(L, max_size=1000).distributive
        assert certify.is_distributive(L) is None
        with pytest.raises(UniverseTooLarge):
            check_distributive(L)

    @pytest.mark.parametrize(
        "covers",
        [
            pytest.param([("0", "c"), ("c", "b"), ("b", "1"), ("0", "a"), ("a", "1")], id="pentagon"),
            pytest.param([("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")], id="diamond"),
        ],
    )
    def test_network_commands_build_no_witness(self, covers, monkeypatch, tmp_path):
        spec = {"kind": "explicit", "elements": ["0", "a", "b", "c", "1"], "covers": [list(c) for c in covers]}
        instance = {
            "lattice": spec,
            "vertices": ["s", "u", "v", "t"],
            "source": "s",
            "sink": "t",
            "edges": [
                {"from": "s", "to": "u", "capacity": "a"},
                {"from": "u", "to": "t", "capacity": "b"},
                {"from": "s", "to": "v", "capacity": "c"},
                {"from": "v", "to": "t", "capacity": "1"},
                {"from": "u", "to": "v", "capacity": "b"},
            ],
        }
        network, bare = tmp_path / "network.json", tmp_path / "lattice.json"
        network.write_text(json.dumps(instance))
        bare.write_text(json.dumps(spec))
        calls = {"_first_distributive_failure": 0, "_witness_from_triple": 0}
        for name in calls:
            fn = getattr(certify, name)
            monkeypatch.setattr(certify, name, lambda *a, fn=fn, name=name: calls.__setitem__(name, calls[name] + 1) or fn(*a))
        codes = []
        for command in (["bottleneck"], ["maxflow"], ["maxflow", "--unsafe-dp"]):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(run_command([*command, str(network), "--format", "json"])[1])
        assert codes == [0, 1, 0]  # maxflow refuses the uncertified lattice unless told
        assert calls == {"_first_distributive_failure": 0, "_witness_from_triple": 0}
        with contextlib.redirect_stdout(io.StringIO()) as out:
            run_command(["check-lattice", str(bare), "--format", "json"])
        L = ExplicitLattice.from_covers(spec["elements"], covers)
        assert json.loads(out.getvalue())["distributivity"] == reference_distributive(L).to_dict(L)
        assert calls == {"_first_distributive_failure": 1, "_witness_from_triple": 1}


class TestForbiddenScanWork:
    """The middle-triple search's work on explicit copies, pinned. Before
    triples with more than one comparable ordered pair were passed over,
    the three made 440, 70 and 280 classifications and 862, 606 and 632
    native calls. Before a pair's join and meet were built only when a
    kept triple reads them, they made 552, 384 and 380 native calls."""

    @pytest.mark.parametrize(
        "factors, size, classified, native",
        [
            pytest.param([ChainLattice(2), ChainLattice(3), ChainLattice(4)], 24, 0, 404, id="chain2-x-chain3-x-chain4"),
            pytest.param([PentagonLattice(), ChainLattice(4)], 20, 1, 282, id="pentagon-x-chain4"),
            pytest.param([ChainLattice(4), ChainLattice(5)], 20, 0, 216, id="chain4-x-chain5"),
        ],
    )
    def test_classifications_and_native_calls(self, factors, size, classified, native, monkeypatch):
        L = explicit_copy(ProductLattice(factors))
        classifications = []
        classify = certify._classify
        monkeypatch.setattr(certify, "_classify", lambda *a: classifications.append(1) or classify(*a))
        calls = count_calls(L)
        wit = find_forbidden_sublattice(L)
        assert (wit is None) == (not isinstance(factors[0], PentagonLattice))
        assert (L.size(), len(classifications), calls[0]) == (size, classified, native)
