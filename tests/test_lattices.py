import itertools
import random

import pytest

from latticeflow import (
    ChainLattice,
    Lattice,
    DiamondLattice,
    DownsetLattice,
    IntervalGridLattice,
    MismatchError,
    PentagonLattice,
    PowersetLattice,
    ProductLattice,
    RingOfSetsLattice,
    SurvivalLattice,
    bounds,
    is_distributive,
    ring_of_sets_closure,
)
from latticeflow.generators import random_explicit_lattice


def small_lattices():
    return [
        ChainLattice(5),
        PowersetLattice("xyz"),
        ProductLattice([ChainLattice(2), ChainLattice(3)]),
        IntervalGridLattice(0.25),
        PentagonLattice(),
        DiamondLattice(),
        DownsetLattice(["a", "b", "c"], [("a", "b")]),
        ring_of_sets_closure([{"r1", "m1"}, {"r2", "m1"}]),
        SurvivalLattice(4, 3),
    ]


class TestJoinMeet:
    def test_powerset_join_is_union(self):
        L = PowersetLattice("xyz")
        assert L.join(frozenset("x"), frozenset("y")) == frozenset("xy")

    def test_powerset_meet_is_intersection(self):
        L = PowersetLattice("xyz")
        assert L.meet(frozenset("xy"), frozenset("yz")) == frozenset("y")

    def test_pentagon_join_of_incomparables_is_top(self):
        L = PentagonLattice()
        assert L.join("a", "c") == "1"

    def test_pentagon_meet_of_incomparables_is_bottom(self):
        L = PentagonLattice()
        assert L.meet("a", "b") == "0"

    def test_chain_meet_is_min(self):
        assert ChainLattice(5).meet(2, 4) == 2

    def test_interval_join_is_componentwise_max(self):
        L = IntervalGridLattice(0.1)
        assert L.join((0.2, 0.4), (0.3, 0.3)) == (0.3, 0.4)

    def test_interval_meet_is_componentwise_min(self):
        L = IntervalGridLattice(0.1)
        assert L.meet((0.2, 0.4), (0.3, 0.3)) == (0.2, 0.3)

    def test_mismatch_raises(self):
        L = PowersetLattice("xy")
        with pytest.raises(MismatchError):
            L.join(frozenset("x"), frozenset("z"))
        with pytest.raises(MismatchError):
            ChainLattice(3).leq(1, 5)


class TestLeq:
    def test_chain(self):
        assert ChainLattice(5).leq(1, 3)

    def test_pentagon_incomparable(self):
        L = PentagonLattice()
        assert not L.leq("a", "b")
        assert not L.leq("b", "a")

    def test_powerset_subset(self):
        L = PowersetLattice("xy")
        assert L.leq(frozenset("x"), frozenset("xy"))

    def test_leq_iff_meet_iff_join(self):
        for L in small_lattices():
            elems = L.element_list()
            for a, b in itertools.product(elems, repeat=2):
                expected = L.leq(a, b)
                assert (L.meet(a, b) == a) == expected
                assert (L.join(a, b) == b) == expected

    def test_leq_iff_meet_iff_join_sampled_on_large_universe(self):
        # too many elements to enumerate exhaustively; sample pairs instead
        L = PowersetLattice("abcdefghijklmnop")
        rng = random.Random(9)
        atoms = list(L.atoms)
        for _ in range(500):
            a = frozenset(x for x in atoms if rng.random() < 0.5)
            b = frozenset(x for x in atoms if rng.random() < 0.5)
            expected = L.leq(a, b)
            assert (L.meet(a, b) == a) == expected
            assert (L.join(a, b) == b) == expected


class TestAlgebraicLaws:
    def test_absorption_everywhere(self):
        for L in small_lattices():
            for a, b in itertools.product(L.element_list(), repeat=2):
                assert L.join(a, L.meet(a, b)) == a
                assert L.meet(a, L.join(a, b)) == a

    def test_equality_agrees_with_antisymmetry(self):
        for L in small_lattices():
            for a, b in itertools.product(L.element_list(), repeat=2):
                assert (L.leq(a, b) and L.leq(b, a)) == (a == b)

    def test_distributive_laws_are_equivalent(self):
        # on every built-in, one law holds universally iff the other does
        for L in small_lattices():
            elems = L.element_list()
            law1 = all(
                L.meet(a, L.join(b, c)) == L.join(L.meet(a, b), L.meet(a, c))
                for a, b, c in itertools.product(elems, repeat=3)
            )
            law2 = all(
                L.join(a, L.meet(b, c)) == L.meet(L.join(a, b), L.join(a, c))
                for a, b, c in itertools.product(elems, repeat=3)
            )
            assert law1 == law2, L.describe()


class TestBounds:
    def test_powerset(self):
        L = PowersetLattice("ab")
        assert bounds(L) == (frozenset(), frozenset("ab"))

    def test_pentagon(self):
        assert bounds(PentagonLattice()) == ("0", "1")

    def test_intervals(self):
        assert bounds(IntervalGridLattice(0.25)) == ((0.0, 0.0), (1.0, 1.0))

    def test_bottom_top_are_extremes(self):
        for L in small_lattices():
            bot, top = bounds(L)
            for x in L.element_list():
                assert L.leq(bot, x)
                assert L.leq(x, top)


class TestCanonicalForms:
    def test_interval_parse_snaps_to_grid(self):
        # endpoints computed through different float paths must canonicalize equal
        L = IntervalGridLattice(0.05)
        direct = L.parse([0.55, 0.85])
        joined = L.join(L.parse([0.55, 0.6]), L.parse([0.05, 0.85]))
        assert direct == joined

    def test_interval_rejects_off_grid(self):
        L = IntervalGridLattice(0.25)
        with pytest.raises(MismatchError):
            L.parse([0.1, 0.5])

    def test_interval_rejects_inverted(self):
        with pytest.raises(MismatchError):
            IntervalGridLattice(0.25).parse([0.75, 0.25])

    def test_powerset_parse_dedupes(self):
        L = PowersetLattice("xy")
        assert L.parse(["x", "x"]) == frozenset("x")

    def test_powerset_rejects_unknown_atom(self):
        with pytest.raises(MismatchError):
            PowersetLattice("xy").parse(["z"])

    def test_chain_rejects_bool(self):
        with pytest.raises(MismatchError):
            ChainLattice(3).parse(True)

    def test_literal_roundtrip(self):
        rng = random.Random(3)
        for L in small_lattices():
            for x in rng.sample(L.element_list(), k=min(5, L.size())):
                assert L.parse(L.literal(x)) == x


class TestRingOfSets:
    def test_closure_of_two_overlapping_generators(self):
        L = ring_of_sets_closure([{"r1", "m1"}, {"r2", "m1"}])
        got = set(L.element_list())
        assert got == {
            frozenset({"r1", "m1"}),
            frozenset({"r2", "m1"}),
            frozenset({"m1"}),
            frozenset({"r1", "r2", "m1"}),
        }

    def test_single_generator(self):
        L = ring_of_sets_closure([{"x"}])
        assert set(L.element_list()) == {frozenset({"x"})}

    def test_closure_matches_bruteforce_fixed_point(self):
        # independent oracle: saturate a worklist of pairwise unions and
        # intersections until nothing new appears
        generators = [frozenset("a"), frozenset("b"), frozenset("c")]
        family = set(generators)
        while True:
            fresh = {
                op(x, y)
                for x in family
                for y in family
                for op in (frozenset.union, frozenset.intersection)
            } - family
            if not fresh:
                break
            family |= fresh
        L = ring_of_sets_closure(generators)
        assert set(L.element_list()) == family
        # singleton generators with empty pairwise intersections bring in the empty set
        assert frozenset() in family

    def test_closure_is_closed_and_distributive(self):
        from latticeflow import check_distributive

        L = ring_of_sets_closure([{"a", "b"}, {"b", "c"}, {"d"}])
        elems = L.element_list()
        for x, y in itertools.product(elems, repeat=2):
            assert L.join(x, y) in elems
            assert L.meet(x, y) in elems
        assert check_distributive(L).distributive

    def test_empty_generator_list_rejected(self):
        with pytest.raises(ValueError):
            ring_of_sets_closure([])

    def test_adjoin_bounds(self):
        L = ring_of_sets_closure([{"a"}], universe=["a", "b"], adjoin_bounds=True)
        assert L.bottom() == frozenset()
        assert L.top() == frozenset("ab")

    def test_unclosed_family_rejected(self):
        with pytest.raises(ValueError):
            RingOfSetsLattice("ab", [frozenset("a"), frozenset("b")])


class TestSurvival:
    def test_universe_is_closed_under_pointwise_min_max(self):
        L = SurvivalLattice(5, 4)
        elems = L.element_list()
        assert len(elems) == L.size()
        rng = random.Random(0)
        for _ in range(200):
            f, g = rng.choice(elems), rng.choice(elems)
            assert L.join(f, g) in L
            assert L.meet(f, g) in L

    def test_elements_are_decreasing_step_functions(self):
        L = SurvivalLattice(4, 3)
        for f in L.element_list():
            assert f[0] == 1.0 and f[-1] == 0.0
            assert all(f[i] >= f[i + 1] for i in range(len(f) - 1))

    def test_parse_rejects_increasing(self):
        with pytest.raises(MismatchError):
            SurvivalLattice(4, 3).parse([1.0, 0.5, 1.0, 0.0])

    def test_huge_level_count_builds_no_grid(self):
        L = SurvivalLattice(4, 10**9)
        x = L.parse([1, 0.5, 0.5, 0])
        assert x in L
        assert abs(x[1] - 0.5) <= 1e-9
        assert (1.0, 0.3, 0.3, 0.0) not in L
        assert (True, x[1], x[2], False) in L  # bools compare equal to 1 and 0


class TestDownset:
    def test_universe_members_are_down_closed(self):
        L = DownsetLattice(["a", "b", "c"], [("a", "b"), ("b", "c")])
        # chain a < b < c has exactly the 4 prefixes as down-sets
        assert L.size() == 4
        with pytest.raises(MismatchError):
            L.parse(["b"])  # not down-closed: a < b missing

    def test_cycle_rejected(self):
        with pytest.raises(ValueError):
            DownsetLattice(["a", "b"], [("a", "b"), ("b", "a")])


# -- join-irreducibles ------------------------------------------------------------


def random_downset_lattice(rng):
    n = rng.randint(1, 5)
    names = [f"p{i}" for i in range(n)]
    return DownsetLattice(names, [(a, b) for a, b in itertools.combinations(names, 2) if rng.random() < 0.4])


def random_ring(rng):
    gens = [rng.sample("abcd", rng.randint(0, 4)) for _ in range(rng.randint(1, 3))]
    return ring_of_sets_closure(gens, universe="abcd", adjoin_bounds=rng.random() < 0.5)


def random_explicit_distributive(rng):
    while True:
        lattice = random_explicit_lattice(rng)
        if is_distributive(lattice) is True:
            return lattice


def certified_lattice(rng):
    """A random lattice of one of the kinds the threshold cut side takes:
    every structural kind, and explicit tables certified exhaustively;
    products mix them, explicit factors included."""
    pick = rng.randrange(9)
    if pick == 0:
        return ChainLattice(rng.randint(1, 8))
    if pick == 1:
        return PowersetLattice("abcde"[: rng.randint(0, 5)])
    if pick == 2:
        return random_downset_lattice(rng)
    if pick == 3:
        return random_ring(rng)
    if pick == 4:
        return IntervalGridLattice(rng.choice((1, 0.5, 0.25)))
    if pick == 5:
        return SurvivalLattice(rng.randint(2, 5), rng.randint(2, 4))
    if pick == 6:
        return random_explicit_distributive(rng)
    factors = [
        rng.choice((
            lambda: ChainLattice(rng.randint(1, 3)),
            lambda: PowersetLattice("ab"[: rng.randint(0, 2)]),
            lambda: SurvivalLattice(4, 3),
            lambda: IntervalGridLattice(1),
            lambda: random_ring(rng),
        ))()
        for _ in range(rng.randint(1, 2))
    ]
    if pick == 7:
        factors.insert(rng.randint(0, len(factors)), random_explicit_distributive(rng))
    return ProductLattice(factors)


def generic_join_irreducibles(lattice):
    return Lattice._join_irreducibles(lattice)


def enumerable_lattices():
    yield from (ChainLattice(n) for n in range(1, 9))
    yield from (PowersetLattice("abcde"[:k]) for k in range(6))
    yield from (IntervalGridLattice(step) for step in (1, 0.5, 0.25))
    yield from (SurvivalLattice(t, k) for t in range(2, 6) for k in range(2, 5))
    yield PentagonLattice()
    yield DiamondLattice()
    yield ProductLattice([SurvivalLattice(4, 3), ChainLattice(3)])
    yield ProductLattice([ChainLattice(2), PentagonLattice(), SurvivalLattice(5, 2)])
    yield ProductLattice([DiamondLattice(), PowersetLattice("a")])
    rng = random.Random(71)
    for _ in range(30):
        yield random_downset_lattice(rng)
        yield random_ring(rng)
        yield certified_lattice(rng)
    for _ in range(10):
        yield random_explicit_distributive(rng)


class TestJoinIrreducibles:
    def test_structural_matches_generic_finder(self):
        kinds = set()
        for lattice in enumerable_lattices():
            kinds.add(lattice.kind)
            assert lattice.join_irreducibles() == generic_join_irreducibles(lattice), lattice.describe()
        assert kinds >= {"chain", "powerset", "intervals", "survival", "downset", "ring", "product", "explicit"}

    def test_generic_finder_on_the_forbidden_lattices(self):
        assert PentagonLattice().join_irreducibles() == ("a", "b", "c")
        assert DiamondLattice().join_irreducibles() == ("a", "b", "c")

    def test_every_element_is_the_join_of_those_below_it(self):
        rng = random.Random(73)
        for _ in range(40):
            lattice = certified_lattice(rng)
            joins = lattice.join_irreducibles()
            for x in lattice.element_list():
                assert lattice.join_all(j for j in joins if lattice.leq(j, x)) == x

    def test_kept_on_the_lattice(self):
        lattice = ProductLattice([ChainLattice(3), PowersetLattice("ab")])
        assert lattice.join_irreducibles() is lattice.join_irreducibles()

    def test_large_parametric_kinds_do_not_enumerate(self):
        survival = SurvivalLattice(40, 40)
        product = ProductLattice([ChainLattice(3), survival, PowersetLattice("abcdefghijklmnopqrst")])
        assert len(product.join_irreducibles()) == 2 + 38 * 39 + 20
        assert not hasattr(survival, "_element_cache")
        assert IntervalGridLattice(0.001).join_irreducibles()[-1] == (1.0, 1.0)
