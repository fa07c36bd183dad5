import itertools
import math
import random

import pytest

from latticeflow import (
    ChainLattice,
    Lattice,
    DiamondLattice,
    DownsetLattice,
    ExplicitLattice,
    IntervalGridLattice,
    MismatchError,
    NoBottomError,
    PentagonLattice,
    PowersetLattice,
    ProductLattice,
    RingOfSetsLattice,
    SurvivalLattice,
    is_distributive,
)
from latticeflow.generators import random_explicit_lattice
from latticeflow.instances import LATTICE_KINDS
from latticeflow.lattices import _grid, _snap


def small_lattices():
    return [
        ChainLattice(5),
        PowersetLattice("xyz"),
        ProductLattice([ChainLattice(2), ChainLattice(3)]),
        IntervalGridLattice(0.25),
        PentagonLattice(),
        DiamondLattice(),
        DownsetLattice(["a", "b", "c"], [("a", "b")]),
        RingOfSetsLattice([{"r1", "m1"}, {"r2", "m1"}]),
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
        assert (L.bottom(), L.top()) == (frozenset(), frozenset("ab"))

    def test_pentagon(self):
        L = PentagonLattice()
        assert (L.bottom(), L.top()) == ("0", "1")

    def test_intervals(self):
        L = IntervalGridLattice(0.25)
        assert (L.bottom(), L.top()) == ((0.0, 0.0), (1.0, 1.0))

    def test_empty_meet_is_the_top(self):
        assert PentagonLattice().meet_all(()) == "1"
        no_top = ExplicitLattice.from_covers(["x", "y"], [])
        with pytest.raises(NoBottomError, match=r"empty meet needs a top element and explicit\(2 elements\) has none"):
            no_top.meet_all(())

    def test_bottom_top_are_extremes(self):
        for L in small_lattices():
            bot, top = L.bottom(), L.top()
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
        L = RingOfSetsLattice([{"r1", "m1"}, {"r2", "m1"}])
        got = set(L.element_list())
        assert got == {
            frozenset({"r1", "m1"}),
            frozenset({"r2", "m1"}),
            frozenset({"m1"}),
            frozenset({"r1", "r2", "m1"}),
        }

    def test_single_generator(self):
        L = RingOfSetsLattice([{"x"}])
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
        L = RingOfSetsLattice(generators)
        assert set(L.element_list()) == family
        # singleton generators with empty pairwise intersections bring in the empty set
        assert frozenset() in family

    def test_closure_is_closed_and_distributive(self):
        from latticeflow import check_distributive

        L = RingOfSetsLattice([{"a", "b"}, {"b", "c"}, {"d"}])
        elems = L.element_list()
        for x, y in itertools.product(elems, repeat=2):
            assert L.join(x, y) in elems
            assert L.meet(x, y) in elems
        assert check_distributive(L).distributive

    def test_empty_generator_list_rejected(self):
        with pytest.raises(ValueError):
            RingOfSetsLattice([])

    def test_adjoin_bounds(self):
        L = RingOfSetsLattice([{"a"}], universe=["a", "b"], adjoin_bounds=True)
        assert L.bottom() == frozenset()
        assert L.top() == frozenset("ab")

    def test_unclosed_family_closes(self):
        L = RingOfSetsLattice([frozenset("a"), frozenset("b")])
        assert L.element_list() == (frozenset(), frozenset("a"), frozenset("b"), frozenset("ab"))


def reference_survival_elements(L):
    """The survival element order as a recursive walk: each middle value
    runs from the previous one down to 0."""
    mid = L.time_points - 2

    def rec(prefix, floor_idx):
        if len(prefix) == mid:
            yield (1.0, *prefix, 0.0)
            return
        for i in range(floor_idx, -1, -1):
            yield from rec(prefix + (L._grid(i),), i)

    return list(rec((), L.levels - 1))


class TestSurvival:
    @pytest.mark.parametrize("time_points", range(2, 8))
    @pytest.mark.parametrize("levels", range(2, 6))
    def test_element_order_matches_the_recursive_walk(self, time_points, levels):
        L = SurvivalLattice(time_points, levels)
        assert list(L.element_list()) == reference_survival_elements(L)
        assert len(L.element_list()) == L.size()

    def test_long_time_grid_lists_its_elements(self):
        L = SurvivalLattice(1200, 2)
        elems = L.element_list()
        assert len(elems) == L.size() == 1199
        assert (elems[0], elems[-1]) == (L.top(), L.bottom())

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


def reference_interval_grid(step: float) -> list[float]:
    """The interval grid as multiples of the step, the rule before k/n."""
    return [round(i * step, 12) for i in range(round(1 / step) + 1)]


def tried_interval_steps():
    """Every step 1/n for n <= 2,000 and four finer n, as a float and
    rounded to 10 and to 6 places, that the constructor accepts."""
    ns = [*range(1, 2001), 5_000, 10_000, 20_000, 100_000]
    for step in sorted({s for n in ns for s in (1 / n, round(1 / n, 10), round(1 / n, 6))}):
        try:
            yield IntervalGridLattice(step)
        except ValueError:
            pass


class TestIntervalGrid:
    def test_grid_is_the_multiples_of_the_step_where_those_reach_one(self):
        same = other = 0
        for L in tried_interval_steps():
            grid = [0.0, *(hi for _, hi in L.join_irreducibles()[: L._n])]
            old = reference_interval_grid(L.step)
            if old[-1] == 1.0:
                assert grid == old, L.step
                same += 1
            else:  # the old grid missed its own top
                assert grid[-1] == 1.0 and L.top() in L and L.join_irreducibles()[-1] == L.top(), L.step
                if L._n <= 40:
                    assert L.element_list()[-1] == L.top()
                other += 1
        assert (same, other) == (2_004, 73)

    def test_an_inexact_step_reaches_one(self):
        L = IntervalGridLattice(0.3333333333)
        L.check(L.top())  # the multiples of the step stop at 0.9999999999
        assert L.format(L.parse([0, 1])) == "[0.0,1.0]"

    def test_grids_finer_than_a_trillion_steps_are_refused(self):
        assert IntervalGridLattice(1e-12)._n == 10**12
        assert SurvivalLattice(2, 10**12 + 1).element_list() == ((1.0, 0.0),)  # lists no grid
        for make in (lambda: IntervalGridLattice(1e-13), lambda: IntervalGridLattice(5e-324),
                     lambda: SurvivalLattice(2, 10**12 + 2)):
            with pytest.raises(ValueError, match="at most"):
                make()


GRIDS = {
    "intervals(0.25)": IntervalGridLattice(0.25),
    "intervals(1)": IntervalGridLattice(1),  # one step
    "survival(4,3)": SurvivalLattice(4, 3),
    "survival(2,3)": SurvivalLattice(2, 3),  # no free value between the ends
}
NAN, INF = math.nan, math.inf
NOT_STEP = " is not a survival step function (must start at 1, end at 0, and be weakly decreasing)"

# What parse returns on each literal: the element, or the exact message.
GRID_PARSES = [
    ("intervals(0.25)", [0, 0.5], (0.0, 0.5)),
    ("intervals(0.25)", (0.25000000001, 1), (0.25, 1.0)),
    ("intervals(0.25)", [0.5, 0.5], (0.5, 0.5)),
    ("intervals(0.25)", [0.5], "interval element must be [lo, hi], got [0.5]"),
    ("intervals(0.25)", "ab", "interval element must be [lo, hi], got 'ab'"),
    ("intervals(0.25)", [0, 0.5, 1], "interval element must be [lo, hi], got [0, 0.5, 1]"),
    ("intervals(0.25)", None, "interval element must be [lo, hi], got None"),
    ("intervals(0.25)", {"lo": 0}, "interval element must be [lo, hi], got {'lo': 0}"),
    ("intervals(0.25)", [0, 0.3], "interval endpoints [0, 0.3] are not on the step-0.25 grid"),
    ("intervals(0.25)", [NAN, 1], "interval endpoints [nan, 1] are not on the step-0.25 grid"),
    ("intervals(0.25)", [0, INF], "interval endpoints [0, inf] are not on the step-0.25 grid"),
    ("intervals(0.25)", ["0", 1], "interval endpoints ['0', 1] are not on the step-0.25 grid"),
    ("intervals(0.25)", [False, True], "interval endpoints [False, True] are not on the step-0.25 grid"),
    ("intervals(0.25)", [0, True], "interval endpoints [0, True] are not on the step-0.25 grid"),
    ("intervals(0.25)", [-0.25, 0], "interval endpoints [-0.25, 0] are not on the step-0.25 grid"),
    ("intervals(0.25)", [0.75, 0.25], "interval [0.75, 0.25] has lo > hi"),
    ("intervals(0.25)", [1, 0], "interval [1, 0] has lo > hi"),
    ("intervals(1)", [0, 1], (0.0, 1.0)),
    ("intervals(1)", [1, 1], (1.0, 1.0)),
    ("intervals(1)", [0.5, 1], "interval endpoints [0.5, 1] are not on the step-1 grid"),
    ("intervals(1)", [1, 0], "interval [1, 0] has lo > hi"),
    ("intervals(1)", [1], "interval element must be [lo, hi], got [1]"),
    ("survival(4,3)", [1, 0.5, 0.5, 0], (1.0, 0.5, 0.5, 0.0)),
    ("survival(4,3)", (1, 1, 0, 0.0), (1.0, 1.0, 0.0, 0.0)),
    ("survival(4,3)", [1.0000000001, 0.5, 0, 0], (1.0, 0.5, 0.0, 0.0)),
    ("survival(4,3)", [1, 0.5, 0], "survival element must be a list of 4 values, got [1, 0.5, 0]"),
    ("survival(4,3)", "1..0", "survival element must be a list of 4 values, got '1..0'"),
    ("survival(4,3)", None, "survival element must be a list of 4 values, got None"),
    ("survival(4,3)", [1, 0.3, 0, 0], "value 0.3 is not on the 3-level grid"),
    ("survival(4,3)", [1, NAN, 0, 0], "value nan is not on the 3-level grid"),
    ("survival(4,3)", [1, INF, 0, 0], "value inf is not on the 3-level grid"),
    ("survival(4,3)", [1, "0.5", 0, 0], "value '0.5' is not on the 3-level grid"),
    ("survival(4,3)", [True, 0.5, 0.5, False], "value True is not on the 3-level grid"),
    ("survival(4,3)", [1, 0.5, 2, 0], "value 2 is not on the 3-level grid"),
    ("survival(4,3)", [1, 0.5, 1, 0], "[1, 0.5, 1, 0]" + NOT_STEP),
    ("survival(4,3)", [0.5, 0.5, 0, 0], "[0.5, 0.5, 0, 0]" + NOT_STEP),
    ("survival(4,3)", [1, 0.5, 0.5, 0.5], "[1, 0.5, 0.5, 0.5]" + NOT_STEP),
    ("survival(2,3)", [1, 0], (1.0, 0.0)),
    ("survival(2,3)", [1, 0.5], "[1, 0.5]" + NOT_STEP),
    ("survival(2,3)", [1], "survival element must be a list of 2 values, got [1]"),
    ("survival(2,3)", [0, 0], "[0, 0]" + NOT_STEP),
    ("survival(2,3)", [True, 0], "value True is not on the 3-level grid"),
    ("survival(2,3)", [1, 0.25], "value 0.25 is not on the 3-level grid"),
]


class TestGridLattices:
    @pytest.mark.parametrize(
        "grid, literal, expected", GRID_PARSES, ids=[f"{g}-{i}" for i, (g, _, _) in enumerate(GRID_PARSES)]
    )
    def test_parse_results_and_messages(self, grid, literal, expected):
        L = GRIDS[grid]
        if isinstance(expected, tuple):
            x = L.parse(literal)
            assert repr(x) == repr(expected) and x in L
            return
        with pytest.raises(MismatchError) as err:
            L.parse(literal)
        assert str(err.value) == expected
        if isinstance(literal, list) and any(isinstance(v, bool) for v in literal):
            assert tuple(literal) in L  # parse refuses a bool; membership counts it as its int

    def test_grid_values_near_the_cap_snap_to_themselves(self):
        n = 10**12 - 1  # round(v * n) gives a neighbour's index for these k
        for k in (499967074897, 499954210749, 499961568933):
            v = _grid(k, n)
            assert _snap(v, n) == v
            assert (1.0, v, 0.0) in SurvivalLattice(3, n + 1)


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
    return RingOfSetsLattice(gens, universe="abcd", adjoin_bounds=rng.random() < 0.5)


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
        """Join-irreducibles come in no promised order: each kind lists
        each one once, and they are the cover-count finder's as a set."""
        kinds = set()
        for lattice in enumerable_lattices():
            kinds.add(lattice.kind)
            joins = lattice.join_irreducibles()
            assert len(set(joins)) == len(joins), lattice.describe()
            assert set(joins) == set(generic_join_irreducibles(lattice)), lattice.describe()
        assert kinds >= set(LATTICE_KINDS) - {"pentagon", "diamond"}  # those two are the next test's

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


# -- parse is the one check on file input ------------------------------------------


def parse_cases():
    """(lattice, literal) for every element of the enumerable lattices, as
    ``literal`` writes it, and non-canonical literals of the same elements:
    repeated or reordered atoms, ints and near-grid floats on the grids,
    component lists of products."""
    for lattice in enumerable_lattices():
        for x in lattice.element_list():
            yield lattice, lattice.literal(x)
    powerset = PowersetLattice("abc")
    yield from ((powerset, lit) for lit in (["c", "a", "c"], ("b",), []))
    ring = RingOfSetsLattice([{"r1", "m1"}, {"r2", "m1"}])
    yield from ((ring, lit) for lit in (["m1", "r1"], ("r2", "m1", "r2")))
    for step in (0.1, 0.05, 1e-6, 1e-12):
        grid = IntervalGridLattice(step)
        yield from ((grid, lit) for lit in ([0, 1], [0.1 + 0.2, 0.7], [True - 1, 0.3 + 1e-10]))
    survival = SurvivalLattice(5, 11)
    yield from ((survival, lit) for lit in ([1, 0.7000000000000001, 0.3, 0.1 + 0.2, 0], [1, 1, 1, 0, 0]))
    product = ProductLattice([IntervalGridLattice(0.1), ChainLattice(3), PowersetLattice("xy")])
    yield product, ([0.1 + 0.2, 1], 2, ["y", "x"])


def parse_non_members(cases):
    """The cases whose parsed element is not a member of its lattice."""
    return [(lat.describe(), lit, x) for lat, lit in cases if (x := lat.parse(lit)) not in lat]


class TestParseReturnsMembers:
    """File input is checked once, by ``parse``: capacity assignments and
    weighted posets read from a file take its results unchecked."""

    def test_every_kind(self):
        cases = list(parse_cases())
        assert {lat.kind for lat, _ in cases} == set(LATTICE_KINDS)
        assert parse_non_members(cases) == []

    def test_a_parse_that_skips_the_snap_turns_it_red(self, monkeypatch):
        monkeypatch.setattr(IntervalGridLattice, "parse", lambda self, literal: tuple(literal))
        bad = parse_non_members(parse_cases())
        assert ("intervals(step=0.1)", [0.1 + 0.2, 0.7], (0.1 + 0.2, 0.7)) in bad

    def test_one_check_per_element(self, monkeypatch, tmp_path, capsys):
        import json

        from latticeflow import CapacityAssignment, FlowNetwork, WeightedPoset, is_feasible_flow, parse_instance
        from latticeflow.cli import run_command

        checked = []
        original = Lattice.check
        monkeypatch.setattr(Lattice, "check", lambda self, *xs: (checked.extend(xs), original(self, *xs))[1])
        L = ChainLattice(4)
        edges = [("s", "a"), ("a", "t"), ("s", "t")]
        CapacityAssignment(L, dict(zip(edges, (3, 1, 2))))
        WeightedPoset(["x", "y"], [("x", "y")], {"x": 2, "y": 0}, L)
        assert checked == [3, 1, 2, 2, 0]  # library callers: one check each
        checked.clear()
        parse_instance({
            "lattice": {"kind": "chain", "levels": 4},
            "vertices": ["s", "a", "t"], "source": "s", "sink": "t",
            "edges": [{"from": u, "to": v, "capacity": c} for (u, v), c in zip(edges, (3, 1, 2))],
        })
        parse_instance({
            "lattice": {"kind": "chain", "levels": 4},
            "elements": ["x", "y"], "covers": [["x", "y"]], "weights": {"x": 2, "y": 0},
        })
        assert checked == [3, 1, 2, 2, 0]  # file input: parse's check only
        with pytest.raises(MismatchError):
            CapacityAssignment(L, {("s", "t"): 4})
        with pytest.raises(MismatchError):
            WeightedPoset(["x"], [], {"x": 4}, L)
        # flows: one check per value from a library caller and from a flow file
        checked.clear()
        cap = CapacityAssignment._of_members(L, dict(zip(edges, (3, 1, 2))))
        is_feasible_flow(FlowNetwork(["s", "a", "t"], edges, "s", "t"), cap, dict(zip(edges, (1, 1, 0))))
        assert checked == [1, 1, 0]  # library callers: one check each
        with pytest.raises(MismatchError):
            is_feasible_flow(FlowNetwork(["s", "t"], [("s", "t")], "s", "t"), cap, {("s", "t"): 4})
        net, flow = tmp_path / "net.json", tmp_path / "flow.json"
        net.write_text(json.dumps({
            "lattice": {"kind": "chain", "levels": 4},
            "vertices": ["s", "a", "t"], "source": "s", "sink": "t",
            "edges": [{"from": u, "to": v, "capacity": c} for (u, v), c in zip(edges, (3, 1, 2))],
        }))
        flow.write_text(json.dumps({"edges": [{"from": u, "to": v, "value": x} for (u, v), x in zip(edges, (1, 1, 0))]}))
        checked.clear()
        _, code = run_command(["maxflow", str(net), "--check-flow", str(flow)])
        assert code == 0 and "feasible=True" in capsys.readouterr().out
        assert checked == [3, 1, 2, 1, 1, 0]  # file input: parse's check only


# -- kernels ---------------------------------------------------------------------


def test_grid_kernels_are_componentwise_at_every_length():
    rng = random.Random(41)
    grids = [IntervalGridLattice(0.25)] + [SurvivalLattice(t, 5) for t in range(2, 20)]
    for lat in grids:
        length = lat._length
        for _ in range(60):
            a = tuple(rng.choice((0.0, 0.25, 0.5, 1.0)) for _ in range(length))
            b = tuple(rng.choice((0.0, 0.25, 0.5, 1.0)) for _ in range(length))
            assert lat._leq(a, b) == all(x <= y for x, y in zip(a, b))
            assert lat._join(a, b) == tuple(max(x, y) for x, y in zip(a, b))
            assert lat._meet(a, b) == tuple(min(x, y) for x, y in zip(a, b))
            assert lat._leq(a, a) and lat._leq(lat._meet(a, b), a) and lat._leq(a, lat._join(a, b))


def test_from_covers_keeps_the_down_rows_it_builds(monkeypatch):
    import latticeflow.lattices as lattices
    from latticeflow.orderutils import partial_order, transpose

    def refuse(rows):
        raise AssertionError("transposed again")

    monkeypatch.setattr(lattices, "transpose", refuse)
    elements, covers = ["0", "a", "b", "1"], [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
    for lattice, up in (
        (ExplicitLattice.from_covers(elements, covers), partial_order(elements, covers)[0]),
        (PentagonLattice(), partial_order(["0", "a", "b", "c", "1"], PentagonLattice._covers)[0]),
        (DiamondLattice(), partial_order(["0", "a", "b", "c", "1"], DiamondLattice._covers)[0]),
    ):
        assert lattice._up_mask == up and lattice._down_mask == transpose(up)
    with pytest.raises(AssertionError, match="transposed again"):
        ExplicitLattice(elements, partial_order(elements, covers)[0])
