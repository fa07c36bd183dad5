"""Rings of sets and down-set lattices are built by one Birkhoff rule.

Every member of a finite ring of sets is its bottom joined with some of
its join-irreducibles, so both kinds list their universe as those unions:
no pairwise closure, no scan over every subset of the base, and no
pairwise re-check of a family. The old loops stay as references in
``test_derived_rules.py`` and ``test_orderutils.py``.
"""

import random
import string

import pytest

from latticeflow import DownsetLattice, RingOfSetsLattice, lattices
from latticeflow.errors import MismatchError, UniverseTooLarge
from latticeflow.instances import lattice_from_spec

from test_derived_rules import reference_ring_family


def seeded_generators():
    """60 generator lists over up to six atoms, each with whether to
    adjoin the bounds (on even draws)."""
    rng = random.Random(22)
    for i in range(60):
        atoms = "abcdef"[: rng.randint(1, 6)]
        gens = [frozenset(rng.sample(atoms, rng.randint(0, len(atoms)))) for _ in range(rng.randint(1, 4))]
        yield gens, i % 2 == 0


def test_rings_and_down_sets_build_without_the_pairwise_closure(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pairwise_closure called")

    monkeypatch.setattr("latticeflow.lattices.pairwise_closure", refuse)
    for gens, adjoin in seeded_generators():
        lat = RingOfSetsLattice(gens, adjoin_bounds=adjoin)
        want = reference_ring_family(gens, frozenset().union(*gens), adjoin, 4096)
        assert set(lat.element_list()) == want
    assert DownsetLattice("abc", [("a", "b")]).size() == 6


def test_eleven_singletons_with_bounds_give_every_subset():
    atoms = string.ascii_lowercase[:11]
    lat = RingOfSetsLattice([[a] for a in atoms], adjoin_bounds=True)
    assert lat.size() == 2048 and lat.describe() == "ring-of-sets(2048 sets)"
    assert lat.bottom() == frozenset() and lat.top() == frozenset(atoms)
    assert lat.join_irreducibles() == tuple(frozenset(a) for a in atoms)
    assert lat.element_list()[:12] == (frozenset(), *(frozenset(a) for a in atoms))


def test_down_sets_of_a_sixteen_element_chain_are_its_prefixes():
    base = [f"c{i:02}" for i in range(16)]
    lat = DownsetLattice(base, list(zip(base, base[1:])))
    assert lat.element_list() == tuple(frozenset(base[:k]) for k in range(17))
    assert lat.join_irreducibles() == lat.element_list()[1:]


def test_the_constructor_tests_closure_without_listing_every_union():
    atoms = [f"x{i}" for i in range(40)]
    with pytest.raises(UniverseTooLarge, match="exceeded 4096 sets"):  # stops past 4,096 sets, not at 2**40
        RingOfSetsLattice([frozenset(), *(frozenset([a]) for a in atoms)])
    closed = [frozenset(atoms[:k]) for k in range(41)]
    lat = RingOfSetsLattice(reversed(closed + closed), universe=atoms)
    assert lat.element_list() == tuple(closed)
    assert lat.join_irreducibles() == tuple(closed[1:])


def test_an_empty_family_is_refused():
    with pytest.raises(ValueError, match="at least one generator"):
        RingOfSetsLattice([], universe="ab")


def test_a_ring_derives_the_meets_once(monkeypatch):
    calls = []
    counted = lattices._holders_meets

    def counting(sets):
        calls.append(sets)
        return counted(sets)

    monkeypatch.setattr(lattices, "_holders_meets", counting)
    rings = [*seeded_generators(), ([[a] for a in string.ascii_lowercase[:11]], True)]
    for gens, adjoin in rings:
        RingOfSetsLattice(gens, adjoin_bounds=adjoin)
    assert len(calls) == len(rings)


def test_a_ring_spec_rebuilds_the_same_ring():
    for gens, adjoin in seeded_generators():
        lat = RingOfSetsLattice(gens, adjoin_bounds=adjoin)
        again = lattice_from_spec(lat.spec())
        assert again.element_list() == lat.element_list()
        assert again.spec() == lat.spec()


def test_parse_keeps_each_kinds_messages():
    ring = RingOfSetsLattice([["a"], ["a", "b"]])
    downs = DownsetLattice("ab", [("a", "b")])
    cases = [
        (ring, "a", "ring element must be a list of atoms, got 'a'"),
        (ring, ["b"], r"\['b'\] is not in the generated ring of sets"),
        (downs, [["a"]], r"downset element must be a list of names, got \[\['a'\]\]"),
        (downs, ["b"], r"\['b'\] is not a down-set of the base poset"),
    ]
    for lat, literal, message in cases:
        with pytest.raises(MismatchError, match=message):
            lat.parse(literal)

