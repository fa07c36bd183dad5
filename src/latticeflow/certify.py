"""Exhaustive lattice axiom checking and distributivity certification.

Certification is honest about its method: parametric kinds whose
distributivity is structural (chains, set lattices, products of such)
short-circuit with a "structural" certificate, and every other universe
within the size cap is checked on every triple. The cubic scans run over
the lattice's index tables (:meth:`Lattice.tables`) one (a, b) row at a
time: a row compares whole lists over c, or ANDs up-set and down-set
bitmasks, instead of making per-triple calls. The distributivity scan
takes the first c where a row differs, so its failing triple and law are
those of the triple-by-triple order. The axiom scan replays only the rows
that fail through the per-triple checks on the native operations, which
keeps its violation order, messages and truncation. Non-distributive
verdicts carry a failing triple and a five-element pentagon/diamond
sublattice witness, searched on indices in the sublattice the triple
generates. :func:`find_forbidden_sublattice` stays an independent oracle:
its five-subset scan uses the native ``_join``/``_meet``, not the tables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Any

from .errors import UniverseTooLarge
from .lattices import Element, Lattice

DEFAULT_MAX_UNIVERSE = 512
_SUBSET_SCAN_MAX = 24
_MAX_VIOLATIONS = 25


@dataclass(frozen=True)
class AxiomViolation:
    law: str
    witness: tuple
    message: str


@dataclass(frozen=True)
class AxiomReport:
    ok: bool
    size: int
    violations: tuple[AxiomViolation, ...]
    truncated: bool = False

    def to_dict(self, lattice: Lattice) -> dict:
        return {
            "ok": self.ok,
            "size": self.size,
            "truncated": self.truncated,
            "violations": [
                {"law": v.law, "witness": [lattice.format(x) for x in v.witness], "message": v.message}
                for v in self.violations
            ],
        }


@dataclass(frozen=True)
class SublatticeWitness:
    """Five elements closed under join/meet, isomorphic to N5 or M3.

    Roles follow the pentagon/diamond naming: "0" bottom, "1" top, and
    for N5 the chain 0 < c < b < 1 with "a" incomparable to both.
    """

    label: str  # "N5" or "M3"
    embedding: dict[str, Element]

    def elements(self) -> tuple:
        return tuple(self.embedding[r] for r in ("0", "a", "b", "c", "1"))

    def to_dict(self, lattice: Lattice) -> dict:
        return {
            "label": self.label,
            "embedding": {role: lattice.literal(x) for role, x in self.embedding.items()},
        }


@dataclass(frozen=True)
class DistributivityCertificate:
    distributive: bool
    method: str  # "structural" or "exhaustive"
    witness_triple: tuple | None = None
    failed_law: str | None = None
    sublattice: SublatticeWitness | None = None

    @property
    def verdict(self) -> str:
        return "distributive" if self.distributive else "non-distributive"

    def to_dict(self, lattice: Lattice) -> dict:
        out: dict[str, Any] = {"verdict": self.verdict, "method": self.method}
        if self.witness_triple is not None:
            out["witness_triple"] = [lattice.literal(x) for x in self.witness_triple]
            out["failed_law"] = self.failed_law
        if self.sublattice is not None:
            out["forbidden_sublattice"] = self.sublattice.to_dict(lattice)
        return out


def _guard_size(lattice: Lattice, max_size: int) -> int:
    size = lattice.size()
    if size > max_size:
        raise UniverseTooLarge(
            f"{lattice.describe()} has {size} elements; cap for exhaustive checks is {max_size}"
        )
    return size


def _gatherers(rows) -> list:
    """For each table row r, the function taking a row x to the tuple
    of x[i] for i in r (itemgetter does that in C, but returns a bare
    item, not a 1-tuple, when r has one entry)."""
    if len(rows) == 1:
        return [lambda x, i=rows[0][0]: (x[i],)]
    return [itemgetter(*r) for r in rows]


def check_lattice_axioms(lattice: Lattice, max_size: int = DEFAULT_MAX_UNIVERSE) -> AxiomReport:
    """Exhaustively verify the lattice axioms and order consistency.

    Covers commutativity, associativity, absorption and idempotence of
    join and meet, partial-order axioms for leq, the equivalence
    leq(a,b) <=> join(a,b)=b <=> meet(a,b)=a, and that join/meet really
    are least upper / greatest lower bounds.
    """
    size = _guard_size(lattice, max_size)
    elems = lattice.element_list()
    violations: list[AxiomViolation] = []
    truncated = False

    def report(law, witness, message) -> bool:
        nonlocal truncated
        if len(violations) >= _MAX_VIOLATIONS:
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

    # The pair laws and then the triple laws, checked on the index tables;
    # a pair or an (a, b) row over every c that breaks a law is replayed
    # on the native operations, which word and order the violations.
    _, J, M, up, down = lattice.tables()
    for (ia, a), (ib, b) in itertools.product(enumerate(elems), repeat=2):
        if truncated:
            break
        jab, mab = J[ia][ib], M[ia][ib]
        le = bool(up[ia] >> ib & 1)
        if (
            jab == J[ib][ia]  # join-commutativity
            and mab == M[ib][ia]  # meet-commutativity
            and J[ia][mab] == ia  # absorption
            and M[ia][jab] == ia  # absorption
            and (jab == ib) is le  # order-consistency
            and (mab == ia) is le
            and up[ia] >> jab & 1  # join-upper-bound
            and up[ib] >> jab & 1
            and down[ia] >> mab & 1  # meet-lower-bound
            and down[ib] >> mab & 1
        ):
            continue
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

    by_join, by_meet = _gatherers(J), _gatherers(M)
    for ia, a in enumerate(elems):
        if truncated:
            break
        Ja, Ma, up_a, down_a = J[ia], M[ia], up[ia], down[ia]
        for ib, b in enumerate(elems):
            if truncated:
                break
            jab, mab = Ja[ib], Ma[ib]
            if (
                not (up_a >> ib & 1 and up[ib] & ~up_a)  # transitivity
                and by_join[ib](Ja) == J[jab]  # join-associativity
                and by_meet[ib](Ma) == M[mab]  # meet-associativity
                and not up_a & up[ib] & ~up[jab]  # join-least-upper-bound
                and not down_a & down[ib] & ~down[mab]  # meet-greatest-lower-bound
            ):
                continue
            for c in elems:
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


def _sublattice_closure(join: tuple, meet: tuple, seeds) -> list[int]:
    """Indices of the sublattice the seed indices generate, in element order."""
    current = set(seeds)
    while True:
        new = set()
        for a, b in itertools.combinations(current, 2):
            for x in (join[a][b], meet[a][b]):
                if x not in current:
                    new.add(x)
        if not new:
            break
        current |= new
    return sorted(current)


def _classify_five(lattice: Lattice, five: tuple) -> SublatticeWitness | None:
    """N5/M3 witness if the five elements are op-closed and isomorphic."""
    fs = frozenset(five)
    for a, b in itertools.combinations(five, 2):
        if lattice._join(a, b) not in fs or lattice._meet(a, b) not in fs:
            return None
    bot = five[0]
    top = five[0]
    for x in five[1:]:
        bot = lattice._meet(bot, x)
        top = lattice._join(top, x)
    if bot == top:
        return None
    mids = [x for x in five if x != bot and x != top]
    if len(mids) != 3:
        return None
    comp = [
        (x, y)
        for x, y in itertools.permutations(mids, 2)
        if x != y and lattice._leq(x, y)
    ]
    if not comp:
        # M3 candidate: all mid pairs must meet to bot and join to top
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


def _witness_from_triple(lattice: Lattice, triple: tuple[int, int, int]) -> SublatticeWitness | None:
    """The first N5/M3 five-subset, in ``combinations`` order, of the
    sublattice the triple of indices generates. Subsets not closed under
    the tables' join and meet are passed over before classification."""
    elems, J, M, _, _ = lattice.tables()
    for five in itertools.combinations(_sublattice_closure(J, M, triple), 5):
        if all(J[x][y] in five and M[x][y] in five for x, y in itertools.combinations(five, 2)):
            wit = _classify_five(lattice, tuple(elems[i] for i in five))
            if wit is not None:
                return wit
    return None


def _first_difference(xs: tuple, ys: tuple) -> int:
    """The first position where xs and ys differ, or their length."""
    if xs == ys:
        return len(xs)
    return next(i for i, (x, y) in enumerate(zip(xs, ys)) if x != y)


def _first_distributive_failure(lattice: Lattice) -> tuple[tuple[int, int, int], str] | None:
    """Indices of the first triple, in product order, where a distributive
    law fails, and the law; meet-over-join is checked first on a triple.
    Each (a, b) row compares both laws over every c at once."""
    elems, J, M, _, _ = lattice.tables()
    n = len(elems)
    by_join, by_meet = _gatherers(J), _gatherers(M)
    for ia, (Ja, Ma) in enumerate(zip(J, M)):
        for ib in range(n):
            # meet(a, join(b, c)) against join(meet(a, b), meet(a, c))
            c1 = _first_difference(by_join[ib](Ma), by_meet[ia](J[Ma[ib]]))
            # join(a, meet(b, c)) against meet(join(a, b), join(a, c))
            c2 = _first_difference(by_meet[ib](Ja), by_join[ia](M[Ja[ib]]))
            if c1 < n or c2 < n:
                return ((ia, ib, c1), "meet-over-join") if c1 <= c2 else ((ia, ib, c2), "join-over-meet")
    return None


def check_distributive(
    lattice: Lattice, max_size: int = DEFAULT_MAX_UNIVERSE
) -> DistributivityCertificate:
    """Certify both distributive laws on every triple, or use the
    structural guarantee for parametric kinds too large to enumerate.

    A non-distributive verdict carries the first failing triple in
    enumeration order plus an N5/M3 sublattice witness.
    """
    cached = getattr(lattice, "_distributivity_cert", None)
    if cached is not None:
        return cached
    if lattice.known_distributive:
        cert = DistributivityCertificate(True, "structural")
        lattice._distributivity_cert = cert
        return cert
    _guard_size(lattice, max_size)
    failure = _first_distributive_failure(lattice)
    if failure is None:
        cert = DistributivityCertificate(True, "exhaustive")
    else:
        triple, law = failure
        elems = lattice.element_list()
        cert = DistributivityCertificate(
            False,
            "exhaustive",
            witness_triple=tuple(elems[i] for i in triple),
            failed_law=law,
            sublattice=_witness_from_triple(lattice, triple),
        )
    lattice._distributivity_cert = cert
    return cert


def find_forbidden_sublattice(
    lattice: Lattice, max_size: int = DEFAULT_MAX_UNIVERSE
) -> SublatticeWitness | None:
    """Pentagon or diamond sublattice embedding, or None if there is none.

    For small universes this scans every five-element subset, which keeps
    it an oracle independent of :func:`check_distributive`; larger
    universes fall back to the failing-triple closure search.
    """
    if lattice.known_distributive:
        return None
    size = _guard_size(lattice, max_size)
    if size <= _SUBSET_SCAN_MAX:
        for five in itertools.combinations(lattice.element_list(), 5):
            wit = _classify_five(lattice, five)
            if wit is not None:
                return wit
        return None
    cert = check_distributive(lattice, max_size)
    return cert.sublattice


def is_distributive(lattice: Lattice, max_size: int = DEFAULT_MAX_UNIVERSE) -> bool | None:
    """True/False when certifiable, None when the universe is too large
    and no structural guarantee applies."""
    try:
        return check_distributive(lattice, max_size).distributive
    except UniverseTooLarge:
        return None
