"""Exhaustive lattice axiom checking and distributivity certification.

Certification is honest about its method: parametric kinds whose
distributivity is structural (chains, set lattices, products of such)
short-circuit with a "structural" certificate, and every other universe
within the size cap is checked on every triple. Both cubic scans read
each law once off the lattice's index tables (:meth:`Lattice.tables`),
one (a, b) row at a time: a triple law is a bitmask of its failing c,
from ANDed up-set and down-set bitmasks or from the positions where two
gathered rows differ. No native operation is called after the tables
are built. The axiom scan yields its violations in triple-by-triple
order and stops after the first 25; the distributivity scan takes the
lowest failing c of the first failing row. Non-distributive verdicts
carry a failing triple and a five-element pentagon/diamond sublattice
witness. One search finds both witnesses: it classifies only the
five-subsets that three middle elements and their pairs' joins and
meets form, and returns the one a scan of every five-subset would find
first. The certificate runs it on the tables, inside the sublattice the
failing triple generates; :func:`find_forbidden_sublattice`, an oracle
sharing no code with the failing-triple scan, on native calls.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Any

from .errors import UniverseTooLarge
from .lattices import Element, Lattice, pairwise_closure
from .orderutils import set_bits

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


def _axiom_violations(lattice: Lattice):
    """Every violated law as (law, witness indices, message), in report
    order: the element laws, antisymmetry on unordered pairs, the pair
    laws on ordered pairs, then each (a, b) row over c, where a failing
    transitivity passes over the other triple laws at that c."""
    elems, J, M, up, down = lattice.tables()

    def fmt(i: int) -> str:
        return lattice.format(elems[i])

    n = len(elems)
    for a in range(n):
        if not up[a] >> a & 1:
            yield "reflexivity", (a,), f"{fmt(a)} <= {fmt(a)} fails"
        if J[a][a] != a:
            yield "join-idempotence", (a,), f"{fmt(a)} v {fmt(a)} != {fmt(a)}"
        if M[a][a] != a:
            yield "meet-idempotence", (a,), f"{fmt(a)} ^ {fmt(a)} != {fmt(a)}"

    for a, b in itertools.combinations(range(n), 2):
        if up[a] >> b & 1 and up[b] >> a & 1:
            yield "antisymmetry", (a, b), f"{fmt(a)} and {fmt(b)} are mutually <= but distinct"

    for a, b in itertools.product(range(n), repeat=2):
        jab, mab = J[a][b], M[a][b]
        if jab != J[b][a]:
            yield "join-commutativity", (a, b), f"{fmt(a)} v {fmt(b)} != {fmt(b)} v {fmt(a)}"
        if mab != M[b][a]:
            yield "meet-commutativity", (a, b), f"{fmt(a)} ^ {fmt(b)} != {fmt(b)} ^ {fmt(a)}"
        if J[a][mab] != a:
            yield "absorption", (a, b), f"{fmt(a)} v ({fmt(a)} ^ {fmt(b)}) != {fmt(a)}"
        if M[a][jab] != a:
            yield "absorption", (a, b), f"{fmt(a)} ^ ({fmt(a)} v {fmt(b)}) != {fmt(a)}"
        le = bool(up[a] >> b & 1)
        if (jab == b) is not le or (mab == a) is not le:
            yield "order-consistency", (a, b), f"leq({fmt(a)},{fmt(b)}), join={fmt(jab)}, meet={fmt(mab)} disagree"
        if not (up[a] >> jab & 1 and up[b] >> jab & 1):
            yield "join-upper-bound", (a, b), f"{fmt(jab)} is not an upper bound"
        if not (down[a] >> mab & 1 and down[b] >> mab & 1):
            yield "meet-lower-bound", (a, b), f"{fmt(mab)} is not a lower bound"

    # Each triple law of an (a, b) row is a bitmask of its failing c.
    by_join, by_meet = _gatherers(J), _gatherers(M)
    for a in range(n):
        Ja, Ma, up_a, down_a = J[a], M[a], up[a], down[a]
        for b in range(n):
            jab, mab = Ja[b], Ma[b]
            transitivity = up[b] & ~up_a if up_a >> b & 1 else 0
            least = up_a & up[b] & ~up[jab]
            greatest = down_a & down[b] & ~down[mab]
            # join(a, join(b, c)) and meet(a, meet(b, c)) over every c
            j_row, m_row = by_join[b](Ja), by_meet[b](Ma)
            if not (transitivity or least or greatest) and j_row == J[jab] and m_row == M[mab]:
                continue
            j_assoc, m_assoc = _diff_mask(j_row, J[jab]), _diff_mask(m_row, M[mab])
            for c in set_bits(transitivity | j_assoc | m_assoc | least | greatest):
                if transitivity >> c & 1:
                    yield "transitivity", (a, b, c), (
                        f"{fmt(a)} <= {fmt(b)} <= {fmt(c)} but not {fmt(a)} <= {fmt(c)}"
                    )
                    continue
                if j_assoc >> c & 1:
                    yield "join-associativity", (a, b, c), "join associativity fails"
                if m_assoc >> c & 1:
                    yield "meet-associativity", (a, b, c), "meet associativity fails"
                if least >> c & 1:
                    yield "join-least-upper-bound", (a, b, c), f"{fmt(jab)} not least among upper bounds"
                if greatest >> c & 1:
                    yield "meet-greatest-lower-bound", (a, b, c), f"{fmt(mab)} not greatest among lower bounds"


def check_lattice_axioms(lattice: Lattice, max_size: int = DEFAULT_MAX_UNIVERSE) -> AxiomReport:
    """Exhaustively verify the lattice axioms and order consistency.

    Covers commutativity, associativity, absorption and idempotence of
    join and meet, partial-order axioms for leq, the equivalence
    leq(a,b) <=> join(a,b)=b <=> meet(a,b)=a, and that join/meet really
    are least upper / greatest lower bounds. The report keeps the first
    25 violations and is truncated when there are more.
    """
    size = _guard_size(lattice, max_size)
    elems = lattice.element_list()
    found = [
        AxiomViolation(law, tuple(elems[i] for i in witness), message)
        for law, witness, message in itertools.islice(_axiom_violations(lattice), _MAX_VIOLATIONS + 1)
    ]
    violations = tuple(found[:_MAX_VIOLATIONS])
    return AxiomReport(ok=not violations, size=size, violations=violations, truncated=len(found) > _MAX_VIOLATIONS)


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
    sublattice the triple of indices generates: an accepted five-set
    there has its middle triple and their bounds there too."""
    _, J, M, _, _ = lattice.tables()
    return _first_five(lattice, pairwise_closure(triple, lambda a, b: J[a][b], lambda a, b: M[a][b]))


def _diff_mask(xs: tuple, ys: tuple) -> int:
    """Bitmask of the positions where the rows xs and ys differ."""
    if xs == ys:
        return 0
    return sum(1 << i for i, (x, y) in enumerate(zip(xs, ys)) if x != y)


def _first_distributive_failure(lattice: Lattice) -> tuple[tuple[int, int, int], str] | None:
    """Indices of the first triple, in product order, where a distributive
    law fails, and the law; meet-over-join is checked first on a triple.
    Each (a, b) row compares both laws over every c at once."""
    _, J, M, _, _ = lattice.tables()
    by_join, by_meet = _gatherers(J), _gatherers(M)
    for ia, (Ja, Ma) in enumerate(zip(J, M)):
        for ib in range(len(J)):
            # meet(a, join(b, c)) against join(meet(a, b), meet(a, c))
            over_join = _diff_mask(by_join[ib](Ma), by_meet[ia](J[Ma[ib]]))
            # join(a, meet(b, c)) against meet(join(a, b), join(a, c))
            over_meet = _diff_mask(by_meet[ib](Ja), by_join[ia](M[Ja[ib]]))
            if over_join or over_meet:
                c = next(set_bits(over_join | over_meet))
                return (ia, ib, c), "meet-over-join" if over_join >> c & 1 else "join-over-meet"
    return None


def check_distributive(
    lattice: Lattice, max_size: int = DEFAULT_MAX_UNIVERSE
) -> DistributivityCertificate:
    """Certify both distributive laws on every triple, or use the
    structural guarantee for parametric kinds too large to enumerate.

    A non-distributive verdict carries the first failing triple in
    enumeration order plus an N5/M3 sublattice witness. The certificate
    is kept on ``lattice``; the cap is checked on every call.
    """
    structural = lattice.known_distributive
    if not structural:
        _guard_size(lattice, max_size)
    cached = getattr(lattice, "_distributivity_cert", None)
    if cached is not None:
        return cached
    failure = None if structural else _first_distributive_failure(lattice)
    if failure is None:
        cert = DistributivityCertificate(True, "structural" if structural else "exhaustive")
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


def _five_candidates(lattice: Lattice, within: set[int] | None = None) -> list[tuple]:
    """Every five-subset that :func:`_classify_five` can accept, in
    ``combinations`` order, from native ``_join``/``_meet`` results; with
    ``within``, a set of indices, those inside it, read off the tables.

    An accepted set is its three middle elements x < y < z (by index)
    plus their bottom and top. Closure puts the join and meet of each
    pair (x, y), (x, z), (y, z) in it; the N5/M3 checks make the bottom
    and the top the meet and the join of such a pair, or of (z, x) when
    z is the lone middle of an N5 and the operations do not commute.
    Each ordered pair's results are computed once.
    """
    elems = lattice.element_list()
    if within is None:
        index = {x: i for i, x in enumerate(elems)}

        @functools.cache
        def bounds(i: int, j: int) -> tuple:
            """Indices of the join and the meet of elements i and j, None
            for a result outside the universe."""
            a, b = elems[i], elems[j]
            return index.get(lattice._join(a, b)), index.get(lattice._meet(a, b))
    else:
        _, J, M, _, _ = lattice.tables()

        def bounds(i: int, j: int) -> tuple:
            return J[i][j], M[i][j]

    found = set()
    for x, y, z in itertools.combinations(range(len(elems)) if within is None else sorted(within), 3):
        five = {x, y, z, *bounds(x, y), *bounds(x, z), *bounds(y, z)}
        if None in five:
            continue  # no set holding x, y and z is closed
        if len(five) < 5:
            five.update(bounds(z, x))
        if len(five) == 5 and None not in five and (within is None or five <= within):
            found.add(tuple(sorted(five)))
    return [tuple(elems[i] for i in five) for five in sorted(found)]


def _first_five(lattice: Lattice, within: set[int] | None = None) -> SublatticeWitness | None:
    """The witness of the first of :func:`_five_candidates` that
    :func:`_classify_five` accepts, or None."""
    return next(filter(None, (_classify_five(lattice, five) for five in _five_candidates(lattice, within))), None)


def find_forbidden_sublattice(
    lattice: Lattice, max_size: int = DEFAULT_MAX_UNIVERSE
) -> SublatticeWitness | None:
    """Pentagon or diamond sublattice embedding, or None if there is none.

    For small universes this classifies every five-element subset that
    three middle elements and their joins and meets can form, on native
    operations, which keeps it an oracle independent of
    :func:`check_distributive`; the first witness is the one a scan of
    all five-subsets in ``combinations`` order would give. Larger
    universes fall back to the failing-triple closure search.
    """
    if lattice.known_distributive:
        return None
    size = _guard_size(lattice, max_size)
    if size <= _SUBSET_SCAN_MAX:
        return _first_five(lattice)
    return check_distributive(lattice, max_size).sublattice


def is_distributive(lattice: Lattice) -> bool | None:
    """True/False when certifiable, None when the universe is too large
    and no structural guarantee applies."""
    try:
        return check_distributive(lattice).distributive
    except UniverseTooLarge:
        return None
