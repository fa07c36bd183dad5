"""Lattice axiom checking and distributivity certification.

Certification is honest about its method: parametric kinds whose
distributivity is structural (chains, set lattices, products of such)
short-circuit with a "structural" certificate, and every other universe
within the size cap is certified "exhaustive" off its index tables
(:meth:`Lattice.tables`). Two tests of O(n²) row operations decide every
verdict. The lattice test: ``up`` is reflexive and antisymmetric, and
every join's up-set and every meet's down-set are the common upper and
lower bounds of its pair; then ``up`` is transitive, join and meet are
the least upper and greatest lower bounds, and every lattice law holds.
The distributivity test, on tables that pass the lattice test: every
join-irreducible is join-prime, which on a finite lattice is
distributivity (Birkhoff; Davey & Priestley, *Introduction to Lattices
and Order*, 2nd ed., 2002). The lattice verdict and the distributivity
verdict are kept on the lattice, like the certificate.
:func:`is_distributive` reads the verdict alone and builds no witness.

Only a failing test enters a cubic scan, which names the failure. Both
scans read each law once off the tables, one (a, b) row at a time: a
triple law is a bitmask of its failing c, from ANDed up-set and down-set
bitmasks or from the positions where two gathered rows differ. The axiom
scan yields its violations in triple-by-triple order and stops after the
first 25; the distributivity scan takes the lowest failing c of the
first failing row. On tables that fail the lattice test that scan also
decides the verdict. Non-distributive certificates carry a failing
triple and a five-element pentagon/diamond sublattice witness. One
search finds both witnesses: it classifies only the five-subsets that
three middle elements and their pairs' joins and meets form, passing
over every middle triple with more than one comparable ordered pair (M3
has none, N5 one), and returns the one a scan of every five-subset
would find first. It works on indices, with the order from up-set
bitmasks and the joins and meets from one ``bounds(i, j)`` function.
The certificate runs it inside the sublattice the failing triple
generates, with ``bounds`` reading the tables, so no native operation is
called after the tables are built. :func:`find_forbidden_sublattice`,
an oracle sharing no code with the failing-triple scan or the two O(n²)
tests, runs it on the whole universe with ``bounds`` keeping native
results: at most one ``_join`` and one ``_meet`` call per ordered pair,
none on a result outside the universe, and no tables.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable

from .errors import UniverseTooLarge
from .lattices import Element, Lattice, LatticeTables, pairwise_closure
from .orderutils import cover_masks, set_bits

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


def _lattice_test(t: LatticeTables) -> bool:
    """Whether the tables form a lattice, in O(n²) row operations: each
    element's up-set and down-set meet in it alone (``up`` is reflexive
    and antisymmetric), each join's up-set is the common upper bounds of
    its pair, and each meet's down-set the common lower bounds.

    Transitivity follows: for i <= j, the join k of i and j has j in its
    up-set and itself in that of j, so k = j and up[j] = up[i] & up[j].
    Join and meet are then the least upper and greatest lower bounds.
    """
    _, J, M, up, down = t
    if any(u & d != 1 << i for i, (u, d) in enumerate(zip(up, down))):
        return False
    up_of, down_of = up.__getitem__, down.__getitem__
    return all(
        list(map(up_of, Ji)) == list(map(u.__and__, up)) and list(map(down_of, Mi)) == list(map(d.__and__, down))
        for Ji, Mi, u, d in zip(J, M, up, down)
    )


def _join_prime_test(t: LatticeTables) -> bool:
    """Whether every join-irreducible (one lower cover) is join-prime:
    the join of the elements not above it is not above it. On tables
    that pass :func:`_lattice_test` that is distributivity."""
    _, J, _, up, down = t
    everything = (1 << len(up)) - 1
    for j, lower in enumerate(cover_masks(down)):
        if lower.bit_count() == 1:
            rest = functools.reduce(lambda a, b: J[a][b], set_bits(everything & ~up[j]))
            if up[j] >> rest & 1:
                return False
    return True


def _is_lattice(lattice: Lattice) -> bool:
    """:func:`_lattice_test` on ``lattice``'s tables, run once and kept."""
    verdict = getattr(lattice, "_lattice_verdict", None)
    if verdict is None:
        verdict = lattice._lattice_verdict = _lattice_test(lattice.tables())
    return verdict


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
    """Verify the lattice axioms and order consistency.

    Covers commutativity, associativity, absorption and idempotence of
    join and meet, partial-order axioms for leq, the equivalence
    leq(a,b) <=> join(a,b)=b <=> meet(a,b)=a, and that join/meet really
    are least upper / greatest lower bounds. The lattice test decides;
    only tables that fail it are scanned for their violations. The
    report keeps the first 25 violations and is truncated when there
    are more.
    """
    size = _guard_size(lattice, max_size)
    if _is_lattice(lattice):
        return AxiomReport(ok=True, size=size, violations=())
    elems = lattice.element_list()
    found = [
        AxiomViolation(law, tuple(elems[i] for i in witness), message)
        for law, witness, message in itertools.islice(_axiom_violations(lattice), _MAX_VIOLATIONS + 1)
    ]
    violations = tuple(found[:_MAX_VIOLATIONS])
    return AxiomReport(ok=not violations, size=size, violations=violations, truncated=len(found) > _MAX_VIOLATIONS)


def _classify(five: tuple[int, ...], bounds: Callable, up) -> tuple[str, tuple[int, ...]] | None:
    """The label and the roles ``0, a, b, c, 1`` of an N5 or M3 that five
    indices, ascending, form, or None: they must hold the join and meet
    of each pair (i, j), i < j, and fold to a bottom and a top with three
    middles between. ``bounds(i, j)`` gives the indices of the join and
    the meet of i and j; ``up`` gives the order."""
    members = sum(1 << x for x in five)
    for i, j in itertools.combinations(five, 2):
        join, meet = bounds(i, j)
        if not (members >> join & 1 and members >> meet & 1):
            return None
    bot = top = five[0]
    for x in five[1:]:
        bot, top = bounds(bot, x)[1], bounds(top, x)[0]
    if bot == top:
        return None
    mids = [x for x in five if x != bot and x != top]
    if len(mids) != 3:
        return None
    comp = [(x, y) for x, y in itertools.permutations(mids, 2) if up[x] >> y & 1]
    if len(comp) > 1:
        return None
    if not comp:
        # M3 candidate: all mid pairs must meet to bot and join to top
        if all(bounds(x, y) == (top, bot) for x, y in itertools.combinations(mids, 2)):
            return "M3", (bot, *mids, top)
    else:
        (lo, hi), = comp
        lone = next(x for x in mids if x not in (lo, hi))
        if bounds(lone, lo) == (top, bot) == bounds(lone, hi):
            return "N5", (bot, lone, hi, lo, top)
    return None


def _witness_from_triple(lattice: Lattice, triple: tuple[int, int, int]) -> SublatticeWitness | None:
    """The first N5/M3 five-subset, in ``combinations`` order, of the
    sublattice the triple of indices generates: an accepted five-set
    there has its middle triple and their bounds there too."""
    elems, J, M, up, _ = lattice.tables()
    closure = pairwise_closure(triple, lambda a, b: J[a][b], lambda a, b: M[a][b])
    return _first_five(elems, lambda i, j: (J[i][j], M[i][j]), up, sum(1 << i for i in closure))


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


def _distributive(lattice: Lattice, max_size: int = DEFAULT_MAX_UNIVERSE) -> bool:
    """The distributivity verdict alone: structural, or the lattice test
    and then join-primality, or on tables that fail the lattice test no
    failing triple. It is kept on ``lattice``, and so is the failing
    triple the scan found; the cap is checked on every call."""
    structural = lattice.known_distributive
    if not structural:
        _guard_size(lattice, max_size)
    verdict = getattr(lattice, "_distributive_verdict", None)
    if verdict is None:
        if structural:
            verdict = True
        elif _is_lattice(lattice):
            verdict = _join_prime_test(lattice.tables())
        else:
            lattice._distributive_failure = _first_distributive_failure(lattice)
            verdict = lattice._distributive_failure is None
        lattice._distributive_verdict = verdict
    return verdict


def check_distributive(
    lattice: Lattice, max_size: int = DEFAULT_MAX_UNIVERSE
) -> DistributivityCertificate:
    """Certify that both distributive laws hold on every triple, or use the
    structural guarantee for parametric kinds too large to enumerate.

    The verdict is :func:`_distributive`'s; only a non-distributive one
    is scanned for a failing triple, unless the verdict came from that
    scan. It carries the first failing triple
    in enumeration order plus an N5/M3 sublattice witness. The
    certificate is kept on ``lattice``; the cap is checked on every call.
    """
    distributive = _distributive(lattice, max_size)
    cached = getattr(lattice, "_distributivity_cert", None)
    if cached is not None:
        return cached
    if distributive:
        cert = DistributivityCertificate(True, "structural" if lattice.known_distributive else "exhaustive")
    else:
        triple, law = getattr(lattice, "_distributive_failure", None) or _first_distributive_failure(lattice)
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


def _native_bounds(lattice: Lattice) -> Callable:
    """``bounds(i, j)`` on native ``_join``/``_meet``, called once per
    ordered pair: the indices of the results in ``element_list()``. A
    result outside the universe gets the index n = ``size()``, and the
    bounds of n with anything are n again, with no native call."""
    elems = lattice.element_list()
    n = len(elems)
    index = {x: i for i, x in enumerate(elems)}

    @functools.cache
    def bounds(i: int, j: int) -> tuple[int, int]:
        if i == n or j == n:
            return n, n
        a, b = elems[i], elems[j]
        return index.get(lattice._join(a, b), n), index.get(lattice._meet(a, b), n)

    return bounds


def _five_candidates(bounds: Callable, up, within: int) -> list[tuple[int, ...]]:
    """Every five-subset of the bitmask ``within`` that :func:`_classify`
    can accept, as ascending indices in ``combinations`` order.

    An accepted set is its three middle elements x < y < z (by index)
    plus their bottom and top. The middles of an M3 are pairwise
    incomparable and those of an N5 hold one comparable ordered pair, so
    a triple with more than one, read off ``up``, is passed over before
    any set is built. Closure puts the join and meet of each pair (x, y),
    (x, z), (y, z) in the set; the N5/M3 checks make the bottom and the
    top the meet and the join of such a pair, or of (z, x) when z is the
    lone middle of an N5 and the operations do not commute. ``bounds`` is
    called for a pair only when a kept triple reads it, and for (y, z)
    only while the set of x, y, z and the other two pairs' bounds can
    still close into five members of ``within``.
    """
    members = list(set_bits(within))
    if len(members) < 5:
        return []
    # bits[p][q]: members p < q (by position) and their join and meet,
    # built when a kept triple first reads them (0 until then)
    m = len(members)
    bits = [[0] * m for _ in range(m)]

    def pair(p: int, q: int) -> int:
        if not bits[p][q]:
            join, meet = bounds(members[p], members[q])
            bits[p][q] = 1 << members[p] | 1 << members[q] | 1 << join | 1 << meet
        return bits[p][q]

    # one[p], two[p]: the other members comparable with members[p] one
    # way at least, and both ways; with a member z it holds
    # (one[p] >> z & 1) + (two[p] >> z & 1) comparable ordered pairs
    one, two = [], []
    for x in members:
        above, below = up[x] & within, sum(1 << z for z in members if up[z] >> x & 1)
        one.append((above | below) & ~(1 << x))
        two.append(above & below & ~(1 << x))
    position = {x: p for p, x in enumerate(members)}
    outside, found = ~within, set()
    for p, x in enumerate(members):
        one_x, two_x = one[p], two[p]
        for q in range(p + 1, m):
            y = members[q]
            if two_x >> y & 1:
                continue  # x, y hold two pairs
            if one_x >> y & 1:  # z comparable with neither
                keep = ~(one_x | one[q])
            else:  # z comparable one way with one of them at most
                keep = ~(two_x | two[q] | one_x & one[q])
            above = keep & (within >> y + 1 << y + 1)  # the members above y
            if not above:
                continue
            bxy = pair(p, q)
            if bxy & outside:
                continue  # no set holding x and y is closed in ``within``
            for z in set_bits(above):
                r = position[z]
                five = bxy | pair(p, r)
                if five & outside or five.bit_count() > 5:
                    continue
                five |= pair(q, r)
                if five & outside:
                    continue
                if five.bit_count() < 5:
                    join, meet = bounds(z, x)
                    five |= 1 << join | 1 << meet
                if five.bit_count() == 5 and not five & outside:
                    found.add(five)
    return sorted(tuple(set_bits(five)) for five in found)


def _first_five(elems: tuple, bounds: Callable, up, within: int) -> SublatticeWitness | None:
    """The witness of the first of :func:`_five_candidates` that
    :func:`_classify` accepts, or None."""
    for five in _five_candidates(bounds, up, within):
        found = _classify(five, bounds, up)
        if found is not None:
            label, roles = found
            return SublatticeWitness(label, {r: elems[i] for r, i in zip(("0", "a", "b", "c", "1"), roles)})
    return None


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
        elems = lattice.element_list()
        return _first_five(elems, _native_bounds(lattice), lattice._up_masks(), (1 << len(elems)) - 1)
    return check_distributive(lattice, max_size).sublattice


def is_distributive(lattice: Lattice) -> bool | None:
    """True/False when certifiable, None when the universe is too large
    and no structural guarantee applies. Decided without a witness."""
    try:
        return _distributive(lattice)
    except UniverseTooLarge:
        return None
