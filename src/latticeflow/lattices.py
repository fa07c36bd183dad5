"""Finite and parametric order lattices with canonical element forms.

Elements are plain hashable Python values (ints, frozensets, tuples,
strings) in a canonical form fixed by each lattice kind. They carry no
back-reference to their lattice, so membership is checked where an
element enters the program: :meth:`Lattice.parse`, the public binary
``leq``/``join``/``meet``, and the containers built on a lattice
(capacity assignments, weighted posets, flows), which raise
:class:`MismatchError` on foreign elements. The folds ``join_all`` and
``meet_all`` run the unchecked underscore variants (``_join`` etc.) on
elements validated at entry.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Hashable
from functools import reduce
from typing import Any, Iterable, Iterator, Sequence

from .errors import MismatchError, NoBottomError, UniverseTooLarge
from .orderutils import (
    antisymmetry_violation,
    covers_from_closure,
    reflexive_transitive_closure,
)

Element = Any

_EMPTY = object()


class Lattice:
    """A partially ordered set in which every pair of elements has a least
    upper bound (join) and a greatest lower bound (meet).

    ``known_distributive`` is a structural guarantee: kinds whose
    distributivity follows from their construction (chains, set lattices,
    products of such) set it to True so certification can skip the cubic
    enumeration on large universes. False means "not guaranteed", not
    "non-distributive".
    """

    kind = "abstract"
    known_distributive = False

    # -- order and algebra -------------------------------------------------

    def leq(self, a: Element, b: Element) -> bool:
        self.check(a, b)
        return self._leq(a, b)

    def join(self, a: Element, b: Element) -> Element:
        self.check(a, b)
        return self._join(a, b)

    def meet(self, a: Element, b: Element) -> Element:
        self.check(a, b)
        return self._meet(a, b)

    def _leq(self, a, b) -> bool:
        raise NotImplementedError

    def _join(self, a, b):
        raise NotImplementedError

    def _meet(self, a, b):
        raise NotImplementedError

    # -- universe ----------------------------------------------------------

    def __contains__(self, x) -> bool:
        raise NotImplementedError

    def check(self, *xs) -> None:
        for x in xs:
            if x not in self:
                raise MismatchError(f"{x!r} is not an element of {self.describe()}")

    def size(self) -> int:
        raise NotImplementedError

    def elements(self) -> Iterator[Element]:
        """Deterministic enumeration of the universe."""
        raise NotImplementedError

    def element_list(self) -> tuple:
        cached = getattr(self, "_element_cache", None)
        if cached is None:
            cached = tuple(self.elements())
            self._element_cache = cached
        return cached

    def bottom(self) -> Element | None:
        """Global minimum, or None if there is none.

        Default folds the meet over the whole universe and verifies the
        result; parametric kinds override with the structural answer.
        """
        if not hasattr(self, "_bottom_cache"):
            elems = self.element_list()
            cand = reduce(self._meet, elems)
            ok = all(self._leq(cand, x) for x in elems)
            self._bottom_cache = cand if ok else None
        return self._bottom_cache

    def top(self) -> Element | None:
        if not hasattr(self, "_top_cache"):
            elems = self.element_list()
            cand = reduce(self._join, elems)
            ok = all(self._leq(x, cand) for x in elems)
            self._top_cache = cand if ok else None
        return self._top_cache

    # -- folds ---------------------------------------------------------

    def join_all(self, items: Iterable[Element]) -> Element:
        """Join of an iterable of elements already known to be members.
        The empty join is the lattice bottom; :class:`NoBottomError` if
        there is none."""
        out = _EMPTY
        for x in items:
            out = x if out is _EMPTY else self._join(out, x)
        if out is not _EMPTY:
            return out
        bot = self.bottom()
        if bot is None:
            raise NoBottomError(
                f"empty join needs a bottom element and {self.describe()} has none"
            )
        return bot

    def meet_all(self, items: Iterable[Element]) -> Element:
        """Meet of an iterable of members; the empty meet is the top."""
        out = _EMPTY
        for x in items:
            out = x if out is _EMPTY else self._meet(out, x)
        if out is not _EMPTY:
            return out
        top = self.top()
        if top is None:
            raise NoBottomError(
                f"empty meet needs a top element and {self.describe()} has none"
            )
        return top

    # -- io ------------------------------------------------------------

    def parse(self, literal) -> Element:
        """Canonical element from a JSON literal; MismatchError if invalid."""
        raise NotImplementedError

    def literal(self, x: Element):
        """JSON-serializable literal for a canonical element."""
        raise NotImplementedError

    def format(self, x: Element) -> str:
        return repr(self.literal(x))

    def spec(self) -> dict:
        """JSON lattice spec that reconstructs this lattice."""
        raise NotImplementedError

    def describe(self) -> str:
        return self.kind


class ChainLattice(Lattice):
    """Total order on levels 0 .. n-1; join is max, meet is min."""

    kind = "chain"
    known_distributive = True

    def __init__(self, levels: int):
        if not isinstance(levels, int) or isinstance(levels, bool) or levels < 1:
            raise ValueError("chain lattice needs a positive integer level count")
        self.levels = levels

    def __contains__(self, x):
        return isinstance(x, int) and not isinstance(x, bool) and 0 <= x < self.levels

    def _leq(self, a, b):
        return a <= b

    def _join(self, a, b):
        return a if a >= b else b

    def _meet(self, a, b):
        return a if a <= b else b

    def size(self):
        return self.levels

    def elements(self):
        return iter(range(self.levels))

    def bottom(self):
        return 0

    def top(self):
        return self.levels - 1

    def parse(self, literal):
        if not isinstance(literal, int) or isinstance(literal, bool):
            raise MismatchError(f"chain element must be an integer, got {literal!r}")
        self.check(literal)
        return literal

    def literal(self, x):
        return x

    def format(self, x):
        return str(x)

    def spec(self):
        return {"kind": "chain", "levels": self.levels}

    def describe(self):
        return f"chain({self.levels})"


class PowersetLattice(Lattice):
    """All subsets of a finite set of named atoms, ordered by inclusion."""

    kind = "powerset"
    known_distributive = True

    def __init__(self, atoms: Iterable[str]):
        atoms = tuple(atoms)
        if len(set(atoms)) != len(atoms):
            raise ValueError("powerset universe has duplicate atoms")
        if not all(isinstance(a, str) for a in atoms):
            raise ValueError("powerset atoms must be strings")
        self.atoms = atoms
        self._atomset = frozenset(atoms)

    def __contains__(self, x):
        return isinstance(x, frozenset) and x <= self._atomset

    def _leq(self, a, b):
        return a <= b

    def _join(self, a, b):
        return a | b

    def _meet(self, a, b):
        return a & b

    def size(self):
        return 2 ** len(self.atoms)

    def elements(self):
        n = len(self.atoms)
        for mask in range(2**n):
            yield frozenset(self.atoms[i] for i in range(n) if mask >> i & 1)

    def bottom(self):
        return frozenset()

    def top(self):
        return self._atomset

    def parse(self, literal):
        if not isinstance(literal, (list, tuple)):
            raise MismatchError(f"powerset element must be a list of atoms, got {literal!r}")
        bad = [a for a in literal if not isinstance(a, str) or a not in self._atomset]
        if bad:
            raise MismatchError(f"unknown atoms {bad} for {self.describe()}")
        return frozenset(literal)

    def literal(self, x):
        return sorted(x)

    def format(self, x):
        return "{" + ",".join(sorted(x)) + "}"

    def spec(self):
        return {"kind": "powerset", "universe": list(self.atoms)}

    def describe(self):
        return "powerset{" + ",".join(self.atoms) + "}"


class ProductLattice(Lattice):
    """Componentwise order on tuples drawn from factor lattices."""

    kind = "product"

    def __init__(self, factors: Sequence[Lattice]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("product lattice needs at least one factor")
        self.factors = factors
        self.known_distributive = all(f.known_distributive for f in factors)

    def __contains__(self, x):
        return (
            isinstance(x, tuple)
            and len(x) == len(self.factors)
            and all(c in f for f, c in zip(self.factors, x))
        )

    def _leq(self, a, b):
        return all(f._leq(x, y) for f, x, y in zip(self.factors, a, b))

    def _join(self, a, b):
        return tuple(f._join(x, y) for f, x, y in zip(self.factors, a, b))

    def _meet(self, a, b):
        return tuple(f._meet(x, y) for f, x, y in zip(self.factors, a, b))

    def size(self):
        return math.prod(f.size() for f in self.factors)

    def elements(self):
        return itertools.product(*(f.element_list() for f in self.factors))

    def bottom(self):
        parts = [f.bottom() for f in self.factors]
        return None if any(p is None for p in parts) else tuple(parts)

    def top(self):
        parts = [f.top() for f in self.factors]
        return None if any(p is None for p in parts) else tuple(parts)

    def parse(self, literal):
        if not isinstance(literal, (list, tuple)) or len(literal) != len(self.factors):
            raise MismatchError(
                f"product element must be a list of {len(self.factors)} components, got {literal!r}"
            )
        return tuple(f.parse(c) for f, c in zip(self.factors, literal))

    def literal(self, x):
        return [f.literal(c) for f, c in zip(self.factors, x)]

    def format(self, x):
        return "(" + ", ".join(f.format(c) for f, c in zip(self.factors, x)) + ")"

    def spec(self):
        return {"kind": "product", "factors": [f.spec() for f in self.factors]}

    def describe(self):
        return "product(" + ", ".join(f.describe() for f in self.factors) + ")"


class IntervalGridLattice(Lattice):
    """Closed subintervals [lo, hi] of [0, 1] with endpoints on a step grid.

    Order is componentwise (lo1 <= lo2 and hi1 <= hi2); join and meet take
    componentwise max and min, which preserve lo <= hi. Endpoints are
    canonicalized to exact grid multiples so float equality is reliable.
    """

    kind = "intervals"
    known_distributive = True

    def __init__(self, step: float = 0.01):
        if not (0 < step <= 1):
            raise ValueError("interval grid step must be in (0, 1]")
        n = round(1 / step)
        if abs(n * step - 1) > 1e-9:
            raise ValueError("interval grid step must divide 1 exactly")
        self.step = step
        self._n = n  # grid has n+1 levels: 0, step, ..., 1

    def _snap(self, v) -> float | None:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not -1 < v < 2:
            return None  # far off [0, 1]; also NaN, infinities and huge ints
        i = round(v / self.step)
        if i < 0 or i > self._n or abs(v - i * self.step) > 1e-9:
            return None
        return round(i * self.step, 12)

    def __contains__(self, x):
        if not (isinstance(x, tuple) and len(x) == 2):
            return False
        lo, hi = self._snap(x[0]), self._snap(x[1])
        return lo is not None and hi is not None and lo == x[0] and hi == x[1] and lo <= hi

    def _leq(self, a, b):
        return a[0] <= b[0] and a[1] <= b[1]

    def _join(self, a, b):
        return (max(a[0], b[0]), max(a[1], b[1]))

    def _meet(self, a, b):
        return (min(a[0], b[0]), min(a[1], b[1]))

    def size(self):
        return (self._n + 1) * (self._n + 2) // 2

    def elements(self):
        vals = [round(i * self.step, 12) for i in range(self._n + 1)]
        for i, lo in enumerate(vals):
            for hi in vals[i:]:
                yield (lo, hi)

    def bottom(self):
        return (0.0, 0.0)

    def top(self):
        return (1.0, 1.0)

    def parse(self, literal):
        if not isinstance(literal, (list, tuple)) or len(literal) != 2:
            raise MismatchError(f"interval element must be [lo, hi], got {literal!r}")
        lo, hi = self._snap(literal[0]), self._snap(literal[1])
        if lo is None or hi is None:
            raise MismatchError(
                f"interval endpoints {literal!r} are not on the step-{self.step} grid"
            )
        if lo > hi:
            raise MismatchError(f"interval {literal!r} has lo > hi")
        return (lo, hi)

    def literal(self, x):
        return [x[0], x[1]]

    def format(self, x):
        return f"[{x[0]},{x[1]}]"

    def spec(self):
        return {"kind": "intervals", "step": self.step}

    def describe(self):
        return f"intervals(step={self.step})"


class DownsetLattice(Lattice):
    """Down-closed subsets of a finite poset, ordered by inclusion.

    Union and intersection of down-sets are down-sets, so this is a
    distributive lattice (it is Birkhoff's representation of one).
    """

    kind = "downset"
    known_distributive = True
    _MAX_BASE = 16

    def __init__(self, elements: Sequence[str], relations: Iterable[tuple[str, str]]):
        base = tuple(elements)
        if len(set(base)) != len(base):
            raise ValueError("poset has duplicate elements")
        relations = list(relations)
        for a, b in relations:
            if a not in base or b not in base:
                raise ValueError(f"relation ({a!r}, {b!r}) mentions unknown elements")
        if len(base) > self._MAX_BASE:
            raise UniverseTooLarge(
                f"downset lattice over {len(base)} elements is too large to enumerate"
            )
        up = reflexive_transitive_closure(base, relations)
        bad = antisymmetry_violation(up)
        if bad is not None:
            raise ValueError(f"relation is not a partial order: cycle through {bad}")
        self.base = base
        self._up = up
        self._covers = tuple(covers_from_closure(base, up))
        down = {x: frozenset(y for y in base if x in up[y]) for x in base}
        universe = []
        n = len(base)
        for mask in range(2**n):
            s = frozenset(base[i] for i in range(n) if mask >> i & 1)
            if all(down[x] <= s for x in s):
                universe.append(s)
        self._universe = tuple(universe)
        self._uset = frozenset(universe)

    def __contains__(self, x):
        return x in self._uset

    def _leq(self, a, b):
        return a <= b

    def _join(self, a, b):
        return a | b

    def _meet(self, a, b):
        return a & b

    def size(self):
        return len(self._universe)

    def elements(self):
        return iter(self._universe)

    def bottom(self):
        return frozenset()

    def top(self):
        return frozenset(self.base)

    def parse(self, literal):
        if not isinstance(literal, (list, tuple)) or not all(isinstance(x, Hashable) for x in literal):
            raise MismatchError(f"downset element must be a list of names, got {literal!r}")
        s = frozenset(literal)
        if s not in self._uset:
            raise MismatchError(f"{literal!r} is not a down-set of the base poset")
        return s

    def literal(self, x):
        return sorted(x)

    def format(self, x):
        return "{" + ",".join(sorted(x)) + "}"

    def spec(self):
        return {
            "kind": "downset",
            "elements": list(self.base),
            "covers": [list(c) for c in self._covers],
        }

    def describe(self):
        return f"downset({len(self.base)}-element poset)"


class RingOfSetsLattice(Lattice):
    """A family of sets closed under pairwise union and intersection."""

    kind = "ring"
    known_distributive = True

    def __init__(self, universe: Iterable[str], family: Iterable[frozenset]):
        self.universe = tuple(universe)
        fam = []
        seen = set()
        for s in family:
            s = frozenset(s)
            if s not in seen:
                seen.add(s)
                fam.append(s)
        fam.sort(key=lambda s: (len(s), sorted(s)))
        self._family = tuple(fam)
        self._fset = frozenset(fam)
        for a, b in itertools.combinations(self._family, 2):
            if a | b not in self._fset or a & b not in self._fset:
                raise ValueError("family is not closed under union and intersection")
        self._spec_generators: tuple | None = None
        self._spec_adjoin = False

    def __contains__(self, x):
        return x in self._fset

    def _leq(self, a, b):
        return a <= b

    def _join(self, a, b):
        return a | b

    def _meet(self, a, b):
        return a & b

    def size(self):
        return len(self._family)

    def elements(self):
        return iter(self._family)

    def bottom(self):
        return reduce(frozenset.__and__, self._family)

    def top(self):
        return reduce(frozenset.__or__, self._family)

    def parse(self, literal):
        if not isinstance(literal, (list, tuple)) or not all(isinstance(x, Hashable) for x in literal):
            raise MismatchError(f"ring element must be a list of atoms, got {literal!r}")
        s = frozenset(literal)
        if s not in self._fset:
            raise MismatchError(f"{literal!r} is not in the generated ring of sets")
        return s

    def literal(self, x):
        return sorted(x)

    def format(self, x):
        return "{" + ",".join(sorted(x)) + "}"

    def spec(self):
        gens = self._spec_generators
        if gens is None:
            gens = self._family
        return {
            "kind": "ring",
            "universe": list(self.universe),
            "generators": [sorted(g) for g in gens],
            "adjoin_bounds": self._spec_adjoin,
        }

    def describe(self):
        return f"ring-of-sets({len(self._family)} sets)"


def ring_of_sets_closure(
    generators: Iterable[Iterable[str]],
    universe: Iterable[str] | None = None,
    adjoin_bounds: bool = False,
    max_size: int = 4096,
) -> RingOfSetsLattice:
    """Smallest family containing the generators and closed under pairwise
    union and intersection.

    The closure does not adjoin the empty set or the full universe on its
    own; ``adjoin_bounds`` forces both in when a bounded lattice is needed.
    """
    gens = [frozenset(g) for g in generators]
    if not gens:
        raise ValueError("ring of sets needs at least one generator")
    if universe is None:
        universe_set = frozenset().union(*gens)
    else:
        universe_set = frozenset(universe)
        stray = frozenset().union(*gens) - universe_set
        if stray:
            raise ValueError(f"generators mention atoms outside the universe: {sorted(stray)}")
    family = set(gens)
    if adjoin_bounds:
        family.add(frozenset())
        family.add(universe_set)
    while True:
        new = set()
        for a, b in itertools.combinations(sorted(family, key=lambda s: (len(s), sorted(s))), 2):
            u, i = a | b, a & b
            if u not in family:
                new.add(u)
            if i not in family:
                new.add(i)
        if not new:
            break
        family |= new
        if len(family) > max_size:
            raise UniverseTooLarge(f"ring-of-sets closure exceeded {max_size} sets")
    lat = RingOfSetsLattice(sorted(universe_set), family)
    lat._spec_generators = tuple(gens)
    lat._spec_adjoin = adjoin_bounds
    return lat


class ExplicitLattice(Lattice):
    """Lattice given by an element list and an order relation table.

    The relation is stored exactly as given, so a corrupted table (missing
    transitivity, reflexivity, ...) is representable; the axiom checker in
    :mod:`latticeflow.certify` is the place that flags it. Join and meet
    pick a deterministic minimal upper / maximal lower bound so they stay
    total even on corrupted tables.
    """

    kind = "explicit"
    known_distributive = False

    def __init__(
        self,
        elements: Sequence[str],
        leq_pairs: Iterable[tuple[str, str]],
        covers: Sequence[tuple[str, str]] | None = None,
    ):
        elems = tuple(elements)
        if len(set(elems)) != len(elems):
            raise ValueError("explicit lattice has duplicate element names")
        if not elems:
            raise ValueError("explicit lattice needs at least one element")
        self._elements = elems
        self._index = {x: i for i, x in enumerate(elems)}
        up: dict[str, set] = {x: set() for x in elems}
        for a, b in leq_pairs:
            if a not in self._index or b not in self._index:
                raise ValueError(f"order pair ({a!r}, {b!r}) mentions unknown elements")
            up[a].add(b)
        self._up = {x: frozenset(s) for x, s in up.items()}
        self._covers = tuple(covers) if covers is not None else None
        self._join_table: dict = {}
        self._meet_table: dict = {}

    @classmethod
    def from_covers(cls, elements: Sequence[str], covers: Iterable[tuple[str, str]]):
        covers = [tuple(c) for c in covers]
        up = reflexive_transitive_closure(tuple(elements), covers)
        bad = antisymmetry_violation(up)
        if bad is not None:
            raise ValueError(f"cover relation has a cycle through {bad}")
        pairs = [(a, b) for a, above in up.items() for b in above]
        return cls(elements, pairs, covers=covers)

    @classmethod
    def from_relation(cls, elements: Sequence[str], pairs: Iterable[tuple[str, str]]):
        """Use the relation table verbatim, without closing it."""
        return cls(elements, pairs)

    def __contains__(self, x):
        return x in self._index

    def _leq(self, a, b):
        return b in self._up[a]

    def _bound(self, a, b, upper: bool):
        table = self._join_table if upper else self._meet_table
        key = (a, b) if self._index[a] <= self._index[b] else (b, a)
        hit = table.get(key)
        if hit is not None:
            return hit
        if upper:
            cands = [z for z in self._elements if self._leq(a, z) and self._leq(b, z)]
            best = [u for u in cands if not any(v != u and self._leq(v, u) for v in cands)]
        else:
            cands = [z for z in self._elements if self._leq(z, a) and self._leq(z, b)]
            best = [u for u in cands if not any(v != u and self._leq(u, v) for v in cands)]
        out = best[0] if best else (cands[0] if cands else a)
        table[key] = out
        return out

    def _join(self, a, b):
        return self._bound(a, b, upper=True)

    def _meet(self, a, b):
        return self._bound(a, b, upper=False)

    def size(self):
        return len(self._elements)

    def elements(self):
        return iter(self._elements)

    def parse(self, literal):
        if not isinstance(literal, Hashable) or literal not in self._index:
            raise MismatchError(f"{literal!r} is not an element of {self.describe()}")
        return literal

    def literal(self, x):
        return x

    def format(self, x):
        return x

    def spec(self):
        if self._covers is not None:
            return {
                "kind": self.kind,
                "elements": list(self._elements),
                "covers": [list(c) for c in self._covers],
            }
        pairs = sorted([a, b] for a, above in self._up.items() for b in above)
        return {"kind": "explicit", "elements": list(self._elements), "relation": pairs}

    def describe(self):
        if self.kind != "explicit":
            return self.kind
        return f"explicit({len(self._elements)} elements)"


class PentagonLattice(ExplicitLattice):
    """N5: 0 < c < b < 1 and 0 < a < 1 with a incomparable to b and c."""

    kind = "pentagon"

    def __init__(self):
        covers = [("0", "c"), ("c", "b"), ("b", "1"), ("0", "a"), ("a", "1")]
        up = reflexive_transitive_closure(("0", "a", "b", "c", "1"), covers)
        pairs = [(x, y) for x, above in up.items() for y in above]
        super().__init__(("0", "a", "b", "c", "1"), pairs, covers=covers)

    def spec(self):
        return {"kind": "pentagon"}


class DiamondLattice(ExplicitLattice):
    """M3: three pairwise incomparable atoms between a bottom and a top."""

    kind = "diamond"

    def __init__(self):
        covers = [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")]
        up = reflexive_transitive_closure(("0", "a", "b", "c", "1"), covers)
        pairs = [(x, y) for x, above in up.items() for y in above]
        super().__init__(("0", "a", "b", "c", "1"), pairs, covers=covers)

    def spec(self):
        return {"kind": "diamond"}


class SurvivalLattice(Lattice):
    """Weakly decreasing step functions on a finite time grid.

    An element is a tuple of values, one per time point, starting at 1,
    ending at 0, weakly decreasing, with values on a uniform grid of
    ``levels`` points in [0, 1]. Pointwise min and max preserve all of
    these constraints, and the result is a sublattice of a product of
    chains, hence distributive.
    """

    kind = "survival"
    known_distributive = True

    def __init__(self, time_points: int = 4, levels: int = 3):
        if not isinstance(time_points, int) or time_points < 2:
            raise ValueError("survival lattice needs at least 2 time points")
        if not isinstance(levels, int) or levels < 2:
            raise ValueError("survival lattice needs at least 2 value levels")
        self.time_points = time_points
        self.levels = levels
        self._vals = tuple(round(k / (levels - 1), 12) for k in range(levels))
        self._vset = frozenset(self._vals)

    def _snap(self, v) -> float | None:
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not -1 < v < 2:
            return None  # far off [0, 1]; also NaN, infinities and huge ints
        k = round(v * (self.levels - 1))
        if k < 0 or k >= self.levels:
            return None
        canon = self._vals[k]
        return canon if abs(v - canon) <= 1e-9 else None

    def __contains__(self, x):
        if not (isinstance(x, tuple) and len(x) == self.time_points):
            return False
        if any(v not in self._vset for v in x):
            return False
        return (
            x[0] == 1.0
            and x[-1] == 0.0
            and all(x[i] >= x[i + 1] for i in range(len(x) - 1))
        )

    def _leq(self, a, b):
        return all(x <= y for x, y in zip(a, b))

    def _join(self, a, b):
        return tuple(max(x, y) for x, y in zip(a, b))

    def _meet(self, a, b):
        return tuple(min(x, y) for x, y in zip(a, b))

    def size(self):
        # weakly decreasing middle of length time_points - 2 over `levels` values
        k = self.time_points - 2
        return math.comb(k + self.levels - 1, k)

    def elements(self):
        mid = self.time_points - 2

        def rec(prefix, floor_idx):
            if len(prefix) == mid:
                yield (1.0, *prefix, 0.0)
                return
            for i in range(floor_idx, -1, -1):
                yield from rec(prefix + (self._vals[i],), i)

        yield from rec((), self.levels - 1)

    def bottom(self):
        return (1.0,) + (0.0,) * (self.time_points - 1)

    def top(self):
        return (1.0,) * (self.time_points - 1) + (0.0,)

    def parse(self, literal):
        if not isinstance(literal, (list, tuple)) or len(literal) != self.time_points:
            raise MismatchError(
                f"survival element must be a list of {self.time_points} values, got {literal!r}"
            )
        vals = []
        for v in literal:
            s = self._snap(v)
            if s is None:
                raise MismatchError(f"value {v!r} is not on the {self.levels}-level grid")
            vals.append(s)
        x = tuple(vals)
        if x not in self:
            raise MismatchError(
                f"{literal!r} is not a survival step function (must start at 1, "
                "end at 0, and be weakly decreasing)"
            )
        return x

    def literal(self, x):
        return list(x)

    def format(self, x):
        return "(" + ",".join(str(v) for v in x) + ")"

    def spec(self):
        return {"kind": "survival", "time_points": self.time_points, "levels": self.levels}

    def describe(self):
        return f"survival({self.time_points} times, {self.levels} levels)"


def bounds(lattice: Lattice) -> tuple[Element | None, Element | None]:
    """(bottom, top) of the lattice, None where a bound does not exist."""
    return (lattice.bottom(), lattice.top())
