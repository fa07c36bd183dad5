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
import operator
from collections.abc import Hashable
from functools import reduce
from typing import Any, Callable, Collection, Iterable, Iterator, NamedTuple, Sequence

from .errors import MismatchError, NoBottomError, UniverseTooLarge
from .orderutils import cover_masks, cover_pairs, partial_order, relation_masks, set_bits, transpose

Element = Any

_EMPTY = object()


class LatticeTables(NamedTuple):
    """A finite lattice compiled to indices into ``elements``.

    ``join[i][j]`` and ``meet[i][j]`` are the indices of the join and the
    meet of elements i and j. Bit j of ``up[i]`` is set when i <= j, and
    bit j of ``down[i]`` when j <= i.
    """

    elements: tuple
    join: tuple[tuple[int, ...], ...]
    meet: tuple[tuple[int, ...], ...]
    up: tuple[int, ...]
    down: tuple[int, ...]


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
        """Element count; parametric kinds override with a structural count."""
        return len(self.element_list())

    def elements(self) -> Iterator[Element]:
        """Deterministic enumeration of the universe."""
        raise NotImplementedError

    def element_list(self) -> tuple:
        cached = getattr(self, "_element_cache", None)
        if cached is None:
            cached = tuple(self.elements())
            self._element_cache = cached
        return cached

    def _up_masks(self) -> list[int]:
        """Up-set bitmasks over ``element_list()``, one ``_leq`` call per
        ordered pair; kinds that hold them already return theirs."""
        elems = self.element_list()
        return [sum(1 << j for j, b in enumerate(elems) if self._leq(a, b)) for a in elems]

    def tables(self) -> LatticeTables:
        """The universe compiled to index tables by :meth:`_tables`,
        built on first use and kept."""
        cached = getattr(self, "_tables_cache", None)
        if cached is None:
            cached = self._tables_cache = self._tables()
        return cached

    def _tables(self) -> LatticeTables:
        """One ``_join`` and ``_meet`` call per ordered pair.

        Raises RuntimeError if a join or meet lies outside the universe:
        that is a fault in the lattice kind, and no index may stand for it.
        """
        elems = self.element_list()
        index = {x: i for i, x in enumerate(elems)}

        def row(op, a) -> tuple[int, ...]:
            out = []
            for b in elems:
                x = op(a, b)
                try:
                    out.append(index[x])
                except (KeyError, TypeError):
                    raise RuntimeError(
                        f"{self.describe()}: {op.__name__}({a!r}, {b!r}) = {x!r} is not an element"
                    ) from None
            return tuple(out)

        up = self._up_masks()
        return LatticeTables(
            elems,
            tuple(row(self._join, a) for a in elems),
            tuple(row(self._meet, a) for a in elems),
            tuple(up),
            tuple(transpose(up)),
        )

    def join_irreducibles(self) -> tuple:
        """The join-irreducible elements (those with exactly one lower
        cover), in no promised order, found on first use and kept.

        Kinds whose structure names them override
        :meth:`_join_irreducibles`; the default reads the lower covers
        off :meth:`tables`, so it needs an enumerable universe.
        """
        cached = getattr(self, "_join_irreducibles_cache", None)
        if cached is None:
            cached = self._join_irreducibles()
            self._join_irreducibles_cache = cached
        return cached

    def _join_irreducibles(self) -> tuple:
        t = self.tables()  # the covers of the reversed order are the lower covers
        return tuple(x for x, lower in zip(t.elements, cover_masks(t.down)) if lower.bit_count() == 1)

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

    def _join_irreducibles(self):
        return tuple(range(1, self.levels))

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


class _SetLattice(Lattice):
    """A family of frozensets of names ordered by inclusion, closed under
    union (join) and intersection (meet), hence distributive."""

    known_distributive = True

    def _leq(self, a, b):
        return a <= b

    def _join(self, a, b):
        return a | b

    def _meet(self, a, b):
        return a & b

    def literal(self, x):
        return sorted(x)

    def format(self, x):
        return "{" + ",".join(sorted(x)) + "}"


class PowersetLattice(_SetLattice):
    """All subsets of a finite set of named atoms, ordered by inclusion."""

    kind = "powerset"

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

    def _join_irreducibles(self):
        return tuple(frozenset((a,)) for a in self.atoms)

    def parse(self, literal):
        if not isinstance(literal, (list, tuple)):
            raise MismatchError(f"powerset element must be a list of atoms, got {literal!r}")
        bad = [a for a in literal if not isinstance(a, str) or a not in self._atomset]
        if bad:
            raise MismatchError(f"unknown atoms {bad} for {self.describe()}")
        return frozenset(literal)

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

    def _join_irreducibles(self):
        """Each factor's join-irreducibles over the other factors' bottoms."""
        bottom = self.bottom()
        return tuple(
            bottom[:k] + (j,) + bottom[k + 1:] for k, f in enumerate(self.factors) for j in f.join_irreducibles()
        )

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


# Grid values are rounded to 12 places, so past 10**12 steps neighbours
# coincide (k = 5 * 10**12 and k + 1 both give 0.5 on 10**13 steps).
_MAX_STEPS = 10**12


def _grid(k: int, n: int) -> float:
    """The k-th value of the grid of n even steps over [0, 1]."""
    return round(k / n, 12)


def _snap(v, n: int) -> float | None:
    """The value of the n-step grid within 1e-9 of ``v``, or None; bools
    and non-numbers are refused."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not -1 < v < 2:
        return None  # far off [0, 1]; also NaN, infinities and huge ints
    k = round(v * n)
    canon = _grid(k, n)
    if canon != v:  # near 10**12 steps, v * n can round to a neighbour's k
        k = min((k - 1, k, k + 1), key=lambda i: abs(v - _grid(i, n)))
        canon = _grid(k, n)
    return canon if 0 <= k <= n and abs(v - canon) <= 1e-9 else None


class _GridLattice(Lattice):
    """Weakly monotone tuples on the grid of n even steps over [0, 1],
    ordered componentwise: ``width`` free values, ascending or
    ``descending``, between the fixed values ``head`` and ``tail``.
    Componentwise max and min keep a tuple monotone, so this is a
    sublattice of a product of chains, hence distributive. Values are
    canonical grid floats, so float equality is reliable.

    A kind names its parse errors as format templates over the
    ``literal``, the first off-grid ``value`` and the lattice ``lat``:
    wrong shape, off the grid, not monotone between the fixed ends.
    """

    known_distributive = True
    _messages: tuple[str, str, str]

    def __init__(self, n: int, width: int, descending: bool = False, head: tuple = (), tail: tuple = ()):
        self._n = n  # the grid has n + 1 levels: 0, 1/n, ..., 1
        self._width, self._descending, self._head, self._tail = width, descending, head, tail
        self._length = len(head) + width + len(tail)

    def _grid(self, k: int) -> float:
        """The k-th grid value, computed on demand so that no spec can
        make the constructor allocate the whole grid."""
        return _grid(k, self._n)

    def _ordered(self, x: tuple) -> bool:
        """Whether grid values ``x`` hold the fixed ends and are monotone."""
        return x[:len(self._head)] == self._head and x[len(x) - len(self._tail):] == self._tail and (
            sorted(x, reverse=self._descending) == list(x)
        )

    def __contains__(self, x):
        if not (isinstance(x, tuple) and len(x) == self._length):
            return False
        n = self._n
        for v in x:  # each equals a grid value; a bool counts as its int
            try:
                f = float(v)
            except (TypeError, ValueError, OverflowError):
                return False
            if f != v or _snap(f, n) != f:
                return False
        return self._ordered(x)

    def _leq(self, a, b):
        return all(map(operator.le, a, b))

    def _join(self, a, b):
        return tuple(map(max, a, b))

    def _meet(self, a, b):
        return tuple(map(min, a, b))

    def size(self):
        return math.comb(self._width + self._n, self._width)

    def elements(self):
        levels = range(self._n, -1, -1) if self._descending else range(self._n + 1)
        pool = map(self._grid, levels) if self._width else ()  # read whole, so none when nothing is drawn
        for free in itertools.combinations_with_replacement(pool, self._width):
            yield self._head + free + self._tail

    def bottom(self):
        return self._head + (0.0,) * self._width + self._tail

    def top(self):
        return self._head + (1.0,) * self._width + self._tail

    def _join_irreducibles(self):
        """The steps: grid(k) on the i free places at the high end and 0
        on the others, for each height i >= 1 and level k >= 1."""
        steps = (
            (0.0,) * (self._width - i) + (self._grid(k),) * i
            for i in range(1, self._width + 1)
            for k in range(1, self._n + 1)
        )
        return tuple(self._head + (s[::-1] if self._descending else s) + self._tail for s in steps)

    def parse(self, literal):
        shape, off_grid, unordered = self._messages
        if not isinstance(literal, (list, tuple)) or len(literal) != self._length:
            raise MismatchError(shape.format(literal=literal, lat=self))
        n = self._n
        x = tuple([_snap(v, n) for v in literal])
        if None in x:
            raise MismatchError(off_grid.format(literal=literal, value=literal[x.index(None)], lat=self))
        if not self._ordered(x):
            raise MismatchError(unordered.format(literal=literal, lat=self))
        return x

    def literal(self, x):
        return list(x)


class IntervalGridLattice(_GridLattice):
    """Closed subintervals [lo, hi] of [0, 1] with endpoints on a step grid:
    the ascending pairs on n = 1/step steps."""

    kind = "intervals"
    _messages = (
        "interval element must be [lo, hi], got {literal!r}",
        "interval endpoints {literal!r} are not on the step-{lat.step} grid",
        "interval {literal!r} has lo > hi",
    )

    def __init__(self, step: float = 0.01):
        if isinstance(step, bool) or not isinstance(step, (int, float)):
            raise ValueError(f"interval grid step must be a number, got {step!r}")
        if not (0 < step <= 1):
            raise ValueError("interval grid step must be in (0, 1]")
        if 1 / step > _MAX_STEPS + 0.5:
            raise ValueError(f"interval grid step must give at most {_MAX_STEPS:,} steps")
        n = round(1 / step)
        if abs(n * step - 1) > 1e-9:
            raise ValueError("interval grid step must divide 1 exactly")
        self.step = step
        super().__init__(n, 2)

    def format(self, x):
        return f"[{x[0]},{x[1]}]"

    def spec(self):
        return {"kind": "intervals", "step": self.step}

    def describe(self):
        return f"intervals(step={self.step})"


class SurvivalLattice(_GridLattice):
    """Weakly decreasing step functions on a finite time grid: one value
    per time point, starting at 1 and ending at 0, on a grid of ``levels``
    values in [0, 1]."""

    kind = "survival"
    _messages = (
        "survival element must be a list of {lat.time_points} values, got {literal!r}",
        "value {value!r} is not on the {lat.levels}-level grid",
        "{literal!r} is not a survival step function (must start at 1, end at 0, and be weakly decreasing)",
    )

    def __init__(self, time_points: int = 4, levels: int = 3):
        for count, what in ((time_points, "time points"), (levels, "value levels")):
            if not isinstance(count, int) or isinstance(count, bool):
                raise ValueError(
                    f"survival lattice needs an integer count of {what}, got {type(count).__name__}"
                )
            if count < 2:
                raise ValueError(f"survival lattice needs at least 2 {what}")
        if levels - 1 > _MAX_STEPS:
            raise ValueError(f"survival lattice needs at most {_MAX_STEPS + 1:,} value levels")
        self.time_points = time_points
        self.levels = levels
        super().__init__(levels - 1, time_points - 2, True, (1.0,), (0.0,))

    def format(self, x):
        return "(" + ",".join(str(v) for v in x) + ")"

    def spec(self):
        return {"kind": "survival", "time_points": self.time_points, "levels": self.levels}

    def describe(self):
        return f"survival({self.time_points} times, {self.levels} levels)"


def _unions(bottom, joins: Iterable, limit: int | None = None) -> set | None:
    """``bottom`` joined with every subset of ``joins`` (int masks or
    frozensets), one pass per join; None once more than ``limit`` are found.
    From a ring's bottom and join-irreducibles, all its members (Birkhoff)."""
    found = {bottom}
    for j in joins:
        found |= {x | j for x in found}
        if limit is not None and len(found) > limit:
            return None
    return found


def _holders_meets(sets: Collection[frozenset]) -> tuple[frozenset, set]:
    """The meet of ``sets`` and, for each atom x of their union, the meet
    m(x) of those that hold x."""
    meets = {frozenset.intersection(*[s for s in sets if x in s]) for x in frozenset().union(*sets)}
    return frozenset.intersection(*sets), meets


class _RingLattice(_SetLattice):
    """A ring of sets, its universe stored in element order. Its
    join-irreducibles are the smallest members holding each atom outside
    the bottom. A kind names its parse errors: wrong shape, non-member."""

    _messages: tuple[str, str]

    def __init__(self, members: Iterable[frozenset], joins: Iterable[frozenset]):
        self._universe = dict.fromkeys(members)  # an ordered set
        self._joins = frozenset(joins)

    def __contains__(self, x):
        return x in self._universe

    def elements(self):
        return iter(self._universe)

    def _join_irreducibles(self):
        return tuple(s for s in self._universe if s in self._joins)

    def parse(self, literal):
        shape, outside = self._messages
        if not isinstance(literal, (list, tuple)) or not all(isinstance(x, Hashable) for x in literal):
            raise MismatchError(f"{shape}, got {literal!r}")
        s = frozenset(literal)
        if s not in self._universe:
            raise MismatchError(f"{literal!r} {outside}")
        return s


class DownsetLattice(_RingLattice):
    """Down-closed subsets of a finite poset, ordered by inclusion and
    listed in mask order. They are the unions of the principal down-sets,
    closed under union and intersection: a distributive lattice, and
    Birkhoff's representation of one."""

    kind = "downset"
    _MAX_BASE = 16
    _messages = ("downset element must be a list of names", "is not a down-set of the base poset")

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
        up, down = partial_order(base, relations)
        self.base = base
        self._covers = tuple(cover_pairs(base, up))
        sets = {m: frozenset(base[i] for i in set_bits(m)) for m in _unions(0, down)}
        super().__init__((sets[m] for m in sorted(sets)), (sets[m] for m in down))

    def spec(self):
        return {
            "kind": "downset",
            "elements": list(self.base),
            "covers": [list(c) for c in self._covers],
        }

    def describe(self):
        return f"downset({len(self.base)}-element poset)"


_MAX_RING_SETS = 4096


class RingOfSetsLattice(_RingLattice):
    """The smallest family of sets that holds the generators and is closed
    under pairwise union and intersection: the meet of the seeds joined
    with every union of the m(x), the meets of the seeds holding each atom
    x. More than 4,096 sets is refused unless the seeds number more.

    The ring does not adjoin the empty set or the full universe on its
    own; ``adjoin_bounds`` forces both in when a bounded lattice is needed.
    """

    kind = "ring"
    _messages = ("ring element must be a list of atoms", "is not in the generated ring of sets")

    def __init__(
        self,
        generators: Iterable[Iterable[str]],
        universe: Iterable[str] | None = None,
        adjoin_bounds: bool = False,
    ):
        gens = tuple(frozenset(g) for g in generators)
        if not gens:
            raise ValueError("ring of sets needs at least one generator")
        atoms = frozenset().union(*gens)
        universe_set = atoms if universe is None else frozenset(universe)
        if atoms - universe_set:
            raise ValueError(f"generators mention atoms outside the universe: {sorted(atoms - universe_set)}")
        seeds = {*gens, frozenset(), universe_set} if adjoin_bounds else set(gens)
        bottom, meets = _holders_meets(seeds)  # the ring's own: each member holding x contains m(x)
        family = _unions(bottom, meets, max(_MAX_RING_SETS, len(seeds)))
        if family is None:
            raise UniverseTooLarge(f"ring-of-sets closure exceeded {_MAX_RING_SETS} sets")
        self.universe = tuple(sorted(universe_set))
        self._generators, self._adjoin_bounds = gens, adjoin_bounds
        super().__init__(sorted(family, key=lambda s: (len(s), sorted(s))), meets - {bottom})

    def spec(self):
        return {
            "kind": "ring",
            "universe": list(self.universe),
            "generators": [sorted(g) for g in self._generators],
            "adjoin_bounds": self._adjoin_bounds,
        }

    def describe(self):
        return f"ring-of-sets({len(self._universe)} sets)"


def pairwise_closure(seeds: Iterable, join: Callable, meet: Callable, limit: int | None = None) -> set | None:
    """The seeds closed under ``join`` and ``meet`` of every unordered pair.

    Each round applies both operations to each pair that
    ``itertools.combinations`` gives over the current set, in that order
    only (so tables that do not commute keep their witnesses), and adds
    the results. With a ``limit``, None after the first round that
    leaves more than ``limit`` elements.
    """
    current = set(seeds)
    while True:
        new = {x for a, b in itertools.combinations(current, 2) for x in (join(a, b), meet(a, b)) if x not in current}
        if not new:
            return current
        current |= new
        if limit is not None and len(current) > limit:
            return None


class ExplicitLattice(Lattice):
    """Lattice given by an element list and an order relation table.

    The relation is stored exactly as given, so a corrupted table (missing
    transitivity, reflexivity, ...) is representable; the axiom checker in
    :mod:`latticeflow.certify` is the place that flags it. Join and meet
    pick a deterministic minimal upper / maximal lower bound so they stay
    total even on corrupted tables. They are read off bitmasks over element
    indices: bit j of ``_up_mask[i]`` is set when i <= j by the table, and
    bit j of ``_down_mask[i]`` when j <= i.

    The constructor takes the table as these up-set rows, one per element
    (see ``orderutils``); :meth:`from_relation` and :meth:`from_covers`
    take name pairs.
    """

    kind = "explicit"
    known_distributive = False

    def __init__(
        self,
        elements: Sequence[str],
        up_rows: Iterable[int],
        covers: Sequence[tuple[str, str]] | None = None,
    ):
        elems = tuple(elements)
        if len(set(elems)) != len(elems):
            raise ValueError("explicit lattice has duplicate element names")
        if not elems:
            raise ValueError("explicit lattice needs at least one element")
        up = list(up_rows)
        n = len(elems)
        if len(up) != n or not all(isinstance(r, int) and 0 <= r < 1 << n for r in up):
            raise ValueError(f"explicit lattice needs {n} up-set rows, integers below 2**{n}")
        self._elements = elems
        self._index = {x: i for i, x in enumerate(elems)}
        self._up_mask = up
        self._down_mask = transpose(up)
        self._covers = tuple(covers) if covers is not None else None
        # The element whose up-set (down-set) is the mask, among those that
        # are <= themselves with nothing else both above and below them.
        clean = [i for i in range(len(elems)) if self._up_mask[i] & self._down_mask[i] == 1 << i]
        self._up_owner = {self._up_mask[i]: i for i in clean}
        self._down_owner = {self._down_mask[i]: i for i in clean}

    @classmethod
    def from_covers(cls, elements: Sequence[str], covers: Iterable[tuple[str, str]]):
        """The order the covers generate; ValueError on an unknown name or
        a cycle, checked before the element names are."""
        elements, covers = tuple(elements), [tuple(c) for c in covers]
        return cls(elements, partial_order(elements, covers)[0], covers=covers)

    @classmethod
    def from_relation(cls, elements: Sequence[str], pairs: Iterable[tuple[str, str]]):
        """Use the relation table verbatim, without closing it."""
        elems = tuple(elements)
        index = {x: i for i, x in enumerate(elems)}
        if not elems or len(index) < len(elems):
            return cls(elems, [])  # the constructor refuses these names before any pair
        return cls(elems, relation_masks(index, pairs))

    def __contains__(self, x):
        return x in self._index

    def _leq(self, a, b):
        return bool(self._up_mask[self._index[a]] >> self._index[b] & 1)

    def _up_masks(self):
        return self._up_mask

    def _tables(self):
        """The tables straight from the masks: the join of i and j is the
        element whose up-set is ``up[i] & up[j]``, the first thing
        :meth:`_bound` looks up; only a pair whose mask no element owns,
        which only a table that is not a lattice has, goes to it."""
        up, down = self._up_mask, self._down_mask
        return LatticeTables(
            self._elements,
            self._rows(up, self._up_owner, True),
            self._rows(down, self._down_owner, False),
            tuple(up),
            tuple(down),
        )

    def _rows(self, masks: list[int], owner: dict, upper: bool) -> tuple[tuple[int, ...], ...]:
        """The join table from the up-set masks (``upper``), or the meet
        table from the down-set masks."""
        rows = []
        for i, m in enumerate(masks):
            row = list(map(owner.get, map(m.__and__, masks)))
            if None in row:
                row = [self._bound(i, j, upper) if k is None else k for j, k in enumerate(row)]
            rows.append(tuple(row))
        return tuple(rows)

    def _bound(self, i: int, j: int, upper: bool) -> int:
        """The index of the lowest-index minimal common upper bound of
        elements i and j (maximal lower bound when not ``upper``); failing
        that the lowest-index common bound; failing that min(i, j)."""
        # a candidate v is passed over when some other candidate u lies
        # between it and i, j: v is in farther[u] and u in nearer[v]
        if upper:
            cands, nearer, farther, owner = (
                self._up_mask[i] & self._up_mask[j], self._down_mask, self._up_mask, self._up_owner
            )
        else:
            cands, nearer, farther, owner = (
                self._down_mask[i] & self._down_mask[j], self._up_mask, self._down_mask, self._down_owner
            )
        # In a lattice the candidates are exactly farther[u] for the bound u.
        # When they are and u is clean, u is a candidate, every other one
        # lies beyond u and none lies nearer: u is the only minimal one.
        u = owner.get(cands)
        if u is not None:
            return u
        rest = cands
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            if not nearer[u] & cands & ~low:
                return u
            rest &= ~(farther[u] | low)
        if cands:
            return (cands & -cands).bit_length() - 1
        return min(i, j)

    def _join(self, a, b):
        return self._elements[self._bound(self._index[a], self._index[b], upper=True)]

    def _meet(self, a, b):
        return self._elements[self._bound(self._index[a], self._index[b], upper=False)]

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
        elems = self._elements
        pairs = sorted([a, elems[j]] for a, m in zip(elems, self._up_mask) for j in set_bits(m))
        return {"kind": "explicit", "elements": list(elems), "relation": pairs}

    def describe(self):
        return f"explicit({len(self._elements)} elements)"


class _FiveLattice(ExplicitLattice):
    """A five-element lattice on ``0, a, b, c, 1`` given by its covers."""

    def __init__(self):
        five = ("0", "a", "b", "c", "1")
        super().__init__(five, partial_order(five, self._covers)[0], covers=self._covers)

    def spec(self):
        return {"kind": self.kind}

    def describe(self):
        return self.kind


class PentagonLattice(_FiveLattice):
    """N5: 0 < c < b < 1 and 0 < a < 1 with a incomparable to b and c."""

    kind = "pentagon"
    _covers = (("0", "c"), ("c", "b"), ("b", "1"), ("0", "a"), ("a", "1"))


class DiamondLattice(_FiveLattice):
    """M3: three pairwise incomparable atoms between a bottom and a top."""

    kind = "diamond"
    _covers = (("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1"))
