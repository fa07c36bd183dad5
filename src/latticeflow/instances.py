"""JSON instance files: lattice specs, networks with capacities, and
weighted posets.

A network instance looks like

    {"name": "...", "lattice": {"kind": "powerset", "universe": [...]},
     "vertices": ["s", "u", "t"], "source": "s", "sink": "t",
     "edges": [{"from": "s", "to": "u", "capacity": ["SP"]}, ...]}

and a poset instance like

    {"lattice": ..., "elements": [...], "covers": [["JD", "SD"], ...],
     "weights": {"JD": ["BC"], ...}}

The "lattice" value may also be a string, read as a path to a lattice
spec file relative to the instance file. Every file is read by
:func:`read_json`. Vertex and element names must be strings, and a
network must pass the lenient clauses of :func:`validate_network` (no
self-loops or cycles, edges leave the source and enter the sink); dead
ends are allowed. Errors are :class:`InstanceError` and carry the JSON
path of the offending field.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .certify import DEFAULT_MAX_UNIVERSE, check_lattice_axioms
from .dilworth import WeightedPoset
from .errors import InstanceError, MismatchError, UniverseTooLarge
from .lattices import (
    ChainLattice,
    DiamondLattice,
    DownsetLattice,
    ExplicitLattice,
    IntervalGridLattice,
    Lattice,
    PentagonLattice,
    PowersetLattice,
    ProductLattice,
    RingOfSetsLattice,
    SurvivalLattice,
)
from .network import CapacityAssignment, FlowNetwork, validate_network

LATTICE_KINDS = (
    "chain",
    "powerset",
    "product",
    "intervals",
    "downset",
    "ring",
    "explicit",
    "pentagon",
    "diamond",
    "survival",
)

_MAX_PRODUCT_NESTING = 300


def _fail(path: str, message: str):
    raise InstanceError(f"{path}: {message}")


def _need(spec: dict, key: str, path: str):
    if key not in spec:
        _fail(path, f"missing required field {key!r}")
    return spec[key]


def _name(value, path: str) -> str:
    if not isinstance(value, str):
        _fail(path, f"must be a name (a string), got {value!r}")
    return value


def _names(value, path: str) -> list[str]:
    if not isinstance(value, list):
        _fail(path, "must be a list of names")
    return [_name(x, f"{path}[{i}]") for i, x in enumerate(value)]


def _atoms(value, path: str) -> list[str]:
    """:func:`_names`, refusing a repeated atom."""
    atoms = _names(value, path)
    if len(set(atoms)) < len(atoms):
        _fail(path, f"duplicate atoms {sorted({a for a in atoms if atoms.count(a) > 1})}")
    return atoms


def _element(lattice: Lattice, literal, path: str):
    try:
        return lattice.parse(literal)
    except MismatchError as exc:
        _fail(path, str(exc))


def _decode(text, where: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # also nesting past the recursion limit
        _fail(where, f"not valid JSON: {exc}")


def read_json(file):
    """The JSON document in a file. InstanceError if the file cannot be
    read, is not UTF-8, or is not valid JSON."""
    try:
        text = Path(file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceError(f"cannot read {file}: {exc}") from None
    return _decode(text, str(file))


def _pairs(value, path: str) -> list[tuple[str, str]]:
    if not isinstance(value, list):
        _fail(path, "must be a list of [lower, upper] pairs")
    out = []
    for i, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            _fail(f"{path}[{i}]", "must be a two-element list")
        out.append((pair[0], pair[1]))
    return out


def lattice_from_spec(spec, base_dir: Path | None = None) -> Lattice:
    """Build a lattice from a spec dict or a file-reference string."""
    return _lattice(spec, base_dir, "lattice", ())


def _lattice(spec, base_dir: Path | None, path: str, reading: tuple[str, ...]) -> Lattice:
    """:func:`lattice_from_spec`. ``reading`` holds the resolved paths of
    the spec files still being read on the way to ``spec``; a reference
    back into one of them is a cycle."""
    if isinstance(spec, str):
        ref = Path(spec)
        if base_dir is not None and not ref.is_absolute():
            ref = base_dir / ref
        resolved = os.path.realpath(ref)  # unlike Path.resolve, no error on a symlink loop
        if resolved in reading:
            _fail(path, f"lattice file reference cycle: {ref} is already being read")
        return _lattice(read_json(ref), ref.parent, path, (*reading, resolved))
    if not isinstance(spec, dict):
        _fail(path, f"must be an object or a file reference, got {type(spec).__name__}")
    kind = _need(spec, "kind", path)
    try:
        if kind == "chain":
            return ChainLattice(_need(spec, "levels", path))
        if kind == "powerset":
            return PowersetLattice(_names(_need(spec, "universe", path), f"{path}.universe"))
        if kind == "product":
            if path.count(".factors[") >= _MAX_PRODUCT_NESTING:  # the per-factor walks recurse
                _fail(path, f"products nested deeper than {_MAX_PRODUCT_NESTING} levels")
            factors = _need(spec, "factors", path)
            if not isinstance(factors, list) or not factors:
                _fail(f"{path}.factors", "must be a non-empty list of lattice specs")
            return ProductLattice(
                [_lattice(f, base_dir, f"{path}.factors[{i}]", reading) for i, f in enumerate(factors)]
            )
        if kind == "intervals":
            return IntervalGridLattice(spec.get("step", 0.01))
        if kind == "downset":
            return DownsetLattice(
                _names(_need(spec, "elements", path), f"{path}.elements"),
                _pairs(_need(spec, "covers", path), f"{path}.covers"),
            )
        if kind == "ring":
            generators = _need(spec, "generators", path)
            if not isinstance(generators, list):
                _fail(f"{path}.generators", "must be a list of name lists")
            universe = spec.get("universe")
            adjoin = spec.get("adjoin_bounds", False)
            if not isinstance(adjoin, bool):
                _fail(f"{path}.adjoin_bounds", f"must be true or false, got {adjoin!r}")
            return RingOfSetsLattice(
                [_atoms(g, f"{path}.generators[{i}]") for i, g in enumerate(generators)],
                universe=None if universe is None else _atoms(universe, f"{path}.universe"),
                adjoin_bounds=adjoin,
            )
        if kind == "explicit":
            elements = _names(_need(spec, "elements", path), f"{path}.elements")
            if "covers" in spec:
                return ExplicitLattice.from_covers(elements, _pairs(spec["covers"], f"{path}.covers"))
            if "relation" in spec:
                return ExplicitLattice.from_relation(elements, _pairs(spec["relation"], f"{path}.relation"))
            _fail(path, "explicit lattice needs 'covers' or 'relation'")
        if kind == "pentagon":
            return PentagonLattice()
        if kind == "diamond":
            return DiamondLattice()
        if kind == "survival":
            return SurvivalLattice(
                spec.get("time_points", 4), spec.get("levels", 3)
            )
    except InstanceError:
        raise
    except (TypeError, ValueError, UniverseTooLarge) as exc:
        _fail(path, str(exc))
    _fail(f"{path}.kind", f"unknown lattice kind {kind!r}; known kinds: {', '.join(LATTICE_KINDS)}")


def _require_lattice(lattice: Lattice, path: str = "lattice") -> None:
    """Explicit order tables, alone or as product factors, are the one
    kind whose join and meet can break the lattice axioms, and every fold
    rests on those axioms: a table that fails them is refused. Tables
    above the certification cap load unchecked."""
    if isinstance(lattice, ProductLattice):
        for i, factor in enumerate(lattice.factors):
            _require_lattice(factor, f"{path}.factors[{i}]")
    elif lattice.kind == "explicit" and lattice.size() <= DEFAULT_MAX_UNIVERSE:
        report = check_lattice_axioms(lattice)
        if not report.ok:
            first = report.violations[0]
            _fail(path, f"not a lattice: {first.law}: {first.message}")


@dataclass
class Instance:
    """A parsed instance file: one lattice plus a network or a poset."""

    lattice: Lattice
    name: str | None = None
    description: str | None = None
    network: FlowNetwork | None = None
    capacities: CapacityAssignment | None = None
    poset: WeightedPoset | None = None

    @property
    def payload(self) -> str:
        return "network" if self.network is not None else "poset"


def parse_instance(data, base_dir: Path | None = None) -> Instance:
    """Validated Instance from a dict or JSON text."""
    if isinstance(data, (str, bytes)):
        data = _decode(data, "instance")
    if not isinstance(data, dict):
        raise InstanceError(f"instance must be a JSON object, got {type(data).__name__}")
    lattice = lattice_from_spec(_need(data, "lattice", "instance"), base_dir)
    _require_lattice(lattice)
    for key in ("name", "description"):
        if not isinstance(data.get(key), (str, type(None))):
            _fail(key, f"must be a string or null, got {data[key]!r}")
    name, description = data.get("name"), data.get("description")

    if "vertices" in data:
        vertices = _names(data["vertices"], "vertices")
        source = _name(_need(data, "source", "instance"), "source")
        sink = _name(_need(data, "sink", "instance"), "sink")
        raw_edges = _need(data, "edges", "instance")
        if not isinstance(raw_edges, list):
            _fail("edges", "must be a list of edge objects")
        edges = []
        caps = {}
        for i, e in enumerate(raw_edges):
            where = f"edges[{i}]"
            if not isinstance(e, dict):
                _fail(where, "must be an object with from/to/capacity")
            u = _name(_need(e, "from", where), f"{where}.from")
            v = _name(_need(e, "to", where), f"{where}.to")
            caps[(u, v)] = _element(lattice, _need(e, "capacity", where), f"{where}.capacity")
            edges.append((u, v))
        try:
            net = FlowNetwork(vertices, edges, source, sink)
        except ValueError as exc:
            _fail("instance", str(exc))
        bad = validate_network(net, mode="lenient").violations
        if bad:
            _fail("instance", "; ".join(
                v.message + (f": {list(v.offenders)}" if v.offenders else "") for v in bad
            ))
        return Instance(lattice, name, description, network=net, capacities=CapacityAssignment._of_members(lattice, caps))

    if "elements" in data:
        elements = _names(data["elements"], "elements")
        covers = [
            (_name(a, f"covers[{i}][0]"), _name(b, f"covers[{i}][1]"))
            for i, (a, b) in enumerate(_pairs(_need(data, "covers", "instance"), "covers"))
        ]
        raw_weights = _need(data, "weights", "instance")
        if not isinstance(raw_weights, dict):
            _fail("weights", "must map element names to element literals")
        known = set(elements)
        unknown = [x for x in raw_weights if x not in known]
        if unknown:
            _fail("weights", f"weights for unknown elements {unknown}")
        weights = {x: _element(lattice, lit, f"weights.{x}") for x, lit in raw_weights.items()}
        try:
            poset = WeightedPoset._of_members(elements, covers, weights, lattice)
        except ValueError as exc:
            _fail("instance", str(exc))
        return Instance(lattice, name, description, poset=poset)

    raise InstanceError(
        "instance: must contain either 'vertices' (network) or 'elements' (poset)"
    )


def load_instance(file) -> Instance:
    path = Path(file)
    return parse_instance(read_json(path), base_dir=path.parent)


def load_lattice(file) -> Lattice:
    """Read a file holding either a bare lattice spec or an instance."""
    path = Path(file)
    data = read_json(path)
    if isinstance(data, dict) and "kind" in data:
        return _lattice(data, path.parent, "lattice", (os.path.realpath(path),))
    if isinstance(data, dict) and "lattice" in data:
        return lattice_from_spec(data["lattice"], base_dir=path.parent)
    raise InstanceError("file holds neither a lattice spec nor an instance with one")


def instance_to_dict(inst: Instance) -> dict:
    """Serialize an Instance back to its JSON schema; parse(serialize(x))
    reconstructs an equivalent instance."""
    out: dict = {}
    if inst.name is not None:
        out["name"] = inst.name
    if inst.description is not None:
        out["description"] = inst.description
    out["lattice"] = inst.lattice.spec()
    if inst.network is not None:
        net, cap = inst.network, inst.capacities
        out["vertices"] = list(net.vertices)
        out["source"] = net.source
        out["sink"] = net.sink
        out["edges"] = [
            {"from": u, "to": v, "capacity": inst.lattice.literal(cap[(u, v)])}
            for u, v in net.edges
        ]
    else:
        poset = inst.poset
        out["elements"] = list(poset.elements)
        out["covers"] = [list(c) for c in poset.covers]
        out["weights"] = {
            x: inst.lattice.literal(poset.weights[x]) for x in poset.elements
        }
    return out


def parse_flow(data, net: FlowNetwork, lattice: Lattice) -> dict:
    """Edge-to-element map from a decoded flow file:
    {"edges": [{"from", "to", "value"}]}."""
    if not isinstance(data, dict) or not isinstance(data.get("edges"), list):
        raise InstanceError("flow file must be an object with an 'edges' list")
    phi = {}
    for i, e in enumerate(data["edges"]):
        where = f"edges[{i}]"
        if not isinstance(e, dict):
            _fail(where, "must be an object with from/to/value")
        edge = (_name(_need(e, "from", where), f"{where}.from"), _name(_need(e, "to", where), f"{where}.to"))
        if edge not in net.edge_set:
            _fail(where, f"{edge} is not an edge of the network")
        phi[edge] = _element(lattice, _need(e, "value", where), f"{where}.value")
    missing = [e for e in net.edges if e not in phi]
    if missing:
        raise InstanceError(f"flow file is missing edges: {missing}")
    return phi
