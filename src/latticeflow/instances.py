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
from dataclasses import dataclass
from pathlib import Path

from .dilworth import WeightedPoset
from .errors import InstanceError, MismatchError
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
    SurvivalLattice,
    ring_of_sets_closure,
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


def _decode(text, where: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
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


def lattice_from_spec(spec, base_dir: Path | None = None, path: str = "lattice") -> Lattice:
    """Build a lattice from a spec dict or a file-reference string."""
    if isinstance(spec, str):
        ref = Path(spec)
        if base_dir is not None and not ref.is_absolute():
            ref = base_dir / ref
        return lattice_from_spec(read_json(ref), base_dir=ref.parent, path=path)
    if not isinstance(spec, dict):
        _fail(path, f"must be an object or a file reference, got {type(spec).__name__}")
    kind = _need(spec, "kind", path)
    try:
        if kind == "chain":
            return ChainLattice(_need(spec, "levels", path))
        if kind == "powerset":
            return PowersetLattice(_need(spec, "universe", path))
        if kind == "product":
            factors = _need(spec, "factors", path)
            if not isinstance(factors, list) or not factors:
                _fail(f"{path}.factors", "must be a non-empty list of lattice specs")
            return ProductLattice(
                [lattice_from_spec(f, base_dir, f"{path}.factors[{i}]") for i, f in enumerate(factors)]
            )
        if kind == "intervals":
            return IntervalGridLattice(spec.get("step", 0.01))
        if kind == "downset":
            return DownsetLattice(
                _need(spec, "elements", path), _pairs(_need(spec, "covers", path), f"{path}.covers")
            )
        if kind == "ring":
            return ring_of_sets_closure(
                _need(spec, "generators", path),
                universe=spec.get("universe"),
                adjoin_bounds=spec.get("adjoin_bounds", False),
            )
        if kind == "explicit":
            elements = _need(spec, "elements", path)
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
    except (TypeError, ValueError) as exc:
        _fail(path, str(exc))
    _fail(f"{path}.kind", f"unknown lattice kind {kind!r}; known kinds: {', '.join(LATTICE_KINDS)}")


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
    name = data.get("name")
    description = data.get("description")

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
            lit = _need(e, "capacity", where)
            try:
                value = lattice.parse(lit)
            except MismatchError as exc:
                _fail(f"{where}.capacity", str(exc))
            edges.append((u, v))
            caps[(u, v)] = value
        try:
            net = FlowNetwork(vertices, edges, source, sink)
        except ValueError as exc:
            _fail("instance", str(exc))
        bad = validate_network(net, mode="lenient").violations
        if bad:
            _fail("instance", "; ".join(
                v.message + (f": {list(v.offenders)}" if v.offenders else "") for v in bad
            ))
        assignment = CapacityAssignment(lattice, caps)
        assignment.check_total(net)
        return Instance(lattice, name, description, network=net, capacities=assignment)

    if "elements" in data:
        elements = _names(data["elements"], "elements")
        covers = [
            (_name(a, f"covers[{i}][0]"), _name(b, f"covers[{i}][1]"))
            for i, (a, b) in enumerate(_pairs(_need(data, "covers", "instance"), "covers"))
        ]
        raw_weights = _need(data, "weights", "instance")
        if not isinstance(raw_weights, dict):
            _fail("weights", "must map element names to element literals")
        weights = {}
        for x, lit in raw_weights.items():
            try:
                weights[x] = lattice.parse(lit)
            except MismatchError as exc:
                _fail(f"weights.{x}", str(exc))
        try:
            poset = WeightedPoset(elements, covers, weights, lattice)
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
        return lattice_from_spec(data, base_dir=path.parent)
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
        try:
            phi[edge] = lattice.parse(_need(e, "value", where))
        except MismatchError as exc:
            _fail(f"{where}.value", str(exc))
    missing = [e for e in net.edges if e not in phi]
    if missing:
        raise InstanceError(f"flow file is missing edges: {missing}")
    return phi
