"""Built-in example instances with recorded expected results.

Each entry ships as a JSON file under ``latticeflow/data`` (usable
directly with the CLI) plus the values a run must reproduce. Network
entries record the two duality sides and witness existence; poset
entries record both sides of the chain/antichain identity, and the
competency fixture additionally pins every per-chain value.
"""

from __future__ import annotations

from importlib import resources

from .bottleneck import verify_duality
from .dilworth import dilworth_direct, dilworth_via_network
from .instances import Instance, parse_instance

# expected values use element literals; "optimal_path" / "optimal_cut"
# record witness existence, not a particular witness
GALLERY_EXPECTED: dict[str, dict] = {
    "pentagon": {"alpha": "c", "beta": "b", "equal": False},
    "diamond": {"alpha": "a", "beta": "1", "equal": False},
    "no-optimal-cut": {
        "alpha": [],
        "beta": [],
        "equal": True,
        "optimal_path": True,
        "optimal_cut": False,
    },
    "no-optimal-path": {
        "alpha": ["a", "b"],
        "beta": ["a", "b"],
        "equal": True,
        "optimal_path": False,
        "optimal_cut": True,
    },
    "supply-chain": {"alpha": ["grain", "iron"], "beta": ["grain", "iron"], "equal": True},
    "packaging": {
        "alpha": ["food", "fridge", "hazmat", "insulation"],
        "beta": ["food", "fridge", "hazmat", "insulation"],
        "equal": True,
    },
    "compliance": {"alpha": [0.55, 0.95], "beta": [0.55, 0.95], "equal": True},
    "security-levels": {"alpha": [2, 2], "beta": [2, 2], "equal": True},
    "survival": {
        "lhs": [1.0, 0.75, 0.5, 0.0],
        "rhs": [1.0, 0.75, 0.5, 0.0],
        "equal": True,
    },
    "competencies": {
        "lhs": ["EM"],
        "rhs": ["EM"],
        "equal": True,
        "chain_values": [[], [], [], ["EM"], []],
    },
}


def gallery_names() -> list[str]:
    return list(GALLERY_EXPECTED)


def gallery_source(name: str) -> str:
    """Raw JSON text of a gallery entry: ``data/<name>.json``, hyphens in
    the name written as underscores."""
    gallery_expected(name)  # KeyError for an unknown name
    return resources.files("latticeflow.data").joinpath(name.replace("-", "_") + ".json").read_text()


def gallery_instance(name: str) -> Instance:
    return parse_instance(gallery_source(name))


def gallery_expected(name: str) -> dict:
    """The values an entry must reproduce. This is the one check of an
    entry name: KeyError, naming the known entries, if there is none."""
    if name not in GALLERY_EXPECTED:
        raise KeyError(f"unknown gallery entry {name!r}; known: {', '.join(GALLERY_EXPECTED)}")
    return dict(GALLERY_EXPECTED[name])


def run_gallery_entry(name: str) -> tuple[dict, bool]:
    """Run the analysis an entry records and compare against expectations.

    Returns the result dict (including the expectation and a per-field
    mismatch list) and whether everything matched.
    """
    inst = gallery_instance(name)
    expected = gallery_expected(name)
    lat = inst.lattice
    mismatches = []

    if inst.network is not None:
        report = verify_duality(inst.network, inst.capacities, method="bruteforce")
        got: dict = report.to_dict(inst.network, inst.capacities)
        for key in ("alpha", "beta"):
            if key in expected and lat.parse(expected[key]) != getattr(report, key):
                mismatches.append(key)
        if expected["equal"] != report.equal:
            mismatches.append("equal")
        for key in ("optimal_path", "optimal_cut"):
            if key in expected and expected[key] != (getattr(report, key) is not None):
                mismatches.append(key)
    else:
        direct = dilworth_direct(inst.poset)
        via = dilworth_via_network(inst.poset)
        got = direct.to_dict(lat)
        got["network_lhs"] = lat.literal(via.lhs)
        got["network_rhs"] = lat.literal(via.rhs)
        for key in ("lhs", "rhs"):
            if lat.parse(expected[key]) != getattr(direct, key):
                mismatches.append(key)
        if expected["equal"] != direct.equal:
            mismatches.append("equal")
        if (via.lhs, via.rhs) != (direct.lhs, direct.rhs):
            mismatches.append("network-agreement")
        if "chain_values" in expected:
            want = [lat.parse(v) for v in expected["chain_values"]]
            if want != list(direct.chain_values):
                mismatches.append("chain_values")

    result = {
        "name": name,
        "expected": expected,
        "result": got,
        "mismatches": mismatches,
        "ok": not mismatches,
    }
    return result, not mismatches
