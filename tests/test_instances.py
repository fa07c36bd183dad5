import json

import pytest

from latticeflow import (
    ChainLattice,
    ExplicitLattice,
    InstanceError,
    ProductLattice,
    check_lattice_axioms,
    dilworth_direct,
    emit_dot,
    gallery_instance,
    gallery_names,
    instance_to_dict,
    lattice_from_spec,
    load_instance,
    load_lattice,
    parse_instance,
    verify_duality,
)
from latticeflow.gallery import gallery_source
from latticeflow.instances import parse_flow


class TestLatticeSpecs:
    def test_all_kinds_roundtrip(self):
        specs = [
            {"kind": "chain", "levels": 4},
            {"kind": "powerset", "universe": ["a", "b"]},
            {"kind": "product", "factors": [{"kind": "chain", "levels": 2}, {"kind": "chain", "levels": 3}]},
            {"kind": "intervals", "step": 0.25},
            {"kind": "pentagon"},
            {"kind": "diamond"},
            {"kind": "explicit", "elements": ["0", "1"], "covers": [["0", "1"]]},
            {"kind": "ring", "universe": ["a", "b"], "generators": [["a"]], "adjoin_bounds": True},
            {"kind": "downset", "elements": ["a", "b"], "covers": [["a", "b"]]},
            {"kind": "survival", "time_points": 3, "levels": 3},
        ]
        for spec in specs:
            L = lattice_from_spec(spec)
            again = lattice_from_spec(L.spec())
            assert set(again.element_list()) == set(L.element_list()), spec

    def test_relation_spec_roundtrip_passes_axioms(self):
        product = ProductLattice([ChainLattice(2), ChainLattice(2)])
        el = product.element_list()
        names = {x: f"x{i}" for i, x in enumerate(el)}
        L = ExplicitLattice.from_relation(
            list(names.values()), [(names[a], names[b]) for a in el for b in el if product.leq(a, b)]
        )
        assert check_lattice_axioms(L).ok
        assert check_lattice_axioms(lattice_from_spec(L.spec())).ok

    def test_unknown_kind(self):
        with pytest.raises(InstanceError, match="unknown lattice kind"):
            lattice_from_spec({"kind": "zigzag"})

    def test_missing_field_names_path(self):
        with pytest.raises(InstanceError, match="lattice"):
            lattice_from_spec({"kind": "chain"})

    def test_file_reference(self, tmp_path):
        (tmp_path / "lat.json").write_text(json.dumps({"kind": "chain", "levels": 3}))
        instance = {
            "lattice": "lat.json",
            "vertices": ["s", "t"],
            "source": "s",
            "sink": "t",
            "edges": [{"from": "s", "to": "t", "capacity": 2}],
        }
        (tmp_path / "net.json").write_text(json.dumps(instance))
        inst = load_instance(tmp_path / "net.json")
        assert inst.lattice.kind == "chain"


class TestParseInstance:
    def test_competency_fixture(self):
        inst = gallery_instance("competencies")
        assert inst.poset is not None
        assert len(inst.poset.elements) == 9
        assert inst.lattice.size() == 512

    def test_pentagon_fixture(self):
        inst = gallery_instance("pentagon")
        assert inst.lattice.kind == "pentagon"
        assert inst.lattice.size() == 5

    def test_capacity_literal_outside_lattice_names_edge(self):
        data = {
            "lattice": {"kind": "powerset", "universe": ["a"]},
            "vertices": ["s", "t"],
            "source": "s",
            "sink": "t",
            "edges": [{"from": "s", "to": "t", "capacity": ["XX"]}],
        }
        with pytest.raises(InstanceError, match=r"edges\[0\].capacity"):
            parse_instance(data)

    def test_bad_weight_names_element(self):
        data = {
            "lattice": {"kind": "chain", "levels": 2},
            "elements": ["x"],
            "covers": [],
            "weights": {"x": 7},
        }
        with pytest.raises(InstanceError, match="weights.x"):
            parse_instance(data)

    def test_neither_payload(self):
        with pytest.raises(InstanceError, match="network.*poset|poset.*network"):
            parse_instance({"lattice": {"kind": "chain", "levels": 2}})

    def test_malformed_json(self):
        with pytest.raises(InstanceError, match="not valid JSON"):
            parse_instance("{nope")

    def test_serialize_parse_identity_on_gallery(self):
        for name in gallery_names():
            inst = gallery_instance(name)
            again = parse_instance(instance_to_dict(inst))
            assert instance_to_dict(again) == instance_to_dict(inst), name

    def test_gallery_files_parse_as_plain_json(self):
        for name in gallery_names():
            data = json.loads(gallery_source(name))
            parse_instance(data)


class TestLoadLattice:
    def test_bare_spec_file(self, tmp_path):
        (tmp_path / "d.json").write_text(json.dumps({"kind": "diamond"}))
        assert load_lattice(tmp_path / "d.json").kind == "diamond"

    def test_instance_file(self, tmp_path):
        (tmp_path / "p.json").write_text(gallery_source("pentagon"))
        assert load_lattice(tmp_path / "p.json").kind == "pentagon"


class TestFlowFiles:
    def test_parse_flow(self):
        inst = gallery_instance("diamond")
        data = {
            "edges": [
                {"from": "s", "to": "t", "value": "a"},
                {"from": "s", "to": "u", "value": "0"},
                {"from": "u", "to": "t", "value": "0"},
            ]
        }
        phi = parse_flow(data, inst.network, inst.lattice)
        assert phi[("s", "t")] == "a"

    def test_missing_edge_rejected(self):
        inst = gallery_instance("diamond")
        with pytest.raises(InstanceError, match="missing"):
            parse_flow({"edges": [{"from": "s", "to": "t", "value": "a"}]}, inst.network, inst.lattice)

    def test_unknown_edge_rejected(self):
        inst = gallery_instance("diamond")
        data = {"edges": [{"from": "t", "to": "s", "value": "a"}]}
        with pytest.raises(InstanceError, match="not an edge"):
            parse_flow(data, inst.network, inst.lattice)

    def test_non_string_edge_end_rejected(self):
        inst = gallery_instance("diamond")
        data = {"edges": [{"from": ["s"], "to": "t", "value": "a"}]}
        with pytest.raises(InstanceError, match=r"edges\[0\]\.from"):
            parse_flow(data, inst.network, inst.lattice)


class TestDot:
    def test_single_edge_network(self):
        inst = parse_instance(
            {
                "lattice": {"kind": "chain", "levels": 3},
                "vertices": ["s", "t"],
                "source": "s",
                "sink": "t",
                "edges": [{"from": "s", "to": "t", "capacity": 2}],
            }
        )
        dot = emit_dot(inst)
        assert dot == (
            'digraph "network" {\n'
            "  rankdir=LR;\n"
            '  "s" [shape=doublecircle];\n'
            '  "t" [shape=doublecircle];\n'
            '  "s" -> "t" [label="2"];\n'
            "}\n"
        )

    def test_competency_poset_counts(self):
        inst = gallery_instance("competencies")
        dot = emit_dot(inst)
        assert dot.count("[label=") == 9  # one box per role
        assert dot.count("->") == 9  # one Hasse edge per cover

    def test_witness_highlighting(self):
        inst = gallery_instance("pentagon")
        report = verify_duality(inst.network, inst.capacities, method="bruteforce")
        dot = emit_dot(inst, report)
        assert "color=blue" in dot  # optimal path styled
        assert "style=dashed" in dot  # optimal cut styled

    def test_poset_highlighting(self):
        inst = gallery_instance("competencies")
        report = dilworth_direct(inst.poset)
        dot = emit_dot(inst, report)
        assert "color=blue" in dot
