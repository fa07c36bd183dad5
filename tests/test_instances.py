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
from latticeflow.cli import run_command
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

    @pytest.mark.parametrize(
        "spec, where",
        [
            ({"kind": "powerset", "universe": "ab"}, "lattice.universe: "),
            ({"kind": "explicit", "elements": "abc", "covers": []}, "lattice.elements: "),
            ({"kind": "explicit", "elements": [0, 1], "relation": []}, r"lattice.elements\[0\]: "),
            ({"kind": "downset", "elements": "abc", "covers": []}, "lattice.elements: "),
            ({"kind": "ring", "generators": "ab"}, "lattice.generators: "),
            ({"kind": "ring", "generators": ["ab"]}, r"lattice.generators\[0\]: "),
            ({"kind": "ring", "generators": [["a"]], "universe": "ab"}, "lattice.universe: "),
            ({"kind": "intervals", "step": True}, "lattice: interval grid step must be a number"),
        ],
    )
    def test_name_lists_and_step_are_typed(self, spec, where):
        with pytest.raises(InstanceError, match="^" + where):
            lattice_from_spec(spec)

    def test_ring_universe_null_means_absent(self):
        L = lattice_from_spec({"kind": "ring", "generators": [["a"], ["b"]], "universe": None})
        assert L.universe == ("a", "b")

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

    def test_weights_for_unknown_elements_rejected(self):
        data = {
            "lattice": {"kind": "chain", "levels": 2},
            "elements": ["x"],
            "covers": [],
            "weights": {"x": 1, "zz": 0, "yy": 0},
        }
        with pytest.raises(InstanceError, match=r"^weights: weights for unknown elements \['zz', 'yy'\]$"):
            parse_instance(data)

    def test_neither_payload(self):
        with pytest.raises(InstanceError, match="network.*poset|poset.*network"):
            parse_instance({"lattice": {"kind": "chain", "levels": 2}})

    def test_malformed_json(self):
        with pytest.raises(InstanceError, match="not valid JSON"):
            parse_instance("{nope")

    def test_table_above_certification_cap_loads_unchecked(self):
        # b and c have no join, but 513 elements are past the 512-element
        # cap of the axiom scan, so the table loads as it is
        names = [f"x{i}" for i in range(511)]
        covers = [[a, b] for a, b in zip(names, names[1:])] + [[names[-1], "b"], [names[-1], "c"]]
        data = {
            "lattice": {"kind": "explicit", "elements": [*names, "b", "c"], "covers": covers},
            "vertices": ["s", "t"],
            "source": "s",
            "sink": "t",
            "edges": [{"from": "s", "to": "t", "capacity": "b"}],
        }
        assert parse_instance(data).lattice.size() == 513

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


# -- product nesting ----------------------------------------------------------------


def nested_calls(tmp_path, depth: int) -> list[list[str]]:
    """CLI calls on a network file and a poset file whose lattice is a
    chain wrapped in ``depth`` products."""
    lattice, value = {"kind": "chain", "levels": 3}, 1
    for _ in range(depth):
        lattice, value = {"kind": "product", "factors": [lattice]}, [value]
    net, poset = tmp_path / "net.json", tmp_path / "poset.json"
    net.write_text(json.dumps({
        "lattice": lattice, "vertices": ["s", "u", "t"], "source": "s", "sink": "t",
        "edges": [{"from": "s", "to": "u", "capacity": value}, {"from": "u", "to": "t", "capacity": value}],
    }))
    poset.write_text(json.dumps({
        "lattice": lattice, "elements": ["a", "b", "c"], "covers": [["a", "b"]],
        "weights": {"a": value, "b": value, "c": value},
    }))
    net, poset = str(net), str(poset)
    return [["bottleneck", net], ["maxflow", net], ["check-lattice", net], ["dilworth", poset], ["check-lattice", poset]]


def test_products_nested_three_hundred_deep_load(tmp_path, capsys):
    for argv in nested_calls(tmp_path, 300):
        _, code = run_command(argv)
        assert (code, capsys.readouterr().err) == (0, ""), argv


@pytest.mark.parametrize("depth", [301, 450])
def test_products_nested_deeper_are_an_input_error(tmp_path, capsys, depth):
    where = "lattice" + ".factors[0]" * 300
    for argv in nested_calls(tmp_path, depth):
        _, code = run_command(argv)
        assert code == 1, argv
        assert capsys.readouterr().err == f"error: {where}: products nested deeper than 300 levels\n"


# -- lattice file reference cycles ---------------------------------------------------


def network_on(tmp_path, lattice) -> str:
    net = tmp_path / "net.json"
    net.write_text(json.dumps({
        "lattice": lattice, "vertices": ["s", "t"], "source": "s", "sink": "t",
        "edges": [{"from": "s", "to": "t", "capacity": 1}],
    }))
    return str(net)


@pytest.mark.parametrize("refs", [{"a.json": "a.json"}, {"a.json": "b.json", "b.json": "a.json"}])
def test_a_lattice_file_reference_cycle_is_an_input_error(tmp_path, capsys, refs):
    for name, ref in refs.items():
        (tmp_path / name).write_text(json.dumps(ref))
    net, ref = network_on(tmp_path, "a.json"), tmp_path / "a.json"
    for argv in (["bottleneck", net], ["maxflow", net], ["check-lattice", net]):
        _, code = run_command(argv)
        assert code == 1, argv
        assert capsys.readouterr().err == f"error: lattice: lattice file reference cycle: {ref} is already being read\n"


def test_a_product_factor_naming_its_own_file_is_an_input_error(tmp_path, capsys):
    (tmp_path / "p.json").write_text(json.dumps({"kind": "product", "factors": [{"kind": "chain", "levels": 2}, "p.json"]}))
    ref = tmp_path / "p.json"
    for argv in (["bottleneck", network_on(tmp_path, "p.json")], ["check-lattice", str(ref)]):
        _, code = run_command(argv)
        assert code == 1, argv
        assert capsys.readouterr().err == (
            f"error: lattice.factors[1]: lattice file reference cycle: {ref} is already being read\n"
        ), argv


def test_one_file_twice_in_a_product_is_no_cycle(tmp_path):
    (tmp_path / "c.json").write_text(json.dumps({"kind": "chain", "levels": 3}))
    (tmp_path / "p.json").write_text(json.dumps({"kind": "product", "factors": ["c.json", "c.json"]}))
    lattice = lattice_from_spec("p.json", base_dir=tmp_path)
    assert lattice.size() == 9


# -- input errors through the CLI ----------------------------------------------------


def net_file(lattice, capacity=1, **fields) -> dict:
    return {
        "lattice": lattice, "vertices": ["s", "t"], "source": "s", "sink": "t",
        "edges": [{"from": "s", "to": "t", "capacity": capacity}], **fields,
    }


CHAIN2 = {"kind": "chain", "levels": 2}


def poset_file(**fields) -> dict:
    return {"lattice": CHAIN2, "elements": ["a"], "covers": [], "weights": {"a": 1}, **fields}


DOWNSET = {"kind": "downset", "elements": ["a"], "covers": []}
SURVIVAL = {"kind": "survival", "time_points": 3, "levels": 3}

# (command, file content, stderr line); a flow file goes with the network net_file(CHAIN2)
INPUT_ERRORS = {
    "covers-not-a-list": ("bottleneck", net_file({**DOWNSET, "covers": "a"}),
                          "lattice.covers: must be a list of [lower, upper] pairs"),
    "cover-not-a-pair": ("bottleneck", net_file({**DOWNSET, "covers": [["a"]]}),
                         "lattice.covers[0]: must be a two-element list"),
    "lattice-not-an-object": ("bottleneck", net_file(5), "lattice: must be an object or a file reference, got int"),
    "no-factors": ("bottleneck", net_file({"kind": "product", "factors": []}),
                   "lattice.factors: must be a non-empty list of lattice specs"),
    "explicit-without-order": ("bottleneck", net_file({"kind": "explicit", "elements": ["0"]}),
                               "lattice: explicit lattice needs 'covers' or 'relation'"),
    "instance-not-an-object": ("bottleneck", [], "instance must be a JSON object, got list"),
    "edges-not-a-list": ("bottleneck", {**net_file(CHAIN2), "edges": {}}, "edges: must be a list of edge objects"),
    "edge-not-an-object": ("bottleneck", {**net_file(CHAIN2), "edges": [5]},
                           "edges[0]: must be an object with from/to/capacity"),
    "duplicate-vertices": ("bottleneck", {**net_file(CHAIN2), "vertices": ["s", "t", "s"]},
                           "instance: duplicate vertex names"),
    "weights-not-an-object": ("dilworth", poset_file(weights=[]),
                              "weights: must map element names to element literals"),
    "empty-poset": ("dilworth", poset_file(elements=[], weights={}), "instance: poset needs at least one element"),
    "duplicate-poset-elements": ("dilworth", poset_file(elements=["a", "a"]),
                                 "instance: poset has duplicate element names"),
    "missing-weight": ("dilworth", poset_file(elements=["a", "b"]), "instance: elements without weights: ['b']"),
    "neither-spec-nor-instance": ("check-lattice", {"x": 1},
                                  "file holds neither a lattice spec nor an instance with one"),
    "flow-not-an-object": ("maxflow", [], "flow file must be an object with an 'edges' list"),
    "flow-edge-not-an-object": ("maxflow", {"edges": [5]}, "edges[0]: must be an object with from/to/value"),
    "chain-levels": ("bottleneck", net_file({"kind": "chain", "levels": 0}),
                     "lattice: chain lattice needs a positive integer level count"),
    "duplicate-atoms": ("bottleneck", net_file({"kind": "powerset", "universe": ["a", "a"]}),
                        "lattice: powerset universe has duplicate atoms"),
    "powerset-literal": ("bottleneck", net_file({"kind": "powerset", "universe": ["a"]}, "a"),
                         "edges[0].capacity: powerset element must be a list of atoms, got 'a'"),
    "product-literal": ("bottleneck", net_file({"kind": "product", "factors": [CHAIN2]}, [1, 1]),
                        "edges[0].capacity: product element must be a list of 1 components, got [1, 1]"),
    "step-range": ("bottleneck", net_file({"kind": "intervals", "step": 2}),
                   "lattice: interval grid step must be in (0, 1]"),
    "step-divides": ("bottleneck", net_file({"kind": "intervals", "step": 0.3}),
                     "lattice: interval grid step must divide 1 exactly"),
    "step-type": ("bottleneck", net_file({"kind": "intervals", "step": "x"}),
                  "lattice: interval grid step must be a number, got 'x'"),
    "step-too-fine": ("bottleneck", net_file({"kind": "intervals", "step": 1e-300}),
                      "lattice: interval grid step must give at most 1,000,000,000,000 steps"),
    "interval-literal": ("bottleneck", net_file({"kind": "intervals", "step": 0.5}, [0.5]),
                         "edges[0].capacity: interval element must be [lo, hi], got [0.5]"),
    "downset-duplicates": ("bottleneck", net_file({**DOWNSET, "elements": ["a", "a"]}),
                           "lattice: poset has duplicate elements"),
    "downset-unknown": ("bottleneck", net_file({**DOWNSET, "covers": [["a", "z"]]}),
                        "lattice: relation ('a', 'z') mentions unknown elements"),
    "downset-cap": ("bottleneck", net_file({**DOWNSET, "elements": [f"x{i}" for i in range(17)]}),
                    "lattice: downset lattice over 17 elements is too large to enumerate"),
    "ring-outside-universe": ("bottleneck", net_file({"kind": "ring", "universe": ["a"], "generators": [["z"]]}),
                              "lattice: generators mention atoms outside the universe: ['z']"),
    "ring-cap": ("bottleneck", net_file({"kind": "ring", "generators": [[a] for a in "abcdefghijklm"]}),
                 "lattice: ring-of-sets closure exceeded 4096 sets"),
    "survival-times": ("bottleneck", net_file({**SURVIVAL, "time_points": 1}),
                       "lattice: survival lattice needs at least 2 time points"),
    "survival-levels-too-fine": ("bottleneck", net_file({**SURVIVAL, "levels": 10**30}, [1, 1, 0]),
                                 "lattice: survival lattice needs at most 1,000,000,000,001 value levels"),
    "survival-literal": ("bottleneck", net_file(SURVIVAL, [1.0]),
                         "edges[0].capacity: survival element must be a list of 3 values, got [1.0]"),
    "survival-off-grid": ("bottleneck", net_file(SURVIVAL, [1, 0.3, 0]),
                          "edges[0].capacity: value 0.3 is not on the 3-level grid"),
}


@pytest.mark.parametrize("case", list(INPUT_ERRORS))
def test_an_input_error_is_one_line_naming_its_path(tmp_path, capsys, case):
    command, content, message = INPUT_ERRORS[case]
    given = tmp_path / "given.json"
    given.write_text(json.dumps(content))
    argv = [command, str(given)]
    if command == "maxflow":
        net = tmp_path / "net.json"
        net.write_text(json.dumps(net_file(CHAIN2)))
        argv = [command, str(net), "--check-flow", str(given)]
    _, code = run_command(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", f"error: {message}\n")
