import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from latticeflow import CapacityAssignment, ChainLattice, Instance, SublatticeWitness, bottleneck, cli, gallery
from latticeflow.cli import run_command
from latticeflow.instances import instance_to_dict
from latticeflow.gallery import gallery_names, gallery_source


# smallest valid instances, for the malformed-input cases to alter
NETWORK = {
    "lattice": {"kind": "chain", "levels": 3},
    "vertices": ["s", "t"],
    "source": "s",
    "sink": "t",
    "edges": [{"from": "s", "to": "t", "capacity": 1}],
}
POSET = {
    "lattice": {"kind": "chain", "levels": 3},
    "elements": ["a", "b"],
    "covers": [["a", "b"]],
    "weights": {"a": 1, "b": 2},
}
# b and c have no common upper bound: an order table that is not a lattice
NOT_A_LATTICE = {"kind": "explicit", "elements": ["a", "b", "c"], "covers": [["a", "b"], ["a", "c"]]}
NOT_A_LATTICE_NETWORK = {
    "lattice": NOT_A_LATTICE,
    "vertices": ["s", "u", "t"],
    "source": "s",
    "sink": "t",
    "edges": [
        {"from": "s", "to": "t", "capacity": "b"},
        {"from": "s", "to": "u", "capacity": "c"},
        {"from": "u", "to": "t", "capacity": "b"},
    ],
}


@pytest.fixture
def pentagon_file(tmp_path):
    p = tmp_path / "pentagon.json"
    p.write_text(gallery_source("pentagon"))
    return str(p)


@pytest.fixture
def diamond_file(tmp_path):
    p = tmp_path / "diamond.json"
    p.write_text(gallery_source("diamond"))
    return str(p)


@pytest.fixture
def supply_file(tmp_path):
    p = tmp_path / "supply.json"
    p.write_text(gallery_source("supply-chain"))
    return str(p)


@pytest.fixture
def competencies_file(tmp_path):
    p = tmp_path / "competencies.json"
    p.write_text(gallery_source("competencies"))
    return str(p)


class TestCheckLattice:
    def test_diamond_reports_m3(self, tmp_path, capsys):
        f = tmp_path / "diamond-lattice.json"
        f.write_text(json.dumps({"kind": "diamond"}))
        report, code = run_command(["check-lattice", str(f), "--format", "json"])
        assert code == 0
        assert report["distributivity"]["verdict"] == "non-distributive"
        assert report["distributivity"]["forbidden_sublattice"]["label"] == "M3"
        printed = json.loads(capsys.readouterr().out)
        assert printed["axioms"]["ok"]

    def test_non_lattice_table_reports_its_violations(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(NOT_A_LATTICE_NETWORK))
        report, code = run_command(["check-lattice", str(f), "--format", "json"])
        assert code == 0
        assert not report["axioms"]["ok"]
        assert len(report["axioms"]["violations"]) == 4

    def test_text_output(self, tmp_path, capsys):
        f = tmp_path / "chain.json"
        f.write_text(json.dumps({"kind": "chain", "levels": 4}))
        report, code = run_command(["check-lattice", str(f)])
        assert code == 0
        out = capsys.readouterr().out
        assert "axioms: all pass" in out
        assert "distributive" in out

    @pytest.mark.parametrize(
        "spec, oracle, found",
        [
            ({"kind": "chain", "levels": 3}, SublatticeWitness("N5", {"0": 0, "a": 1, "b": 1, "c": 1, "1": 2}), "an N5"),
            ({"kind": "pentagon"}, None, "no forbidden"),
        ],
    )
    def test_oracle_disagreement_exits_two(self, tmp_path, capsys, monkeypatch, spec, oracle, found):
        monkeypatch.setattr(cli, "find_forbidden_sublattice", lambda lattice, max_size: oracle)
        f = tmp_path / "lattice.json"
        f.write_text(json.dumps(spec))
        report, code = run_command(["check-lattice", str(f), "--format", "json"])
        assert code == 2
        assert found in report["distributivity"]["oracle_disagreement"]
        capsys.readouterr()
        _, code = run_command(["check-lattice", str(f)])
        assert code == 2 and "DISAGREEMENT: the five-subset scan found" in capsys.readouterr().out

    def test_failed_axioms_do_not_trip_the_disagreement_rule(self, tmp_path, monkeypatch):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(NOT_A_LATTICE))
        for oracle in (None, SublatticeWitness("M3", {r: "a" for r in "0abc1"})):
            monkeypatch.setattr(cli, "find_forbidden_sublattice", lambda lattice, max_size: oracle)
            report, code = run_command(["check-lattice", str(f), "--format", "json"])
            assert code == 0 and not report["axioms"]["ok"]
            assert "oracle_disagreement" not in report["distributivity"]


class TestBottleneck:
    def test_pentagon_json_report(self, pentagon_file, capsys):
        report, code = run_command(["bottleneck", pentagon_file, "--format", "json"])
        assert code == 0  # expected failure on a non-distributive lattice
        assert report["alpha"] == "c" and report["beta"] == "b"
        assert report["equal"] is False
        assert report["lattice_distributive"] is False

    def test_oracle_and_witness_flags(self, pentagon_file, capsys):
        report, code = run_command(["bottleneck", pentagon_file, "--oracle", "--witness"])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimal path" in out
        assert report["alpha_method"] == "bruteforce"

    def test_dp_refuses_pentagon_without_unsafe(self, pentagon_file, capsys):
        report, code = run_command(["bottleneck", pentagon_file, "--dp"])
        assert code == 1
        assert "error" in report

    def test_dp_with_unsafe_flag(self, pentagon_file):
        report, code = run_command(["bottleneck", pentagon_file, "--dp", "--unsafe-dp"])
        assert code == 0
        assert report["alpha_method"] == "dp"

    def test_past_the_vertex_cap_only_the_threshold_route_runs(self, tmp_path, capsys):
        from test_network import layered_network

        net = layered_network(7, 4)
        cap = CapacityAssignment(ChainLattice(4), {e: i % 4 for i, e in enumerate(net.edges)})
        f = tmp_path / "layered.json"
        f.write_text(json.dumps(instance_to_dict(Instance(cap.lattice, "layered", network=net, capacities=cap))))
        report, code = run_command(["bottleneck", str(f), "--format", "json"])
        assert code == 0 and len(net.vertices) == 30
        assert (report["alpha_method"], report["beta_method"], report["equal"]) == ("dp", "threshold", True)
        report, code = run_command(["bottleneck", str(f), "--oracle"])
        assert code == 1
        assert "cap is 22 vertices" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bottleneck", "maxflow"])
    def test_lenient_mode_keeps_the_vertex_cap(self, command, tmp_path, capsys):
        # a 30-vertex path has only 29 minimal cuts to list, yet lenient mode
        # still stops at the partition walk's cap
        from test_network import layered_network

        net = layered_network(1, 28)
        cap = CapacityAssignment(ChainLattice(4), {e: i % 4 for i, e in enumerate(net.edges)})
        f = tmp_path / "path.json"
        f.write_text(json.dumps(instance_to_dict(Instance(cap.lattice, "path", network=net, capacities=cap))))
        _, code = run_command([command, str(f), "--mode", "lenient"])
        assert code == 1 and len(net.vertices) == 30
        assert capsys.readouterr().err == "error: cut enumeration needs 2^28 partitions; cap is 22 vertices\n"

    @staticmethod
    def layered_file(tmp_path, width, layers, lattice=None):
        """The layered reference row of ``width`` x ``layers``: capacities are
        three of the atoms a..f, drawn from ``Random(100 * width + layers)``;
        or, over a given ``lattice``, its elements drawn from the same seed."""
        import random

        from latticeflow import PowersetLattice
        from test_network import layered_network

        net = layered_network(width, layers)
        rng = random.Random(100 * width + layers)
        if lattice is None:
            cap = CapacityAssignment(PowersetLattice("abcdef"), {e: frozenset(rng.sample("abcdef", 3)) for e in net.edges})
        else:
            cap = CapacityAssignment(lattice, {e: rng.choice(lattice.element_list()) for e in net.edges})
        f = tmp_path / f"layered{width}x{layers}.json"
        f.write_text(json.dumps(instance_to_dict(Instance(cap.lattice, "layered", network=net, capacities=cap))))
        return str(f)

    def test_the_path_cap_binds_only_the_listed_path_side(self, tmp_path, capsys):
        f = self.layered_file(tmp_path, 4, 6)
        report, code = run_command(["bottleneck", f, "--max-paths", "1000", "--format", "json"])
        assert code == 0
        assert (report["paths"], report["alpha_method"], report["beta_method"]) == (4096, "dp", "threshold")
        # each capacity holds three of the six atoms, alpha all six: no path attains it
        assert report["alpha"] == report["beta"] == list("abcdef") and report["optimal_path"] is None
        capsys.readouterr()
        _, code = run_command(["bottleneck", f, "--oracle", "--max-paths", "1000"])
        assert code == 1
        assert capsys.readouterr().err == "error: more than 1000 source-to-sink paths\n"

    def test_ten_million_paths_are_counted_not_listed(self, tmp_path):
        report, code = run_command(["bottleneck", self.layered_file(tmp_path, 10, 7), "--format", "json"])
        assert code == 0
        assert (report["paths"], report["cuts"], report["equal"]) == (10**7, 2**70, True)

    def test_maxflow_counts_the_ten_million_paths_too(self, tmp_path, capsys):
        f = self.layered_file(tmp_path, 10, 7)
        flow, code = run_command(["maxflow", f, "--format", "json"])
        assert code == 0 and flow["equal"] is True
        dual, _ = run_command(["bottleneck", f, "--format", "json"])
        assert flow["max_flow_value"] == dual["alpha"] == flow["min_cut_value"]
        capsys.readouterr()

    def test_maxflow_lists_the_paths_of_an_uncertified_lattice_under_the_cap(self, tmp_path, capsys):
        from latticeflow import PentagonLattice

        f = self.layered_file(tmp_path, 10, 7, PentagonLattice())
        _, code = run_command(["maxflow", f, "--unsafe-dp"])
        assert code == 1
        assert capsys.readouterr() == ("", "error: more than 1000000 source-to-sink paths\n")

    @pytest.mark.parametrize("kind", ["pentagon", "diamond"])
    def test_unsafe_dp_on_the_counterexample_networks(self, kind, tmp_path):
        # the forced DP may overshoot alpha; its count and witness must still
        # be enumeration's: the first listed path whose throughput is the DP value
        from latticeflow import counterexample_for, enumerate_paths, lattice_from_spec, path_throughput
        from test_bottleneck import non_distributive_lattices

        runs = 0
        for i, lattice in enumerate(non_distributive_lattices()):
            net, cap = counterexample_for(lattice)
            if (len(net.edges) == 5) != (kind == "pentagon"):
                continue
            runs += 1
            f = tmp_path / f"{kind}{i}.json"
            f.write_text(json.dumps(instance_to_dict(Instance(lattice, network=net, capacities=cap))))
            report, code = run_command(["bottleneck", str(f), "--dp", "--unsafe-dp", "--format", "json"])
            oracle, _ = run_command(["bottleneck", str(f), "--oracle", "--format", "json"])
            assert code == 0 and report["alpha_method"] == "dp"
            assert report["paths"] == oracle["paths"] == len(enumerate_paths(net))
            alpha = lattice_from_spec(lattice.spec()).parse(report["alpha"])
            witness = next((list(p) for p in enumerate_paths(net) if path_throughput(net, cap, p) == alpha), None)
            assert report["optimal_path"] == witness
            if report["alpha"] == oracle["alpha"]:
                assert report["optimal_path"] == oracle["optimal_path"]
        assert runs >= 2

    def test_distributive_instance_exit_zero(self, supply_file):
        report, code = run_command(["bottleneck", supply_file, "--format", "json"])
        assert code == 0
        assert report["equal"] is True

    def test_dot_export(self, pentagon_file, tmp_path):
        out = tmp_path / "net.dot"
        _, code = run_command(["bottleneck", pentagon_file, "--dot", str(out)])
        assert code == 0
        assert out.read_text().startswith("digraph")


class TestMaxflow:
    def test_supply_chain(self, supply_file):
        report, code = run_command(["maxflow", supply_file, "--format", "json"])
        assert code == 0
        assert report["equal"] is True
        assert sorted(report["max_flow_value"]) == ["grain", "iron"]
        assert report["min_cut_method"] == "threshold"

    def test_min_cut_method_named(self, supply_file, diamond_file, capsys):
        report, _ = run_command(["maxflow", supply_file, "--mode", "lenient", "--format", "json"])
        assert report["min_cut_method"] == "bruteforce"
        report, _ = run_command(["maxflow", diamond_file, "--unsafe-dp", "--format", "json"])
        assert report["min_cut_method"] == "bruteforce"
        capsys.readouterr()
        run_command(["maxflow", supply_file])
        assert "  [threshold]\n" in capsys.readouterr().out

    def test_check_flow(self, diamond_file, tmp_path):
        flow = {
            "edges": [
                {"from": "s", "to": "t", "value": "a"},
                {"from": "s", "to": "u", "value": "0"},
                {"from": "u", "to": "t", "value": "0"},
            ]
        }
        flow_file = tmp_path / "flow.json"
        flow_file.write_text(json.dumps(flow))
        report, code = run_command(
            ["maxflow", diamond_file, "--check-flow", str(flow_file), "--unsafe-dp", "--format", "json"]
        )
        assert code == 0
        assert report["checked_flow"]["ok"] is True
        assert report["checked_flow"]["value"] == "a"

    def test_infeasible_flow_warned(self, diamond_file, tmp_path):
        flow = {
            "edges": [
                {"from": "s", "to": "t", "value": "1"},
                {"from": "s", "to": "u", "value": "0"},
                {"from": "u", "to": "t", "value": "0"},
            ]
        }
        flow_file = tmp_path / "flow.json"
        flow_file.write_text(json.dumps(flow))
        report, code = run_command(
            ["maxflow", diamond_file, "--check-flow", str(flow_file), "--unsafe-dp", "--format", "json"]
        )
        assert report["checked_flow"]["ok"] is False
        assert "warning" in report["checked_flow"]

    def test_check_flow_text_names_each_violation(self, diamond_file, tmp_path, capsys):
        # s->t carries 1 over its capacity a; u takes in b and passes on 0
        flow = {
            "edges": [
                {"from": "s", "to": "t", "value": "1"},
                {"from": "s", "to": "u", "value": "b"},
                {"from": "u", "to": "t", "value": "0"},
            ]
        }
        flow_file = tmp_path / "flow.json"
        flow_file.write_text(json.dumps(flow))
        _, code = run_command(["maxflow", diamond_file, "--check-flow", str(flow_file), "--unsafe-dp"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[-3:] == [
            "checked flow: feasible=False  value=1",
            "  capacity violated on ['s', 't']: 1 > a",
            "  conservation violated at u: in=b out=0",
        ]

    def test_poset_instance_exits_one(self, competencies_file, capsys):
        report, code = run_command(["maxflow", competencies_file])
        assert code == 1
        assert capsys.readouterr().err == "error: maxflow needs a network instance, got a poset\n"


class TestDilworth:
    def test_competencies_both_methods(self, competencies_file):
        report, code = run_command(["dilworth", competencies_file, "--format", "json"])
        assert code == 0
        assert report["direct"]["lhs"] == ["EM"]
        assert report["direct"]["rhs"] == ["EM"]
        assert report["methods_agree"] is True

    def test_correspondences_flag(self, competencies_file):
        report, code = run_command(
            ["dilworth", competencies_file, "--correspondences", "--format", "json"]
        )
        assert report["correspondences"]["chains"] == 5
        assert report["correspondences"]["paths"] == 5
        assert report["correspondences"]["chains_match_paths"] is True

    def test_identity_failure_on_distributive_lattice_exits_two(self, tmp_path, capsys):
        # chain side and antichain side genuinely differ on this poset,
        # which the CLI treats as a duality failure signal
        data = {
            "lattice": {"kind": "powerset", "universe": ["p"]},
            "elements": ["a", "b", "c", "d"],
            "covers": [["a", "c"], ["a", "d"], ["b", "d"]],
            "weights": {"a": ["p"], "b": [], "c": [], "d": ["p"]},
        }
        f = tmp_path / "n.json"
        f.write_text(json.dumps(data))
        report, code = run_command(["dilworth", str(f), "--format", "json"])
        assert code == 2
        assert report["direct"]["equal"] is False
        capsys.readouterr()
        _, code = run_command(["dilworth", str(f)])
        assert code == 2
        out = capsys.readouterr().out
        # the network's rhs is the cut side: the meet over minimal chain transversals
        assert "direct: chain side = {p}, antichain side = {}, equal = False" in out
        assert "network: chain side = {p}, cut side = {p}, equal = True" in out

    def test_network_instance_exits_one(self, supply_file, capsys):
        report, code = run_command(["dilworth", supply_file])
        assert code == 1
        assert capsys.readouterr().err == "error: dilworth needs a poset instance, got a network\n"

    def test_dot_export(self, competencies_file, tmp_path):
        out = tmp_path / "poset.dot"
        _, code = run_command(["dilworth", competencies_file, "--dot", str(out)])
        assert code == 0
        assert "rankdir=BT" in out.read_text()


class TestGallery:
    def test_all_entries_pass(self, capsys):
        report, code = run_command(["gallery"])
        assert code == 0
        assert report["ok"] is True
        out = capsys.readouterr().out
        for name in gallery_names():
            assert f"{name}: ok" in out

    def test_single_entry_json(self, capsys):
        report, code = run_command(["gallery", "pentagon", "--format", "json"])
        assert code == 0
        entry = report["entries"][0]
        assert entry["result"]["equal"] is False

    def test_export(self, tmp_path):
        _, code = run_command(["gallery", "pentagon", "--export", str(tmp_path)])
        assert code == 0
        assert json.loads((tmp_path / "pentagon.json").read_text())["name"] == "pentagon"

    def test_unknown_entry(self, capsys):
        report, code = run_command(["gallery", "nonesuch"])
        assert code == 1

    @pytest.mark.parametrize(
        "name, wrong, fields",
        [
            ("pentagon", {"alpha": "b"}, ["alpha"]),
            ("diamond", {"beta": "a", "equal": True}, ["beta", "equal"]),
            ("no-optimal-cut", {"optimal_cut": True}, ["optimal_cut"]),
            ("no-optimal-path", {"optimal_path": True}, ["optimal_path"]),
            ("competencies", {"lhs": [], "chain_values": [[], [], [], [], []]}, ["lhs", "chain_values"]),
            ("survival", {"rhs": [1.0, 0.5, 0.5, 0.0], "equal": False}, ["rhs", "equal"]),
        ],
    )
    def test_wrong_expectation_exits_two_and_names_the_field(self, monkeypatch, capsys, name, wrong, fields):
        monkeypatch.setitem(gallery.GALLERY_EXPECTED, name, {**gallery.GALLERY_EXPECTED[name], **wrong})
        report, code = run_command(["gallery", name, "--format", "json"])
        assert code == 2 and report["ok"] is False
        assert report["entries"][0]["mismatches"] == fields
        capsys.readouterr()
        _, code = run_command(["gallery"])
        assert code == 2
        out = capsys.readouterr().out
        assert f"{name}: MISMATCH on {', '.join(fields)}\n" in out
        assert out.count("MISMATCH") == 1


class TestRandomCheck:
    def test_seeded_run_passes(self):
        report, code = run_command(
            ["random-check", "--seed", "7", "--instances", "25", "--format", "json"]
        )
        assert code == 0
        assert report["passed"] == 25 and report["failed"] == 0

    def test_wrong_threshold_side_turns_it_red(self, monkeypatch):
        monkeypatch.setattr(cli, "beta_threshold", lambda net, cap: cap.lattice.top())
        report, code = run_command(["random-check", "--seed", "7", "--instances", "20", "--format", "json"])
        assert code == 2 and report["failed"] > 0
        assert all(f["beta_threshold"] != f["beta"] for f in report["failures"])

    def test_wrong_path_count_turns_it_red(self, monkeypatch):
        monkeypatch.setattr(bottleneck, "count_paths", lambda net: 1)
        report, code = run_command(["random-check", "--seed", "7", "--instances", "20", "--format", "json"])
        assert code == 2 and report["failed"] > 0
        assert all(f["paths_dp"] == 1 != f["paths"] for f in report["failures"])

    def test_wrong_path_witness_turns_it_red(self, monkeypatch):
        # the last attaining path in place of the first
        from latticeflow import enumerate_paths, path_throughput

        def last_path(net, cap, alpha):
            return next((p for p in reversed(enumerate_paths(net)) if path_throughput(net, cap, p) == alpha), None)

        monkeypatch.setattr(bottleneck, "first_path_at_least", last_path)
        report, code = run_command(["random-check", "--seed", "7", "--instances", "40", "--format", "json"])
        assert code == 2 and report["failed"] > 0
        assert all(f["optimal_path_dp"] != f["optimal_path"] for f in report["failures"])

    def test_failures_line_in_text_output(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "beta_threshold", lambda net, cap: cap.lattice.top())
        report, code = run_command(["random-check", "--seed", "7", "--instances", "20"])
        assert code == 2
        failed = report["failed"]
        assert capsys.readouterr().out == (
            f"random-check: {20 - failed}/20 instances satisfied duality (seed 7)\n"
            f"FAILURES: {failed} (first {min(failed, 10)} shown in JSON output)\n"
        )

    def test_env_seed(self, monkeypatch):
        monkeypatch.setenv("RANDOM_CHECK_SEED", "13")
        report, code = run_command(["random-check", "--instances", "5", "--format", "json"])
        assert code == 0
        assert report["seed"] == 13


class TestErrors:
    def test_missing_file_exits_one(self, capsys):
        report, code = run_command(["bottleneck", "/nonexistent.json"])
        assert code == 1
        assert "error" in report

    def test_usage_error_exits_one(self, capsys):
        report, code = run_command(["bottleneck"])
        assert code == 1

    def test_poset_to_bottleneck_exits_one(self, competencies_file):
        report, code = run_command(["bottleneck", competencies_file])
        assert code == 1

    def test_unknown_command_exits_one(self):
        report, code = run_command(["frobnicate"])
        assert code == 1

    @pytest.mark.parametrize(
        "command, data",
        [
            ("bottleneck", {**NETWORK, "vertices": 5}),
            ("bottleneck", {**NETWORK, "source": ["s"]}),
            ("bottleneck", {**NETWORK, "edges": [{"from": ["s"], "to": "t", "capacity": 1}]}),
            ("bottleneck", {**NETWORK, "lattice": {"kind": "pentagon"}, "edges": [{"from": "s", "to": "t", "capacity": ["a"]}]}),
            ("bottleneck", {**NETWORK, "lattice": {"kind": "intervals"}, "edges": [{"from": "s", "to": "t", "capacity": [float("nan"), 1]}]}),
            ("dilworth", {**POSET, "elements": 7}),
            ("dilworth", {**POSET, "covers": [[["a"], "b"]]}),
            ("check-lattice", {"kind": "explicit", "elements": ["a", "b"], "covers": [["a", "zz"]]}),
            # a string is not a list of names, even though it iterates as one
            ("check-lattice", {"kind": "powerset", "universe": "ab"}),
            ("check-lattice", {"kind": "explicit", "elements": "abc", "covers": []}),
            ("check-lattice", {"kind": "explicit", "elements": "abc", "relation": []}),
            ("check-lattice", {"kind": "downset", "elements": "abc", "covers": []}),
            ("check-lattice", {"kind": "ring", "generators": ["ab"]}),
            ("check-lattice", {"kind": "ring", "generators": [["a"]], "universe": "ab"}),
            ("check-lattice", {"kind": "intervals", "step": True}),
            ("dilworth", {**POSET, "weights": {"a": 1, "b": 2, "zz": 0}}),
            ("bottleneck", NOT_A_LATTICE_NETWORK),
            ("check-lattice", {"kind": "ring", "generators": [["a"]], "universe": ["a", "b"], "adjoin_bounds": "no"}),
            ("check-lattice", {"kind": "survival", "time_points": 3, "levels": 3.0}),
            ("check-lattice", {"kind": "survival", "time_points": 3.0, "levels": 3}),
            ("check-lattice", {"kind": "survival", "time_points": True, "levels": 3}),
            # a name or description is a string or null, never rendered from another value
            ("bottleneck", {**NETWORK, "name": 5}),
            ("bottleneck", {**NETWORK, "name": {"a": 1}}),
        ],
    )
    def test_malformed_file_exits_one(self, tmp_path, capsys, command, data):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(data))
        report, code = run_command([command, str(f)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "command, data, message",
        [
            ("bottleneck", NOT_A_LATTICE_NETWORK, "lattice: not a lattice: join-upper-bound: b is not an upper bound"),
            ("maxflow", NOT_A_LATTICE_NETWORK, "lattice: not a lattice: "),
            (
                "bottleneck",
                {
                    **NETWORK,
                    "lattice": {"kind": "product", "factors": [{"kind": "chain", "levels": 2}, NOT_A_LATTICE]},
                    "edges": [{"from": "s", "to": "t", "capacity": [0, "b"]}],
                },
                "lattice.factors[1]: not a lattice: ",
            ),
            ("dilworth", {**POSET, "lattice": NOT_A_LATTICE, "weights": {"a": "b", "b": "c"}}, "lattice: not a lattice: "),
            ("check-lattice", {"kind": "ring", "generators": [["a"]], "universe": ["a", "b"], "adjoin_bounds": "no"},
             "lattice.adjoin_bounds: must be true or false, got 'no'"),
            ("check-lattice", {"kind": "survival", "time_points": 3, "levels": 3.0},
             "survival lattice needs an integer count of value levels, got float"),
            ("check-lattice", {"kind": "survival", "time_points": 3.0, "levels": 3},
             "survival lattice needs an integer count of time points, got float"),
            ("check-lattice", {"kind": "survival", "time_points": True, "levels": 3},
             "survival lattice needs an integer count of time points, got bool"),
            ("bottleneck", {**NETWORK, "name": 5}, "name: must be a string or null, got 5"),
            ("dilworth", {**POSET, "description": ["x"]}, "description: must be a string or null, got ['x']"),
        ],
    )
    def test_malformed_file_names_the_fault(self, tmp_path, capsys, command, data, message):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(data))
        _, code = run_command([command, str(f)])
        assert code == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bottleneck", "check-lattice"])
    def test_non_utf8_file_exits_one(self, tmp_path, capsys, command):
        f = tmp_path / "bad.json"
        f.write_bytes(b'{"kind": "\xff"}')
        report, code = run_command([command, str(f)])
        assert code == 1
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["maxflow"], ["bottleneck", "--oracle"]])
    def test_cyclic_network_exits_one(self, tmp_path, capsys, argv):
        data = {
            **NETWORK,
            "vertices": ["s", "u", "v", "t"],
            "edges": [
                {"from": "s", "to": "u", "capacity": 1},
                {"from": "u", "to": "u", "capacity": 1},
                {"from": "u", "to": "v", "capacity": 1},
                {"from": "v", "to": "u", "capacity": 1},
                {"from": "v", "to": "t", "capacity": 2},
            ],
        }
        f = tmp_path / "cyclic.json"
        f.write_text(json.dumps(data))
        report, code = run_command([argv[0], str(f), *argv[1:]])
        assert code == 1
        err = capsys.readouterr().err
        assert "self-loops" in err and "cycle" in err

    @pytest.mark.parametrize("command", ["bottleneck", "maxflow"])
    def test_cycle_message_names_only_the_cycle(self, tmp_path, capsys, command):
        # t lies past the cycle a -> b -> a, not on it
        pairs = [("s", "a"), ("a", "b"), ("b", "a"), ("b", "t")]
        data = {
            **NETWORK,
            "vertices": ["s", "a", "b", "t"],
            "edges": [{"from": u, "to": v, "capacity": 1} for u, v in pairs],
        }
        f = tmp_path / "cyclic.json"
        f.write_text(json.dumps(data))
        _, code = run_command([command, str(f)])
        assert code == 1
        assert capsys.readouterr() == ("", "error: instance: graph has a directed cycle through ['a', 'b']\n")

    def test_non_integer_env_seed_exits_one(self, monkeypatch, capsys):
        monkeypatch.setenv("RANDOM_CHECK_SEED", "abc")
        report, code = run_command(["random-check", "--instances", "1"])
        assert code == 1
        assert capsys.readouterr().err == "error: RANDOM_CHECK_SEED must be an integer, got 'abc'\n"
        assert report == {"error": "RANDOM_CHECK_SEED must be an integer, got 'abc'"}

    def test_random_check_needs_two_vertices(self, capsys):
        report, code = run_command(["random-check", "--max-vertices", "1"])
        assert code == 1
        assert "--max-vertices" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["random-check", "--instances", "-3"], "argument --instances: must be at least 0, got -3"),
            (["check-lattice", "lattice.json", "--max-size", "-1"], "argument --max-size: must be at least 0, got -1"),
            (["random-check", "--instances", "many"], "argument --instances: invalid int value: 'many'"),
            (["bottleneck", "net.json", "--max-paths", "-1"], "argument --max-paths: must be at least 0, got -1"),
            (["bottleneck", "net.json", "--max-vertices", "-2"], "argument --max-vertices: must be at least 0, got -2"),
            # past the cut side's vertex cap a draw could only end in an input error
            (["random-check", "--seed", "1", "--instances", "3", "--max-vertices", "40"],
             "argument --max-vertices: must be at most 22, got 40"),
        ],
    )
    def test_bad_count_is_a_usage_error(self, capsys, argv, message):
        report, code = run_command(argv)
        assert code == 1
        assert message in capsys.readouterr().err

    def test_null_name_and_description_are_accepted(self, tmp_path, capsys):
        f = tmp_path / "net.json"
        f.write_text(json.dumps({**NETWORK, "name": None, "description": None}))
        report, code = run_command(["bottleneck", str(f)])
        assert code == 0

    def test_internal_value_error_is_not_an_input_error(self, monkeypatch):
        def broken(args):
            raise ValueError("internal bug")

        monkeypatch.setitem(cli._HANDLERS, "gallery", broken)
        with pytest.raises(ValueError, match="internal bug"):
            run_command(["gallery"])


def _parsed(parse, argv) -> tuple:
    """What ``parse(argv)`` returns or raises, and what it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            return "namespace", parse(argv), out.getvalue()
        except cli._UsageError as exc:
            return "usage error", str(exc), out.getvalue()
        except SystemExit as exc:  # -h
            return "exit", exc.code, out.getvalue()


COMMANDS = ("check-lattice", "bottleneck", "maxflow", "dilworth", "gallery", "random-check")


class TestDispatch:
    """``run_command`` hands a call that starts with a command to that
    command's subparser alone; on every call it parses as
    ``build_parser().parse_args`` does."""

    ARGVS = {
        **{command: [command, "in.json"] for command in COMMANDS},
        **{f"{command}-h": [command, "-h"] for command in COMMANDS},
        "no-argv": [],
        "h": ["-h"],
        "help-then-command": ["--help", "bottleneck", "in.json"],
        "h-after-file": ["dilworth", "in.json", "--method", "direct", "-h"],
        "every-command-option": ["maxflow", "in.json", "--check-flow", "flow.json", "--mode", "lenient",
                                 "--unsafe-dp", "--format", "json"],
        "abbreviated": ["bottleneck", "in.json", "--wit", "--max-p", "5", "--form", "json"],
        "ambiguous-abbreviation": ["bottleneck", "in.json", "--max", "5"],
        "option-equals-value": ["dilworth", "in.json", "--method=network", "--corr"],
        "repeated": ["bottleneck", "in.json", "--mode", "lenient", "--mode", "strict", "--dp", "--dp"],
        "negative-number": ["random-check", "--seed", "-5", "--instances", "2"],
        "double-dash-before-file": ["bottleneck", "--", "in.json"],
        "double-dash-before-option": ["bottleneck", "in.json", "--", "--dp"],
        "double-dash-first": ["--", "bottleneck", "in.json"],
        "unknown-option": ["bottleneck", "in.json", "--frobnicate"],
        "unknown-option-first": ["--frobnicate", "bottleneck", "in.json"],
        "unknown-command": ["frobnicate", "in.json"],
        "abbreviated-command": ["bottle", "in.json"],
        "missing-file": ["bottleneck"],
        "missing-file-with-option": ["check-lattice", "--max-size", "3"],
        "extra-positional": ["maxflow", "in.json", "other.json"],
        "nonexistent-file": ["bottleneck", "/nonexistent/in.json"],
        "bad-choice": ["bottleneck", "in.json", "--mode", "loose"],
        "bad-count": ["random-check", "--instances", "-3"],
        "oracle": ["bottleneck", "in.json", "--oracle"],
        "oracle-and-dp": ["bottleneck", "in.json", "--oracle", "--dp"],
        "dp-and-oracle": ["bottleneck", "in.json", "--dp", "--unsafe-dp", "--oracle"],
    }

    @pytest.mark.parametrize("name", list(ARGVS))
    def test_parses_as_the_full_parser(self, name):
        argv = self.ARGVS[name]
        assert _parsed(cli._parse, argv) == _parsed(cli.build_parser().parse_args, argv)

    def test_a_command_is_parsed_by_its_subparser_alone(self, monkeypatch):
        parser = cli.build_parser()

        def refuse(*args, **kwargs):
            raise AssertionError("the full parser ran")

        monkeypatch.setattr(parser, "parse_known_args", refuse)
        for argv in (["check-lattice", "in.json"], ["bottleneck", "in.json"], ["maxflow", "in.json"],
                     ["dilworth", "in.json"], ["gallery"], ["random-check"]):
            assert cli._parse(argv).command == argv[0]
        with pytest.raises(AssertionError, match="the full parser ran"):
            cli._parse(["frobnicate"])

    def test_run_command_parses_through_the_dispatch(self, monkeypatch, capsys):
        seen = []
        parse = cli._parse
        monkeypatch.setattr(cli, "_parse", lambda argv: seen.append(argv) or parse(argv))
        assert run_command(["gallery", "--format", "json"])[1] == 0
        assert seen == [["gallery", "--format", "json"]]


class TestJsonText:
    """``_emit``'s writer against ``json.dumps(value, indent=2)``."""

    def test_every_golden_json_stdout(self):
        checked = 0
        for golden in sorted((Path(__file__).parent / "golden").glob("*.json")):
            for run in json.loads(golden.read_text())["runs"]:
                if not run["stdout"].startswith(("{", "[")):
                    continue
                value = json.loads(run["stdout"])
                assert cli._json_text(value) + "\n" == json.dumps(value, indent=2) + "\n" == run["stdout"]
                checked += 1
        assert checked == 188

    def test_fixed_values(self):
        for value in (
            {"t": (1, (2.5, "x")), "u": [(), {}, []], "v": "caf\u00e9 \ud83d\ude00 \ud800 \"\\\n"},
            [math.nan, math.inf, -math.inf, -0.0, 1e300, 5e-324, 10**40, -7],
            {1: None, 2.5: True, None: False, True: 0, False: 1.0},
            ({}, [[[]]]),
        ):
            assert cli._json_text(value) == json.dumps(value, indent=2)

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda inner: st.lists(inner, max_size=4)
            | st.lists(inner, max_size=4).map(tuple)
            | st.dictionaries(st.text() | st.integers() | st.floats() | st.booleans() | st.none(), inner, max_size=4),
            max_leaves=20,
        )
    )
    def test_nested_values(self, value):
        assert cli._json_text(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [{"a": {1, 2}}, [object()], {(1, 2): 3}])
    def test_what_json_refuses_it_refuses(self, value):
        with pytest.raises(TypeError):
            json.dumps(value, indent=2)
        with pytest.raises(TypeError):
            cli._json_text(value)
