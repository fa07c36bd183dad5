import json

import pytest

from latticeflow import cli
from latticeflow.cli import run_command
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

    def test_text_output(self, tmp_path, capsys):
        f = tmp_path / "chain.json"
        f.write_text(json.dumps({"kind": "chain", "levels": 4}))
        report, code = run_command(["check-lattice", str(f)])
        assert code == 0
        out = capsys.readouterr().out
        assert "axioms: all pass" in out
        assert "distributive" in out


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


class TestRandomCheck:
    def test_seeded_run_passes(self):
        report, code = run_command(
            ["random-check", "--seed", "7", "--instances", "25", "--format", "json"]
        )
        assert code == 0
        assert report["passed"] == 25 and report["failed"] == 0

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
        ],
    )
    def test_malformed_file_exits_one(self, tmp_path, capsys, command, data):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(data))
        report, code = run_command([command, str(f)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

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

    def test_random_check_needs_two_vertices(self, capsys):
        report, code = run_command(["random-check", "--max-vertices", "1"])
        assert code == 1
        assert "--max-vertices" in capsys.readouterr().err

    def test_internal_value_error_is_not_an_input_error(self, monkeypatch):
        def broken(args):
            raise ValueError("internal bug")

        monkeypatch.setitem(cli._HANDLERS, "gallery", broken)
        with pytest.raises(ValueError, match="internal bug"):
            run_command(["gallery"])
