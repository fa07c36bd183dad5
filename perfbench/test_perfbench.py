"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import latticeflow.cli as cli  # noqa: E402
from latticeflow.dilworth import WeightedPoset, maximal_antichains as program_antichains  # noqa: E402
from latticeflow.generators import random_explicit_lattice, random_weighted_poset  # noqa: E402
from latticeflow.certify import is_distributive  # noqa: E402
from latticeflow.lattices import ChainLattice  # noqa: E402

from perfbench import check, corpus, run  # noqa: E402

TINY = {
    "fuzz": {"vertices": range(2, 6), "per_size": 2},
    "poset": {"sizes": (4, 5, 6), "fixed_size": 5, "fixed_copies": 2},
    "explicit": {"n_random": {True: 1, False: 2}, "products": corpus.EXPLICIT_PRODUCTS[:2]},
}


def tiny_units(workload: str, tmp_path: Path, seed: int = 0):
    return corpus.BUILDERS[workload](seed, tmp_path, **TINY[workload])


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def first_pass(units):
    passes = run.Passes(len(units))
    passes.run(cli, units, 1)
    return passes


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SETUP_SPAWNS", 1)
    spec = benchmark_json()
    assert set(corpus.BUILDERS) == set(check.CHECKERS) == set(run.WORKLOADS)
    units = tiny_units(workload, tmp_path)

    metrics, attempted, failed, _, details = run.run_untraced(cli, workload, units, seconds=1)
    assert failed == 0 and attempted == 2 * len(units)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: v["unit"] for k, v in metrics.items()}
    assert all(v["value"] > 0 for v in metrics.values())
    assert details["latency"]["samples"] == attempted

    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    metrics, attempted, failed, _, details, repeat = run.run_traced(cli, workload, units)
    assert failed == 0 and repeat and details["spans"] > 0
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: v["unit"] for k, v in metrics.items()}


def test_traced_attribution_follows_the_workload(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path / "out")
    values = {}
    for workload in ("fuzz", "explicit"):
        metrics = run.run_traced(cli, workload, tiny_units(workload, tmp_path))[0]
        values[workload] = {k: v["value"] for k, v in metrics.items()}
    assert values["fuzz"]["certify.exhaustive_certs"] == 0
    assert values["fuzz"]["bottleneck.alpha_dp_ms"] > 0
    assert values["explicit"]["certify.exhaustive_certs"] > 0
    assert values["explicit"]["bottleneck.alpha_dp_ms"] == 0


def test_corpus_is_a_function_of_the_seed(tmp_path):
    for workload in run.WORKLOADS:
        a, b, c = (tmp_path / x for x in "abc")
        for d, seed in ((a, 3), (b, 3), (c, 4)):
            d.mkdir(exist_ok=True)
            tiny_units(workload, d, seed)
        read = lambda d: {p.name: p.read_text() for p in d.iterdir()}  # noqa: E731
        assert read(a) == read(b)
        assert read(a) != read(c)
        for d in (a, b, c):
            shutil.rmtree(d)


def _corrupt(outputs, k, **fields):
    code, out, err = outputs[k]
    report = json.loads(out)
    report.update(fields)
    corrupted = list(outputs)
    corrupted[k] = (code, json.dumps(report), err)
    return corrupted


def test_checker_flags_corrupted_reports(tmp_path):
    units = tiny_units("fuzz", tmp_path)
    outputs = first_pass(units).outputs
    for unit, out in zip(units, outputs):
        assert check.check_fuzz(unit.meta, out).ok
        report = json.loads(out[0][1])
        assert not check.check_fuzz(unit.meta, _corrupt(out, 0, equal=not report["equal"])).ok
        wrong = [report["alpha"], "corrupted"]
        assert not check.check_fuzz(unit.meta, _corrupt(out, 0, alpha=wrong)).ok
        assert not check.check_fuzz(unit.meta, _corrupt(out, 1, max_flow_value=wrong)).ok


def _poset_unit(tmp_path, elements, covers, name):
    lat = ChainLattice(3)
    poset = WeightedPoset(elements, covers, {x: i % 3 for i, x in enumerate(elements)}, lat)
    doc = {"lattice": lat.spec(), "elements": list(elements), "covers": [list(c) for c in poset.covers],
           "weights": {x: poset.weights[x] for x in elements}}
    f = tmp_path / f"{name}.json"
    f.write_text(json.dumps(doc))
    argv = ["dilworth", str(f), "--method", "both", "--correspondences", "--format", "json"]
    return corpus.Unit(name, len(elements), [argv], doc)


def _poset_pair(tmp_path):
    """A chain, which satisfies the identity, and the N-shaped poset, whose
    maximal antichain {b, c} misses the maximal chain a < d; with weights
    a=0, b=1, c=2, d=0 the chain side is 0 and the antichain side 1."""
    chain = _poset_unit(tmp_path, ["a", "b", "c"], [("a", "b"), ("b", "c")], "chain")
    n_shape = _poset_unit(tmp_path, ["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "d")], "n")
    return [chain, n_shape], first_pass([chain, n_shape])


def test_unexplained_poset_exit_2_counts_as_an_error(tmp_path):
    units, runs = _poset_pair(tmp_path)
    assert [out[0][0] for out in runs.outputs] == [0, 2]
    code, out, err = runs.outputs[0][0]
    runs.outputs[0] = [(2, out, err)]

    verdicts, failed = run.check_units("poset", units, runs)
    assert not verdicts[0].ok and "exit 2" in verdicts[0].reason
    assert verdicts[1].ok and verdicts[1].known_red
    assert failed == 1


def test_poset_checker_recomputes_both_sides(tmp_path):
    (chain, n_shape), runs = _poset_pair(tmp_path)
    assert check.check_poset(chain.meta, runs.outputs[0]).ok
    assert check.check_poset(n_shape.meta, runs.outputs[1]).known_red
    out = runs.outputs[1]
    assert not check.check_poset(n_shape.meta, _corrupt_route(out, "direct", rhs=2)).ok
    assert not check.check_poset(n_shape.meta, _corrupt_route(out, "network", rhs=1)).ok
    assert not check.check_poset(n_shape.meta, _corrupt_route(out, "direct", lhs=1, equal=True)).ok
    assert not check.check_poset(chain.meta, _corrupt_route(runs.outputs[0], "network", lhs=1, rhs=1)).ok


def _corrupt_route(outputs, route, **fields):
    code, out, err = outputs[0]
    report = json.loads(out)
    report[route].update(fields)
    return [(code, json.dumps(report), err)]


def test_independent_antichains_match_the_program():
    rng = random.Random(5)
    for _ in range(40):
        poset = random_weighted_poset(rng, ChainLattice(2), max_elements=9)
        order = check.Order(poset.elements, poset.covers)
        ours = {frozenset(order.names[i] for i in check._bits(m)) for m in check.maximal_antichains(order)}
        assert ours == {frozenset(a) for a in program_antichains(poset)}


def test_subset_scan_agrees_with_certification():
    rng = random.Random(6)
    for _ in range(40):
        lat = random_explicit_lattice(rng)
        elements = list(lat.element_list())
        covers = corpus.explicit_covers(elements, [(a, b) for a in elements for b in elements if lat.leq(a, b)])
        assert (check.LatticeTable(elements, covers).scan_forbidden() is None) == is_distributive(lat)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
