"""Benchmark of the latticeflow CLI path on seeded corpora.

    python3 perfbench/run.py --workload fuzz --seed 1 --seconds 25 --trace 0

Run it from the repository root (or any checkout of it); it imports the
package from ``src/`` of that checkout and exits 2 if there is none.

Each unit of work is one instance file the benchmark wrote, taken through
in-process ``latticeflow.cli.run_command`` calls exactly as a CLI user
would: the file is parsed inside the timed region, so the per-lattice
caches start cold. Closed loop, one client, one process, no threads.

The corpus is one pass; a run times a fixed number of passes, set from
``--seconds`` and the pass time measured on the reference machine, so two
commits always time the same work and the same number of samples. Answers
are checked after the loop, against routes in ``perfbench/check.py`` that
share no code with the program. The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the stamp (Python, commit, source digest, nproc, CPU, seed) with the
details behind the metrics.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs one
untraced pass and two traced passes of the same corpus, reports per-layer
self times and counts (``perfbench/spans.py``), the tracing overhead, and
writes every span to ``.bench_run/spans/<workload>.tsv.gz``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_run"

# the workloads BENCHMARK.json defines, each with a corpus builder and a checker
WORKLOADS = tuple(w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
# seconds one pass of each corpus took on the reference machine (2-vCPU
# Xeon VM, Python 3.11); passes per run = --seconds / this, at least 2
NOMINAL_PASS_S = {"fuzz": 8.0, "poset": 7.5, "explicit": 5.0}
# a run stops early once it has taken this many times --seconds
TIME_CAP = 5
WARMUP_UNITS = 3
# fresh interpreters timed per run, spread evenly over the timed passes
SETUP_SPAWNS = 40
TAIL_BEYOND = 10

END_TO_END = {
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# per-layer metric -> unit; "_ms" is self time per instance, counts are
# totals per pass of the corpus and repeat exactly
PER_LAYER = {
    "cli.self_ms": "ms",
    "instances.load_ms": "ms",
    "lattices.check_calls": "count",
    "lattices.fold_calls": "count",
    "lattices.checks_per_fold": "ratio",
    "network.enumerate_paths_ms": "ms",
    "network.paths": "count",
    "network.enumerate_cuts_ms": "ms",
    "network.cuts": "count",
    "network.crossing_edges_ms": "ms",
    "network.minimal_cuts_ms": "ms",
    "network.minimal_cut_yield": "ratio",
    "bottleneck.verify_duality_self_ms": "ms",
    "bottleneck.cut_capacity_ms": "ms",
    "bottleneck.path_throughput_ms": "ms",
    "bottleneck.alpha_dp_ms": "ms",
    "flows.max_flow_value_ms": "ms",
    "certify.check_lattice_axioms_ms": "ms",
    "certify.check_distributive_ms": "ms",
    "certify.find_forbidden_sublattice_ms": "ms",
    "certify.exhaustive_certs": "count",
    "dilworth.maximal_chains_ms": "ms",
    "dilworth.chains": "count",
    "dilworth.maximal_antichains_ms": "ms",
    "dilworth.antichains": "count",
    "dilworth.antichain_yield": "ratio",
    "dilworth.via_network_ms": "ms",
    "dilworth.correspondences_ms": "ms",
    "dilworth.known_red": "count",
}
# per-layer "_ms" metric -> span name whose self time it reports
SELF_TIME = {
    "cli.self_ms": "cli.run_command",
    "instances.load_ms": "instances.load",
    "network.enumerate_paths_ms": "network.enumerate_paths",
    "network.enumerate_cuts_ms": "network.enumerate_cuts",
    "network.crossing_edges_ms": "network.crossing_edges",
    "network.minimal_cuts_ms": "network.minimal_cuts",
    "bottleneck.verify_duality_self_ms": "bottleneck.verify_duality",
    "bottleneck.cut_capacity_ms": "bottleneck.cut_capacity",
    "bottleneck.path_throughput_ms": "bottleneck.path_throughput",
    "bottleneck.alpha_dp_ms": "bottleneck.alpha_dp",
    "flows.max_flow_value_ms": "flows.max_flow_value",
    "certify.check_lattice_axioms_ms": "certify.check_lattice_axioms",
    "certify.check_distributive_ms": "certify.check_distributive",
    "certify.find_forbidden_sublattice_ms": "certify.find_forbidden_sublattice",
    "dilworth.maximal_chains_ms": "dilworth.maximal_chains",
    "dilworth.maximal_antichains_ms": "dilworth.maximal_antichains",
    "dilworth.via_network_ms": "dilworth.via_network",
    "dilworth.correspondences_ms": "dilworth.correspondences",
}

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import latticeflow.cli\n"
    "print(time.perf_counter() - t)\n"
)


# -- stamp and set-up --------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "latticeflow").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "workload": workload,
        "seed": seed,
    }


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import latticeflow.cli."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


# -- the timed loop ----------------------------------------------------------------


def run_unit(cli, unit) -> tuple[float, list]:
    """Wall seconds for all CLI calls of one unit, and (exit code, stdout,
    stderr) per call; an exception counts as exit code "exception"."""
    outputs = []
    t0 = perf_counter()
    for argv in unit.argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.run_command(argv)[1]
            except Exception:
                code = "exception"
                err.write(traceback.format_exc())
        outputs.append((code, out.getvalue(), err.getvalue()))
    return perf_counter() - t0, outputs


class Passes:
    """Per-unit wall times over passes, the first pass's outputs, and the
    units whose output changed between passes."""

    def __init__(self, n: int):
        self.times: list[list[float]] = [[] for _ in range(n)]
        self.outputs: list = [None] * n
        self.drift: set[int] = set()

    def record(self, i: int, elapsed: float, outputs) -> None:
        self.times[i].append(elapsed)
        if self.outputs[i] is None:
            self.outputs[i] = outputs
        elif outputs != self.outputs[i]:
            self.drift.add(i)

    def run(self, cli, units, passes: int, budget_s: float = float("inf"), tracer=None, first_instance: int = 0,
            between=None) -> int:
        """Time whole passes; a tracer tags spans with the execution index,
        and ``between(k)`` runs untimed after the k-th execution."""
        start = perf_counter()
        for p in range(passes):
            for i, unit in enumerate(units):
                k = p * len(units) + i
                if tracer is not None:
                    tracer.instance = first_instance + k
                self.record(i, *run_unit(cli, unit))
                if between is not None:
                    between(k)
            if perf_counter() - start > budget_s:
                return p + 1
        return passes


def check_units(workload: str, units, runs: Passes) -> tuple[list, int]:
    """Verdict per unit and the number of failed executions: a unit that
    fails its check, or whose output drifts between passes, fails every
    execution it had."""
    from perfbench.check import CHECKERS, Verdict

    verdicts = []
    failed = 0
    for i, unit in enumerate(units):
        try:
            v = CHECKERS[workload](unit.meta, runs.outputs[i])
        except Exception as exc:  # a malformed report is a failed answer
            v = Verdict(False, f"checker raised {type(exc).__name__}: {exc}")
        if v.ok and i in runs.drift:
            v = Verdict(False, "output differs between passes")
        verdicts.append(v)
        if not v.ok:
            failed += len(runs.times[i])
    return verdicts, failed


def latency_summary(times: list[list[float]]) -> dict:
    """The median over units of each unit's fastest time over the passes,
    and the tail: the highest percentile of all timed executions with
    TAIL_BEYOND executions beyond it, with the number of distinct units
    those executions came from."""
    executions = sorted((t, i) for i, ts in enumerate(times) for t in ts)
    k = max(0, len(executions) - TAIL_BEYOND - 1)
    return {
        "samples": len(executions),
        "p50_s": statistics.median(min(ts) for ts in times),
        "tail_s": executions[k][0],
        "tail_percentile": round(100 * (k + 1) / len(executions), 2),
        "beyond_tail": len(executions) - k - 1,
        "units_beyond_tail": len({i for _, i in executions[k + 1:]}),
    }


def throughput(times: list[list[float]]) -> float:
    """Instances per second over one pass, each unit at its fastest time
    over the passes. Other load on the machine only ever lengthens an
    execution, so the fastest is the steadiest estimate of a unit's cost."""
    return len(times) / sum(min(ts) for ts in times)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- the two kinds of run ----------------------------------------------------------


def run_untraced(cli, workload, units, seconds):
    passes = max(2, round(seconds / NOMINAL_PASS_S[workload]))
    import_seconds()  # may write the bytecode cache
    for unit in units[:WARMUP_UNITS]:
        run_unit(cli, unit)
    setup = []
    stride = max(1, passes * len(units) // SETUP_SPAWNS)

    def probe(k: int) -> None:
        if k % stride == stride - 1 and len(setup) < SETUP_SPAWNS:
            setup.append(import_seconds())

    runs = Passes(len(units))
    t0 = perf_counter()
    done = runs.run(cli, units, passes, budget_s=TIME_CAP * seconds, between=probe)
    wall = perf_counter() - t0
    while len(setup) < SETUP_SPAWNS:  # fewer executions than spawns, or cut short
        setup.append(import_seconds())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdicts, failed = check_units(workload, units, runs)
    lat = latency_summary(runs.times)
    values = {
        "instances_per_s": throughput(runs.times),
        "latency_p50_ms": lat["p50_s"] * 1000,
        "latency_tail_ms": lat["tail_s"] * 1000,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}
    attempted = sum(len(ts) for ts in runs.times)
    details = {
        "passes": done,
        "units": len(units),
        "measured_s": round(wall, 3),
        "latency": {k: lat[k] for k in ("samples", "tail_percentile", "beyond_tail", "units_beyond_tail")},
        "setup_spawns_s": [round(t, 5) for t in setup],
        "error_rate": failed / attempted,
        "dilworth.known_red": sum(v.known_red for v in verdicts),
        # which structural witness explained each known-red exit 2
        "known_red_witness": {
            kind: sum(v.known_red and v.reason.startswith(prefix) for v in verdicts)
            for kind, prefix in (("antichain_misses_chain", "maximal antichain"),
                                 ("transversal_not_antichain", "minimal chain transversal"))
        },
    }
    return metrics, attempted, failed, verdicts, details


def run_traced(cli, workload, units):
    """Each unit untraced and then with spans (self times, and the overhead
    as a paired difference that the machine's drift barely reaches), then a
    pass with spans plus kernel counters. Span counts must repeat exactly
    between the two traced passes."""
    from perfbench.spans import Tracer

    for unit in units[:WARMUP_UNITS]:
        run_unit(cli, unit)
    plain, traced = Passes(len(units)), Passes(len(units))
    tracer = Tracer()
    try:
        for i, unit in enumerate(units):
            plain.record(i, *run_unit(cli, unit))
            traced.outputs[i] = plain.outputs[i]  # tracing must not change an answer
            tracer.instance = i
            tracer.install()
            traced.record(i, *run_unit(cli, unit))
            tracer.uninstall()
        self_s = dict(tracer.self_s)
        span_counts = dict(tracer.counts)
        tracer.install()
        tracer.install_kernel_counters()
        traced.run(cli, units, 1, tracer=tracer, first_instance=len(units))
    finally:
        tracer.uninstall()
    untraced_s = sum(ts[0] for ts in plain.times)
    traced_s = sum(ts[0] for ts in traced.times)
    counts = {k: v - span_counts.get(k, 0) for k, v in tracer.counts.items()}
    repeat = all(counts.get(k, 0) == v for k, v in span_counts.items())
    span_file = OUT / "spans" / f"{workload}.tsv.gz"
    n_spans = tracer.write(span_file)

    verdicts, failed = check_units(workload, units, traced)
    failed += sum(len(plain.times[i]) for i, v in enumerate(verdicts) if not v.ok)
    n = len(units)

    def ratio(a: str, b: str) -> float:
        return counts.get(a, 0) / counts[b] if counts.get(b) else 0.0

    values = {name: self_s.get(span, 0.0) * 1000 / n for name, span in SELF_TIME.items()}
    values.update({k: counts.get(k, 0) for k in (
        "lattices.check_calls", "lattices.fold_calls", "network.paths", "network.cuts",
        "certify.exhaustive_certs", "dilworth.chains", "dilworth.antichains")})
    values["lattices.checks_per_fold"] = ratio("lattices.check_calls", "lattices.fold_calls")
    values["network.minimal_cut_yield"] = ratio("network.minimal_cuts", "network.minimal_cut_partitions")
    values["dilworth.antichain_yield"] = ratio("dilworth.antichains", "dilworth.antichain_masks")
    values["dilworth.known_red"] = sum(v.known_red for v in verdicts)
    metrics = {name: _metric(values[name], unit) for name, unit in PER_LAYER.items()}
    details = {
        "units": n,
        "untraced_pass_s": round(untraced_s, 4),
        "traced_pass_s": round(traced_s, 4),
        "trace_overhead_ms_per_instance": (traced_s - untraced_s) * 1000 / n,
        "counts_repeat": repeat,
        "spans": n_spans,
        "span_file": os.path.relpath(span_file, ROOT),
        "self_ms_per_instance": {k: v * 1000 / n for k, v in sorted(self_s.items())},
    }
    return metrics, 3 * n, failed, verdicts, details, repeat


# -- entry point -------------------------------------------------------------------


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    from perfbench import corpus

    import latticeflow.cli as cli

    work = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        t0 = perf_counter()
        units = corpus.BUILDERS[workload](seed, work)
        build_s = perf_counter() - t0
        if trace:
            metrics, attempted, failed, verdicts, details, repeat = run_traced(cli, workload, units)
        else:
            metrics, attempted, failed, verdicts, details = run_untraced(cli, workload, units, seconds)
            repeat = True
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details["corpus_build_s"] = round(build_s, 3)
    details["failures"] = [
        {"unit": u.name, "size": u.size, "reason": v.reason} for u, v in zip(units, verdicts) if not v.ok
    ][:10]
    print(json.dumps({"stamp": stamp(workload, seed), "trace": trace, "details": details}))
    return {"correct": failed == 0 and repeat, "attempted": attempted, "failed": failed, "metrics": metrics}


def spawn(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """(stamp line, result line) of one workload run in its own process."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
        capture_output=True, text=True, check=True,
    )
    *_, info, result = done.stdout.strip().splitlines()
    return json.loads(info), json.loads(result)


def run_all(seed: int, seconds: int, trace: bool) -> dict:
    """Every workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        info, result = spawn(workload, seed, seconds, trace)
        print(json.dumps(info))
        for name, m in result["metrics"].items():
            print(f"{workload:>9}  {name:<38} {m['value']:>14.6g} {m['unit']}")
            combined["metrics"][f"{workload}.{name}"] = m
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "latticeflow" / "cli.py").is_file():
        print(f"error: no latticeflow sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    # the program and this package become importable only here, so the
    # functions above import them where they use them
    sys.path[:0] = [str(SRC), str(ROOT)]
    import latticeflow

    if Path(latticeflow.__file__).resolve().parent != SRC / "latticeflow":
        print(f"error: imported latticeflow from {latticeflow.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
