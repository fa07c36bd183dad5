"""Run every workload on a range of seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload and end-to-end metric it records the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median: the figures a
change is compared against. Every run's stamp line is kept, and one
traced run per workload (on the first seed) adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench.run import WORKLOADS, spawn  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    report = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in args.seeds:
            info, result = spawn(workload, seed, args.seconds, False)
            runs.append({"stamp": info["stamp"], "correct": result["correct"], "failed": result["failed"],
                         "attempted": result["attempted"], "known_red": info["details"]["dilworth.known_red"],
                         "latency": info["details"]["latency"]})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, result["correct"], {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        info, traced = spawn(workload, args.seeds[0], args.seconds, True)
        report["workloads"][workload] = {
            "metrics": {name: summarise(v) for name, v in values.items()},
            "runs": runs,
            "traced": {"seed": args.seeds[0], "correct": traced["correct"], "details": info["details"],
                       "per_layer": {k: m["value"] for k, m in traced["metrics"].items()}},
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
