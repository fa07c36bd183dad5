"""Command-line surface.

Exit codes: 0 success, 1 usage or input error, 2 verified duality
failure on a certified-distributive instance (or a gallery/random-check
mismatch) -- that is a theorem violation and signals an implementation
bug, which is what makes fuzzing in CI meaningful.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

from .bottleneck import verify_duality
from .certify import check_distributive, check_lattice_axioms, find_forbidden_sublattice, is_distributive
from .dilworth import check_correspondences, dilworth_direct, dilworth_via_network
from .dot import emit_dot
from .errors import (
    CapExceeded,
    DistributivityRequired,
    InstanceError,
    MismatchError,
    NoBottomError,
    UniverseTooLarge,
)
from .flows import flow_value, is_feasible_flow, max_flow_value
from .gallery import gallery_names, gallery_source, run_gallery_entry
from .generators import random_instance
from .instances import load_instance, load_lattice, parse_flow, read_json
from .network import DEFAULT_MAX_CUT_VERTICES, DEFAULT_MAX_PATHS

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2

_INPUT_ERRORS = (
    InstanceError,
    MismatchError,
    CapExceeded,
    UniverseTooLarge,
    DistributivityRequired,
    NoBottomError,
    OSError,
)


class _UsageError(Exception):
    pass


def _vertex_count(text: str) -> int:
    """A network size of at least two vertices (source and sink)."""
    n = int(text)
    if n < 2:
        raise argparse.ArgumentTypeError(f"must be at least 2, got {n}")
    return n


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 means theorem violation here
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="latticeflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check-lattice", help="axiom check and distributivity certificate")
    p.add_argument("file", help="lattice spec file, or instance file with a lattice")
    p.add_argument("--max-size", type=int, default=512, help="cap for exhaustive checks")
    add_format(p)

    p = sub.add_parser("bottleneck", help="both sides of path-cut duality")
    p.add_argument("file", help="network instance file")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--oracle", action="store_true", help="force brute-force path side")
    g.add_argument("--dp", action="store_true", help="force dynamic-program path side")
    p.add_argument("--unsafe-dp", action="store_true", help="allow the DP on uncertified lattices")
    p.add_argument("--mode", choices=("strict", "lenient"), default="strict")
    p.add_argument("--witness", action="store_true", help="show optimal path/cut in text output")
    p.add_argument("--max-paths", type=int, default=DEFAULT_MAX_PATHS)
    p.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_CUT_VERTICES)
    p.add_argument("--dot", metavar="FILE", help="write a DOT rendering with witnesses")
    add_format(p)

    p = sub.add_parser("maxflow", help="maximal flow value and minimal cut value")
    p.add_argument("file", help="network instance file")
    p.add_argument("--check-flow", metavar="FLOWFILE", help="validate a user-supplied flow")
    p.add_argument("--mode", choices=("strict", "lenient"), default="strict")
    p.add_argument("--unsafe-dp", action="store_true", help="allow uncertified lattices")
    add_format(p)

    p = sub.add_parser("dilworth", help="chain/antichain duality on a weighted poset")
    p.add_argument("file", help="poset instance file")
    p.add_argument("--method", choices=("direct", "network", "both"), default="both")
    p.add_argument("--correspondences", action="store_true", help="check chain/path and antichain/cut bijections")
    p.add_argument("--dot", metavar="FILE", help="write a DOT Hasse diagram with witnesses")
    add_format(p)

    p = sub.add_parser("gallery", help="run built-in examples against recorded values")
    p.add_argument("name", nargs="?", help=f"one of: {', '.join(gallery_names())}")
    p.add_argument("--export", metavar="DIR", help="write the gallery JSON files to DIR")
    add_format(p)

    p = sub.add_parser("random-check", help="fuzz duality on random distributive instances")
    p.add_argument("--seed", type=int, default=None, help="RNG seed (or RANDOM_CHECK_SEED)")
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--max-vertices", type=_vertex_count, default=10)
    add_format(p)

    return parser


def _emit(report: dict, fmt: str, text_renderer) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        print(text_renderer(report))


def _cmd_check_lattice(args) -> tuple[dict, int]:
    lattice = load_lattice(args.file)
    result: dict = {"lattice": lattice.describe(), "size": lattice.size()}
    try:
        axioms = check_lattice_axioms(lattice, args.max_size)
        result["axioms"] = axioms.to_dict(lattice)
    except UniverseTooLarge as exc:
        result["axioms"] = {"skipped": str(exc)}
    try:
        cert = check_distributive(lattice, args.max_size)
        result["distributivity"] = cert.to_dict(lattice)
        wit = find_forbidden_sublattice(lattice, args.max_size)
        if wit is not None and "forbidden_sublattice" not in result["distributivity"]:
            result["distributivity"]["forbidden_sublattice"] = wit.to_dict(lattice)
    except UniverseTooLarge as exc:
        result["distributivity"] = {"skipped": str(exc)}

    def render(r: dict) -> str:
        lines = [f"lattice: {r['lattice']}  ({r['size']} elements)"]
        ax = r["axioms"]
        if "skipped" in ax:
            lines.append(f"axioms: skipped ({ax['skipped']})")
        elif ax["ok"]:
            lines.append("axioms: all pass")
        else:
            lines.append(f"axioms: {len(ax['violations'])} violation(s)")
            for v in ax["violations"]:
                lines.append(f"  {v['law']}: {v['message']}")
        dist = r["distributivity"]
        if "skipped" in dist:
            lines.append(f"distributivity: skipped ({dist['skipped']})")
        else:
            lines.append(f"distributivity: {dist['verdict']}  [{dist['method']}]")
            if "witness_triple" in dist:
                lines.append(f"  failing triple: {dist['witness_triple']}  ({dist['failed_law']})")
            if "forbidden_sublattice" in dist:
                sub = dist["forbidden_sublattice"]
                lines.append(f"  forbidden sublattice: {sub['label']} via {sub['embedding']}")
        return "\n".join(lines)

    _emit(result, args.format, render)
    return result, EXIT_OK


def _cmd_bottleneck(args) -> tuple[dict, int]:
    inst = load_instance(args.file)
    if inst.network is None:
        raise InstanceError("bottleneck needs a network instance, got a poset")
    method = "bruteforce" if args.oracle else "dp" if args.dp else "auto"
    report = verify_duality(
        inst.network,
        inst.capacities,
        mode=args.mode,
        method=method,
        max_paths=args.max_paths,
        max_vertices=args.max_vertices,
        allow_non_distributive=args.unsafe_dp,
    )
    result = report.to_dict(inst.network, inst.capacities)
    result["instance"] = inst.name
    distributive = is_distributive(inst.lattice)
    result["lattice_distributive"] = distributive
    if args.dot:
        Path(args.dot).write_text(emit_dot(inst, report))

    lat = inst.lattice

    def render(r: dict) -> str:
        lines = [
            f"instance: {r['instance'] or args.file}",
            f"lattice: {lat.describe()}  (distributive: {r['lattice_distributive']})",
            f"alpha (path side): {lat.format(report.alpha)}  [{r['alpha_method']}]",
            f"beta  (cut side):  {lat.format(report.beta)}  [{r['beta_method']}]",
            f"equal: {r['equal']}",
            f"paths: {r['paths']}  cuts: {r['cuts']}",
        ]
        if args.witness:
            lines.append(f"optimal path: {' -> '.join(r['optimal_path']) if r['optimal_path'] else 'none'}")
            if r["optimal_cut"]:
                side = ",".join(r["optimal_cut"]["source_side"])
                lines.append(f"optimal cut:  S = {{{side}}}")
            else:
                lines.append("optimal cut:  none")
        return "\n".join(lines)

    _emit(result, args.format, render)
    code = EXIT_VIOLATION if (distributive is True and not report.equal) else EXIT_OK
    return result, code


def _cmd_maxflow(args) -> tuple[dict, int]:
    inst = load_instance(args.file)
    if inst.network is None:
        raise InstanceError("maxflow needs a network instance, got a poset")
    net, cap, lat = inst.network, inst.capacities, inst.lattice
    value = max_flow_value(net, cap, allow_non_distributive=args.unsafe_dp)
    from .bottleneck import beta_bruteforce

    beta = beta_bruteforce(net, cap, mode=args.mode)
    result = {
        "instance": inst.name,
        "max_flow_value": lat.literal(value),
        "min_cut_value": lat.literal(beta),
        "equal": value == beta,
    }
    if args.check_flow:
        phi = parse_flow(read_json(args.check_flow), net, lat)
        check = is_feasible_flow(net, cap, phi)
        result["checked_flow"] = check.to_dict(cap)
        result["checked_flow"]["value"] = lat.literal(
            flow_value(net, cap, phi, require_feasible=False)
        )
        if not check.ok:
            result["checked_flow"]["warning"] = "flow is infeasible; value computed anyway"
    distributive = is_distributive(lat)

    def render(r: dict) -> str:
        lines = [
            f"instance: {r['instance'] or args.file}",
            f"max flow value: {lat.format(value)}",
            f"min cut value:  {lat.format(beta)}",
            f"equal: {r['equal']}",
        ]
        if "checked_flow" in r:
            cf = r["checked_flow"]
            lines.append(f"checked flow: feasible={cf['ok']}  value={cf['value']}")
            for v in cf["capacity_violations"]:
                lines.append(f"  capacity violated on {v['edge']}: {v['value']} > {v['capacity']}")
            for v in cf["conservation_violations"]:
                lines.append(f"  conservation violated at {v['vertex']}: in={v['in']} out={v['out']}")
        return "\n".join(lines)

    _emit(result, args.format, render)
    code = EXIT_VIOLATION if (distributive is True and not result["equal"]) else EXIT_OK
    return result, code


def _cmd_dilworth(args) -> tuple[dict, int]:
    inst = load_instance(args.file)
    if inst.poset is None:
        raise InstanceError("dilworth needs a poset instance, got a network")
    lat = inst.lattice
    result: dict = {"instance": inst.name}
    direct = via = None
    if args.method in ("direct", "both"):
        direct = dilworth_direct(inst.poset)
        result["direct"] = direct.to_dict(lat)
    if args.method in ("network", "both"):
        via = dilworth_via_network(inst.poset)
        result["network"] = via.to_dict(lat)
    agree = None
    if direct is not None and via is not None:
        agree = (direct.lhs, direct.rhs) == (via.lhs, via.rhs)
        result["methods_agree"] = agree
    if args.correspondences:
        result["correspondences"] = check_correspondences(inst.poset).to_dict()
    if args.dot:
        Path(args.dot).write_text(emit_dot(inst, direct or via))

    def render(r: dict) -> str:
        lines = [f"instance: {r['instance'] or args.file}"]
        for key, rep, rhs_side in (("direct", direct, "antichain"), ("network", via, "cut")):
            if rep is None:
                continue
            lines.append(
                f"{key}: chain side = {lat.format(rep.lhs)}, {rhs_side} side = "
                f"{lat.format(rep.rhs)}, equal = {rep.equal}"
            )
        if direct is not None:
            for chain, value in zip(direct.chains, direct.chain_values):
                lines.append(f"  chain {' < '.join(chain)}: {lat.format(value)}")
        if agree is not None:
            lines.append(f"methods agree: {agree}")
        if "correspondences" in r:
            c = r["correspondences"]
            lines.append(
                f"correspondences: ok={c['ok']}  chains={c['chains']} paths={c['paths']}  "
                f"antichains={c['antichains']} cuts={c['poset_edge_minimal_cuts']}"
            )
            for p in c["problems"]:
                lines.append(f"  problem: {p}")
        return "\n".join(lines)

    _emit(result, args.format, render)
    reports = [r for r in (direct, via) if r is not None]
    violation = is_distributive(lat) is True and (
        any(not r.equal for r in reports) or agree is False
    )
    return result, EXIT_VIOLATION if violation else EXIT_OK


def _cmd_gallery(args) -> tuple[dict, int]:
    names = [args.name] if args.name else gallery_names()
    for n in names:
        if n not in gallery_names():
            raise InstanceError(f"unknown gallery entry {n!r}; known: {', '.join(gallery_names())}")
    if args.export:
        out = Path(args.export)
        out.mkdir(parents=True, exist_ok=True)
        for n in names:
            (out / f"{n}.json").write_text(gallery_source(n))
    entries = []
    all_ok = True
    for n in names:
        entry, ok = run_gallery_entry(n)
        entries.append(entry)
        all_ok = all_ok and ok
    result = {"entries": entries, "ok": all_ok}

    def render(r: dict) -> str:
        lines = []
        for e in r["entries"]:
            status = "ok" if e["ok"] else f"MISMATCH on {', '.join(e['mismatches'])}"
            lines.append(f"{e['name']}: {status}")
        return "\n".join(lines)

    _emit(result, args.format, render)
    return result, EXIT_OK if all_ok else EXIT_VIOLATION


def _cmd_random_check(args) -> tuple[dict, int]:
    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("RANDOM_CHECK_SEED", "0"))
    rng = random.Random(seed)
    from .bottleneck import alpha_bruteforce, alpha_dp, beta_bruteforce
    from .flows import max_flow_value as mfv

    failures = []
    for i in range(args.instances):
        net, cap = random_instance(rng, max_vertices=args.max_vertices)
        alpha = alpha_bruteforce(net, cap)
        beta = beta_bruteforce(net, cap)
        dp = alpha_dp(net, cap)
        flow = mfv(net, cap)
        if not (alpha == beta == dp == flow):
            failures.append(
                {
                    "index": i,
                    "lattice": cap.lattice.describe(),
                    "alpha": cap.lattice.literal(alpha),
                    "beta": cap.lattice.literal(beta),
                    "alpha_dp": cap.lattice.literal(dp),
                    "max_flow": cap.lattice.literal(flow),
                }
            )
    result = {
        "seed": seed,
        "instances": args.instances,
        "passed": args.instances - len(failures),
        "failed": len(failures),
        "failures": failures[:10],
    }

    def render(r: dict) -> str:
        line = f"random-check: {r['passed']}/{r['instances']} instances satisfied duality (seed {r['seed']})"
        if r["failed"]:
            line += f"\nFAILURES: {r['failed']} (first {len(r['failures'])} shown in JSON output)"
        return line

    _emit(result, args.format, render)
    return result, EXIT_OK if not failures else EXIT_VIOLATION


_HANDLERS = {
    "check-lattice": _cmd_check_lattice,
    "bottleneck": _cmd_bottleneck,
    "maxflow": _cmd_maxflow,
    "dilworth": _cmd_dilworth,
    "gallery": _cmd_gallery,
    "random-check": _cmd_random_check,
}


def run_command(argv) -> tuple[dict, int]:
    """Parse and run one command; returns (report, exit code) and prints
    the formatted report to stdout."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {"error": str(exc)}, EXIT_INPUT
    started = time.perf_counter()
    try:
        report, code = _HANDLERS[args.command](args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {"error": str(exc)}, EXIT_INPUT
    report["timing_s"] = round(time.perf_counter() - started, 6)
    return report, code


def main(argv=None) -> int:
    try:
        _, code = run_command(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    return code


if __name__ == "__main__":
    sys.exit(main())
