"""Command-line surface.

Exit codes: 0 success, 1 usage or input error, 2 verified duality
failure on a certified-distributive instance (or a gallery/random-check
mismatch) -- that is a theorem violation and signals an implementation
bug, which is what makes fuzzing in CI meaningful.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
from pathlib import Path

from .bottleneck import alpha_dp, beta_threshold, cut_side, first_path_at_least, verify_duality
from .certify import DEFAULT_MAX_UNIVERSE, check_distributive, check_lattice_axioms, find_forbidden_sublattice, is_distributive
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
from .flows import _feasibility, max_flow_value
from .gallery import gallery_expected, gallery_names, gallery_source, run_gallery_entry
from .generators import random_instance
from .instances import Instance, load_instance, load_lattice, parse_flow, read_json
from .network import DEFAULT_MAX_CUT_VERTICES, DEFAULT_MAX_PATHS, count_paths

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VIOLATION = 2  # also when check-lattice's certificate and oracle disagree

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


def _at_least(low: int, high: int | None = None):
    """An argparse type for an integer of at least ``low`` and, when
    ``high`` is given, at most ``high``."""

    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        if high is not None and n > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {n}")
        return n

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 means theorem violation here
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built on first use and shared by every later call,
    so callers parse with it and never change it."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI parser and its subparsers by command name."""
    parser = _Parser(prog="latticeflow", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check-lattice", help="axiom check and distributivity certificate")
    p.add_argument("file", help="lattice spec file, or instance file with a lattice")
    p.add_argument("--max-size", type=_at_least(0), default=DEFAULT_MAX_UNIVERSE, help="cap for exhaustive checks")
    add_format(p)

    p = sub.add_parser("bottleneck", help="both sides of path-cut duality")
    p.add_argument("file", help="network instance file")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--oracle", action="store_true", help="force brute-force path side")
    g.add_argument("--dp", action="store_true", help="force dynamic-program path side")
    p.add_argument("--unsafe-dp", action="store_true", help="allow the DP on uncertified lattices")
    p.add_argument("--mode", choices=("strict", "lenient"), default="strict")
    p.add_argument("--witness", action="store_true", help="show optimal path/cut in text output")
    p.add_argument("--max-paths", type=_at_least(0), default=DEFAULT_MAX_PATHS)
    p.add_argument("--max-vertices", type=_at_least(0), default=DEFAULT_MAX_CUT_VERTICES)
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
    p.add_argument("--instances", type=_at_least(0), default=100)
    p.add_argument("--max-vertices", type=_at_least(2, DEFAULT_MAX_CUT_VERTICES), default=10)
    add_format(p)

    return parser, sub.choices


def _load(args, payload: str) -> Instance:
    """The instance in ``args.file``, which must hold a ``payload`` ("network" or "poset")."""
    inst = load_instance(args.file)
    if inst.payload != payload:
        raise InstanceError(f"{args.command} needs a {payload} instance, got a {inst.payload}")
    return inst


def _verdict(distributive: bool | None, failed: bool) -> int:
    """Exit 2 exactly when an identity failed on a certified-distributive lattice."""
    return EXIT_VIOLATION if distributive is True and failed else EXIT_OK


def _json_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, in one pass: one
    join per container, where the standard library's indented encoder
    runs in pure Python and yields every token separately. Strings go
    through its C escaper, those inside a container in place, with no
    call per string; non-finite floats and keys that are not strings are
    written as it writes them."""
    if isinstance(value, str):
        return _escape(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = [
            _json_key(k) + ": " + (_escape(v) if isinstance(v, str) else _json_text(v, inner))
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_escape(v) if isinstance(v, str) else _json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_escape = json.encoder.encode_basestring_ascii


def _json_key(key) -> str:
    if isinstance(key, str):
        return _escape(key)
    if key is None or isinstance(key, (int, float)):  # a bool is an int
        return _escape(_json_text(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit(report: dict, fmt: str, text_renderer) -> None:
    print(_json_text(report) if fmt == "json" else text_renderer(report))


def _cmd_check_lattice(args) -> tuple[dict, int]:
    lattice = load_lattice(args.file)
    result: dict = {"lattice": lattice.describe(), "size": lattice.size()}
    code = EXIT_OK
    try:
        axioms = check_lattice_axioms(lattice, args.max_size)
        result["axioms"] = axioms.to_dict(lattice)
    except UniverseTooLarge as exc:
        axioms = None
        result["axioms"] = {"skipped": str(exc)}
    try:
        cert = check_distributive(lattice, args.max_size)
        dist = result["distributivity"] = cert.to_dict(lattice)
        wit = find_forbidden_sublattice(lattice, args.max_size)
        if wit is not None and "forbidden_sublattice" not in dist:
            dist["forbidden_sublattice"] = wit.to_dict(lattice)
        # on a table that breaks the axioms the two verdicts may differ
        if axioms is not None and axioms.ok and (wit is None) != cert.distributive:
            found = "no forbidden sublattice" if wit is None else f"an {wit.label} sublattice"
            dist["oracle_disagreement"] = f"the five-subset scan found {found}"
            code = EXIT_VIOLATION
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
            if "oracle_disagreement" in dist:
                lines.append(f"  DISAGREEMENT: {dist['oracle_disagreement']}")
        return "\n".join(lines)

    _emit(result, args.format, render)
    return result, code


def _cmd_bottleneck(args) -> tuple[dict, int]:
    inst = _load(args, "network")
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
    return result, _verdict(distributive, not report.equal)


def _cmd_maxflow(args) -> tuple[dict, int]:
    inst = _load(args, "network")
    net, cap, lat = inst.network, inst.capacities, inst.lattice
    value = max_flow_value(net, cap, allow_non_distributive=args.unsafe_dp)
    cut_method, _, _, beta = cut_side(net, cap, args.mode, DEFAULT_MAX_CUT_VERTICES)
    result = {
        "instance": inst.name,
        "max_flow_value": lat.literal(value),
        "min_cut_value": lat.literal(beta),
        "min_cut_method": cut_method,
        "equal": value == beta,
    }
    if args.check_flow:
        check = _feasibility(net, cap, parse_flow(read_json(args.check_flow), net, lat))
        result["checked_flow"] = check.to_dict(cap)
        if not check.ok:
            result["checked_flow"]["warning"] = "flow is infeasible; value computed anyway"

    def render(r: dict) -> str:
        lines = [
            f"instance: {r['instance'] or args.file}",
            f"max flow value: {lat.format(value)}",
            f"min cut value:  {lat.format(beta)}  [{cut_method}]",
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
    return result, _verdict(is_distributive(lat), not result["equal"])


def _cmd_dilworth(args) -> tuple[dict, int]:
    inst = _load(args, "poset")
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
    failed = any(r is not None and not r.equal for r in (direct, via)) or agree is False
    return result, _verdict(is_distributive(lat), failed)


def _cmd_gallery(args) -> tuple[dict, int]:
    if args.name:
        try:
            gallery_expected(args.name)
        except KeyError as exc:
            raise InstanceError(exc.args[0]) from None
    names = [args.name] if args.name else gallery_names()
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
        text = os.environ.get("RANDOM_CHECK_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise _UsageError(f"RANDOM_CHECK_SEED must be an integer, got {text!r}") from None
    rng = random.Random(seed)
    failures = []
    for i in range(args.instances):
        net, cap = random_instance(rng, max_vertices=args.max_vertices)
        oracle = verify_duality(net, cap, method="bruteforce")  # listed paths and minimal cuts
        alpha, beta = oracle.alpha, oracle.beta
        dp = alpha_dp(net, cap)
        dp_paths, dp_path = count_paths(net), first_path_at_least(net, cap, dp)
        flow = max_flow_value(net, cap)
        threshold = beta_threshold(net, cap)
        listed = (oracle.n_paths, oracle.optimal_path)
        if not (alpha == beta == dp == flow == threshold and (dp_paths, dp_path) == listed):
            failures.append(
                {
                    "index": i,
                    "lattice": cap.lattice.describe(),
                    "alpha": cap.lattice.literal(alpha),
                    "beta": cap.lattice.literal(beta),
                    "alpha_dp": cap.lattice.literal(dp),
                    "max_flow": cap.lattice.literal(flow),
                    "beta_threshold": cap.lattice.literal(threshold),
                    "paths": oracle.n_paths,
                    "paths_dp": dp_paths,
                    "optimal_path": oracle.optimal_path,
                    "optimal_path_dp": dp_path,
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


def _parse(argv) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``. When ``argv`` starts with a
    command, its subparser alone parses the rest, as the full parser
    would hand it on; any other ``argv`` goes through the full parser."""
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def run_command(argv) -> tuple[dict, int]:
    """Parse and run one command; returns (report, exit code) and prints
    the formatted report to stdout."""
    try:
        args = _parse(argv)
        return _HANDLERS[args.command](args)
    except (_UsageError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return {"error": str(exc)}, EXIT_INPUT


def main(argv=None) -> int:
    try:
        _, code = run_command(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    return code


if __name__ == "__main__":
    sys.exit(main())
