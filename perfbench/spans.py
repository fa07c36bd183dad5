"""Span recorders installed from outside the program.

Each layer's public functions are wrapped where the calling module binds
them (``latticeflow.cli.verify_duality``, ``latticeflow.bottleneck.
enumerate_cuts``, ...), so no source file changes. A span holds its name,
start, end, parent span and instance id (the index of the unit's
execution in the traced run); spans live in flat arrays until the run
writes them out. A layer's self time is its span duration less
the time covered by its child spans, accumulated as spans close. The
lattice kernel is counted, not spanned: ``Lattice.check``, ``join_all``
and ``meet_all`` are wrapped on the base class.
"""

from __future__ import annotations

import gzip
import importlib
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module that binds the name, attribute, span name). One span name may be
# bound in several modules; every binding on the CLI path is listed.
SPANS = (
    ("latticeflow.cli", "run_command", "cli.run_command"),
    ("latticeflow.cli", "load_instance", "instances.load"),
    ("latticeflow.cli", "load_lattice", "instances.load"),
    ("latticeflow.cli", "verify_duality", "bottleneck.verify_duality"),
    ("latticeflow.dilworth", "verify_duality", "bottleneck.verify_duality"),
    ("latticeflow.bottleneck", "beta_bruteforce", "bottleneck.beta_bruteforce"),
    ("latticeflow.bottleneck", "alpha_dp", "bottleneck.alpha_dp"),
    ("latticeflow.bottleneck", "cut_capacity", "bottleneck.cut_capacity"),
    ("latticeflow.bottleneck", "path_throughput", "bottleneck.path_throughput"),
    ("latticeflow.flows", "path_throughput", "bottleneck.path_throughput"),
    ("latticeflow.cli", "max_flow_value", "flows.max_flow_value"),
    ("latticeflow.bottleneck", "enumerate_paths", "network.enumerate_paths"),
    ("latticeflow.flows", "enumerate_paths", "network.enumerate_paths"),
    ("latticeflow.dilworth", "enumerate_paths", "network.enumerate_paths"),
    ("latticeflow.bottleneck", "enumerate_cuts", "network.enumerate_cuts"),
    ("latticeflow.network", "enumerate_cuts", "network.enumerate_cuts"),
    ("latticeflow.bottleneck", "minimal_cuts", "network.minimal_cuts"),
    ("latticeflow.dilworth", "minimal_cuts", "network.minimal_cuts"),
    ("latticeflow.bottleneck", "crossing_edges", "network.crossing_edges"),
    ("latticeflow.network", "crossing_edges", "network.crossing_edges"),
    ("latticeflow.dilworth", "crossing_edges", "network.crossing_edges"),
    ("latticeflow.cli", "check_lattice_axioms", "certify.check_lattice_axioms"),
    ("latticeflow.cli", "check_distributive", "certify.check_distributive"),
    ("latticeflow.certify", "check_distributive", "certify.check_distributive"),
    ("latticeflow.cli", "find_forbidden_sublattice", "certify.find_forbidden_sublattice"),
    ("latticeflow.cli", "is_distributive", "certify.is_distributive"),
    ("latticeflow.bottleneck", "is_distributive", "certify.is_distributive"),
    ("latticeflow.flows", "is_distributive", "certify.is_distributive"),
    ("latticeflow.cli", "dilworth_direct", "dilworth.direct"),
    ("latticeflow.cli", "dilworth_via_network", "dilworth.via_network"),
    ("latticeflow.cli", "check_correspondences", "dilworth.correspondences"),
    ("latticeflow.dilworth", "auxiliary_network", "dilworth.auxiliary_network"),
    ("latticeflow.dilworth", "maximal_chains", "dilworth.maximal_chains"),
    ("latticeflow.dilworth", "maximal_antichains", "dilworth.maximal_antichains"),
)
KERNEL = (("check", "lattices.check_calls"), ("join_all", "lattices.fold_calls"), ("meet_all", "lattices.fold_calls"))


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


class Tracer:
    """Records spans and counters for one traced pass or more."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.instance_id = array("q")
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.instance = -1
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._saved: list[tuple] = []
        self.origin = perf_counter()

    # -- recording ---------------------------------------------------------

    def _observe(self, name: str, args, kwargs, result) -> None:
        """Counts taken from a span's arguments and result."""
        c = self.counts
        if name == "network.enumerate_cuts":
            c["network.cuts"] += len(result)
        elif name == "network.enumerate_paths":
            c["network.paths"] += len(result)
        elif name == "network.minimal_cuts":
            c["network.minimal_cuts"] += len(result)
            c["network.minimal_cut_partitions"] += 2 ** (len(_first_arg(args, kwargs, "net").vertices) - 2)
        elif name == "dilworth.maximal_chains":
            c["dilworth.chains"] += len(result)
        elif name == "dilworth.maximal_antichains":
            c["dilworth.antichains"] += len(result)
            c["dilworth.antichain_masks"] += 2 ** len(_first_arg(args, kwargs, "poset").elements) - 1

    def wrap(self, name: str, fn):
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        nid = self._name_id[name]
        stack = self._stack
        certify_cert = name == "certify.check_distributive"

        def spanned(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            if certify_cert:
                lattice = _first_arg(args, kwargs, "lattice")
                fresh = getattr(lattice, "_distributivity_cert", None) is None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.self_s[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                self.span_id.append(sid)
                self.parent.append(parent[0] if parent is not None else -1)
                self.instance_id.append(self.instance)
                self.name_id.append(nid)
                self.start.append(t0 - self.origin)
                self.end.append(t1 - self.origin)
            if certify_cert and fresh and result.method == "exhaustive":
                self.counts["certify.exhaustive_certs"] += 1
            self._observe(name, args, kwargs, result)
            return result

        return spanned

    def count(self, counter: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every span binding."""
        for module, attr, name in SPANS:
            mod = importlib.import_module(module)
            self._saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, self.wrap(name, getattr(mod, attr)))

    def install_kernel_counters(self) -> None:
        """Count the kernel calls too. The counters cost about as much as
        ``check`` itself, so self times are taken before this is called."""
        from latticeflow.lattices import Lattice

        for attr, counter in KERNEL:
            self._saved.append((Lattice, attr, getattr(Lattice, attr)))
            setattr(Lattice, attr, self.count(counter, getattr(Lattice, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def write(self, path: Path) -> int:
        """Write every span as a gzipped TSV row; returns the row count."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tinstance\tname\tstart_s\tend_s\n")
            names = self.names
            for row in zip(self.span_id, self.parent, self.instance_id, self.name_id, self.start, self.end):
                out.write(f"{row[0]}\t{row[1]}\t{row[2]}\t{names[row[3]]}\t{row[4]:.9f}\t{row[5]:.9f}\n")
        return len(self.span_id)
