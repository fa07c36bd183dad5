"""Replayable mutation checks: planted faults that named tests must catch.

    python3 tests/mutants.py [--only ID]

Each entry of ``MUTANTS`` names a file under ``src/``, an exact ``old``
text that occurs once in it, the ``new`` text that replaces it, and the
pytest node ids that must go red on the result. For each entry the
checkout is copied into a temporary directory (without ``.git`` and
caches), the substitution is applied there, and every node id runs in
its own ``python -m pytest`` subprocess from the copy's root. A node id
is red only when pytest exits 1 (tests failed); a collection error or
any other exit code does not count. Survivors, node ids that stayed
green or did not run, are listed, and the exit code is 1 if any
survive, else 0. The checkout itself is never written to.
``tests/test_mutants.py`` checks, in tier-1, that every ``old`` text
still occurs exactly once. pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str  # relative to the checkout's root, under src/
    old: str
    new: str
    red: tuple[str, ...]  # pytest node ids that must fail


MUTANTS = (
    Mutant(
        id="five-candidates-no-comparable-pair",
        file="src/latticeflow/certify.py",
        old=(
            "            if two_x >> y & 1:\n"
            "                continue  # x, y hold two pairs\n"
            "            if one_x >> y & 1:  # z comparable with neither\n"
            "                keep = ~(one_x | one[q])\n"
            "            else:  # z comparable one way with one of them at most\n"
            "                keep = ~(two_x | two[q] | one_x & one[q])\n"
        ),
        new=(
            "            if one_x >> y & 1:\n"
            "                continue\n"
            "            keep = ~(one_x | one[q])\n"
        ),
        red=(
            "tests/test_certify.py::TestForbiddenScanContract::test_lattice_draws",
            "tests/test_certify.py::TestForbiddenScanContract::test_corrupted_tables",
            "tests/test_certify.py::TestForbiddenScanContract::test_operations_that_do_not_commute",
        ),
    ),
    Mutant(
        id="verdict-without-lattice-test",
        file="src/latticeflow/certify.py",
        old=(
            "        elif _is_lattice(lattice):\n"
            "            verdict = _join_prime_test(lattice.tables())\n"
            "        else:\n"
            "            lattice._distributive_failure = _first_distributive_failure(lattice)\n"
            "            verdict = lattice._distributive_failure is None\n"
        ),
        new=(
            "        else:\n"
            "            verdict = _join_prime_test(lattice.tables())\n"
        ),
        red=("tests/test_certify.py::TestVerdictWithoutWitness::test_is_the_certificate_verdict_on_fresh_lattices",),
    ),
    Mutant(
        id="verdict-read-before-the-cap",
        file="src/latticeflow/certify.py",
        old=(
            "    if not structural:\n"
            "        _guard_size(lattice, max_size)\n"
            "    verdict = getattr(lattice, \"_distributive_verdict\", None)\n"
            "    if verdict is None:\n"
        ),
        new=(
            "    verdict = getattr(lattice, \"_distributive_verdict\", None)\n"
            "    if verdict is None:\n"
            "        if not structural:\n"
            "            _guard_size(lattice, max_size)\n"
        ),
        red=("tests/test_certify.py::TestVerdictWithoutWitness::test_cap_is_checked_before_the_kept_verdict",),
    ),
    Mutant(
        id="verdict-through-the-certificate",
        file="src/latticeflow/certify.py",
        old="        return _distributive(lattice)\n",
        new="        return check_distributive(lattice).distributive\n",
        red=(
            "tests/test_certify.py::TestVerdictWithoutWitness::test_network_commands_build_no_witness[pentagon]",
            "tests/test_certify.py::TestVerdictWithoutWitness::test_network_commands_build_no_witness[diamond]",
        ),
    ),
    Mutant(
        id="verdict-scan-kept-apart",
        file="src/latticeflow/certify.py",
        old="        triple, law = getattr(lattice, \"_distributive_failure\", None) or _first_distributive_failure(lattice)\n",
        new="        triple, law = _first_distributive_failure(lattice)\n",
        red=("tests/test_certify.py::TestVerdictWithoutWitness::test_tables_that_fail_the_lattice_test_are_scanned_once",),
    ),
    Mutant(
        id="pair-bounds-built-up-front",
        file="src/latticeflow/certify.py",
        old="    bits = [[0] * m for _ in range(m)]\n",
        new=(
            "    bits = [[0] * m for _ in range(m)]\n"
            "    for p, q in itertools.combinations(range(m), 2):\n"
            "        join, meet = bounds(members[p], members[q])\n"
            "        bits[p][q] = 1 << members[p] | 1 << members[q] | 1 << join | 1 << meet\n"
        ),
        red=(
            "tests/test_certify.py::TestForbiddenScanWork::test_classifications_and_native_calls[chain2-x-chain3-x-chain4]",
            "tests/test_certify.py::TestForbiddenScanWork::test_classifications_and_native_calls[chain4-x-chain5]",
        ),
    ),
    Mutant(
        id="dispatch-gets-the-whole-argv",
        file="src/latticeflow/cli.py",
        old="    args = command.parse_args(argv[1:])\n",
        new="    args = command.parse_args(argv)\n",
        red=(
            "tests/test_cli.py::TestDispatch::test_parses_as_the_full_parser[bottleneck]",
            "tests/test_cli.py::TestDispatch::test_parses_as_the_full_parser[maxflow]",
            "tests/test_cli.py::TestDispatch::test_parses_as_the_full_parser[repeated]",
        ),
    ),
    Mutant(
        id="dispatch-drops-the-command",
        file="src/latticeflow/cli.py",
        old="    args.command = argv[0]\n",
        new="",
        red=(
            "tests/test_cli.py::TestDispatch::test_parses_as_the_full_parser[dilworth]",
            "tests/test_cli.py::TestDispatch::test_a_command_is_parsed_by_its_subparser_alone",
        ),
    ),
    Mutant(
        id="edge-from-not-checked",
        file="src/latticeflow/instances.py",
        old="            u = _name(_need(e, \"from\", \"edges\", i), \"edges\", i, \"from\")\n",
        new="            u = _need(e, \"from\", \"edges\", i)\n",
        red=(
            "tests/test_instances.py::test_an_input_error_is_one_line_naming_its_path[edge-end-not-a-name]",
            "tests/test_cli.py::TestErrors::test_malformed_file_exits_one[bottleneck-data2]",
        ),
    ),
    Mutant(
        id="edge-path-names-the-next-edge",
        file="src/latticeflow/instances.py",
        old="_element(lattice, _need(e, \"capacity\", \"edges\", i), \"edges\", i, \"capacity\")",
        new="_element(lattice, _need(e, \"capacity\", \"edges\", i), \"edges\", i + 1, \"capacity\")",
        red=(
            "tests/test_instances.py::TestParseInstance::test_capacity_literal_outside_lattice_names_edge",
            "tests/test_instances.py::test_an_input_error_is_one_line_naming_its_path[powerset-literal]",
            "tests/test_instances.py::test_an_input_error_is_one_line_naming_its_path[interval-literal]",
        ),
    ),
    # the correspondence round trip on bitmasks: (a) to (d2) of the change
    # that put it on element and edge masks
    Mutant(
        id="sink-reach-recomputed-past-the-sink",
        file="src/latticeflow/network.py",
        old="        grown_reach = reach_sink(reach, grown, i + 1) if i < sink else reach\n",
        new="        grown_reach = reach_sink(reach, grown, i + 1)\n",
        red=(
            "tests/test_network.py::TestEnumerationContract::test_minimal_cuts_match_reference_in_order",
            "tests/test_network.py::TestEnumerationContract::test_minimal_cut_masks_equal_the_walk_in_order",
            "tests/test_network.py::TestEnumerationContract::test_cut_side_matches_reference[lenient]",
            "tests/test_acceptance.py::test_criterion_9_dead_end_handling",
        ),
    ),
    Mutant(
        id="tails-read-off-the-heads",
        file="src/latticeflow/dilworth.py",
        old="    elem_outs = [(1 << i, outs[x]) for i, x in enumerate(elems)]\n",
        new="    elem_outs = [(1 << i, ins[x]) for i, x in enumerate(elems)]\n",
        red=(
            "tests/test_dilworth.py::TestCorrespondenceContract::test_random_posets_match_reference",
            "tests/test_dilworth.py::TestCorrespondenceContract::test_pinned_posets_match_reference[total-order]",
            "tests/test_dilworth.py::TestCorrespondences::test_total_orders_roundtrip",
            "tests/test_dilworth.py::TestCorrespondencesGoRed::test_a_missing_antichain",
        ),
    ),
    Mutant(
        id="antichain-test-skips-its-lowest-bit",
        file="src/latticeflow/dilworth.py",
        old="        rest = mask\n",
        new="        rest = mask & mask - 1\n",
        red=(
            "tests/test_dilworth.py::TestCorrespondenceContract::test_random_posets_match_reference",
            "tests/test_dilworth.py::TestCorrespondenceContract::test_pinned_posets_match_reference[n-poset]",
            "tests/test_dilworth.py::TestCorrespondenceContract::test_pinned_posets_match_reference[transversal-gap]",
        ),
    ),
    Mutant(
        id="cut-side-without-the-minimal-elements",
        file="src/latticeflow/dilworth.py",
        old="    return frozenset({net.source, *(poset.elements[i] for i in set_bits(below))})\n",
        new="    return frozenset({net.source, *(poset.elements[i] for i in set_bits(below) if poset._down[i] != 1 << i)})\n",
        red=(
            "tests/test_dilworth.py::TestCorrespondences::test_total_orders_roundtrip",
            "tests/test_dilworth.py::TestCorrespondences::test_antichain_poset_single_cut",
            "tests/test_dilworth.py::TestCorrespondenceContract::test_random_posets_match_reference",
        ),
    ),
    Mutant(
        id="cut-side-without-its-middle",
        file="src/latticeflow/dilworth.py",
        old="    return frozenset({net.source, *(poset.elements[i] for i in set_bits(below))})\n",
        new=(
            "    ends = sum(1 << poset._index[a] for a in antichain) | sum(1 << i for i, d in enumerate(poset._down) if d == 1 << i)\n"
            "    return frozenset({net.source, *(poset.elements[i] for i in set_bits(below & ends))})\n"
        ),
        red=(
            "tests/test_dilworth.py::TestCorrespondences::test_total_orders_roundtrip",
            "tests/test_dilworth.py::TestDilworthDirect::test_transversal_gap_poset_sides_differ",
            "tests/test_acceptance.py::test_criterion_8_dilworth_fuzz",
        ),
    ),    # one cut lister for both modes
    Mutant(
        id="strict-cut-side-avoids-the-source-edges",
        file="src/latticeflow/bottleneck.py",
        old="    first = minimal_cut_masks(net, 0)\n",
        new=(
            "    source_edges = sum(1 << k for k, e in enumerate(net.edges) if e[0] == net.source)\n"
            "    first = minimal_cut_masks(net, source_edges if mode == \"strict\" else 0)\n"
        ),
        red=(
            "tests/test_network.py::TestEnumerationContract::test_cut_side_matches_reference[strict]",
            "tests/test_bottleneck.py::TestDeadEnds::test_beta_all_cuts_equals_beta_minimal_cuts",
            "tests/test_acceptance.py::test_criterion_9_dead_end_handling",
        ),
    ),
    Mutant(
        id="cut-witness-is-the-last-attaining-cut",
        file="src/latticeflow/bottleneck.py",
        old="    witness = next((first[m] for m, v in value_masks.items() if capacity[v] == beta), None)\n",
        new="    witness = next((first[m] for m, v in reversed(value_masks.items()) if capacity[v] == beta), None)\n",
        red=(
            "tests/test_network.py::TestEnumerationContract::test_cut_side_matches_reference[strict]",
            "tests/test_network.py::TestEnumerationContract::test_cut_side_matches_reference[lenient]",
            "tests/test_dilworth.py::TestEnumerationContract::test_auxiliary_network_cut_side_matches_reference",
        ),
    ),
    Mutant(
        id="strict-count-is-the-minimal-cuts",
        file="src/latticeflow/bottleneck.py",
        old="    n_cuts = net.n_partitions if mode == \"strict\" else len(first)\n",
        new="    n_cuts = len(first)\n",
        red=(
            "tests/test_network.py::TestEnumerationContract::test_cut_side_matches_reference[strict]",
            "tests/test_bottleneck.py::TestVerifyDuality::test_pentagon_report",
        ),
    ),
    Mutant(
        id="poset-cap-after-the-order",
        file="src/latticeflow/instances.py",
        old="        if len(elements) > DEFAULT_MAX_POSET and is_distributive(lattice) is True:\n",
        new="        if False:\n",
        red=(
            "tests/test_dilworth.py::TestDilworthViaNetwork::test_a_chain_past_the_cap_is_refused_before_its_order_is_built[direct]",
            "tests/test_dilworth.py::TestDilworthViaNetwork::test_a_chain_past_the_cap_is_refused_before_its_order_is_built[network]",
        ),
    ),
    # criterion 8's plants: the antichain side folded with meet, and the
    # network route reporting the direct antichain fold as its cut side
    Mutant(
        id="antichain-side-folds-with-meet",
        file="src/latticeflow/dilworth.py",
        old="    return poset.lattice.join_all(poset.weights[x] for x in antichain)\n",
        new="    return poset.lattice.meet_all(poset.weights[x] for x in antichain)\n",
        red=(
            "tests/test_acceptance.py::test_criterion_8_dilworth_fuzz",
            "tests/test_dilworth.py::TestDilworthDirect::test_competency_fixture_values",
        ),
    ),
    Mutant(
        id="network-rhs-is-the-antichain-fold",
        file="src/latticeflow/dilworth.py",
        old="        rhs=report.beta,\n",
        new="        rhs=dilworth_direct(poset).rhs,\n",
        red=(
            "tests/test_acceptance.py::test_criterion_8_dilworth_fuzz",
            "tests/test_dilworth.py::TestDilworthViaNetwork::test_n_poset_network_side_stays_self_dual",
        ),
    ),
    # TestCorrespondencesGoRed's dropped path and missing antichain, in the
    # program (its two side plants are the cut-side entries above)
    Mutant(
        id="correspondences-drop-a-path",
        file="src/latticeflow/dilworth.py",
        old="    paths = enumerate_paths(net)\n",
        new="    paths = enumerate_paths(net)[1:]\n",
        red=(
            "tests/test_acceptance.py::test_criterion_8_dilworth_fuzz",
            "tests/test_dilworth.py::TestCorrespondences::test_total_orders_roundtrip",
            "tests/test_dilworth.py::TestCorrespondenceContract::test_random_posets_match_reference",
        ),
    ),
    Mutant(
        id="correspondences-miss-an-antichain",
        file="src/latticeflow/dilworth.py",
        old="    antichains = poset.antichains  # its element cap applies before any cut is listed\n",
        new="    antichains = poset.antichains[1:]\n",
        red=(
            "tests/test_dilworth.py::TestCorrespondences::test_total_orders_roundtrip",
            "tests/test_dilworth.py::TestCorrespondenceContract::test_random_posets_match_reference",
        ),
    ),
    # random-check's plant: the threshold cut side answers the top
    Mutant(
        id="threshold-side-answers-the-top",
        file="src/latticeflow/bottleneck.py",
        old="    return _threshold_side(net, cap)[1]\n",
        new="    return cap.lattice.top()\n",
        red=(
            "tests/test_cli.py::TestRandomCheck::test_seeded_run_passes",
            "tests/test_acceptance.py::test_criterion_4_distributive_fuzz",
            "tests/test_bottleneck.py::TestThresholdSide::test_witness_and_value_on_a_chain",
        ),
    ),
)

_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks", ".bench_*")


def apply(mutant: Mutant, root: Path) -> None:
    """Substitute ``mutant.new`` for its ``old`` text in the tree at ``root``."""
    path = root / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.id}: the old text occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))


def survivors(mutant: Mutant) -> list[str]:
    """The node ids that do not go red on ``mutant``, applied to a copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=_IGNORE)
        apply(mutant, copy)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        left = []
        for node in mutant.red:
            run = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", node],
                cwd=copy, env=env, capture_output=True, text=True,
            )
            if run.returncode != 1:
                left.append(f"{node} (exit {run.returncode})")
        return left


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", metavar="ID", help="run one entry")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.only in (None, m.id)]
    if not chosen:
        parser.error(f"no mutant {args.only!r}")
    failed = False
    for mutant in chosen:
        left = survivors(mutant)
        print(f"{mutant.id}: {'red' if not left else 'SURVIVED'} ({len(mutant.red) - len(left)}/{len(mutant.red)} red)")
        for node in left:
            print(f"  survivor: {node}")
        failed |= bool(left)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
