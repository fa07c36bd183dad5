"""The benchmark's seed-1 corpora are pinned by one digest.

The benchmark compares commits on corpora that ``perfbench/corpus.py``
builds from the program's own generators, lattice element order and
``spec()`` output. A change there would silently change what the benchmark
measures, so it must fail here. The digest covers every unit's name, size
and commands (with the work directory taken out) and the bytes of every
file written, for all three workloads.

To re-record after an intended change of the corpora:
``PYTHONPATH=src python tests/test_benchmark_inputs.py``
"""

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.corpus import BUILDERS  # noqa: E402

SEED = 1
DIGEST = "e47a0f10f10d14184102e488beffe3223a02f3b47b0cf92d8d5b8bb6a9249268"


def corpus_digest(seed: int) -> str:
    h = hashlib.sha256()
    for workload, build in BUILDERS.items():
        with tempfile.TemporaryDirectory() as tmp:
            workdir = Path(tmp)
            units = build(seed, workdir)
            h.update(f"workload {workload} {len(units)}\n".encode())
            for unit in units:
                argvs = [[a.replace(tmp, "<dir>") for a in argv] for argv in unit.argvs]
                h.update(f"unit {unit.name} {unit.size} {argvs!r}\n".encode())
            for path in sorted(workdir.iterdir()):
                h.update(f"file {path.name}\n".encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def test_seed_1_corpora_are_unchanged():
    assert corpus_digest(SEED) == DIGEST


if __name__ == "__main__":
    print(corpus_digest(SEED))
