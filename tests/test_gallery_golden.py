"""Byte-identity of ``latticeflow gallery`` against a recorded golden file.

``gallery`` with no name and with each entry's name, in JSON and in
text, plus an unknown name, must give the stdout, stderr and exit code
recorded in ``golden/gallery_cli.json``. ``gallery --export DIR`` must
also write the recorded file names with the recorded SHA-256 digests.

Regenerate only when an output change is intended, and say so where the
change is recorded:

    PYTHONPATH=src python tests/test_gallery_golden.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from latticeflow.cli import run_command

GOLDEN = Path(__file__).with_name("golden") / "gallery_cli.json"


def run_gallery(argv: list[str], export_dir: Path | None = None) -> dict:
    flags = ["--export", str(export_dir)] if export_dir is not None else []
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        _, code = run_command(["gallery", *argv, *flags])
    got = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if export_dir is not None:
        got["files"] = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(export_dir.iterdir())
        }
    return got


def argv_cases(names: list[str]):
    for fmt in ("json", "text"):
        yield {"argv": ["--format", fmt], "export": False}
        for name in names:
            yield {"argv": [name, "--format", fmt], "export": False}
    yield {"argv": ["no-such-entry"], "export": False}
    yield {"argv": ["--format", "text"], "export": True}
    yield {"argv": ["survival", "--format", "json"], "export": True}


def golden_cases():
    for run in json.loads(GOLDEN.read_text())["runs"]:
        case_id = " ".join(run["argv"]) + (" --export" if run["export"] else "")
        yield pytest.param(run, id=case_id)


@pytest.mark.parametrize("recorded", golden_cases())
def test_gallery_output_is_byte_identical(recorded, tmp_path):
    got = run_gallery(recorded["argv"], tmp_path / "out" if recorded["export"] else None)
    assert got == {k: v for k, v in recorded.items() if k not in ("argv", "export")}


def write_golden() -> int:
    from latticeflow.gallery import gallery_names

    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, case in enumerate(argv_cases(gallery_names())):
            export_dir = Path(tmp) / str(i) if case["export"] else None
            runs.append({**case, **run_gallery(case["argv"], export_dir)})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    return len(runs)


if __name__ == "__main__":
    print(f"wrote {write_golden()} runs to {GOLDEN}")
