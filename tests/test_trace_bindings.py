"""The benchmark's span recorders wrap names where the program binds
them; a rename in the program must fail here, not only under tracing."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.spans import KERNEL, SPANS  # noqa: E402


@pytest.mark.parametrize("module, attr, span", SPANS)
def test_span_binding_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("attr, counter", KERNEL)
def test_kernel_counter_binding_resolves(attr, counter):
    from latticeflow.lattices import Lattice

    assert callable(getattr(Lattice, attr))


def span_only_imports():
    """(module, name) for each name imported on a line marked
    ``# noqa: F401`` in the package: bound only for a span to wrap."""
    found = []
    for path in sorted((ROOT / "src" / "latticeflow").glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            marked = isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]
            )
            if marked:
                found += [(f"latticeflow.{path.stem}", alias.asname or alias.name) for alias in node.names]
    return found


def test_every_unused_import_binds_a_span():
    listed = {(module, attr) for module, attr, _ in SPANS}
    assert [binding for binding in span_only_imports() if binding not in listed] == []
