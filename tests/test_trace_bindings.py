"""The benchmark's span recorders wrap names where the program binds
them; a rename in the program must fail here, not only under tracing."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.spans import KERNEL, SPANS  # noqa: E402


@pytest.mark.parametrize("module, attr, span", SPANS)
def test_span_binding_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("attr, counter", KERNEL)
def test_kernel_counter_binding_resolves(attr, counter):
    from latticeflow.lattices import Lattice

    assert callable(getattr(Lattice, attr))
