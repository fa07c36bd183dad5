"""One hypothesis profile for every property test: derandomized, with no
example database and no deadline, so a tier-1 run draws the same examples
each time, replays no failure saved by an earlier run, and does not fail
on a slow machine. (Hypothesis still caches literal constants under
``.hypothesis/``, which git ignores.)"""

import warnings

import pytest
from hypothesis import settings

settings.register_profile("latticeflow", derandomize=True, database=None, deadline=None)
settings.load_profile("latticeflow")


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_makereport(item, call):
    """On a failing property test hypothesis imports its patch writer,
    whose dependencies warn on import; under ``filterwarnings = error``
    that would end the run with an internal error instead of a failure.
    Import it first with those warnings ignored."""
    if getattr(item, "_hypothesis_failing_examples", None):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            try:
                import hypothesis.extra._patching  # noqa: F401
            except ImportError:
                pass
