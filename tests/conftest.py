"""Let interpreters that the tests start import tubal from this checkout, fix
the Hypothesis settings of the property tests, and give the tests a fixture that
measures a call's memory peak.

pyproject's `pythonpath` setting puts src/ on sys.path of the pytest process
only; child interpreters read PYTHONPATH instead.
"""

import os
import tracemalloc
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if _SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in [_SRC, *_paths] if p)

try:
    from hypothesis import settings
except ImportError:  # tests/test_properties.py skips itself without Hypothesis
    pass
else:
    # The same examples on every run, no wall-clock deadline, nothing stored on disk.
    settings.register_profile(
        "tubal", derandomize=True, deadline=None, max_examples=40, database=None
    )
    settings.load_profile("tubal")


@pytest.fixture
def traced_peak():
    """A function run, *args -> (run(*args), the call's tracemalloc peak in bytes above what
    was live before it)."""
    def traced(run, *args):
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            result = run(*args)
            return result, tracemalloc.get_traced_memory()[1] - live
        finally:
            if started:
                tracemalloc.stop()
    return traced
