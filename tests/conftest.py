"""Let interpreters that the tests start import tubal from this checkout, and fix
the Hypothesis settings of the property tests.

pyproject's `pythonpath` setting puts src/ on sys.path of the pytest process
only; child interpreters read PYTHONPATH instead.
"""

import os
from pathlib import Path

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
