"""The benchmark's layer tracer against the library: every name it wraps is bound
where it looks it up, so a traced run fails here, not only in a benchmark run."""

import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def test_every_traced_name_resolves_in_its_module():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in layertrace.WRAPS
        if not callable(getattr(module, attr, None))
    ]
    assert layertrace.WRAPS and not missing
