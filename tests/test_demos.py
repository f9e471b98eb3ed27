"""The demo scripts run to the end, and the tensor demo's story matches the solver."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    """The demo's standard output; it must exit 0.  (The image demo writes files, so
    it is not run here.)"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    return r.stdout


@pytest.mark.parametrize("name", ["algebra_tour.py", "matrix_completion_demo.py"])
def test_demo_runs(name):
    assert run_demo(name)


def test_tensor_demo_switches_off_only_the_unhelpful_side():
    act_one, act_two = run_demo("tensor_completion_demo.py").split("\n\n")
    assert "side_off" not in act_one and "regrouped side kept" in act_one
    assert "side_off at sweep" in act_two
