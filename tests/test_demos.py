"""The demo scripts run to the end, the tensor demo's story matches the solver, and the
image demo writes both images and improves on the observed PSNR."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, *args):
    """The demo's standard output; it must exit 0, with RuntimeWarnings raised as
    errors like the suite's own."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    r = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / name), *args],
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


def test_image_demo_writes_both_images_and_improves_psnr(tmp_path):
    out = run_demo("image_inpainting_demo.py", str(tmp_path))
    assert (tmp_path / "observed.pgm").is_file() and (tmp_path / "recovered.pgm").is_file()
    psnr_line = next(line for line in out.splitlines() if line.startswith("psnr:"))
    observed, recovered = (float(v) for v in re.findall(r"(-?[\d.]+) dB", psnr_line))
    assert recovered > observed
