"""Command line and experiment harness: parsing, commands, artifacts, exit codes."""

import argparse
import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import tubal.harness as harness
from tubal import (
    DoubleTubalConfig,
    MultiRank,
    SolverConfig,
    SpectralSymmetryError,
    generate_mask,
    load_image,
    load_mask,
    load_tensor,
    multi_rank,
    parse_rank_spec,
    save_image,
    save_mask,
    save_tensor,
    synth_low_tubal,
)
from tubal.cli import _to_spec, build_parser, main
from tubal.harness import EXIT_INPUT, EXIT_MAX_ITER, EXIT_OK, EXIT_SOLVER, _solver_config


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def rank2_image(h=32, w=32, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.random((h, 2))
    v = rng.random((2, w))
    img = u @ v
    return img / img.max()


# ------------------------------------------------------------------ rank spec


def test_rank_spec_single_value():
    assert parse_rank_spec("8", 4) == MultiRank.constant(8, 4)
    assert parse_rank_spec(" 3 ", 1).ranks == (3,)


def test_rank_spec_full_list():
    assert parse_rank_spec("5,3,2,2,3", 5).ranks == (5, 3, 2, 2, 3)


def test_rank_spec_fill_shorthand():
    assert parse_rank_spec("4,2*", 5).ranks == (4, 2, 2, 2, 2)
    assert parse_rank_spec("2*", 3).ranks == (2, 2, 2)


def test_rank_spec_rejects_bad_input():
    for text, n3 in [
        ("", 3),
        ("abc", 3),
        ("1,2", 3),  # wrong length
        ("1,2,3,2*", 2),  # head longer than n3
        ("1,2,3,4,5", 5),  # not conjugate-symmetric
    ]:
        with pytest.raises(ValueError):
            parse_rank_spec(text, n3)


# ---------------------------------------------------------------------- masks


def test_generate_mask_counts_and_determinism():
    m1 = generate_mask((6, 5, 4), 0.3, seed=7)
    m2 = generate_mask((6, 5, 4), 0.3, seed=7)
    assert m1.observed.sum() == int(np.floor(0.3 * 120))
    assert np.array_equal(m1.observed, m2.observed)
    assert not np.array_equal(m1.observed, generate_mask((6, 5, 4), 0.3, seed=8).observed)


def test_generate_mask_rejects_bad_ratio():
    with pytest.raises(ValueError):
        generate_mask((4, 4, 1), 1.5)


def test_synth_low_tubal_rank_and_determinism():
    a = synth_low_tubal(10, 8, 5, 3, seed=2)
    assert a.shape == (10, 8, 5)
    assert multi_rank(a).tubal <= 3
    assert np.array_equal(a, synth_low_tubal(10, 8, 5, 3, seed=2))


# ---------------------------------------------------------------------- synth


def test_synth_writes_all_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        ["synth", "--output", str(out), "--ratio", "0.9", "--n2", "10",
         "--init-rank", "3", "--eps", "1e-6", "--max-iter", "200"]
    )
    assert code in (EXIT_OK, EXIT_MAX_ITER)
    for name in ("truth.t3", "mask.msk", "recovered.t3", "trace.csv", "metrics.csv"):
        assert (out / name).exists()
    assert "rel_error=" in capsys.readouterr().out
    truth = load_tensor(out / "truth.t3")
    assert truth.shape == (50, 10, 10)
    rec = load_tensor(out / "recovered.t3")
    assert rec.shape == (50, 100, 1)
    mask = load_mask(out / "mask.msk")
    assert mask.dims == (50, 10, 10)
    rows = read_csv(out / "metrics.csv")
    assert rows[0] == ["metric", "value"]
    assert [r[0] for r in rows[1:]] == ["psnr", "ssim", "rel_error"]


def test_synth_hits_sweep_limit_exit_code(tmp_path):
    out = tmp_path / "run"
    code = main(
        ["synth", "--output", str(out), "--ratio", "0.9", "--n2", "10",
         "--init-rank", "3", "--eps", "1e-14", "--max-iter", "2"]
    )
    assert code == EXIT_MAX_ITER
    assert len(read_csv(out / "trace.csv")) == 3  # header + two sweeps


def test_synth_rejects_bad_block_width(tmp_path, capsys):
    code = main(["synth", "--output", str(tmp_path / "x"), "--n2", "7"])
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------- complete-matrix


def test_complete_matrix_on_image(tmp_path):
    img = rank2_image()
    src = tmp_path / "in.pgm"
    save_image(src, img)
    out = tmp_path / "out.pgm"
    trace = tmp_path / "trace.csv"
    metrics = tmp_path / "metrics.csv"
    code = main(
        ["complete-matrix", "--input", str(src), "--output", str(out),
         "--ratio", "0.9", "--n2", "8", "--init-rank", "4", "--seed", "1",
         "--eps", "1e-7", "--max-iter", "300",
         "--trace", str(trace), "--metrics-out", str(metrics)]
    )
    assert code in (EXIT_OK, EXIT_MAX_ITER)
    rec = load_image(out)
    assert rec.shape == img.shape
    rows = read_csv(metrics)
    assert [r[0] for r in rows[1:]] == ["psnr", "ssim", "rel_error", "psnr_observed"]
    got = {r[0]: float(r[1]) for r in rows[1:]}
    assert got["psnr"] > got["psnr_observed"]
    assert got["rel_error"] < 0.1
    header = read_csv(trace)[0]
    assert header == ["iter", "g", "rel_change", "ranks", "elapsed_ms", "event"]


def test_complete_matrix_requires_init_rank(tmp_path, capsys):
    src = tmp_path / "in.pgm"
    save_image(src, rank2_image())
    code = main(["complete-matrix", "--input", str(src), "--ratio", "0.9"])
    assert code == EXIT_INPUT
    assert "--init-rank" in capsys.readouterr().err


def test_complete_matrix_requires_mask_or_ratio(tmp_path, capsys):
    src = tmp_path / "in.pgm"
    save_image(src, rank2_image())
    code = main(["complete-matrix", "--input", str(src), "--init-rank", "4"])
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_complete_matrix_rejects_an_empty_mask(tmp_path, capsys):
    src = tmp_path / "in.pgm"
    save_image(src, rank2_image(32, 30))
    mask_path = tmp_path / "none.msk"
    save_mask(mask_path, np.zeros((32, 30, 1), dtype=bool))
    # --n2 8 pads the 30 columns to 32 with observed zeros; the mask itself marks none
    code = main(["complete-matrix", "--input", str(src), "--mask", str(mask_path),
                 "--n2", "8", "--init-rank", "2"])
    assert code == EXIT_INPUT
    assert "no entry as observed" in capsys.readouterr().err


def test_complete_matrix_accepts_single_slice_tensor(tmp_path):
    m = rank2_image(16, 24, seed=3)
    src = tmp_path / "in.t3"
    save_tensor(src, m[:, :, None])
    out = tmp_path / "out.t3"
    code = main(
        ["complete-matrix", "--input", str(src), "--output", str(out),
         "--ratio", "0.95", "--n2", "8", "--init-rank", "3"]
    )
    assert code in (EXIT_OK, EXIT_MAX_ITER)
    assert load_tensor(out).shape == (16, 24, 1)


def test_complete_matrix_rejects_thick_tensor_input(tmp_path, capsys):
    src = tmp_path / "in.t3"
    save_tensor(src, np.zeros((4, 4, 3)))
    code = main(
        ["complete-matrix", "--input", str(src), "--ratio", "0.9", "--init-rank", "2"]
    )
    assert code == EXIT_INPUT
    assert "single-slice" in capsys.readouterr().err


def test_complete_matrix_rejects_mismatched_mask(tmp_path, capsys):
    src = tmp_path / "in.pgm"
    save_image(src, rank2_image())
    mpath = tmp_path / "m.msk"
    save_mask(mpath, np.ones((4, 4, 1), dtype=bool))
    code = main(
        ["complete-matrix", "--input", str(src), "--mask", str(mpath), "--init-rank", "4"]
    )
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


def test_complete_matrix_uses_supplied_mask(tmp_path):
    img = rank2_image(16, 16, seed=4)
    src = tmp_path / "in.pgm"
    save_image(src, img)
    mask = generate_mask((16, 16, 1), 0.9, seed=5)
    mpath = tmp_path / "m.msk"
    save_mask(mpath, mask)
    out = tmp_path / "out.pgm"
    code = main(
        ["complete-matrix", "--input", str(src), "--mask", str(mpath),
         "--output", str(out), "--n2", "8", "--init-rank", "3"]
    )
    assert code in (EXIT_OK, EXIT_MAX_ITER)
    assert out.exists()


def test_rank_decrease_tau_zero_disables_drops(tmp_path):
    # exact rank-2 data (a .t3 file dodges image quantization noise)
    src = tmp_path / "in.t3"
    save_tensor(src, rank2_image(24, 32, seed=6)[:, :, None])
    traces = {}
    for tau in ("10", "0"):
        tpath = tmp_path / f"trace{tau}.csv"
        code = main(
            ["complete-matrix", "--input", str(src), "--ratio", "1.0",
             "--n2", "8", "--init-rank", "6", "--trace", str(tpath),
             "--rank-decrease-tau", tau]
        )
        assert code in (EXIT_OK, EXIT_MAX_ITER)
        traces[tau] = read_csv(tpath)
    row10 = traces["10"][1]
    row0 = traces["0"][1]
    assert row10[5] == "rank_decrease" and set(row10[3].split(";")) == {"2"}
    assert row0[5] == "" and set(row0[3].split(";")) == {"6"}


@pytest.mark.parametrize("tau", ["0.5", "1", "-3", "nan", "inf"])
def test_rank_decrease_tau_other_than_zero_must_exceed_one(tmp_path, capsys, tau):
    src = tmp_path / "in.t3"
    save_tensor(src, rank2_image(24, 32, seed=6)[:, :, None])
    code = main(
        ["complete-matrix", "--input", str(src), "--ratio", "0.8",
         "--n2", "8", "--init-rank", "3", "--rank-decrease-tau", tau]
    )
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: tau must be finite and exceed 1, got ")
    assert str(float(tau)) in err


# ------------------------------------------------------------- complete-tensor


def test_complete_tensor_end_to_end(tmp_path):
    data = synth_low_tubal(12, 10, 4, 2, seed=8)
    data = (data - data.min()) / (data.max() - data.min())
    src = tmp_path / "in.t3"
    save_tensor(src, data)
    out = tmp_path / "out.t3"
    trace = tmp_path / "trace.csv"
    metrics = tmp_path / "metrics.csv"
    code = main(
        ["complete-tensor", "--input", str(src), "--output", str(out),
         "--ratio", "0.9", "--init-rank", "2", "--seed", "2",
         "--trace", str(trace), "--metrics-out", str(metrics)]
    )
    assert code in (EXIT_OK, EXIT_MAX_ITER)
    assert load_tensor(out).shape == (12, 10, 4)
    header = read_csv(trace)[0]
    assert header == [
        "iter", "g", "rel_change", "ranks", "elapsed_ms", "event", "gamma", "ranks_xt"
    ]
    rows = read_csv(metrics)
    assert [r[0] for r in rows[1:]] == ["psnr", "ssim", "rel_error", "psnr_observed"]


def test_complete_tensor_accepts_geometry_and_xt_rank(tmp_path):
    data = synth_low_tubal(8, 6, 4, 2, seed=9)
    src = tmp_path / "in.t3"
    save_tensor(src, data)
    out = tmp_path / "out.t3"
    code = main(
        ["complete-tensor", "--input", str(src), "--output", str(out),
         "--ratio", "0.9", "--init-rank", "2", "--init-rank-xt", "2",
         "--p", "8", "--q", "6", "--gamma0", "0.5", "--no-adaptive-gamma",
         "--max-iter", "20"]
    )
    assert code in (EXIT_OK, EXIT_MAX_ITER)
    assert out.exists()


def test_complete_tensor_reads_frame_directory(tmp_path):
    frames = tmp_path / "frames"
    os.makedirs(frames)
    base = rank2_image(16, 16, seed=10)
    for k in range(3):
        save_image(frames / f"f{k}.pgm", np.clip(base * (0.5 + 0.2 * k), 0, 1))
    out = tmp_path / "out.t3"
    code = main(
        ["complete-tensor", "--input", str(frames), "--output", str(out),
         "--ratio", "0.9", "--init-rank", "2", "--max-iter", "30"]
    )
    assert code in (EXIT_OK, EXIT_MAX_ITER)
    assert load_tensor(out).shape == (16, 16, 3)


def test_complete_tensor_rejects_empty_directory(tmp_path, capsys):
    frames = tmp_path / "frames"
    os.makedirs(frames)
    code = main(
        ["complete-tensor", "--input", str(frames), "--ratio", "0.9", "--init-rank", "2"]
    )
    assert code == EXIT_INPUT
    assert "no image frames" in capsys.readouterr().err


def test_complete_tensor_rejects_a_zero_ratio(tmp_path, capsys):
    src = tmp_path / "in.t3"
    save_tensor(src, synth_low_tubal(6, 5, 4, 2, seed=0))
    code = main(["complete-tensor", "--input", str(src), "--ratio", "0", "--init-rank", "2"])
    assert code == EXIT_INPUT
    assert "no entry as observed" in capsys.readouterr().err


BAD_SETTINGS = [
    (["complete-tensor", "--p", "0"], "p=0"),
    (["complete-tensor", "--q", "0"], "q=0"),
    (["complete-tensor", "--p", "-8"], "p=-8"),
    (["complete-tensor", "--gamma0", "nan"], "got nan"),
    (["complete-tensor", "--gamma0", "inf"], "got inf"),
    (["complete-tensor", "--eps", "nan"], "got nan"),
    (["synth", "--n2", "0"], "got 0"),
]


@pytest.mark.parametrize("argv, named", BAD_SETTINGS, ids=[" ".join(a) for a, _ in BAD_SETTINGS])
def test_bad_settings_are_input_errors(tmp_path, argv, named):
    src = tmp_path / "in.t3"
    save_tensor(src, synth_low_tubal(8, 5, 4, 2, seed=0))  # -8 divides n1 * n2
    rest = ["--output", str(tmp_path / "out")]
    if argv[0] == "complete-tensor":
        rest = ["--input", str(src), "--ratio", "0.5", "--init-rank", "2", "--max-iter", "3"]
    r = subprocess.run(
        [sys.executable, "-m", "tubal.cli", *argv, *rest], capture_output=True, text=True
    )
    assert r.returncode == EXIT_INPUT
    assert "Traceback" not in r.stderr
    assert r.stderr.startswith("error: ") and named in r.stderr


# --------------------------------------------------------------------- metrics


def test_metrics_command_prints_and_writes(tmp_path, capsys):
    a = rank2_image(16, 16, seed=11)
    b = np.clip(a + 0.05, 0, 1)
    pa, pb = tmp_path / "a.pgm", tmp_path / "b.pgm"
    save_image(pa, a)
    save_image(pb, b)
    out = tmp_path / "m.csv"
    code = main(
        ["metrics", "--input", str(pa), "--input", str(pb), "--metrics-out", str(out)]
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "psnr=" in printed and "ssim=" in printed and "rel_error=" in printed
    rows = read_csv(out)
    printed_psnr = float(printed.split("psnr=")[1].split()[0])
    assert abs(printed_psnr - float(rows[1][1])) <= 1e-9


def test_metrics_requires_two_inputs(tmp_path, capsys):
    src = tmp_path / "a.pgm"
    save_image(src, rank2_image(16, 16, seed=12))
    code = main(["metrics", "--input", str(src)])
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


# --------------------------------------------------------------------- parser


def test_subcommands_default_to_the_solver_configs():
    tensor_defaults = DoubleTubalConfig(init_ranks=3)
    for command, n2 in [("complete-matrix", 64), ("complete-tensor", 64), ("synth", 10),
                        ("metrics", 64)]:
        spec = _to_spec(build_parser().parse_args([command]))
        assert spec.command == command and spec.n2 == n2 and spec.inputs == []
        assert _solver_config(spec, 3) == SolverConfig(init_ranks=3)
        assert spec.gamma0 == tensor_defaults.gamma0
        assert spec.adaptive_gamma == tensor_defaults.adaptive_gamma


def test_unknown_command_is_a_parse_error():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_main_reuses_one_parser(tmp_path, monkeypatch):
    used = []
    parse_args = argparse.ArgumentParser.parse_args

    def recording(parser, *args, **kwargs):
        used.append(parser)
        return parse_args(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recording)
    src = tmp_path / "a.pgm"
    save_image(src, rank2_image(8, 8))
    for _ in range(2):
        assert main(["metrics", "--input", str(src), "--input", str(src)]) == EXIT_OK
    assert len(used) == 2 and used[0] is used[1]


@pytest.mark.parametrize(
    "error",
    [
        FloatingPointError("objective became non-finite at sweep 3"),
        np.linalg.LinAlgError("SVD did not converge"),
        SpectralSymmetryError("spectrum is not conjugate-symmetric"),
    ],
    ids=["floating-point", "linalg", "spectral-symmetry"],
)
def test_solver_failure_has_its_own_exit_code(tmp_path, capsys, monkeypatch, error):
    def failing(problem, config):
        raise error

    monkeypatch.setattr(harness, "solve_matrix", failing)
    src = tmp_path / "in.pgm"
    save_image(src, rank2_image(16, 16))
    code = main(["complete-matrix", "--input", str(src), "--ratio", "0.5", "--n2", "4",
                 "--init-rank", "2"])
    assert code == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and str(error) in err


def test_missing_input_file_exits_cleanly(tmp_path, capsys):
    code = main(
        ["complete-matrix", "--input", str(tmp_path / "nope.pgm"),
         "--ratio", "0.5", "--init-rank", "2"]
    )
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err
