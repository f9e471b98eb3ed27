"""Command line and experiment harness: parsing, commands, artifacts, exit codes."""

import argparse
import csv
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import tubal.harness as harness
from tubal import (
    CompletionProblem,
    DoubleTubalConfig,
    MultiRank,
    SolverConfig,
    SpectralSymmetryError,
    as_multirank,
    generate_mask,
    load_image,
    load_mask,
    load_tensor,
    multi_rank,
    save_image,
    save_mask,
    save_tensor,
    synth_low_tubal,
)
from tubal.cli import build_parser, main
from tubal.harness import EXIT_INPUT, EXIT_MAX_ITER, EXIT_OK, EXIT_SOLVER, _solver_config
from tubal.matrix_completion import solve


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
    assert as_multirank("8", 4) == MultiRank.constant(8, 4)
    assert as_multirank(" 3 ", 1).ranks == (3,)


def test_rank_spec_full_list():
    assert as_multirank("5,3,2,2,3", 5).ranks == (5, 3, 2, 2, 3)


def test_rank_spec_fill_shorthand():
    assert as_multirank("4,2*", 5).ranks == (4, 2, 2, 2, 2)
    assert as_multirank("2*", 3).ranks == (2, 2, 2)


def test_rank_spec_rejects_bad_input():
    for text, n3 in [
        ("", 3),
        ("abc", 3),
        ("1,2", 3),  # wrong length
        ("1,2,3,2*", 2),  # head longer than n3
        ("1,2,3,4,5", 5),  # not conjugate-symmetric
    ]:
        with pytest.raises(ValueError):
            as_multirank(text, n3)


def test_rank_spec_rejects_non_integer_numbers():
    for value in (2.7, 3.0, True, np.float64(2.0), [2.5, 2, 2, 2], [2, True, 2, True]):
        with pytest.raises(ValueError, match="bad rank specification"):
            as_multirank(value, 4)
    assert as_multirank(np.int64(3), 4).ranks == (3, 3, 3, 3)
    assert as_multirank(np.array([2, 1, 1, 1]), 4).ranks == (2, 1, 1, 1)
    x = synth_low_tubal(6, 5, 4, 2, seed=0)
    problem = CompletionProblem.from_tensor(x, generate_mask(x.shape, 0.9, seed=0))
    with pytest.raises(ValueError, match="bad rank specification 2.7"):
        solve(problem, SolverConfig(init_ranks=2.7))


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
    bad = [(True, 0), ("no", 0), (float("nan"), 0), (float("inf"), 0), (0.5, True), (0.5, 1.5)]
    for ratio, seed in bad:
        with pytest.raises(ValueError):
            generate_mask((3, 3, 2), ratio, seed=seed)
    for dims in [(3, 3, True), (3, 3, 2.0), (3, -3, 2)]:
        with pytest.raises(ValueError, match="dims must be an integer of at least 1"):
            generate_mask(dims, 0.5)


def test_synth_low_tubal_rank_and_determinism():
    a = synth_low_tubal(10, 8, 5, 3, seed=2)
    assert a.shape == (10, 8, 5)
    assert multi_rank(a).tubal <= 3
    assert np.array_equal(a, synth_low_tubal(10, 8, 5, 3, seed=2))


def test_synth_low_tubal_rejects_sizes_ranks_and_seeds_outside_the_rules():
    for args, name in [((0, 4, 3, 2), "n1"), ((4, 2.0, 3, 2), "n2"), ((4, 4, True, 2), "n3"),
                       ((4, 4, 3, True), "rank"), ((4, 4, 3, 2.0), "rank"),
                       ((4, 4, 3, 2, -1), "seed"), ((4, 4, 3, 2, True), "seed")]:
        with pytest.raises(ValueError, match=f"{name} must be"):
            synth_low_tubal(*args)


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
    assert main(["synth", "--n2", "10"]) == EXIT_INPUT  # and without a directory to write
    assert "synth needs --output" in capsys.readouterr().err


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
    code = main(["complete-tensor", "--input", str(src), "--ratio", "0.9"])  # so does the tensor
    assert code == EXIT_INPUT
    assert "--init-rank is required" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", [
    # at --n2 1 every slice is a single column, so rank 1 reproduces any observed data
    ["complete-matrix", "--n2", "1", "--init-rank", "1"],
    # the 32x32 image's one slice at rank 32, kept there with rank detection off
    ["complete-tensor", "--init-rank", "32", "--rank-decrease-tau", "0"],
], ids=["complete-matrix", "complete-tensor"])
def test_complete_matrix_rejects_a_start_at_full_rank(tmp_path, capsys, command):
    src = tmp_path / "in.pgm"
    save_image(src, rank2_image())
    outs = [tmp_path / name for name in ("out.pgm", "trace.csv", "metrics.csv")]
    code = main(command + ["--input", str(src), "--ratio", "0.7", "--output", str(outs[0]),
                           "--trace", str(outs[1]), "--metrics-out", str(outs[2])])
    assert code == EXIT_INPUT
    assert "full rank" in capsys.readouterr().err
    assert not any(path.exists() for path in outs)


def test_complete_matrix_frees_the_problem_before_scoring(tmp_path):
    # SSIM sets the call's peak; the folded problem and the solver's tensor held through
    # it put the peak at 13.8 image sizes, released before it at 11.7
    img = rank2_image(128, 128)
    src = tmp_path / "in.pgm"
    save_image(src, img)
    outs = [str(tmp_path / name) for name in ("out.pgm", "trace.csv", "metrics.csv")]
    command = ["complete-matrix", "--input", str(src), "--ratio", "0.7", "--n2", "8",
               "--init-rank", "2", "--output", outs[0], "--trace", outs[1], "--metrics-out", outs[2]]
    main(command)  # a first call's one-time imports and caches are not the call's arrays
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        code = main(command)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        if started:
            tracemalloc.stop()
    assert code == EXIT_OK
    assert peak <= 12.5 * img.nbytes


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


def test_complete_tensor_reads_and_writes_a_color_image(tmp_path):
    base = rank2_image(16, 16, seed=13)
    src, out = tmp_path / "in.ppm", tmp_path / "out.ppm"
    save_image(src, np.stack([base, 0.8 * base, 0.6 * base], axis=2))
    code = main(
        ["complete-tensor", "--input", str(src), "--output", str(out),
         "--ratio", "0.9", "--init-rank", "2", "--max-iter", "30"]
    )
    assert code in (EXIT_OK, EXIT_MAX_ITER)
    rec = load_image(out)
    assert rec.shape == (16, 16, 3)
    on = generate_mask((16, 16, 3), 0.9, SolverConfig.seed).observed
    assert np.array_equal(rec[on], load_image(src)[on])


def test_complete_tensor_rejects_empty_directory(tmp_path, capsys):
    frames = tmp_path / "frames"
    os.makedirs(frames)
    code = main(
        ["complete-tensor", "--input", str(frames), "--ratio", "0.9", "--init-rank", "2"]
    )
    assert code == EXIT_INPUT
    assert "no image frames" in capsys.readouterr().err
    # frames that cannot be stacked are rejected the same way
    save_image(frames / "a.pgm", rank2_image(16, 16))
    save_image(frames / "b.pgm", rank2_image(16, 12))
    code = main(
        ["complete-tensor", "--input", str(frames), "--ratio", "0.9", "--init-rank", "2"]
    )
    assert code == EXIT_INPUT
    assert "differ in size" in capsys.readouterr().err


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
    (["complete-tensor", "--seed", "-1"], "seed must be a nonnegative integer, got -1"),
    (["synth", "--n2", "0"], "got 0"),
    (["synth", "--seed", "-1"], "seed must be a nonnegative integer, got -1"),
    (["complete-tensor", "--input", "second.t3"], "complete-tensor takes exactly one --input"),
    (["complete-matrix", "--input", "a.pgm", "--input", "b.pgm"],
     "complete-matrix takes exactly one --input"),
    (["complete-tensor", "--init-rank-xt", "1,2"], "bad rank specification '1,2'"),
    (["synth", "--init-rank", "3,x*"], "bad rank specification '3,x*'"),
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


def test_metrics_command_reads_tensor_files(tmp_path, capsys):
    a = synth_low_tubal(10, 9, 3, 2, seed=14)
    pa, pb = tmp_path / "a.t3", tmp_path / "b.t3"
    save_tensor(pa, a)
    save_tensor(pb, 1.1 * a)
    assert main(["metrics", "--input", str(pa), "--input", str(pb)]) == EXIT_OK
    got = dict(line.split("=") for line in capsys.readouterr().out.split())
    assert sorted(got) == ["psnr", "rel_error", "ssim"]
    assert abs(float(got["rel_error"]) - 0.1) < 1e-12


def test_metrics_scores_an_image_against_its_tensor_file(tmp_path, capsys):
    # the solvers' .t3 output of a grayscale image is its one-slice tensor
    image, tensor = tmp_path / "a.pgm", tmp_path / "a.t3"
    save_image(image, rank2_image(16, 16, seed=15))
    save_tensor(tensor, load_image(image)[:, :, None])
    assert main(["metrics", "--input", str(image), "--input", str(tensor)]) == EXIT_OK
    got = dict(line.split("=") for line in capsys.readouterr().out.split())
    assert float(got["rel_error"]) == 0.0


def test_metrics_requires_two_inputs(tmp_path, capsys):
    src = tmp_path / "a.pgm"
    save_image(src, rank2_image(16, 16, seed=12))
    code = main(["metrics", "--input", str(src)])
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err
    for command in ("complete-matrix", "complete-tensor"):
        code = main([command, "--input", str(src), "--input", str(src), "--ratio", "0.5",
                     "--init-rank", "2"])
        assert code == EXIT_INPUT
        assert f"{command} takes exactly one --input" in capsys.readouterr().err


# --------------------------------------------------------------------- parser


def test_synth_declares_its_defaults_in_the_parser():
    args = build_parser().parse_args(["synth"])
    assert (args.ratio, args.init_ranks) == (0.6, "8")
    assert _solver_config(args) == SolverConfig(init_ranks="8")


def test_subcommands_default_to_the_solver_configs():
    for command, own, cls in [
        ("complete-matrix", {"n2": 64, "inputs": []}, SolverConfig),
        ("complete-tensor", {"inputs": []}, DoubleTubalConfig),
        ("synth", {"n2": 10}, SolverConfig),
    ]:
        args = build_parser().parse_args([command, "--init-rank", "3"])
        assert args.command == command
        assert {name: getattr(args, name) for name in own} == own
        assert _solver_config(args, cls) == cls(init_ranks="3")


@pytest.mark.parametrize(
    "argv",
    [["synth", "--input", "a.pgm"], ["synth", "--mask", "m.msk"], ["synth", "--trace", "t.csv"],
     ["synth", "--metrics-out", "m.csv"], ["complete-tensor", "--n2", "8"]],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_commands_reject_options_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err


def test_unknown_command_is_a_parse_error(capsys):
    assert main(["frobnicate"]) == EXIT_INPUT  # exit 2 means "sweep limit reached"
    assert "invalid choice: 'frobnicate'" in capsys.readouterr().err
    assert main(["--help"]) == EXIT_OK
    assert "complete-matrix" in capsys.readouterr().out
    with pytest.raises(ValueError, match="unknown command 'frobnicate'"):
        harness.run(argparse.Namespace(command="frobnicate"))


@pytest.mark.parametrize(
    "argv", [["frobnicate"], ["complete-matrix", "--max-iter", "abc"]], ids=" ".join
)
def test_rejected_command_lines_exit_as_input_errors(argv):
    r = subprocess.run(
        [sys.executable, "-m", "tubal.cli", *argv], capture_output=True, text=True
    )
    assert r.returncode == EXIT_INPUT
    assert r.stderr.startswith("usage: tubal") and "Traceback" not in r.stderr


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


@pytest.mark.parametrize(
    "src_name, out_name, named",
    [("in.png", "out.pgm", "cannot read"), ("in.pgm", "out.png", "unsupported output")],
    ids=["input", "output"],
)
def test_unsupported_extensions_are_input_errors(tmp_path, capsys, monkeypatch, src_name,
                                                 out_name, named):
    monkeypatch.setattr(harness, "solve_matrix", lambda *a: pytest.fail("solver was run"))
    src, trace = tmp_path / src_name, tmp_path / "trace.csv"
    save_image(src, rank2_image(16, 16))  # PGM bytes whatever the name says
    code = main(["complete-matrix", "--input", str(src), "--output", str(tmp_path / out_name),
                 "--ratio", "0.9", "--n2", "8", "--init-rank", "2", "--max-iter", "2",
                 "--trace", str(trace)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and named in err
    assert not trace.exists()


@pytest.mark.parametrize(
    "n3, out_name, named",
    [(3, "out.pgm", "single-slice"), (1, "out.ppm", "three-slice")],
    ids=["pgm", "ppm"],
)
def test_output_slice_counts_are_checked_before_the_solve(tmp_path, capsys, monkeypatch, n3,
                                                           out_name, named):
    monkeypatch.setattr(harness, "solve_tensor", lambda *a: pytest.fail("solver was run"))
    src = tmp_path / "in.t3"
    save_tensor(src, synth_low_tubal(6, 5, n3, 2, seed=0))
    code = main(["complete-tensor", "--input", str(src), "--output", str(tmp_path / out_name),
                 "--ratio", "0.9", "--init-rank", "2"])
    assert code == EXIT_INPUT
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command, solver", [("complete-matrix", "solve_matrix"),
                                             ("complete-tensor", "solve_tensor")])
@pytest.mark.parametrize(
    "image, named",
    [(rank2_image(6, 6), "image (6, 6) is smaller than the 8x8 window"),
     (np.zeros((16, 16)), "reference has zero norm")],
    ids=["small", "black"],
)
def test_metrics_are_checked_before_the_solve(tmp_path, capsys, monkeypatch, command, solver,
                                              image, named):
    monkeypatch.setattr(harness, solver, lambda *a: pytest.fail("solver was run"))
    src = tmp_path / "in.pgm"
    save_image(src, image)
    out, trace, metrics = (tmp_path / name for name in ("out.pgm", "trace.csv", "metrics.csv"))
    code = main([command, "--input", str(src), "--ratio", "0.9", "--init-rank", "1",
                 "--output", str(out), "--trace", str(trace), "--metrics-out", str(metrics)])
    assert code == EXIT_INPUT
    assert named in capsys.readouterr().err
    assert not any(path.exists() for path in (out, trace, metrics))


@pytest.mark.parametrize("option", ["--output", "--trace", "--metrics-out"])
def test_output_directories_are_checked_before_the_solve(tmp_path, capsys, monkeypatch, option):
    monkeypatch.setattr(harness, "solve_matrix", lambda *a: pytest.fail("solver was run"))
    src = tmp_path / "in.pgm"
    save_image(src, rank2_image(16, 16))
    names = {"--output": "out.pgm", "--trace": "trace.csv", "--metrics-out": "metrics.csv"}
    names[option] = "nodir/" + names[option]
    argv = ["complete-matrix", "--input", str(src), "--ratio", "0.7", "--n2", "8",
            "--init-rank", "2"]
    for flag, name in names.items():
        argv += [flag, str(tmp_path / name)]
    assert main(argv) == EXIT_INPUT
    assert "nodir" in capsys.readouterr().err
    assert [path.name for path in tmp_path.iterdir()] == ["in.pgm"]


def test_missing_input_file_exits_cleanly(tmp_path, capsys):
    code = main(
        ["complete-matrix", "--input", str(tmp_path / "nope.pgm"),
         "--ratio", "0.5", "--init-rank", "2"]
    )
    assert code == EXIT_INPUT
    assert "error:" in capsys.readouterr().err
