"""Experiment driver shared by the command line and the demo scripts.

Reads inputs (images, tensor files, frame directories), builds the observation
pattern, runs a solver, and writes the recovered data, trace and metrics.  Exit
codes: 0 when the solver converged, 2 when it hit the sweep limit, 1 for
unusable inputs or command lines, 3 when the solver raised one of SOLVER_ERRORS.
"""

import csv
import os
from dataclasses import fields

import numpy as np

from .core import ObservationMask, SpectralSymmetryError, tensor_to_matrix, tprod
from .core import check_count, check_real
from .factors import RankDecreaseConfig
from .io import load_image, load_mask, load_tensor, save_image, save_mask, save_tensor
from .matrix_completion import CompletionProblem, SolverConfig
from .matrix_completion import solve as solve_matrix
from .metrics import check_reference, psnr, rel_error, ssim
from .tensor_completion import DoubleTubalConfig
from .tensor_completion import solve as solve_tensor

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MAX_ITER = 2
EXIT_SOLVER = 3
SOLVER_ERRORS = (FloatingPointError, np.linalg.LinAlgError, SpectralSymmetryError)

SYNTH_N1 = 50
SYNTH_WIDTH = 100
SYNTH_RANK = 3


def generate_mask(dims, ratio, seed=0):
    """Sample exactly floor(ratio * n_entries) observed positions uniformly.

    The draw is a seeded choice without replacement over flat indices in
    storage order, so a given (dims, ratio, seed) always yields the same mask.
    """
    for value in dims:
        check_count(value, "dims", 1)
    check_real(ratio, "ratio", 0, 1)
    check_count(seed, "seed")
    n = int(np.prod(dims))
    count = int(np.floor(ratio * n))
    picked = np.random.default_rng(seed).choice(n, size=count, replace=False)
    flat = np.zeros(n, dtype=bool)
    flat[picked] = True
    return ObservationMask(flat.reshape(dims, order="F"))


def synth_low_tubal(n1, n2, n3, rank, seed=0):
    """Random tensor with every frequency-slice rank at most `rank`."""
    for value, name in ((n1, "n1"), (n2, "n2"), (n3, "n3")):
        check_count(value, name, 1)
    check_count(rank, "rank")
    check_count(seed, "seed")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n1, rank, n3))
    b = rng.standard_normal((rank, n2, n3))
    return tprod(a, b)


def _solver_config(args, cls=SolverConfig):
    """A config of type cls holding the solver settings given on the command line.

    Settings that neither an option nor the command's own defaults give take cls's.
    """
    if not args.init_ranks:
        raise ValueError("--init-rank is required")
    given = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    tau = args.rank_decrease_tau  # 0 disables; RankDecreaseConfig rejects other values <= 1
    if tau == 0:
        given["rank_cfg"] = RankDecreaseConfig(enabled=False)
    elif tau is not None:
        given["rank_cfg"] = RankDecreaseConfig(tau=tau)
    return cls(**{name: value for name, value in given.items() if value is not None})


def _seed(args):
    return SolverConfig.seed if args.seed is None else args.seed


def _load(path):
    """Read a .pgm/.ppm image, a .t3 tensor, or a directory of equally sized frames."""
    if os.path.isdir(path):
        frames = sorted(
            f for f in os.listdir(path) if f.lower().endswith((".pgm", ".ppm"))
        )
        if not frames:
            raise ValueError(f"no image frames found in {path}")
        slabs = [np.atleast_3d(load_image(os.path.join(path, f))) for f in frames]
        shapes = {s.shape[:2] for s in slabs}
        if len(shapes) > 1:
            raise ValueError(f"frames in {path} differ in size")
        return np.concatenate(slabs, axis=2)
    ext = os.path.splitext(path)[1].lower()
    if ext == ".t3":
        return load_tensor(path)
    if ext in (".pgm", ".ppm"):
        return load_image(path)
    raise ValueError(f"cannot read {path} (use .pgm, .ppm, .t3 or a directory of frames)")


def _mask_for(args, dims):
    if args.mask_path:
        mask = load_mask(args.mask_path)
        if mask.dims != tuple(dims):
            raise ValueError(f"mask dims {mask.dims} do not match data dims {tuple(dims)}")
        return mask
    if args.ratio is None:
        raise ValueError("either --mask or --ratio is required")
    return generate_mask(tuple(dims), args.ratio, _seed(args))


def _check_outputs(args, reference):
    """Raise ValueError when --metrics-out cannot score against reference or --output hold it."""
    if args.metrics_out:
        check_reference(reference)
    path = args.output
    if not path:
        return
    ext = os.path.splitext(path)[1].lower()
    slices = reference.shape[2] if reference.ndim == 3 else 1
    if ext not in (".t3", ".pgm", ".ppm"):
        raise ValueError(f"unsupported output extension on {path}")
    if ext == ".pgm" and slices != 1:
        raise ValueError("PGM output needs a single-slice tensor")
    if ext == ".ppm" and slices != 3:
        raise ValueError("PPM output needs a three-slice tensor")


def _write_recovered(path, data):
    """Write data in the format of path's extension, which _check_outputs accepted."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".t3":
        save_tensor(path, np.atleast_3d(data))
    else:  # a single-slice .pgm or a three-slice .ppm
        save_image(path, data[:, :, 0] if data.ndim == 3 and ext == ".pgm" else data)


def _write_metrics(path, rows):
    with open(path, "w", newline="") as f:
        out = csv.writer(f)
        out.writerow(["metric", "value"])
        for name, value in rows:
            out.writerow([name, f"{value:.17g}"])


def _metric_rows(reference, recovered, observed=None):
    rows = [
        ("psnr", psnr(reference, recovered)),
        ("ssim", ssim(reference, recovered)),
        ("rel_error", rel_error(recovered, reference)),
    ]
    if observed is not None:
        rows.append(("psnr_observed", psnr(reference, observed)))
    return rows


def _write_outputs(args, recovered, trace, reference, on):
    """Write the requested outputs (on marks reference's observed entries); return the exit code."""
    if args.output:
        _write_recovered(args.output, recovered)
    if args.trace_path:
        trace.write_csv(args.trace_path)
    if args.metrics_out:
        observed = np.where(on, reference, 0.0)
        _write_metrics(args.metrics_out, _metric_rows(reference, recovered, observed))
    return EXIT_OK if trace.converged else EXIT_MAX_ITER


def _run_complete_matrix(args):
    if len(args.inputs) != 1:
        raise ValueError("complete-matrix takes exactly one --input")
    path = args.inputs[0]
    matrix = _load(path)
    if matrix.ndim == 3:
        if matrix.shape[2] != 1:
            raise ValueError(f"{path} has n3={matrix.shape[2]}, expected a single-slice input")
        matrix = matrix[:, :, 0]
    _check_outputs(args, matrix)
    mask2d = _mask_for(args, matrix.shape + (1,)).observed[:, :, 0]
    problem = CompletionProblem.from_matrix(matrix, mask2d, args.n2)
    _, recovered, trace = solve_matrix(problem, _solver_config(args))
    return _write_outputs(args, recovered, trace, matrix, mask2d)


def _run_complete_tensor(args):
    if len(args.inputs) != 1:
        raise ValueError("complete-tensor takes exactly one --input")
    data = np.atleast_3d(_load(args.inputs[0]))
    _check_outputs(args, data)
    mask = _mask_for(args, data.shape)
    problem = CompletionProblem.from_tensor(data, mask)
    x, trace = solve_tensor(problem, _solver_config(args, DoubleTubalConfig))
    return _write_outputs(args, x, trace, data, mask.observed)


def _run_synth(args):
    if not args.output:
        raise ValueError("synth needs --output DIRECTORY")
    n2 = args.n2
    if n2 < 1 or SYNTH_WIDTH % n2:
        raise ValueError(f"--n2 must be a positive divisor of {SYNTH_WIDTH} for synth, got {n2}")
    os.makedirs(args.output, exist_ok=True)
    mask2d = generate_mask((SYNTH_N1, SYNTH_WIDTH, 1), args.ratio, _seed(args)).observed[:, :, 0]
    truth = synth_low_tubal(SYNTH_N1, n2, SYNTH_WIDTH // n2, SYNTH_RANK, _seed(args))
    matrix = tensor_to_matrix(truth, SYNTH_WIDTH)
    problem = CompletionProblem.from_matrix(matrix, mask2d, n2)
    _, recovered, trace = solve_matrix(problem, _solver_config(args))
    err = rel_error(recovered, matrix)
    save_tensor(os.path.join(args.output, "truth.t3"), truth)
    save_mask(os.path.join(args.output, "mask.msk"), problem.mask)
    save_tensor(os.path.join(args.output, "recovered.t3"), recovered[:, :, None])
    trace.write_csv(os.path.join(args.output, "trace.csv"))
    _write_metrics(
        os.path.join(args.output, "metrics.csv"),
        _metric_rows(matrix, recovered),
    )
    print(f"rel_error={err:.6e}")
    return EXIT_OK if trace.converged else EXIT_MAX_ITER


def _run_metrics(args):
    if len(args.inputs) != 2:
        raise ValueError("metrics takes --input REFERENCE --input TEST")
    rows = _metric_rows(_load(args.inputs[0]), _load(args.inputs[1]))
    if args.metrics_out:
        _write_metrics(args.metrics_out, rows)
    for name, value in rows:
        print(f"{name}={value:.17g}")
    return EXIT_OK


def run(args):
    """Execute one command line as parsed by tubal.cli.build_parser; returns the exit code."""
    handlers = {
        "complete-matrix": _run_complete_matrix,
        "complete-tensor": _run_complete_tensor,
        "synth": _run_synth,
        "metrics": _run_metrics,
    }
    if args.command not in handlers:
        raise ValueError(f"unknown command {args.command!r}")
    return handlers[args.command](args)
