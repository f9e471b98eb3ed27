"""Experiment driver shared by the command line and the demo scripts.

Knows how to read inputs (images, tensor files, frame directories), build the
observation pattern, run a solver, and write the recovered data, trace and
metrics.  Exit codes: 0 when the solver converged, 2 when it hit the sweep
limit, 1 for unusable inputs, 3 when the solver raised one of SOLVER_ERRORS.
"""

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from .core import MultiRank, ObservationMask, SpectralSymmetryError, tensor_to_matrix, tprod
from .factors import RankDecreaseConfig
from .io import load_image, load_mask, load_tensor, save_image, save_mask, save_tensor
from .matrix_completion import CompletionProblem, SolverConfig
from .matrix_completion import solve as solve_matrix
from .metrics import ImagePair, psnr, rel_error, ssim
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


def generate_mask(dims, ratio, seed=0, pad_observed_zero=False):
    """Sample exactly floor(ratio * n_entries) observed positions uniformly.

    The draw is a seeded choice without replacement over flat indices in
    storage order, so a given (dims, ratio, seed) always yields the same mask.
    """
    if not 0 <= ratio <= 1:
        raise ValueError(f"ratio must be in [0, 1], got {ratio}")
    n = int(np.prod(dims))
    count = int(np.floor(ratio * n))
    picked = np.random.default_rng(seed).choice(n, size=count, replace=False)
    flat = np.zeros(n, dtype=bool)
    flat[picked] = True
    return ObservationMask(flat.reshape(dims, order="F"), pad_observed_zero)


def synth_low_tubal(n1, n2, n3, rank, seed=0):
    """Random tensor with every frequency-slice rank at most `rank`."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n1, rank, n3))
    b = rng.standard_normal((rank, n2, n3))
    return tprod(a, b)


def parse_rank_spec(text, n3):
    """Parse a rank option: "8", "3,2,2,2,3", or the "R,r*" fill shorthand."""
    text = str(text).strip()
    if not text:
        raise ValueError("empty rank specification")
    tokens = [t.strip() for t in text.split(",")]
    try:
        if tokens[-1].endswith("*"):
            head = [int(t) for t in tokens[:-1]]
            fill = int(tokens[-1][:-1])
            if len(head) > n3:
                raise ValueError(f"rank list longer than {n3} slices")
            values = head + [fill] * (n3 - len(head))
        elif len(tokens) == 1:
            return MultiRank.constant(int(tokens[0]), n3)
        else:
            values = [int(t) for t in tokens]
            if len(values) != n3:
                raise ValueError(f"rank list has {len(values)} entries, expected {n3}")
    except ValueError as e:
        raise ValueError(f"bad rank specification {text!r}: {e}") from None
    return MultiRank(tuple(values))


@dataclass
class ExperimentSpec:
    """Parsed invocation of one harness command.

    The solver settings default to the solver configs' own defaults.
    """

    command: str
    inputs: list = field(default_factory=list)
    output: str = None
    mask_path: str = None
    ratio: float = None
    seed: int = SolverConfig.seed
    n2: int = 64
    init_rank: str = None
    init_rank_xt: str = None
    p: int = None
    q: int = None
    t0: int = SolverConfig.t0
    eps: float = SolverConfig.epsilon
    max_iter: int = SolverConfig.max_iter
    gamma0: float = DoubleTubalConfig.gamma0
    adaptive_gamma: bool = DoubleTubalConfig.adaptive_gamma
    rank_decrease_tau: float = RankDecreaseConfig.tau
    trace_path: str = None
    metrics_out: str = None


def _solver_config(spec, init_ranks, cls=SolverConfig, **extra):
    """A solver config of type cls carrying the spec's shared solver settings."""
    tau = spec.rank_decrease_tau  # 0 disables; RankDecreaseConfig rejects other values <= 1
    rank_cfg = RankDecreaseConfig(enabled=False) if tau == 0 else RankDecreaseConfig(tau=tau)
    return cls(
        init_ranks=init_ranks,
        t0=spec.t0,
        epsilon=spec.eps,
        max_iter=spec.max_iter,
        rank_cfg=rank_cfg,
        seed=spec.seed,
        **extra,
    )


def _load_matrix(path):
    ext = os.path.splitext(path)[1].lower()
    if ext == ".pgm":
        return load_image(path)
    if ext == ".t3":
        t = load_tensor(path)
        if t.shape[2] != 1:
            raise ValueError(f"{path} has n3={t.shape[2]}, expected a single-slice tensor")
        return t[:, :, 0]
    raise ValueError(f"cannot read a matrix from {path} (use .pgm or single-slice .t3)")


def _load_tensor_input(path):
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
    if ext in (".ppm", ".pgm"):
        return np.atleast_3d(load_image(path))
    raise ValueError(f"cannot read a tensor from {path}")


def _mask_for(spec, dims):
    if spec.mask_path:
        mask = load_mask(spec.mask_path)
        if mask.dims != tuple(dims):
            raise ValueError(f"mask dims {mask.dims} do not match data dims {tuple(dims)}")
        return mask
    if spec.ratio is None:
        raise ValueError("either --mask or --ratio is required")
    return generate_mask(tuple(dims), spec.ratio, spec.seed)


def _write_recovered(path, data):
    ext = os.path.splitext(path)[1].lower()
    if ext == ".t3":
        save_tensor(path, np.atleast_3d(data))
    elif ext == ".pgm":
        if data.ndim == 3:
            if data.shape[2] != 1:
                raise ValueError("PGM output needs a single-slice tensor")
            data = data[:, :, 0]
        save_image(path, data)
    elif ext == ".ppm":
        if data.ndim != 3 or data.shape[2] != 3:
            raise ValueError("PPM output needs a three-slice tensor")
        save_image(path, data)
    else:
        raise ValueError(f"unsupported output extension on {path}")


def _write_metrics(path, rows):
    with open(path, "w", newline="") as f:
        out = csv.writer(f)
        out.writerow(["metric", "value"])
        for name, value in rows:
            out.writerow([name, f"{value:.17g}"])


def _metric_rows(reference, recovered, observed=None):
    pair = ImagePair(reference, recovered)
    rows = [
        ("psnr", psnr(pair)),
        ("ssim", ssim(pair)),
        ("rel_error", rel_error(recovered, reference)),
    ]
    if observed is not None:
        rows.append(("psnr_observed", psnr(ImagePair(reference, observed))))
    return rows


def _write_outputs(spec, recovered, trace, reference, on):
    """Write the requested outputs (on marks reference's observed entries); return the exit code."""
    if spec.output:
        _write_recovered(spec.output, recovered)
    if spec.trace_path:
        trace.write_csv(spec.trace_path)
    if spec.metrics_out:
        observed = np.where(on, reference, 0.0)
        _write_metrics(spec.metrics_out, _metric_rows(reference, recovered, observed))
    return EXIT_OK if trace.converged else EXIT_MAX_ITER


def _run_complete_matrix(spec):
    if len(spec.inputs) != 1:
        raise ValueError("complete-matrix takes exactly one --input")
    matrix = _load_matrix(spec.inputs[0])
    dims2 = matrix.shape
    mask3 = _mask_for(spec, (dims2[0], dims2[1], 1))
    mask2d = mask3.observed[:, :, 0]
    problem = CompletionProblem.from_matrix(matrix, mask2d, spec.n2)
    init = parse_rank_spec(spec.init_rank, problem.dims[2]) if spec.init_rank else None
    if init is None:
        raise ValueError("--init-rank is required")
    _, recovered, trace = solve_matrix(problem, _solver_config(spec, init))
    return _write_outputs(spec, recovered, trace, matrix, mask2d)


def _run_complete_tensor(spec):
    if len(spec.inputs) != 1:
        raise ValueError("complete-tensor takes exactly one --input")
    data = _load_tensor_input(spec.inputs[0])
    mask = _mask_for(spec, data.shape)
    problem = CompletionProblem.from_tensor(data, mask)
    if not spec.init_rank:
        raise ValueError("--init-rank is required")
    n3 = problem.dims[2]
    config = _solver_config(
        spec,
        parse_rank_spec(spec.init_rank, n3),
        DoubleTubalConfig,
        p=spec.p,
        q=spec.q,
        gamma0=spec.gamma0,
        adaptive_gamma=spec.adaptive_gamma,
    )
    if spec.init_rank_xt:
        _, q = config.geometry(problem.dims[0], problem.dims[1])
        config.init_ranks_xt = parse_rank_spec(spec.init_rank_xt, q)
    x, trace = solve_tensor(problem, config)
    return _write_outputs(spec, x, trace, data, mask.observed)


def _run_synth(spec):
    if not spec.output:
        raise ValueError("synth needs --output DIRECTORY")
    n2 = spec.n2
    if n2 < 1 or SYNTH_WIDTH % n2:
        raise ValueError(f"--n2 must be a positive divisor of {SYNTH_WIDTH} for synth, got {n2}")
    os.makedirs(spec.output, exist_ok=True)
    ratio = spec.ratio if spec.ratio is not None else 0.6
    truth = synth_low_tubal(SYNTH_N1, n2, SYNTH_WIDTH // n2, SYNTH_RANK, spec.seed)
    matrix = tensor_to_matrix(truth, SYNTH_WIDTH)
    mask3 = generate_mask((SYNTH_N1, SYNTH_WIDTH, 1), ratio, spec.seed)
    mask2d = mask3.observed[:, :, 0]
    problem = CompletionProblem.from_matrix(matrix, mask2d, n2)
    init = parse_rank_spec(spec.init_rank if spec.init_rank else "8", problem.dims[2])
    _, recovered, trace = solve_matrix(problem, _solver_config(spec, init))
    err = rel_error(recovered, matrix)
    save_tensor(os.path.join(spec.output, "truth.t3"), truth)
    save_mask(os.path.join(spec.output, "mask.msk"), problem.mask)
    save_tensor(os.path.join(spec.output, "recovered.t3"), recovered[:, :, None])
    trace.write_csv(os.path.join(spec.output, "trace.csv"))
    _write_metrics(
        os.path.join(spec.output, "metrics.csv"),
        _metric_rows(matrix, recovered),
    )
    print(f"rel_error={err:.6e}")
    return EXIT_OK if trace.converged else EXIT_MAX_ITER


def _load_metric_input(path):
    ext = os.path.splitext(path)[1].lower()
    if ext == ".t3":
        return load_tensor(path)
    if ext in (".pgm", ".ppm"):
        return load_image(path)
    raise ValueError(f"cannot read metrics input {path}")


def _run_metrics(spec):
    if len(spec.inputs) != 2:
        raise ValueError("metrics takes --input REFERENCE --input TEST")
    ref = _load_metric_input(spec.inputs[0])
    test = _load_metric_input(spec.inputs[1])
    rows = _metric_rows(ref, test)
    if spec.metrics_out:
        _write_metrics(spec.metrics_out, rows)
    for name, value in rows:
        print(f"{name}={value:.17g}")
    return EXIT_OK


def run(spec):
    """Execute one harness command; returns the process exit code."""
    handlers = {
        "complete-matrix": _run_complete_matrix,
        "complete-tensor": _run_complete_tensor,
        "synth": _run_synth,
        "metrics": _run_metrics,
    }
    if spec.command not in handlers:
        raise ValueError(f"unknown command {spec.command!r}")
    return handlers[spec.command](spec)
