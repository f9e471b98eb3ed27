"""The benchmark's workloads: inputs made from a seed, the call it times, output checks.

Every input is synthetic.  A run's seed expands into a fixed list of instance
seeds, so the same seed always gives the same instances; the timed loop
cycles through them.

Each workload also names a reference kernel: NumPy-only work of the same kind
as its hot path (per-slice least-squares sweeps, or full-array passes)
that never calls tubal.  The timed loop runs it between calls, so each call's
time can be divided by the machine's speed at that moment.
"""

import csv
import hashlib
import os
from types import SimpleNamespace

import numpy as np

from tubal import (
    CompletionProblem,
    DoubleTubalConfig,
    SolverConfig,
    generate_mask,
    load_image,
    rel_error,
    save_image,
    synth_low_tubal,
    tprod,
)
from tubal import cli, matrix_completion, tensor_completion


def instance_seeds(seed, count):
    """The run's instance seeds, a pure function of (seed, count)."""
    return [int(v) for v in np.random.SeedSequence(seed).generate_state(count)]


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# Each reference kernel's median wall time on the machine where the benchmark
# was written (2 vCPUs of an Intel Xeon, NumPy 2.4.6 with OpenBLAS 0.3.31,
# one thread).  Reported times are scaled to this speed; see worker.timed.
REFERENCE_S = {"tensor-large": 0.17, "tubes-long": 0.076, "image-cli": 0.061}


class SliceSweeps:
    """Reference kernel: matrix-solver sweeps over an array of the given shape, in NumPy only.

    A sweep takes an rfft along mode 3, refreshes every stored slice pair at
    the given rank with the pinv least-squares steps the factors layer uses,
    takes each slice's Gram eigenvalues, composes the slice products, and
    ends with an irfft, a masked blend and a squared norm.  Its working set
    and its mix of small NumPy calls and full-array passes match the
    workload's, so it slows down when the workload does.
    """

    def __init__(self, shape, rank, sweeps):
        self.shape, self.rank, self.sweeps = shape, rank, sweeps
        self.x = None  # made on first use, so other workloads' memory stays out of a run

    def __call__(self):
        n1, n2, n3 = self.shape
        half = n3 // 2 + 1
        if self.x is None:
            rng = np.random.default_rng(12345)
            self.x, self.mask = rng.standard_normal(self.shape), rng.random(self.shape) < 0.7
            self.right = [rng.standard_normal((self.rank, n2)) + 1j * rng.standard_normal((self.rank, n2))
                          for _ in range(half)]
        right = list(self.right)
        left = [None] * half
        for _ in range(self.sweeps):
            spec = np.fft.rfft(self.x, axis=2)
            for k in range(half):
                q = right[k]
                left[k] = spec[:, :, k] @ q.conj().T @ np.linalg.pinv(q @ q.conj().T)
            for k in range(half):
                p = left[k]
                right[k] = np.linalg.pinv(p.conj().T @ p) @ p.conj().T @ spec[:, :, k]
                np.linalg.eigvalsh(right[k] @ right[k].conj().T)
            products = np.empty((n1, n2, half), complex)
            for k in range(half):
                products[:, :, k] = left[k] @ right[k]
            y = np.where(self.mask, self.x, np.fft.irfft(products, n=n3, axis=2))
            float(np.sum((y - self.x) ** 2))


class FullPasses:
    """Reference kernel: the full-array passes of a solver sweep over an array of the given shape.

    Each of reps rounds takes an rfft and irfft along mode 3, a mode-3
    regroup, a masked blend and a squared norm.
    """

    def __init__(self, shape, reps):
        self.shape, self.reps, self.t = shape, reps, None

    def __call__(self):
        if self.t is None:
            rng = np.random.default_rng(12345)
            self.t, self.mask = rng.standard_normal(self.shape), rng.random(self.shape) < 0.5
        n = self.shape[2]
        for _ in range(self.reps):
            x = np.fft.irfft(np.fft.rfft(self.t, axis=2) * 1.0001, n=n, axis=2)
            np.transpose(x, (2, 0, 1)).copy()
            y = np.where(self.mask, self.t, 0.5 * x) + x
            float(np.sum(y * y))


class KernelMix:
    """Reference kernel: several kernels run back to back."""

    def __init__(self, *kernels):
        self.kernels = kernels

    def __call__(self):
        for kernel in self.kernels:
            kernel()


class _LibraryWorkload:
    """A solver called on a CompletionProblem built from a synthetic truth."""

    def setup(self, workdir):
        pass

    def construct(self, truth, seed):
        mask = generate_mask(truth.shape, self.ratio, seed=seed)
        return CompletionProblem.from_tensor(truth * mask.observed, mask)

    def prepare(self, seed):
        truth = self.truth(seed)
        return SimpleNamespace(seed=seed, truth=truth, problem=self.construct(truth, seed))

    def check(self, inst, result):
        """(failure reason or None, rel_error, psnr_gain_db, output digest)."""
        x, trace = result[0], result[-1]
        problem = inst.problem
        if x.shape != inst.truth.shape or not np.all(np.isfinite(x)):
            return "output not finite or misshapen", None, None, None
        err = rel_error(x, inst.truth)
        gain = 20.0 * np.log10(
            np.linalg.norm(problem.observed - inst.truth) / np.linalg.norm(x - inst.truth)
        )
        history = np.array([(r.objective, r.rel_change) for r in trace.rows])
        on = problem.mask.observed
        reason = None
        if not np.array_equal(x[on], problem.observed[on]):
            reason = "observed entries changed"
        elif not err < self.bar:
            reason = f"rel_error {err:.3e} above {self.bar:g}"
        return reason, err, gain, _digest(x, history)


class TensorLarge(_LibraryWorkload):
    name = "tensor-large"
    entry_name = "tensor_completion.solve"
    instances = 2
    # Calls take about 8 s and vary by 10-20% even within one run, so a run
    # makes at least 5 of them for its median.
    min_calls = 5
    ratio = 0.5
    bar = 0.1  # seeds 0-2 end at 6.1e-2 to 6.4e-2 after the 30-sweep cap
    reference = FullPasses((200, 200, 30), reps=5)
    reference_s = REFERENCE_S["tensor-large"]

    def entry(self):
        return tensor_completion.solve

    def truth(self, seed):
        return synth_low_tubal(200, 200, 30, 5, seed=seed)

    def call(self, entry, inst):
        return entry(inst.problem, DoubleTubalConfig(init_ranks=5, max_iter=30, seed=inst.seed))


class TubesLong(_LibraryWorkload):
    name = "tubes-long"
    entry_name = "matrix_completion.solve"
    instances = 20
    min_calls = 20
    ratio = 0.7
    # 100 instances: 99 end at 1.7e-4 to 3e-4; one, where rank detection
    # switched off with 16 rank-1 slices left at rank 2, at 2.8e-2.
    bar = 0.05
    reference = SliceSweeps((16, 16, 512), rank=2, sweeps=2)
    reference_s = REFERENCE_S["tubes-long"]

    def entry(self):
        return matrix_completion.solve

    def truth(self, seed):
        # Tubal rank 2, but a random half of the stored frequency slices have
        # rank 1, so a rank-2 start is over-provisioned there and rank
        # detection has real work to do.
        rng = np.random.default_rng(seed)
        left = np.fft.rfft(rng.standard_normal((16, 2, 512)), axis=2)
        left[:, 1, rng.permutation(left.shape[2])[: left.shape[2] // 2]] = 0.0
        right = rng.standard_normal((2, 16, 512))
        return tprod(np.fft.irfft(left, n=512, axis=2), right)

    def call(self, entry, inst):
        return entry(inst.problem, SolverConfig(init_ranks=2, seed=inst.seed))


def scene(n=512):
    """The acceptance suite's criterion-7 synthetic scene, rendered at n x n."""
    yy, xx = np.mgrid[0:n, 0:n] / (n - 1.0)
    img = (
        0.35
        + 0.3 * np.sin(2 * np.pi * (1.3 * xx + 0.4 * yy)) * np.cos(2 * np.pi * 0.9 * yy)
        + 0.25 * np.exp(-((xx - 0.3) ** 2 + (yy - 0.6) ** 2) / 0.02)
    )
    img[(xx - 0.7) ** 2 + (yy - 0.25) ** 2 < 0.03] = 0.9
    return np.clip(img, 0.0, 1.0)


class ImageCli:
    name = "image-cli"
    entry_name = "cli.main"
    # PSNR gain differs by instance (8.4 to 13.7 dB over 20 seeds), so the
    # median needs a dozen of them to be steady from one seed to the next.
    instances = 12
    min_calls = 12
    ratio = 0.7
    min_gain_db = 5.0  # criterion 7's bar
    # The CLI's solver makes full-array passes and per-slice solves in about
    # equal measure; a mix of both kernels tracks it better than either.
    reference = KernelMix(FullPasses((512, 16, 32), reps=6), SliceSweeps((512, 16, 32), rank=8, sweeps=2))
    reference_s = REFERENCE_S["image-cli"]

    def entry(self):
        return cli.main

    def setup(self, workdir):
        self.workdir = workdir
        self.src = os.path.join(workdir, "scene.pgm")
        save_image(self.src, scene())
        self.pixels = load_image(self.src)

    def prepare(self, seed):
        paths = {k: os.path.join(self.workdir, f"{k}-{seed}") for k in ("out", "metrics", "trace")}
        paths["out"] += ".pgm"
        observed = generate_mask(self.pixels.shape + (1,), self.ratio, seed=seed).observed
        return SimpleNamespace(seed=seed, paths=paths, observed=observed[:, :, 0])

    def call(self, entry, inst):
        p = inst.paths
        return entry([
            "complete-matrix", "--input", self.src, "--ratio", str(self.ratio), "--n2", "16",
            "--init-rank", "8", "--seed", str(inst.seed), "--output", p["out"],
            "--metrics-out", p["metrics"], "--trace", p["trace"],
        ])

    def check(self, inst, code):
        if code not in (0, 2):
            return f"exit code {code}", None, None, None
        with open(inst.paths["metrics"], newline="") as f:
            got = {row[0]: float(row[1]) for row in list(csv.reader(f))[1:]}
        gain = got["psnr"] - got["psnr_observed"]
        # The trace CSV's elapsed_ms column is a timing, so it is left out of the digest.
        with open(inst.paths["trace"], newline="") as f:
            trace_rows = [row[:4] + row[5:] for row in csv.reader(f)]
        with open(inst.paths["out"], "rb") as f, open(inst.paths["metrics"], "rb") as g:
            digest = hashlib.sha256(f.read() + g.read() + repr(trace_rows).encode()).hexdigest()
        recovered = load_image(inst.paths["out"])
        reason = None
        if not np.array_equal(recovered[inst.observed], self.pixels[inst.observed]):
            reason = "observed pixels changed"
        elif not gain >= self.min_gain_db:
            reason = f"psnr gain {gain:.2f} dB below {self.min_gain_db:g}"
        return reason, got["rel_error"], gain, digest


WORKLOADS = {w.name: w for w in (TensorLarge(), TubesLong(), ImageCli())}
