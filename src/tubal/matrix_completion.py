"""Matrix completion through low-rank factorization of a folded tensor.

The observed matrix is folded into a third-order tensor of consecutive column
blocks, factored per frequency slice, and alternately refit: left factors,
right factors, then the unobserved entries are replaced by the current
factorization.  Early iterations refresh the iterate mid-sweep, which speeds
up the initial descent; per-slice ranks shrink on the fly when the factor
Gram spectrum shows a clear gap.  A start with enough factor capacity to
interpolate the data instead grows its ranks from 1 (RankGrowth).
"""

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .core import (
    MultiRank,
    ObservationMask,
    dft_mode3,
    fro_norm,
    pair_weights,
    project,
    reshape_matrix_to_tensor,
    tensor_to_matrix,
    _irfft_checked,
)
from .factors import (
    RankDecreaseConfig,
    as_multirank,
    can_interpolate,
    compose,
    compose_spectral,
    grow_ranks,
    init_factors,
    rank_decrease,
    truncate_ranks,
    update_left,
    update_right,
)

RANK_STABLE_ITERS = 5  # rank detection switches off after this many quiet sweeps
PLATEAU = 1e-2  # mean residual ratio this close to 1 triggers rank growth
RATE_WINDOW = 3  # sweeps averaged into the residual contraction rate
SLOW_RATIO = 0.7  # contraction above this raises the relaxation weight


@dataclass
class CompletionProblem:
    """Observed entries of a tensor plus the pattern that marks them.

    observed is zero outside the mask (enforced on construction).  For
    problems that started as a matrix, original_width remembers how many
    columns to keep when unfolding the recovered tensor back.
    """

    observed: np.ndarray
    mask: ObservationMask
    original_width: int = None

    def __post_init__(self):
        self.observed = np.asarray(self.observed, dtype=float)
        if self.observed.shape != self.mask.dims:
            raise ValueError(
                f"data shape {self.observed.shape} != mask shape {self.mask.dims}"
            )
        self.observed = np.where(self.mask.observed, self.observed, 0.0)
        if not np.isfinite(self.observed).all():
            raise ValueError("observed entries must be finite (NaN or inf found)")

    @property
    def dims(self):
        return self.observed.shape

    @classmethod
    def from_matrix(cls, matrix, mask2d, n2):
        """Fold an (n1, h) matrix and its observation pattern into tensors.

        Columns added by padding are marked observed with value zero, so the
        solver treats them as data rather than entries to fill.
        """
        matrix = np.asarray(matrix, dtype=float)
        mask2d = np.asarray(mask2d, dtype=bool)
        if matrix.shape != mask2d.shape:
            raise ValueError(f"matrix {matrix.shape} and mask {mask2d.shape} differ")
        h = matrix.shape[1]
        data, pad = reshape_matrix_to_tensor(np.where(mask2d, matrix, 0.0), n2)
        padded_mask = np.pad(mask2d, ((0, 0), (0, pad)), constant_values=True)
        mask_t, _ = reshape_matrix_to_tensor(padded_mask.astype(float), n2)
        mask = ObservationMask(mask_t > 0.5, pad_observed_zero=pad > 0)
        return cls(observed=data, mask=mask, original_width=h)

    @classmethod
    def from_tensor(cls, data, mask):
        if not isinstance(mask, ObservationMask):
            mask = ObservationMask(mask)
        return cls(observed=data, mask=mask)


@dataclass(kw_only=True)
class SolverConfig:
    """Settings shared by the completion solvers.

    init_ranks may be an int (same rank on every slice), a full per-slice
    sequence, or a MultiRank.  t0 is the last sweep that refreshes the iterate
    mid-sweep; epsilon is the relative-change stopping threshold.

    With rank detection on (rank_cfg.enabled), a start whose factors carry at
    least as many real degrees of freedom as there are observed entries,
    sum over all n3 slices of r_k * (n1 + n2 - r_k), would interpolate the
    data.  There init_ranks is a ceiling: ranks start at 1 and grow (see
    RankGrowth), and epsilon bounds the relative change scaled by
    max(1, rho / (1 - rho)), rho being the observed residual's recent
    contraction per sweep.  Below that line init_ranks is the start and
    epsilon bounds the plain relative change.
    """

    init_ranks: object
    t0: int = 10
    epsilon: float = 1e-4
    max_iter: int = 100
    rank_cfg: RankDecreaseConfig = field(default_factory=RankDecreaseConfig)
    seed: int = 0

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.t0 < 0:
            raise ValueError(f"t0 must be nonnegative, got {self.t0}")


@dataclass
class TraceRow:
    iteration: int
    objective: float
    rel_change: float
    ranks: object
    elapsed_ms: float
    event: str = ""  # "+"-joined rank_decrease[_xt], rank_increase; or sor_reject
    step_sq: float = 0.0  # squared factor-product step, kept in memory only
    gamma: float = None
    ranks_xt: object = None


@dataclass
class SolverTrace:
    """Per-sweep history of a solver run."""

    rows: list = field(default_factory=list)
    termination: str = ""
    final_factors: object = None

    @property
    def converged(self):
        return self.termination == "converged"

    @property
    def iterations(self):
        return len(self.rows)

    def objectives(self):
        return np.array([r.objective for r in self.rows])

    def write_csv(self, path):
        """Write one row per sweep; the blend columns appear only when used."""
        with_gamma = any(r.gamma is not None for r in self.rows)
        header = ["iter", "g", "rel_change", "ranks", "elapsed_ms", "event"]
        if with_gamma:
            header += ["gamma", "ranks_xt"]
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(header)
            for r in self.rows:
                row = [
                    r.iteration,
                    f"{r.objective:.17g}",
                    f"{r.rel_change:.17g}",
                    ";".join(str(v) for v in r.ranks),
                    f"{r.elapsed_ms:.3f}",
                    r.event,
                ]
                if with_gamma:
                    row += [
                        f"{r.gamma:.17g}",
                        ";".join(str(v) for v in r.ranks_xt),
                    ]
                out.writerow(row)


class RankGrowth:
    """Sweep schedule for a starting factor pair that can interpolate the data.

    When the requested ranks carry at least as many degrees of freedom as
    there are observed entries, the fit interpolates the observations, the
    objective cannot tell the truth from other fits, and the eigen-gap test
    finds no gap to cut through.  On that path every slice starts at rank 1
    with the requested ranks as its ceiling, and grows by the leading singular
    pair of its residual whenever the observed residual plateaus (rank
    detection then turns back on).  The refill the next sweep fits is
    over-relaxed as fill + omega * P_Omega(data - fill), after LMaFit; a sweep
    whose observed residual does not fall is rejected and redone at omega = 1.
    The relative-change stop is scaled by max(1, rho / (1 - rho)), rho being
    the observed residual's contraction per sweep over the last RATE_WINDOW
    sweeps, which bounds the remaining distance of a linearly convergent
    iteration; a sweep that follows a growth or a rejection is not tested.
    """

    def __init__(self, ceiling):
        self.ceiling = tuple(ceiling)  # stored-slice rank limits
        self.omega = 1.0
        self._step = 1.0
        self._residual = None
        self._ratios = []
        self._skip_stop = False

    @classmethod
    def for_run(cls, problem, ranks, rank_cfg):
        """The schedule for these starting ranks, or None below the capacity line."""
        if rank_cfg.enabled and can_interpolate(problem.dims, ranks, problem.mask.count):
            return cls(ranks.stored())
        return None

    def start(self, factors):
        """Cut a factor pair drawn at the ceiling down to rank 1 per slice."""
        stored = [min(1, r) for r in self.ceiling]
        return truncate_ranks(factors, MultiRank.from_stored(stored, factors.dims[2]))

    def accept(self, residual):
        """Judge a sweep by its residual norm sqrt(2 * objective); False rejects it.

        For the matrix solver that norm is the observed residual
        ||P_Omega(data - fill)||; the blended solver passes its blended analog.
        """
        if self._residual is not None:
            ratio = residual / self._residual if self._residual > 0 else 0.0
            if self.omega > 1.0 and ratio >= 1.0:
                self._step = max(0.1 * (self.omega - 1.0), 0.1 * self._step)
                self.omega = 1.0
                self._skip_stop = True
                return False
            self._ratios.append(ratio)
            if ratio > SLOW_RATIO:
                self._step = max(self._step, 0.25 * (self.omega - 1.0))
                self.omega += self._step
        self._residual = residual
        return True

    def relaxed(self, fill, x):
        """The refill the next sweep fits, given the exact refill x of fill."""
        return fill + self.omega * (x - fill)

    def _rate(self):
        return float(np.mean(self._ratios[-RATE_WINDOW:])) if self._ratios else 0.0

    def converged(self, rel, epsilon):
        """The rate-aware stop test on a sweep's relative change."""
        if self._skip_stop:
            self._skip_stop = False
            return False
        rho = self._rate()
        return rho < 1.0 and rel * max(1.0, rho / (1.0 - rho)) < epsilon

    def grow(self, factors, residual):
        """Grow every slice below its ceiling once the observed residual plateaus.

        residual is the stored spectrum of the fitted refill minus the slice
        products.  Returns (factors, grown).
        """
        if not self._ratios or abs(1.0 - self._rate()) >= PLATEAU:
            return factors, False
        factors, grown = grow_ranks(factors, residual, self.ceiling)
        if grown:
            self.omega = 1.0
            self._skip_stop = True
        return factors, grown


def update_x(factors, problem):
    """Fill the unobserved entries with the current factorization."""
    return project(compose(factors), problem.mask, problem.observed)


def _observed_index(problem):
    """C-order flat positions of the observed entries (int32 when they fit), and their values."""
    m = problem.mask.observed
    idx = np.flatnonzero(m).astype(np.int32 if m.size <= np.iinfo(np.int32).max else np.intp)
    return idx, problem.observed.take(idx)


def _refill(a, observed_index):
    """project() written into a, an array the caller owns; np.put indexes in C order."""
    np.put(a, *observed_index)
    return a


def _rank_settled(changed, stable, event, name):
    """Log a rank_decrease cut to event as name; detection stays on until
    RANK_STABLE_ITERS sweeps in a row cut nothing.  Returns (on, stable)."""
    if changed:
        event.append(name)
    stable = 0 if changed else stable + 1
    return stable < RANK_STABLE_ITERS, stable


def _half_weighted_sq(slices, n3):
    w = pair_weights(n3)
    return float(np.einsum("ijk,ijk,k->", slices, np.conj(slices), w).real)


def _objective_spectral(products, spec, n3):
    return _half_weighted_sq(products - spec.slices, n3) / (2.0 * n3)


def objective(factors, x):
    """Half squared distance between the factorization and x.

    Evaluated on the stored half spectrum with conjugate-pair weights; equal
    to 0.5 * ||compose(factors) - x||_F^2.
    """
    spec = dft_mode3(np.asarray(x, float))
    return _objective_spectral(compose_spectral(factors), spec, factors.dims[2])


def _rel_change(new, old):
    denom = fro_norm(old)
    diff = fro_norm(new - old)
    return diff / denom if denom > 1e-15 else diff


def solve(problem, config):
    """Alternating least-squares completion of a folded matrix.

    Returns
    -------
    x : ndarray
        Recovered tensor, exact on the observed entries.
    matrix : ndarray or None
        Recovered matrix with padding stripped, when the problem records an
        original width.
    trace : SolverTrace
    """
    n1, n2, n3 = problem.dims
    ranks = as_multirank(config.init_ranks, n3)
    factors = init_factors(n1, n2, n3, ranks, np.random.default_rng(config.seed))
    growth = RankGrowth.for_run(problem, ranks, config.rank_cfg)
    if growth is not None:
        factors = growth.start(factors)
    observed_index = _observed_index(problem)
    x = problem.observed.copy()
    spec = dft_mode3(x)
    prev_products = compose_spectral(factors)
    trace = SolverTrace(termination="max_iter")
    rank_on = config.rank_cfg.enabled
    stable = 0
    for t in range(1, config.max_iter + 1):
        started = time.perf_counter()
        before = factors, rank_on, stable  # what a rejected sweep restores
        factors = update_left(factors, spec)
        if t <= config.t0:
            spec = dft_mode3(_refill(compose(factors), observed_index))
        factors = update_right(factors, spec)
        event = []
        if rank_on:
            factors, _, changed = rank_decrease(factors, config.rank_cfg)
            rank_on, stable = _rank_settled(changed, stable, event, "rank_decrease")
        products = compose_spectral(factors)
        x_new = _refill(_irfft_checked(products, n3, tol=1e-9), observed_index)
        spec = dft_mode3(x_new)  # the sweep's own spectrum is spent: replace it now
        g = _objective_spectral(products, spec, n3)
        if not np.isfinite(g):
            raise FloatingPointError(f"objective became non-finite at sweep {t}")
        rel = _rel_change(x_new, x)
        accepted = growth is None or growth.accept(np.sqrt(2.0 * g))
        row = TraceRow(
            iteration=t,
            objective=g,
            rel_change=rel,
            ranks=factors.ranks,
            elapsed_ms=0.0,
            step_sq=_half_weighted_sq(products - prev_products, n3) / (2.0 * n3),
        )
        if not accepted:
            event = ["sor_reject"]
            factors, rank_on, stable = before
            spec = dft_mode3(x)
        elif growth is None:
            stop = rel < config.epsilon
            x, prev_products = x_new, products
        else:
            stop = growth.converged(rel, config.epsilon)
            # growth on the last sweep would leave factors that do not match x
            if not stop and t < config.max_iter:
                factors, grown = growth.grow(factors, spec.slices - products)
                if grown:
                    event.append("rank_increase")
                    rank_on, stable = True, 0
            if growth.omega != 1.0:
                # the fill is rebuilt rather than kept, so the plain path holds no extra array
                fill = _irfft_checked(products, n3, tol=1e-9)
                spec = dft_mode3(growth.relaxed(fill, x_new))
            x, prev_products = x_new, products
        row.event = "+".join(event)
        row.elapsed_ms = (time.perf_counter() - started) * 1e3
        trace.rows.append(row)
        if accepted and stop:
            trace.termination = "converged"
            break
    trace.final_factors = factors
    matrix = None
    if problem.original_width is not None:
        matrix = tensor_to_matrix(x, problem.original_width)
    return x, matrix, trace


def kkt_residuals(factors, x, problem):
    """First-order stationarity residuals of the completion objective.

    Returns (left-factor residual, right-factor residual, complement-set
    residual), each normalized by the Frobenius norm of the observed data.
    """
    n3 = factors.dims[2]
    w = pair_weights(n3)
    spec = dft_mode3(np.asarray(x, float))
    products = compose_spectral(factors)
    diff = spec.slices - products
    r_left = r_right = 0.0
    for k in range(factors.n_stored):
        r_left += w[k] * np.linalg.norm(diff[:, :, k] @ factors.right[k].conj().T) ** 2
        r_right += w[k] * np.linalg.norm(factors.left[k].conj().T @ diff[:, :, k]) ** 2
    off = np.where(problem.mask.observed, 0.0, x - _irfft_checked(products, n3, tol=1e-9))
    scale = fro_norm(problem.observed) or 1.0
    return np.sqrt(r_left) / scale, np.sqrt(r_right) / scale, fro_norm(off) / scale
