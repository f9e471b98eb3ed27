"""Matrix completion through low-rank factorization of a folded tensor, and
the sweep engine that the tensor solver shares.

The observed matrix is folded into a third-order tensor of consecutive column
blocks and factored per frequency slice.  Per-slice ranks shrink on the fly
when the factor Gram spectrum shows a clear gap.  A start with enough factor
capacity to interpolate the data instead grows its ranks from 1 (RankGrowth).

The sweep engine (_sweeps) runs over a list of sides (_Side): factor pairs
fitted to the same iterate, each through its own regrouping of it.  This
solver is the engine on one side; tensor_completion adds the regrouped side,
blended in with weight gamma.  A sweep, written out in _sweeps alone:

1. Each side in turn updates its left factors, then its right ones.  In
   stage one (the first t0 sweeps) the iterate is refilled after every
   factor update, so a side's right update and each later side fit the
   newest refill; in stage two all fit the last sweep's iterate.
2. Ranks shrink where a Gram eigen-gap shows.
3. The iterate is refilled from the sides' reconstructions; every side fits it.

The sweep after a rank_increase or a side_off is not stop-tested.  The
public step functions (update_x, objective, kkt_residuals, and their tensor
counterparts) are built from the engine's own primitives.
"""

import csv
import time
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from . import core
from .core import (
    MultiRank,
    ObservationMask,
    SpectralTensor,
    check_count,
    check_real,
    dft_mode3,
    fro_norm,
    project,  # noqa: F401 -- bound for perfbench/layertrace.py, which wraps it here
    reshape_matrix_to_tensor,
    tensor_to_matrix,
    _half_weighted_sq,
    _irfft_checked,
)
from .factors import (
    RankDecreaseConfig,
    can_interpolate,
    compose,  # noqa: F401 -- bound for perfbench/layertrace.py, which wraps it here
    compose_spectral,
    gradient_sq,
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
MOMENTUM_CAP = 0.7  # largest extrapolation weight of a one-side growth sweep
SIDE_OFF_GAMMA = 0.25  # an adaptive gamma refit below this switches the second side off


@dataclass
class CompletionProblem:
    """Observed entries of a tensor plus the pattern that marks them.

    observed is zero outside the mask (enforced on construction), and the
    mask must mark at least one entry.  For problems that started as a
    matrix, original_width remembers how many columns to keep when unfolding
    the recovered tensor back.
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
        if not self.mask.observed.any():
            raise ValueError("the mask marks no entry as observed")
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
        if not mask2d.any():  # checked before the padding adds observed zeros
            raise ValueError("the mask marks no entry as observed")
        h = matrix.shape[1]
        data, pad = reshape_matrix_to_tensor(matrix, n2)
        padded_mask = np.pad(mask2d, ((0, 0), (0, pad)), constant_values=True)
        mask_t, _ = reshape_matrix_to_tensor(padded_mask, n2)
        mask = ObservationMask(mask_t, pad_observed_zero=pad > 0)
        return cls(observed=data, mask=mask, original_width=h)

    @classmethod
    def from_tensor(cls, data, mask):
        if not isinstance(mask, ObservationMask):
            mask = ObservationMask(mask)
        return cls(observed=data, mask=mask)


@dataclass(kw_only=True)
class SolverConfig:
    """Settings shared by the completion solvers.

    init_ranks is a rank spec (see factors.as_multirank): an int (same rank on
    every slice), a full per-slice sequence, a MultiRank or a string such as
    "4,2*".  t0 is the last sweep that refreshes the iterate mid-sweep;
    epsilon is the relative-change stopping threshold.

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
        check_real(self.epsilon, "epsilon", 0, above=True)
        check_count(self.max_iter, "max_iter", 1)
        check_count(self.t0, "t0")
        check_count(self.seed, "seed")


@dataclass
class TraceRow:
    iteration: int
    objective: float
    rel_change: float
    ranks: object
    elapsed_ms: float
    event: str = ""  # "+"-joined rank_decrease[_xt], side_off, rank_increase
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
    detection then turns back on).  After k one-side sweeps in a row whose
    observed residual fell, the next sweep fits x + beta * (x - x_prev) with
    beta = min(MOMENTUM_CAP, (k - 1) / (k + 2)), restarted momentum after
    O'Donoghue and Candes (a blended sweep's gamma already adapts); a rise, a
    blended sweep or a growth step restarts it at k = 0.  x and x_prev agree
    with the data on the observed entries, so the extrapolation does too.  The
    relative-change stop is scaled by max(1, rho / (1 - rho)), rho being the
    observed residual's contraction per sweep over the last RATE_WINDOW sweeps,
    which bounds the remaining distance of a linearly convergent iteration.
    """

    def __init__(self, ceiling):
        self.ceiling = tuple(ceiling)  # stored-slice rank limits
        self.falls = 0  # one-side sweeps in a row whose residual fell
        self._prev = None  # the last iterate's spectrum
        self._residual = None
        self._ratios = []

    @classmethod
    def for_run(cls, problem, side, rank_cfg):
        """The schedule for a slice side's starting ranks, or None below the capacity line.

        Above it, the side is cut down to rank 1 per slice.
        """
        ranks = side.factors.ranks
        if not (rank_cfg.enabled and can_interpolate(problem.dims, ranks, problem.mask.count)):
            return None
        side.factors = truncate_ranks(side.factors, MultiRank([min(1, r) for r in ranks]))
        return cls(ranks.stored())

    def record(self, residual, one_side=True):
        """Log a sweep's residual norm sqrt(2 * objective): the observed residual
        ||P_Omega(data - fill)|| of a one-side sweep, or a blended sweep's analog."""
        if self._residual is not None:
            ratio = residual / self._residual if self._residual > 0 else 0.0
            self._ratios.append(ratio)
            self.falls = self.falls + 1 if one_side and ratio < 1.0 else 0
        self._residual = residual

    @property
    def beta(self):
        """The momentum weight of the next sweep's extrapolation."""
        return max(0.0, min(MOMENTUM_CAP, (self.falls - 1) / (self.falls + 2)))

    def extrapolate(self, side):
        """Swap side.spec, the spectrum of x, for that of x + beta * (x - x_prev)."""
        x, prev, self._prev = side.spec, self._prev, side.spec
        if self.beta > 0.0:
            side.spec = SpectralTensor(x.dims, x.slices + self.beta * (x.slices - prev.slices))

    def _rate(self):
        return float(np.mean(self._ratios[-RATE_WINDOW:])) if self._ratios else 0.0

    def converged(self, rel, epsilon):
        """The rate-aware stop test on a sweep's relative change."""
        rho = self._rate()
        return rho < 1.0 and rel * max(1.0, rho / (1.0 - rho)) < epsilon

    def grow(self, side):
        """Grow every slice of side below its ceiling, from the residual of the
        spectrum it fits, once the observed residual plateaus; True if any grew."""
        if not self._ratios or abs(1.0 - self._rate()) >= PLATEAU:
            return False
        side.factors, grown = grow_ranks(
            side.factors, side.spec.slices - side.products(), self.ceiling
        )
        if grown:
            self.falls = side.stable = 0
        return grown


def _observed_index(problem):
    """C-ordered pair: the unobserved pattern, and the zero-filled observed data."""
    return np.ascontiguousarray(~problem.mask.observed), np.ascontiguousarray(problem.observed)


def _refill(a, observed_index):
    """project() written into a, an array the caller owns: a*1 + 0 is a and a*0 + v is v, for
    every finite a (an unobserved -0.0 turns +0.0)."""
    unobserved, observed = observed_index
    np.multiply(a, unobserved, out=a)
    a += observed
    return a


def _rel_change(new, old):
    """||new - old|| / ||old|| (the bare ||new - old|| when old is 0), in one pass over both
    a block at a time."""
    new, old, n = np.ravel(new), np.ravel(old), core.BLOCK
    num = den = 0.0
    for i in range(0, new.size, n):
        d, o = new[i : i + n] - old[i : i + n], old[i : i + n]
        num, den = num + d @ d, den + o @ o
    return float(np.sqrt(num / den if den > 0 else num))


def _blend(base, other, gamma):
    """gamma-weighted mean of both sides, folded back, as a new C-contiguous array."""
    out = np.multiply(other, gamma, order="C")
    out += base
    out /= 1.0 + gamma
    return out


def _refit_gamma(sides, observed_index, gamma):
    """The blend weight refit to the two sides' reconstructions a and b:
    ||P_Omega(a - observed)|| / ||P_Omega(b - observed)||, or gamma unchanged
    when b fits the observed entries exactly.  observed_index is _observed_index's pair."""
    seen, observed = ~observed_index[0], observed_index[1]
    num, den = (fro_norm((s.spatial() - observed) * seen) for s in sides)
    return num / den if den > 0 else gamma


class _Side:
    """One factorization that the sweep engine fits to the iterate.

    A side holds a factor pair; regroup, from the iterate to the tensor it
    factors (None: the iterate itself), and fold, back; stable, the sweeps in a
    row its rank detection cut nothing (it runs while below RANK_STABLE_ITERS),
    and the event its cuts are logged as; and its reconstruction, rebuilt only
    when the factor pair object changes.
    """

    def __init__(self, factors, regroup=None, fold=None, event="rank_decrease"):
        self.factors = factors
        self.regroup, self.fold, self.event = regroup, fold, event
        self.stable = 0
        self.spec = None  # spectrum of the tensor the next update fits
        self.prev = None  # products of the last accepted sweep
        self._built = self._products = self._spatial = None

    def fit(self, x):
        """Make x, in the iterate's layout, the tensor the next update fits."""
        if self.regroup is not None:
            x = self.regroup(x)  # rebinding x frees a caller's temporary before the transform
        self.spec = dft_mode3(x)
        return self

    def drop(self):
        """Forget the reconstruction."""
        self._built = self._products = self._spatial = None

    def products(self):
        """Stored slice products of the current factors."""
        if self._built is not self.factors:
            self.drop()  # the stale pair goes before its successor is built
            self._products = compose_spectral(self.factors)
            self._built = self.factors
        return self._products

    def spatial(self):
        """The reconstruction in the iterate's layout."""
        products = self.products()
        if self._spatial is None:
            spatial = _irfft_checked(products, self.factors.dims[2], tol=1e-9)
            self._spatial = spatial if self.fold is None else self.fold(spatial)
        return self._spatial


def _fill(sides, gamma):
    """The tensor that refills the iterate, as an array the caller owns.

    Two sides give their gamma blend.  A lone side hands over its reconstruction
    uncopied: its factors change before any later build, so nothing would reuse it.
    """
    if len(sides) == 1:
        spatial, sides[0]._spatial = sides[0].spatial(), None  # the next call rebuilds it
        return spatial
    base, other = sides
    return _blend(base.spatial(), other.spatial(), gamma)


def _weighted_misfit(sides, gamma, reference):
    """Half the squared distance from each side's products to the half spectrum
    reference(side), summed with weight 1 for the first side and gamma for the second.

    Conjugate-pair weights make each term half a squared Frobenius distance in
    the side's own domain.
    """
    total = 0.0
    for side, weight in zip(sides, (1.0, gamma)):
        n3 = side.factors.dims[2]
        total += weight * _half_weighted_sq(side.products(), n3, reference(side)) / (2.0 * n3)
    return total


def update_x(factors, problem):
    """Fill the unobserved entries with the current factorization."""
    return _refill(_fill([_Side(factors)], None), _observed_index(problem))


def objective(factors, x):
    """Half squared distance between the factorization and x.

    Evaluated on the stored half spectrum with conjugate-pair weights; equal
    to 0.5 * ||compose(factors) - x||_F^2.
    """
    side = _Side(factors).fit(np.asarray(x, float))
    return _weighted_misfit([side], None, attrgetter("spec.slices"))


def _sweeps(problem, config, all_sides, gamma=None, adaptive_gamma=False):
    """The sweep engine of both solvers, over sides fitted to one iterate.

    The slice side comes first; a second side enters the fill and the
    objective with weight gamma, and is left out at a fixed gamma of 0.  With
    adaptive_gamma, a sweep that another sweep follows refits gamma to the
    reconstructions that made x; the first refit below SIDE_OFF_GAMMA switches
    the second side off (event side_off; gamma is then 0).  Only one-side
    sweeps are extrapolated (RankGrowth), and no sweep is undone.  Every row
    logs gamma and the second side's ranks.  Sweep order and stop-skip rule:
    the module docstring.  Returns (x, trace, the gamma whose fill made x).
    """
    sides = all_sides[:1] if gamma == 0 and not adaptive_gamma else list(all_sides)
    growth = RankGrowth.for_run(problem, sides[0], config.rank_cfg)
    observed_index = _observed_index(problem)
    x = problem.observed
    for side in sides:
        side.stable = 0 if config.rank_cfg.enabled else RANK_STABLE_ITERS
        side.fit(x)
        side.prev = compose_spectral(side.factors)
    tested = True

    refill = lambda: _refill(_fill(sides, gamma), observed_index)  # noqa: E731 -- reads gamma when called

    trace = SolverTrace(termination="max_iter")
    for t in range(1, config.max_iter + 1):
        started = time.perf_counter()
        stage_one = t <= config.t0
        for i, side in enumerate(sides):
            if i and stage_one:  # a later side starts from the others' new fill
                side.fit(refill())
            side.factors = update_left(side.factors, side.spec)
            if stage_one:
                fill = refill()
                side.drop()  # stale once the right factors change; the transform can reuse its memory
                side.fit(fill)
                del fill  # not held through the next refill
            side.factors = update_right(side.factors, side.spec)
        event = []
        for side in sides:
            if side.stable < RANK_STABLE_ITERS:
                side.factors, _, changed = rank_decrease(side.factors, config.rank_cfg)
                side.stable = 0 if changed else side.stable + 1
                if changed:
                    event.append(side.event)
        x_new = refill()
        # the sweep's own spectra are spent: replacing them now keeps one set alive
        for side in sides:
            side.fit(x_new)
        g = _weighted_misfit(sides, gamma, attrgetter("spec.slices"))
        if not np.isfinite(g):
            raise FloatingPointError(f"objective became non-finite at sweep {t}")
        rel, x = _rel_change(x_new, x), x_new
        if growth is not None:
            growth.record(np.sqrt(2.0 * g), len(sides) == 1)
        row = TraceRow(
            iteration=t,
            objective=g,
            rel_change=rel,
            ranks=sides[0].factors.ranks,
            elapsed_ms=0.0,
            step_sq=_weighted_misfit(sides, gamma, attrgetter("prev")),
            gamma=gamma,
            ranks_xt=all_sides[1].factors.ranks if len(all_sides) > 1 else None,
        )
        for side in sides:
            side.prev = side.products()
        stop = tested and (
            rel < config.epsilon if growth is None else growth.converged(rel, config.epsilon)
        )
        if not stop and t < config.max_iter:  # the next sweep's schedule, from the sides that made x
            if adaptive_gamma:
                gamma = _refit_gamma(sides, observed_index, gamma)
                if gamma < SIDE_OFF_GAMMA:  # the second side fits the data far worse
                    off = sides.pop()
                    off.drop()
                    off.spec = off.prev = None
                    gamma, adaptive_gamma = 0.0, False
                    event.append("side_off")
            if growth is not None:
                if growth.grow(sides[0]):
                    event.append("rank_increase")
                growth.extrapolate(sides[0])
        row.event = "+".join(event)
        tested = not {"rank_increase", "side_off"}.intersection(event)
        row.elapsed_ms = (time.perf_counter() - started) * 1e3
        trace.rows.append(row)
        if stop:
            trace.termination = "converged"
            break
    return x, trace, gamma


def solve(problem, config):
    """Alternating least-squares completion of a folded matrix: the sweep engine on one side.

    Returns
    -------
    x : ndarray
        Recovered tensor, exact on the observed entries.
    matrix : ndarray or None
        Recovered matrix with padding stripped, when the problem records an
        original width.
    trace : SolverTrace
    """
    sides = [_Side(init_factors(*problem.dims, config.init_ranks, config.seed))]
    x, trace, _ = _sweeps(problem, config, sides)
    trace.final_factors = sides[0].factors
    matrix = None
    if problem.original_width is not None:
        matrix = tensor_to_matrix(x, problem.original_width)
    return x, matrix, trace


def _kkt(sides, gamma, x, problem):
    """First-order stationarity residuals of the engine's objective at (the sides' factors, x),
    each over the norm of the observed data: every side's left and right gradient norms (the
    first side's weighted 1, the second's gamma), the fill's complement-set residual, the
    observed-set feasibility gap, and the fill's observed-set residual, which the optimal
    multiplier absorbs."""
    x = np.asarray(x, float)
    scale = fro_norm(problem.observed) or 1.0
    out = []
    for side, weight in zip(sides, (1.0, gamma)):
        side.fit(x)
        residual = side.spec.slices - side.products()
        out += (weight * np.sqrt(g) / scale for g in gradient_sq(side.factors, residual))
    fill, on = _fill(sides, gamma), problem.mask.observed
    return (*out, fro_norm(np.where(on, 0.0, x - fill)) / scale,
            fro_norm(np.where(on, x - problem.observed, 0.0)) / scale,
            fro_norm(np.where(on, x - fill, 0.0)) / scale)


def kkt_residuals(factors, x, problem):
    """First-order stationarity residuals of the completion objective.

    Returns (left-factor residual, right-factor residual, complement-set
    residual), each normalized by the Frobenius norm of the observed data.
    """
    return _kkt([_Side(factors)], None, x, problem)[:3]
