"""Matrix completion through low-rank factorization of a folded tensor, and
the sweep engine that the tensor solver shares.

The observed matrix is folded into a third-order tensor of consecutive column
blocks and factored per frequency slice.  Per-slice ranks shrink on the fly
when the factor Gram spectrum shows a clear gap.  Ranks able to interpolate the
data are instead a ceiling that ranks grow to from 1 (_start, RankGrowth).

The sweep engine (_sweeps) runs over a list of sides (_Side): factor pairs
fitted to the same iterate, each through its own regrouping of it.  This
solver is the engine on one side; tensor_completion adds the regrouped side,
blended in with weight gamma.  A sweep, written out in _sweeps alone:

1. Each side in turn updates its left factors, then its right ones.  In
   stage one (the first t0 sweeps) the iterate is refilled after every
   factor update, so a side's right update and each later side fit the
   newest refill; in stage two all fit the last sweep's iterate.
2. Ranks shrink where a Gram eigen-gap shows, tested on every sweep.
3. One closing pass (_close) refills the iterate in place from the sides'
   reconstructions and reads the objective, each side's step from its last
   reconstruction and the relative change.  Only when another sweep follows
   does the slice side fit the new iterate, and the regrouped side only when
   that sweep is in stage two; a stage-one sweep refits it from a fresh fill first.

Every fill is built in the layout of the side that fits it, from the sides'
reconstructions in that layout, each built at most once per factor pair by one
memoized accessor (_Side.seen_by); blend and refill act entry by entry, so the
regrouped side's fill is the regrouped iterate's.  The one regroup of the
iterate is the closing fit before a stage-two sweep, where it is cheaper than
a fill.  Each full-size array lives only until its last reader: a spectrum
until the update that last reads it, a side's products until its inverse
transform, the regrouped side's observed pair and own-layout reconstruction
through stage one.  Both sides' objective terms are taken in the iterate's
layout, summed per whole row, so the public objectives equal the logged ones.

The public objective and kkt_residuals, and their tensor counterparts, are
built from the engine's own primitives.
"""

import csv
import time
from dataclasses import dataclass, field

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
    _half_weighted_sq,  # noqa: F401 -- bound for perfbench/layertrace.py, which wraps it here
    _irfft_checked,
)
from .factors import (
    RankDecreaseConfig,
    as_multirank,
    can_interpolate,
    compose,  # noqa: F401 -- bound for perfbench/layertrace.py, which wraps it here
    compose_spectral,
    gradient_sq,
    grow_ranks,
    init_factors,
    rank_decrease,
    update_left,
    update_right,
)

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

    With rank detection on (rank_cfg.enabled), init_ranks whose factors could
    interpolate the data (factors.can_interpolate) are a ceiling: every slice
    starts at rank 1 (_start) and grows (RankGrowth), and epsilon bounds the
    relative change scaled by max(1, rho / (1 - rho)), rho being the observed
    residual's recent contraction per sweep.  Otherwise init_ranks is the start
    and epsilon bounds the plain relative change.
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
    """Sweep schedule of a slice side that _start began at rank 1 under a ceiling.

    Requested ranks that could interpolate the observations leave the objective
    unable to tell the truth from other fits, and the eigen-gap test no gap to cut
    through; so each slice grows from rank 1 toward its ceiling, by the leading
    singular pair of its residual whenever the observed residual plateaus.  After k
    one-side sweeps in a row whose observed residual fell, the next sweep fits
    x + beta * (x - x_prev) with beta = min(MOMENTUM_CAP, (k - 1) / (k + 2)),
    restarted momentum after O'Donoghue and Candes (a blended sweep's gamma
    already adapts); a rise, a blended sweep or a growth step restarts it at
    k = 0.  x and x_prev agree with the data on the observed entries, so the
    extrapolation does too.  The relative-change stop is scaled by
    max(1, rho / (1 - rho)), rho being the observed residual's contraction per
    sweep over the last RATE_WINDOW sweeps, which bounds the remaining
    distance of a linearly convergent iteration.
    """

    def __init__(self, ceiling):
        self.ceiling = tuple(ceiling)  # stored-slice rank limits
        self.falls = 0  # one-side sweeps in a row whose residual fell
        self._prev = None  # the last iterate's spectrum
        self._residual = None
        self._ratios = []

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
            side.factors, side.spec.slices - compose_spectral(side.factors), self.ceiling
        )
        if grown:
            self.falls = 0
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
    """||new - old|| / ||old|| (the bare ||new - old|| when old is 0), numerator and denominator
    summed per whole row (core._row_sq), as the closing pass (_close) sums them."""
    return _ratio(core._row_sq(new, old), core._row_sq(old))


def _ratio(change, mass):
    """The relative change from its per-row sums: sqrt(sum(change) / sum(mass)), or
    sqrt(sum(change)) when mass sums to 0."""
    num, den = change.sum(), mass.sum()
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
    residual = np.empty_like(observed)  # one scratch array for both masked residuals
    num, den = (fro_norm(np.multiply(np.subtract(s.seen_by(None), observed, out=residual), seen,
                                     out=residual)) for s in sides)
    return num / den if den > 0 else gamma


class _Side:
    """One factorization that the sweep engine fits to the iterate.

    A side holds a factor pair; regroup, from the iterate's layout to its own (None: the
    iterate's layout), and fold, back; the event its rank cuts are logged as; observed, the
    engine's (unobserved pattern, observed data) pair in its own layout, which a regrouped
    side holds through stage one only; and its reconstruction in each layout, which one
    accessor (seen_by) builds at most once per factor pair object: its own by the inverse
    transform of its products, which live only for that transform, the iterate's by fold,
    another side's by that side's regroup; drop() forgets all, release(layout) one.  Between
    sweeps it holds its factors, prev and what of its reconstruction a later read needs; its
    spectrum lives from a fit to the update that last reads it.
    """

    def __init__(self, factors, regroup=None, fold=None, event="rank_decrease"):
        self.factors = factors
        self.regroup, self.fold, self.event = regroup, fold, event
        self.spec = None  # spectrum of the tensor the next update fits
        self.prev = None  # the last sweep's reconstruction in the iterate's layout, or the start's
        self.observed = None
        self.drop()

    def fit(self, x):
        """Make x, in this side's own layout, the tensor the next update fits."""
        self.spec = None  # the old spectrum goes before its successor's transform
        self.spec = dft_mode3(x)
        return self

    def drop(self):
        """Forget the reconstruction, in every layout."""
        self._built = None  # the factor pair whose reconstruction _seen holds
        self._seen = {}  # layout -> the reconstruction in it

    def seen_by(self, layout):
        """The reconstruction in layout: a side's regroup, or None for the iterate's."""
        if self._built is not self.factors:
            self.drop()  # the stale pair goes before its successor is built
            self._built = self.factors
        if layout not in self._seen:
            if layout is self.regroup:  # its own: the inverse transform
                a = _irfft_checked(compose_spectral(self.factors), self.factors.dims[2], tol=1e-9)
            elif layout is None:  # the iterate's: a C-ordered copy of its own, folded
                a = self.fold(self.seen_by(self.regroup))
            else:  # another side's: the iterate-layout one, regrouped
                a = layout(self.seen_by(None))
            self._seen[layout] = a
        return self._seen[layout]

    def release(self, layout):
        """Forget the reconstruction in layout, and return it (None if not held)."""
        return self._seen.pop(layout, None)


def _fill(sides, gamma, side):
    """The tensor that refills side's own layout of the iterate, as an array the caller owns.

    Two sides give their gamma blend, each reconstruction taken in side's layout; blend and
    refill act entry by entry, so a regrouped fill is the regrouped iterate-layout fill.
    A lone side hands over its reconstruction uncopied: its factors change before any later
    build, so nothing would reuse it.
    """
    if len(sides) == 1:
        side.seen_by(side.regroup)
        return side.release(side.regroup)  # the next call rebuilds it
    base, other = (s.seen_by(side.regroup) for s in sides)
    return _blend(base, other, gamma)


def _weighted_half(per_row, gamma):
    """Half the per-row sums of each side (the slice side's first), weighted 1 and gamma."""
    return sum(w * (0.5 * float(r.sum())) for w, r in zip((1.0, gamma), per_row))


def _objective(sides, gamma, x):
    """The engine's objective at x: half each side's squared distance from x to its
    reconstruction in x's layout, the slice side weighted 1 and the regrouped side gamma,
    each summed per whole row (core._row_sq) as the closing pass (_close) sums it."""
    return _weighted_half([core._row_sq(x, s.seen_by(None)) for s in sides], gamma)


def _close(sides, gamma, x, observed_index):
    """A sweep's closing pass, a block of whole rows at a time (core._row_blocks): x, the
    engine's C-ordered iterate, refilled in place with _fill's entries, and read on the way
    (objective, step_sq, rel_change): _objective at the new x, the weighted half squared step
    of each side's reconstruction from its prev (which it becomes), and _rel_change of x.
    Every sum is taken per whole row, so none depends on core.BLOCK."""
    now = [s.seen_by(None) for s in sides]
    unobserved, observed = observed_index
    fit, step = np.empty((2, len(sides), len(x)))
    change, mass = np.empty((2, len(x)))
    for b in core._row_blocks(x):
        fill = _blend(now[0][b], now[1][b], gamma) if len(sides) > 1 else now[0][b]
        new = np.multiply(fill, unobserved[b], out=fill if len(sides) > 1 else None)
        new += observed[b]  # _refill's entries; a lone side's reconstruction stays as prev
        old = x[b]  # holds each difference in turn, then the new entries: one block is made
        mass[b] = core._sq(old)
        change[b] = core._sq(np.subtract(old, new, out=old))  # (old - new)^2 is (new - old)^2
        for i, (side, r) in enumerate(zip(sides, now)):
            fit[i, b] = core._sq(np.subtract(new, r[b], out=old))
            step[i, b] = core._sq(np.subtract(r[b], side.prev[b], out=old))
        old[...] = new
    for side, r in zip(sides, now):
        side.prev = r
    return _weighted_half(fit, gamma), _weighted_half(step, gamma), _ratio(change, mass)


def objective(factors, x):
    """Half squared distance between the factorization and x, 0.5 * ||compose(factors) - x||_F^2.

    Summed per whole row of x, as the sweep engine sums the objective it logs, so a trace
    row's objective equals this at that sweep's factors and x byte for byte.
    """
    return _objective([_Side(factors)], None, np.asarray(x, float))


def _start(problem, config, xt_dims=None):
    """([start], or [start, start_xt] for regrouped dims xt_dims, and the slice side's growth
    ceiling), decided before any factors are drawn.  A side asks for init_ranks (the regrouped one
    for init_ranks_xt, by default the slice start's tubal rank capped by (n3, p)); it starts at rank
    1 per slice (0 stays 0) if rank detection is on and those could interpolate the data on its own
    dims (can_interpolate), the slice side growing to them; a full-rank slice start is refused."""
    def rule(dims, spec):
        ranks, n = as_multirank(spec, dims[2]), min(dims[:2])
        if ranks.tubal > n:  # init_factors' check, which a start of rank 1 would pass
            raise ValueError(f"initial rank {ranks.tubal} exceeds min{dims[:2]} = {n}")
        if config.rank_cfg.enabled and can_interpolate(dims, ranks, problem.mask.count):
            return MultiRank([min(1, r) for r in ranks]), ranks.stored()
        return ranks, None
    start, ceiling = rule(problem.dims, config.init_ranks)
    if min(start.stored()) >= min(problem.dims[:2]):
        raise ValueError(f"starting ranks {start.stored()} are full rank on every slice of "
                         f"{problem.dims[:2]}: the fit would reproduce the data and fill nothing")
    if xt_dims is None:
        return [start], ceiling
    xt = config.init_ranks_xt
    xt = max(min(start.tubal, *xt_dims[:2]), 1) if xt is None else xt
    return [start, rule(xt_dims, xt)[0]], ceiling


def _sweeps(problem, config, all_sides, ceiling, gamma=None, adaptive_gamma=False):
    """The sweep engine of both solvers, over sides fitted to one iterate.

    The slice side comes first; a second side enters the fill and the
    objective with weight gamma, and is left out at a fixed gamma of 0.  With
    adaptive_gamma, a sweep that another sweep follows refits gamma to the
    reconstructions that made x; the first refit below SIDE_OFF_GAMMA, or at
    a second side whose ranks reach its slices' shorter side (it reproduces
    any data, so its residual rewards nothing), switches that side off (event
    side_off; gamma is then 0).  A ceiling (_start) puts the slice side on
    RankGrowth, which extrapolates one-side sweeps only; no sweep is undone.  Every row
    logs gamma and the second side's ranks, and every sweep is stop-tested.
    Sweep order: the module docstring.  Returns (x, trace, the gamma whose fill made x).
    """
    sides = all_sides[:1] if gamma == 0 and not adaptive_gamma else list(all_sides)
    growth = None if ceiling is None else RankGrowth(ceiling)
    observed_index = _observed_index(problem)
    sides[0].observed = observed_index
    sides[0].fit(observed_index[1])
    for side in sides[1:]:  # its first update fits stage one's first fill, or else the data
        if config.t0:  # the observed pair those fills read, regrouped once per run
            side.observed = tuple(map(side.regroup, observed_index))
        else:
            side.fit(side.regroup(observed_index[1]))
    for side in sides:  # the start's reconstruction: the first step is measured from it
        side.prev = side.seen_by(None)
    x = observed_index[1].copy()  # the iterate, which every closing pass refills in place

    # the refilled fill in side's own layout; reads gamma when called
    refill = lambda side: _refill(_fill(sides, gamma, side), side.observed)  # noqa: E731

    trace = SolverTrace(termination="max_iter")
    for t in range(1, config.max_iter + 1):
        started = time.perf_counter()
        stage_one = t <= config.t0
        for i, side in enumerate(sides):
            if i and stage_one:  # a later side starts from the others' new fill
                side.fit(refill(side))
            side.factors = update_left(side.factors, side.spec)
            if stage_one:  # the refill replaces the spectrum, which nothing reads again
                side.spec = None
                fill = refill(side)
                side.drop()  # stale once the right factors change; the transform can reuse its memory
                side.fit(fill)
                del fill  # not held through the next refill
            side.factors = update_right(side.factors, side.spec)
            side.spec = None  # its last reader
        sides[0].release(sides[-1].regroup)  # its last fill in the last side's layout is done
        event = []
        for side in sides:
            side.factors, _, changed = rank_decrease(side.factors, config.rank_cfg)
            if changed:
                event.append(side.event)
        g, step_sq, rel = _close(sides, gamma, x, observed_index)
        if not np.isfinite(g):
            raise FloatingPointError(f"objective became non-finite at sweep {t}")
        if growth is not None:
            growth.record(np.sqrt(2.0 * g), len(sides) == 1)
        row = TraceRow(
            iteration=t,
            objective=g,
            rel_change=rel,
            ranks=sides[0].factors.ranks,
            elapsed_ms=0.0,
            step_sq=step_sq,
            gamma=gamma,
            ranks_xt=all_sides[1].factors.ranks if len(all_sides) > 1 else None,
        )
        stop = rel < config.epsilon if growth is None else growth.converged(rel, config.epsilon)
        if not stop and t < config.max_iter:  # the next sweep's schedule, from the sides that made x
            if adaptive_gamma:
                gamma = _refit_gamma(sides, observed_index, gamma)
                # off if it fits the data far worse, or fits anything.  A full-rank side gets
                # one blended sweep, which steadies the slice side's first rank cut; no cut hides
                # it, as _start starts a side that could interpolate at rank 1 (full if 1 row).
                xt = sides[1].factors
                if gamma < SIDE_OFF_GAMMA or min(xt.ranks) >= min(xt.dims[:2]):
                    off = sides.pop()
                    off.drop()
                    off.prev = off.observed = None
                    gamma, adaptive_gamma = 0.0, False
                    event.append("side_off")
            sides[0].fit(x)
            if len(sides) > 1 and t >= config.t0:  # a stage-two sweep's first update fits x,
                sides[1].observed = None  # (only stage-one fills read it, and its own layout)
                sides[1].release(sides[1].regroup)
                sides[1].fit(sides[1].regroup(x))  # cheaper regrouped than rebuilt as a fill
            if growth is not None:
                if growth.grow(sides[0]):
                    event.append("rank_increase")
                growth.extrapolate(sides[0])
        row.event = "+".join(event)
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
    (start,), ceiling = _start(problem, config)
    sides = [_Side(init_factors(*problem.dims, start, config.seed))]
    x, trace, _ = _sweeps(problem, config, sides, ceiling)
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
        side.fit(x if side.regroup is None else side.regroup(x))
        residual = side.spec.slices - compose_spectral(side.factors)
        out += (weight * np.sqrt(g) / scale for g in gradient_sq(side.factors, residual))
    fill, on = _fill(sides, gamma, sides[0]), problem.mask.observed
    return (*out, fro_norm(np.where(on, 0.0, x - fill)) / scale,
            fro_norm(np.where(on, x - problem.observed, 0.0)) / scale,
            fro_norm(np.where(on, x - fill, 0.0)) / scale)


def kkt_residuals(factors, x, problem):
    """First-order stationarity residuals of the completion objective.

    Returns (left-factor residual, right-factor residual, complement-set
    residual), each normalized by the Frobenius norm of the observed data.
    """
    return _kkt([_Side(factors)], None, x, problem)[:3]
