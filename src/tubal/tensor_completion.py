"""Tensor completion with a second factorization along the tube dimension.

On top of the frequency-slice factorization of the iterate itself, the
iterate is regrouped so its tubes become rows (shape (n3, p, q) with
p * q = n1 * n2) and factored again.  The two reconstructions are blended
with a weight gamma when filling the unobserved entries, which captures
low-rank structure along the third mode that the first factorization alone
misses.  gamma can adapt each sweep to the relative fit of the two sides.

The solver is the matrix solver's sweep engine run over two sides: the
slice side and the regrouped side, whose regroup is reshape_mode3 and whose
fold back is fold3_from_reshaped.
"""

from dataclasses import astuple, dataclass, replace
from operator import attrgetter

import numpy as np

from .core import fold3_from_reshaped, fro_norm, multi_rank, reshape_mode3
from .factors import as_multirank, gradient_sq, init_factors, update_left, update_right
from .matrix_completion import GAMMA_GUARD  # noqa: F401 -- part of this module's interface
from .matrix_completion import (
    SolverConfig,
    _fill,
    _is_count,
    _observed_index,
    _refill,
    _refit_gamma,
    _Side,
    _sweeps,
    _weighted_misfit,
)

# perfbench/layertrace.py wraps these names in this module's namespace when a traced
# run starts, so they stay bound here, although the engine in matrix_completion calls them.
from .core import _irfft_checked, dft_mode3, project  # noqa: F401
from .factors import compose_spectral, rank_decrease  # noqa: F401
from .matrix_completion import _blend, _half_weighted_sq, _rel_change  # noqa: F401

Q_CAP = 64  # default_geometry's largest q


def default_geometry(n1, n2):
    """Regrouping shape (p, q): q is the largest divisor of n1*n2 at most Q_CAP."""
    total = n1 * n2
    q = max(d for d in range(1, min(Q_CAP, total) + 1) if total % d == 0)
    return total // q, q


def _check_pq(p, q):
    """Raise unless each of p and q is None or an integer, not a bool, of at least 1."""
    if not all(v is None or _is_count(v, 1) for v in (p, q)):
        raise ValueError(f"p and q must be integers >= 1, got p={p}, q={q}")


def _complete_geometry(n1, n2, p, q):
    """(p, q) with p * q = n1 * n2, the one of them left None filled in."""
    _check_pq(p, q)
    total = n1 * n2
    if q is None:
        if total % p:
            raise ValueError(f"p={p} does not divide n1*n2={total}")
        q = total // p
    elif p is None:
        if total % q:
            raise ValueError(f"q={q} does not divide n1*n2={total}")
        p = total // q
    if p * q != total:
        raise ValueError(f"p*q = {p * q} must equal n1*n2 = {total}")
    return p, q


@dataclass(kw_only=True)
class DoubleTubalConfig(SolverConfig):
    """Settings for the blended two-factorization solver.

    init_ranks_xt gives per-slice ranks for the regrouped side (length q);
    when omitted it is the tubal rank of init_ranks, capped by the regrouped
    geometry.  p and q fix the regrouping; both default from
    default_geometry.
    """

    init_ranks_xt: object = None
    p: int = None
    q: int = None
    gamma0: float = 1.0
    adaptive_gamma: bool = True

    def __post_init__(self):
        super().__post_init__()
        if not 0 <= self.gamma0 < np.inf:  # NaN fails too
            raise ValueError(f"gamma0 must be nonnegative and finite, got {self.gamma0}")
        _check_pq(self.p, self.q)

    def geometry(self, n1, n2):
        if self.p is None and self.q is None:
            return default_geometry(n1, n2)
        return _complete_geometry(n1, n2, self.p, self.q)


@dataclass
class DoubleFactors:
    """Factor pairs for the iterate and for its regrouped form, plus the blend weight."""

    f_x: object
    f_xt: object
    gamma: float

    def __post_init__(self):
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        n1, n2, n3 = self.f_x.dims
        nt3, p, q = self.f_xt.dims
        if nt3 != n3 or p * q != n1 * n2:
            raise ValueError(
                f"regrouped factor dims {self.f_xt.dims} incompatible with {self.f_x.dims}"
            )


def _sides(f_x, f_xt, dims):
    """The engine's sides: the iterate's slice factorization, then its regrouped form's."""
    p, q = f_xt.dims[1], f_xt.dims[2]
    regroup = lambda a: reshape_mode3(a, p, q)  # noqa: E731
    fold = lambda t: fold3_from_reshaped(t, dims)  # noqa: E731
    return [_Side(f_x), _Side(f_xt, regroup, fold, "rank_decrease_xt")]


def update_x_blend(dfactors, problem):
    """Fill the unobserved entries with the gamma-weighted blend of both sides."""
    sides = _sides(dfactors.f_x, dfactors.f_xt, problem.dims)
    return _refill(_fill(sides, dfactors.gamma), _observed_index(problem))


def update_reshaped_factors(dfactors, x):
    """Refit both factors of the regrouped iterate (left, then right)."""
    side = _sides(dfactors.f_x, dfactors.f_xt, np.shape(x))[1].fit(np.asarray(x, float))
    return replace(dfactors, f_xt=update_right(update_left(side.factors, side.spec), side.spec))


def update_gamma(dfactors, problem):
    """Refit the blend weight to the observed-entry residuals of the two sides.

    New weight is ||masked residual of the slice side|| over ||masked residual
    of the regrouped side, folded back||; an all-but-zero denominator leaves
    gamma as is.
    """
    sides = _sides(dfactors.f_x, dfactors.f_xt, problem.dims)
    return _refit_gamma(sides, _observed_index(problem), dfactors.gamma)


def objective(dfactors, x):
    """Blended objective: slice-side misfit plus gamma times regrouped misfit.

    Each term is evaluated on its stored half spectrum with conjugate-pair
    weights and equals half the squared Frobenius misfit in the spatial
    domain.
    """
    x = np.asarray(x, float)
    sides = [side.fit(x) for side in _sides(dfactors.f_x, dfactors.f_xt, x.shape)]
    return _weighted_misfit(sides, dfactors.gamma, attrgetter("spec.slices"))


def solve(problem, config):
    """Blended alternating least-squares completion: the sweep engine on two sides.

    Each sweep refits the slice factors, then the regrouped ones.  When the
    slice factors could interpolate the data, the slice side follows
    RankGrowth, which extrapolates no blended sweep; the regrouped side keeps
    its starting ranks.  That side is left out at a fixed gamma0 of 0, and
    switched off (event side_off) by the first adaptive gamma refit below
    SIDE_OFF_GAMMA; sweeps without it are the matrix solver's, logged with
    gamma 0 and that side's last ranks.
    Returns (x, trace); trace.final_factors has the gamma whose fill made x.
    """
    n1, n2, n3 = problem.dims
    p, q = config.geometry(n1, n2)
    rng = np.random.default_rng(config.seed)
    ranks_xt = config.init_ranks_xt
    if ranks_xt is None:  # the tubal rank of init_ranks, capped by the regrouped geometry
        ranks_xt = max(min(as_multirank(config.init_ranks, n3).tubal, n3, p), 1)
    # the initial factors go straight into the sides: a local here would hold them all run
    sides = _sides(
        init_factors(n1, n2, n3, config.init_ranks, rng),
        init_factors(n3, p, q, ranks_xt, rng),
        problem.dims,
    )
    x, trace, gamma = _sweeps(problem, config, sides, float(config.gamma0), config.adaptive_gamma)
    trace.final_factors = DoubleFactors(sides[0].factors, sides[1].factors, gamma)
    return x, trace


def double_tubal_rank(a, p=None, q=None, tol_rel=1e-10):
    """Tubal ranks of a tensor and of its regrouped form, as a pair.

    Defaults to the (p, q) = (n1, n2) regrouping.
    """
    a = np.asarray(a)
    n1, n2, _ = a.shape
    p, q = (n1, n2) if p is None and q is None else _complete_geometry(n1, n2, p, q)
    return multi_rank(a, tol_rel).tubal, multi_rank(reshape_mode3(a, p, q), tol_rel).tubal


@dataclass(frozen=True)
class KKTResiduals:
    """Normalized first-order residuals of the blended objective."""

    x_left: float
    x_right: float
    reshaped_left: float
    reshaped_right: float
    blend_complement: float
    feasibility: float
    multiplier: float

    def as_tuple(self):
        """The six residuals, without the multiplier."""
        return astuple(self)[:6]


def kkt_residuals(dfactors, x, problem):
    """Stationarity residuals of the blended objective at (factors, x).

    The six residuals are the two factor pairs' gradient norms, the
    complement-set blend residual and the observed-set feasibility gap, all
    normalized by the norm of the observed data.  The multiplier field
    reports the observed-set blend residual that the optimal multiplier
    absorbs.
    """
    x = np.asarray(x, float)
    gamma = dfactors.gamma
    sides = [side.fit(x) for side in _sides(dfactors.f_x, dfactors.f_xt, problem.dims)]
    (x_left, x_right), (xt_left, xt_right) = (
        gradient_sq(side.factors, side.spec.slices - side.products()) for side in sides
    )
    blend = _fill(sides, gamma)
    on = problem.mask.observed
    scale = fro_norm(problem.observed) or 1.0
    return KKTResiduals(
        x_left=np.sqrt(x_left) / scale,
        x_right=np.sqrt(x_right) / scale,
        reshaped_left=gamma * np.sqrt(xt_left) / scale,
        reshaped_right=gamma * np.sqrt(xt_right) / scale,
        blend_complement=fro_norm(np.where(on, 0.0, x - blend)) / scale,
        feasibility=fro_norm(np.where(on, x - problem.observed, 0.0)) / scale,
        multiplier=fro_norm(np.where(on, x - blend, 0.0)) / scale,
    )
