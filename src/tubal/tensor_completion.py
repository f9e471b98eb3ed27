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

from dataclasses import astuple, dataclass

import numpy as np

from .core import check_count, check_flag, check_real
from .core import fold3_from_reshaped, multi_rank, reshape_mode3
from .factors import init_factors
from .matrix_completion import SolverConfig, _kkt, _objective, _Side, _start, _sweeps

# perfbench/layertrace.py wraps these names in this module's namespace when a traced
# run starts, so they stay bound here, although the engine in matrix_completion calls them.
from .core import _irfft_checked, dft_mode3, fro_norm, project  # noqa: F401
from .factors import compose_spectral, rank_decrease, update_left, update_right  # noqa: F401
from .matrix_completion import _blend, _half_weighted_sq, _rel_change  # noqa: F401

Q_CAP = 64  # default_geometry's largest q


def default_geometry(n1, n2):
    """Regrouping shape (p, q): q is the largest divisor of n1*n2 at most Q_CAP."""
    total = n1 * n2
    q = max(d for d in range(1, min(Q_CAP, total) + 1) if total % d == 0)
    return total // q, q


def geometry(p, q, dims=None):
    """Check a regrouping (p, q), each None or an integer of at least 1, and return it;
    given dims = (n1, n2), complete it to p * q = n1 * n2: the one of p and q left None
    filled in, or both from default_geometry when both are None."""
    try:
        for v in (p, q):
            if v is not None:
                check_count(v, "p", 1)
    except ValueError:
        raise ValueError(f"p and q must be integers >= 1, got p={p}, q={q}") from None
    if dims is None:
        return p, q
    if p is None and q is None:
        return default_geometry(*dims)
    total = dims[0] * dims[1]
    pq = p or total // q, q or total // p  # neither is 0, so only a None is filled in
    if pq[0] * pq[1] != total:
        raise ValueError(f"p*q must equal n1*n2 = {total}, got p={p}, q={q}")
    return pq


@dataclass(kw_only=True)
class DoubleTubalConfig(SolverConfig):
    """Settings for the blended two-factorization solver.

    init_ranks_xt gives per-slice ranks for the regrouped side (length q), by
    default the slice start's tubal rank capped by (n3, p); _start starts either
    side at rank 1 where, with rank detection on, its ranks could interpolate the
    data.  p and q fix the regrouping; both default from default_geometry.
    """

    init_ranks_xt: object = None
    p: int = None
    q: int = None
    gamma0: float = 1.0
    adaptive_gamma: bool = True

    def __post_init__(self):
        super().__post_init__()
        check_real(self.gamma0, "gamma0", 0)
        check_flag(self.adaptive_gamma, "adaptive_gamma")
        geometry(self.p, self.q)


@dataclass
class DoubleFactors:
    """Factor pairs for the iterate and for its regrouped form, plus the blend weight."""

    f_x: object
    f_xt: object
    gamma: float

    def __post_init__(self):
        check_real(self.gamma, "gamma", 0)
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


def objective(dfactors, x):
    """Blended objective: slice-side misfit plus gamma times regrouped misfit.

    Each term is half the squared Frobenius distance from x to that side's
    reconstruction in x's layout (the regrouped side's folded back), summed per
    whole row of x as the sweep engine sums the objective it logs.
    """
    x = np.asarray(x, float)
    return _objective(_sides(dfactors.f_x, dfactors.f_xt, x.shape), dfactors.gamma, x)


def solve(problem, config):
    """Blended alternating least-squares completion: the sweep engine on two sides.

    Each sweep refits the slice factors, then the regrouped ones.  Both sides start
    by one rule (_start): at rank 1 where their requested ranks could interpolate
    the data, the slice side then growing (RankGrowth, which extrapolates no blended
    sweep); a slice start at full rank is a ValueError.  The regrouped side keeps its
    ranks; it is left out at a fixed gamma0 of 0, and switched off (event
    side_off) by the first adaptive gamma refit below SIDE_OFF_GAMMA or at full
    slice rank; sweeps without it are the matrix solver's, logged with gamma 0
    and that side's last ranks.  Returns (x, trace); trace.final_factors has the
    gamma whose fill made x.
    """
    n1, n2, n3 = problem.dims
    p, q = geometry(config.p, config.q, (n1, n2))
    rng = np.random.default_rng(config.seed)
    (start, start_xt), ceiling = _start(problem, config, (n3, p, q))
    # the initial factors go straight into the sides: a local here would hold them all run
    sides = _sides(init_factors(n1, n2, n3, start, rng), init_factors(n3, p, q, start_xt, rng),
                   problem.dims)
    x, trace, gamma = _sweeps(problem, config, sides, ceiling, float(config.gamma0),
                              config.adaptive_gamma)
    trace.final_factors = DoubleFactors(sides[0].factors, sides[1].factors, gamma)
    return x, trace


def double_tubal_rank(a, p=None, q=None):
    """Tubal ranks of a tensor and of its regrouped form, as a pair (multi_rank's tolerance).

    Defaults to the (p, q) = (n1, n2) regrouping.
    """
    a = np.asarray(a)
    n1, n2, _ = a.shape
    p, q = geometry(n1 if p is None and q is None else p, q, (n1, n2))
    return multi_rank(a).tubal, multi_rank(reshape_mode3(a, p, q)).tubal


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
    """Stationarity residuals of the blended objective at (factors, x), from the engine's
    one assembly (matrix_completion._kkt): the two factor pairs' gradient norms, the blend's
    complement-set residual, the feasibility gap, and the blend's observed-set residual that
    the optimal multiplier absorbs."""
    sides = _sides(dfactors.f_x, dfactors.f_xt, problem.dims)
    return KKTResiduals(*_kkt(sides, dfactors.gamma, x, problem))
