"""Tensor completion with a second factorization along the tube dimension.

On top of the frequency-slice factorization of the iterate itself, the
iterate is regrouped so its tubes become rows (shape (n3, p, q) with
p * q = n1 * n2) and factored again.  The two reconstructions are blended
with a weight gamma when filling the unobserved entries, which captures
low-rank structure along the third mode that the first factorization alone
misses.  gamma can adapt each sweep to the relative fit of the two sides.
"""

import time
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    dft_mode3,
    fold3_from_reshaped,
    fro_norm,
    multi_rank,
    pair_weights,
    project,
    reshape_mode3,
    _irfft_checked,
)
from .factors import (
    as_multirank,
    compose_spectral,
    init_factors,
    rank_decrease,
    update_left,
    update_right,
)
from .matrix_completion import (
    RANK_STABLE_ITERS,
    RankGrowth,
    SolverConfig,
    SolverTrace,
    TraceRow,
    _half_weighted_sq,
    _rel_change,
)

GAMMA_GUARD = 1e-15  # below this reconstruction residual, gamma stays put


def default_geometry(n1, n2, q_cap=64):
    """Regrouping shape (p, q): q is the largest divisor of n1*n2 at most q_cap."""
    total = n1 * n2
    q = max(d for d in range(1, min(q_cap, total) + 1) if total % d == 0)
    return total // q, q


@dataclass(kw_only=True)
class DoubleTubalConfig(SolverConfig):
    """Settings for the blended two-factorization solver.

    init_ranks_xt gives per-slice ranks for the regrouped side (length q);
    when omitted it falls back to the tubal rank of init_ranks, capped by the
    regrouped geometry.  p and q fix the regrouping; both default from
    default_geometry.  midstep_blend controls whether the mid-sweep refreshes
    use the blended fill or only the slice-factorization side.
    """

    init_ranks_xt: object = None
    p: int = None
    q: int = None
    gamma0: float = 1.0
    adaptive_gamma: bool = True
    midstep_blend: bool = True
    gamma_from_reshaped_reference: bool = False

    def __post_init__(self):
        super().__post_init__()
        if self.gamma0 < 0:
            raise ValueError(f"gamma0 must be nonnegative, got {self.gamma0}")

    def geometry(self, n1, n2):
        total = n1 * n2
        p, q = self.p, self.q
        if p is None and q is None:
            return default_geometry(n1, n2)
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


def _blend(base, other, gamma):
    """gamma-weighted mean of the slice side and the regrouped side, folded back."""
    if gamma == 0.0:
        return base
    return (base + gamma * other) / (1.0 + gamma)


def update_x_blend(dfactors, problem):
    """Fill the unobserved entries with the gamma-weighted blend of both sides."""
    dims = problem.dims
    base = _irfft_checked(compose_spectral(dfactors.f_x), dims[2], tol=1e-9)
    other = None
    if dfactors.gamma != 0.0:
        other = _irfft_checked(compose_spectral(dfactors.f_xt), dfactors.f_xt.dims[2], tol=1e-9)
        other = fold3_from_reshaped(other, dims)
    return project(_blend(base, other, dfactors.gamma), problem.mask, problem.observed)


def update_reshaped_factors(dfactors, x):
    """Refit both factors of the regrouped iterate (left, then right)."""
    p, q = dfactors.f_xt.dims[1], dfactors.f_xt.dims[2]
    spec_t = dft_mode3(reshape_mode3(np.asarray(x, float), p, q))
    f_xt = update_right(update_left(dfactors.f_xt, spec_t), spec_t)
    return replace(dfactors, f_xt=f_xt)


def update_gamma(dfactors, problem, from_reshaped_reference=False):
    """Refit the blend weight to the observed-entry residuals of the two sides.

    New weight is ||masked residual of the slice side|| over ||masked residual
    of the regrouped side||; an all-but-zero denominator leaves gamma as is.
    The two residual conventions (fold the regrouped reconstruction back, or
    regroup the observed data) are entrywise identical; the flag exists to
    make that choice explicit.
    """
    dims = problem.dims
    m = problem.mask.observed
    base = _irfft_checked(compose_spectral(dfactors.f_x), dims[2], tol=1e-9)
    other = _irfft_checked(compose_spectral(dfactors.f_xt), dfactors.f_xt.dims[2], tol=1e-9)
    num = fro_norm(np.where(m, base - problem.observed, 0.0))
    if from_reshaped_reference:
        p, q = dfactors.f_xt.dims[1], dfactors.f_xt.dims[2]
        m_t = reshape_mode3(m.astype(float), p, q) > 0.5
        obs_t = reshape_mode3(problem.observed, p, q)
        den = fro_norm(np.where(m_t, other - obs_t, 0.0))
    else:
        den = fro_norm(np.where(m, fold3_from_reshaped(other, dims) - problem.observed, 0.0))
    if den < GAMMA_GUARD:
        return dfactors.gamma
    return num / den


def objective(dfactors, x):
    """Blended objective: slice-side misfit plus gamma times regrouped misfit.

    Each term is evaluated on its stored half spectrum with conjugate-pair
    weights and equals half the squared Frobenius misfit in the spatial
    domain.
    """
    x = np.asarray(x, float)
    n3 = dfactors.f_x.dims[2]
    q = dfactors.f_xt.dims[2]
    spec = dft_mode3(x)
    g = _half_weighted_sq(compose_spectral(dfactors.f_x) - spec.slices, n3) / (2.0 * n3)
    if dfactors.gamma != 0.0:
        p = dfactors.f_xt.dims[1]
        spec_t = dft_mode3(reshape_mode3(x, p, q))
        g += (
            dfactors.gamma
            * _half_weighted_sq(compose_spectral(dfactors.f_xt) - spec_t.slices, q)
            / (2.0 * q)
        )
    return g


def _resolve_ranks_xt(config, n3, p, q):
    if config.init_ranks_xt is not None:
        return as_multirank(config.init_ranks_xt, q)
    fallback = min(as_multirank(config.init_ranks, n3).tubal, n3, p)
    return as_multirank(max(fallback, 1), q)


def solve(problem, config):
    """Blended alternating least-squares completion.

    Follows the same sweep structure as the matrix solver, with the regrouped
    factors refit after the slice factors and mid-sweep fills during the first
    t0 sweeps.  When the slice factors could interpolate the data, the run
    follows the matrix solver's RankGrowth schedule on the slice side, with
    the blended fill as the one that is over-relaxed; the regrouped side keeps
    its starting ranks.  Returns (x, trace).
    """
    n1, n2, n3 = problem.dims
    p, q = config.geometry(n1, n2)
    rng = np.random.default_rng(config.seed)
    ranks = as_multirank(config.init_ranks, n3)
    f_x = init_factors(n1, n2, n3, ranks, rng)
    f_xt = init_factors(n3, p, q, _resolve_ranks_xt(config, n3, p, q), rng)
    growth = RankGrowth.for_run(problem, ranks, config.rank_cfg)
    if growth is not None:
        f_x = growth.start(f_x)
    gamma = x_gamma = float(config.gamma0)  # x_gamma: the weight that filled x
    x = problem.observed.copy()
    spec = dft_mode3(x)
    spec_t = dft_mode3(reshape_mode3(x, p, q))
    prev_x = compose_spectral(f_x)
    prev_xt = compose_spectral(f_xt)
    trace = SolverTrace()
    trace.termination = "max_iter"
    rank_on = config.rank_cfg.enabled
    rank_on_xt = config.rank_cfg.enabled
    stable = stable_xt = 0

    def refresh(cur_f_x, cur_f_xt):
        base = _irfft_checked(compose_spectral(cur_f_x), n3, tol=1e-9)
        if config.midstep_blend and gamma != 0.0:
            other = _irfft_checked(compose_spectral(cur_f_xt), q, tol=1e-9)
            filled = _blend(base, fold3_from_reshaped(other, problem.dims), gamma)
        else:
            filled = base
        return project(filled, problem.mask, problem.observed)

    for t in range(1, config.max_iter + 1):
        started = time.perf_counter()
        if growth is not None:  # what a rejected sweep restores
            before = f_x, f_xt, rank_on, rank_on_xt, stable, stable_xt
        f_x = update_left(f_x, spec)
        if t <= config.t0:
            x_mid = refresh(f_x, f_xt)
            spec = dft_mode3(x_mid)
        f_x = update_right(f_x, spec)
        if t <= config.t0:
            x_mid = refresh(f_x, f_xt)
            spec_t = dft_mode3(reshape_mode3(x_mid, p, q))
        f_xt = update_left(f_xt, spec_t)
        if t <= config.t0:
            x_mid = refresh(f_x, f_xt)
            spec_t = dft_mode3(reshape_mode3(x_mid, p, q))
        f_xt = update_right(f_xt, spec_t)
        event = []
        if rank_on:
            f_x, _, changed = rank_decrease(f_x, config.rank_cfg)
            if changed:
                event.append("rank_decrease")
                stable = 0
            else:
                stable += 1
                if stable >= RANK_STABLE_ITERS:
                    rank_on = False
        if rank_on_xt:
            f_xt, _, changed = rank_decrease(f_xt, config.rank_cfg)
            if changed:
                event.append("rank_decrease_xt")
                stable_xt = 0
            else:
                stable_xt += 1
                if stable_xt >= RANK_STABLE_ITERS:
                    rank_on_xt = False
        prod_x = compose_spectral(f_x)
        prod_xt = compose_spectral(f_xt)
        base = _irfft_checked(prod_x, n3, tol=1e-9)
        other = None  # the regrouped side, folded back to the tensor's shape
        if gamma != 0.0:
            other = fold3_from_reshaped(_irfft_checked(prod_xt, q, tol=1e-9), problem.dims)
        x_new = project(_blend(base, other, gamma), problem.mask, problem.observed)
        spec_new = dft_mode3(x_new)
        spec_t_new = dft_mode3(reshape_mode3(x_new, p, q))
        g = _half_weighted_sq(prod_x - spec_new.slices, n3) / (2.0 * n3)
        step_sq = _half_weighted_sq(prod_x - prev_x, n3) / (2.0 * n3)
        if gamma != 0.0:
            g += gamma * _half_weighted_sq(prod_xt - spec_t_new.slices, q) / (2.0 * q)
            step_sq += gamma * _half_weighted_sq(prod_xt - prev_xt, q) / (2.0 * q)
        if not np.isfinite(g):
            raise FloatingPointError(f"objective became non-finite at sweep {t}")
        rel = _rel_change(x_new, x)
        accepted = growth is None or growth.accept(np.sqrt(2.0 * g))
        row = TraceRow(
            iteration=t,
            objective=g,
            rel_change=rel,
            ranks=f_x.ranks,
            elapsed_ms=0.0,
            step_sq=step_sq,
            gamma=gamma,
            ranks_xt=f_xt.ranks,
        )
        if not accepted:
            event = ["sor_reject"]
            f_x, f_xt, rank_on, rank_on_xt, stable, stable_xt = before
            spec = dft_mode3(x)
            spec_t = dft_mode3(reshape_mode3(x, p, q))
        else:
            x_gamma = gamma
            if config.adaptive_gamma:
                if other is None:
                    other = fold3_from_reshaped(_irfft_checked(prod_xt, q, tol=1e-9), problem.dims)
                num = fro_norm(np.where(problem.mask.observed, base - problem.observed, 0.0))
                den = fro_norm(np.where(problem.mask.observed, other - problem.observed, 0.0))
                if den >= GAMMA_GUARD:
                    gamma = num / den
            prev_x, prev_xt = prod_x, prod_xt
            if growth is None:
                stop = rel < config.epsilon
                x, spec, spec_t = x_new, spec_new, spec_t_new
            else:
                stop = growth.converged(rel, config.epsilon)
                if not stop and t < config.max_iter:
                    f_x, grown = growth.grow(f_x, spec_new.slices - prod_x)
                    if grown:
                        event.append("rank_increase")
                        rank_on, stable = True, 0
                if growth.omega == 1.0:
                    spec, spec_t = spec_new, spec_t_new
                else:
                    # rebuilt from base and other, so the plain path holds no extra array
                    target = growth.relaxed(_blend(base, other, x_gamma), x_new)
                    spec = dft_mode3(target)
                    spec_t = dft_mode3(reshape_mode3(target, p, q))
                x = x_new
        row.event = "+".join(event)
        row.elapsed_ms = (time.perf_counter() - started) * 1e3
        trace.rows.append(row)
        if accepted and stop:
            trace.termination = "converged"
            break
    trace.final_factors = DoubleFactors(f_x, f_xt, x_gamma)
    return x, trace


def double_tubal_rank(a, p=None, q=None, tol_rel=1e-10):
    """Tubal ranks of a tensor and of its regrouped form, as a pair.

    Defaults to the (p, q) = (n1, n2) regrouping.
    """
    a = np.asarray(a)
    n1, n2, _ = a.shape
    if p is None and q is None:
        p, q = n1, n2
    elif p is None:
        p = n1 * n2 // q
    elif q is None:
        q = n1 * n2 // p
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
        return (
            self.x_left,
            self.x_right,
            self.reshaped_left,
            self.reshaped_right,
            self.blend_complement,
            self.feasibility,
        )


def kkt_residuals(dfactors, x, problem):
    """Stationarity residuals of the blended objective at (factors, x).

    The six residuals are the two factor pairs' gradient norms, the
    complement-set blend residual and the observed-set feasibility gap, all
    normalized by the norm of the observed data.  The multiplier field
    reports the observed-set blend residual that the optimal multiplier
    absorbs.
    """
    x = np.asarray(x, float)
    n3 = dfactors.f_x.dims[2]
    p, q = dfactors.f_xt.dims[1], dfactors.f_xt.dims[2]
    gamma = dfactors.gamma
    scale = fro_norm(problem.observed) or 1.0
    w = pair_weights(n3)
    w_t = pair_weights(q)
    spec = dft_mode3(x)
    spec_t = dft_mode3(reshape_mode3(x, p, q))
    prod_x = compose_spectral(dfactors.f_x)
    prod_xt = compose_spectral(dfactors.f_xt)
    diff = spec.slices - prod_x
    diff_t = spec_t.slices - prod_xt
    r = [0.0, 0.0, 0.0, 0.0]
    for k in range(dfactors.f_x.n_stored):
        r[0] += w[k] * np.linalg.norm(diff[:, :, k] @ dfactors.f_x.right[k].conj().T) ** 2
        r[1] += w[k] * np.linalg.norm(dfactors.f_x.left[k].conj().T @ diff[:, :, k]) ** 2
    for k in range(dfactors.f_xt.n_stored):
        r[2] += (
            w_t[k]
            * np.linalg.norm(gamma * diff_t[:, :, k] @ dfactors.f_xt.right[k].conj().T) ** 2
        )
        r[3] += (
            w_t[k]
            * np.linalg.norm(gamma * dfactors.f_xt.left[k].conj().T @ diff_t[:, :, k]) ** 2
        )
    base = _irfft_checked(prod_x, n3, tol=1e-9)
    other = fold3_from_reshaped(_irfft_checked(prod_xt, q, tol=1e-9), problem.dims)
    blend = _blend(base, other, gamma)
    on = problem.mask.observed
    return KKTResiduals(
        x_left=np.sqrt(r[0]) / scale,
        x_right=np.sqrt(r[1]) / scale,
        reshaped_left=np.sqrt(r[2]) / scale,
        reshaped_right=np.sqrt(r[3]) / scale,
        blend_complement=fro_norm(np.where(on, 0.0, x - blend)) / scale,
        feasibility=fro_norm(np.where(on, x - problem.observed, 0.0)) / scale,
        multiplier=fro_norm(np.where(on, x - blend, 0.0)) / scale,
    )
