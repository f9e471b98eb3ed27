"""The paper's two-stage factorization ALS, written plainly: the oracle that
tests/test_oracle.py holds both solvers' sweep engine to (differential testing).

Nothing here is tuned.  Only the starting factors come from tubal (init_factors);
every other step is written out:

- a full complex FFT along mode 3, and each of the n3 frequency slices solved
  with np.linalg.pinv in a Python loop (no half spectrum, no padding);
- every fill np.where(mask, observed, (a + gamma * fold(b)) / (1 + gamma)), a
  and b being the two sides' reconstructions, the regroup built from the mode-3
  unfolding;
- the eigen-gap rank cut, the gamma refit and the rule that switches the
  regrouped side off;
- stage one, then stage two, in the order the matrix_completion docstring gives.

The growth path (a start that could interpolate the data, grown from rank 1) and
its momentum are not written here; complete_matrix and complete_tensor refuse a
slice side on it (below_capacity).
"""

from dataclasses import dataclass

import numpy as np

from tubal import init_factors, mode_unfold

SIDE_OFF_GAMMA = 0.25  # a gamma refit below this switches the regrouped side off


@dataclass
class Row:
    """One sweep, as the engine's TraceRow logs it."""

    iteration: int
    objective: float
    rel_change: float
    step_sq: float
    ranks: tuple
    event: str
    gamma: float = None
    ranks_xt: tuple = None


def regroup(x, p, q):
    """x as an (n3, p, q) tensor whose frontal slice c holds columns c*p .. (c+1)*p - 1 of
    x's mode-3 unfolding."""
    m3 = mode_unfold(x, 3)
    return m3.reshape(len(m3), q, p).transpose(0, 2, 1)


def fold(t, dims):
    """Invert regroup: entry (i1, i2, i3) of the (n1, n2, n3) tensor is column i1 + i2 * n1
    of row i3 of the mode-3 unfolding."""
    m3 = t.transpose(0, 2, 1).reshape(len(t), -1)
    return m3.T.reshape(dims, order="F")


def sq(a):
    return float(np.sum(np.abs(a) ** 2))


def below_capacity(dims, ranks, n_observed):
    """True when factors of these per-slice ranks carry fewer real degrees of freedom,
    r * (n1 + n2 - r) per slice, than there are observed entries."""
    n1, n2, _ = dims
    return sum(r * (n1 + n2 - r) for r in ranks) < n_observed


def rank_list(spec, n3):
    return [spec] * n3 if np.ndim(spec) == 0 else list(spec)


class Side:
    """One factorization of the iterate: a left and a right factor for each of the n3
    frequency slices of its own layout, which to_own and to_x map to and from."""

    def __init__(self, factors, event, to_own=None, to_x=None):
        n3, half = factors.dims[2], len(factors.left)
        self.left = [np.array(factors.left[k] if k < half else factors.left[n3 - k].conj())
                     for k in range(n3)]
        self.right = [np.array(factors.right[k] if k < half else factors.right[n3 - k].conj())
                      for k in range(n3)]
        self.dims, self.event = factors.dims, event
        self.to_own = to_own or (lambda x: x)
        self.to_x = to_x or (lambda a: a)

    def ranks(self):
        return tuple(f.shape[1] for f in self.left)

    def seen(self):
        """The reconstruction in the iterate's layout."""
        products = np.stack([f @ g for f, g in zip(self.left, self.right)], axis=2)
        return self.to_x(np.fft.ifft(products, axis=2).real)

    def update_left(self, target):
        """Every slice's left factor, the least-squares fit of target (iterate's layout)."""
        data = np.fft.fft(self.to_own(target), axis=2)
        self.left = [data[:, :, k] @ np.linalg.pinv(g) for k, g in enumerate(self.right)]

    def update_right(self, target):
        data = np.fft.fft(self.to_own(target), axis=2)
        self.right = [np.linalg.pinv(f) @ data[:, :, k] for k, f in enumerate(self.left)]

    def cut(self, tau):
        """The eigen-gap rank cut: where the descending eigenvalues of a slice's right factor
        times its conjugate transpose (floored at eps times the largest) have a consecutive
        ratio above tau, keep the directions before the widest such gap, by a truncated SVD
        of the slice product.  True if any slice was cut."""
        cut = False
        for k, (f, g) in enumerate(zip(self.left, self.right)):
            r = g.shape[0]
            if r < 2:
                continue
            lam = np.clip(np.linalg.eigvalsh(g @ g.conj().T)[::-1], 0.0, None)
            lam = np.maximum(lam, np.finfo(float).eps * lam[0]) if lam[0] > 0 else np.ones(r)
            ratios = lam[:-1] / lam[1:]
            if ratios.max() > tau:
                keep = int(np.argmax(ratios)) + 1
                u, s, vh = np.linalg.svd(f @ g)
                self.left[k], self.right[k] = u[:, :keep] * s[:keep], vh[:keep]
                cut = True
        return cut


def slice_ranks(problem, config):
    dims = problem.dims
    ranks = rank_list(config.init_ranks, dims[2])
    if config.rank_cfg.enabled and not below_capacity(dims, ranks, problem.mask.count):
        raise ValueError("the growth path is not written in the reference")
    return ranks


def complete_matrix(problem, config):
    """The matrix solver, one side: (x, rows, termination)."""
    start = init_factors(*problem.dims, slice_ranks(problem, config), config.seed)
    return _sweeps(problem, config, [Side(start, "rank_decrease")], None, False)


def complete_tensor(problem, config):
    """The double-tubal solver, the slice side blended with the regrouped side with weight
    gamma: (x, rows, termination)."""
    n1, n2, n3 = problem.dims
    p, q = config.p, config.q
    if p is None and q is None:  # by default q is the largest divisor of n1 * n2 up to 64
        q = max(d for d in range(1, min(64, n1 * n2) + 1) if n1 * n2 % d == 0)
    p, q = p or n1 * n2 // q, q or n1 * n2 // p
    ranks = slice_ranks(problem, config)
    xt = config.init_ranks_xt
    xt = rank_list(max(min(max(ranks), n3, p), 1) if xt is None else xt, q)
    if config.rank_cfg.enabled and not below_capacity((n3, p, q), xt, problem.mask.count):
        xt = [min(1, r) for r in xt]  # a regrouped side that could interpolate starts at rank 1
    rng = np.random.default_rng(config.seed)
    sides = [Side(init_factors(n1, n2, n3, ranks, rng), "rank_decrease"),
             Side(init_factors(n3, p, q, xt, rng), "rank_decrease_xt",
                  lambda x: regroup(x, p, q), lambda t: fold(t, problem.dims))]
    return _sweeps(problem, config, sides, config.gamma0, config.adaptive_gamma)


def _sweeps(problem, config, sides, gamma, adaptive):
    """Sweep until the relative change falls below epsilon, or max_iter times."""
    mask, observed = problem.mask.observed, problem.observed
    on = sides[:1] if gamma == 0 and not adaptive else list(sides)

    def fill():
        seen = [s.seen() for s in on]
        blend = seen[0] if len(on) == 1 else (seen[0] + gamma * seen[1]) / (1.0 + gamma)
        return np.where(mask, observed, blend)

    x = observed
    prev = [s.seen() for s in on]  # the first step is measured from the start
    rows = []
    for t in range(1, config.max_iter + 1):
        stage_one = t <= config.t0
        for i, side in enumerate(on):
            # stage one: the regrouped side starts from a fresh fill, and each right
            # update fits the fill made after its left update; stage two: all fit x
            target = fill() if i and stage_one else x
            side.update_left(target)
            side.update_right(fill() if stage_one else target)
        event = []
        for side in on:
            if config.rank_cfg.enabled and side.cut(config.rank_cfg.tau):
                event.append(side.event)
        seen = [s.seen() for s in on]
        new = fill()
        weights = (1.0, gamma)  # the slice side's, then the regrouped side's
        objective = sum(w * 0.5 * sq(new - a) for w, a in zip(weights, seen))
        step_sq = sum(w * 0.5 * sq(a - b) for w, a, b in zip(weights, seen, prev))
        mass = sq(x)
        rel = np.sqrt(sq(new - x) / mass if mass > 0 else sq(new - x))
        row = Row(t, objective, rel, step_sq, on[0].ranks(), "", gamma,
                  sides[1].ranks() if len(sides) > 1 else None)
        x, prev = new, seen
        stop = rel < config.epsilon
        if not stop and t < config.max_iter and adaptive:
            # the ratio of the sides' observed residuals, kept when the regrouped one is 0;
            # off when it is small, or when the regrouped side, at full rank, fits anything
            num, den = (np.linalg.norm(np.where(mask, s - observed, 0.0)) for s in seen)
            gamma = num / den if den > 0 else gamma
            if gamma < SIDE_OFF_GAMMA or min(on[1].ranks()) >= min(on[1].dims[:2]):
                on, gamma, adaptive = on[:1], 0.0, False
                event.append("side_off")
        row.event = "+".join(event)
        rows.append(row)
        if stop:
            return x, rows, "converged"
    return x, rows, "max_iter"
