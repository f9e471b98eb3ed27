"""Per-frequency low-rank factor pairs and their least-squares updates.

A factor pair approximates each stored frequency slice of a data tensor as
left[k] @ right[k] with a slice-dependent rank.  Updates solve one regularized
least-squares problem per stored slice; mirrored slices are implied by
conjugate symmetry, so only n3 // 2 + 1 solves happen per sweep.  Slices of
equal rank are solved together, as one stacked matmul/pinv per rank group.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import MultiRank, _irfft_checked, half_count


class SliceSolveCounter:
    """Counts per-slice least-squares solves."""

    def __init__(self):
        self._count = 0

    @property
    def count(self):
        return self._count

    def reset(self):
        self._count = 0

    def add(self, n):
        self._count += n


slice_solves = SliceSolveCounter()


def pinv(m, rtol=None):
    """Moore-Penrose inverse with singular values below rtol * sigma_max dropped.

    m may be a stack of matrices; the default rtol follows the size of one
    matrix, not of the stack.
    """
    m = np.asarray(m)
    if rtol is None:
        rtol = max(m.shape[-2:]) * np.finfo(float).eps if m.size else 0.0
    return np.linalg.pinv(m, rcond=rtol)


@dataclass(frozen=True)
class RankDecreaseConfig:
    """Eigen-gap rank detection settings.

    tau is the minimal ratio between consecutive Gram eigenvalues treated as a
    rank gap, a finite value above 1.
    """

    enabled: bool = True
    tau: float = 10.0

    def __post_init__(self):
        if not 1 < self.tau < np.inf:  # NaN fails too
            raise ValueError(f"tau must be finite and exceed 1, got {self.tau}")


class BlockFactors:
    """Per-slice factor pair for a tensor of shape dims = (n_rows, n_cols, n3).

    left[k] is (n_rows, r_k) complex, right[k] is (r_k, n_cols) complex, for
    the stored frequency slices k = 0 .. n3 // 2.  groups stores them as one
    triple (ks, left, right) per rank r: the slices' ascending indices and
    C-contiguous (len(ks), n_rows, r) and (len(ks), r, n_cols) stacks.  left
    and right are tuples of views into the stacks, made on first use.
    BlockFactors(dims, ranks, left, right) stacks per-slice sequences once.
    """

    def __init__(self, dims, ranks, left, right):
        if ranks.n3 != dims[2]:
            raise ValueError(f"rank vector length {ranks.n3} != n3 {dims[2]}")
        if len(left) != half_count(dims[2]) or len(right) != len(left):
            raise ValueError("factor lists must cover every stored slice")
        self._set(dims, ranks, [(ks, *(np.stack([m[k] for k in ks]) for m in (left, right)))
                                for ks in _rank_groups(ranks.stored()).values()])

    @classmethod
    def _stacked(cls, dims, ranks, groups):
        f = cls.__new__(cls)
        f._set(dims, ranks, groups)
        return f

    def _set(self, dims, ranks, groups):
        n_rows, n_cols, _ = dims
        for ks, p, q in groups:  # one shape check per group
            r = ranks[ks[0]]
            if p.shape != (len(ks), n_rows, r) or q.shape != (len(ks), r, n_cols):
                raise ValueError(f"rank-{r} slices {list(ks)} have stacks {p.shape}, {q.shape}")
        self.dims, self.ranks, self.groups = dims, ranks, tuple(groups)

    @cached_property
    def _views(self):
        views = {k: pair for ks, p, q in self.groups for k, pair in zip(ks, zip(p, q))}
        return tuple(zip(*(views[k] for k in range(self.n_stored))))

    left = property(lambda self: self._views[0])
    right = property(lambda self: self._views[1])

    @property
    def n_stored(self):
        return half_count(self.dims[2])


def init_factors(n_rows, n_cols, n3, init_ranks, seed=0):
    """Draw a random factor pair with the requested per-slice ranks.

    Spatial factor tensors are sampled i.i.d. N(0, 1/r_max), transformed along
    mode 3, then each stored slice is truncated to its requested rank.  The
    same seed always produces the same factors.
    """
    ranks = as_multirank(init_ranks, n3)
    rmax = ranks.tubal
    if rmax > min(n_rows, n_cols):
        raise ValueError(
            f"initial rank {rmax} exceeds min(n_rows, n_cols) = {min(n_rows, n_cols)}"
        )
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(max(rmax, 1))
    p0 = rng.standard_normal((n_rows, rmax, n3)) * scale
    q0 = rng.standard_normal((rmax, n_cols, n3)) * scale
    pf, qf = (np.moveaxis(np.fft.rfft(a, axis=2), 2, 0) for a in (p0, q0))
    dims, groups = (n_rows, n_cols, n3), [(np.arange(len(pf)), pf, qf)]
    return truncate_ranks(BlockFactors._stacked(dims, MultiRank.constant(rmax, n3), groups), ranks)


def as_multirank(value, n3):
    """Coerce an int, sequence or MultiRank into a MultiRank of length n3."""
    if isinstance(value, MultiRank):
        if value.n3 != n3:
            raise ValueError(f"rank vector length {value.n3} != n3 {n3}")
        return value
    if np.isscalar(value):
        return MultiRank.constant(int(value), n3)
    seq = list(value)
    if len(seq) != n3:
        raise ValueError(f"rank vector length {len(seq)} != n3 {n3}")
    return MultiRank(tuple(int(v) for v in seq))


def _check_spec(factors, spec):
    if spec.dims != factors.dims:
        raise ValueError(f"data dims {spec.dims} != factor dims {factors.dims}")


def _rank_groups(stored):
    """Stored-slice indices keyed by slice rank, as ascending arrays in order of first rank."""
    stored = np.asarray(stored)
    return {r: np.flatnonzero(stored == r) for r in dict.fromkeys(stored.tolist())}


def _regroup(factors, pieces):
    """The pair made of pieces, (ks, left, right) stacks of one rank each that together
    cover every stored slice once: the pieces of a rank merge into its group."""
    stored = np.empty(factors.n_stored, int)
    for ks, _, q in pieces:
        stored[ks] = q.shape[1]
    groups = []
    for r, ks in _rank_groups(stored).items():
        same = [piece for piece in pieces if piece[2].shape[1] == r]
        order = np.argsort(np.concatenate([piece[0] for piece in same]))
        groups.append((ks, *(np.concatenate([piece[i] for piece in same])[order] for i in (1, 2))))
    ranks = MultiRank.from_stored(stored, factors.dims[2])
    return BlockFactors._stacked(factors.dims, ranks, groups)


def _run(ks):
    """ks as a basic slice when it is one contiguous run: a view of a stack, not a gather."""
    return slice(ks[0], ks[-1] + 1) if ks[-1] - ks[0] + 1 == len(ks) else ks


def _h(a):
    """Conjugate transpose of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def update_left(factors, spec):
    """Least-squares refresh of every stored left slice against the data spectrum.

    Slice k becomes data_k @ right_k^H @ pinv(right_k @ right_k^H).
    """
    _check_spec(factors, spec)
    data = np.moveaxis(spec.slices, 2, 0)
    groups = []
    for ks, _, q in factors.groups:
        qh = _h(q)
        groups.append((ks, data[_run(ks)] @ qh @ pinv(q @ qh), q))
    slice_solves.add(factors.n_stored)
    return BlockFactors._stacked(factors.dims, factors.ranks, groups)


def update_right(factors, spec):
    """Least-squares refresh of every stored right slice against the data spectrum.

    Slice k becomes pinv(left_k^H @ left_k) @ left_k^H @ data_k.
    """
    _check_spec(factors, spec)
    data = np.moveaxis(spec.slices, 2, 0)
    groups = []
    for ks, p, _ in factors.groups:
        ph = _h(p)
        groups.append((ks, p, pinv(ph @ _h(ph)) @ ph @ data[_run(ks)]))
    slice_solves.add(factors.n_stored)
    return BlockFactors._stacked(factors.dims, factors.ranks, groups)


def compose_spectral(factors):
    """Stored-slice products left[k] @ right[k] as a slice-major (n_rows, n_cols, half) array."""
    by_slice = np.empty((factors.n_stored,) + factors.dims[:2], complex)
    for ks, p, q in factors.groups:
        at = _run(ks)
        if isinstance(at, slice):  # one run: written in place
            np.matmul(p, q, out=by_slice[at])
        else:
            by_slice[at] = p @ q
    return by_slice.transpose(1, 2, 0)


def compose(factors):
    """Spatial tensor represented by the factor pair.

    Raises SpectralSymmetryError if the slice products cannot come from a real
    tensor (imaginary mass above 1e-9 of total in the self-conjugate slices).
    """
    return _irfft_checked(compose_spectral(factors), factors.dims[2], tol=1e-9)


def _rank_cuts(eigvals, tau):
    """Per row of descending eigenvalues, the count to keep before the widest
    eigen gap, or 0 where no gap exceeds tau."""
    lam = np.clip(eigvals, 0.0, None)
    top = lam[:, :1]
    # eigvalsh noise on a Gram matrix sits at eps * lam[0]; flooring there keeps
    # ratios between sub-noise values from outvoting the true gap.  An all-zero
    # spectrum reads as flat.
    lam = np.where(top > 0, np.maximum(lam, np.finfo(float).eps * top), 1.0)
    ratios = lam[:, :-1] / lam[:, 1:]
    return np.where(ratios.max(axis=1) > tau, np.argmax(ratios, axis=1) + 1, 0)


def rank_decrease(factors, cfg=RankDecreaseConfig()):
    """Detect and apply per-slice rank drops via the Gram eigen-gap test.

    For each stored slice the eigenvalues of right_k @ right_k^H are scanned
    for a ratio gap above cfg.tau; when found, the slice product is truncated
    to the leading directions of its thin SVD (never below rank 1, never
    increased).  Returns (new_factors, new_ranks, changed).
    """
    if not cfg.enabled:
        return factors, factors.ranks, False
    pieces = []
    for ks, p, q in factors.groups:
        keep = _rank_cuts(np.linalg.eigvalsh(q @ _h(q))[:, ::-1], cfg.tau) if p.shape[2] > 1 else 0
        at = np.flatnonzero(keep)  # the group's slices that cut
        if not at.size:
            pieces.append((ks, p, q))
            continue
        # One stacked thin SVD of the cut slices' products, through QR factors, costs
        # O(n r^2) per slice instead of forming the full n_rows x n_cols products.
        qmat, rmat = np.linalg.qr(p[at])
        u, s, vh = np.linalg.svd(rmat @ q[at], full_matrices=False)
        pieces.append((ks[keep == 0], p[keep == 0], q[keep == 0]))
        for c in set(keep[at].tolist()):
            i = keep[at] == c
            pieces.append((ks[at[i]], qmat[i] @ (u[i, :, :c] * s[i, None, :c]), vh[i, :c, :]))
    if len(pieces) == len(factors.groups):  # a group that cut left two or more pieces
        return factors, factors.ranks, False
    out = _regroup(factors, pieces)
    return out, out.ranks, True


def can_interpolate(dims, ranks, n_observed):
    """Whether a factor pair of these ranks has enough freedom to fit any data.

    A rank-r slice of an (n_rows, n_cols) tensor carries r * (n_rows + n_cols - r)
    real degrees of freedom; summed over all n3 slices, a count at or above the
    number of observed entries lets the factors interpolate the observations,
    so the objective no longer separates the truth from other fits.
    """
    n_rows, n_cols, _ = dims
    return sum(r * (n_rows + n_cols - r) for r in ranks) >= n_observed


def truncate_ranks(factors, ranks):
    """Keep the leading ranks[k] columns and rows of every stored slice (at most its rank)."""
    target = np.array(ranks.stored())
    pieces = []
    for ks, p, q in factors.groups:
        for t in set(target[ks].tolist()):
            i = target[ks] == t
            pieces.append((ks[i], p[i, :, :t], q[i, :t, :]))
    return _regroup(factors, pieces)


def grow_ranks(factors, residual, ceiling):
    """Raise by one the rank of every stored slice below its ceiling.

    residual holds the stored slices of the fitted data minus the current
    slice products, shape (n_rows, n_cols, n_stored); each growing slice gains
    the leading singular pair of its residual slice, from one stacked SVD per
    rank group.  ceiling lists the stored-slice rank limits.  Returns (new_factors, changed).
    """
    residual, ceiling = np.moveaxis(residual, 2, 0), np.asarray(ceiling)
    pieces = []
    for ks, p, q in factors.groups:
        at = np.flatnonzero(ceiling[ks] > p.shape[2])
        u, s, vh = np.linalg.svd(residual[ks[at]], full_matrices=False)
        i = s[:, 0] > 0
        if not i.any():
            pieces.append((ks, p, q))
            continue
        at = at[i]
        pieces.append((np.delete(ks, at), np.delete(p, at, 0), np.delete(q, at, 0)))
        p_new = np.concatenate([p[at], u[i, :, :1] * s[i, None, :1]], axis=2)
        pieces.append((ks[at], p_new, np.concatenate([q[at], vh[i, :1, :]], axis=1)))
    if len(pieces) == len(factors.groups):  # a group that grew left two pieces
        return factors, False
    return _regroup(factors, pieces), True
