"""Per-frequency low-rank factor pairs and their least-squares updates.

A factor pair approximates each stored frequency slice of a data tensor as
left[k] @ right[k] with a slice-dependent rank.  Updates solve one regularized
least-squares problem per stored slice; mirrored slices are implied by
conjugate symmetry, so only n3 // 2 + 1 solves happen per sweep.  Slices of
equal rank are solved together, as one stacked matmul/pinv per rank group.
"""

from dataclasses import dataclass, replace

import numpy as np

from .core import MultiRank, _irfft_checked


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
    rank gap.
    """

    enabled: bool = True
    tau: float = 10.0

    def __post_init__(self):
        if self.tau <= 1:
            raise ValueError(f"tau must exceed 1, got {self.tau}")


@dataclass
class BlockFactors:
    """Per-slice factor pair for a tensor of shape dims = (n_rows, n_cols, n3).

    left[k] is (n_rows, r_k) complex, right[k] is (r_k, n_cols) complex, for
    the stored frequency slices k = 0 .. n3 // 2.
    """

    dims: tuple
    ranks: MultiRank
    left: list
    right: list

    def __post_init__(self):
        n_rows, n_cols, n3 = self.dims
        stored = self.ranks.stored()
        if self.ranks.n3 != n3:
            raise ValueError(f"rank vector length {self.ranks.n3} != n3 {n3}")
        if len(self.left) != len(stored) or len(self.right) != len(stored):
            raise ValueError("factor lists must cover every stored slice")
        for k, r in enumerate(stored):
            if self.left[k].shape != (n_rows, r):
                raise ValueError(
                    f"left slice {k} has shape {self.left[k].shape}, expected {(n_rows, r)}"
                )
            if self.right[k].shape != (r, n_cols):
                raise ValueError(
                    f"right slice {k} has shape {self.right[k].shape}, expected {(r, n_cols)}"
                )

    @property
    def n_stored(self):
        return len(self.left)


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
    stored = ranks.stored()
    scale = 1.0 / np.sqrt(max(rmax, 1))
    p0 = rng.standard_normal((n_rows, rmax, n3)) * scale
    q0 = rng.standard_normal((rmax, n_cols, n3)) * scale
    pf = np.fft.rfft(p0, axis=2)
    qf = np.fft.rfft(q0, axis=2)
    left = [np.ascontiguousarray(pf[:, : stored[k], k]) for k in range(len(stored))]
    right = [np.ascontiguousarray(qf[: stored[k], :, k]) for k in range(len(stored))]
    return BlockFactors((n_rows, n_cols, n3), ranks, left, right)


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


def _edit_slices(factors, pairs):
    """The factor pair with each stored slice k in pairs replaced by pairs[k] = (left,
    right); the ranks follow the new slices' shapes."""
    left, right = list(factors.left), list(factors.right)
    for k, (p, q) in pairs.items():
        left[k], right[k] = p, q
    stored = [q.shape[0] for q in right]
    return BlockFactors(factors.dims, MultiRank.from_stored(stored, factors.dims[2]), left, right)


def _rank_groups(factors):
    """Stored-slice indices keyed by slice rank, each list in stored order."""
    groups = {}
    for k, r in enumerate(factors.ranks.stored()):
        groups.setdefault(r, []).append(k)
    return groups


def _stack(mats, ks):
    return np.stack([mats[k] for k in ks])


def _h(a):
    """Conjugate transpose of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def update_left(factors, spec):
    """Least-squares refresh of every stored left slice against the data spectrum.

    Slice k becomes data_k @ right_k^H @ pinv(right_k @ right_k^H).
    """
    _check_spec(factors, spec)
    data = np.moveaxis(spec.slices, 2, 0)
    new_left = [None] * factors.n_stored
    for ks in _rank_groups(factors).values():
        q = _stack(factors.right, ks)
        qh = _h(q)
        for k, m in zip(ks, data[ks] @ qh @ pinv(q @ qh)):
            new_left[k] = m
    slice_solves.add(factors.n_stored)
    return replace(factors, left=new_left)


def update_right(factors, spec):
    """Least-squares refresh of every stored right slice against the data spectrum.

    Slice k becomes pinv(left_k^H @ left_k) @ left_k^H @ data_k.
    """
    _check_spec(factors, spec)
    data = np.moveaxis(spec.slices, 2, 0)
    new_right = [None] * factors.n_stored
    for ks in _rank_groups(factors).values():
        ph = _h(_stack(factors.left, ks))
        for k, m in zip(ks, pinv(ph @ _h(ph)) @ ph @ data[ks]):
            new_right[k] = m
    slice_solves.add(factors.n_stored)
    return replace(factors, right=new_right)


def compose_spectral(factors):
    """Stored-slice products left[k] @ right[k] as an (n_rows, n_cols, half) array."""
    n_rows, n_cols, n3 = factors.dims
    out = np.empty((n_rows, n_cols, factors.n_stored), complex)
    by_slice = out.transpose(2, 0, 1)
    for ks in _rank_groups(factors).values():
        # a contiguous run of slices (every slice at uniform rank) is a basic slice
        run = slice(ks[0], ks[-1] + 1) if ks[-1] - ks[0] + 1 == len(ks) else ks
        by_slice[run] = _stack(factors.left, ks) @ _stack(factors.right, ks)
    return out


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
    cuts = {}
    for r, ks in _rank_groups(factors).items():
        if r <= 1:
            continue
        q = _stack(factors.right, ks)
        lam = np.linalg.eigvalsh(q @ _h(q))[:, ::-1]
        for k, cut in zip(ks, _rank_cuts(lam, cfg.tau)):
            if cut == 0:
                continue
            # Thin SVD of the slice product through a QR factor keeps the cost at
            # O(n r^2) instead of forming the full n_rows x n_cols product.
            qmat, rmat = np.linalg.qr(factors.left[k])
            u, s, vh = np.linalg.svd(rmat @ factors.right[k], full_matrices=False)
            cuts[k] = (qmat @ (u[:, :cut] * s[:cut]), vh[:cut, :])
    if not cuts:
        return factors, factors.ranks, False
    out = _edit_slices(factors, cuts)
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
    return _edit_slices(factors, {
        k: (factors.left[k][:, :r], factors.right[k][:r, :]) for k, r in enumerate(ranks.stored())
    })


def grow_ranks(factors, residual, ceiling):
    """Raise by one the rank of every stored slice below its ceiling.

    residual holds the stored slices of the fitted data minus the current
    slice products, shape (n_rows, n_cols, n_stored); each growing slice gains
    the leading singular pair of its residual slice.  ceiling lists the
    stored-slice rank limits.  Returns (new_factors, changed).
    """
    grown = {}
    for k, cap in enumerate(ceiling):
        if factors.ranks[k] >= cap:
            continue
        u, s, vh = np.linalg.svd(residual[:, :, k], full_matrices=False)
        if s[0] <= 0:
            continue
        left = np.hstack([factors.left[k], u[:, :1] * s[0]])
        grown[k] = (left, np.vstack([factors.right[k], vh[:1, :]]))
    if not grown:
        return factors, False
    return _edit_slices(factors, grown), True
