"""Per-frequency low-rank factor pairs and their least-squares updates.

A factor pair approximates each stored frequency slice of a data tensor as
left[k] @ right[k] with a slice-dependent rank.  Updates solve one least-squares
problem per stored slice (mirrored slices follow by conjugate symmetry, so n3 // 2 + 1
solves per sweep), zero-padded to the largest rank as one stacked matmul that applies
each r x r inverted Gram (_gram_inv, zero on the padding) on the short side of its
slice; the padding adds nothing to a slice's product.  The updates' products with the data
and the slice products run as real matmuls on the stacks' interleaved float views (_times,
_h_times); the Grams stay complex.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import MultiRank, _irfft_checked, dft_mode3, half_count, pair_weights
from .core import check_count, check_flag, check_real


class SliceSolveCounter:
    """Counts per-slice least-squares solves."""

    def __init__(self):
        self.count = 0

    def reset(self):
        self.count = 0


slice_solves = SliceSolveCounter()
GRAM_COND = 1e8  # a Gram with a larger Frobenius condition number is pseudo-inverted


def pinv(m):
    """Moore-Penrose inverse with singular values below max(n_rows, n_cols) * eps * sigma_max
    dropped; m may be a stack of matrices, and the cutoff follows the size of one matrix."""
    m = np.asarray(m)
    return np.linalg.pinv(m, rcond=max(m.shape[-2:]) * np.finfo(float).eps if m.size else 0.0)


@dataclass(frozen=True)
class RankDecreaseConfig:
    """Eigen-gap rank detection settings.

    tau is the minimal ratio between consecutive Gram eigenvalues treated as a
    rank gap, a finite value above 1.
    """

    enabled: bool = True
    tau: float = 10.0

    def __post_init__(self):
        check_flag(self.enabled, "enabled")
        check_real(self.tau, "tau", 1, above=True)


class BlockFactors:
    """Per-slice factor pair for a tensor of shape dims = (n_rows, n_cols, n3).

    left[k] is (n_rows, r_k) complex, right[k] is (r_k, n_cols) complex, for
    the stored frequency slices k = 0 .. n3 // 2.  Both are views into one
    C-contiguous pair of stacks: p of shape (n_stored, n_rows, w) and q of shape
    (n_stored, w, n_cols), where w is the largest stored rank.  Slice k's
    columns of p and rows of q past r_k are exactly zero, so every slice is
    solved and multiplied at width w.  BlockFactors(dims, ranks, left, right)
    pads per-slice sequences into the stacks once.
    """

    def __init__(self, dims, ranks, left, right):
        if ranks.n3 != dims[2]:
            raise ValueError(f"rank vector length {ranks.n3} != n3 {dims[2]}")
        if len(left) != half_count(dims[2]) or len(right) != len(left):
            raise ValueError("factor lists must cover every stored slice")
        p = np.zeros((len(left), dims[0], ranks.tubal), complex)
        q = np.zeros((len(left), ranks.tubal, dims[1]), complex)
        for k, r in enumerate(ranks.stored()):
            if np.shape(left[k]) != (dims[0], r) or np.shape(right[k]) != (r, dims[1]):
                shapes = np.shape(left[k]), np.shape(right[k])
                raise ValueError(f"rank-{r} slice {k} has factors of shapes {shapes}")
            p[k, :, :r], q[k, :r] = left[k], right[k]
        self.dims, self.ranks, self.p, self.q = dims, ranks, p, q

    @classmethod
    def _stacked(cls, dims, ranks, p, q):
        f = cls.__new__(cls)
        f.dims, f.ranks, f.p, f.q = dims, ranks, p, q
        return f

    @cached_property
    def _views(self):
        stored = self.ranks.stored()
        return (tuple(p[:, :r] for p, r in zip(self.p, stored)),
                tuple(q[:r] for q, r in zip(self.q, stored)))

    left = property(lambda self: self._views[0])
    right = property(lambda self: self._views[1])

    @property
    def n_stored(self):
        return half_count(self.dims[2])

    @cached_property
    def gram(self):
        """The right factors' Grams q_k q_k^H, read by rank_decrease and update_left."""
        return self.q @ _h(self.q)


def _padded(dims, ranks, p, q):
    """The pair with these ranks from stacks p, q at least as wide, cut to the largest rank
    and zeroed past each slice's own, in new stacks of its own; p and q are never written."""
    stored = np.array(ranks.stored())
    w = stored.max()
    keep = np.arange(w) < stored[:, None]
    p, q = np.where(keep[:, None], p[:, :, :w], 0), np.where(keep[:, :, None], q[:, :w], 0)
    return BlockFactors._stacked(dims, ranks, p, q)


def init_factors(n_rows, n_cols, n3, init_ranks, seed=0):
    """Draw a random factor pair with the requested per-slice ranks.

    Spatial factor tensors are sampled i.i.d. N(0, 1/r_max), transformed along
    mode 3, then each stored slice is truncated to its requested rank.  seed is
    a Generator or a nonnegative integer; the same seed always produces the
    same factors.
    """
    ranks = as_multirank(init_ranks, n3)
    rmax = ranks.tubal
    if rmax > min(n_rows, n_cols):
        raise ValueError(
            f"initial rank {rmax} exceeds min(n_rows, n_cols) = {min(n_rows, n_cols)}"
        )
    if not isinstance(seed, np.random.Generator):
        check_count(seed, "seed")
    rng = np.random.default_rng(seed)  # a Generator passes through as itself
    scale = 1.0 / np.sqrt(max(rmax, 1))
    p0 = rng.standard_normal((n_rows, rmax, n3)) * scale
    q0 = rng.standard_normal((rmax, n_cols, n3)) * scale
    pf, qf = (np.moveaxis(dft_mode3(a).slices, 2, 0) for a in (p0, q0))  # C-contiguous stacks
    return _padded((n_rows, n_cols, n3), ranks, pf, qf)


def as_multirank(value, n3):
    """Coerce a rank spec into a MultiRank of length n3: an int (the rank of every
    slice), a sequence of n3 ranks, a MultiRank, or a string "8", "5,3,2,2,3" or
    "4,2*", whose starred last rank fills every slice after the listed ones."""
    if isinstance(value, MultiRank) and value.n3 == n3:
        return value
    ranks = value
    try:
        if isinstance(value, str):
            tokens = [t.strip() for t in value.split(",")]
            if tokens[-1].endswith("*"):
                tokens[-1:] = [tokens[-1][:-1]] * (n3 + 1 - len(tokens))
            ranks = [int(t) for t in tokens]
            ranks = ranks[0] if len(ranks) == 1 else ranks
        ranks = [ranks] * n3 if np.ndim(ranks) == 0 else list(ranks)
        if len(ranks) != n3:
            raise ValueError(f"rank vector length {len(ranks)} != n3 {n3}")
        return MultiRank(tuple(ranks))  # which checks that every rank is an integer
    except ValueError as e:
        raise ValueError(f"bad rank specification {value!r}: {e}") from None


def _check_spec(factors, spec):
    if spec.dims != factors.dims:
        raise ValueError(f"data dims {spec.dims} != factor dims {factors.dims}")


def _h(a):
    """Conjugate transpose of every matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _floats(a):
    """The interleaved (real, imaginary) float view of a complex stack, C-ordered first."""
    return np.ascontiguousarray(a).view(float)


def _times(x, b):
    """x @ b for complex stacks, as one real matmul of x's float view by the float view of
    each b's real 2x2-block form: the block row [b, 1j * b] reshaped to (2 n, c), so that
    rows 2j and 2j + 1 hold b's row j and 1j times it."""
    n, c = b.shape[-2:]
    blocks = np.concatenate((b, 1j * b), axis=-1).reshape(*b.shape[:-2], 2 * n, c)
    return (_floats(x) @ blocks.view(float)).view(complex)


def _h_times(a, b):
    """a^H @ b for complex stacks, as one real matmul of the float views, a's transposed
    (no conjugated copy of a); row pair (2i, 2i + 1) of the product, read as complex, holds
    re(a_i)^T b and im(a_i)^T b, so a_i^H b is the first minus 1j times the second."""
    m = (_floats(a).swapaxes(-1, -2) @ _floats(b)).view(complex)
    m = m.reshape(*m.shape[:-2], a.shape[-1], 2, b.shape[-1])
    return m[..., 0, :] - 1j * m[..., 1, :]


def _gram_inv(g, stored):
    """Inverse of each padded Gram in the stack g, exactly zero on its slice's padding:
    inv(G + I_pad) - I_pad (I_pad the identity on the padding, which LU never pivots into) for
    a slice of rank r_k >= 1 whose Frobenius condition number ||G||_F ||inv||_F is below
    GRAM_COND, pinv(G) for any other slice, and pinv for the stack if some G is singular."""
    pad = np.eye(g.shape[-1]) * (np.arange(g.shape[-1]) >= stored[:, None])[:, None]
    try:
        out = np.linalg.inv(g + pad) - pad
    except np.linalg.LinAlgError:
        return pinv(g)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow or NaN reads as slow
        cond = np.linalg.norm(g, axis=(1, 2)) * np.linalg.norm(out, axis=(1, 2))
    slow = (stored == 0) | ~(cond < GRAM_COND)
    if slow.any():
        out[slow] = pinv(g[slow])
    return out


def update_left(factors, spec):
    """Least-squares refresh of every stored left slice against the data spectrum.

    Slice k becomes data_k @ right_k^H @ inv(right_k @ right_k^H), guarded by _gram_inv.
    """
    _check_spec(factors, spec)
    q, data = factors.q, np.moveaxis(spec.slices, 2, 0)
    slice_solves.count += factors.n_stored
    ginv = _gram_inv(factors.gram, np.array(factors.ranks.stored()))
    left = _times(data, _h(q) @ ginv)
    return BlockFactors._stacked(factors.dims, factors.ranks, left, q)


def update_right(factors, spec):
    """Least-squares refresh of every stored right slice against the data spectrum.

    Slice k becomes inv(left_k^H @ left_k) @ left_k^H @ data_k, guarded by _gram_inv.
    """
    _check_spec(factors, spec)
    p, data = factors.p, np.moveaxis(spec.slices, 2, 0)
    slice_solves.count += factors.n_stored
    ginv = _gram_inv(_h(p) @ p, np.array(factors.ranks.stored()))
    right = ginv @ _h_times(p, data)
    return BlockFactors._stacked(factors.dims, factors.ranks, p, right)


def gradient_sq(factors, residual):
    """Squared norms (left, right) of the half misfit's gradients in the two factors, over
    all n3 slices, at residual: the fitted data's stored slices minus the slice products."""
    w = pair_weights(factors.dims[2])
    diff = np.moveaxis(residual, 2, 0)
    return (w @ np.linalg.norm(diff @ _h(factors.q), axis=(1, 2)) ** 2,
            w @ np.linalg.norm(_h(factors.p) @ diff, axis=(1, 2)) ** 2)


def compose_spectral(factors):
    """Stored-slice products left[k] @ right[k] as a slice-major (n_rows, n_cols, half) array."""
    return _times(factors.p, factors.q).transpose(1, 2, 0)


def compose(factors):
    """Spatial tensor represented by the factor pair.

    Raises SpectralSymmetryError if the slice products cannot come from a real
    tensor (imaginary mass above 1e-9 of total in the self-conjugate slices).
    """
    return _irfft_checked(compose_spectral(factors), factors.dims[2], tol=1e-9)


def _rank_cuts(eigvals, ranks, tau):
    """Per row of descending eigenvalues, the count to keep before the widest eigen
    gap among its first ranks[i] values, or 0 where no such gap exceeds tau."""
    lam = np.clip(eigvals, 0.0, None)
    top = lam[:, :1]
    # eigvalsh noise on a Gram matrix sits at eps * lam[0]; flooring there keeps
    # ratios between sub-noise values from outvoting the true gap.  An all-zero
    # spectrum reads as flat.
    lam = np.where(top > 0, np.maximum(lam, np.finfo(float).eps * top), 1.0)
    ratios = lam[:, :-1] / lam[:, 1:]
    ratios[np.arange(ratios.shape[1]) >= ranks[:, None] - 1] = 0.0  # gaps into the padding
    return np.where(ratios.max(axis=1) > tau, np.argmax(ratios, axis=1) + 1, 0)


def rank_decrease(factors, cfg):
    """Detect and apply per-slice rank drops via the Gram eigen-gap test.

    For each stored slice the eigenvalues of right_k @ right_k^H are scanned
    for a ratio gap above cfg.tau; when found, the slice product is truncated
    to the leading directions of its thin SVD (never below rank 1, never
    increased).  Returns (new_factors, new_ranks, changed).
    """
    if not cfg.enabled or factors.q.shape[1] < 2:  # a gap needs two directions
        return factors, factors.ranks, False
    stored = np.array(factors.ranks.stored())
    keep = _rank_cuts(np.linalg.eigvalsh(factors.gram)[:, ::-1], stored, cfg.tau)
    cut = np.flatnonzero(keep)
    if not cut.size:
        return factors, factors.ranks, False
    p, q = factors.p.copy(), factors.q.copy()
    for r in set(stored[cut].tolist()):
        at = cut[stored[cut] == r]
        # One stacked thin SVD per rank of the cut slices' products, through QR factors,
        # costs O(n r^2) per slice instead of forming the full n_rows x n_cols products.
        qmat, rmat = np.linalg.qr(p[at, :, :r])
        u, s, vh = np.linalg.svd(rmat @ q[at, :r], full_matrices=False)
        p[at, :, :r], q[at, :r] = qmat @ (u * s[:, None]), vh
    stored[cut] = keep[cut]
    out = _padded(factors.dims, MultiRank.from_stored(stored, factors.dims[2]), p, q)
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


def grow_ranks(factors, residual, ceiling):
    """Raise by one the rank of every stored slice below its ceiling.

    residual holds the stored slices of the fitted data minus the current
    slice products, shape (n_rows, n_cols, n_stored); each growing slice gains
    the leading singular pair of its residual slice, from one stacked SVD.
    ceiling lists the stored-slice rank limits.  Returns (new_factors, changed).
    """
    stored = np.array(factors.ranks.stored())
    at = np.flatnonzero(np.asarray(ceiling) > stored)
    u, s, vh = np.linalg.svd(np.moveaxis(residual, 2, 0)[at], full_matrices=False)
    i = s[:, 0] > 0
    if not i.any():
        return factors, False
    at = at[i]
    p, q = np.pad(factors.p, ((0, 0), (0, 0), (0, 1))), np.pad(factors.q, ((0, 0), (0, 1), (0, 0)))
    p[at, :, stored[at]], q[at, stored[at]] = u[i, :, 0] * s[i, :1], vh[i, 0]
    stored[at] += 1
    return _padded(factors.dims, MultiRank.from_stored(stored, factors.dims[2]), p, q), True
