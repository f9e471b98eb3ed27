"""Third-order tensor algebra built on the discrete Fourier transform along mode 3.

A third-order tensor is a real ndarray of shape (n1, n2, n3); its frontal
slices are the matrices A[:, :, k].  The circular convolution product of two
such tensors reduces, after a DFT along the third mode, to independent matrix
products per frequency slice.  Because the spatial tensors are real, the
transformed slices are conjugate-symmetric and only the first n3 // 2 + 1 of
them are stored.
"""

import numbers
from dataclasses import dataclass

import numpy as np


BLOCK = 1 << 15  # entries per block of the passes run a cache-sized block at a time


# The rules for a valid setting, each written once; every config field and command-line
# setting goes through them.


def _number(value, kind):
    return isinstance(value, kind) and not isinstance(value, (bool, np.bool_))


def check_count(value, name, least=0):
    """Raise ValueError unless value is an integer, not a bool, of at least least."""
    if not (_number(value, numbers.Integral) and value >= least):
        kind = "a nonnegative integer" if least == 0 else f"an integer of at least {least}"
        raise ValueError(f"{name} must be {kind}, got {value}")


def check_real(value, name, low, high=np.inf, above=False):
    """Raise ValueError unless value is a finite real, not a bool, in [low, high], or in
    (low, high] with above."""
    if not (_number(value, numbers.Real) and (low < value if above else low <= value)
            and value <= high and value < np.inf):  # NaN fails every comparison
        rule = (f"in {'(' if above else '['}{low}, {high}]" if high < np.inf
                else f"finite and {'exceed' if above else 'at least'} {low}")
        raise ValueError(f"{name} must be {rule}, got {value}")


def check_flag(value, name):
    """Raise ValueError unless value is a bool (Python's or NumPy's)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value}")


def _axis(mode):
    """The axis of mode 1, 2 or 3 (an integer, not a bool); ValueError for any other mode."""
    if not (_number(mode, numbers.Integral) and 1 <= mode <= 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode}")
    return mode - 1


class SpectralSymmetryError(ValueError):
    """Raised when a spectral object cannot come from a real spatial tensor."""


def half_count(n3):
    """Number of independent frequency slices of a real tensor, ceil((n3+1)/2)."""
    return n3 // 2 + 1


def pair_weights(n3):
    """Multiplicity of each stored frequency slice in full-spectrum sums.

    The DC slice counts once, interior slices stand for a conjugate pair and
    count twice, and the Nyquist slice (present only for even n3) counts once.
    The weights sum to n3.
    """
    w = np.full(half_count(n3), 2.0)
    w[0] = 1.0
    if n3 % 2 == 0:
        w[-1] = 1.0
    return w


@dataclass(frozen=True)
class SpectralTensor:
    """Mode-3 DFT of a real (n1, n2, n3) tensor, stored as the first half spectrum.

    Attributes
    ----------
    dims : tuple of int
        Shape (n1, n2, n3) of the spatial tensor.
    slices : ndarray
        Complex array of shape (n1, n2, n3 // 2 + 1); slices[:, :, k] is the
        k-th frequency slice.  Remaining slices are conjugate mirrors.  The
        library stores it slice-major, as the transposed view of a C-contiguous
        (n3 // 2 + 1, n1, n2) buffer, so each slices[:, :, k] is one contiguous
        matrix; a spectrum in any other layout works too, only slower.
    """

    dims: tuple
    slices: np.ndarray

    def __post_init__(self):
        n1, n2, n3 = self.dims
        if self.slices.shape != (n1, n2, half_count(n3)):
            raise ValueError(
                f"stored spectrum has shape {self.slices.shape}, "
                f"expected {(n1, n2, half_count(n3))}"
            )

    @property
    def n_stored(self):
        return self.slices.shape[2]

    def full(self):
        """Materialize all n3 frequency slices as an (n1, n2, n3) complex array."""
        n3 = self.dims[2]
        tail = np.conj(self.slices[:, :, 1 : n3 - self.n_stored + 1][:, :, ::-1])
        return np.concatenate([self.slices, tail], axis=2)


def _as_tensor3(a, name="tensor"):
    a = np.asarray(a)
    if a.ndim != 3:
        raise ValueError(f"{name} must have 3 modes, got shape {a.shape}")
    return a


def dft_mode3(a):
    """Transform a real tensor along mode 3 into a slice-major half spectrum.

    Forward transform is unnormalized (the inverse carries the 1/n3 factor),
    so Frobenius mass satisfies ||a||^2 = (1/n3) * sum_k ||slice_k||^2 over
    the full spectrum.  Each stored slice slices[:, :, k] of the result is one
    contiguous matrix (see SpectralTensor).
    """
    a = _as_tensor3(a)
    out = np.empty((half_count(a.shape[2]),) + a.shape[:2], complex).transpose(1, 2, 0)
    return SpectralTensor(dims=a.shape, slices=np.fft.rfft(a, axis=2, out=out))


def _imag_residual(slices, n3):
    """Frobenius mass of the imaginary part a real inverse transform would drop.

    Conjugate symmetry of a half spectrum can only fail through imaginary mass
    in the DC slice, or the Nyquist slice when n3 is even; expanding the
    inverse transform shows the reconstructed imaginary mass is exactly
    sqrt((||Im dc||^2 + ||Im nyq||^2) / n3).
    """
    bad = np.linalg.norm(slices[:, :, 0].imag) ** 2
    if n3 % 2 == 0:
        bad += np.linalg.norm(slices[:, :, -1].imag) ** 2
    return np.sqrt(bad / n3)


def _row_blocks(a):
    """Slices of a's first axis, each a block of whole rows of at most BLOCK entries (one row
    at least), so no temporary of a pass over them outgrows the cache."""
    step = max(1, BLOCK // max(1, a[0].size))
    return (slice(i, i + step) for i in range(0, len(a), step))


def _sq(b):
    """Per index of b's first axis, the squared Frobenius norm of b[i], summed in C order; it
    reads row i alone, so it does not depend on how many rows b holds."""
    v = np.ascontiguousarray(b).view(np.float64).reshape(len(b), -1)
    return np.einsum("ij,ij->i", v, v)


def _row_sq(a, minus=None):
    """Per index of a's first axis, the squared Frobenius norm of a (or of a - minus), summed
    (_sq) a block of whole rows at a time (_row_blocks), so no sum depends on BLOCK."""
    per = np.empty(len(a))
    for b in _row_blocks(a):
        per[b] = _sq(a[b] if minus is None else a[b] - minus[b])
    return per


def _half_weighted_sq(slices, n3, minus=None):
    """Squared Frobenius mass of a complex half spectrum, or of slices - minus, over all n3
    slices (conjugate-pair weights), summed a block of whole slices at a time."""
    s = np.moveaxis(slices, 2, 0)  # slice-major: a C-contiguous view of the library's spectra
    m = None if minus is None else np.moveaxis(minus, 2, 0)
    return float(_row_sq(s, m) @ pair_weights(n3))


def _irfft_checked(slices, n3, tol=1e-6):
    resid = _imag_residual(slices, n3)
    # ||DC slice|| / sqrt(n3) bounds the total mass from below, so the full sum is
    # needed only near tol times that bound (0.5 leaves room for rounding).
    if resid > 0.5 * tol * np.linalg.norm(slices[:, :, 0]) / np.sqrt(n3):
        total = np.sqrt(_half_weighted_sq(slices, n3) / n3)
        if resid > tol * total:
            raise SpectralSymmetryError(
                f"spectrum is not conjugate-symmetric: imaginary mass {resid:.3e} "
                f"exceeds {tol:g} of total mass {total:.3e}"
            )
    # a C-ordered out: irfft would otherwise lay its result out like a slice-major input
    return np.fft.irfft(slices, n=n3, axis=2, out=np.empty(slices.shape[:2] + (n3,)))


def idft_mode3(spec):
    """Invert dft_mode3.  Raises SpectralSymmetryError on a corrupted spectrum."""
    return _irfft_checked(spec.slices, spec.dims[2])


def tprod(a, b):
    """Circular-convolution tensor product of a (n1, r, n3) and b (r, n2, n3).

    Computed slice-wise in the frequency domain: each stored slice of the
    result is the matrix product of the corresponding slices of a and b.
    """
    a = _as_tensor3(a, "left operand")
    b = _as_tensor3(b, "right operand")
    if a.shape[1] != b.shape[0] or a.shape[2] != b.shape[2]:
        raise ValueError(f"inner dimensions do not match: {a.shape} * {b.shape}")
    fa = np.fft.rfft(a, axis=2)
    fb = np.fft.rfft(b, axis=2)
    prod = np.einsum("irk,rjk->ijk", fa, fb)
    return np.fft.irfft(prod, n=a.shape[2], axis=2)


def bcirc(a):
    """Block-circulant matrix of a tensor: block (i, j) is slice (i - j) mod n3."""
    a = _as_tensor3(a)
    n1, n2, n3 = a.shape
    out = np.zeros((n1 * n3, n2 * n3), dtype=a.dtype)
    for i in range(n3):
        for j in range(n3):
            out[i * n1 : (i + 1) * n1, j * n2 : (j + 1) * n2] = a[:, :, (i - j) % n3]
    return out


def tprod_reference(a, b):
    """Spatial-domain tensor product via the block-circulant matrix (slow path)."""
    a = _as_tensor3(a, "left operand")
    b = _as_tensor3(b, "right operand")
    if a.shape[1] != b.shape[0] or a.shape[2] != b.shape[2]:
        raise ValueError(f"inner dimensions do not match: {a.shape} * {b.shape}")
    (n1, r, n3), n2 = a.shape, b.shape[1]
    stacked = b.transpose(2, 0, 1).reshape(n3 * r, n2)  # b's frontal slices, one under another
    return (bcirc(a) @ stacked).reshape(n3, n1, n2).transpose(1, 2, 0)  # unstacked the same way


def mode_unfold(a, mode):
    """Mode-s unfolding with column-major fiber ordering.

    Element (i1, i2, i3) of the tensor lands in row i_s and column
    sum_{k != s} i_k * prod_{l < k, l != s} n_l of the unfolding.
    """
    a, axis = _as_tensor3(a), _axis(mode)
    return np.moveaxis(a, axis, 0).reshape(a.shape[axis], -1, order="F")


def reshape_matrix_to_tensor(m, n2):
    """Fold an (n1, h) matrix into an (n1, n2, n3) tensor of consecutive column blocks.

    The matrix is zero-padded on the right with the minimal l >= 0 making
    (h + l) divisible by n2; frontal slice k holds columns k*n2 .. (k+1)*n2 - 1
    of the padded matrix.

    Returns
    -------
    tensor : ndarray of shape (n1, n2, (h + l) // n2)
    pad : int
        Number of zero columns appended.
    """
    m = np.asarray(m)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    check_count(n2, "n2", 1)
    n1, h = m.shape
    if n1 < 1 or h < 1:
        raise ValueError(f"matrix must be nonempty, got shape {m.shape}")
    pad = (-h) % n2
    padded = np.pad(m, ((0, 0), (0, pad))) if pad else m
    n3 = (h + pad) // n2
    return padded.reshape(n1, n3, n2).transpose(0, 2, 1).copy(), pad


def tensor_to_matrix(a, h):
    """Concatenate frontal slices horizontally and keep the first h columns."""
    a = _as_tensor3(a)
    n1, n2, n3 = a.shape
    check_count(h, "h")
    if h > n2 * n3:
        raise ValueError(f"h={h} out of range for {n2 * n3} available columns")
    return a.transpose(0, 2, 1).reshape(n1, n2 * n3)[:, :h].copy()


def reshape_mode3(a, p, q):
    """Regroup a tensor into shape (n3, p, q) whose mode-1 unfolding is the mode-3 unfolding.

    p * q must equal n1 * n2; frontal slice c of the result holds columns
    c*p .. (c+1)*p - 1 of the mode-3 unfolding.  Returns a new C-contiguous array.
    """
    a = _as_tensor3(a)
    n1, n2, n3 = a.shape
    check_count(p, "p", 1)
    check_count(q, "q", 1)
    if p * q != n1 * n2:
        raise ValueError(f"p*q = {p * q} must equal n1*n2 = {n1 * n2}")
    # unfolding row i3 is a[:, :, i3] in column-major order: a reshape once modes 1, 2 swap
    return _reversed_axes(a.transpose(1, 0, 2).reshape(q, p, n3))


def _reversed_axes(a):
    """a.transpose(2, 1, 0) as a new C-contiguous array, a cache-sized block of axis 1 at a time."""
    out = np.empty(a.shape[::-1], a.dtype)
    step = max(1, BLOCK // max(1, a.shape[0] * a.shape[2]))
    for i in range(0, a.shape[1], step):
        out[:, i : i + step] = a[:, i : i + step].transpose(2, 1, 0)
    return out


def fold3_from_reshaped(t, dims):
    """Invert reshape_mode3 back to a tensor of shape dims = (n1, n2, n3).

    Returns a new C-contiguous array: reshape_mode3's moves, undone in reverse order.
    """
    t = _as_tensor3(t)
    n1, n2, n3 = dims
    if t.shape[0] != n3 or t.shape[1] * t.shape[2] != n1 * n2:
        raise ValueError(f"reshaped tensor {t.shape} does not match dims {dims}")
    return np.ascontiguousarray(_reversed_axes(t).reshape(n2, n1, n3).transpose(1, 0, 2))


def multi_rank(a, tol_rel=1e-10):
    """Numerical rank of every frequency slice.

    A singular value counts while it exceeds tol_rel, a real in [0, 1], times
    the largest singular value of its slice.  Mirrored slices share the rank
    of their conjugate partner.
    """
    check_real(tol_rel, "tol_rel", 0, 1)
    spec = dft_mode3(a)
    s = np.linalg.svd(spec.slices.transpose(2, 0, 1), compute_uv=False)
    # an all-zero (or empty) slice counts nothing: no value exceeds tol_rel * 0
    half = np.count_nonzero(s > tol_rel * s[:, :1], axis=1)
    return MultiRank.from_stored(half, spec.dims[2])


def _rank_array(values):
    """values as a 1-d integer array; ValueError on a non-integer or bool entry."""
    r = np.asarray(values)
    # a bool among Python ints converts to an int, so only the entries' types show it
    mixed = not isinstance(values, np.ndarray) and {bool, np.bool_} & set(map(type, values))
    if r.ndim != 1 or r.dtype.kind not in "iu" or mixed:
        raise ValueError(f"ranks must be integers, got {values}")
    return r


@dataclass(frozen=True)
class MultiRank:
    """Per-frequency-slice ranks of a tensor, symmetric under conjugate mirroring."""

    ranks: tuple

    def __post_init__(self):
        if len(self.ranks) < 1:
            raise ValueError("rank vector must have at least one entry")
        r = _rank_array(self.ranks)
        object.__setattr__(self, "ranks", tuple(r.tolist()))
        if (r < 0).any():
            raise ValueError(f"ranks must be nonnegative, got {self.ranks}")
        if (r[1:] != r[:0:-1]).any():  # r[i] == r[n3 - i]
            raise ValueError(f"rank vector {self.ranks} is not conjugate-symmetric")

    @classmethod
    def constant(cls, rank, n3):
        return cls((rank,) * n3)

    @classmethod
    def from_stored(cls, stored, n3):
        """Build the full vector from the n3 // 2 + 1 stored-slice ranks."""
        stored = _rank_array(stored)
        if len(stored) != half_count(n3):
            raise ValueError(f"expected {half_count(n3)} stored ranks, got {len(stored)}")
        return cls(np.concatenate([stored, stored[1 : n3 - len(stored) + 1][::-1]]))

    @property
    def n3(self):
        return len(self.ranks)

    @property
    def tubal(self):
        return max(self.ranks)

    @property
    def total(self):
        return sum(self.ranks)

    def stored(self):
        """Ranks of the stored (non-mirrored) frequency slices."""
        return self.ranks[: half_count(self.n3)]

    def __len__(self):
        return len(self.ranks)

    def __getitem__(self, k):
        return self.ranks[k]

    def __iter__(self):
        return iter(self.ranks)


@dataclass
class ObservationMask:
    """Boolean observation pattern over an (n1, n2, n3) tensor.

    pad_observed_zero records that some observed entries are synthetic zeros
    introduced by matrix-to-tensor padding rather than measurements.
    """

    observed: np.ndarray
    pad_observed_zero: bool = False

    def __post_init__(self):
        self.observed = np.asarray(self.observed, dtype=bool)
        if self.observed.ndim != 3:
            raise ValueError(f"mask must have 3 modes, got shape {self.observed.shape}")

    @property
    def dims(self):
        return self.observed.shape

    @property
    def count(self):
        return int(np.count_nonzero(self.observed))


def project(x, mask, values):
    """Replace the masked entries of x with the corresponding entries of values."""
    m = mask.observed if isinstance(mask, ObservationMask) else np.asarray(mask, bool)
    x = np.asarray(x)
    values = np.asarray(values)
    if x.shape != m.shape or values.shape != m.shape:
        raise ValueError(
            f"shape mismatch: x {x.shape}, mask {m.shape}, values {values.shape}"
        )
    return np.where(m, values, x)


def fro_norm(a):
    """Frobenius norm of an array of any shape, a complex one as its float pairs, summed by
    einsum in C order rather than by BLAS, so it does not depend on the BLAS thread count."""
    v = np.asarray(a).ravel()
    v = v.view(float) if v.dtype == complex else v.astype(float, copy=False)
    return float(np.sqrt(np.einsum("i,i->", v, v)))
