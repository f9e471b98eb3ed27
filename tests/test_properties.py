"""Property tests: the regroup and fold against their unfolding definitions, and
the inverse transform's conjugate-symmetry guard against its defining inequality."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tubal import (  # noqa: E402
    SpectralSymmetryError,
    fold3_from_reshaped,
    half_count,
    mode_fold,
    mode_unfold,
    pair_weights,
    reshape_matrix_to_tensor,
    reshape_mode3,
)
from tubal.core import _irfft_checked  # noqa: E402

dims = st.integers(1, 6)
depths = st.integers(1, 7)
seeds = st.integers(0, 2**32 - 1)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# ------------------------------------------------------------ regroup and fold


@given(dims, dims, depths, seeds)
@example(3, 4, 1, 0)
@example(3, 4, 2, 0)
@example(5, 2, 3, 0)
@example(4, 6, 6, 0)
def test_regroup_and_fold_match_their_unfolding_definitions(n1, n2, n3, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n1, n2, n3))
    for p in divisors(n1 * n2):
        q = n1 * n2 // p
        want, pad = reshape_matrix_to_tensor(mode_unfold(a, 3), p)
        assert pad == 0
        for source in (a, np.asfortranarray(a), a.transpose(1, 0, 2).copy().transpose(1, 0, 2)):
            t = reshape_mode3(source, p, q)
            assert np.array_equal(t, want)
            assert t.flags.c_contiguous and not np.shares_memory(t, source)
        back = fold3_from_reshaped(want, a.shape)
        assert np.array_equal(back, mode_fold(mode_unfold(want, 1), 3, a.shape))
        assert np.array_equal(back, a)
        u = rng.standard_normal((n3, p, q))
        assert np.array_equal(reshape_mode3(fold3_from_reshaped(u, a.shape), p, q), u)


# ------------------------------------------------------------ symmetry guard


def _real_spectrum(rng, n1, n2, n3):
    """Half spectrum of a real tensor: the DC and Nyquist slices have no imaginary part."""
    slices = np.fft.rfft(rng.standard_normal((n1, n2, n3)), axis=2)
    slices[:, :, 0] = slices[:, :, 0].real
    if n3 % 2 == 0:
        slices[:, :, -1] = slices[:, :, -1].real
    return slices


def _imaginary_and_total_mass(slices, n3):
    """sqrt(||Im dc||^2 + ||Im nyquist||^2) / sqrt(n3), and the full-spectrum mass."""
    self_conjugate = [0, n3 // 2] if n3 % 2 == 0 and n3 > 1 else [0]
    resid = np.sqrt(sum(np.sum(slices[:, :, k].imag ** 2) for k in self_conjugate) / n3)
    mirrored = np.conj(slices[:, :, 1 : n3 - half_count(n3) + 1])
    full = np.concatenate([slices, mirrored], axis=2)
    return resid, np.sqrt(np.sum(np.abs(full) ** 2) / n3)


@given(
    dims,
    dims,
    depths,
    seeds,
    st.sampled_from([1e-9, 1e-6, 1e-2]),
    st.sampled_from(["dc", "nyquist"]),
    st.sampled_from([True, False]),
    st.sampled_from([1 - 1e-6, 1 + 1e-6, 0.3, 3.0, 0.0]),
)
@example(2, 3, 4, 0, 1e-6, "nyquist", True, 1 + 1e-6)
@example(2, 3, 4, 0, 1e-6, "nyquist", True, 1 - 1e-6)
@example(2, 3, 5, 0, 1e-9, "dc", False, 1 + 1e-6)
@example(2, 3, 5, 0, 1e-9, "dc", False, 1 - 1e-6)
@example(1, 1, 1, 0, 1e-6, "dc", False, 1 - 1e-6)
def test_symmetry_guard_raises_iff_imaginary_mass_exceeds_tol_of_total(
    n1, n2, n3, seed, tol, where, zero_dc, scale
):
    """Imaginary mass s*E (||E|| = 1) in a self-conjugate slice, with s at scale
    times the threshold s* = tol * sqrt(M / (1 - tol^2)), where M is the
    weighted mass of the real part; scale 1 -/+ 1e-6 lands just either side."""
    rng = np.random.default_rng(seed)
    slices = _real_spectrum(rng, n1, n2, n3)
    if zero_dc:
        slices[:, :, 0] = 0.0
    k = n3 // 2 if where == "nyquist" and n3 % 2 == 0 else 0
    w = pair_weights(n3)
    mass = float(np.einsum("ijk,ijk,k->", slices, np.conj(slices), w).real)
    e = rng.standard_normal((n1, n2))
    s = scale * tol * np.sqrt(mass / (1 - tol**2))
    slices[:, :, k] += 1j * s * e / np.linalg.norm(e)
    resid, total = _imaginary_and_total_mass(slices, n3)
    if scale in (1 - 1e-6, 1 + 1e-6) and mass > 0:
        assert (resid > tol * total) == (scale > 1)
    if resid > tol * total:
        with pytest.raises(SpectralSymmetryError):
            _irfft_checked(slices, n3, tol=tol)
    else:
        got = _irfft_checked(slices, n3, tol=tol)
        assert np.array_equal(got, np.fft.irfft(slices, n=n3, axis=2))
