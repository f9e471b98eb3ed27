"""Property tests: the regroup and fold against their unfolding definitions, the
inverse transform's conjugate-symmetry guard against its defining inequality, the
t-product and multi-rank against per-slice definitions, and the rank edits'
bookkeeping."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tubal import (  # noqa: E402
    MultiRank,
    RankDecreaseConfig,
    SpectralSymmetryError,
    fold3_from_reshaped,
    half_count,
    init_factors,
    mode_fold,
    mode_unfold,
    multi_rank,
    pair_weights,
    rank_decrease,
    reshape_matrix_to_tensor,
    reshape_mode3,
    tprod,
    tprod_reference,
)
from tubal.core import _irfft_checked  # noqa: E402
from tubal.factors import grow_ranks, truncate_ranks  # noqa: E402

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


# ------------------------------------------------------- t-product and ranks


@given(dims, dims, dims, depths, seeds)
@example(3, 2, 4, 1, 0)
@example(3, 2, 4, 2, 0)
@example(2, 3, 2, 5, 0)
@example(2, 3, 2, 6, 0)
def test_tprod_matches_the_block_circulant_reference(n1, r, n2, n3, seed):
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((n1, r, n3)), rng.standard_normal((r, n2, n3))
    want = tprod_reference(a, b)
    assert want.shape == (n1, n2, n3)
    scale = np.abs(a).sum() * np.abs(b).sum()  # bounds every entry of the product
    assert np.allclose(tprod(a, b), want, rtol=0.0, atol=1e-13 * scale)


@given(dims, dims, depths, st.integers(0, 6), seeds)
@example(3, 4, 1, 0, 0)
@example(3, 4, 2, 0, 0)
@example(4, 4, 1, 2, 0)
@example(4, 4, 2, 2, 0)
@example(5, 3, 7, 2, 0)
@example(5, 3, 6, 3, 0)
def test_multi_rank_counts_like_a_per_slice_svd(n1, n2, n3, r, seed):
    """r = 0 gives the zero tensor."""
    rng = np.random.default_rng(seed)
    a = tprod(rng.standard_normal((n1, r, n3)), rng.standard_normal((r, n2, n3)))
    spectrum = np.fft.rfft(a, axis=2)
    want = []
    for k in range(half_count(n3)):
        s = np.linalg.svd(spectrum[:, :, k], compute_uv=False)
        want.append(int(np.count_nonzero(s > 1e-10 * s[0])) if s[0] > 0 else 0)
    got = multi_rank(a)
    assert got.stored() == tuple(want) and got.n3 == n3
    assert all(v <= r for v in want)


def _random_factors(rng, n1, n2, n3):
    stored = rng.integers(0, min(n1, n2) + 1, half_count(n3))
    return init_factors(n1, n2, n3, MultiRank.from_stored(stored, n3), rng)


def _check_edit(before, after, untouched):
    """Stored ranks equal the factor shapes, and the untouched slices are unchanged."""
    assert after.dims == before.dims and after.ranks.n3 == before.ranks.n3
    assert after.ranks.stored() == tuple(p.shape[1] for p in after.left)
    assert after.ranks.stored() == tuple(q.shape[0] for q in after.right)
    for k in untouched:
        assert np.array_equal(after.left[k], before.left[k])
        assert np.array_equal(after.right[k], before.right[k])


@given(dims, dims, depths, seeds)
@example(3, 4, 1, 0)
@example(3, 4, 2, 0)
@example(4, 4, 5, 0)
def test_truncate_ranks_keeps_leading_parts_and_matching_shapes(n1, n2, n3, seed):
    rng = np.random.default_rng(seed)
    f = _random_factors(rng, n1, n2, n3)
    target = [int(rng.integers(0, r + 1)) for r in f.ranks.stored()]
    out = truncate_ranks(f, MultiRank.from_stored(target, n3))
    assert out.ranks.stored() == tuple(target)
    _check_edit(f, out, [k for k, r in enumerate(f.ranks.stored()) if target[k] == r])
    for k, r in enumerate(target):
        assert np.array_equal(out.left[k], f.left[k][:, :r])
        assert np.array_equal(out.right[k], f.right[k][:r, :])


@given(dims, dims, depths, seeds)
@example(3, 4, 1, 0)
@example(3, 4, 2, 0)
@example(4, 4, 6, 0)
def test_grow_ranks_raises_only_slices_below_their_ceiling(n1, n2, n3, seed):
    rng = np.random.default_rng(seed)
    f = _random_factors(rng, n1, n2, n3)
    ceiling = [min(r + int(rng.integers(0, 2)), min(n1, n2)) for r in f.ranks.stored()]
    shape = (n1, n2, f.n_stored)
    residual = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out, grown = grow_ranks(f, residual, ceiling)
    below = [k for k, r in enumerate(f.ranks.stored()) if r < ceiling[k]]
    assert grown == bool(below)
    assert out.ranks.stored() == tuple(min(r + 1, c) for r, c in zip(f.ranks.stored(), ceiling))
    _check_edit(f, out, [k for k in range(f.n_stored) if k not in below])
    for k in below:
        r = f.ranks[k]
        assert np.array_equal(out.left[k][:, :r], f.left[k])
        assert np.array_equal(out.right[k][:r, :], f.right[k])


@given(dims, dims, depths, seeds, st.sampled_from([1.5, 3.0, 10.0]))
@example(3, 4, 1, 0, 1.5)
@example(3, 4, 2, 0, 1.5)
@example(5, 5, 7, 0, 1.5)
def test_rank_decrease_cuts_to_matching_shapes_and_leaves_other_slices(n1, n2, n3, seed, tau):
    rng = np.random.default_rng(seed)
    f = _random_factors(rng, n1, n2, n3)
    out, ranks, changed = rank_decrease(f, RankDecreaseConfig(tau=tau))
    assert ranks == out.ranks
    assert changed == (ranks != f.ranks)
    assert all(1 <= new <= old or new == old for new, old in zip(ranks, f.ranks))
    _check_edit(f, out, [k for k in range(f.n_stored) if ranks[k] == f.ranks[k]])
