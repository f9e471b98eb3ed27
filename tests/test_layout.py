"""Storage layout of the half spectra: the library stores them slice-major, so that
each frequency slice is one contiguous matrix, hands back spatial tensors in C
order, and gives the same numbers for a spectrum a caller lays out any other way."""

import numpy as np
import pytest

from tubal import (
    BlockFactors,
    MultiRank,
    SpectralTensor,
    compose,
    compose_spectral,
    dft_mode3,
    idft_mode3,
    init_factors,
    update_left,
    update_right,
)
from tubal.core import _half_weighted_sq, _irfft_checked


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def close(got, want):
    return np.abs(got - want).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(want).max(initial=0.0))


def slice_major(slices):
    return np.moveaxis(slices, 2, 0).flags.c_contiguous


def mixed_rank_factors(n_rows, n_cols, n3, seed):
    """Factors whose equal-rank slices are not one contiguous run (ranks 2, 1, 2, ...)."""
    rng = np.random.default_rng(seed)
    stored = [2 - k % 2 for k in range(n3 // 2 + 1)]
    left = [rng.standard_normal((n_rows, r)) + 1j * rng.standard_normal((n_rows, r)) for r in stored]
    right = [rng.standard_normal((r, n_cols)) + 1j * rng.standard_normal((r, n_cols)) for r in stored]
    return BlockFactors((n_rows, n_cols, n3), MultiRank.from_stored(stored, n3), left, right)


@pytest.mark.parametrize("n3", [1, 2, 5, 6])
def test_forward_transform_stores_each_slice_contiguously(n3):
    a = rand((4, 3, n3), n3)
    spec = dft_mode3(a)
    assert slice_major(spec.slices)
    assert all(spec.slices[:, :, k].flags.c_contiguous for k in range(spec.n_stored))
    assert np.array_equal(spec.slices, np.fft.rfft(a, axis=2))


@pytest.mark.parametrize("n3", [1, 2, 5, 6])
@pytest.mark.parametrize("mixed", [False, True])
def test_slice_products_are_stored_slice_major(n3, mixed):
    f = mixed_rank_factors(5, 4, n3, n3) if mixed else init_factors(5, 4, n3, 2, seed=n3)
    prods = compose_spectral(f)
    assert prods.shape == (5, 4, f.n_stored) and slice_major(prods)
    for k in range(f.n_stored):
        assert close(prods[:, :, k], f.left[k] @ f.right[k])


@pytest.mark.parametrize("dims", [(5, 4), (256, 128)], ids=["below BLOCK", "at BLOCK"])
def test_slice_products_are_slice_major_on_both_sides_of_the_block_line(dims):
    # a 256 x 128 slice product holds core.BLOCK entries: _times's column-major block form
    f = mixed_rank_factors(*dims, 4, 3)
    prods = compose_spectral(f)
    assert prods.shape == (*dims, f.n_stored) and slice_major(prods)
    for k in range(f.n_stored):
        assert close(prods[:, :, k], f.left[k] @ f.right[k])


@pytest.mark.parametrize("n3", [2, 5, 6])
def test_inverse_transform_returns_c_order(n3):
    a = rand((4, 3, n3), 10 + n3)
    spec = dft_mode3(a)
    got = _irfft_checked(spec.slices, n3)
    assert got.flags.c_contiguous
    assert np.array_equal(got, np.fft.irfft(np.ascontiguousarray(spec.slices), n=n3, axis=2))
    assert idft_mode3(spec).flags.c_contiguous
    assert compose(init_factors(4, 3, n3, 2, seed=n3)).flags.c_contiguous


@pytest.mark.parametrize("n3", [1, 2, 5, 6])
@pytest.mark.parametrize("mixed", [False, True])
def test_updates_on_a_caller_laid_out_spectrum_match_the_slice_major_result(n3, mixed):
    f = mixed_rank_factors(6, 5, n3, n3) if mixed else init_factors(6, 5, n3, 2, seed=n3)
    spec = dft_mode3(rand((6, 5, n3), 20 + n3))
    layouts = {
        "C": np.ascontiguousarray(spec.slices),
        "F": np.asfortranarray(spec.slices),
        "strided": np.repeat(spec.slices, 2, axis=1)[:, ::2],
    }
    want_left = update_left(f, spec)
    want_right = update_right(f, spec)
    for slices in layouts.values():
        other = SpectralTensor(spec.dims, slices)
        for got, want in ((update_left(f, other).left, want_left.left),
                          (update_right(f, other).right, want_right.right)):
            assert all(close(g, w) for g, w in zip(got, want, strict=True))


@pytest.mark.parametrize("n3", [1, 2, 5, 6])
def test_half_spectrum_mass_agrees_across_layouts(n3):
    spec = dft_mode3(rand((5, 4, n3), 30 + n3)).slices
    layouts = {
        "slice-major": spec,
        "C": np.ascontiguousarray(spec),
        "F": np.asfortranarray(spec),
        "strided": np.repeat(spec, 2, axis=1)[:, ::2],
    }
    want = float(np.sum(np.abs(np.fft.fft(np.fft.irfft(spec, n=n3, axis=2), axis=2)) ** 2))
    for name, slices in layouts.items():
        assert abs(_half_weighted_sq(slices, n3) - want) <= 1e-12 * want, name
