"""Transform-domain algebra: products, reshapes, unfoldings, ranks."""

import numpy as np
import pytest

from tubal import core
from tubal import (
    MultiRank,
    ObservationMask,
    SpectralSymmetryError,
    bcirc,
    dft_mode3,
    fold3_from_reshaped,
    fro_norm,
    half_count,
    idft_mode3,
    mode_fold,
    mode_product,
    mode_unfold,
    multi_rank,
    pair_weights,
    project,
    reshape_matrix_to_tensor,
    reshape_mode3,
    tensor_to_matrix,
    tprod,
    tprod_reference,
    tubal_rank,
)
from tubal.core import _half_weighted_sq


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


# ---------------------------------------------------------------- transforms


def test_half_count():
    assert [half_count(n) for n in (1, 2, 3, 4, 5, 8)] == [1, 2, 2, 3, 3, 5]


def test_pair_weights():
    assert pair_weights(4).tolist() == [1, 2, 1]
    assert pair_weights(5).tolist() == [1, 2, 2]
    for n3 in range(1, 9):
        assert pair_weights(n3).sum() == n3


def test_dft_matches_dense_dft_matrix_oracle():
    a = rand((3, 2, 5), 0)
    n3 = 5
    f = np.exp(-2j * np.pi * np.outer(np.arange(n3), np.arange(n3)) / n3)
    spec = dft_mode3(a)
    full = np.einsum("ijk,lk->ijl", a, f)
    for k in range(half_count(n3)):
        assert np.allclose(spec.slices[:, :, k], full[:, :, k], atol=1e-12)


def test_dft_round_trip():
    for seed, shape in enumerate([(3, 3, 5), (2, 4, 1), (5, 2, 6), (1, 1, 7)]):
        a = rand(shape, seed)
        b = idft_mode3(dft_mode3(a))
        assert np.linalg.norm(b - a) <= 1e-12 * max(np.linalg.norm(a), 1.0)


def test_dft_two_point_inverse_oracle():
    # n3 = 2: slices are (a+b, a-b); inverse is the mean/half-difference pair
    a = rand((2, 2, 2), 3)
    spec = dft_mode3(a)
    assert np.allclose(spec.slices[:, :, 0], a[:, :, 0] + a[:, :, 1])
    assert np.allclose(spec.slices[:, :, 1], a[:, :, 0] - a[:, :, 1])
    assert np.allclose(idft_mode3(spec), a)


def test_materialized_spectrum_is_conjugate_symmetric():
    a = rand((4, 3, 6), 1)
    full = dft_mode3(a).full()
    n3 = 6
    for k in range(1, n3):
        assert np.array_equal(full[:, :, (n3 - k) % n3], np.conj(full[:, :, k]))


def test_idft_rejects_asymmetric_spectrum():
    spec = dft_mode3(rand((3, 3, 4), 2))
    spec.slices[:, :, 0] += 0.5j  # the zero-frequency slice must stay real
    with pytest.raises(SpectralSymmetryError):
        idft_mode3(spec)


def test_parseval_with_pair_weights():
    for seed in range(10):
        a = rand((4, 5, seed % 5 + 2), seed)
        n3 = a.shape[2]
        spec = dft_mode3(a)
        w = pair_weights(n3)
        mass = sum(
            w[k] * np.linalg.norm(spec.slices[:, :, k]) ** 2 for k in range(half_count(n3))
        )
        assert np.isclose(fro_norm(a) ** 2, mass / n3, rtol=1e-10)


@pytest.mark.parametrize("block", [1, 7, 10**9])
def test_blocked_half_spectrum_mass_matches_the_unblocked_sum(monkeypatch, block):
    monkeypatch.setattr(core, "BLOCK", block)
    for seed, n3 in enumerate((1, 2, 5, 6)):
        a, b = rand((4, 3, n3), seed), rand((4, 3, n3), seed + 10)
        slice_major, c_ordered = dft_mode3(a).slices, np.fft.rfft(b, axis=2)
        pairs = [(slice_major, None), (c_ordered, None), (slice_major, c_ordered), (c_ordered, slice_major)]
        for s, m in pairs:
            d = s if m is None else s - m
            want = np.einsum("ijk,ijk->k", d, d.conj()).real @ pair_weights(n3)
            got = _half_weighted_sq(s, n3) if m is None else _half_weighted_sq(s, n3, m)
            assert abs(got - want) <= 1e-13 * want, (n3, m is None)


# ------------------------------------------------------------------ products


def test_tube_product_is_circular_convolution():
    a = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3)
    e = np.array([1.0, 0.0, 0.0]).reshape(1, 1, 3)
    assert np.allclose(tprod_reference(a, e).ravel(), [1, 2, 3])
    x = np.array([2.0, 5.0]).reshape(1, 1, 2)
    y = np.array([3.0, 7.0]).reshape(1, 1, 2)
    a1, a2 = 2.0, 5.0
    b1, b2 = 3.0, 7.0
    assert np.allclose(tprod_reference(x, y).ravel(), [a1 * b1 + a2 * b2, a2 * b1 + a1 * b2])


def test_product_with_identity_tensor():
    a = rand((4, 3, 5), 4)
    ident = np.zeros((3, 3, 5))
    ident[:, :, 0] = np.eye(3)
    assert np.allclose(tprod(a, ident), a, atol=1e-12)


def test_product_single_slice_is_matrix_product():
    a, b = rand((4, 3, 1), 5), rand((3, 2, 1), 6)
    assert np.allclose(tprod(a, b)[:, :, 0], a[:, :, 0] @ b[:, :, 0], atol=1e-12)


def test_product_matches_block_circulant_oracle():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n1, r, n2, n3 = rng.integers(1, 7, size=4)
        a, b = rng.standard_normal((n1, r, n3)), rng.standard_normal((r, n2, n3))
        fast, slow = tprod(a, b), tprod_reference(a, b)
        assert np.linalg.norm(fast - slow) <= 1e-10 * max(np.linalg.norm(slow), 1.0)


def test_product_dimension_mismatch():
    with pytest.raises(ValueError):
        tprod(rand((2, 3, 4), 0), rand((2, 2, 4), 1))
    with pytest.raises(ValueError):
        tprod(rand((2, 3, 4), 0), rand((3, 2, 5), 1))


def test_bcirc_layout():
    tube = np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3)
    assert np.array_equal(bcirc(tube), [[1, 3, 2], [2, 1, 3], [3, 2, 1]])
    single = rand((3, 2, 1), 7)
    assert np.array_equal(bcirc(single), single[:, :, 0])
    two = rand((2, 1, 2), 8)
    a1, a2 = two[:, :, 0], two[:, :, 1]
    assert np.array_equal(bcirc(two), np.block([[a1, a2], [a2, a1]]))


# ---------------------------------------------------------------- unfoldings


def unfold_oracle(a, s):
    """Column-major index-formula unfolding, by brute-force enumeration."""
    dims = a.shape
    others = [d for d in range(3) if d != s - 1]
    out = np.zeros((dims[s - 1], int(np.prod([dims[d] for d in others]))))
    for i in range(dims[0]):
        for j in range(dims[1]):
            for k in range(dims[2]):
                idx = (i, j, k)
                col, stride = 0, 1
                for d in others:
                    col += idx[d] * stride
                    stride *= dims[d]
                out[idx[s - 1], col] = a[i, j, k]
    return out


def test_unfold_matches_index_formula_oracle():
    a = rand((2, 3, 4), 9)
    for s in (1, 2, 3):
        assert np.array_equal(mode_unfold(a, s), unfold_oracle(a, s))


def test_unfold_degenerate_cases():
    a = rand((2, 2, 1), 10)
    assert np.array_equal(mode_unfold(a, 1), a[:, :, 0])
    tube = rand((1, 1, 4), 11)
    assert np.array_equal(mode_unfold(tube, 3), tube.ravel()[:, None])


def test_unfold_fold_round_trip():
    a = rand((3, 4, 5), 12)
    for s in (1, 2, 3):
        assert np.array_equal(mode_fold(mode_unfold(a, s), s, a.shape), a)


def test_unfold_invalid_mode():
    with pytest.raises(ValueError):
        mode_unfold(rand((2, 2, 2), 13), 4)


def test_mode_product_identity_and_scalar():
    a = rand((2, 3, 4), 14)
    assert np.allclose(mode_product(a, np.eye(3), 2), a)
    one = np.full((1, 1, 1), 3.0)
    assert np.allclose(mode_product(one, np.array([[2.0]]), 1), [[[6.0]]])


def test_mode_product_matches_triple_loop_oracle():
    a, b = rand((2, 3, 4), 15), rand((5, 4), 16)
    got = mode_product(a, b, 3)
    want = np.zeros((2, 3, 5))
    for i in range(2):
        for j in range(3):
            for m in range(5):
                want[i, j, m] = sum(a[i, j, k] * b[m, k] for k in range(4))
    assert np.allclose(got, want, atol=1e-12)


def test_mode_product_composition():
    a = rand((3, 2, 4), 17)
    b1, b2 = rand((5, 4), 18), rand((6, 5), 19)
    lhs = mode_product(mode_product(a, b1, 3), b2, 3)
    rhs = mode_product(a, b2 @ b1, 3)
    assert np.allclose(lhs, rhs, atol=1e-12)


# ------------------------------------------------------------------ reshapes


def test_matrix_reshape_blocks_and_padding():
    m = np.arange(12.0).reshape(2, 6)
    x, pad = reshape_matrix_to_tensor(m, 3)
    assert pad == 0 and x.shape == (2, 3, 2)
    assert np.array_equal(x[:, :, 0], m[:, 0:3])
    assert np.array_equal(x[:, :, 1], m[:, 3:6])

    m5 = np.arange(10.0).reshape(2, 5)
    x, pad = reshape_matrix_to_tensor(m5, 3)
    assert pad == 1 and x.shape == (2, 3, 2)
    assert np.array_equal(x[:, 2, 1], [0.0, 0.0])


def test_matrix_reshape_round_trip():
    for seed, (h, n2) in enumerate([(12, 4), (10, 3), (7, 7)]):
        m = rand((4, h), seed + 20)
        x, _ = reshape_matrix_to_tensor(m, n2)
        assert np.array_equal(tensor_to_matrix(x, h), m)


def test_matrix_reshape_rejects_empty():
    with pytest.raises(ValueError):
        reshape_matrix_to_tensor(np.zeros((0, 4)), 2)
    with pytest.raises(ValueError):
        reshape_matrix_to_tensor(np.zeros((4, 0)), 2)


def test_tensor_to_matrix_width_check():
    x = rand((2, 3, 2), 23)
    with pytest.raises(ValueError):
        tensor_to_matrix(x, 7)


def test_regroup_preserves_mode3_unfolding():
    a = rand((2, 3, 4), 24)
    for p, q in [(6, 1), (3, 2), (2, 3), (1, 6)]:
        xt = reshape_mode3(a, p, q)
        assert xt.shape == (4, p, q)
        assert np.array_equal(mode_unfold(xt, 1), mode_unfold(a, 3))
        assert np.array_equal(fold3_from_reshaped(xt, a.shape), a)


def test_regroup_single_slice_is_mode3_unfolding():
    a = rand((2, 3, 4), 25)
    xt = reshape_mode3(a, 6, 1)
    assert np.array_equal(xt[:, :, 0], mode_unfold(a, 3))


def test_regroup_native_geometry_is_a_transpose():
    a = rand((3, 4, 5), 26)
    assert np.array_equal(reshape_mode3(a, 3, 4), np.transpose(a, (2, 0, 1)))


def test_regroup_rejects_bad_geometry():
    with pytest.raises(ValueError):
        reshape_mode3(rand((2, 3, 4), 27), 4, 2)


# --------------------------------------------------------------------- ranks


def test_multi_rank_zero_and_identity():
    assert multi_rank(np.zeros((3, 4, 5))).ranks == (0,) * 5
    ident = np.zeros((3, 3, 4))
    ident[:, :, 0] = np.eye(3)
    assert multi_rank(ident).ranks == (3, 3, 3, 3)


def test_multi_rank_of_gaussian_product():
    a, b = rand((6, 2, 4), 28), rand((2, 5, 4), 29)
    mr = multi_rank(tprod(a, b))
    assert mr.tubal == 2
    assert mr.ranks == (2, 2, 2, 2)
    assert tubal_rank(tprod(a, b)) == 2


def test_multi_rank_is_conjugate_symmetric():
    for seed in range(5):
        mr = multi_rank(rand((4, 4, 6), seed + 30))
        r = mr.ranks
        assert all(r[k] == r[(6 - k) % 6] for k in range(6))


def test_multi_rank_constructors_validate_symmetry():
    assert MultiRank.constant(2, 4).ranks == (2, 2, 2, 2)
    assert MultiRank.from_stored([3, 2, 1], 4).ranks == (3, 2, 1, 2)
    with pytest.raises(ValueError):
        MultiRank((1, 2, 3, 4))


def test_multi_rank_rejects_non_integer_and_bool_ranks():
    for bad in ((2.7, 1.5, 1.5), (True, 1, 1), (2, np.True_), np.array([2.0, 1.0, 1.0])):
        with pytest.raises(ValueError, match="ranks must be integers"):
            MultiRank(bad)
    for bad in ([2.5, 1.2], [True, 1], np.array([True, False])):
        with pytest.raises(ValueError, match="ranks must be integers"):
            MultiRank.from_stored(bad, 2)
    with pytest.raises(ValueError, match="ranks must be integers"):
        MultiRank.constant(2.7, 3)
    assert MultiRank((np.int64(2), 1, 1)).ranks == (2, 1, 1)
    assert MultiRank.from_stored(np.array([3, 2, 1], np.int32), 5).ranks == (3, 2, 1, 1, 2)
    assert all(type(v) is int for v in MultiRank.from_stored(np.array([3, 2]), 2))


# ----------------------------------------------------------------- utilities


def test_fro_norm_all_ones():
    assert np.isclose(fro_norm(np.ones((2, 2, 2))), np.sqrt(8.0))


def test_project_extremes():
    x, m = rand((3, 3, 2), 31), rand((3, 3, 2), 32)
    every = ObservationMask(np.ones((3, 3, 2), bool))
    none = ObservationMask(np.zeros((3, 3, 2), bool))
    assert np.array_equal(project(x, every, m), m)
    assert np.array_equal(project(x, none, m), x)


def test_project_mixes_by_mask():
    x, m = np.zeros((2, 2, 1)), np.ones((2, 2, 1))
    mask = ObservationMask(np.array([[True, False], [False, True]])[:, :, None])
    out = project(x, mask, m)
    assert out[0, 0, 0] == 1.0 and out[0, 1, 0] == 0.0


def test_mask_requires_three_modes():
    with pytest.raises(ValueError):
        ObservationMask(np.ones((3, 3), bool))
