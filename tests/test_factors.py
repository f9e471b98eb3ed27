"""Per-frequency factor pairs: initialization, least-squares updates, truncation."""

import warnings

import numpy as np
import pytest

from tubal import (
    BlockFactors,
    MultiRank,
    RankDecreaseConfig,
    as_multirank,
    compose,
    compose_spectral,
    dft_mode3,
    half_count,
    init_factors,
    multi_rank,
    pair_weights,
    pinv,
    rank_decrease,
    tprod,
    update_left,
    update_right,
)
import tubal.factors
from tubal.core import BLOCK
from tubal.factors import GRAM_COND, _gram_inv, _h, _h_times, _times, can_interpolate, grow_ranks
from tubal.factors import slice_solves


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def factors_of(a, b):
    """Exact factor pair built from the spectra of spatial tensors a, b."""
    sa, sb = dft_mode3(a), dft_mode3(b)
    n3 = a.shape[2]
    ranks = MultiRank.constant(a.shape[1], n3)
    left = [sa.slices[:, :, k].copy() for k in range(half_count(n3))]
    right = [sb.slices[:, :, k].copy() for k in range(half_count(n3))]
    return BlockFactors((a.shape[0], b.shape[1], n3), ranks, left, right)


# ------------------------------------------------------------ initialization


def test_init_is_deterministic():
    f1 = init_factors(5, 4, 3, 2, seed=11)
    f2 = init_factors(5, 4, 3, 2, seed=11)
    assert all(np.array_equal(a, b) for a, b in zip(f1.left, f2.left))
    assert all(np.array_equal(a, b) for a, b in zip(f1.right, f2.right))
    f3 = init_factors(5, 4, 3, 2, seed=12)
    assert not np.array_equal(f1.left[0], f3.left[0])


def test_init_zero_ranks_compose_to_zero():
    f = init_factors(4, 3, 4, 0, seed=0)
    assert np.array_equal(compose(f), np.zeros((4, 3, 4)))


def test_init_full_rank_single_slice():
    f = init_factors(5, 5, 1, 5, seed=3)
    s = np.linalg.svd(compose(f)[:, :, 0], compute_uv=False)
    assert s.min() > 1e-10 * s.max()


def test_init_respects_per_slice_ranks():
    f = init_factors(6, 5, 4, [3, 2, 1, 2], seed=4)
    assert [m.shape[1] for m in f.left] == [3, 2, 1]
    assert f.ranks.ranks == (3, 2, 1, 2)


def test_init_rejects_oversized_rank():
    with pytest.raises(ValueError):
        init_factors(3, 4, 2, 5, seed=0)


def test_init_takes_a_generator_or_a_count_as_seed():
    for seed in (True, -1, 2.0, "1"):
        with pytest.raises(ValueError, match=f"seed must be a nonnegative integer, got {seed}"):
            init_factors(4, 4, 3, 2, seed=seed)
    drawn = init_factors(4, 4, 3, 2, seed=np.random.default_rng(5))
    assert np.array_equal(drawn.p, init_factors(4, 4, 3, 2, seed=5).p)


def test_as_multirank_forms():
    assert as_multirank(3, 4).ranks == (3, 3, 3, 3)
    assert as_multirank([2, 1, 1, 1], 4).ranks == (2, 1, 1, 1)
    mr = MultiRank.constant(2, 5)
    assert as_multirank(mr, 5) is mr


# -------------------------------------------------------------- least squares


def test_factor_pairs_reject_mismatched_shapes():
    f = init_factors(5, 4, 4, 2, seed=6)
    with pytest.raises(ValueError, match="rank vector length 3 != n3 4"):
        BlockFactors(f.dims, MultiRank.constant(2, 3), f.left, f.right)
    with pytest.raises(ValueError, match="must cover every stored slice"):
        BlockFactors(f.dims, f.ranks, f.left[:2], f.right[:2])
    with pytest.raises(ValueError, match="rank-2 slice 0 has factors of shapes"):
        BlockFactors(f.dims, f.ranks, [a.T for a in f.left], f.right)
    x = dft_mode3(rand((5, 4, 3), 7))
    for update in (update_left, update_right):
        with pytest.raises(ValueError, match="data dims"):
            update(f, x)


def test_update_left_orthonormal_rows_shortcut():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
    f = init_factors(5, 4, 1, 2, seed=6)
    f = BlockFactors(f.dims, f.ranks, f.left, [q.conj().T])
    x = dft_mode3(rand((5, 4, 1), 7))
    new = update_left(f, x)
    assert np.allclose(new.left[0], x.slices[:, :, 0] @ q, atol=1e-10)


def test_update_right_orthonormal_columns_shortcut():
    rng = np.random.default_rng(8)
    p, _ = np.linalg.qr(rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2)))
    f = init_factors(5, 4, 1, 2, seed=9)
    f = BlockFactors(f.dims, f.ranks, [p], f.right)
    x = dft_mode3(rand((5, 4, 1), 10))
    new = update_right(f, x)
    assert np.allclose(new.right[0], p.conj().T @ x.slices[:, :, 0], atol=1e-10)


def test_update_fixed_point_on_exact_factorization():
    a, b = rand((5, 2, 4), 11), rand((2, 6, 4), 12)
    f = factors_of(a, b)
    x = dft_mode3(tprod(a, b))
    f2 = update_right(update_left(f, x), x)
    prod = compose(f2)
    assert np.linalg.norm(prod - tprod(a, b)) <= 1e-10 * np.linalg.norm(prod)


def test_updates_match_dense_least_squares_oracle():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        x = dft_mode3(rng.standard_normal((4, 3, 2)))
        f = init_factors(4, 3, 2, 2, seed=seed)
        fl = update_left(f, x)
        for k in range(f.n_stored):
            want = x.slices[:, :, k] @ np.linalg.pinv(f.right[k])
            assert np.allclose(fl.left[k], want, atol=1e-8)
        fr = update_right(fl, x)
        for k in range(f.n_stored):
            want = np.linalg.pinv(fl.left[k]) @ x.slices[:, :, k]
            assert np.allclose(fr.right[k], want, atol=1e-8)


def test_update_pair_never_increases_slice_objective():
    rng = np.random.default_rng(13)
    for _ in range(10):
        n3 = int(rng.integers(1, 6))
        x = rng.standard_normal((5, 4, n3))
        spec = dft_mode3(x)
        f = init_factors(5, 4, n3, 2, seed=int(rng.integers(1 << 30)))
        w = pair_weights(n3)

        def obj(fac):
            prod = compose_spectral(fac)
            return sum(
                w[k] * np.linalg.norm(prod[:, :, k] - spec.slices[:, :, k]) ** 2
                for k in range(fac.n_stored)
            )

        before = obj(f)
        f = update_left(f, spec)
        mid = obj(f)
        f = update_right(f, spec)
        after = obj(f)
        assert before >= mid - 1e-9 and mid >= after - 1e-9


def test_slice_solve_count_per_update():
    for n3 in (1, 2, 5, 8):
        f = init_factors(6, 5, n3, 2, seed=n3)
        x = dft_mode3(rand((6, 5, n3), n3))
        slice_solves.reset()
        update_left(f, x)
        assert slice_solves.count == half_count(n3)
        slice_solves.reset()
        update_right(f, x)
        assert slice_solves.count == half_count(n3)


# ---------------------------------------------------------------- composition


def test_compose_zero_factors():
    f = init_factors(3, 4, 5, 2, seed=14)
    zeroed = BlockFactors(
        f.dims, f.ranks, [np.zeros_like(m) for m in f.left], [m.copy() for m in f.right]
    )
    assert np.array_equal(compose(zeroed), np.zeros((3, 4, 5)))


def test_compose_equals_spatial_product():
    a, b = rand((4, 2, 5), 15), rand((2, 3, 5), 16)
    prod = compose(factors_of(a, b))
    want = tprod(a, b)
    assert np.linalg.norm(prod - want) <= 1e-10 * np.linalg.norm(want)


def test_compose_single_slice_is_matrix_product():
    a, b = rand((4, 2, 1), 17), rand((2, 3, 1), 18)
    assert np.allclose(compose(factors_of(a, b))[:, :, 0], a[:, :, 0] @ b[:, :, 0])


def test_compose_half_storage_matches_full_materialization():
    a, b = rand((4, 2, 6), 19), rand((2, 5, 6), 20)
    f = factors_of(a, b)
    sa, sb = dft_mode3(a).full(), dft_mode3(b).full()
    full = np.einsum("irk,rjk->ijk", sa, sb)
    explicit = np.fft.ifft(full, axis=2).real
    assert np.linalg.norm(compose(f) - explicit) <= 1e-12 * np.linalg.norm(explicit)


# ------------------------------------------------------------- pseudo-inverse


def test_pinv_trivial_cases():
    assert np.array_equal(pinv(np.eye(3)), np.eye(3))
    assert np.array_equal(pinv(np.zeros((2, 3))), np.zeros((3, 2)))


def test_pinv_full_column_rank_left_inverse():
    m = rand((4, 2), 21) + 1j * rand((4, 2), 22)
    assert np.allclose(pinv(m) @ m, np.eye(2), atol=1e-10)


def test_pinv_penrose_identities():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        if seed % 2:
            m[:, 2] = m[:, 0]  # force rank deficiency
        g = pinv(m)
        assert np.allclose(m @ g @ m, m, atol=1e-8)
        assert np.allclose(g @ m @ g, g, atol=1e-8)
        assert np.allclose((m @ g).conj().T, m @ g, atol=1e-8)
        assert np.allclose((g @ m).conj().T, g @ m, atol=1e-8)


def test_pinv_stack_cutoff_follows_one_matrix():
    # 257 * eps would drop a 3e-15 singular value that 2 * eps keeps
    rng = np.random.default_rng(40)
    stack = rng.standard_normal((257, 2, 2)) + 1j * rng.standard_normal((257, 2, 2))
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    v, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    stack[7] = u @ np.diag([1.0, 3e-15]) @ v.conj().T
    got = pinv(stack)
    want = np.stack([pinv(m) for m in stack])
    err = np.abs(got - want).max(axis=(1, 2))
    assert np.all(err <= 1e-12 * np.abs(want).max(axis=(1, 2)))
    assert np.linalg.svd(got[7], compute_uv=False)[0] > 1e14


# ------------------------------------------------------------ rank truncation


def spectrum_factors(eigvals, n3=1):
    """Single-slice factors whose right Gram matrix has the given eigenvalues."""
    r = len(eigvals)
    rng = np.random.default_rng(0)
    u, _ = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))
    right = np.diag(np.sqrt(np.asarray(eigvals))) @ u.conj().T
    right = np.hstack([right, np.zeros((r, 5))])
    left = rng.standard_normal((6, r))
    ranks = MultiRank.constant(r, n3)
    return BlockFactors((6, r + 5, n3), ranks, [left.astype(complex)], [right])


def test_rank_decrease_keeps_flat_spectrum():
    f = spectrum_factors([1.0, 0.99, 0.98])
    out, ranks, changed = rank_decrease(f, RankDecreaseConfig(tau=10.0))
    assert not changed and ranks.ranks == (3,)


def test_rank_decrease_cuts_at_large_gap():
    f = spectrum_factors([1.0, 0.9, 1e-8])
    out, ranks, changed = rank_decrease(f, RankDecreaseConfig(tau=10.0))
    assert changed and ranks.ranks == (2,)
    assert out.left[0].shape == (6, 2) and out.right[0].shape == (2, 8)


def test_rank_decrease_truncation_preserves_product():
    f = spectrum_factors([1.0, 0.9, 1e-8])
    before = f.left[0] @ f.right[0]
    out, _, _ = rank_decrease(f, RankDecreaseConfig(tau=10.0))
    after = out.left[0] @ out.right[0]
    best2 = _best_rank(before, 2)
    assert np.linalg.norm(after - best2) <= 1e-8 * np.linalg.norm(best2)


def _best_rank(m, r):
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    return (u[:, :r] * s[:r]) @ vh[:r]


def test_rank_decrease_collapses_overparameterized_fit():
    # data of true per-slice rank 2, factors initialized at rank 6: one
    # least-squares round leaves a machine-level tail, which truncation removes
    a, b = rand((7, 2, 4), 23), rand((2, 6, 4), 24)
    x = dft_mode3(tprod(a, b))
    f = init_factors(7, 6, 4, 6, seed=25)
    f = update_right(update_left(f, x), x)
    out, ranks, changed = rank_decrease(f, RankDecreaseConfig())
    assert changed and ranks.ranks == (2, 2, 2, 2)
    assert multi_rank(compose(out)).tubal == 2


def test_rank_decrease_never_increases_and_stays_symmetric():
    rng = np.random.default_rng(26)
    for _ in range(5):
        n3 = int(rng.integers(2, 7))
        f = init_factors(6, 6, n3, 4, seed=int(rng.integers(1 << 30)))
        x = dft_mode3(rng.standard_normal((6, 6, n3)))
        f = update_right(update_left(f, x), x)
        out, ranks, _ = rank_decrease(f, RankDecreaseConfig(tau=1.5))
        r = ranks.ranks
        assert all(r[k] <= 4 for k in range(n3))
        assert all(r[k] == r[(n3 - k) % n3] for k in range(n3))


def test_rank_decrease_respects_floor_and_disable():
    f = spectrum_factors([1.0, 1e-12, 1e-14])
    _, ranks2, changed2 = rank_decrease(f, RankDecreaseConfig(enabled=False))
    assert not changed2 and ranks2.ranks == (3,)


# ----------------------------------------------------------------- rank growth


def test_can_interpolate_counts_real_degrees_of_freedom():
    # 50 x 10 x 10 with 3,000 observed: rank 8 carries 4,160, rank 3 carries 1,710
    assert can_interpolate((50, 10, 10), MultiRank.constant(8, 10), 3000)
    assert not can_interpolate((50, 10, 10), MultiRank.constant(3, 10), 3000)
    assert can_interpolate((50, 10, 10), MultiRank.constant(3, 10), 1710)


def test_grow_ranks_adds_the_leading_residual_direction_under_the_ceiling():
    a, b = rand((7, 3, 4), 31), rand((3, 6, 4), 32)
    x = dft_mode3(tprod(a, b))
    f = init_factors(7, 6, 4, 1, seed=33)
    f = update_right(update_left(f, x), x)
    residual = x.slices - compose_spectral(f)
    out, grown = grow_ranks(f, residual, (2, 1, 3))
    assert grown and out.ranks.ranks == (2, 1, 2, 1)
    for k in (0, 2):
        added = out.left[k][:, 1:] @ out.right[k][1:, :]
        assert np.allclose(added, _best_rank(residual[:, :, k], 1), atol=1e-10)
        assert np.array_equal(out.left[k][:, :1], f.left[k])
    assert np.array_equal(out.left[1], f.left[1])
    _, grown_again = grow_ranks(out, residual, (2, 1, 2))
    assert not grown_again


def test_rank_config_validation():
    with pytest.raises(ValueError):
        RankDecreaseConfig(tau=1.0)
    for tau in (True, "no", float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"tau must be finite and exceed 1, got {tau}"):
            RankDecreaseConfig(tau=tau)
    for enabled in ("no", float("nan"), float("inf"), 1, None):
        with pytest.raises(ValueError, match=f"enabled must be a bool, got {enabled}"):
            RankDecreaseConfig(enabled=enabled)
    assert not RankDecreaseConfig(enabled=np.False_).enabled


# ------------------------------------------------ batched rank-group layer

# Stored-slice Gram spectra of the right factors; [] is a rank-0 slice.  The
# rank-3 slices at n3 = 6 share one group, of which two cut and one does not.
GRAM_SPECTRA = {
    1: [[1.0, 0.5, 1e-9]],
    2: [[1.0, 1e-9, 1e-10], []],
    5: [[1.0, 0.9, 0.8], [], [1.0, 1e-8, 1e-9, 1e-10]],
    6: [[1.0, 0.9, 1e-8], [1.0, 0.9, 0.8], [], [3.0, 1e-9, 2e-10]],
    # well conditioned (0, 3), rank 0 (1), condition number above GRAM_COND (2, 4)
    8: [[1.0, 0.5, 0.25], [], [1.0, 1e-9, 1e-10], [4.0], [2.0, 1e-9]],
}


def mixed_factors(n3, seed=0):
    """Mixed-rank factors whose right factors have the GRAM_SPECTRA spectra."""
    rng = np.random.default_rng(seed)
    n_rows, n_cols = 7, 6
    stored = [len(s) for s in GRAM_SPECTRA[n3]]
    left, right = [], []
    for eig in GRAM_SPECTRA[n3]:
        r = len(eig)
        left.append(rng.standard_normal((n_rows, r)) + 1j * rng.standard_normal((n_rows, r)))
        z = rng.standard_normal((n_cols, r)) + 1j * rng.standard_normal((n_cols, r))
        right.append(np.sqrt(np.asarray(eig))[:, None] * np.linalg.qr(z)[0].conj().T)
    ranks = MultiRank.from_stored(stored, n3)
    return BlockFactors((n_rows, n_cols, n3), ranks, left, right)


def reference_rank_decrease(f, cfg):
    """The eigen-gap test and truncation applied one slice at a time."""
    stored, left, right = list(f.ranks.stored()), list(f.left), list(f.right)
    for k, r in enumerate(stored):
        if r <= 1:
            continue
        lam = np.clip(np.linalg.eigvalsh(right[k] @ right[k].conj().T)[::-1], 0.0, None)
        if lam[0] <= 0:
            continue
        lam = np.maximum(lam, np.finfo(float).eps * lam[0])
        ratios = lam[:-1] / lam[1:]
        best = int(np.argmax(ratios))
        new_r = best + 1
        if ratios[best] <= cfg.tau:
            continue
        qmat, rmat = np.linalg.qr(left[k])
        u, s, vh = np.linalg.svd(rmat @ right[k], full_matrices=False)
        left[k], right[k] = qmat @ (u[:, :new_r] * s[:new_r]), vh[:new_r, :]
        stored[k] = new_r
    return stored, left, right


def assert_slices_close(got, want):
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        assert np.abs(g - w).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(w).max(initial=0.0))


@pytest.mark.parametrize("n3", [1, 2, 5, 6])
def test_batched_updates_and_compose_match_per_slice_reference(n3):
    f = mixed_factors(n3, seed=n3)
    x = dft_mode3(rand((7, 6, n3), 50 + n3))
    d = [x.slices[:, :, k] for k in range(f.n_stored)]
    slice_solves.reset()
    fl = update_left(f, x)
    assert slice_solves.count == f.n_stored
    want = [d[k] @ q.conj().T @ np.linalg.pinv(q @ q.conj().T) for k, q in enumerate(f.right)]
    assert_slices_close(fl.left, want)
    fr = update_right(fl, x)
    assert slice_solves.count == 2 * f.n_stored
    want = [np.linalg.pinv(p.conj().T @ p) @ p.conj().T @ d[k] for k, p in enumerate(fl.left)]
    assert_slices_close(fr.right, want)
    prods = compose_spectral(fr)
    assert prods.shape == (7, 6, f.n_stored)
    assert_slices_close(
        [prods[:, :, k] for k in range(f.n_stored)],
        [p @ q for p, q in zip(fr.left, fr.right)],
    )


@pytest.mark.parametrize("side", ["left", "right"])
def test_gram_inverse_pseudo_inverts_only_rank_zero_and_ill_conditioned_slices(monkeypatch, side):
    f = mixed_factors(8, seed=8)  # the right factors' Grams have GRAM_SPECTRA[8]
    cond = [s[0] / s[-1] if s else np.inf for s in GRAM_SPECTRA[8]]
    slow = [k for k, c in enumerate(cond) if not c < GRAM_COND]
    assert slow == [1, 2, 4]
    if side == "right":  # the same Grams, as the left factors'
        f = BlockFactors((6, 7, 8), f.ranks, [q.conj().T for q in f.right], [p.T for p in f.left])
    x = dft_mode3(rand(f.dims, 80))
    d = [x.slices[:, :, k] for k in range(f.n_stored)]
    seen, real = [], tubal.factors.pinv
    monkeypatch.setattr(tubal.factors, "pinv", lambda m: seen.append(m) or real(m))
    slice_solves.reset()
    if side == "left":
        out, grams = update_left(f, x), f.q @ f.q.conj().swapaxes(1, 2)
        want = [d[k] @ q.conj().T @ np.linalg.pinv(q @ q.conj().T) for k, q in enumerate(f.right)]
        assert_slices_close(out.left, want)
    else:
        out, grams = update_right(f, x), f.p.conj().swapaxes(1, 2) @ f.p
        want = [np.linalg.pinv(p.conj().T @ p) @ p.conj().T @ d[k] for k, p in enumerate(f.left)]
        assert_slices_close(out.right, want)
    assert slice_solves.count == f.n_stored
    assert len(seen) == 1 and np.allclose(seen[0], grams[slow], rtol=0, atol=1e-14)
    assert_padded(out)


@pytest.mark.parametrize("dims", [(9, 4, 8), (6, 6, 8), (4, 9, 8), (30, 62, 5)])
def test_updates_apply_the_inverse_on_the_short_side_of_tall_stacks(dims):
    # every stack, tall or wide, multiplies the r x r inverse into the short factor, with the
    # data products as real matmuls of the float views: data @ b against b's 2x2-block form
    # (rows 2j, 2j + 1 holding b's row j and 1j times it), and p^H @ data as p's transposed
    # float view times data's, whose row pairs (2i, 2i + 1) combine as the first minus 1j times
    # the second
    f = init_factors(*dims, MultiRank.from_stored([3, 1, 3, 2, 1][: half_count(dims[2])], dims[2]),
                     seed=sum(dims))
    x = dft_mode3(rand(dims, 3))
    data, stored = np.moveaxis(x.slices, 2, 0), np.array(f.ranks.stored())
    k, n_rows, n_cols = data.shape
    qh = _h(f.q)
    ginv = _gram_inv(f.q @ qh, stored)
    pad = np.eye(3) * (np.arange(3) >= stored[:, None])[:, None]
    assert np.array_equal(ginv, np.linalg.inv(f.q @ qh + pad) - pad)  # no slice needs pinv
    b = qh @ ginv
    blocks = np.concatenate((b, 1j * b), axis=2).reshape(k, 2 * n_cols, 3).view(float)
    fl = update_left(f, x)
    assert np.array_equal(fl.p, (data.view(float) @ blocks).view(complex))
    ginv = _gram_inv(_h(fl.p) @ fl.p, stored)
    m = (fl.p.view(float).transpose(0, 2, 1) @ data.view(float)).view(complex)
    m = m.reshape(k, 3, 2, n_cols)
    assert np.array_equal(update_right(fl, x).q, ginv @ (m[:, :, 0] - 1j * m[:, :, 1]))


@pytest.mark.parametrize("slice_major", [True, False])
@pytest.mark.parametrize("n_stored", [1, 2])
@pytest.mark.parametrize("width", [0, 1, 3])
def test_real_view_products_match_complex_matmul(width, n_stored, slice_major):
    rng = np.random.default_rng(100 * width + 10 * n_stored + slice_major)

    def crand(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    # a data stack read from a slice-major spectrum, or from a C-ordered (n1, n2, half) one
    data = crand(n_stored, 9, 6) if slice_major else np.moveaxis(crand(9, 6, n_stored), 2, 0)
    assert data.flags.c_contiguous == (slice_major or n_stored == 1)
    p, q, b = crand(n_stored, 9, width), crand(n_stored, width, 6), crand(n_stored, 6, width)
    f = BlockFactors._stacked((9, 6, 2 * n_stored - 1),
                              MultiRank.from_stored([width] * n_stored, 2 * n_stored - 1), p, q)
    # slices of 64 x 625 products, above the BLOCK line: _times's column-major block form
    big_p, big_q = crand(n_stored, 64, width), crand(n_stored, width, 625)
    big = BlockFactors._stacked((64, 625, 2 * n_stored - 1),
                                MultiRank.from_stored([width] * n_stored, 2 * n_stored - 1),
                                big_p, big_q)
    for got, want in ((_times(data, b), data @ b), (_times(p, q), p @ q),
                      (compose_spectral(f), (p @ q).transpose(1, 2, 0)),
                      (_h_times(p, data), p.conj().swapaxes(1, 2) @ data),
                      (_times(big_p, big_q), big_p @ big_q),
                      (compose_spectral(big), (big_p @ big_q).transpose(1, 2, 0))):
        assert got.shape == want.shape and got.dtype == complex
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)


@pytest.mark.parametrize("n_rows", [52, 53])  # 52 * 625 < BLOCK <= 53 * 625
def test_times_hands_block_sized_products_the_column_major_block_form(n_rows):
    # OpenBLAS 0.3.31 rounds the two forms differently at 625 columns, so the bytes tell which
    # one _times took; the forms hold the same floats
    rng = np.random.default_rng(n_rows)
    x, b = (rng.standard_normal(s) + 1j * rng.standard_normal(s)
            for s in ((2, n_rows, 3), (2, 3, 625)))
    row_major = np.concatenate((b, 1j * b), axis=2).reshape(2, 6, 625).view(float)
    column_major = np.concatenate((_h(b), 1j * _h(b)), axis=2).reshape(2, 1250, 3).view(float)
    column_major = column_major.swapaxes(1, 2)
    assert np.array_equal(row_major, column_major) and column_major[0].flags.f_contiguous
    form = column_major if n_rows * 625 >= BLOCK else row_major
    assert np.array_equal(_times(x, b), (x.view(float) @ form).view(complex))


def test_updates_guard_the_inverse_without_eigvalsh(monkeypatch):
    f = init_factors(7, 6, 8, MultiRank.from_stored([3, 1, 3, 2, 1], 8), seed=5)
    x = dft_mode3(rand(f.dims, 6))
    d = [x.slices[:, :, k] for k in range(f.n_stored)]

    def banned(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", banned)
    fl = update_left(f, x)
    assert_slices_close(fl.left, [d[k] @ np.linalg.pinv(q) for k, q in enumerate(f.right)])
    fr = update_right(fl, x)
    assert_slices_close(fr.right, [np.linalg.pinv(p) @ d[k] for k, p in enumerate(fl.left)])


@pytest.mark.parametrize("side", ["left", "right"])
def test_an_exactly_singular_gram_pseudo_inverts_the_stack(monkeypatch, side):
    # slice 2 has rank 2 and two equal right-factor rows of squared norm 4, so its Gram is
    # exactly [[4, 4], [4, 4]] and LU meets an exact zero pivot; slices 0, 3 and 4 are
    # well conditioned (4 takes two of slice 0's orthogonal rows) and slice 1 has rank 0
    f = mixed_factors(8, seed=8)
    right = list(f.right)
    right[2] = np.tile([1.0, -1.0, 1.0, 1.0, 0.0, 0.0], (2, 1)).astype(complex)
    right[4] = right[0][:2]
    ranks = MultiRank.from_stored([3, 0, 2, 1, 2], 8)
    left = [np.resize(m, (7, r)) for m, r in zip(f.left, ranks.stored())]
    f = BlockFactors(f.dims, ranks, left, right)
    if side == "right":  # the same Grams, as the left factors'
        f = BlockFactors((6, 7, 8), f.ranks, [q.conj().T for q in f.right], [p.T for p in f.left])
    g = f.q @ _h(f.q) if side == "left" else _h(f.p) @ f.p
    pad = np.eye(3) * (np.arange(3) >= np.array(ranks.stored())[:, None])[:, None]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.inv(g + pad)
    x = dft_mode3(rand(f.dims, 81))
    d = [x.slices[:, :, k] for k in range(f.n_stored)]
    seen, real = [], tubal.factors.pinv
    monkeypatch.setattr(tubal.factors, "pinv", lambda m: seen.append(m) or real(m))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if side == "left":
            out = update_left(f, x)
            want = [d[k] @ q.conj().T @ np.linalg.pinv(q @ q.conj().T) for k, q in enumerate(f.right)]
            assert_slices_close(out.left, want)
        else:
            out = update_right(f, x)
            want = [np.linalg.pinv(p.conj().T @ p) @ p.conj().T @ d[k] for k, p in enumerate(f.left)]
            assert_slices_close(out.right, want)
    assert len(seen) == 1 and seen[0].shape == (f.n_stored, 3, 3)
    assert_padded(out)


def test_gram_inverse_of_tiny_grams_falls_back_without_overflow():
    # the inverse of a well-conditioned Gram of scale 2^-600 overflows its squared norm;
    # the slice is pseudo-inverted, with no warning
    f = mixed_factors(8, seed=8)
    stored = np.array(f.ranks.stored())
    g = f.q @ _h(f.q)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = _gram_inv(g * 2.0**-600, stored)
    assert_slices_close(list(out * 2.0**-600), list(_gram_inv(g, stored)))


@pytest.mark.parametrize("n3", [1, 2, 5, 6])
@pytest.mark.parametrize("seed", [1, 2])
def test_batched_rank_decrease_matches_per_slice_reference(n3, seed):
    # the cuts depend only on the fixed Gram spectra; the seed draws the bases
    f = mixed_factors(n3, seed=seed)
    cfg = RankDecreaseConfig()
    out, ranks, changed = rank_decrease(f, cfg)
    stored, left, right = reference_rank_decrease(f, cfg)
    assert ranks.stored() == tuple(stored) and out.ranks == ranks
    assert changed == (tuple(stored) != f.ranks.stored())
    assert_slices_close(out.left, left)
    assert_slices_close(out.right, right)


def test_batched_rank_decrease_cuts_within_one_rank_group():
    f = mixed_factors(6)
    _, ranks, changed = rank_decrease(f, RankDecreaseConfig())
    assert changed and ranks.stored() == (2, 3, 0, 1)


# ------------------------------------------------------ padded factor stacks


def assert_padded(f):
    """p and q are C-contiguous stacks as wide as the largest stored rank, every
    nonempty left[k] and right[k] is a view into them, and everything past a
    slice's rank is exactly zero."""
    stored = f.ranks.stored()
    n_rows, n_cols, _ = f.dims
    assert f.p.shape == (f.n_stored, n_rows, max(stored))
    assert f.q.shape == (f.n_stored, max(stored), n_cols)
    assert f.p.flags.c_contiguous and f.q.flags.c_contiguous
    for k, r in enumerate(stored):
        assert f.left[k].shape == (n_rows, r) and f.right[k].shape == (r, n_cols)
        assert r == 0 or np.shares_memory(f.left[k], f.p) and np.shares_memory(f.right[k], f.q)
        assert not f.p[k, :, r:].any() and not f.q[k, r:].any()


def library_pairs():
    """A pair from each library operation that builds one; stored ranks 3, 1, 3, 2, 1
    interleave the slices of each rank."""
    f = init_factors(7, 6, 8, MultiRank.from_stored([3, 1, 3, 2, 1], 8), seed=1)
    x = dft_mode3(rand((7, 6, 8), 2))
    return {
        "init_factors": f,
        "update_left": update_left(f, x),
        "update_right": update_right(f, x),
        "rank_decrease": rank_decrease(update_right(f, x), RankDecreaseConfig(tau=1.5))[0],
        "grow_ranks": grow_ranks(f, x.slices - compose_spectral(f), (4, 2, 3, 2, 2))[0],
    }


@pytest.mark.parametrize("op", list(library_pairs()))
def test_slice_factors_are_views_of_contiguous_group_stacks(op):
    assert_padded(library_pairs()[op])


def test_factor_layer_makes_no_stack_copies(monkeypatch):
    # rank-2 data and mixed starting ranks up to 6: the rank cut regroups every slice above 2
    x = dft_mode3(tprod(rand((7, 2, 8), 60), rand((2, 6, 8), 61)))
    f = init_factors(7, 6, 8, MultiRank.from_stored([6, 3, 6, 4, 2], 8), seed=62)
    calls = []
    stack = np.stack
    monkeypatch.setattr(np, "stack", lambda *a, **kw: calls.append(1) or stack(*a, **kw))
    f = update_right(update_left(f, x), x)
    compose_spectral(f)
    out, ranks, changed = rank_decrease(f, RankDecreaseConfig())
    compose_spectral(out)
    assert changed and ranks.tubal == 2
    assert calls == []
