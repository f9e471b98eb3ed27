"""Property tests: the regroup and fold against their unfolding definitions, the
blocked regroup against its one-copy form, the matrix folding's round trip, the
inverse transform's conjugate-symmetry guard against its defining inequality,
the half-spectrum mass against Parseval and its conjugate-product form, the
t-product and multi-rank against per-slice definitions, the rank edits'
bookkeeping, the factor layer's rank-group stacks against per-slice references,
MultiRank's conjugate symmetry, the .t3, .msk and PGM round trips, and both
solvers' invariants: a finite output, exact observed entries, and the same bytes
on a repeated run."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tubal import (  # noqa: E402
    BlockFactors,
    CompletionProblem,
    DoubleTubalConfig,
    MultiRank,
    ObservationMask,
    RankDecreaseConfig,
    SolverConfig,
    SpectralSymmetryError,
    complete_matrix,
    complete_tensor,
    compose_spectral,
    dft_mode3,
    fold3_from_reshaped,
    half_count,
    init_factors,
    load_image,
    load_mask,
    load_tensor,
    mode_unfold,
    multi_rank,
    pair_weights,
    rank_decrease,
    reshape_matrix_to_tensor,
    reshape_mode3,
    save_image,
    save_mask,
    save_tensor,
    tensor_to_matrix,
    tprod,
    tprod_reference,
    update_left,
    update_right,
)
from tubal import core  # noqa: E402
from tubal.core import _half_weighted_sq, _irfft_checked  # noqa: E402
from tubal.factors import _padded, grow_ranks  # noqa: E402
from tubal.matrix_completion import _start  # noqa: E402

from test_factors import assert_padded, assert_slices_close, reference_rank_decrease  # noqa: E402

dims = st.integers(1, 6)
depths = st.integers(1, 7)
seeds = st.integers(0, 2**32 - 1)
layouts = st.sampled_from(["C", "F", "strided"])


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def fold_mode3(m3, dims):
    """The tensor whose mode-3 unfolding is m3, column-major: entry (i1, i2, i3) is column
    i1 + i2 * n1 of row i3."""
    return m3.T.reshape(dims, order="F")


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
        assert np.array_equal(back, fold_mode3(mode_unfold(want, 1), a.shape))
        assert np.array_equal(back, a)
        u = rng.standard_normal((n3, p, q))
        assert np.array_equal(reshape_mode3(fold3_from_reshaped(u, a.shape), p, q), u)


@given(dims, dims, depths, seeds, st.sampled_from([1, 7, 10**9]))
@example(3, 4, 1, 0, 7)
@example(3, 4, 2, 0, 1)
@example(5, 2, 3, 0, 7)
@example(4, 6, 6, 0, 1)
def test_blocked_fold_is_a_c_ordered_exact_inverse_at_any_block_size(n1, n2, n3, seed, block):
    a = np.random.default_rng(seed).standard_normal((n1, n2, n3))
    for p in divisors(n1 * n2):
        q = n1 * n2 // p
        t = reshape_mode3(a, p, q)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "BLOCK", block)
            back = fold3_from_reshaped(t, a.shape)
        assert back.flags.c_contiguous and not np.shares_memory(back, t)
        assert back.tobytes() == a.tobytes()


@given(dims, dims, depths, seeds, st.sampled_from([1, 7, 10**9]), layouts)
@example(3, 4, 1, 0, 1, "C")
@example(5, 2, 3, 0, 7, "F")
@example(6, 6, 7, 0, 7, "strided")
def test_blocked_regroup_is_byte_equal_to_the_one_copy_regroup(n1, n2, n3, seed, block, layout):
    wide = np.random.default_rng(seed).standard_normal((n1, n2, 2 * n3))
    head = wide[:, :, :n3]
    a = {"C": head.copy(), "F": np.asfortranarray(head), "strided": wide[:, :, ::2]}[layout]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "BLOCK", block)
        for p in divisors(n1 * n2):
            q = n1 * n2 // p
            want = a.transpose(1, 0, 2).reshape(q, p, n3).transpose(2, 1, 0).copy()
            got = reshape_mode3(a, p, q)
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


@given(dims, st.integers(1, 12), st.integers(1, 8), seeds)
@example(3, 7, 3, 0)
@example(3, 6, 3, 0)
@example(2, 1, 4, 0)
@example(2, 5, 8, 0)
def test_matrix_folding_round_trips_through_its_padding(n1, h, n2, seed):
    m = np.random.default_rng(seed).standard_normal((n1, h))
    t, pad = reshape_matrix_to_tensor(m, n2)
    assert pad == -h % n2 and t.shape == (n1, n2, (h + pad) // n2)
    assert np.array_equal(tensor_to_matrix(t, h), m)
    assert not t.transpose(0, 2, 1).reshape(n1, -1)[:, h:].any()


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


# ------------------------------------------------------- half-spectrum mass


@given(dims, dims, depths, seeds, st.sampled_from(["C", "F", "strided"]))
@example(3, 4, 1, 0, "strided")
@example(3, 4, 2, 0, "F")
@example(2, 5, 7, 0, "strided")
def test_half_spectrum_mass_is_parseval_with_pair_weights(n1, n2, n3, seed, layout):
    rng = np.random.default_rng(seed)
    wide = rng.standard_normal((n1, 2 * n2, n3))
    a = wide[:, ::2]
    spec = {
        "C": lambda: np.fft.rfft(a, axis=2),
        "F": lambda: np.asfortranarray(np.fft.rfft(a, axis=2)),
        "strided": lambda: np.fft.rfft(wide, axis=2)[:, ::2],
    }[layout]()
    assert np.isclose(_half_weighted_sq(spec, n3) / n3, np.sum(a * a), rtol=1e-12, atol=0)


@given(dims, dims, depths, seeds)
@example(3, 4, 1, 0)
@example(3, 4, 2, 0)
@example(4, 4, 7, 0)
def test_half_spectrum_mass_matches_the_conjugate_product_form(n1, n2, n3, seed):
    rng = np.random.default_rng(seed)
    shape = (n1, n2, half_count(n3))
    slices = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    want = np.einsum("ijk,ijk,k->", slices, np.conj(slices), pair_weights(n3)).real
    assert abs(_half_weighted_sq(slices, n3) - want) <= 1e-12 * want


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


@given(dims, dims, depths, seeds)
@example(3, 4, 1, 0)
@example(3, 4, 2, 0)
@example(4, 4, 5, 0)
@example(4, 4, 6, 0)
@example(4, 4, 4, 34)  # every stored rank 0
def test_rank_group_stacks_match_the_per_slice_references(n1, n2, n3, seed):
    """Random stored ranks (0 allowed, equal ranks interleaved): a pair built from
    lists, the same pair rebuilt by grow_ranks and _padded, and that pair after
    a round of updates and a rank cut, each against the per-slice formulas and each
    with exact zeros past every slice's rank in its padded stacks."""
    rng = np.random.default_rng(seed)
    stored = [int(r) for r in rng.integers(0, min(n1, n2) + 1, half_count(n3))]

    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    listed = BlockFactors(
        (n1, n2, n3), MultiRank.from_stored(stored, n3),
        [cplx(n1, r) for r in stored], [cplx(r, n2) for r in stored],
    )
    grown, _ = grow_ranks(listed, cplx(n1, n2, len(stored)), [r + 1 for r in stored])
    assert_padded(grown)
    rebuilt = _padded(grown.dims, listed.ranks, grown.p, grown.q)
    assert_slices_close(rebuilt.left + rebuilt.right, listed.left + listed.right)
    spec = dft_mode3(rng.standard_normal((n1, n2, n3)))
    d = [spec.slices[:, :, k] for k in range(len(stored))]
    cfg = RankDecreaseConfig(tau=1.5)
    after = rank_decrease(update_right(update_left(rebuilt, spec), spec), cfg)[0]
    for f in (listed, rebuilt, after):
        fl, fr = update_left(f, spec), update_right(f, spec)
        for g in (f, fl, fr):
            assert_padded(g)
        want = [d[k] @ q.conj().T @ np.linalg.pinv(q @ q.conj().T) for k, q in enumerate(f.right)]
        assert_slices_close(fl.left, want)
        want = [np.linalg.pinv(p.conj().T @ p) @ p.conj().T @ d[k] for k, p in enumerate(f.left)]
        assert_slices_close(fr.right, want)
        prods = compose_spectral(f)
        assert_slices_close([prods[:, :, k] for k in range(len(d))], [p @ q for p, q in zip(f.left, f.right)])
        out, ranks, _ = rank_decrease(f, cfg)
        ref_stored, ref_left, ref_right = reference_rank_decrease(f, cfg)
        assert ranks.stored() == tuple(ref_stored)
        assert_slices_close(out.left + out.right, ref_left + ref_right)
        assert_padded(out)


# ----------------------------------------------------------- ranks and formats


@given(depths, seeds)
@example(1, 0)
@example(2, 0)
@example(6, 0)
def test_multi_rank_is_its_stored_half_mirrored(n3, seed):
    rng = np.random.default_rng(seed)
    r = MultiRank.from_stored(rng.integers(0, 6, half_count(n3)), n3)
    assert MultiRank.from_stored(r.stored(), n3) == r
    assert all(r[k] == r[n3 - k] for k in range(1, n3))
    for k in range(1, n3):
        if k != n3 - k:  # raising one entry of a mirrored pair breaks the symmetry
            with pytest.raises(ValueError, match="not conjugate-symmetric"):
                MultiRank(r.ranks[:k] + (r[k] + 1,) + r.ranks[k + 1 :])


@given(dims, dims, depths, seeds)
@example(1, 1, 1, 0)
@example(3, 4, 2, 0)
def test_tensor_files_round_trip(tmp_path_factory, n1, n2, n3, seed):
    a = np.random.default_rng(seed).standard_normal((n1, n2, n3))
    path = tmp_path_factory.mktemp("t3") / "a.t3"
    save_tensor(path, a)
    assert load_tensor(path).tobytes() == a.tobytes()


@given(dims, dims, depths, seeds, st.booleans())
@example(1, 1, 1, 0, True)
@example(3, 4, 2, 0, False)
def test_mask_files_round_trip(tmp_path_factory, n1, n2, n3, seed, pad_observed_zero):
    observed = np.random.default_rng(seed).random((n1, n2, n3)) < 0.5
    path = tmp_path_factory.mktemp("msk") / "m.msk"
    save_mask(path, ObservationMask(observed, pad_observed_zero))
    got = load_mask(path)
    assert np.array_equal(got.observed, observed) and got.pad_observed_zero == pad_observed_zero


@given(dims, dims, seeds, st.sampled_from([255, 65535]))
@example(1, 1, 0, 255)
@example(3, 4, 0, 65535)
def test_pgm_files_round_trip_within_half_a_step(tmp_path_factory, h, w, seed, maxval):
    img = np.random.default_rng(seed).random((h, w))
    path = tmp_path_factory.mktemp("pgm") / "img.pgm"
    save_image(path, img, maxval=maxval)
    got = load_image(path)
    assert got.shape == img.shape
    assert np.abs(got - img).max() <= 0.5 / maxval * (1 + 1e-9)


# ------------------------------------------------------------ solver invariants


def _run_solver(solver, problem, rank, seed):
    if solver == "matrix":
        x, _, trace = complete_matrix(problem, SolverConfig(init_ranks=rank, max_iter=8, seed=seed))
    else:
        x, trace = complete_tensor(problem, DoubleTubalConfig(init_ranks=rank, max_iter=8, seed=seed))
    history = [(r.objective, r.rel_change, r.gamma, tuple(r.ranks), r.event) for r in trace.rows]
    return x, history


@given(dims, dims, depths, st.integers(1, 3), seeds, st.sampled_from(["matrix", "tensor"]))
@example(4, 5, 1, 2, 0, "matrix")
@example(4, 5, 1, 2, 0, "tensor")
@example(4, 5, 2, 2, 0, "matrix")
@example(4, 5, 2, 2, 0, "tensor")
@example(3, 6, 7, 3, 0, "tensor")
@example(6, 3, 6, 1, 0, "tensor")
def test_solvers_return_finite_output_exact_on_observed_and_repeatable(n1, n2, n3, rank, seed, solver):
    rng = np.random.default_rng(seed)
    truth = rng.standard_normal((n1, n2, n3))
    mask = rng.random(truth.shape) < 0.6
    mask.flat[rng.integers(mask.size)] = True
    problem = CompletionProblem.from_tensor(truth * mask, mask)
    rank = min(rank, n1, n2)
    try:
        _start(problem, SolverConfig(init_ranks=rank, seed=seed))
    except ValueError as e:  # a slice start at full rank on every slice, in either solver
        assert "full rank" in str(e)
        with pytest.raises(ValueError, match="full rank"):
            _run_solver(solver, problem, rank, seed)
        return
    x, history = _run_solver(solver, problem, rank, seed)
    assert x.shape == truth.shape and np.isfinite(x).all()
    assert np.array_equal(x[mask], truth[mask])
    again, history_again = _run_solver(solver, problem, rank, seed)
    assert again.tobytes() == x.tobytes() and history_again == history
