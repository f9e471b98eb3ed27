"""Matrix completion solver: problem folding, sweeps, stopping, traces, KKT."""

import csv

import numpy as np
import pytest

import tubal.matrix_completion as mc
from tubal import (
    CompletionProblem,
    MultiRank,
    ObservationMask,
    RankDecreaseConfig,
    SolverConfig,
    compose,
    dft_mode3,
    fold3_from_reshaped,
    fro_norm,
    generate_mask,
    half_count,
    matrix_kkt_residuals,
    matrix_objective,
    project,
    reshape_matrix_to_tensor,
    synth_low_tubal,
    tensor_to_matrix,
    tprod,
    update_left,
    update_right,
    update_x,
)
from tubal.factors import init_factors
from tubal.matrix_completion import RANK_STABLE_ITERS, RankGrowth, solve


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def low_rank_tensor(n1, n2, n3, r, seed):
    rng = np.random.default_rng(seed)
    return tprod(rng.standard_normal((n1, r, n3)), rng.standard_normal((r, n2, n3)))


def easy_problem(seed=0, ratio=0.7, n1=12, n2=8, n3=4, r=2):
    data = low_rank_tensor(n1, n2, n3, r, seed)
    mask = generate_mask((n1, n2, n3), ratio, seed=seed + 1)
    return data, CompletionProblem.from_tensor(data * mask.observed, mask)


# ------------------------------------------------------------------- problems


def test_from_matrix_pads_to_block_width():
    m = rand((4, 10), 0)
    mask2d = np.random.default_rng(1).random((4, 10)) < 0.6
    prob = CompletionProblem.from_matrix(m, mask2d, 4)
    assert prob.dims == (4, 4, 3)
    assert prob.original_width == 10
    assert prob.mask.pad_observed_zero
    # the two padded columns land in the last slice, marked observed, zero-valued
    assert prob.mask.observed[:, 2:, 2].all()
    assert np.all(prob.observed[:, 2:, 2] == 0.0)


def test_from_matrix_exact_width_needs_no_padding():
    m = rand((4, 12), 2)
    mask2d = np.ones((4, 12), dtype=bool)
    prob = CompletionProblem.from_matrix(m, mask2d, 4)
    assert prob.dims == (4, 4, 3)
    assert not prob.mask.pad_observed_zero
    assert np.allclose(tensor_to_matrix(prob.observed, 12), m)


def test_from_matrix_zeroes_unobserved_entries():
    m = np.ones((3, 6))
    mask2d = np.zeros((3, 6), dtype=bool)
    mask2d[0, 0] = True
    prob = CompletionProblem.from_matrix(m, mask2d, 3)
    assert prob.observed.sum() == 1.0


def test_from_matrix_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        CompletionProblem.from_matrix(np.ones((3, 6)), np.ones((3, 5), dtype=bool), 3)


def test_problem_rejects_data_mask_mismatch():
    mask = ObservationMask(np.ones((3, 4, 2), dtype=bool))
    with pytest.raises(ValueError):
        CompletionProblem(observed=np.ones((3, 4, 3)), mask=mask)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_problem_rejects_non_finite_observed_values(bad):
    data = rand((8, 8, 4), 40)
    mask = ObservationMask(np.ones(data.shape, dtype=bool))
    data[3, 5, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        CompletionProblem.from_tensor(data, mask)


def test_problem_accepts_non_finite_values_at_unobserved_entries():
    data = rand((8, 8, 4), 41)
    on = np.ones(data.shape, dtype=bool)
    on[3, 5, 1] = on[0, 0, 0] = False
    data[3, 5, 1], data[0, 0, 0] = np.nan, np.inf
    prob = CompletionProblem.from_tensor(data, on)
    assert prob.observed[3, 5, 1] == 0.0 and prob.observed[0, 0, 0] == 0.0
    assert np.all(np.isfinite(prob.observed))


def test_problem_rejects_an_empty_mask():
    with pytest.raises(ValueError, match="no entry as observed"):
        CompletionProblem.from_tensor(rand((4, 3, 2), 44), np.zeros((4, 3, 2), dtype=bool))


def test_from_matrix_rejects_an_empty_mask_that_padding_would_fill():
    empty = np.zeros((6, 10), dtype=bool)
    # padding 10 columns to 3 blocks of 4 adds 12 observed zeros
    _, pad = reshape_matrix_to_tensor(empty.astype(float), 4)
    assert 6 * pad == 12
    with pytest.raises(ValueError, match="no entry as observed"):
        CompletionProblem.from_matrix(rand((6, 10), 45), empty, 4)
    one = empty.copy()
    one[2, 7] = True
    assert CompletionProblem.from_matrix(rand((6, 10), 45), one, 4).mask.count == 13


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(init_ranks=2, epsilon=0.0)
    with pytest.raises(ValueError):
        SolverConfig(init_ranks=2, max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(init_ranks=2, t0=-1)


# -------------------------------------------------------------------- objective


def test_objective_matches_spatial_formula():
    f = init_factors(6, 5, 4, 3, seed=3)
    x = rand((6, 5, 4), 4)
    direct = 0.5 * fro_norm(compose(f) - x) ** 2
    assert abs(matrix_objective(f, x) - direct) <= 1e-12 * max(direct, 1.0)


def test_update_x_is_exact_on_observed_entries():
    data, prob = easy_problem(seed=5)
    f = init_factors(*prob.dims, 4, seed=6)
    x = update_x(f, prob)
    assert np.array_equal(x[prob.mask.observed], prob.observed[prob.mask.observed])
    # unobserved entries come from the factorization
    comp = compose(f)
    free = ~prob.mask.observed
    assert np.array_equal(x[free], comp[free])


# ---------------------------------------------------------------------- solve


def test_index_refill_matches_project_on_a_strided_array():
    _, prob = easy_problem(seed=42)
    a = fold3_from_reshaped(rand((4, 24, 4), 43), prob.dims)  # a strided view
    assert not a.flags.c_contiguous
    want = project(a, prob.mask, prob.observed)
    got = mc._refill(a.copy(order="K"), mc._observed_index(prob))
    assert not got.flags.c_contiguous
    assert np.array_equal(got, want)


def test_fully_observed_problem_is_reproduced_exactly():
    data = low_rank_tensor(10, 6, 4, 2, seed=7)
    prob = CompletionProblem.from_tensor(data, np.ones(data.shape, dtype=bool))
    x, _, trace = solve(prob, SolverConfig(init_ranks=4, seed=0))
    assert np.array_equal(x, data)
    assert trace.converged and trace.iterations <= 2


def test_solver_recovers_low_rank_from_partial_observations():
    data, prob = easy_problem(seed=8, ratio=0.8, n1=30, n2=20, n3=4, r=2)
    x, _, trace = solve(prob, SolverConfig(init_ranks=2, seed=1, max_iter=300, epsilon=1e-9))
    assert trace.converged
    assert fro_norm(x - data) / fro_norm(data) <= 1e-6


def test_matrix_output_strips_padding():
    m = low_rank_tensor(8, 1, 21, 2, seed=9)[:, 0, :]  # (8, 21) matrix
    mask2d = np.ones((8, 21), dtype=bool)
    prob = CompletionProblem.from_matrix(m, mask2d, 4)
    x, rec, trace = solve(prob, SolverConfig(init_ranks=4, seed=0))
    assert rec.shape == (8, 21)
    assert np.allclose(rec, m, atol=1e-12)


def test_tensor_problem_returns_no_matrix():
    _, prob = easy_problem(seed=10)
    _, rec, _ = solve(prob, SolverConfig(init_ranks=3, seed=0, max_iter=3))
    assert rec is None


def test_relative_change_stopping_rule():
    _, prob = easy_problem(seed=11)
    _, _, loose = solve(prob, SolverConfig(init_ranks=3, seed=0, epsilon=10.0))
    assert loose.converged and loose.iterations == 1
    _, _, capped = solve(prob, SolverConfig(init_ranks=3, seed=0, epsilon=1e-15, max_iter=4))
    assert capped.termination == "max_iter" and capped.iterations == 4
    assert all(r.rel_change >= 1e-15 for r in capped.rows)


def test_objective_descends_with_and_without_midsweep_refresh():
    for t0 in (0, 200):
        _, prob = easy_problem(seed=12, n1=20, n2=12)
        cfg = SolverConfig(
            init_ranks=3, seed=2, t0=t0, max_iter=40, epsilon=1e-12,
            rank_cfg=RankDecreaseConfig(enabled=False),
        )
        _, _, trace = solve(prob, cfg)
        g = trace.objectives()
        assert np.all(np.diff(g) <= 1e-12 * np.maximum(g[:-1], 1.0))


def test_solver_is_deterministic():
    _, prob = easy_problem(seed=13)
    cfg = SolverConfig(init_ranks=3, seed=4, max_iter=12, epsilon=1e-12)
    x1, _, t1 = solve(prob, cfg)
    x2, _, t2 = solve(prob, cfg)
    assert x1.tobytes() == x2.tobytes()
    assert t1.objectives().tobytes() == t2.objectives().tobytes()
    assert [r.rel_change for r in t1.rows] == [r.rel_change for r in t2.rows]


def test_one_sweep_is_the_public_steps_composed():
    for n3 in (1, 4, 5):
        _, prob = easy_problem(seed=23 + n3, n3=n3)
        cfg = SolverConfig(
            init_ranks=3, seed=7, t0=0, max_iter=1, rank_cfg=RankDecreaseConfig(enabled=False)
        )
        x, _, trace = solve(prob, cfg)
        spec = dft_mode3(prob.observed)
        f = update_right(update_left(init_factors(*prob.dims, 3, seed=7), spec), spec)
        want = update_x(f, prob)
        assert x.tobytes() == want.tobytes()
        assert trace.rows[0].objective == matrix_objective(f, want)


def test_non_finite_objective_raises(monkeypatch):
    _, prob = easy_problem(seed=14)
    monkeypatch.setattr(mc, "_weighted_misfit", lambda *a: float("nan"))
    with pytest.raises(FloatingPointError):
        solve(prob, SolverConfig(init_ranks=3, seed=0))


def test_overparameterized_rank_is_dropped_and_logged():
    data = low_rank_tensor(16, 10, 4, 2, seed=15)
    prob = CompletionProblem.from_tensor(data, np.ones(data.shape, dtype=bool))
    _, _, trace = solve(prob, SolverConfig(init_ranks=6, seed=0, max_iter=6, epsilon=1e-15))
    assert trace.rows[0].event == "rank_decrease"
    assert trace.rows[0].ranks.tubal == 2
    assert all(r.ranks.tubal == 2 for r in trace.rows[1:])
    assert all(r.event == "" for r in trace.rows[1:])


def test_rank_detection_switches_off_after_quiet_sweeps(monkeypatch):
    calls = []
    orig = mc.rank_decrease

    def counting(factors, cfg):
        calls.append(1)
        return orig(factors, cfg)

    monkeypatch.setattr(mc, "rank_decrease", counting)
    _, prob = easy_problem(seed=16)
    # no eigenvalue ratio can pass tau (_rank_cuts caps them at 1/eps): the check
    # runs but can never change anything
    cfg = SolverConfig(
        init_ranks=3, seed=0, max_iter=12, epsilon=1e-15,
        rank_cfg=RankDecreaseConfig(tau=1e16),
    )
    solve(prob, cfg)
    assert len(calls) == RANK_STABLE_ITERS


def test_rank_detection_can_be_disabled():
    data = low_rank_tensor(16, 10, 4, 2, seed=17)
    prob = CompletionProblem.from_tensor(data, np.ones(data.shape, dtype=bool))
    cfg = SolverConfig(
        init_ranks=6, seed=0, max_iter=4, epsilon=1e-15,
        rank_cfg=RankDecreaseConfig(enabled=False),
    )
    _, _, trace = solve(prob, cfg)
    assert all(r.ranks.tubal == 6 for r in trace.rows)
    assert all(r.event == "" for r in trace.rows)


# ------------------------------------------------- rank growth at a high start


def interpolating_problem(seed=0):
    """The acceptance suite's criterion-4 instance: tubal rank 3, 3,000 of 5,000 seen.

    A rank-8 start carries 8 * (50 + 10 - 8) * 10 = 4,160 degrees of freedom,
    enough to interpolate the observations.
    """
    truth = synth_low_tubal(50, 10, 10, 3, seed)
    matrix = tensor_to_matrix(truth, 100)
    mask3 = generate_mask((50, 100, 1), 0.6, seed)
    return matrix, CompletionProblem.from_matrix(matrix, mask3.observed[:, :, 0], 10)


def test_interpolating_start_grows_ranks_from_one_under_the_ceiling():
    _, prob = interpolating_problem()
    _, _, trace = solve(prob, SolverConfig(init_ranks=8, seed=0))
    assert trace.rows[0].ranks == MultiRank.constant(1, 10)
    assert all(r <= 8 for row in trace.rows for r in row.ranks)
    accepted = [r for r in trace.rows if r.event != "sor_reject"]
    grown = 0
    for prev, cur in zip(accepted[:-1], accepted[1:]):
        if any(c > p for c, p in zip(cur.ranks, prev.ranks)):
            assert "rank_increase" in prev.event
            grown += 1
    assert grown >= 2
    assert trace.converged and trace.rows[-1].ranks == MultiRank.constant(3, 10)
    # the sweep after a growth step is never the one that stops
    assert "rank_increase" not in accepted[-2].event


def test_rejected_sweeps_count_against_the_sweep_limit():
    _, prob = interpolating_problem()
    _, _, trace = solve(prob, SolverConfig(init_ranks=8, seed=0, max_iter=20))
    assert trace.termination == "max_iter"
    assert [r.iteration for r in trace.rows] == list(range(1, 21))
    assert any(r.event == "sor_reject" for r in trace.rows)


def test_interpolating_start_keeps_its_ranks_without_rank_detection():
    _, prob = interpolating_problem()
    cfg = SolverConfig(init_ranks=8, seed=0, max_iter=3, rank_cfg=RankDecreaseConfig(enabled=False))
    _, _, trace = solve(prob, cfg)
    assert all(r.ranks == MultiRank.constant(8, 10) and r.event == "" for r in trace.rows)


def test_rank_growth_rejects_a_relaxed_sweep_that_does_not_descend():
    growth = RankGrowth((3,))
    assert growth.accept(10.0) and growth.accept(9.0)
    assert growth.omega > 1.0  # slow contraction raises the relaxation weight
    assert not growth.accept(9.5)
    assert growth.omega == 1.0
    assert growth.accept(9.5)  # at omega = 1 no sweep is rejected


def test_the_sweep_after_a_rejection_is_not_stop_tested(monkeypatch):
    verdicts = iter([False])  # reject sweep 1, accept every later one
    monkeypatch.setattr(RankGrowth, "accept", lambda self, residual: next(verdicts, True))
    monkeypatch.setattr(RankGrowth, "converged", lambda self, rel, epsilon: True)
    _, prob = interpolating_problem()
    _, _, trace = solve(prob, SolverConfig(init_ranks=8, seed=0))
    assert trace.rows[0].event == "sor_reject"
    assert trace.converged and trace.iterations == 3  # the redo, sweep 2, does not stop


def test_rank_growth_stop_scales_relative_change_by_contraction():
    growth = RankGrowth((3,))
    for res in (1000.0, 900.0, 810.0, 729.0):
        growth.accept(res)
    # rho = 0.9: a relative change of 1e-5 leaves up to 9e-5 to go
    assert growth.converged(1e-5, 1e-4)
    assert not growth.converged(2e-5, 1e-4)


# ---------------------------------------------------------------------- trace


def test_trace_csv_layout(tmp_path):
    _, prob = easy_problem(seed=18)
    _, _, trace = solve(prob, SolverConfig(init_ranks=3, seed=0, max_iter=5, epsilon=1e-15))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["iter", "g", "rel_change", "ranks", "elapsed_ms", "event"]
    assert len(rows) == 1 + trace.iterations
    for row, rec in zip(rows[1:], trace.rows):
        assert int(row[0]) == rec.iteration
        assert float(row[1]) == rec.objective
        assert float(row[2]) == rec.rel_change
        assert row[3] == ";".join(str(v) for v in rec.ranks)
        float(row[4])


def test_trace_iterations_count_from_one():
    _, prob = easy_problem(seed=19)
    _, _, trace = solve(prob, SolverConfig(init_ranks=3, seed=0, max_iter=3, epsilon=1e-15))
    assert [r.iteration for r in trace.rows] == [1, 2, 3]


# ----------------------------------------------------------------------- kkt


def kkt_oracle(factors, x, problem):
    """Residuals recomputed on the full spectrum with explicit slice loops."""
    n1, n2, n3 = factors.dims
    specf = np.fft.fft(np.asarray(x, float), axis=2)
    prodf = np.fft.fft(compose(factors), axis=2)
    diff = specf - prodf
    half = half_count(n3)
    r_left_sq = r_right_sq = 0.0
    for k in range(n3):
        ks = k if k < half else n3 - k
        l = factors.left[ks] if k < half else np.conj(factors.left[ks])
        r = factors.right[ks] if k < half else np.conj(factors.right[ks])
        r_left_sq += np.linalg.norm(diff[:, :, k] @ r.conj().T) ** 2
        r_right_sq += np.linalg.norm(l.conj().T @ diff[:, :, k]) ** 2
    off = np.where(problem.mask.observed, 0.0, x - compose(factors))
    scale = fro_norm(problem.observed) or 1.0
    return np.sqrt(r_left_sq) / scale, np.sqrt(r_right_sq) / scale, fro_norm(off) / scale


def test_kkt_residuals_match_full_spectrum_oracle():
    rng = np.random.default_rng(20)
    for n3 in (1, 2, 4, 5):
        data, prob = easy_problem(seed=int(rng.integers(1 << 30)), n3=n3)
        f = init_factors(*prob.dims, 3, seed=int(rng.integers(1 << 30)))
        spec = dft_mode3(prob.observed)
        f = update_right(update_left(f, spec), spec)
        x = update_x(f, prob)
        got = matrix_kkt_residuals(f, x, prob)
        want = kkt_oracle(f, x, prob)
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-10 * max(w, 1.0)


def test_kkt_residuals_vanish_at_exact_solution():
    data = low_rank_tensor(10, 8, 4, 2, seed=21)
    prob = CompletionProblem.from_tensor(data, np.ones(data.shape, dtype=bool))
    x, _, trace = solve(prob, SolverConfig(init_ranks=2, seed=0, max_iter=30, epsilon=1e-14))
    r_left, r_right, r_off = matrix_kkt_residuals(trace.final_factors, x, prob)
    assert r_off == 0.0
    assert r_left <= 1e-6 and r_right <= 1e-6


def test_solve_records_final_factors():
    _, prob = easy_problem(seed=22)
    x, _, trace = solve(prob, SolverConfig(init_ranks=3, seed=0, max_iter=5, epsilon=1e-15))
    comp = compose(trace.final_factors)
    free = ~prob.mask.observed
    assert np.array_equal(x[free], comp[free])
