"""Matrix completion solver: problem folding, sweeps, stopping, traces, KKT."""

import csv
from types import SimpleNamespace

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
    fro_norm,
    generate_mask,
    half_count,
    idft_mode3,
    matrix_kkt_residuals,
    matrix_objective,
    project,
    rel_error,
    reshape_matrix_to_tensor,
    synth_low_tubal,
    tensor_to_matrix,
    tprod,
    update_left,
    update_right,
)
from tubal.factors import init_factors
from tubal.matrix_completion import MOMENTUM_CAP, RankGrowth, solve
from tubal.tensor_completion import DoubleTubalConfig, solve as tensor_solve


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def low_rank_tensor(n1, n2, n3, r, seed):
    rng = np.random.default_rng(seed)
    return tprod(rng.standard_normal((n1, r, n3)), rng.standard_normal((r, n2, n3)))


def easy_problem(seed=0, ratio=0.7, n1=12, n2=8, n3=4, r=2):
    data = low_rank_tensor(n1, n2, n3, r, seed)
    mask = generate_mask((n1, n2, n3), ratio, seed=seed + 1)
    return data, CompletionProblem.from_tensor(data * mask.observed, mask)


def filled(factors, problem):
    """The observed entries, the factorization everywhere else."""
    return np.where(problem.mask.observed, problem.observed, compose(factors))


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


def test_from_matrix_rejects_a_non_integer_n2():
    for n2 in (2.5, True):
        with pytest.raises(ValueError, match="n2 must be an integer"):
            CompletionProblem.from_matrix(np.ones((3, 6)), np.ones((3, 6), dtype=bool), n2)


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
    for max_iter in (0, 2.5, float("nan")):
        with pytest.raises(ValueError, match=f"max_iter must be an integer of at least 1, got {max_iter}"):
            SolverConfig(init_ranks=2, max_iter=max_iter)
    for t0 in (-1, 2.5, float("nan")):
        with pytest.raises(ValueError, match=f"t0 must be a nonnegative integer, got {t0}"):
            SolverConfig(init_ranks=2, t0=t0)
    for seed in (-1, 1.5, True):
        with pytest.raises(ValueError, match=f"seed must be a nonnegative integer, got {seed}"):
            SolverConfig(init_ranks=2, seed=seed)
    for name in ("max_iter", "t0"):
        for flag in (True, False):
            with pytest.raises(ValueError, match=f"{name} must be .*, got {flag}"):
                SolverConfig(init_ranks=2, **{name: flag})
    assert SolverConfig(init_ranks=2, max_iter=np.int64(3), t0=np.int32(0), seed=np.uint8(1)).max_iter == 3
    for epsilon in (True, "no", float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"epsilon must be finite and exceed 0, got {epsilon}"):
            SolverConfig(init_ranks=2, epsilon=epsilon)


# -------------------------------------------------------------------- objective


def test_objective_matches_spatial_formula():
    f = init_factors(6, 5, 4, 3, seed=3)
    x = rand((6, 5, 4), 4)
    direct = 0.5 * fro_norm(compose(f) - x) ** 2
    assert abs(matrix_objective(f, x) - direct) <= 1e-12 * max(direct, 1.0)


def test_update_x_is_exact_on_observed_entries():
    data, prob = easy_problem(seed=5)
    x, _, trace = solve(prob, SolverConfig(init_ranks=4, seed=6, max_iter=1))
    assert np.array_equal(x[prob.mask.observed], prob.observed[prob.mask.observed])
    # unobserved entries come from the factorization
    comp = compose(trace.final_factors)
    free = ~prob.mask.observed
    assert np.array_equal(x[free], comp[free])


# ---------------------------------------------------------------------- solve


def test_index_refill_matches_project_on_a_strided_array():
    _, prob = easy_problem(seed=42)
    a = rand((4, 16, 12), 43)[:, ::2].transpose(2, 1, 0)  # a strided view
    assert not a.flags.c_contiguous
    want = project(a, prob.mask, prob.observed)
    got = mc._refill(a.copy(order="K"), mc._observed_index(prob))
    assert not got.flags.c_contiguous
    assert np.array_equal(got, want)


def zeros_problem(seed):
    """A problem with an F-ordered generate_mask, observed zeros and negative values, and
    an iterate-shaped C-ordered array."""
    dims = (6, 5, 4)
    mask = generate_mask(dims, 0.5, seed=seed)
    assert mask.observed.flags.f_contiguous and not mask.observed.flags.c_contiguous
    data = rand(dims, seed + 1)
    data[::2, ::3] = 0.0
    return CompletionProblem.from_tensor(data, mask), rand(dims, seed + 2)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_refill_is_project_byte_for_byte_on_any_layout(layout):
    prob, a = zeros_problem(seed=7)
    assert (prob.observed[prob.mask.observed] == 0).any() and (prob.observed < 0).any()
    if layout == "F":
        a = np.asfortranarray(a)
    elif layout == "strided":
        wide = np.zeros((6, 10, 4))
        wide[:, ::2] = a
        a = wide[:, ::2]
        assert not (a.flags.c_contiguous or a.flags.f_contiguous)
    want = project(a, prob.mask, prob.observed)
    got = mc._refill(a, mc._observed_index(prob))
    assert got is a
    assert got.tobytes() == want.tobytes()


def test_gamma_refit_reads_the_observed_residuals_of_each_side():
    prob, a = zeros_problem(seed=8)
    b = np.asfortranarray(rand(prob.dims, 11))
    idx = np.flatnonzero(prob.mask.observed)
    values = prob.observed.take(idx)
    want = fro_norm(a.take(idx) - values) / fro_norm(b.take(idx) - values)
    sides = [SimpleNamespace(seen_by=lambda layout, v=v: v) for v in (a, b)]
    got = mc._refit_gamma(sides, mc._observed_index(prob), 0.5)
    assert abs(got - want) <= 1e-14 * want
    exact = SimpleNamespace(seen_by=lambda layout: prob.observed)  # no residual: gamma stays put
    assert mc._refit_gamma([sides[0], exact], mc._observed_index(prob), 0.5) == 0.5


@pytest.mark.parametrize("power", [-100, -40, 40])
def test_solution_scales_with_the_data(power):
    # the stop test is relative: data in tiny units does not "converge" after one sweep
    truth = synth_low_tubal(30, 30, 8, 2, seed=2)
    mask = generate_mask(truth.shape, 0.5, seed=2)
    config = SolverConfig(init_ranks=3, max_iter=60)
    x, _, trace = solve(CompletionProblem.from_tensor(truth, mask), config)
    scale = 2.0 ** power
    xs, _, scaled = solve(CompletionProblem.from_tensor(truth * scale, mask), config)
    assert scaled.iterations == trace.iterations == 51
    assert xs.tobytes() == (x * scale).tobytes()


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


def test_disabled_rank_detection_never_runs(monkeypatch):
    calls, original = [], mc.rank_decrease

    def recording(factors, cfg):
        out = original(factors, cfg)
        calls.append((factors, out))
        return out

    monkeypatch.setattr(mc, "rank_decrease", recording)
    _, prob = easy_problem(seed=14)
    off = RankDecreaseConfig(enabled=False)
    solve(prob, SolverConfig(init_ranks=3, seed=0, max_iter=12, rank_cfg=off))
    tensor_solve(prob, DoubleTubalConfig(init_ranks=3, seed=0, max_iter=12, rank_cfg=off))
    assert calls and all(out[0] is factors and not out[2] for factors, out in calls)
    del calls[:]
    tensor_solve(prob, DoubleTubalConfig(init_ranks=3, seed=0, max_iter=12))
    assert any(out[2] for _, out in calls)  # the same run with detection on does cut


def test_solver_is_deterministic():
    _, prob = easy_problem(seed=13)
    cfg = SolverConfig(init_ranks=3, seed=4, max_iter=12, epsilon=1e-12)
    x1, _, t1 = solve(prob, cfg)
    x2, _, t2 = solve(prob, cfg)
    assert x1.tobytes() == x2.tobytes()
    assert t1.objectives().tobytes() == t2.objectives().tobytes()
    assert [r.rel_change for r in t1.rows] == [r.rel_change for r in t2.rows]


@pytest.mark.parametrize("block", [1, 7, 10**9])
def test_blocked_relative_change_matches_the_norm_ratio(monkeypatch, block):
    monkeypatch.setattr(mc.core, "BLOCK", block)
    new, old = rand((5, 4, 3), 50), rand((5, 4, 3), 51)
    want = np.linalg.norm(new - old) / np.linalg.norm(old)
    assert abs(mc._rel_change(new, old) - want) <= 1e-14 * want
    strided = rand((3, 8, 5), 52)[:, ::2].transpose(2, 1, 0)  # a strided view
    want = np.linalg.norm(strided - old) / np.linalg.norm(old)
    assert abs(mc._rel_change(strided, old) - want) <= 1e-14 * want
    assert mc._rel_change(new, np.zeros_like(old)) == pytest.approx(np.linalg.norm(new), rel=1e-14)
    for k in (-40, -3, 5, 40):  # a power of two scales every partial sum exactly
        assert mc._rel_change(new * 2.0**k, old * 2.0**k) == mc._rel_change(new, old)


def test_solves_are_byte_identical_at_any_block_size(monkeypatch):
    _, prob = easy_problem(seed=13)
    runs = []
    for block in (mc.core.BLOCK, 7):
        monkeypatch.setattr(mc.core, "BLOCK", block)
        for ranks in (2, 8):  # a plain start and a growing one, both converging
            x, _, trace = solve(prob, SolverConfig(init_ranks=ranks, seed=4))
            logged = np.array([(r.objective, r.rel_change, r.step_sq) for r in trace.rows])
            runs.append((x.tobytes(), logged.tobytes(), trace.iterations, trace.termination))
    assert runs[:2] == runs[2:]


def test_one_sweep_is_the_public_steps_composed():
    for n3 in (1, 4, 5):
        _, prob = easy_problem(seed=23 + n3, n3=n3)
        cfg = SolverConfig(
            init_ranks=3, seed=7, t0=0, max_iter=1, rank_cfg=RankDecreaseConfig(enabled=False)
        )
        x, _, trace = solve(prob, cfg)
        spec = dft_mode3(prob.observed)
        f = update_right(update_left(init_factors(*prob.dims, 3, seed=7), spec), spec)
        want = filled(f, prob)
        assert x.tobytes() == want.tobytes()
        assert trace.rows[0].objective == matrix_objective(f, want)


def test_non_finite_objective_raises(monkeypatch):
    _, prob = easy_problem(seed=14)
    close = mc._close  # the closing pass, with its objective made non-finite
    monkeypatch.setattr(mc, "_close", lambda *a: (float("nan"),) + close(*a)[1:])
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


def test_rank_detection_runs_on_every_sweep(monkeypatch):
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
    _, _, trace = solve(prob, cfg)
    assert len(calls) == trace.iterations == 12


def test_a_gap_that_opens_late_is_still_cut():
    # the eigen-gaps of this instance open only at sweeps 9 and 10
    truth = synth_low_tubal(30, 30, 8, 2, seed=2)
    mask = generate_mask(truth.shape, 0.5, seed=2)
    config = SolverConfig(init_ranks=3, max_iter=60)
    x, _, trace = solve(CompletionProblem.from_tensor(truth, mask), config)
    assert [r.iteration for r in trace.rows if r.event] == [9, 10]
    assert rel_error(x, truth) < 1e-2


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
    grown = 0
    for prev, cur in zip(trace.rows[:-1], trace.rows[1:]):
        if any(c > p for c, p in zip(cur.ranks, prev.ranks)):
            assert "rank_increase" in prev.event
            grown += 1
    assert grown >= 2
    assert trace.converged and trace.rows[-1].ranks == MultiRank.constant(3, 10)
    # the sweep after a growth step is never the one that stops
    assert "rank_increase" not in trace.rows[-2].event


def test_interpolating_start_recovers_37_of_40_further_seeds():
    """Criterion 4's instance on seeds 10-49, beyond the ten the acceptance gate runs."""
    hits = 0
    for seed in range(10, 50):
        matrix, prob = interpolating_problem(seed)
        _, recovered, _ = solve(prob, SolverConfig(init_ranks=8, seed=seed))
        hits += rel_error(recovered, matrix) <= 1e-3
    assert hits >= 37


def test_interpolating_start_keeps_its_ranks_without_rank_detection():
    _, prob = interpolating_problem()
    cfg = SolverConfig(init_ranks=8, seed=0, max_iter=3, rank_cfg=RankDecreaseConfig(enabled=False))
    _, _, trace = solve(prob, cfg)
    assert all(r.ranks == MultiRank.constant(8, 10) and r.event == "" for r in trace.rows)


def test_an_interpolating_ceiling_above_the_slice_size_is_refused():
    # rank 12 on 50 x 10 slices could interpolate, so the run would start at rank 1
    _, prob = interpolating_problem()
    with pytest.raises(ValueError, match="initial rank 12 exceeds"):
        solve(prob, SolverConfig(init_ranks=12))


def test_rank_growth_momentum_follows_its_schedule_and_restarts():
    growth = RankGrowth((3, 3, 3))
    betas = []
    for res in range(100, 0, -10):  # k = 0, 1, ..., 9 falls in a row
        growth.record(float(res))
        betas.append(growth.beta)
    schedule = [0.0, 0.0, 1 / 4, 2 / 5, 3 / 6, 4 / 7, 5 / 8, 6 / 9, 7 / 10, 8 / 11]  # (k-1)/(k+2)
    assert betas == [min(MOMENTUM_CAP, b) for b in schedule]

    growth.record(15.0)  # a rise restarts it
    assert growth.falls == 0 and growth.beta == 0.0
    growth.record(14.0)
    growth.record(13.0)
    assert growth.beta == 1 / 4
    growth.record(12.0, one_side=False)  # so does a blended sweep, even one that fell
    assert growth.falls == 0 and growth.beta == 0.0

    for res in (11.99, 11.98, 11.97):  # the residual plateaus: the next growth test grows
        growth.record(res)
    assert growth.beta == 2 / 5
    side = mc._Side(init_factors(12, 8, 4, 1, seed=0)).fit(rand((12, 8, 4), 1))
    assert growth.grow(side)  # and a growth step restarts it too
    assert growth.falls == 0 and growth.beta == 0.0


def test_the_sweep_after_a_fall_fits_the_extrapolated_iterate(monkeypatch):
    calls, fitted = [], []
    orig_extrapolate, orig_update_left = RankGrowth.extrapolate, mc.update_left

    def extrapolate(self, side):
        x = side.spec
        orig_extrapolate(self, side)
        calls.append((x, self.beta, side.spec))

    def update_left(factors, spec):
        fitted.append(spec)
        return orig_update_left(factors, spec)

    monkeypatch.setattr(RankGrowth, "extrapolate", extrapolate)
    monkeypatch.setattr(mc, "update_left", update_left)
    _, prob = interpolating_problem()
    _, _, trace = solve(prob, SolverConfig(init_ranks=8, seed=0))
    assert len(calls) == trace.iterations - 1  # every sweep but the one that stops
    # sweep t + 1 fits the spectrum that sweep t left
    assert len(fitted) == trace.iterations and all(f is y for f, (_, _, y) in zip(fitted[1:], calls))
    seen = prob.mask.observed
    scale = np.abs(prob.observed).max()
    extrapolated = 0
    for (prev_spec, _, _), (x_spec, beta, y_spec) in zip(calls, calls[1:]):
        x_prev, x, y = idft_mode3(prev_spec), idft_mode3(x_spec), idft_mode3(y_spec)
        want = x + beta * (x - x_prev)
        assert fro_norm(y - want) <= 1e-12 * fro_norm(want)
        assert np.abs(y[seen] - prob.observed[seen]).max() <= 1e-12 * scale
        assert (y_spec is x_spec) == (beta == 0.0)
        extrapolated += beta > 0.0
    assert extrapolated >= len(calls) // 2
    grown = [y is x for (x, _, y), row in zip(calls, trace.rows) if "rank_increase" in row.event]
    assert grown and all(grown)  # a growth step restarts the momentum
    assert trace.converged


def test_rank_growth_stop_scales_relative_change_by_contraction():
    growth = RankGrowth((3,))
    for res in (1000.0, 900.0, 810.0, 729.0):
        growth.record(res)
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
        x = filled(f, prob)
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
