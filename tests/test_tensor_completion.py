"""Blended double-factorization solver: geometry, blending, gamma, ranks, KKT."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import tubal.matrix_completion as mc
import tubal.tensor_completion as tc
from tubal import (
    BlockFactors,
    CompletionProblem,
    DoubleFactors,
    MultiRank,
    DoubleTubalConfig,
    RankDecreaseConfig,
    SolverConfig,
    compose,
    dft_mode3,
    double_tubal_rank,
    fold3_from_reshaped,
    fro_norm,
    generate_mask,
    half_count,
    matrix_kkt_residuals,
    matrix_objective,
    rel_error,
    reshape_mode3,
    synth_low_tubal,
    tensor_kkt_residuals,
    tensor_to_matrix,
    tensor_objective,
    tprod,
    update_left,
    update_right,
)
from tubal.factors import compose_spectral, init_factors, slice_solves
from tubal.matrix_completion import SIDE_OFF_GAMMA
from tubal.matrix_completion import solve as msolve
from tubal.tensor_completion import default_geometry, geometry, solve


def rand(shape, seed):
    return np.random.default_rng(seed).standard_normal(shape)


def low_rank_tensor(n1, n2, n3, r, seed):
    rng = np.random.default_rng(seed)
    return tprod(rng.standard_normal((n1, r, n3)), rng.standard_normal((r, n2, n3)))


def partial_problem(seed=0, ratio=0.7, n1=10, n2=8, n3=4, r=2):
    data = low_rank_tensor(n1, n2, n3, r, seed)
    mask = generate_mask((n1, n2, n3), ratio, seed=seed + 1)
    return data, CompletionProblem.from_tensor(data * mask.observed, mask)


def dfactors_for(problem, init_ranks=3, init_ranks_xt=2, gamma=1.0, seed=0):
    n1, n2, n3 = problem.dims
    p, q = default_geometry(n1, n2)
    rng = np.random.default_rng(seed)
    f_x = init_factors(n1, n2, n3, init_ranks, rng)
    f_xt = init_factors(n3, p, q, init_ranks_xt, rng)
    return DoubleFactors(f_x, f_xt, gamma)


def blended(d, problem):
    """The observed entries, the gamma blend of both sides' reconstructions everywhere else."""
    other = fold3_from_reshaped(compose(d.f_xt), problem.dims)
    blend = (compose(d.f_x) + d.gamma * other) / (1.0 + d.gamma)
    return np.where(problem.mask.observed, problem.observed, blend)


def refit_gamma(d, problem):
    """The engine's gamma refit (matrix_completion._refit_gamma) at the factors of d."""
    sides = tc._sides(d.f_x, d.f_xt, problem.dims)
    return mc._refit_gamma(sides, mc._observed_index(problem), d.gamma)


# ------------------------------------------------------------------- geometry


def test_default_geometry_picks_largest_divisor_up_to_cap():
    assert default_geometry(50, 100) == (100, 50)
    assert default_geometry(256, 256) == (1024, 64)
    assert default_geometry(3, 5) == (1, 15)


def test_config_geometry_fills_missing_side():
    assert geometry(20, None, (10, 8)) == (20, 4)
    assert geometry(None, 16, (10, 8)) == (5, 16)
    assert geometry(None, None, (10, 8)) == default_geometry(10, 8)


def test_config_geometry_rejects_bad_shapes():
    with pytest.raises(ValueError):
        geometry(3, None, (10, 8))
    with pytest.raises(ValueError):
        geometry(None, 7, (10, 8))
    with pytest.raises(ValueError):
        geometry(8, 8, (10, 8))


def test_config_validation():
    with pytest.raises(ValueError):
        DoubleTubalConfig(init_ranks=2, gamma0=-0.5)
    for p, q in ((4.0, None), (None, True), (0, None), (None, -1), (float("nan"), None)):
        with pytest.raises(ValueError, match=f"p and q must be integers >= 1, got p={p}, q={q}"):
            DoubleTubalConfig(init_ranks=2, p=p, q=q)
        with pytest.raises(ValueError, match=f"p and q must be integers >= 1, got p={p}, q={q}"):
            double_tubal_rank(rand((4, 6, 3), 0), p=p, q=q)
    assert geometry(np.int64(4), 20, (10, 8)) == (4, 20)
    for p, q in (("no", None), (None, float("inf"))):
        with pytest.raises(ValueError, match="p and q must be integers >= 1"):
            DoubleTubalConfig(init_ranks=2, p=p, q=q)
    for gamma0 in (True, "no", float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"gamma0 must be finite and at least 0, got {gamma0}"):
            DoubleTubalConfig(init_ranks=2, gamma0=gamma0)
    for adaptive in ("no", float("nan"), float("inf"), 1, None):
        with pytest.raises(ValueError, match=f"adaptive_gamma must be a bool, got {adaptive}"):
            DoubleTubalConfig(init_ranks=2, adaptive_gamma=adaptive)
    assert not DoubleTubalConfig(init_ranks=2, adaptive_gamma=np.False_).adaptive_gamma


def test_double_factors_validate_compatibility():
    _, prob = partial_problem(seed=1)
    d = dfactors_for(prob)
    with pytest.raises(ValueError):
        DoubleFactors(d.f_x, d.f_xt, -1.0)
    for gamma in (float("nan"), float("inf"), True):
        with pytest.raises(ValueError, match=f"gamma must be finite and at least 0, got {gamma}"):
            DoubleFactors(d.f_x, d.f_xt, gamma)
    n1, n2, n3 = prob.dims
    wrong = init_factors(n3 + 1, n1 * n2, 1, 1, seed=0)
    with pytest.raises(ValueError):
        DoubleFactors(d.f_x, wrong, 1.0)


# ------------------------------------------------------------------- blending


def test_blend_with_zero_gamma_uses_only_slice_side():
    _, prob = partial_problem(seed=2)
    cfg = DoubleTubalConfig(init_ranks=3, gamma0=0.0, adaptive_gamma=False, max_iter=1, seed=0)
    x, trace = solve(prob, cfg)
    base = compose(trace.final_factors.f_x)
    free = ~prob.mask.observed
    assert np.array_equal(x[free], base[free])
    assert np.array_equal(x[prob.mask.observed], prob.observed[prob.mask.observed])


def test_blend_averages_both_sides():
    _, prob = partial_problem(seed=3)
    cfg = DoubleTubalConfig(init_ranks=3, gamma0=0.5, adaptive_gamma=False, max_iter=1, seed=0)
    x, trace = solve(prob, cfg)
    d = trace.final_factors
    base = compose(d.f_x)
    other = fold3_from_reshaped(compose(d.f_xt), prob.dims)
    want = (base + 0.5 * other) / 1.5
    free = ~prob.mask.observed
    assert np.allclose(x[free], want[free], rtol=0, atol=1e-15)


def test_update_reshaped_factors_fits_regrouped_iterate():
    _, prob = partial_problem(seed=4)
    cfg = DoubleTubalConfig(init_ranks=3, init_ranks_xt=1, t0=0, max_iter=1, epsilon=1e-300,
                            adaptive_gamma=False, rank_cfg=RankDecreaseConfig(enabled=False))
    x, trace = solve(prob, cfg)  # the second sweep's regrouped update fits x regrouped
    d, d2 = trace.final_factors, solve(prob, replace(cfg, max_iter=2))[1].final_factors
    p, q = d.f_xt.dims[1], d.f_xt.dims[2]
    xt = reshape_mode3(x, p, q)
    before = fro_norm(compose(d.f_xt) - xt)
    after = fro_norm(compose(d2.f_xt) - xt)
    assert after <= before + 1e-12


# ---------------------------------------------------------------------- gamma


def test_update_gamma_is_residual_ratio():
    _, prob = partial_problem(seed=5)
    cfg = DoubleTubalConfig(init_ranks=3, init_ranks_xt=1, max_iter=1, epsilon=1e-300)
    d = solve(prob, cfg)[1].final_factors  # the second sweep's gamma is refit to these
    m = prob.mask.observed
    base = compose(d.f_x)
    other = fold3_from_reshaped(compose(d.f_xt), prob.dims)
    want = fro_norm(np.where(m, base - prob.observed, 0.0)) / fro_norm(
        np.where(m, other - prob.observed, 0.0)
    )
    got = solve(prob, replace(cfg, max_iter=2))[1].rows[1].gamma
    assert abs(got - want) <= 1e-12 * want


def test_update_gamma_keeps_value_when_regrouped_side_is_exact():
    n1, n2, n3 = 6, 4, 3
    p, q = 8, 3
    rng = np.random.default_rng(7)
    f_xt = init_factors(n3, p, q, 2, rng)
    data = fold3_from_reshaped(compose(f_xt), (n1, n2, n3))
    prob = CompletionProblem.from_tensor(data, np.ones((n1, n2, n3), dtype=bool))
    f_x = init_factors(n1, n2, n3, 2, rng)
    d = DoubleFactors(f_x, f_xt, 0.7)
    assert refit_gamma(d, prob) == 0.7


@pytest.mark.parametrize("scale", [2.0**-60, 2.0**60], ids=["2^-60", "2^60"])
def test_update_gamma_does_not_depend_on_units(scale):
    _, prob = partial_problem(seed=5)
    d = dfactors_for(prob, gamma=0.7)
    scaled = lambda f: BlockFactors(f.dims, f.ranks, [a * scale for a in f.left], f.right)  # noqa: E731
    d_scaled = DoubleFactors(scaled(d.f_x), scaled(d.f_xt), d.gamma)
    prob_scaled = CompletionProblem.from_tensor(prob.observed * scale, prob.mask)
    assert refit_gamma(d_scaled, prob_scaled) == refit_gamma(d, prob) != d.gamma


SOLVE_AND_DIGEST = """
import hashlib
import numpy as np
from tubal import CompletionProblem, DoubleTubalConfig, complete_tensor, generate_mask
from tubal import synth_low_tubal
truth, mask = synth_low_tubal(40, 40, 10, 3, 0), generate_mask((40, 40, 10), 0.6, 0)
problem = CompletionProblem.from_tensor(truth * mask.observed, mask)
x, trace = complete_tensor(problem, DoubleTubalConfig(init_ranks=3, seed=0))
rows = np.array([(r.gamma, r.objective) for r in trace.rows])
print(hashlib.sha256(x.tobytes()).hexdigest(), hashlib.sha256(rows.tobytes()).hexdigest())
"""


def test_gamma_and_x_do_not_depend_on_the_blas_thread_count():
    """The gamma refit's norms (core.fro_norm) are summed without BLAS; on this instance a
    BLAS dot there gave another gamma history, and so another x, at two threads than at one."""
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        r = subprocess.run([sys.executable, "-c", SOLVE_AND_DIGEST], env=env,
                           capture_output=True, text=True, check=True)
        digests.append(r.stdout)
    assert digests[0] == digests[1]


# ------------------------------------------------------------------ objective


def test_objective_matches_spatial_formula():
    _, prob = partial_problem(seed=8)
    d = dfactors_for(prob, gamma=0.4)
    x = rand(prob.dims, 9)
    p, q = d.f_xt.dims[1], d.f_xt.dims[2]
    direct = 0.5 * fro_norm(compose(d.f_x) - x) ** 2
    direct += 0.4 * 0.5 * fro_norm(compose(d.f_xt) - reshape_mode3(x, p, q)) ** 2
    got = tensor_objective(d, x)
    assert abs(got - direct) <= 1e-12 * max(direct, 1.0)


def test_objective_drops_regrouped_term_at_zero_gamma():
    _, prob = partial_problem(seed=10)
    d = dfactors_for(prob, gamma=0.0)
    x = rand(prob.dims, 11)
    direct = 0.5 * fro_norm(compose(d.f_x) - x) ** 2
    assert abs(tensor_objective(d, x) - direct) <= 1e-12 * max(direct, 1.0)


# ---------------------------------------------------------------------- solve


def test_fully_observed_problem_is_reproduced_exactly():
    data = low_rank_tensor(8, 6, 4, 2, seed=12)
    prob = CompletionProblem.from_tensor(data, np.ones(data.shape, dtype=bool))
    x, trace = solve(prob, DoubleTubalConfig(init_ranks=3, seed=0))
    assert np.array_equal(x, data)
    assert trace.converged and trace.iterations <= 2


def test_zero_gamma_reduces_to_the_single_factorization_solver():
    _, prob = partial_problem(seed=13, n1=12, n2=10)
    kw = dict(init_ranks=3, seed=4, t0=5, max_iter=25, epsilon=1e-10)
    xt, ttrace = solve(prob, DoubleTubalConfig(gamma0=0.0, adaptive_gamma=False, **kw))
    xm, _, mtrace = msolve(prob, SolverConfig(**kw))
    assert np.array_equal(xt, xm)
    assert ttrace.iterations == mtrace.iterations
    assert np.array_equal(ttrace.objectives(), mtrace.objectives())
    assert [r.rel_change for r in ttrace.rows] == [r.rel_change for r in mtrace.rows]


def test_pinned_zero_gamma_runs_the_slice_side_alone(tmp_path):
    _, prob = partial_problem(seed=13, n1=12, n2=10)
    kw = dict(init_ranks=3, seed=4, t0=5, max_iter=25, epsilon=1e-10)
    slice_solves.reset()
    _, ttrace = solve(prob, DoubleTubalConfig(gamma0=0.0, adaptive_gamma=False, **kw))
    tensor_solves = slice_solves.count
    slice_solves.reset()
    msolve(prob, SolverConfig(**kw))
    assert tensor_solves == slice_solves.count
    # rank 2 is full on the (4, 2, 60) regrouping, so _start starts that side at rank 1
    starts, _ = mc._start(prob, DoubleTubalConfig(**kw), (4, *default_geometry(12, 10)))
    start = dfactors_for(prob, *starts, seed=4).f_xt
    f_xt = ttrace.final_factors.f_xt
    assert all(np.array_equal(a, b) for a, b in zip(f_xt.left + f_xt.right, start.left + start.right))
    assert all(r.gamma == 0.0 and r.ranks_xt == start.ranks for r in ttrace.rows)
    assert not any("rank_decrease_xt" in r.event for r in ttrace.rows)
    path = tmp_path / "trace.csv"
    ttrace.write_csv(path)
    assert path.read_text().splitlines()[0].split(",")[-2:] == ["gamma", "ranks_xt"]


def interpolating_problem(seed=0):
    """Criterion 4's folded 50x10x10 instance, where a rank-8 start can interpolate."""
    matrix = tensor_to_matrix(synth_low_tubal(50, 10, 10, 3, seed), 100)
    mask3 = generate_mask((50, 100, 1), 0.6, seed)
    return CompletionProblem.from_matrix(matrix, mask3.observed[:, :, 0], 10)


def test_zero_gamma_matches_the_matrix_solver_at_an_interpolating_start():
    prob = interpolating_problem()
    kw = dict(init_ranks=8, seed=0)
    xt, ttrace = solve(prob, DoubleTubalConfig(gamma0=0.0, adaptive_gamma=False, **kw))
    xm, _, mtrace = msolve(prob, SolverConfig(**kw))
    assert float(np.max(np.abs(xt - xm))) <= 1e-10
    assert [r.ranks for r in ttrace.rows] == [r.ranks for r in mtrace.rows]
    assert any("rank_increase" in r.event for r in ttrace.rows)
    assert ttrace.termination == mtrace.termination


def test_interpolating_start_grows_slice_ranks_only():
    # 16 * (40 + 40 - 16) * 10 = 10,240 slice-side degrees of freedom against
    # 9,600 observed entries; the regrouped side at rank 3 carries 5,010.
    truth = synth_low_tubal(40, 40, 10, 3, 0)
    mask = generate_mask(truth.shape, 0.6, 0)
    prob = CompletionProblem.from_tensor(truth * mask.observed, mask)
    cfg = DoubleTubalConfig(init_ranks=16, init_ranks_xt=3, p=160, q=10, seed=0)
    x, trace = solve(prob, cfg)
    assert trace.rows[0].ranks == MultiRank.constant(1, 10)
    assert all(r <= 16 for row in trace.rows for r in row.ranks)
    assert all(row.ranks_xt.tubal <= 3 for row in trace.rows)
    for prev, cur in zip(trace.rows[:-1], trace.rows[1:]):
        if any(c > p for c, p in zip(cur.ranks, prev.ranks)):
            assert "rank_increase" in prev.event
    assert trace.converged and trace.rows[-1].ranks == MultiRank.constant(3, 10)
    assert fro_norm(x - truth) / fro_norm(truth) <= 1e-3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_the_regrouped_default_follows_the_slice_start(seed):
    # the criterion-4 instance at rank 8 grows its slice side from rank 1; a regrouped
    # default taken from the rank-8 ceiling (4,800 degrees of freedom against 3,000
    # observed entries) interpolated the data and ended the run near rel_error 0.5
    truth = synth_low_tubal(50, 10, 10, 3, seed)
    mask = generate_mask(truth.shape, 0.6, seed)
    prob = CompletionProblem.from_tensor(truth * mask.observed, mask)
    x, trace = solve(prob, DoubleTubalConfig(init_ranks=8, seed=seed))
    assert trace.rows[0].ranks_xt == MultiRank.constant(1, 50)
    assert rel_error(x, truth) < 1e-3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_regrouped_side_that_could_interpolate_starts_at_rank_1(seed):
    # at rank 8 the (10, 10, 50) regrouped side carries 4,800 degrees of freedom against
    # 3,000 observed entries; started there it ended near rel_error 0.55 at the sweep cap
    prob = interpolating_problem(seed)
    x, trace = solve(prob, DoubleTubalConfig(init_ranks=8, init_ranks_xt=8, seed=seed))
    assert trace.rows[0].ranks_xt == MultiRank.constant(1, 50)
    default, _ = solve(prob, DoubleTubalConfig(init_ranks=8, seed=seed))
    assert x.tobytes() == default.tobytes()
    truth = tensor_to_matrix(synth_low_tubal(50, 10, 10, 3, seed), 100)
    assert rel_error(tensor_to_matrix(x, 100), truth) < 1e-3


def test_fixed_gamma_objective_descends_in_plain_ordering():
    from tubal import RankDecreaseConfig

    _, prob = partial_problem(seed=14, n1=14, n2=10)
    cfg = DoubleTubalConfig(
        init_ranks=3, init_ranks_xt=3, seed=1, t0=0, gamma0=1.0,
        adaptive_gamma=False, max_iter=30, epsilon=1e-13,
        rank_cfg=RankDecreaseConfig(enabled=False),
    )
    _, trace = solve(prob, cfg)
    g = trace.objectives()
    assert np.all(np.diff(g) <= 1e-12 * np.maximum(g[:-1], 1.0))


def test_adaptive_gamma_is_logged_and_updates_between_sweeps():
    _, prob = partial_problem(seed=15)
    cfg = DoubleTubalConfig(init_ranks=2, seed=0, gamma0=1.0, max_iter=6, epsilon=1e-13)
    _, trace = solve(prob, cfg)
    gammas = [r.gamma for r in trace.rows]
    assert gammas[0] == 1.0  # first sweep blends with the initial weight
    assert any(g != 1.0 for g in gammas[1:])
    assert all(g >= 0 for g in gammas)


def test_fixed_gamma_stays_put():
    _, prob = partial_problem(seed=16)
    cfg = DoubleTubalConfig(
        init_ranks=2, seed=0, gamma0=0.25, adaptive_gamma=False, max_iter=5, epsilon=1e-13
    )
    _, trace = solve(prob, cfg)
    assert all(r.gamma == 0.25 for r in trace.rows)


def criterion_5_problem(seed=0):
    """Criterion 5's instance: a tubal-rank-3 40x40x10 tensor, 60% observed, whose
    (160, 10) regrouping is full rank, so the regrouped side is the wrong model."""
    truth = synth_low_tubal(40, 40, 10, 3, seed)
    mask = generate_mask(truth.shape, 0.6, seed)
    return truth, CompletionProblem.from_tensor(truth * mask.observed, mask)


def counted_solves(run, *args):
    slice_solves.reset()
    out = run(*args)
    return out, slice_solves.count


def test_adaptive_gamma_switches_an_unhelpful_side_off():
    truth, prob = criterion_5_problem()
    kw = dict(init_ranks=3, p=160, q=10, seed=0)
    (x, trace), solves = counted_solves(solve, prob, DoubleTubalConfig(**kw))
    off = [r.iteration for r in trace.rows if "side_off" in r.event]
    assert len(off) == 1
    t = off[0]
    ranks_xt = trace.rows[t - 1].ranks_xt
    later = trace.rows[t:]
    assert later and all(r.gamma == 0.0 and r.ranks_xt == ranks_xt for r in later)
    assert trace.final_factors.gamma == 0.0 and trace.final_factors.f_xt.ranks == ranks_xt
    assert trace.converged and rel_error(x, truth) < 1e-3
    # every sweep after the switch costs what a matrix-solver sweep costs
    _, upto_switch = counted_solves(solve, prob, DoubleTubalConfig(max_iter=t, **kw))
    matrix_cfg = dict(init_ranks=3, seed=0)
    _, one = counted_solves(msolve, prob, SolverConfig(max_iter=1, **matrix_cfg))
    _, two = counted_solves(msolve, prob, SolverConfig(max_iter=2, **matrix_cfg))
    assert solves - upto_switch == len(later) * (two - one)


def test_side_off_fires_on_the_first_refit_below_the_bar(monkeypatch):
    _, prob = criterion_5_problem()
    monkeypatch.setattr(mc, "SIDE_OFF_GAMMA", 0.5)  # sweep 1's refit already reads below it
    _, trace = solve(prob, DoubleTubalConfig(init_ranks=3, p=160, q=10, seed=0))
    assert [r.iteration for r in trace.rows if "side_off" in r.event] == [1]


@pytest.mark.parametrize("n3, extra", [
    (1, {}),
    (3, dict(init_ranks_xt=3, rank_cfg=RankDecreaseConfig(enabled=False))),
], ids=["one slice", "three slices"])
def test_a_regrouped_side_at_full_rank_is_switched_off(n3, extra):
    # its (n3, 6) slices at rank n3 reproduce any data: a residual of about 0 would
    # send gamma soaring and hand the iterate back unchanged
    truth = synth_low_tubal(20, 18, n3, 2, seed=4)
    mask = generate_mask(truth.shape, 0.6, seed=4)
    prob = CompletionProblem.from_tensor(truth * mask.observed, mask)
    x, trace = solve(prob, DoubleTubalConfig(init_ranks=2, **extra))
    assert "side_off" in trace.rows[0].event
    assert rel_error(x, truth) < 1e-2


def traced_peak(run, *args):
    """The tracemalloc peak of run(*args) in bytes, above what was live before the call."""
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        run(*args)
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        if started:
            tracemalloc.stop()


@pytest.mark.parametrize("seed", range(3))
def test_solves_hold_each_full_size_array_only_until_its_last_reader(seed):
    # The peaks read about 10.1 iterate sizes for the tensor solver and 4.9 for the matrix
    # solver; they read 12.7 and 5.3 when prev held the last products and the closing fill
    # was a new array, and 15.5 and 7.1 when besides each spectrum lived to the next fit, the
    # last products past the closing fill and the regrouped observed pair to the end.
    _, prob = criterion_5_problem(seed)
    size = prob.observed.nbytes
    tensor = traced_peak(solve, prob, DoubleTubalConfig(init_ranks=3, p=160, q=10, seed=seed))
    matrix = traced_peak(msolve, prob, SolverConfig(init_ranks=3, seed=seed))
    assert tensor <= 11.4 * size and matrix <= 5.8 * size


def test_the_last_sweep_never_switches_the_side_off():
    _, prob = criterion_5_problem()
    cfg = DoubleTubalConfig(init_ranks=3, p=160, q=10, seed=0, max_iter=3)
    _, trace = solve(prob, cfg)  # a refit after sweep 3 would fall below SIDE_OFF_GAMMA
    assert trace.termination == "max_iter"
    assert not any("side_off" in r.event for r in trace.rows)
    assert trace.final_factors.gamma == trace.rows[-1].gamma  # the gamma whose fill made x


@pytest.mark.parametrize("seed", [1, 5])
def test_blended_sweeps_are_never_extrapolated(seed, monkeypatch):
    # the growing instance of test_interpolating_start_grows_slice_ranks_only, at two
    # seeds where relaxing blended fills once left the slice side above its true rank
    extrapolated = []  # per sweep that another follows: whether the next one fits a new spectrum
    orig = mc.RankGrowth.extrapolate

    def extrapolate(self, side):
        x = side.spec
        orig(self, side)
        extrapolated.append(side.spec is not x)

    monkeypatch.setattr(mc.RankGrowth, "extrapolate", extrapolate)
    truth, prob = criterion_5_problem(seed)
    cfg = DoubleTubalConfig(init_ranks=16, init_ranks_xt=3, p=160, q=10, seed=seed)
    x, trace = solve(prob, cfg)
    assert len(extrapolated) == trace.iterations - 1
    assert not any(e for e, row in zip(extrapolated, trace.rows) if row.gamma > 0)
    assert any(extrapolated)  # the one-side sweeps after side_off are
    assert trace.rows[-1].ranks == MultiRank.constant(3, 10)
    assert rel_error(x, truth) <= 1e-3


def act_one_problem():
    """The tensor demo's first act: a CP-rank-2 tensor, low rank on both sides, 40% observed."""
    rng = np.random.default_rng(3)
    truth = np.einsum(
        "ir,jr,rk->ijk",
        rng.standard_normal((20, 2)),
        rng.standard_normal((18, 2)),
        rng.standard_normal((2, 8)),
    )
    mask = generate_mask(truth.shape, 0.4, seed=5)
    return truth, CompletionProblem.from_tensor(truth * mask.observed, mask)


def test_a_helpful_side_is_never_switched_off(monkeypatch):
    truth, prob = act_one_problem()
    cfg = DoubleTubalConfig(
        init_ranks=2, init_ranks_xt=2, p=20, q=18, seed=0, epsilon=1e-10, max_iter=500
    )
    x, trace = solve(prob, cfg)
    assert not any("side_off" in r.event for r in trace.rows)
    assert rel_error(x, truth) < 1e-3
    monkeypatch.setattr(mc, "SIDE_OFF_GAMMA", 0.0)  # cannot fire: gamma is never negative
    x_kept, _ = solve(prob, cfg)
    assert np.array_equal(x, x_kept)


def test_regrouped_side_drops_its_observed_pair_before_stage_two(monkeypatch):
    _, prob = act_one_problem()  # a run that keeps both sides past t0
    cfg = DoubleTubalConfig(init_ranks=2, init_ranks_xt=2, p=20, q=18, seed=0, t0=4,
                            max_iter=9, epsilon=1e-300)
    sides, held, make, update = [], [], tc._sides, mc.update_left
    monkeypatch.setattr(tc, "_sides", lambda *a: sides.extend(make(*a)) or sides)

    def spy(factors, spec):  # per sweep, at the regrouped side's first update
        if factors is sides[1].factors:
            held.append(sides[1].observed is not None)
        return update(factors, spec)

    monkeypatch.setattr(mc, "update_left", spy)
    _, trace = solve(prob, cfg)
    assert trace.iterations == 9 and not any("side_off" in r.event for r in trace.rows)
    assert held == [True] * 4 + [False] * 5  # only stage one's fills read the pair


def test_a_fixed_gamma_never_switches_the_side_off():
    _, prob = criterion_5_problem()
    gamma = SIDE_OFF_GAMMA / 2
    cfg = DoubleTubalConfig(
        init_ranks=3, p=160, q=10, seed=0, gamma0=gamma, adaptive_gamma=False, max_iter=8
    )
    (_, trace), solves = counted_solves(solve, prob, cfg)
    assert all(r.gamma == gamma and "side_off" not in r.event for r in trace.rows)
    # both sides refit every sweep: 6 stored slices each, left and right
    assert solves == trace.iterations * 2 * (half_count(10) + half_count(10))


@pytest.mark.parametrize("two_sides", [False, True], ids=["matrix", "fixed-gamma tensor"])
def test_stage_one_refills_after_every_factor_update(monkeypatch, two_sides):
    transforms = []
    orig = mc.dft_mode3
    monkeypatch.setattr(mc, "dft_mode3", lambda a: transforms.append(1) or orig(a))
    _, prob = partial_problem()
    kw = dict(init_ranks=3, t0=3, max_iter=5, epsilon=1e-300, rank_cfg=RankDecreaseConfig(enabled=False))
    if two_sides:
        cfg = DoubleTubalConfig(init_ranks_xt=2, gamma0=0.5, adaptive_gamma=False, **kw)
        _, solves = counted_solves(solve, prob, cfg)
    else:
        _, solves = counted_solves(msolve, prob, SolverConfig(**kw))
    # One transform at the start, of the slice side only: a stage-one sweep refits the
    # regrouped side from a fresh fill first.  The slice side fits the closing x of sweeps
    # 1-4, which another sweep follows, and the regrouped side only that of sweeps 3 and 4,
    # which a stage-two sweep follows.  Each of the 3 stage-one sweeps adds one refill per
    # side between its left and right updates, and one opening the second side.  Every sweep
    # makes 2 solves per stored slice, and the regrouped side of this (10, 8, 4) problem is
    # (4, 2, 40): 3 + 21 stored slices.
    assert (len(transforms), solves) == ((1 + 6 + 9, 240) if two_sides else (1 + 4 + 3, 30))


def test_regrouped_side_fits_the_regrouped_iterate_layout_fill(monkeypatch):
    _, prob = partial_problem(seed=33, n1=12, n2=10, n3=5)
    p, q = 20, 6
    cfg = DoubleTubalConfig(
        init_ranks=3, init_ranks_xt=2, p=p, q=q, t0=3, max_iter=5, gamma0=0.7,
        adaptive_gamma=False, epsilon=1e-300, rank_cfg=RankDecreaseConfig(enabled=False),
    )
    fill, fit, wants, fits = mc._fill, mc._Side.fit, [], []

    def spy_fill(sides, gamma, side):
        if side.regroup is not None:  # the same fill built in the iterate's layout, regrouped
            f = mc._refill(fill(sides, gamma, sides[0]), mc._observed_index(prob))
            wants.append(dft_mode3(reshape_mode3(f, p, q)).slices.tobytes())
        return fill(sides, gamma, side)

    def spy_fit(side, x):
        fit(side, x)
        if side.regroup is not None:
            fits.append(side.spec.slices.tobytes())
        return side

    monkeypatch.setattr(mc, "_fill", spy_fill)
    monkeypatch.setattr(mc._Side, "fit", spy_fit)
    solve(prob, cfg)
    # no fit at the start, which sweep 1's opening fill would replace unread: an opening
    # and a mid-sweep fit in each of the 3 stage-one sweeps, then a closing fit of x
    # regrouped after sweeps 3 and 4, which a stage-two sweep follows
    assert (len(wants), len(fits)) == (3 * 2, 3 * 2 + 2)
    assert fits[:6] == wants


def test_every_blended_row_logs_the_public_objective():
    _, prob = partial_problem(seed=34)
    cfg = DoubleTubalConfig(
        init_ranks=3, init_ranks_xt=1, seed=2, t0=3, max_iter=6, gamma0=0.6,
        adaptive_gamma=False, epsilon=1e-300,
    )
    _, trace = solve(prob, cfg)
    assert trace.iterations == 6 and all(r.gamma == 0.6 for r in trace.rows)
    for k, row in enumerate(trace.rows, 1):  # the run cut after sweep k ends with its x
        x, cut = solve(prob, replace(cfg, max_iter=k))
        assert cut.rows[-1].objective == row.objective
        assert row.objective == tensor_objective(cut.final_factors, x)


@pytest.mark.parametrize("two_sides", [False, True], ids=["matrix", "fixed-gamma tensor"])
def test_every_row_logs_the_step_and_the_change_of_the_runs_cut_around_it(two_sides):
    # Row t + 1 against the runs cut after sweeps t and t + 1 (t = 0: the start): step_sq is
    # half the weighted squared step of each side's reconstruction in the iterate's layout,
    # rel_change is _rel_change of the two x, and the objective the public one.
    _, prob = partial_problem(seed=35)
    off = RankDecreaseConfig(enabled=False)
    kw = dict(init_ranks=3, seed=2, t0=2, epsilon=1e-300, rank_cfg=off)
    if two_sides:
        cfg = DoubleTubalConfig(init_ranks_xt=2, gamma0=0.6, adaptive_gamma=False, **kw)
        start = dfactors_for(prob, init_ranks=3, init_ranks_xt=2, gamma=0.6, seed=2)
        run, objective = lambda k: solve(prob, replace(cfg, max_iter=k)), tensor_objective

        def seen(d):
            return [(1.0, compose(d.f_x)), (0.6, fold3_from_reshaped(compose(d.f_xt), prob.dims))]
    else:
        cfg = SolverConfig(**kw)
        start = init_factors(*prob.dims, 3, seed=2)
        run, objective = lambda k: msolve(prob, replace(cfg, max_iter=k))[::2], matrix_objective

        def seen(f):
            return [(1.0, compose(f))]
    x, factors = prob.observed, start
    for t in range(5):  # stage one, its last sweep, stage two
        x_next, trace = run(t + 1)
        row, after = trace.rows[t], trace.final_factors
        steps = zip(seen(after), seen(factors))
        want = sum(w * 0.5 * fro_norm(a - b) ** 2 for (w, a), (_, b) in steps)
        assert abs(row.step_sq - want) <= 1e-12 * want
        assert row.rel_change == mc._rel_change(x_next, x)
        assert row.objective == objective(after, x_next)
        x, factors = x_next, after


def test_one_sweep_is_the_public_steps_composed():
    for n3, gamma0 in [(4, 1.0), (5, 0.3), (4, 0.0)]:
        _, prob = partial_problem(seed=31 + n3, n3=n3)
        cfg = DoubleTubalConfig(
            init_ranks=3, init_ranks_xt=1, seed=5, t0=0, gamma0=gamma0, max_iter=2,
            epsilon=1e-300, rank_cfg=RankDecreaseConfig(enabled=False),
        )
        x_one, _ = solve(prob, replace(cfg, max_iter=1))
        _, trace = solve(prob, cfg)
        d = dfactors_for(prob, init_ranks=3, init_ranks_xt=1, gamma=gamma0, seed=5)
        spec = dft_mode3(prob.observed)
        spec_xt = dft_mode3(reshape_mode3(prob.observed, *d.f_xt.dims[1:]))
        d = DoubleFactors(update_right(update_left(d.f_x, spec), spec),
                          update_right(update_left(d.f_xt, spec_xt), spec_xt), gamma0)
        want = blended(d, prob)
        assert x_one.tobytes() == want.tobytes()
        assert trace.rows[0].objective == tensor_objective(d, want)
        assert trace.rows[1].gamma == refit_gamma(d, prob)


def test_solver_rebuilds_only_the_side_whose_factors_changed(monkeypatch):
    calls = []
    orig = mc.compose_spectral

    def counting(factors):
        calls.append(factors.dims)
        return orig(factors)

    monkeypatch.setattr(mc, "compose_spectral", counting)
    _, prob = partial_problem(seed=30)
    cfg = DoubleTubalConfig(
        init_ranks=3, init_ranks_xt=1, seed=0, t0=2, max_iter=4, epsilon=1e-300,
        rank_cfg=RankDecreaseConfig(enabled=False),
    )
    _, trace = solve(prob, cfg)
    assert trace.iterations == 4
    # 2 at the start; sweep 1 reuses the regrouped side's in its first fill and builds
    # the slice side, then one side per mid-sweep fill and the regrouped side at its
    # end (4); sweep 2 reuses the regrouped side of sweep 1's end (4); sweeps 3 and 4
    # have no mid-sweep fills (2 each).
    assert len(calls) == 2 + 4 + 4 + 2 + 2


@pytest.mark.parametrize("t0, max_iter, want", [(2, 4, (6, 5, 14)), (0, 3, (3, 4, 8))])
def test_solver_builds_each_layout_once_per_factor_pair(monkeypatch, t0, max_iter, want):
    # a run's regroups, folds back and inverse transforms: a reconstruction rebuilt, or
    # moved to a layout twice for one factor pair, shows as a larger count.  Both starts
    # are built in the iterate's layout, the first sweep's step_sq is measured from them;
    # with t0 = 2 the first sweep's fills read the regrouped side's anyway.
    names = ((tc, "reshape_mode3"), (tc, "fold3_from_reshaped"), (mc, "_irfft_checked"))
    counts = {name: 0 for _, name in names}
    for module, name in names:
        def counting(*args, _orig=getattr(module, name), _name=name, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    truth = synth_low_tubal(12, 10, 6, 2, seed=1)
    mask = generate_mask(truth.shape, 0.6, seed=1)
    prob = CompletionProblem.from_tensor(truth, mask)  # zero-filled off the mask
    cfg = DoubleTubalConfig(
        init_ranks=2, init_ranks_xt=1, p=20, q=6, seed=0, t0=t0, max_iter=max_iter,
        epsilon=1e-300, adaptive_gamma=False, rank_cfg=RankDecreaseConfig(enabled=False),
    )
    _, trace = solve(prob, cfg)
    assert trace.iterations == max_iter
    assert tuple(counts.values()) == want


def test_solver_is_deterministic():
    _, prob = partial_problem(seed=19)
    cfg = DoubleTubalConfig(init_ranks=2, seed=3, max_iter=10, epsilon=1e-13)
    x1, t1 = solve(prob, cfg)
    x2, t2 = solve(prob, cfg)
    assert x1.tobytes() == x2.tobytes()
    assert np.array_equal(t1.objectives(), t2.objectives())
    assert [r.gamma for r in t1.rows] == [r.gamma for r in t2.rows]


def test_blended_solve_is_byte_identical_at_any_block_size(monkeypatch):
    _, prob = partial_problem(seed=19)
    cfg = DoubleTubalConfig(init_ranks=2, seed=3)
    runs = []
    for block in (mc.core.BLOCK, 7):
        monkeypatch.setattr(mc.core, "BLOCK", block)
        x, trace = solve(prob, cfg)
        logged = np.array([(r.objective, r.rel_change, r.step_sq) for r in trace.rows])
        runs.append((x.tobytes(), logged.tobytes(), trace.iterations, trace.termination,
                     trace.rows[-1].gamma))
    assert runs[0] == runs[1]


def test_trace_records_both_rank_lists():
    _, prob = partial_problem(seed=20)
    cfg = DoubleTubalConfig(init_ranks=3, init_ranks_xt=2, seed=0, max_iter=3, epsilon=1e-13)
    _, trace = solve(prob, cfg)
    p, q = default_geometry(*prob.dims[:2])
    for row in trace.rows:
        assert row.ranks.n3 == prob.dims[2]
        assert row.ranks_xt.n3 == q
        assert row.gamma is not None


def test_reshaped_rank_fallback_caps_at_geometry():
    from tubal import RankDecreaseConfig

    _, prob = partial_problem(seed=21, n1=6, n2=5, n3=3)  # rank 4 is below full on 6x5 slices
    cfg = DoubleTubalConfig(
        init_ranks=4, seed=0, p=10, q=3, max_iter=2, epsilon=1e-13,
        rank_cfg=RankDecreaseConfig(enabled=False),
    )
    _, trace = solve(prob, cfg)
    # fallback is min(init tubal rank, n3, p) on every regrouped slice
    assert trace.rows[0].ranks_xt.tubal == 3


def test_recovers_data_low_rank_on_both_sides():
    # separable data: each frequency slice and the regrouped form are rank 2
    rng = np.random.default_rng(22)
    n1, n2, n3 = 10, 8, 12
    a = rng.standard_normal((n1, 2))
    b = rng.standard_normal((n2, 2))
    profiles = rng.standard_normal((2, n3))
    data = np.einsum("ir,jr,rk->ijk", a, b, profiles)
    assert double_tubal_rank(data, n1, n2) == (2, 2)
    mask = generate_mask((n1, n2, n3), 0.8, seed=23)
    prob = CompletionProblem.from_tensor(data * mask.observed, mask)
    cfg = DoubleTubalConfig(
        init_ranks=2, init_ranks_xt=2, p=n1, q=n2,
        seed=2, max_iter=500, epsilon=1e-11,
    )
    x, trace = solve(prob, cfg)
    assert fro_norm(x - data) / fro_norm(data) <= 1e-2


# ------------------------------------------------------------------ tubal rank


def rank_oracle(a, tol_rel=1e-10):
    spec = np.fft.fft(np.asarray(a, float), axis=2)
    best = 0
    for k in range(a.shape[2]):
        s = np.linalg.svd(spec[:, :, k], compute_uv=False)
        if s.size and s[0] > 0:
            best = max(best, int(np.sum(s > tol_rel * s[0])))
    return best


def test_double_tubal_rank_of_zero_tensor():
    assert double_tubal_rank(np.zeros((4, 5, 3))) == (0, 0)


def test_double_tubal_rank_matches_oracle():
    a = low_rank_tensor(6, 7, 5, 2, seed=24)
    r_x, r_xt = double_tubal_rank(a)
    assert r_x == rank_oracle(a) == 2
    assert r_xt == rank_oracle(reshape_mode3(a, 6, 7))


def test_double_tubal_rank_accepts_geometry_overrides():
    a = low_rank_tensor(6, 7, 5, 2, seed=25)
    r_x, r_xt = double_tubal_rank(a, q=14)
    assert r_x == 2
    assert r_xt == rank_oracle(reshape_mode3(a, 3, 14))
    r_x2, r_xt2 = double_tubal_rank(a, p=21)
    assert (r_x2, r_xt2) == (2, rank_oracle(reshape_mode3(a, 21, 2)))


# ----------------------------------------------------------------------- kkt


def kkt_oracle(dfactors, x, problem):
    """Residuals recomputed on full spectra with explicit slice loops."""
    x = np.asarray(x, float)
    n3 = dfactors.f_x.dims[2]
    p, q = dfactors.f_xt.dims[1], dfactors.f_xt.dims[2]
    gamma = dfactors.gamma
    scale = fro_norm(problem.observed) or 1.0

    def left_right_sq(factors, spatial, m3):
        diff = np.fft.fft(spatial, axis=2) - np.fft.fft(compose(factors), axis=2)
        half = half_count(m3)
        ls = rs = 0.0
        for k in range(m3):
            ks = k if k < half else m3 - k
            l = factors.left[ks] if k < half else np.conj(factors.left[ks])
            r = factors.right[ks] if k < half else np.conj(factors.right[ks])
            ls += np.linalg.norm(diff[:, :, k] @ r.conj().T) ** 2
            rs += np.linalg.norm(l.conj().T @ diff[:, :, k]) ** 2
        return ls, rs

    l1, r1 = left_right_sq(dfactors.f_x, x, n3)
    l2, r2 = left_right_sq(dfactors.f_xt, reshape_mode3(x, p, q), q)
    blend = compose(dfactors.f_x)
    if gamma != 0.0:
        blend = (blend + gamma * fold3_from_reshaped(compose(dfactors.f_xt), problem.dims)) / (
            1.0 + gamma
        )
    on = problem.mask.observed
    return (
        np.sqrt(l1) / scale,
        np.sqrt(r1) / scale,
        gamma * np.sqrt(l2) / scale,
        gamma * np.sqrt(r2) / scale,
        fro_norm(np.where(on, 0.0, x - blend)) / scale,
        fro_norm(np.where(on, x - problem.observed, 0.0)) / scale,
    )


def test_kkt_residuals_match_full_spectrum_oracle():
    _, prob = partial_problem(seed=26, n3=5)
    d = dfactors_for(prob, gamma=0.6, seed=27)
    x = blended(d, prob)
    got = tensor_kkt_residuals(d, x, prob).as_tuple()
    want = kkt_oracle(d, x, prob)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-10 * max(w, 1.0)


def test_kkt_at_gamma_zero_is_the_matrix_solvers_on_the_slice_side():
    _, prob = partial_problem(seed=30, n3=5)
    d = dfactors_for(prob, gamma=0.0, seed=31)
    x = blended(dfactors_for(prob, gamma=0.4, seed=32), prob)
    res = tensor_kkt_residuals(d, x, prob)
    assert (res.x_left, res.x_right, res.blend_complement) == matrix_kkt_residuals(d.f_x, x, prob)
    assert res.reshaped_left == res.reshaped_right == 0.0


def test_kkt_structural_residuals_vanish_at_solver_iterates():
    _, prob = partial_problem(seed=28)
    cfg = DoubleTubalConfig(init_ranks=2, seed=0, max_iter=7, epsilon=1e-13)
    x, trace = solve(prob, cfg)
    res = tensor_kkt_residuals(trace.final_factors, x, prob)
    assert res.feasibility == 0.0
    assert res.blend_complement == 0.0
    assert res.multiplier >= 0.0


def test_kkt_factor_residuals_vanish_at_exact_fit():
    data = low_rank_tensor(8, 6, 4, 2, seed=29)
    prob = CompletionProblem.from_tensor(data, np.ones(data.shape, dtype=bool))
    x, trace = solve(prob, DoubleTubalConfig(init_ranks=2, seed=0, max_iter=40, epsilon=1e-14))
    res = tensor_kkt_residuals(trace.final_factors, x, prob)
    assert res.x_left <= 1e-6 and res.x_right <= 1e-6
