"""Both solvers' sweep engine against the paper's algorithm written plainly
(tests/reference.py), sweep by sweep: differential testing (McKeeman 1998).

Rank detection is on in every case, and adaptive gamma in every tensor case but
the fixed-gamma ones.  x and each row's objective, step_sq and rel_change agree to
RTOL relative (deviation()); gamma does too; each row's ranks and event, the sweep
count and the termination are equal.  Every instance lies below the capacity line,
so the growth path and its momentum stay with tests/test_matrix_completion.py.

Run with -s, the module prints one line per solver at its end, such as
"oracle matrix: 52 runs, 213 sweeps; largest relative deviation x 3.1e-14, ...".
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import reference  # noqa: E402
from tubal import (  # noqa: E402
    CompletionProblem,
    DoubleTubalConfig,
    SolverConfig,
    complete_matrix,
    complete_tensor,
    generate_mask,
    synth_low_tubal,
)

RTOL = 1e-10
# Below these a value is rounding noise, compared at RTOL of the floor instead of itself:
# for the objective and step_sq a millionth of half the observed data's squared norm, for
# rel_change (a ratio, its error about x's relative one) a thousandth.
FLOOR_SQ, FLOOR_REL = 1e-6, 1e-3

# per solver: runs, sweeps, and the largest deviation of x, objective and step_sq seen
SEEN = {solver: [0, 0, 0.0, 0.0, 0.0] for solver in ("matrix", "tensor")}


@pytest.fixture(scope="module", autouse=True)
def summary():
    yield
    for solver, (runs, sweeps, *worst) in SEEN.items():
        print(f"\noracle {solver}: {runs} runs, {sweeps} sweeps; largest relative deviation "
              f"x {worst[0]:.1e}, objective {worst[1]:.1e}, step_sq {worst[2]:.1e}")


def deviation(got, want, floor=0.0):
    """|got - want| over the larger of |want| and floor (0 when equal, None included)."""
    if got == want:
        return 0.0
    return abs(got - want) / max(abs(want), floor)


def check(solver, problem, config):
    """Run the engine and the reference on one instance and hold them to each other (the
    deviations are recorded for the summary first); returns the engine's events."""
    if solver == "matrix":
        x, _, trace = complete_matrix(problem, config)
        want_x, rows, termination = reference.complete_matrix(problem, config)
    else:
        x, trace = complete_tensor(problem, config)
        want_x, rows, termination = reference.complete_tensor(problem, config)
    scale = FLOOR_SQ * 0.5 * float(np.sum(problem.observed**2))
    pairs = list(zip(trace.rows, rows))
    worst = [float(np.abs(x - want_x).max() / np.abs(want_x).max()),
             max(deviation(got.objective, want.objective, scale) for got, want in pairs),
             max(deviation(got.step_sq, want.step_sq, scale) for got, want in pairs)]
    seen = SEEN[solver]
    seen[:2] = seen[0] + 1, seen[1] + len(rows)
    seen[2:] = np.maximum(seen[2:], worst).tolist()
    assert (trace.iterations, trace.termination) == (len(rows), termination)
    for got, want in pairs:
        assert (got.iteration, got.ranks.ranks, got.event) == (want.iteration, want.ranks, want.event)
        assert (got.ranks_xt and got.ranks_xt.ranks) == want.ranks_xt
        assert deviation(got.gamma, want.gamma) <= RTOL
        assert deviation(got.rel_change, want.rel_change, FLOOR_REL) <= RTOL
    assert max(worst) <= RTOL, worst
    return [r.event for r in trace.rows]


def instance(dims, rank, ratio, seed):
    truth = synth_low_tubal(*dims, rank, seed)
    mask = generate_mask(dims, ratio, seed)
    return CompletionProblem.from_tensor(truth * mask.observed, mask)


T0 = {"zero": lambda n: 0, "mid": lambda n: n // 2, "past": lambda n: n + 2}


def test_the_matrix_engine_follows_the_reference():
    events = []
    for seed in range(2):
        problem = instance((16, 10, 5), 1, 0.85, seed)
        for t0 in T0.values():
            cfg = SolverConfig(init_ranks=3, t0=t0(8), max_iter=8, seed=seed)
            events += check("matrix", problem, cfg)
    assert "rank_decrease" in events


def test_the_tensor_engine_follows_the_reference():
    events = []
    for seed in range(2):
        problem = instance((16, 10, 4), 2, 0.9, seed)
        for t0 in T0.values():
            cfg = DoubleTubalConfig(init_ranks=4, init_ranks_xt=2, p=32, q=5, t0=t0(8),
                                    max_iter=8, seed=seed)
            events += check("tensor", problem, cfg)
        for gamma0 in (0.0, 0.6):  # a fixed gamma: 0 leaves the regrouped side out
            cfg = DoubleTubalConfig(init_ranks=4, init_ranks_xt=2, p=32, q=5, t0=3, max_iter=6,
                                    gamma0=gamma0, adaptive_gamma=False, seed=seed)
            events += check("tensor", problem, cfg)
    assert "side_off" in events
    assert any("rank_decrease" in e for e in events)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


@settings(max_examples=200)  # about a second
@given(
    st.sampled_from(["matrix", "tensor"]),
    st.integers(3, 7),
    st.integers(3, 7),
    st.integers(1, 6),
    st.lists(st.integers(0, 3), min_size=4, max_size=4),  # stored-slice ranks, capped below
    st.sampled_from([0.6, 0.8, 1.0]),
    st.integers(1, 6),
    st.sampled_from(sorted(T0)),
    st.integers(0, 8),  # the regrouping: 0 the default, else one of n1 * n2's divisors as p
    st.integers(0, 2),  # init_ranks_xt: 0 the default
    st.integers(0, 2**16),
)
@example("matrix", 5, 4, 1, [2, 0, 0, 0], 0.8, 4, "mid", 0, 0, 1)
@example("tensor", 5, 4, 1, [2, 0, 0, 0], 0.8, 4, "mid", 2, 0, 1)
@example("matrix", 6, 5, 2, [2, 1, 0, 0], 0.8, 5, "zero", 0, 0, 2)
@example("tensor", 6, 5, 2, [2, 1, 0, 0], 0.8, 5, "past", 3, 2, 2)
@example("matrix", 6, 6, 5, [3, 0, 2, 0], 0.8, 6, "mid", 0, 0, 3)
@example("tensor", 6, 6, 4, [3, 2, 0, 0], 0.8, 6, "mid", 4, 1, 3)
def test_both_engines_follow_the_reference_on_small_shapes(
    solver, n1, n2, n3, stored, ratio, max_iter, t0, regroup, ranks_xt, seed
):
    half = n3 // 2 + 1
    stored = [min(r, min(n1, n2) - 1) for r in stored[:half]]
    ranks = stored + stored[1 : n3 - half + 1][::-1]  # conjugate-symmetric
    problem = instance((n1, n2, n3), 2, ratio, seed)
    assume(reference.below_capacity(problem.dims, ranks, problem.mask.count))
    kw = dict(init_ranks=ranks, t0=T0[t0](max_iter), max_iter=max_iter, seed=seed)
    if solver == "matrix":
        check(solver, problem, SolverConfig(**kw))
        return
    p = divisors(n1 * n2)[regroup % len(divisors(n1 * n2))] if regroup else None
    xt = min(ranks_xt, n3, p) if ranks_xt and p else None
    check(solver, problem, DoubleTubalConfig(p=p, init_ranks_xt=xt, **kw))
