"""Complete a partially observed tensor with two factorizations at once:
one of the tensor itself and one of its mode-3 regrouping, blended by an
adaptive weight that switches the regrouped side off once it fits far worse
than the slice side.

    python3 demos/tensor_completion_demo.py
"""

import numpy as np

from tubal import (
    CompletionProblem,
    DoubleTubalConfig,
    double_tubal_rank,
    generate_mask,
    rel_error,
    synth_low_tubal,
    tensor_kkt_residuals,
)
from tubal.tensor_completion import default_geometry, solve


def side_status(trace):
    """Where the regrouped side was switched off, if it was."""
    off = [row.iteration for row in trace.rows if "side_off" in row.event]
    return f"side_off at sweep {off[0]}" if off else "regrouped side kept for the whole run"


# ------------------------------------------------------------------
# Act one: data that is low rank on both sides.  A rank-2 CP tensor has
# tubal rank 2 seen from the original axes and from the (n1, n2)
# regrouping, so the two factorizations reinforce each other.
rng = np.random.default_rng(3)
n1, n2, n3, r = 20, 18, 8, 2
truth = np.einsum(
    "ir,jr,rk->ijk",
    rng.standard_normal((n1, r)),
    rng.standard_normal((n2, r)),
    rng.standard_normal((r, n3)),
)
print(f"truth {truth.shape}, double tubal rank {double_tubal_rank(truth, n1, n2)}")

# 40 percent observed is too thin for either factorization alone.
mask = generate_mask(truth.shape, 0.4, seed=5)
problem = CompletionProblem.from_tensor(truth * mask.observed, mask)

common = dict(init_ranks=2, init_ranks_xt=2, p=n1, q=n2, seed=0,
              epsilon=1e-10, max_iter=500)
x, trace = solve(problem, DoubleTubalConfig(**common))
x0, trace0 = solve(
    problem, DoubleTubalConfig(gamma0=0.0, adaptive_gamma=False, **common)
)
print(f"blended solve:      rel error {rel_error(x, truth):.2e} ({trace.iterations} sweeps, "
      f"{side_status(trace)})")
print(f"single side only:   rel error {rel_error(x0, truth):.2e} ({trace0.iterations} sweeps)")
print("the regrouped factorization is a second structural prior, and with")
print("this few observations it is the difference between recovery and not")

res = tensor_kkt_residuals(trace.final_factors, x, problem)
print(
    f"stationarity: x-side ({res.x_left:.1e}, {res.x_right:.1e}), "
    f"regrouped ({res.reshaped_left:.1e}, {res.reshaped_right:.1e}), "
    f"feasibility {res.feasibility:.1e}"
)

# ------------------------------------------------------------------
# Act two: data structured on one side only.  The regrouped view of this
# tensor is full rank, and the adaptive weight discovers that by comparing
# the two residuals: gamma falls sweep after sweep, and the first refit that
# puts it below 1/4 switches the regrouped side off.
truth = synth_low_tubal(40, 40, 10, 3, seed=0)
p, q = 160, 10
print(f"\ntruth {truth.shape}, double tubal rank {double_tubal_rank(truth, p, q)}")
print(f"(default regrouping for (40, 40) would be {default_geometry(40, 40)})")

mask = generate_mask(truth.shape, 0.6, seed=0)
problem = CompletionProblem.from_tensor(truth * mask.observed, mask)
x, trace = solve(problem, DoubleTubalConfig(init_ranks=3, p=p, q=q, seed=0))

gammas = [row.gamma for row in trace.rows]
print(f"gamma path: {gammas[0]:.3f} -> {gammas[1]:.3f} -> {gammas[2]:.3f} -> "
      f"... -> {gammas[-1]:.4f} over {trace.iterations} sweeps, {side_status(trace)}")
print(f"rel error {rel_error(x, truth):.2e}: with the unhelpful side switched off, "
      f"the slice side alone finished the fit")
