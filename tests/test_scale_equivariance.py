"""Power-of-two scale equivariance of both solvers.

A CP model is a product of three factors, so scaling each factor by c
scales the model by c^3.  nn-nls with the images times 2^6 and its latent
start times 2 (its factors times 4), and ALS with the images times 2^3 and
its start times 2, repeat the unscaled run exactly.  Multiplying by a power
of two is exact, and the rules that steer a solve compare quantities of one
scale: the gain ratio, the relative tolerances, the guard, PCG's residual
tolerance and norm exit, and the preconditioner's trace- and mean-scaled
ridges.  So every decision is the same, and every value is the unscaled one
times an exact power of two.

Two rules of nn-nls are not scale-free: its initial trust radius
``max(0.3 ||x0||, 1)`` has an absolute floor of 1, and ``grad_tol`` bounds
the gradient's largest entry absolutely.  The problems below reach neither:
each start has ``0.3 ||x0|| > 1``, and at 20 dB no gradient entry falls to
1e-6.  (PCG's curvature exit, ``d^T G d <= 1e-14 ||d||^2``, compares
unlike scales too, but only a numerically singular Gramian meets it, and
no PCG call on these problems takes it.)
"""

import numpy as np
import pytest

from cpfuse.als import random_init, solve_als
from cpfuse.degradation import DegradationConfig, add_noise, build_operators, degrade
from cpfuse.experiment import SceneConfig, simulate_scene
from cpfuse.solver import FusionProblem, LatentTriple, SolverConfig, init_latent, solve
from cpfuse.tensors import CpdModel

SEEDS = [0, 1, 2]


def problem_pair(seed: int, image_scale: float):
    """A 12 x 10 x 8 rank-3 problem at 20 dB, and the same problem with both
    images times ``image_scale``."""
    sri = simulate_scene(SceneConfig(dims=(12, 10, 8), rank=3, seed=seed))
    ops = build_operators(
        sri.shape, DegradationConfig(kernel_size=3, sigma=2.0, factor=2, num_msi_bands=4)
    )
    hsi, msi = (add_noise(t, 20.0, seed + k) for k, t in enumerate(degrade(sri, ops)))
    return (FusionProblem(hsi, msi, ops, 3),
            FusionProblem(image_scale * hsi, image_scale * msi, ops, 3))


@pytest.mark.parametrize("seed", SEEDS)
def test_nn_nls_scales_exactly(seed):
    prob, scaled = problem_pair(seed, 2.0**6)
    init = init_latent(prob.sri_dims, prob.rank, seed)
    assert 0.3 * np.linalg.norm(init.vec) > 1.0
    cfg = SolverConfig(max_iters=40)
    model, state, trace = solve(prob, init, cfg)
    model_s, state_s, trace_s = solve(scaled, LatentTriple(tuple(2.0 * m for m in init.mats)), cfg)

    assert state.reason != "gradient norm below grad_tol"
    assert state_s.reason == state.reason
    assert state_s.f_value == 2.0**12 * state.f_value
    assert len(trace_s) == len(trace)
    for rec, rec_s in zip(trace, trace_s):
        assert ((rec_s.cg_iterations, rec_s.step_type, rec_s.accepted, rec_s.rho)
                == (rec.cg_iterations, rec.step_type, rec.accepted, rec.rho))
        assert rec_s.f_value == 2.0**12 * rec.f_value
        assert rec_s.grad_inf_norm == 2.0**11 * rec.grad_inf_norm
        assert rec_s.delta == 2.0 * rec.delta
    for f, f_s in zip(model.factors, model_s.factors):
        np.testing.assert_array_equal(f_s, 4.0 * f)


@pytest.mark.parametrize("seed", SEEDS)
def test_als_scales_exactly(seed):
    prob, scaled = problem_pair(seed, 2.0**3)
    init = random_init(prob.sri_dims, prob.rank, seed)
    model, trace = solve_als(prob, init, max_iters=20)
    model_s, trace_s = solve_als(scaled, CpdModel(tuple(2.0 * f for f in init.factors)),
                                 max_iters=20)

    assert trace_s.converged == trace.converged
    assert trace_s.objectives == tuple(2.0**6 * f for f in trace.objectives)
    for f, f_s in zip(model.factors, model_s.factors):
        np.testing.assert_array_equal(f_s, 2.0 * f)
