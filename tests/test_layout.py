"""Equal values give bit-identical results whatever numpy layout holds them.

Each public routine that reads a tensor is run on the C-ordered,
Fortran-ordered and strided layouts of the same values, and every output must
equal the Fortran-ordered input's exactly, not within a tolerance: a noisy
solve amplifies a last-bit difference into a different result.
"""

import numpy as np
import pytest

from cpfuse.degradation import DegradationConfig, add_noise, build_operators, degrade
from cpfuse.experiment import SceneConfig, _add_pair_noise, _INIT_SEED_OFFSET, simulate_scene
from cpfuse.metrics import metrics_report, spatial_smooth
from cpfuse.solver import FusionProblem, SolverConfig, init_latent, solve
from cpfuse.tensors import cpd_reconstruct, frobenius_norm, mttkrp
from oracles import layouts

SHAPES = [(64, 48, 32), (24, 24, 16), (12, 12, 8), (33, 21, 7)]

# The benchmark's scene shapes and operators, and one scene of another size.
DEGRADE_CASES = {
    "s5-budget": ((24, 24, 16), DegradationConfig(kernel_size=3, factor=2, num_msi_bands=4)),
    "l-tensor": ((192, 192, 100), DegradationConfig(kernel_size=9, factor=4, num_msi_bands=6)),
    "odd": ((33, 21, 7), DegradationConfig(kernel_size=3, factor=3, num_msi_bands=2)),
}


def assert_equal_in_every_layout(fn, t):
    """``fn`` of each layout of ``t`` equals ``fn`` of its Fortran-ordered layout."""
    held = layouts(t)
    want = fn(held["F"])
    for layout, view in held.items():
        got = fn(view)
        for g, w in zip(got, want) if isinstance(want, tuple) else [(got, want)]:
            assert np.array_equal(g, w), f"{layout} layout"


@pytest.mark.parametrize("dims", SHAPES)
def test_mttkrp(dims):
    rng = np.random.default_rng(1)
    t = rng.standard_normal(dims)
    factors = [rng.standard_normal((d, 5)) for d in dims]
    for mode in (1, 2, 3):
        want = mttkrp(np.asfortranarray(t), factors, mode)
        for factor_order in ("C", "F"):
            held = [np.asarray(f, order=factor_order) for f in factors]
            for layout, view in layouts(t).items():
                assert np.array_equal(mttkrp(view, held, mode), want), (
                    f"mode {mode}, {layout} tensor, {factor_order} factors"
                )


@pytest.mark.parametrize("dims", SHAPES)
def test_cpd_reconstruct(dims):
    rng = np.random.default_rng(2)
    factors = [rng.standard_normal((d, 5)) for d in dims]
    fortran = [np.asfortranarray(f) for f in factors]
    assert np.array_equal(cpd_reconstruct(*fortran), cpd_reconstruct(*factors))


@pytest.mark.parametrize("case", DEGRADE_CASES)
def test_degrade(case):
    dims, cfg = DEGRADE_CASES[case]
    ops = build_operators(dims, cfg)
    scene = np.random.default_rng(3).uniform(size=dims)
    assert_equal_in_every_layout(lambda view: degrade(view, ops), scene)


def test_frobenius_norm():
    rng = np.random.default_rng(4)
    for _ in range(50):
        dims = tuple(rng.integers(1, 20, size=3))
        assert_equal_in_every_layout(frobenius_norm, rng.standard_normal(dims))


@pytest.mark.parametrize("dims", SHAPES)
def test_add_noise(dims):
    t = np.random.default_rng(5).uniform(size=dims)
    assert_equal_in_every_layout(lambda view: add_noise(view, 10.0, 6), t)


@pytest.mark.parametrize("dims", SHAPES)
def test_metrics_report(dims):
    rng = np.random.default_rng(7)
    truth = rng.uniform(size=dims)
    est = truth + 0.1 * rng.standard_normal(dims)
    fortran_truth, fortran_est = np.asfortranarray(truth), np.asfortranarray(est)
    assert_equal_in_every_layout(lambda view: metrics_report(view, fortran_truth), est)
    assert_equal_in_every_layout(lambda view: metrics_report(fortran_est, view), truth)


@pytest.mark.parametrize("dims", SHAPES)
def test_spatial_smooth(dims):
    t = np.random.default_rng(8).uniform(size=dims)
    assert_equal_in_every_layout(lambda view: spatial_smooth(view, 3), t)


def test_solve_from_c_ordered_scene_is_bit_identical():
    # The l-tensor benchmark workload's seed-1 replicate 0, from the scene held
    # C-ordered and Fortran-ordered.
    dims, cfg = DEGRADE_CASES["l-tensor"]
    rank, seed = 16, 1
    sri = simulate_scene(SceneConfig(dims, rank, seed))
    ops = build_operators(dims, cfg)
    runs = []
    for scene in (np.asfortranarray(sri), np.ascontiguousarray(sri)):
        hsi, msi = _add_pair_noise(*degrade(scene, ops), 30.0, 30.0, seed)
        prob = FusionProblem(hsi, msi, ops, rank)
        init = init_latent(dims, rank, seed + _INIT_SEED_OFFSET)
        runs.append(solve(prob, init, SolverConfig(max_iters=60)))
    (model_f, state_f, trace_f), (model_c, state_c, trace_c) = runs
    for f, c in zip(model_f.factors, model_c.factors):
        assert np.array_equal(f, c)
    assert trace_f == trace_c
    assert (state_f.f_value, state_f.reason) == (state_c.f_value, state_c.reason)
