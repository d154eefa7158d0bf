"""Every count, size and seed passes one integer rule where it is built: a
Python or NumPy integer, not a ``bool`` and not a float (not even a whole
one), at least 1 (0 for a seed) and, for a window or kernel size, odd."""

import math
import re

import numpy as np
import pytest

from cpfuse.als import random_init
from cpfuse.degradation import (
    DegradationConfig,
    add_noise,
    band_aggregation_matrix,
    blur_downsample_matrix,
    build_operators,
    degrade,
)
from cpfuse.experiment import ExperimentConfig, SceneConfig
from cpfuse.metrics import spatial_smooth
from cpfuse.solver import FusionProblem, SolverConfig, init_latent, pcg

DIMS = (6, 6, 4)
DEGRADATION = DegradationConfig(kernel_size=3, factor=2, num_msi_bands=2)
OPS = build_operators(DIMS, DEGRADATION)
IMAGES = degrade(np.random.default_rng(0).uniform(size=DIMS), OPS)


def experiment(**overrides):
    return ExperimentConfig(degradation=DEGRADATION, solver=SolverConfig(), **overrides)


# (name in the message, a call that builds with the value, a valid value,
# the minimum, odd)
CASES = {
    "SceneConfig.dims": ("dims[2]", lambda v: SceneConfig(dims=(6, 6, v), rank=2), 4, 1, False),
    "SceneConfig.rank": ("rank", lambda v: SceneConfig(dims=DIMS, rank=v), 2, 1, False),
    "SceneConfig.seed": ("seed", lambda v: SceneConfig(dims=DIMS, rank=2, seed=v), 0, 0, False),
    "FusionProblem.rank": ("rank", lambda v: FusionProblem(*IMAGES, OPS, v), 2, 1, False),
    "SolverConfig.max_iters": ("max_iters", lambda v: SolverConfig(max_iters=v), 5, 1, False),
    "pcg.max_iters": ("max_iters", lambda v: pcg(lambda z: z, np.ones(3), lambda z: z,
                                                 max_iters=v), 5, 1, False),
    "DegradationConfig.kernel_size": (
        "kernel_size", lambda v: DegradationConfig(kernel_size=v), 3, 1, True),
    "DegradationConfig.factor": ("factor", lambda v: DegradationConfig(factor=v), 2, 1, False),
    "DegradationConfig.num_msi_bands": (
        "num_msi_bands", lambda v: DegradationConfig(num_msi_bands=v), 2, 1, False),
    "blur_downsample_matrix.full_dim": (
        "full_dim", lambda v: blur_downsample_matrix(v, DEGRADATION), 6, 1, False),
    "band_aggregation_matrix.k_full": (
        "band counts", lambda v: band_aggregation_matrix(v, 2), 4, 1, False),
    "band_aggregation_matrix.k_m": (
        "band counts", lambda v: band_aggregation_matrix(4, v), 2, 1, False),
    "ExperimentConfig.replicates": ("replicates", lambda v: experiment(replicates=v), 2, 1, False),
    "ExperimentConfig.workers": ("workers", lambda v: experiment(workers=v), 2, 1, False),
    "ExperimentConfig.master_seed": (
        "master_seed", lambda v: experiment(master_seed=v), 0, 0, False),
    "ExperimentConfig.rank": ("rank", lambda v: experiment(ranks=(v,)), 2, 1, False),
    "ExperimentConfig.ranks": ("rank", lambda v: experiment(ranks=(2, v)), 5, 1, False),
    "ExperimentConfig.smooth_window": (
        "smooth_window", lambda v: experiment(smooth_window=v), 3, 1, True),
    "spatial_smooth.window": (
        "window", lambda v: spatial_smooth(np.ones(DIMS), v), 3, 1, True),
    "init_latent.dims": ("dims[0]", lambda v: init_latent((v, 6, 4), 2, 0), 6, 1, False),
    "init_latent.rank": ("rank", lambda v: init_latent(DIMS, v, 0), 2, 1, False),
    "init_latent.rng_seed": ("rng_seed", lambda v: init_latent(DIMS, 2, v), 0, 0, False),
    "random_init.dims": ("dims[1]", lambda v: random_init((6, v, 4), 2, 0), 6, 1, False),
    "random_init.rank": ("rank", lambda v: random_init(DIMS, v, 0), 2, 1, False),
    "random_init.rng_seed": ("rng_seed", lambda v: random_init(DIMS, 2, v), 0, 0, False),
    "add_noise.rng_seed": ("rng_seed", lambda v: add_noise(IMAGES[0], 10.0, v), 0, 0, False),
}


def invalid_values(valid, minimum, odd):
    """(value, message tail) for each rejected value of a field."""
    kind = "odd and positive" if odd else "positive" if minimum == 1 else "nonnegative"
    bad = [(2.5, "an integer"), (float(valid), "an integer"), (True, "an integer"),
           (np.float64(valid), "an integer"), (minimum - 1, kind), (minimum - 5, kind)]
    if odd:
        bad.append((valid + 1, kind))
    return bad


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_rejects_non_integers_and_out_of_range_values(case):
    name, build, valid, minimum, odd = CASES[case]
    for value, tail in invalid_values(valid, minimum, odd):
        expected = f"^{re.escape(name)} must be {tail}, got {re.escape(str(value))}$"
        with pytest.raises(ValueError, match=expected):
            build(value)


@pytest.mark.parametrize("case", CASES, ids=list(CASES))
def test_accepts_python_and_numpy_integers(case):
    _, build, valid, _, _ = CASES[case]
    for value in (valid, np.int64(valid), np.int32(valid), np.uint8(valid)):
        build(value)


def test_rank_sweep_rejects_infinity():
    with pytest.raises(ValueError, match="^rank must be an integer, got inf$"):
        experiment(ranks=(math.inf,))


def test_dims_rejects_a_truncatable_size():
    # 6.7 was once simulated as 6.
    with pytest.raises(ValueError, match=r"^dims\[2\] must be an integer, got 6.7$"):
        SceneConfig(dims=(8, 8, 6.7), rank=2)
