import inspect
import os
import subprocess
import sys
import textwrap

import pytest

import cpfuse
from cpfuse import als, degradation, experiment, fileio, metrics, solver, tensors

MODULES = (als, degradation, experiment, fileio, metrics, solver, tensors)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_public_name_is_exported_from_its_module(module):
    for name in module.__all__:
        assert getattr(cpfuse, name) is getattr(module, name)


def test_package_exports_exactly_the_modules_public_names():
    exported = {name for name, value in vars(cpfuse).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == {name for module in MODULES for name in module.__all__}


def run_fresh(script):
    """Run ``script`` in a fresh interpreter: other tests in this process may
    already have loaded the modules it checks."""
    src = os.path.dirname(os.path.dirname(cpfuse.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", textwrap.dedent(script)], check=True, env=env,
                   timeout=120)


def test_scipy_ndimage_loads_only_for_smoothing():
    run_fresh("""
        import sys
        import numpy as np
        import cpfuse

        sri = cpfuse.simulate_scene(cpfuse.SceneConfig(dims=(8, 8, 6), rank=2, seed=0))
        ops = cpfuse.build_operators(sri.shape, cpfuse.DegradationConfig(
            kernel_size=3, factor=2, num_msi_bands=3))
        prob = cpfuse.FusionProblem(*cpfuse.degrade(sri, ops), ops, 2)
        model, _, _ = cpfuse.solve(prob, cpfuse.init_latent(prob.sri_dims, 2, 0),
                                   cpfuse.SolverConfig(max_iters=2))
        als_model, _ = cpfuse.solve_als(prob, cpfuse.random_init(prob.sri_dims, 2, 0),
                                        max_iters=2)
        for m in (model, als_model):
            cpfuse.metrics_report(cpfuse.reconstruct_sri(m), sri)
        assert "scipy.ndimage" not in sys.modules
        cpfuse.spatial_smooth(sri, 3)
        assert "scipy.ndimage" in sys.modules
    """)


def test_scipy_linalg_loads_only_for_als():
    run_fresh("""
        import sys
        import cpfuse

        assert "scipy.linalg" not in sys.modules
        sri = cpfuse.simulate_scene(cpfuse.SceneConfig(dims=(8, 8, 6), rank=2, seed=0))
        ops = cpfuse.build_operators(sri.shape, cpfuse.DegradationConfig(
            kernel_size=3, factor=2, num_msi_bands=3))
        prob = cpfuse.FusionProblem(*cpfuse.degrade(sri, ops), ops, 2)
        model, _, _ = cpfuse.solve(prob, cpfuse.init_latent(prob.sri_dims, 2, 0),
                                   cpfuse.SolverConfig(max_iters=2))
        cpfuse.metrics_report(cpfuse.reconstruct_sri(model), sri)
        assert "scipy.linalg" not in sys.modules
        cpfuse.solve_als(prob, cpfuse.random_init(prob.sri_dims, 2, 0), max_iters=2)
        assert "scipy.linalg" in sys.modules
    """)
