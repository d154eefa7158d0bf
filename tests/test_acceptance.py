"""Acceptance battery: ten numbered criteria, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import math
import time

import numpy as np
import pytest

from cpfuse.cli import main
from cpfuse.degradation import DegradationConfig, add_noise, build_operators, degrade
from cpfuse.experiment import ExperimentConfig, SceneConfig, run_experiment, simulate_scene
from cpfuse.metrics import metrics_report
from cpfuse.solver import (
    FusionProblem,
    GramianOperator,
    LatentTriple,
    SolverConfig,
    gradient,
    init_latent,
    objective,
    solve,
)
from cpfuse.tensors import cpd_reconstruct
from oracles import mode_n_product


def report(number, name, ok):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def recovery_battery():
    """Ten seeded solves of the criterion-3 instance plus one noisy solve,
    shared by the recovery, nonnegativity and monotonicity criteria."""
    scene = simulate_scene(SceneConfig(dims=(12, 12, 8), rank=3, seed=0))
    deg = DegradationConfig(kernel_size=3, sigma=2.0, factor=2, num_msi_bands=4)
    ops = build_operators(scene.shape, deg)
    hsi, msi = degrade(scene, ops)
    prob = FusionProblem(hsi, msi, ops, 3)
    obs_norm_sq = float(np.sum(hsi**2) + np.sum(msi**2))
    start = time.perf_counter()
    runs = [solve(prob, init_latent(prob.sri_dims, 3, seed)) for seed in range(10)]
    elapsed = time.perf_counter() - start
    noisy_prob = FusionProblem(add_noise(hsi, 5.0, 1), add_noise(msi, 5.0, 2), ops, 3)
    noisy = solve(noisy_prob, init_latent(prob.sri_dims, 3, 0))
    return {
        "runs": runs,
        "noisy": noisy,
        "obs_norm_sq": obs_norm_sq,
        "elapsed": elapsed,
    }


def random_instance(seed):
    rng = np.random.default_rng(seed)
    dims = (int(rng.integers(3, 7)), int(rng.integers(3, 6)), int(rng.integers(2, 5)))
    rank = int(rng.integers(1, 4))
    factor = int(rng.integers(1, 3))
    bands = int(rng.integers(1, dims[2] + 1))
    deg = DegradationConfig(kernel_size=3, sigma=2.0, factor=factor, num_msi_bands=bands)
    ops = build_operators(dims, deg)
    truth = tuple(rng.uniform(0.1, 1.0, (d, rank)) for d in dims)
    hsi, msi = degrade(cpd_reconstruct(*truth), ops)
    hsi = add_noise(hsi, 20.0, int(rng.integers(0, 2**31)))
    msi = add_noise(msi, 20.0, int(rng.integers(0, 2**31)))
    prob = FusionProblem(hsi, msi, ops, rank)
    latent = init_latent(dims, rank, int(rng.integers(0, 2**31)))
    return prob, latent


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        prob, latent = random_instance(seed)
        dims, rank = prob.sri_dims, prob.rank
        x = latent.vec
        g = gradient(latent, prob)
        fd = np.zeros_like(x)
        h = 1e-6
        for i in range(x.size):
            forward, backward = x.copy(), x.copy()
            forward[i] += h
            backward[i] -= h
            fd[i] = (
                objective(LatentTriple.from_vector(forward, dims, rank), prob)
                - objective(LatentTriple.from_vector(backward, dims, rank), prob)
            ) / (2.0 * h)
        worst = max(worst, float(np.linalg.norm(g - fd) / np.linalg.norm(fd)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 10.0
    assert report(1, "gradient oracle", ok), (
        f"worst relative error {worst:.3e}, elapsed {elapsed:.1f}s"
    )


def dense_gramian_oracle(prob, latent):
    """lambda (K^T K + M^T M) lambda with finite-difference Jacobians of the
    two residual maps taken with respect to the squared factors."""
    dims, rank = prob.sri_dims, prob.rank
    shapes = [(d, rank) for d in dims]
    ops = prob.operators

    def unpack(u_vec):
        out, offset = [], 0
        for rows, cols in shapes:
            out.append(u_vec[offset : offset + rows * cols].reshape((rows, cols), order="F"))
            offset += rows * cols
        return out

    def residuals(u_vec):
        a, b, c = unpack(u_vec)
        r_h = cpd_reconstruct(ops.spatial_1 @ a, ops.spatial_2 @ b, c) - prob.hsi
        r_m = cpd_reconstruct(a, b, ops.spectral @ c) - prob.msi
        return r_h.ravel(order="F"), r_m.ravel(order="F")

    u0 = np.concatenate([(m * m).ravel(order="F") for m in latent.mats])
    size = u0.size
    r_h0, r_m0 = residuals(u0)
    k_jac = np.zeros((r_h0.size, size))
    m_jac = np.zeros((r_m0.size, size))
    h = 1e-3
    for i in range(size):
        forward, backward = u0.copy(), u0.copy()
        forward[i] += h
        backward[i] -= h
        rhf, rmf = residuals(forward)
        rhb, rmb = residuals(backward)
        k_jac[:, i] = (rhf - rhb) / (2.0 * h)
        m_jac[:, i] = (rmf - rmb) / (2.0 * h)
    lam = 2.0 * np.concatenate([m.ravel(order="F") for m in latent.mats])
    core = k_jac.T @ k_jac + m_jac.T @ m_jac
    return lam[:, None] * core * lam[None, :]


def test_criterion_2_gramian_oracle():
    start = time.perf_counter()
    ok = True
    for dims, rank, seed in (((4, 4, 3), 2, 0), ((3, 4, 3), 1, 1)):
        rng = np.random.default_rng(seed)
        deg = DegradationConfig(kernel_size=3, sigma=2.0, factor=2, num_msi_bands=2)
        ops = build_operators(dims, deg)
        truth = tuple(rng.uniform(0.1, 1.0, (d, rank)) for d in dims)
        hsi, msi = degrade(cpd_reconstruct(*truth), ops)
        prob = FusionProblem(hsi, msi, ops, rank)
        latent = init_latent(dims, rank, seed + 5)
        gram = GramianOperator.from_latent(latent, prob)
        dense = np.column_stack(
            [gram.apply(np.eye(gram.size)[:, i]) for i in range(gram.size)]
        )
        oracle = dense_gramian_oracle(prob, latent)
        rel = np.linalg.norm(dense - oracle) / np.linalg.norm(oracle)
        symmetric = np.allclose(dense, dense.T, atol=1e-10 * np.abs(dense).max())
        eigs = np.linalg.eigvalsh(0.5 * (dense + dense.T))
        psd = eigs.min() >= -1e-10 * max(eigs.max(), 1.0)
        ok = ok and rel <= 1e-8 and symmetric and psd
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    assert report(2, "gramian oracle", ok), f"elapsed {elapsed:.1f}s"


def test_criterion_3_exact_recovery(recovery_battery):
    hits = 0
    for _, state, trace in recovery_battery["runs"]:
        rel = math.sqrt(state.f_value / recovery_battery["obs_norm_sq"])
        if rel <= 1e-6 and len(trace) <= 200:
            hits += 1
    elapsed = recovery_battery["elapsed"]
    ok = hits >= 8 and elapsed < 60.0
    assert report(3, "exact recovery", ok), (
        f"{hits}/10 inits reached 1e-6, elapsed {elapsed:.1f}s"
    )


def test_criterion_4_nonnegativity(recovery_battery):
    models = [run[0] for run in recovery_battery["runs"]]
    models.append(recovery_battery["noisy"][0])
    ok = all(np.all(f >= 0.0) for m in models for f in m.factors)
    assert report(4, "nonnegativity invariant", ok)


def test_criterion_5_monotone_descent(recovery_battery):
    traces = [run[2] for run in recovery_battery["runs"]]
    traces.append(recovery_battery["noisy"][2])
    ok = True
    for trace in traces:
        values = [r.f_value for r in trace]
        for prev, nxt in zip(values, values[1:]):
            ok = ok and nxt <= prev * (1.0 + 1e-12)
    assert report(5, "monotone descent", ok)


def test_criterion_6_coupling_identity():
    ok = True
    deg = DegradationConfig(kernel_size=3, sigma=2.0, factor=2, num_msi_bands=3)
    ops = build_operators((9, 8, 6), deg)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.uniform(0.0, 1.0, (d, 3)) for d in (9, 8, 6))
        sri = cpd_reconstruct(a, b, c)
        hsi_factored = cpd_reconstruct(ops.spatial_1 @ a, ops.spatial_2 @ b, c)
        hsi_products = mode_n_product(mode_n_product(sri, ops.spatial_1, 1), ops.spatial_2, 2)
        msi_factored = cpd_reconstruct(a, b, ops.spectral @ c)
        msi_products = mode_n_product(sri, ops.spectral, 3)
        for got, want in ((hsi_factored, hsi_products), (msi_factored, msi_products)):
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            ok = ok and rel <= 1e-12
    assert report(6, "coupling identity", ok)


def test_criterion_7_metric_unit_suite():
    rng = np.random.default_rng(0)
    t = rng.uniform(0.1, 1.0, (6, 6, 5))
    identity = metrics_report(t, t)
    ok = (
        identity.rmse == 0.0
        and abs(identity.cc - 1.0) <= 1e-12
        and identity.rsnr_db == math.inf
        and identity.sam_radians <= 1e-7
    )
    for snr_db in (0.0, 5.0, 10.0):
        noisy = add_noise(t, snr_db, rng_seed=3)
        ok = ok and abs(metrics_report(noisy, t).rsnr_db - snr_db) <= 1e-9
    scale = rng.uniform(0.5, 2.0, 5)
    shift = rng.uniform(-1.0, 1.0, 5)
    affine = t * scale[None, None, :] + shift[None, None, :]
    ok = ok and abs(metrics_report(affine, t).cc - 1.0) <= 1e-12
    assert report(7, "metric unit suite", ok)


def test_criterion_8_noise_trend_vs_baseline():
    start = time.perf_counter()
    scene = SceneConfig(dims=(24, 24, 16), rank=5, seed=0)
    deg = DegradationConfig(kernel_size=3, sigma=2.0, factor=2, num_msi_bands=4)
    medians = {}
    for algorithm in ("nn-nls", "als"):
        cfg = ExperimentConfig(
            degradation=deg,
            solver=SolverConfig(),
            scene=scene,
            algorithm=algorithm,
            snrs_db=(5.0,),
            ranks=(5,),
            replicates=10,
            master_seed=100,
        )
        _, summary = run_experiment(cfg)
        medians[algorithm] = summary[0].median_rsnr_db
    elapsed = time.perf_counter() - start
    ok = medians["nn-nls"] >= medians["als"] and elapsed < 300.0
    assert report(8, "noise trend vs baseline", ok), (
        f"nn-nls {medians['nn-nls']:.2f} dB vs als {medians['als']:.2f} dB, "
        f"elapsed {elapsed:.1f}s"
    )


def test_criterion_9_rank_robustness():
    start = time.perf_counter()
    scene = SceneConfig(dims=(24, 24, 16), rank=5, seed=0)
    deg = DegradationConfig(kernel_size=3, sigma=2.0, factor=2, num_msi_bands=4)
    cfg = ExperimentConfig(
        degradation=deg,
        solver=SolverConfig(),
        scene=scene,
        algorithm="nn-nls",
        snrs_db=(5.0,),
        ranks=(5, 10, 20),
        replicates=10,
        master_seed=100,
    )
    _, summary = run_experiment(cfg)
    medians = [s.median_rsnr_db for s in summary]
    elapsed = time.perf_counter() - start
    ok = (
        max(medians) - min(medians) < 6.0
        and all(m > 0.0 for m in medians)
        and elapsed < 300.0
    )
    assert report(9, "rank robustness", ok), (
        f"medians {[round(m, 2) for m in medians]} dB, elapsed {elapsed:.1f}s"
    )


def test_criterion_10_sweep_determinism(tmp_path):
    start = time.perf_counter()
    args = [
        "sweep", "--dims", "10", "10", "6", "--true-rank", "2", "--rank", "2",
        "--snr-db", "inf", "--replicates", "2", "--master-seed", "0",
        "--kernel-size", "3", "--factor", "2", "--msi-bands", "3",
        "--max-iters", "100",
    ]
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    rc_a = main(args + ["--out-dir", str(dir_a)])
    rc_b = main(args + ["--out-dir", str(dir_b)])
    elapsed = time.perf_counter() - start
    ok = (
        rc_a == 0
        and rc_b == 0
        and (dir_a / "results.csv").read_bytes() == (dir_b / "results.csv").read_bytes()
        and (dir_a / "summary.csv").read_bytes() == (dir_b / "summary.csv").read_bytes()
        and elapsed < 60.0
    )
    assert report(10, "sweep determinism", ok), f"elapsed {elapsed:.1f}s"
