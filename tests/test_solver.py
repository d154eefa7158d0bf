import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpfuse.solver as solver_module
from cpfuse.degradation import DegradationConfig, build_operators, degrade
from cpfuse.solver import (
    FusionProblem,
    GramianOperator,
    LatentTriple,
    PcgResult,
    SolverConfig,
    SolverDivergenceError,
    SolverState,
    block_jacobi_preconditioner,
    cauchy_point,
    dogleg_step,
    gradient,
    init_latent,
    objective,
    pcg,
    reconstruct_sri,
    solve,
    square_params,
    trust_region_update,
)
from cpfuse.metrics import rsnr
from cpfuse.tensors import cpd_reconstruct


def make_problem(dims=(6, 5, 4), rank=2, seed=0, kernel_size=3, factor=2, num_msi_bands=2):
    """Noiseless fusion instance with a known nonnegative ground truth."""
    rng = np.random.default_rng(seed)
    truth = tuple(rng.uniform(0.1, 1.0, (d, rank)) for d in dims)
    sri = cpd_reconstruct(*truth)
    cfg = DegradationConfig(
        kernel_size=kernel_size, sigma=2.0, factor=factor, num_msi_bands=num_msi_bands
    )
    ops = build_operators(dims, cfg)
    hsi, msi = degrade(sri, ops)
    prob = FusionProblem(hsi=hsi, msi=msi, operators=ops, rank=rank)
    return prob, sri, truth


def objective_by_enumeration(latent, prob):
    """Oracle: entrywise sums of squared residuals, explicit loops."""
    a, b, c = (m * m for m in latent.mats)
    ops = prob.operators
    ah, bh = ops.spatial_1 @ a, ops.spatial_2 @ b
    cm = ops.spectral @ c
    total = 0.0
    for t, (fa, fb, fc) in ((prob.hsi, (ah, bh, c)), (prob.msi, (a, b, cm))):
        i_dim, j_dim, k_dim = t.shape
        for i in range(i_dim):
            for j in range(j_dim):
                for k in range(k_dim):
                    est = float(np.sum(fa[i, :] * fb[j, :] * fc[k, :]))
                    total += (t[i, j, k] - est) ** 2
    return total


def residual_stack(x, prob, dims, rank):
    """Stacked residuals of both coupled terms as a function of the latent vector."""
    latent = LatentTriple.from_vector(x, dims, rank)
    a, b, c = (m * m for m in latent.mats)
    ops = prob.operators
    est_h = cpd_reconstruct(ops.spatial_1 @ a, ops.spatial_2 @ b, c)
    est_m = cpd_reconstruct(a, b, ops.spectral @ c)
    return np.concatenate(
        [
            (est_h - prob.hsi).ravel(order="F"),
            (est_m - prob.msi).ravel(order="F"),
        ]
    )


def fd_jacobian(x, prob, dims, rank, h=1e-3):
    """Central differences; each residual is quadratic per coordinate, so this
    is exact up to roundoff."""
    r0 = residual_stack(x, prob, dims, rank)
    jac = np.zeros((r0.size, x.size))
    for i in range(x.size):
        forward, backward = x.copy(), x.copy()
        forward[i] += h
        backward[i] -= h
        jac[:, i] = (
            residual_stack(forward, prob, dims, rank)
            - residual_stack(backward, prob, dims, rank)
        ) / (2.0 * h)
    return jac


def dense_operator(apply_fn, size):
    cols = [apply_fn(np.eye(size)[:, i]) for i in range(size)]
    return np.column_stack(cols)


class TestLatentTriple:
    def test_vector_round_trip(self):
        rng = np.random.default_rng(0)
        mats = tuple(rng.standard_normal((d, 3)) for d in (4, 3, 5))
        latent = LatentTriple(mats)
        back = LatentTriple.from_vector(latent.to_vector(), (4, 3, 5), 3)
        for m, b in zip(latent.mats, back.mats):
            np.testing.assert_array_equal(m, b)

    def test_vector_layout_is_column_major(self):
        latent = LatentTriple((np.array([[1.0, 3.0], [2.0, 4.0]]),) * 3)
        np.testing.assert_array_equal(
            latent.to_vector(), np.array([1.0, 2.0, 3.0, 4.0] * 3)
        )

    def test_copy_is_independent(self):
        latent = LatentTriple(tuple(np.ones((2, 2)) for _ in range(3)))
        dup = latent.copy()
        dup.mats[0][0, 0] = 5.0
        assert latent.mats[0][0, 0] == 1.0

    def test_inconsistent_rank_raises(self):
        with pytest.raises(ValueError):
            LatentTriple((np.ones((2, 2)), np.ones((2, 3)), np.ones((2, 2))))


class TestSquareParams:
    def test_entrywise_square(self):
        latent = LatentTriple((np.array([[2.0, -3.0]]),) * 3)
        model = square_params(latent)
        for f in model.factors:
            np.testing.assert_array_equal(f, np.array([[4.0, 9.0]]))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_sign_flip_invariance(self, seed):
        rng = np.random.default_rng(seed)
        mats = tuple(rng.standard_normal((3, 2)) for _ in range(3))
        flipped = tuple(m * rng.choice([-1.0, 1.0], m.shape) for m in mats)
        a = square_params(LatentTriple(mats))
        b = square_params(LatentTriple(flipped))
        for x, y in zip(a.factors, b.factors):
            np.testing.assert_array_equal(x, y)

    def test_factors_are_nonnegative(self):
        rng = np.random.default_rng(1)
        latent = LatentTriple(tuple(rng.standard_normal((4, 2)) for _ in range(3)))
        assert all(np.all(f >= 0.0) for f in square_params(latent).factors)


class TestObjective:
    def test_zero_at_exact_model(self):
        prob, _, truth = make_problem()
        latent = LatentTriple(tuple(np.sqrt(f) for f in truth))
        assert objective(latent, prob) < 1e-20

    def test_zero_latent_gives_data_norm(self):
        prob, _, _ = make_problem()
        dims, rank = prob.sri_dims, prob.rank
        latent = LatentTriple(tuple(np.zeros((d, rank)) for d in dims))
        expected = float(np.sum(prob.hsi**2) + np.sum(prob.msi**2))
        np.testing.assert_allclose(objective(latent, prob), expected, rtol=1e-14)

    def test_matches_enumeration_oracle(self):
        prob, _, _ = make_problem(dims=(4, 4, 3), rank=2, seed=3)
        latent = init_latent(prob.sri_dims, prob.rank, rng_seed=11)
        np.testing.assert_allclose(
            objective(latent, prob),
            objective_by_enumeration(latent, prob),
            rtol=1e-12,
        )

    def test_sign_flip_invariance(self):
        prob, _, _ = make_problem(dims=(4, 4, 3), rank=2, seed=5)
        rng = np.random.default_rng(8)
        latent = init_latent(prob.sri_dims, prob.rank, rng_seed=8)
        flipped = LatentTriple(
            tuple(m * rng.choice([-1.0, 1.0], m.shape) for m in latent.mats)
        )
        np.testing.assert_allclose(
            objective(latent, prob), objective(flipped, prob), rtol=1e-14
        )


class TestGradient:
    def test_zero_at_exact_model(self):
        prob, _, truth = make_problem()
        latent = LatentTriple(tuple(np.sqrt(f) for f in truth))
        assert np.max(np.abs(gradient(latent, prob))) < 1e-10

    def test_matches_finite_differences(self):
        prob, _, _ = make_problem(dims=(5, 4, 3), rank=2, seed=2)
        dims, rank = prob.sri_dims, prob.rank
        latent = init_latent(dims, rank, rng_seed=4)
        x = latent.to_vector()
        g = gradient(latent, prob)
        h = 1e-6
        for i in range(x.size):
            forward, backward = x.copy(), x.copy()
            forward[i] += h
            backward[i] -= h
            fd = (
                objective(LatentTriple.from_vector(forward, dims, rank), prob)
                - objective(LatentTriple.from_vector(backward, dims, rank), prob)
            ) / (2.0 * h)
            assert abs(g[i] - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_zero_latent_entry_gives_zero_gradient_entry(self):
        prob, _, _ = make_problem()
        latent = init_latent(prob.sri_dims, prob.rank, rng_seed=0)
        latent.mats[0][0, 0] = 0.0
        # entry (0, 0) of the first block sits at packed position 0
        assert gradient(latent, prob)[0] == 0.0

    def test_packed_length(self):
        prob, _, _ = make_problem()
        latent = init_latent(prob.sri_dims, prob.rank, rng_seed=0)
        expected = sum(d * prob.rank for d in prob.sri_dims)
        assert gradient(latent, prob).shape == (expected,)


class TestGramianOperator:
    def test_zero_vector_maps_to_zero(self):
        prob, _, _ = make_problem()
        latent = init_latent(prob.sri_dims, prob.rank, rng_seed=1)
        gram = GramianOperator.from_latent(latent, prob.operators)
        np.testing.assert_array_equal(gram.apply(np.zeros(gram.size)), 0.0)

    def test_matches_dense_jacobian_oracle(self):
        prob, _, _ = make_problem(dims=(4, 3, 3), rank=2, seed=6)
        dims, rank = prob.sri_dims, prob.rank
        latent = init_latent(dims, rank, rng_seed=9)
        gram = GramianOperator.from_latent(latent, prob.operators)
        dense = dense_operator(gram.apply, gram.size)
        jac = fd_jacobian(latent.to_vector(), prob, dims, rank)
        oracle = jac.T @ jac
        np.testing.assert_allclose(dense, oracle, rtol=1e-6, atol=1e-9)

    def test_symmetric_and_positive_semidefinite(self):
        prob, _, _ = make_problem(dims=(4, 3, 3), rank=2, seed=6)
        latent = init_latent(prob.sri_dims, prob.rank, rng_seed=9)
        gram = GramianOperator.from_latent(latent, prob.operators)
        dense = dense_operator(gram.apply, gram.size)
        np.testing.assert_allclose(dense, dense.T, atol=1e-10 * np.abs(dense).max())
        eigs = np.linalg.eigvalsh(0.5 * (dense + dense.T))
        assert eigs.min() >= -1e-10 * max(eigs.max(), 1.0)

    def test_uncoupled_reduction_has_textbook_diagonal_blocks(self):
        # With one coupling term zeroed, identity projections and unit chain
        # scaling, each diagonal block is the Hadamard product of the other
        # two Grams, kroneckered with the identity.
        dims, rank = (3, 2, 2), 2
        rng = np.random.default_rng(12)
        factors = [rng.uniform(0.1, 1.0, (d, rank)) for d in dims]
        gram = GramianOperator(
            lam_blocks=[np.ones((d, rank)) for d in dims],
            u_factors=factors,
            v_factors=[np.zeros((d, rank)) for d in dims],
            u_projections=[None, None, None],
            v_projections=[None, None, None],
            u_grams=[f.T @ f for f in factors],
            v_grams=[np.zeros((rank, rank)) for _ in dims],
        )
        dense = dense_operator(gram.apply, gram.size)
        grams = [f.T @ f for f in factors]
        offset = 0
        for n, d in enumerate(dims):
            o = [m for m in range(3) if m != n]
            expected = np.kron(grams[o[0]] * grams[o[1]], np.eye(d))
            size = d * rank
            block = dense[offset : offset + size, offset : offset + size]
            np.testing.assert_allclose(block, expected, rtol=1e-12)
            offset += size

    def test_wrong_vector_shape_raises(self):
        prob, _, _ = make_problem()
        latent = init_latent(prob.sri_dims, prob.rank, rng_seed=0)
        gram = GramianOperator.from_latent(latent, prob.operators)
        with pytest.raises(ValueError):
            gram.apply(np.zeros(gram.size + 1))


class TestBlockJacobiPreconditioner:
    def test_isotropic_case_is_scalar_inverse(self):
        # Unit latent and identity Grams: each block system is 2 I and the
        # chain scaling contributes a factor 4, so the preconditioner is I/8.
        dims, rank = (3, 3, 2), 2
        gram = GramianOperator(
            lam_blocks=[2.0 * np.ones((d, rank)) for d in dims],
            u_factors=[np.zeros((d, rank)) for d in dims],
            v_factors=[np.zeros((d, rank)) for d in dims],
            u_projections=[None, None, None],
            v_projections=[None, None, None],
            u_grams=[np.eye(rank) for _ in dims],
            v_grams=[np.eye(rank) for _ in dims],
        )
        precond = block_jacobi_preconditioner(gram)
        v = np.random.default_rng(0).standard_normal(gram.size)
        np.testing.assert_allclose(precond(v), v / 8.0, rtol=1e-9)

    def test_linear_map(self):
        prob, _, _ = make_problem(dims=(4, 3, 3), rank=2, seed=1)
        latent = init_latent(prob.sri_dims, prob.rank, rng_seed=3)
        latent.mats[1][0, 0] = 0.0
        precond = block_jacobi_preconditioner(
            GramianOperator.from_latent(latent, prob.operators)
        )
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal(20), rng.standard_normal(20)
        np.testing.assert_allclose(
            precond(2.0 * x - 3.0 * y),
            2.0 * precond(x) - 3.0 * precond(y),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_positive_definite(self):
        prob, _, _ = make_problem(dims=(4, 3, 3), rank=2, seed=1)
        latent = init_latent(prob.sri_dims, prob.rank, rng_seed=3)
        precond = block_jacobi_preconditioner(
            GramianOperator.from_latent(latent, prob.operators)
        )
        rng = np.random.default_rng(5)
        for _ in range(5):
            v = rng.standard_normal(20)
            assert v @ precond(v) > 0.0

    def test_reduces_pcg_iterations(self):
        # identity degradation operators keep the comparison well conditioned
        prob, _, _ = make_problem(
            dims=(6, 5, 4), rank=2, seed=3, kernel_size=1, factor=1, num_msi_bands=4
        )
        latent = init_latent(prob.sri_dims, prob.rank, rng_seed=5)
        g = gradient(latent, prob)
        gram = GramianOperator.from_latent(latent, prob.operators)
        hop = lambda z: 2.0 * gram.apply(z)  # noqa: E731
        cfg = SolverConfig(cg_max_iters=400, cg_rel_tol=1e-8)
        plain = pcg(hop, g, None, cfg)
        precond = pcg(hop, g, block_jacobi_preconditioner(gram), cfg)
        assert not precond.curvature_exit
        assert precond.residual_norm <= cfg.cg_rel_tol * np.linalg.norm(g)
        assert precond.iterations <= plain.iterations


class TestPcg:
    def test_identity_hessian_converges_in_one_iteration(self):
        g = np.array([3.0, -1.0, 2.0, 0.5, -4.0])
        result = pcg(lambda z: z, g, None, SolverConfig())
        np.testing.assert_allclose(result.step, -g, rtol=1e-14)
        assert result.iterations == 1
        assert result.residual_norm < 1e-12
        assert not result.curvature_exit

    def test_two_by_two_exact_solution(self):
        h = np.array([[4.0, 1.0], [1.0, 3.0]])
        g = np.array([1.0, 2.0])
        result = pcg(lambda z: h @ z, g, None, SolverConfig(cg_rel_tol=1e-12))
        np.testing.assert_allclose(
            result.step, np.array([-1.0 / 11.0, -7.0 / 11.0]), rtol=1e-10
        )
        assert result.iterations <= 2

    def test_finite_termination_with_few_distinct_eigenvalues(self):
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        h = q @ np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]) @ q.T
        g = rng.standard_normal(6)
        cfg = SolverConfig(cg_max_iters=10, cg_rel_tol=1e-10)
        result = pcg(lambda z: h @ z, g, None, cfg)
        assert result.iterations <= 6
        assert result.residual_norm <= 1e-10 * np.linalg.norm(g)

    def test_negative_curvature_exit(self):
        h = np.diag([1.0, -1.0])
        g = np.array([0.0, 1.0])
        result = pcg(lambda z: h @ z, g, None, SolverConfig())
        assert result.curvature_exit
        assert result.iterations == 0
        np.testing.assert_array_equal(result.step, np.zeros(2))

    def test_zero_gradient_short_circuits(self):
        result = pcg(lambda z: z, np.zeros(4), None, SolverConfig())
        assert isinstance(result, PcgResult)
        assert result.iterations == 0
        np.testing.assert_array_equal(result.step, np.zeros(4))


class TestCauchyPoint:
    def test_interior_minimizer_with_identity_hessian(self):
        g = np.array([0.6, 0.8])  # unit norm
        p = cauchy_point(g, lambda z: z, delta=10.0)
        np.testing.assert_allclose(p, -g, rtol=1e-14)

    def test_negative_curvature_goes_to_boundary(self):
        g = np.array([1.0, 2.0])
        p = cauchy_point(g, lambda z: -z, delta=0.7)
        np.testing.assert_allclose(np.linalg.norm(p), 0.7, rtol=1e-14)

    def test_zero_gradient_gives_zero(self):
        np.testing.assert_array_equal(
            cauchy_point(np.zeros(3), lambda z: z, 1.0), np.zeros(3)
        )

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_never_exceeds_radius(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(1, 6)
        g = rng.standard_normal(n)
        m = rng.standard_normal((n, n))
        delta = float(rng.uniform(0.1, 5.0))
        p = cauchy_point(g, lambda z: m @ z + m.T @ z, delta)
        assert np.linalg.norm(p) <= delta * (1.0 + 1e-12)


class TestDoglegStep:
    def test_interior_newton_point_returned_unchanged(self):
        p_c = np.array([0.5, 0.0])
        p_n = np.array([1.0, 1.0])
        step, kind = dogleg_step(p_c, p_n, delta=5.0)
        np.testing.assert_array_equal(step, p_n)
        assert kind == "newton"

    def test_collinear_segment_hits_boundary(self):
        step, kind = dogleg_step(np.array([1.0, 0.0]), np.array([3.0, 0.0]), delta=2.0)
        np.testing.assert_allclose(step, np.array([2.0, 0.0]), rtol=1e-14)
        assert kind == "dogleg"

    def test_long_cauchy_point_is_rescaled(self):
        step, kind = dogleg_step(np.array([3.0, 0.0]), np.array([0.0, 4.0]), delta=1.0)
        np.testing.assert_allclose(step, np.array([1.0, 0.0]), rtol=1e-14)
        assert kind == "cauchy"

    def test_nonpositive_radius_raises(self):
        with pytest.raises(ValueError):
            dogleg_step(np.zeros(2), np.ones(2), 0.0)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_step_never_exceeds_radius(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(1, 6)
        p_c = rng.standard_normal(n)
        p_n = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
        delta = float(rng.uniform(0.05, 4.0))
        if np.linalg.norm(p_c) >= np.linalg.norm(p_n):
            p_c, p_n = 0.4 * p_n, p_c  # keep the Cauchy point the shorter leg
        step, kind = dogleg_step(p_c, p_n, delta)
        assert kind in ("newton", "cauchy", "dogleg")
        assert np.linalg.norm(step) <= delta * (1.0 + 1e-9)


def make_state(x0, delta, delta_max=1e6):
    # layout is irrelevant for these quadratic-model tests; only the packed
    # vector round trip matters
    mats = tuple(x0[i::3].reshape(-1, 1) for i in range(3))
    latent = LatentTriple(mats)
    f = float(np.sum(latent.to_vector() ** 2))
    g = 2.0 * latent.to_vector()
    return SolverState(
        latent=latent, delta=delta, delta_max=delta_max, f_value=f, gradient=g
    )


def quadratic_objective(latent):
    return float(np.sum(latent.to_vector() ** 2))


class TestTrustRegionUpdate:
    def test_perfect_quadratic_step_has_unit_ratio_and_grows(self):
        x0 = np.array([1.0, -2.0, 0.5, 1.5, -0.5, 2.0])
        delta = float(np.linalg.norm(x0))
        state = make_state(x0, delta)
        p = -state.latent.to_vector()
        g_dot_p = float(state.gradient @ p)
        p_h_p = float(2.0 * p @ p)
        assert trust_region_update(
            state, p, g_dot_p, p_h_p, quadratic_objective, SolverConfig()
        )
        np.testing.assert_allclose(state.rho, 1.0, rtol=1e-12)
        assert state.f_value < 1e-20
        np.testing.assert_allclose(state.delta, 2.0 * delta, rtol=1e-12)
        np.testing.assert_array_equal(state.latent.to_vector(), np.zeros(6))

    def test_nonpositive_model_decrease_rejects_and_shrinks(self):
        x0 = np.ones(6)
        state = make_state(x0, delta=1.0)
        p = x0.copy()  # ascent direction
        g_dot_p = float(state.gradient @ p)
        p_h_p = float(2.0 * p @ p)
        assert not trust_region_update(
            state, p, g_dot_p, p_h_p, quadratic_objective, SolverConfig()
        )
        assert state.rho == -math.inf
        assert state.delta == 0.25
        np.testing.assert_array_equal(state.latent.to_vector(), x0)

    def test_bad_actual_decrease_rejects_and_shrinks(self):
        x0 = np.ones(6)
        state = make_state(x0, delta=1.0)
        f0 = state.f_value
        p = -0.1 * x0
        g_dot_p = float(state.gradient @ p)
        p_h_p = float(2.0 * p @ p)
        # the trial "objective" goes up even though the model predicts descent
        assert not trust_region_update(
            state, p, g_dot_p, p_h_p, lambda t: f0 + 5.0, SolverConfig()
        )
        assert state.rho < 0.0
        assert state.delta == 0.25
        np.testing.assert_array_equal(state.latent.to_vector(), x0)
        assert state.f_value == f0

    def test_non_finite_trial_rejects_and_shrinks(self):
        x0 = np.ones(6)
        state = make_state(x0, delta=1.0)
        p = -0.1 * x0
        g_dot_p = float(state.gradient @ p)
        p_h_p = float(2.0 * p @ p)
        assert not trust_region_update(
            state, p, g_dot_p, p_h_p, lambda t: math.nan, SolverConfig()
        )
        assert state.delta == 0.25
        np.testing.assert_array_equal(state.latent.to_vector(), x0)

    def test_infinite_ratio_is_accepted(self):
        # a predicted decrease that underflows makes rho = +inf; the trial is
        # finite and lower, so the step is taken
        x0 = np.ones(6)
        state = make_state(x0, delta=1.0)
        f_trial = state.f_value - 1.0
        p = np.full(6, 1e-3)
        assert trust_region_update(
            state, p, -1e-320, 0.0, lambda t: f_trial, SolverConfig()
        )
        assert state.rho == math.inf
        assert state.f_value == f_trial
        np.testing.assert_array_equal(state.latent.to_vector(), x0 + p)

    def test_small_accepted_decrease_flags_convergence(self):
        x0 = np.ones(6)
        state = make_state(x0, delta=1.0)
        f0 = state.f_value
        f_trial = f0 * (1.0 - 1e-12)
        p = np.full(6, 1e-9)
        g_dot_p = -(f0 - f_trial)
        assert trust_region_update(
            state, p, g_dot_p, 0.0, lambda t: f_trial, SolverConfig()
        )
        assert state.converged
        assert state.reason == "objective decrease below rel_f_tol"
        assert state.f_value == f_trial

    def test_interior_step_does_not_grow_radius(self):
        x0 = np.array([1.0, -2.0, 0.5, 1.5, -0.5, 2.0])
        state = make_state(x0, delta=100.0)
        p = -state.latent.to_vector()  # well inside the region
        g_dot_p = float(state.gradient @ p)
        p_h_p = float(2.0 * p @ p)
        trust_region_update(state, p, g_dot_p, p_h_p, quadratic_objective, SolverConfig())
        assert state.delta == 100.0


class TestSolve:
    def test_noiseless_recovery(self):
        prob, sri, _ = make_problem(
            dims=(8, 8, 6), rank=2, seed=7, kernel_size=3, factor=2, num_msi_bands=3
        )
        init = init_latent(prob.sri_dims, prob.rank, rng_seed=0)
        model, state, trace = solve(prob, init)
        assert state.converged
        obs_norm_sq = float(np.sum(prob.hsi**2) + np.sum(prob.msi**2))
        assert math.sqrt(state.f_value / obs_norm_sq) <= 1e-6
        assert rsnr(reconstruct_sri(model), sri) >= 60.0

    def test_init_at_truth_stops_immediately(self):
        prob, _, truth = make_problem()
        init = LatentTriple(tuple(np.sqrt(f) for f in truth))
        _, state, trace = solve(prob, init)
        assert state.converged
        assert state.iteration == 0
        assert state.reason == "gradient norm below grad_tol"
        assert trace == []

    def test_deterministic_traces(self):
        prob, _, _ = make_problem()
        init = init_latent(prob.sri_dims, prob.rank, rng_seed=1)
        _, s1, t1 = solve(prob, init)
        _, s2, t2 = solve(prob, init)
        assert t1 == t2
        assert s1.f_value == s2.f_value

    def test_returned_model_is_nonnegative(self):
        prob, _, _ = make_problem()
        init = init_latent(prob.sri_dims, prob.rank, rng_seed=2)
        model, _, _ = solve(prob, init)
        assert all(np.all(f >= 0.0) for f in model.factors)

    def test_accepted_objective_is_monotone(self):
        prob, _, _ = make_problem(dims=(8, 8, 6), rank=2, seed=7, num_msi_bands=3)
        init = init_latent(prob.sri_dims, prob.rank, rng_seed=0)
        _, _, trace = solve(prob, init)
        values = [r.f_value for r in trace]
        for prev, nxt in zip(values, values[1:]):
            assert nxt <= prev * (1.0 + 1e-12)

    def test_trace_records_the_update_decision(self, monkeypatch):
        # solve must log and act on the flag trust_region_update returns, even
        # when the ratio it leaves behind is not finite
        real = solver_module.trust_region_update
        decisions = []

        def forced(state, *args):
            accepted = real(state, *args)
            state.rho = math.inf
            decisions.append(accepted)
            return accepted

        monkeypatch.setattr(solver_module, "trust_region_update", forced)
        prob, _, _ = make_problem()
        init = init_latent(prob.sri_dims, prob.rank, rng_seed=1)
        _, state, trace = solve(prob, init, SolverConfig(max_iters=5))
        assert [r.accepted for r in trace] == decisions
        assert any(decisions)
        np.testing.assert_array_equal(state.gradient, gradient(state.latent, prob))

    def test_mismatched_init_raises(self):
        prob, _, _ = make_problem()
        bad = init_latent((3, 3, 3), prob.rank, rng_seed=0)
        with pytest.raises(ValueError):
            solve(prob, bad)

    def test_divergent_iterate_raises(self):
        prob, _, _ = make_problem()
        dims, rank = prob.sri_dims, prob.rank
        bad = LatentTriple(tuple(np.full((d, rank), 1e200) for d in dims))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverDivergenceError):
                solve(prob, bad)

    def test_iteration_budget_respected(self):
        prob, _, _ = make_problem()
        init = init_latent(prob.sri_dims, prob.rank, rng_seed=3)
        cfg = SolverConfig(max_iters=2, rel_f_tol=1e-16, grad_tol=1e-16)
        _, state, trace = solve(prob, init, cfg)
        assert len(trace) == 2
        assert not state.converged
        assert state.reason == "max_iters reached"


class TestInitLatent:
    def test_values_bounded_away_from_zero(self):
        latent = init_latent((10, 9, 8), 4, rng_seed=0)
        for m in latent.mats:
            assert np.all(m >= 0.1)
            assert np.all(m <= 1.0)

    def test_deterministic(self):
        a = init_latent((5, 5, 5), 3, rng_seed=42)
        b = init_latent((5, 5, 5), 3, rng_seed=42)
        for x, y in zip(a.mats, b.mats):
            np.testing.assert_array_equal(x, y)

    def test_shapes(self):
        latent = init_latent((6, 5, 4), 3, rng_seed=0)
        assert [m.shape for m in latent.mats] == [(6, 3), (5, 3), (4, 3)]

    def test_invalid_rank_raises(self):
        with pytest.raises(ValueError):
            init_latent((3, 3, 3), 0, rng_seed=0)


class TestSolverConfig:
    def test_defaults_validate(self):
        SolverConfig().validate()

    def test_only_caller_facing_fields(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "max_iters", "rel_f_tol", "grad_tol", "cg_max_iters", "cg_rel_tol"
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"rel_f_tol": 0.0},
            {"grad_tol": -1.0},
            {"cg_max_iters": 0},
            {"cg_rel_tol": 0.0},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs).validate()


class TestFusionProblem:
    def test_dims_derived_from_operators(self):
        prob, _, _ = make_problem(dims=(6, 5, 4))
        assert prob.sri_dims == (6, 5, 4)

    def test_mismatched_operator_raises(self):
        prob, _, _ = make_problem()
        with pytest.raises(ValueError):
            FusionProblem(
                hsi=prob.hsi[:-1], msi=prob.msi, operators=prob.operators, rank=2
            )

    def test_invalid_rank_raises(self):
        prob, _, _ = make_problem()
        with pytest.raises(ValueError):
            FusionProblem(hsi=prob.hsi, msi=prob.msi, operators=prob.operators, rank=0)
