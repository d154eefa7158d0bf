import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh, null_space
from scipy.linalg.lapack import dsygv

from cpfuse.als import AlsTrace, _gram_eigenbasis, _sylvester_rows, random_init, solve_als
from cpfuse.degradation import DegradationConfig, add_noise, build_operators, degrade
from cpfuse.metrics import rsnr
from cpfuse.solver import FusionProblem, _squared_misfit
from cpfuse.tensors import CpdModel, cpd_reconstruct
from oracles import khatri_rao, unfold


def make_problem(dims=(6, 5, 4), rank=2, seed=0):
    rng = np.random.default_rng(seed)
    truth = tuple(rng.uniform(0.1, 1.0, (d, rank)) for d in dims)
    sri = cpd_reconstruct(*truth)
    cfg = DegradationConfig(kernel_size=3, sigma=2.0, factor=2, num_msi_bands=2)
    ops = build_operators(dims, cfg)
    hsi, msi = degrade(sri, ops)
    return FusionProblem(hsi=hsi, msi=msi, operators=ops, rank=rank), sri, truth


def one_sweep_oracle(prob, init):
    """Dense normal equations via explicit Kronecker products, sequentially
    through the three factors exactly as a sweep proceeds."""
    ops = prob.operators
    p1, p2, pm = ops.spatial_1, ops.spatial_2, ops.spectral
    a, b, c = (f.copy() for f in init.factors)

    zh = khatri_rao([c, p2 @ b])
    zm = khatri_rao([pm @ c, b])
    system = np.kron(zh.T @ zh, p1.T @ p1) + np.kron(zm.T @ zm, np.eye(a.shape[0]))
    rhs = p1.T @ unfold(prob.hsi, 1) @ zh + unfold(prob.msi, 1) @ zm
    a = np.linalg.solve(system, rhs.ravel(order="F")).reshape(a.shape, order="F")

    zh = khatri_rao([c, p1 @ a])
    zm = khatri_rao([pm @ c, a])
    system = np.kron(zh.T @ zh, p2.T @ p2) + np.kron(zm.T @ zm, np.eye(b.shape[0]))
    rhs = p2.T @ unfold(prob.hsi, 2) @ zh + unfold(prob.msi, 2) @ zm
    b = np.linalg.solve(system, rhs.ravel(order="F")).reshape(b.shape, order="F")

    zh = khatri_rao([p2 @ b, p1 @ a])
    zm = khatri_rao([b, a])
    system = np.kron(zh.T @ zh, np.eye(c.shape[0])) + np.kron(zm.T @ zm, pm.T @ pm)
    rhs = unfold(prob.hsi, 3) @ zh + pm.T @ unfold(prob.msi, 3) @ zm
    c = np.linalg.solve(system, rhs.ravel(order="F")).reshape(c.shape, order="F")
    return a, b, c


def lu_sylvester_rows(evals, evecs, gamma_scaled, gamma_plain, rhs):
    """One batched LU solve per row system, with a trace-scaled ridge when any
    is singular: the row solve that the pencil replaces, kept as its fallback."""
    rank = gamma_plain.shape[0]
    rt = evecs.T @ rhs
    systems = evals[:, None, None] * gamma_scaled + gamma_plain
    try:
        xt = np.linalg.solve(systems, rt[:, :, None])[:, :, 0]
        if not np.all(np.isfinite(xt)):
            raise np.linalg.LinAlgError
    except np.linalg.LinAlgError:
        ridged = systems + (
            1e-10 * np.trace(systems, axis1=1, axis2=2)[:, None, None] + 1e-300
        ) * np.eye(rank)
        xt = np.linalg.solve(ridged, rt[:, :, None])[:, :, 0]
    return evecs @ xt


def hadamard_gram(rng, rank, zero_column=None):
    """A Hadamard product of two factor Grams, as ALS forms its row systems."""
    factors = [rng.standard_normal((rank + 4, rank)) for _ in range(2)]
    if zero_column is not None:
        factors[0][:, zero_column] = 0.0
    return (factors[0].T @ factors[0]) * (factors[1].T @ factors[1])


class TestSylvesterRows:
    @settings(max_examples=60, deadline=None)
    @given(
        rank=st.integers(1, 6),
        rows=st.integers(1, 12),
        deficiency=st.integers(0, 6),
        seed=st.integers(0, 2**31),
    )
    def test_pencil_matches_per_row_solve(self, rank, rows, deficiency, seed):
        rng = np.random.default_rng(seed)
        # Eigenvalues of a rank-deficient Q^T Q: exact zeros and rounding-sized negatives.
        evals = rng.uniform(0.0, 3.0, rows)
        kind = rng.integers(0, 3, rows)
        evals[kind == 1] = 0.0
        evals[kind == 2] = -1e-16 * rng.uniform(0.0, 10.0, int(np.sum(kind == 2)))
        evecs = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
        # A scaled Gram of rank rank - deficiency (zero when that is not positive).
        m = rng.standard_normal((rank, max(rank - deficiency, 0)))
        gamma_scaled = m @ m.T
        gamma_plain = hadamard_gram(rng, rank)
        rhs = rng.standard_normal((rows, rank))

        rt = evecs.T @ rhs
        want = evecs @ np.array(
            [np.linalg.solve(e * gamma_scaled + gamma_plain, r) for e, r in zip(evals, rt)]
        )
        got = _sylvester_rows(evals, evecs, gamma_scaled, gamma_plain, rhs, dsygv)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())

    def test_singular_plain_gram_takes_the_ridged_lu_fallback(self):
        rng = np.random.default_rng(3)
        rank, rows = 4, 7
        # A zero factor column makes G_p singular, so the pencil is not definite.
        gamma_plain = hadamard_gram(rng, rank, zero_column=2)
        gamma_scaled = hadamard_gram(rng, rank)
        assert dsygv(gamma_scaled, gamma_plain)[2] != 0
        # A zero eigenvalue leaves its row system as singular as G_p.
        evals = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        evecs = np.linalg.qr(rng.standard_normal((rows, rows)))[0]
        rhs = rng.standard_normal((rows, rank))
        got = _sylvester_rows(evals, evecs, gamma_scaled, gamma_plain, rhs, dsygv)
        assert np.all(np.isfinite(got))
        np.testing.assert_array_equal(
            got, lu_sylvester_rows(evals, evecs, gamma_scaled, gamma_plain, rhs)
        )


    def test_non_finite_lu_solution_takes_the_ridge(self):
        # G_p = 0 is not definite, so the pencil fails; the row system
        # diag(1e-300, 1) is not exactly singular, so LU succeeds but its
        # solution overflows, and only the ridged solve is finite.
        gamma_scaled, gamma_plain = np.diag([1e-300, 1.0]), np.zeros((2, 2))
        evals, evecs, rhs = np.array([1.0]), np.eye(1), np.array([[1e10, 1.0]])
        assert dsygv(gamma_scaled, gamma_plain)[2] != 0
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(np.linalg.solve(gamma_scaled, rhs[0])))
            got = _sylvester_rows(evals, evecs, gamma_scaled, gamma_plain, rhs, dsygv)
        ridged = gamma_scaled + (1e-10 * (1.0 + 1e-300) + 1e-300) * np.eye(2)
        np.testing.assert_array_equal(got, np.linalg.solve(ridged, rhs[0])[None, :])


class TestThinBasis:
    """The operator's thin SVD basis against QᵀQ's full eigenbasis."""

    @pytest.mark.parametrize("shape", ["rows < d", "rows = d", "rows > d"])
    @settings(max_examples=40, deadline=None)
    @given(
        rank=st.integers(1, 6),
        dim=st.integers(1, 12),
        offset=st.integers(1, 6),
        repeats=st.integers(0, 3),
        seed=st.integers(0, 2**31),
    )
    def test_matches_per_row_solve_in_full_eigenbasis(
        self, shape, rank, dim, offset, repeats, seed
    ):
        assume(shape != "rows < d" or dim > 1)
        rows = {"rows < d": max(dim - offset, 1), "rows = d": dim, "rows > d": dim + offset}
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((rows[shape], dim))
        # Repeated rows leave Q rank-deficient, with zero singular values in V.
        q[1 : 1 + repeats] = q[0]
        gamma_scaled, gamma_plain = hadamard_gram(rng, rank), hadamard_gram(rng, rank)
        rhs = rng.standard_normal((dim, rank))

        evals, evecs = eigh(q.T @ q)
        rt = evecs.T @ rhs
        want = evecs @ np.array(
            [np.linalg.solve(e * gamma_scaled + gamma_plain, r) for e, r in zip(evals, rt)]
        )
        thin = _gram_eigenbasis(q)
        assert thin[1].shape == (dim, min(rows[shape], dim))
        got = _sylvester_rows(*thin, gamma_scaled, gamma_plain, rhs, dsygv)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())

    def test_singular_plain_gram_falls_back_on_the_completed_basis(self):
        rng = np.random.default_rng(4)
        rank, rows, dim = 4, 3, 7
        gamma_plain = hadamard_gram(rng, rank, zero_column=2)
        gamma_scaled = hadamard_gram(rng, rank)
        assert dsygv(gamma_scaled, gamma_plain)[2] != 0
        evals, evecs = _gram_eigenbasis(rng.standard_normal((rows, dim)))
        assert evecs.shape == (dim, rows)
        rhs = rng.standard_normal((dim, rank))
        got = _sylvester_rows(evals, evecs, gamma_scaled, gamma_plain, rhs, dsygv)
        assert np.all(np.isfinite(got))
        # Any orthonormal completion: the null space of Q has eigenvalue 0.
        completed = np.hstack([evecs, null_space(evecs.T)])
        full_evals = np.concatenate([evals, np.zeros(dim - rows)])
        want = lu_sylvester_rows(full_evals, completed, gamma_scaled, gamma_plain, rhs)
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10 * np.abs(want).max())


class TestSolveAls:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_rank_column_permutation(self, seed, data):
        # A sweep from a column-permuted init gives the column-permuted
        # factors.  The R x R pencils are solved in a permuted basis, so the
        # error grows with their conditioning: measured over 2,200 draws of
        # rank 1-3 the relative error is at most 5e-10 (99th percentile 1.3e-11).
        # Rank 4 on this 6 x 5 x 4 scene is conditioned worse (up to 2.8e-9),
        # so it is left out.
        rank = data.draw(st.integers(min_value=1, max_value=3), label="rank")
        perm = list(data.draw(st.permutations(range(rank)), label="perm"))
        prob, _, _ = make_problem(rank=rank, seed=seed)
        init = random_init(prob.sri_dims, rank, rng_seed=seed)
        model, _ = solve_als(prob, init, max_iters=1)
        permuted, _ = solve_als(prob, CpdModel(tuple(f[:, perm] for f in init.factors)),
                                max_iters=1)
        for got, f in zip(permuted.factors, model.factors):
            want = f[:, perm]
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_one_sweep_matches_dense_kronecker_oracle(self):
        prob, _, _ = make_problem()
        init = random_init(prob.sri_dims, prob.rank, rng_seed=7)
        expected = one_sweep_oracle(prob, init)
        model, trace = solve_als(prob, init, max_iters=1)
        assert trace.sweeps == 1
        for got, want in zip(model.factors, expected):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_near_truth_init_recovers_scene(self):
        prob, sri, truth = make_problem()
        rng = np.random.default_rng(1)
        init = CpdModel(tuple(f + 0.01 * rng.standard_normal(f.shape) for f in truth))
        model, trace = solve_als(prob, init, max_iters=500, rel_f_tol=1e-14)
        data_norm_sq = float(np.sum(prob.hsi**2) + np.sum(prob.msi**2))
        assert trace.objectives[-1] <= 1e-8 * data_norm_sq
        assert rsnr(cpd_reconstruct(*model.factors), sri) >= 60.0

    def test_objective_nonincreasing_per_sweep(self):
        prob, _, _ = make_problem(seed=4)
        init = random_init(prob.sri_dims, prob.rank, rng_seed=9)
        _, trace = solve_als(prob, init, max_iters=100, rel_f_tol=1e-14)
        for prev, nxt in zip(trace.objectives, trace.objectives[1:]):
            assert nxt <= prev * (1.0 + 1e-12)

    @pytest.mark.parametrize("snr_db", [math.inf, 20.0])
    @pytest.mark.parametrize("near_truth", [False, True])
    @pytest.mark.parametrize("max_iters", [1, 300])
    def test_last_objective_is_the_exact_misfit(self, snr_db, near_truth, max_iters):
        # Noiseless runs from near the truth end below solver.GUARD.
        clean, _, truth = make_problem(seed=2)
        hsi, msi = (add_noise(t, snr_db, k) for k, t in enumerate(clean.images))
        prob = FusionProblem(hsi, msi, clean.operators, clean.rank)
        rng = np.random.default_rng(5)
        if near_truth:
            init = CpdModel(tuple(f + 0.01 * rng.standard_normal(f.shape) for f in truth))
        else:
            init = random_init(prob.sri_dims, prob.rank, rng_seed=5)
        model, trace = solve_als(prob, init, max_iters=max_iters, rel_f_tol=1e-14)
        want = sum(
            _squared_misfit(cpd_reconstruct(*f), image)
            for image, f in zip(prob.images, prob.operators.project(model.factors))
        )
        assert abs(trace.objectives[-1] - want) <= 1e-10 * want

    def test_trace_bookkeeping(self):
        prob, _, _ = make_problem()
        init = random_init(prob.sri_dims, prob.rank, rng_seed=3)
        model, trace = solve_als(prob, init, max_iters=5, rel_f_tol=1e-16)
        assert isinstance(trace, AlsTrace)
        assert len(trace.objectives) == trace.sweeps + 1
        assert trace.sweeps == 5
        assert not trace.converged
        assert isinstance(model, CpdModel)

    def test_loose_tolerance_converges(self):
        prob, _, _ = make_problem()
        init = random_init(prob.sri_dims, prob.rank, rng_seed=3)
        _, trace = solve_als(prob, init, max_iters=200, rel_f_tol=1e-2)
        assert trace.converged
        assert trace.sweeps < 200

    def test_initial_objective_recorded(self):
        prob, _, _ = make_problem()
        init = random_init(prob.sri_dims, prob.rank, rng_seed=2)
        a, b, c = init.factors
        ops = prob.operators
        res_h = prob.hsi - cpd_reconstruct(ops.spatial_1 @ a, ops.spatial_2 @ b, c)
        res_m = prob.msi - cpd_reconstruct(a, b, ops.spectral @ c)
        expected = float(np.sum(res_h**2) + np.sum(res_m**2))
        _, trace = solve_als(prob, init, max_iters=1)
        np.testing.assert_allclose(trace.objectives[0], expected, rtol=1e-14)

    def test_mismatched_init_raises(self):
        prob, _, _ = make_problem()
        with pytest.raises(ValueError):
            solve_als(prob, random_init((3, 3, 3), prob.rank, rng_seed=0))

    def test_invalid_max_iters_raises(self):
        prob, _, _ = make_problem()
        init = random_init(prob.sri_dims, prob.rank, rng_seed=0)
        with pytest.raises(ValueError):
            solve_als(prob, init, max_iters=0)

    @pytest.mark.parametrize("rel_f_tol", [0.0, -1.0, math.nan])
    def test_invalid_rel_f_tol_raises(self, rel_f_tol):
        # Rejected like SolverConfig's, instead of running every sweep unconverged.
        prob, _, _ = make_problem()
        init = random_init(prob.sri_dims, prob.rank, rng_seed=0)
        with pytest.raises(ValueError):
            solve_als(prob, init, rel_f_tol=rel_f_tol)


class TestRandomInit:
    def test_shapes_and_determinism(self):
        a = random_init((5, 4, 3), 2, rng_seed=11)
        b = random_init((5, 4, 3), 2, rng_seed=11)
        assert [f.shape for f in a.factors] == [(5, 2), (4, 2), (3, 2)]
        for x, y in zip(a.factors, b.factors):
            np.testing.assert_array_equal(x, y)

    def test_invalid_rank_raises(self):
        with pytest.raises(ValueError):
            random_init((3, 3, 3), 0, rng_seed=0)

    def test_invalid_dims_raises(self):
        # A zero size would otherwise give a zero-row factor.
        with pytest.raises(ValueError):
            random_init((0, 3, 3), 2, rng_seed=0)
