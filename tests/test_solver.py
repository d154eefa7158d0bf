import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

import cpfuse.solver as solver_module
from cpfuse.degradation import (
    DegradationConfig,
    DegradationOperators,
    add_noise,
    build_operators,
    degrade,
)
from cpfuse.solver import (
    FusionProblem,
    GramianOperator,
    IterationRecord,
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
from cpfuse.experiment import SceneConfig, simulate_scene
from cpfuse.metrics import metrics_report
from cpfuse.tensors import cpd_reconstruct
from oracles import dogleg_vectors


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


def no_precond(r):
    return r


def dense_operator(apply_fn, size):
    cols = [apply_fn(np.eye(size)[:, i]) for i in range(size)]
    return np.column_stack(cols)


def _blocks(vec, gram):
    dims = tuple(shape[0] for shape in gram.block_shapes)
    return LatentTriple.from_vector(vec, dims, gram.block_shapes[0][1]).mats


def _reference_term(blocks, factors, projections, grams):
    """Per-call Gramian term of one residual stack: the Hadamard products and
    each cross Gram (twice) are recomputed on every call."""
    projected = [b if q is None else q @ b for q, b in zip(projections, blocks)]
    out = []
    for n1 in range(3):
        o = [m for m in range(3) if m != n1]
        acc = projected[n1] @ (grams[o[0]] * grams[o[1]])
        for n2 in o:
            n3 = 3 - n1 - n2
            acc = acc + factors[n1] @ ((projected[n2].T @ factors[n2]) * grams[n3])
        q = projections[n1]
        out.append(acc if q is None else q.T @ acc)
    return out


def _grams(gram):
    return [[f.T @ f for f in factors] for factors in gram.factors]


def identity_operators(dims):
    return DegradationOperators(*(np.eye(d) for d in dims))


def gramian_from_factors(scale, factors, operators):
    """A Gramian built from its fields, with the Grams and Hadamard products
    that an evaluation forms from the same factors."""
    return GramianOperator(scale, factors, *solver_module._gram_products(factors), operators)


def reference_gramian_apply(gram, z):
    """Oracle for ``GramianOperator.apply`` built from its fields alone, with
    the coupling written out by hand."""
    lam_blocks = _blocks(gram.scale, gram)
    blocks = [lam * t for lam, t in zip(lam_blocks, _blocks(z, gram))]
    ops = gram.operators
    (u, v), (u_grams, v_grams) = gram.factors, _grams(gram)
    out_u = _reference_term(blocks, u, [ops.spatial_1, ops.spatial_2, None], u_grams)
    out_v = _reference_term(blocks, v, [None, None, ops.spectral], v_grams)
    return LatentTriple(
        tuple(lam * (x + y) for lam, x, y in zip(lam_blocks, out_u, out_v))
    ).vec


def ridged_block_systems(gram):
    """The preconditioner's R x R block systems, with their trace-scaled ridge.

    Mode n's exact diagonal block maps ``B`` to ``Q^T Q B H_deg + B H_keep``;
    the system stands in ``||Q||_F^2 / d_n`` times the identity for ``Q^T Q``.
    """
    rank = gram.block_shapes[0][1]
    u_grams, v_grams = _grams(gram)
    ops = gram.operators
    # The HSI degrades the two spatial modes, the MSI the spectral one.
    weights = [np.sum(q * q) / q.shape[1] for q in (ops.spatial_1, ops.spatial_2, ops.spectral)]
    systems = []
    for n in range(3):
        o = [m for m in range(3) if m != n]
        hu = u_grams[o[0]] * u_grams[o[1]]
        hv = v_grams[o[0]] * v_grams[o[1]]
        g = weights[n] * hu + hv if n < 2 else hu + weights[n] * hv
        eps = 1e-12 * float(np.trace(g))
        systems.append(g + (eps if eps > 0.0 else 1.0) * np.eye(rank))
    return systems


def reference_preconditioner(gram):
    """Oracle for ``block_jacobi_preconditioner``: Cholesky solves per apply."""
    factorizations = [cho_factor(m) for m in ridged_block_systems(gram)]
    lam_sq = [lam * lam for lam in _blocks(gram.scale, gram)]
    eps_lam = 1e-8 * float(np.mean(np.concatenate([s.ravel() for s in lam_sq])))
    scales = [np.sqrt(np.maximum(s, eps_lam if eps_lam > 0.0 else 1.0)) for s in lam_sq]

    def apply(vec):
        out = [
            cho_solve(cho, (block / scale).T).T / scale
            for block, scale, cho in zip(_blocks(vec, gram), scales, factorizations)
        ]
        return LatentTriple(tuple(out)).vec

    return apply


def random_gramian(seed, rank, dims, zero_frac, direct):
    """A Gramian at a random point whose latent has zeroed entries.

    ``direct`` builds the operator from its fields with identity operators and
    factors unrelated to the latent; otherwise it comes from ``from_latent``
    on a problem with random dense operators and random images.
    """
    rng = np.random.default_rng(seed)
    mats = []
    for d in dims:
        m = rng.uniform(-1.0, 1.0, (d, rank))
        m[rng.random((d, rank)) < zero_frac] = 0.0
        mats.append(m)
    latent = LatentTriple(tuple(mats))
    if not direct:
        i, j, k = dims
        ops = DegradationOperators(
            spatial_1=rng.uniform(0.0, 1.0, (max(i - 1, 1), i)),
            spatial_2=rng.uniform(0.0, 1.0, (max(j - 2, 1), j)),
            spectral=rng.uniform(0.0, 1.0, (max(k - 1, 1), k)),
        )
        hsi = rng.uniform(0.0, 1.0, (ops.spatial_1.shape[0], ops.spatial_2.shape[0], k))
        msi = rng.uniform(0.0, 1.0, (i, j, ops.spectral.shape[0]))
        return GramianOperator.from_latent(latent, FusionProblem(hsi, msi, ops, rank))
    u = [rng.uniform(0.0, 1.0, (d, rank)) for d in dims]
    v = [rng.uniform(0.0, 1.0, (d, rank)) for d in dims]
    return gramian_from_factors(2.0 * latent.vec, (u, v), identity_operators(dims))


random_gramians = st.builds(
    random_gramian,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    rank=st.integers(1, 4),
    dims=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
    zero_frac=st.sampled_from([0.0, 0.3, 0.7]),
    direct=st.booleans(),
)


class TestLatentTriple:
    def test_vector_round_trip(self):
        rng = np.random.default_rng(0)
        mats = tuple(rng.standard_normal((d, 3)) for d in (4, 3, 5))
        latent = LatentTriple(mats)
        back = LatentTriple.from_vector(latent.vec, (4, 3, 5), 3)
        for m, b in zip(latent.mats, back.mats):
            np.testing.assert_array_equal(m, b)

    def test_from_vector_matches_the_constructor_bit_for_bit(self):
        rng = np.random.default_rng(1)
        latent = LatentTriple(tuple(rng.standard_normal((d, 3)) for d in (4, 3, 5)))
        back = LatentTriple.from_vector(latent.vec, (4, 3, 5), 3)
        assert back.vec.tobytes() == latent.vec.tobytes()
        assert not np.shares_memory(back.vec, latent.vec)
        for m, b in zip(latent.mats, back.mats):
            # The blocks are (d, R) views of the packed vector, Fortran-ordered.
            assert b.flags.f_contiguous and b.shape == m.shape
            assert np.shares_memory(b, back.vec)
            assert b.tobytes() == m.tobytes()

    @pytest.mark.parametrize("dims", [(4, 3), (4, 3, 5, 2)])
    def test_from_vector_rejects_dims_that_are_not_three(self, dims):
        vec = np.zeros(3 * sum(dims))
        with pytest.raises(ValueError, match="expected 3 two-dimensional"):
            LatentTriple.from_vector(vec, dims, 3)

    def test_vector_layout_is_column_major(self):
        latent = LatentTriple((np.array([[1.0, 3.0], [2.0, 4.0]]),) * 3)
        np.testing.assert_array_equal(
            latent.vec, np.array([1.0, 2.0, 3.0, 4.0] * 3)
        )

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

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_rank_column_permutation(self, seed, data):
        # Relabelling the rank-one terms leaves f unchanged and permutes the
        # columns of each latent block of the gradient the same way.
        rank = data.draw(st.integers(min_value=1, max_value=4), label="rank")
        perm = list(data.draw(st.permutations(range(rank)), label="perm"))
        prob, _, _ = make_problem(dims=(6, 5, 4), rank=rank, seed=seed)
        latent = init_latent(prob.sri_dims, rank, rng_seed=seed)
        permuted = LatentTriple(tuple(m[:, perm] for m in latent.mats))
        np.testing.assert_allclose(
            objective(permuted, prob), objective(latent, prob), rtol=1e-12
        )
        blocks = LatentTriple.from_vector(gradient(latent, prob), prob.sri_dims, rank)
        want = LatentTriple(tuple(m[:, perm] for m in blocks.mats)).vec
        got = gradient(permuted, prob)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def exact_objective(latent, prob):
    """Reference: both images reconstructed and their residuals summed."""
    factors = prob.operators.project(square_params(latent).factors)
    return sum(
        solver_module._squared_misfit(cpd_reconstruct(*f), image)
        for image, f in zip(prob.images, factors)
    )


def perturbed_truth_point(snr_db, spread, seed):
    """A problem whose images carry noise at ``snr_db`` (none at inf) and the
    truth's latent point with each entry scaled by ``1 + spread * N(0, 1)``."""
    prob, _, truth = make_problem(dims=(6, 5, 4), rank=2, seed=seed)
    hsi, msi = (add_noise(t, snr_db, seed + k) for k, t in enumerate(prob.images))
    prob = FusionProblem(hsi, msi, prob.operators, prob.rank)
    rng = np.random.default_rng(seed)
    latent = LatentTriple(
        tuple(np.sqrt(f) * (1.0 + spread * rng.standard_normal(f.shape)) for f in truth)
    )
    return prob, latent


class TestGuardedObjective:
    """``objective`` takes each image's misfit from the Gram expansion above
    ``GUARD * ||X||^2`` and from the reconstructed residual below it."""

    def count_reconstructions(self, monkeypatch):
        calls = []
        real = solver_module.cpd_reconstruct

        def counted(*factors):
            calls.append(1)
            return real(*factors)

        monkeypatch.setattr(solver_module, "cpd_reconstruct", counted)
        return calls

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        snr_db=st.one_of(st.just(math.inf), st.floats(min_value=0.0, max_value=140.0)),
        spread=st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=0.3)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_exact_misfit(self, seed, snr_db, spread):
        # Noisy, noiseless and near-zero-residual points, on both sides of the guard.
        prob, latent = perturbed_truth_point(snr_db, spread, seed)
        want = exact_objective(latent, prob)
        assert abs(objective(latent, prob) - want) <= 1e-10 * want

    @pytest.mark.parametrize("side", [0.5, 2.0])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_guard_picks_the_evaluation(self, monkeypatch, side, seed):
        # Noise at side * GUARD of each image's norm, evaluated at the truth.
        snr_db = -10.0 * math.log10(side * solver_module.GUARD)
        prob, latent = perturbed_truth_point(snr_db, 0.0, seed)
        want = exact_objective(latent, prob)
        calls = self.count_reconstructions(monkeypatch)
        got = objective(latent, prob)
        assert len(calls) == (2 if side < 1.0 else 0)
        assert abs(got - want) <= 1e-10 * want

    def test_problem_keeps_the_squared_norms(self):
        prob, _, _ = make_problem()
        np.testing.assert_allclose(prob.norms_sq, [np.sum(t * t) for t in prob.images], rtol=1e-14)


class TestGradient:
    def test_zero_at_exact_model(self):
        prob, _, truth = make_problem()
        latent = LatentTriple(tuple(np.sqrt(f) for f in truth))
        assert np.max(np.abs(gradient(latent, prob))) < 1e-10

    def test_matches_finite_differences(self):
        prob, _, _ = make_problem(dims=(5, 4, 3), rank=2, seed=2)
        dims, rank = prob.sri_dims, prob.rank
        latent = init_latent(dims, rank, rng_seed=4)
        x = latent.vec
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
        mats = [m.copy() for m in init_latent(prob.sri_dims, prob.rank, rng_seed=0).mats]
        mats[0][0, 0] = 0.0
        latent = LatentTriple(tuple(mats))
        # entry (0, 0) of the first block sits at packed position 0
        assert gradient(latent, prob)[0] == 0.0

    def test_packed_length(self):
        prob, _, _ = make_problem()
        latent = init_latent(prob.sri_dims, prob.rank, rng_seed=0)
        expected = sum(d * prob.rank for d in prob.sri_dims)
        assert gradient(latent, prob).shape == (expected,)


def permute_columns(vec, dims, rank, perm):
    """The packed vector whose (d, R) blocks are those of ``vec`` with their
    columns in the order ``perm``."""
    blocks = LatentTriple.from_vector(vec, dims, rank).mats
    return LatentTriple(tuple(m[:, perm] for m in blocks)).vec


def permuted_point(seed, data):
    """A problem, a latent point on it, the point with its rank columns
    permuted, the permutation and a random packed vector."""
    rank = data.draw(st.integers(min_value=1, max_value=4), label="rank")
    perm = list(data.draw(st.permutations(range(rank)), label="perm"))
    prob, _, _ = make_problem(dims=(6, 5, 4), rank=rank, seed=seed)
    latent = init_latent(prob.sri_dims, rank, rng_seed=seed)
    permuted = LatentTriple(tuple(m[:, perm] for m in latent.mats))
    z = np.random.default_rng(seed).standard_normal(latent.vec.size)
    return prob, latent, permuted, perm, z


class TestGramianOperator:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_rank_column_permutation(self, seed, data):
        # Relabelling the rank-one terms permutes the Gramian's rows and
        # columns alike: at the permuted point, the permuted input maps to the
        # permuted output.  Measured over 3,000 draws the relative error is at
        # most 3.4e-16, so the bound leaves a margin of about 300.
        prob, latent, permuted, perm, z = permuted_point(seed, data)
        dims, rank = prob.sri_dims, prob.rank
        gram = GramianOperator.from_latent(latent, prob)
        want = permute_columns(gram.apply(z), dims, rank, perm)
        gram = GramianOperator.from_latent(permuted, prob)
        got = gram.apply(permute_columns(z, dims, rank, perm))
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_zero_vector_maps_to_zero(self):
        prob, _, _ = make_problem()
        latent = init_latent(prob.sri_dims, prob.rank, rng_seed=1)
        gram = GramianOperator.from_latent(latent, prob)
        np.testing.assert_array_equal(gram.apply(np.zeros(gram.size)), 0.0)

    def test_matches_dense_jacobian_oracle(self):
        prob, _, _ = make_problem(dims=(4, 3, 3), rank=2, seed=6)
        dims, rank = prob.sri_dims, prob.rank
        latent = init_latent(dims, rank, rng_seed=9)
        gram = GramianOperator.from_latent(latent, prob)
        dense = dense_operator(gram.apply, gram.size)
        jac = fd_jacobian(latent.vec, prob, dims, rank)
        oracle = jac.T @ jac
        np.testing.assert_allclose(dense, oracle, rtol=1e-6, atol=1e-9)

    def test_symmetric_and_positive_semidefinite(self):
        prob, _, _ = make_problem(dims=(4, 3, 3), rank=2, seed=6)
        latent = init_latent(prob.sri_dims, prob.rank, rng_seed=9)
        gram = GramianOperator.from_latent(latent, prob)
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
        gram = gramian_from_factors(
            scale=np.ones(sum(dims) * rank),
            factors=(factors, [np.zeros((d, rank)) for d in dims]),
            operators=identity_operators(dims),
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
        gram = GramianOperator.from_latent(latent, prob)
        with pytest.raises(ValueError):
            gram.apply(np.zeros(gram.size + 1))

    @given(gram=random_gramians, seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_call_reference_formula(self, gram, seed):
        z = np.random.default_rng(seed).standard_normal(gram.size)
        expected = reference_gramian_apply(gram, z)
        got = gram.apply(z)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_leaves_input_alone_and_returns_fresh_arrays(self):
        gram = random_gramian(3, 3, (5, 4, 3), 0.3, direct=False)
        z = np.random.default_rng(0).standard_normal(gram.size)
        before = z.copy()
        first = gram.apply(z)
        second = gram.apply(z)
        np.testing.assert_array_equal(z, before)
        np.testing.assert_array_equal(first, second)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, z)

    def test_frozen_against_field_mutation(self):
        # An apply reads only what construction formed, so changing a factor
        # or an operator matrix in place afterwards changes nothing.
        gram = random_gramian(5, 3, (5, 4, 3), 0.0, direct=False)
        z = np.random.default_rng(2).standard_normal(gram.size)
        before = gram.apply(z)
        gram.factors[0][0] += 1.0
        gram.operators.spatial_1[...] *= 2.0
        np.testing.assert_array_equal(gram.apply(z), before)

    @given(gram=random_gramians, seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_apply_does_not_depend_on_call_history(self, gram, seed):
        rng = np.random.default_rng(seed)
        z1, z2 = rng.standard_normal(gram.size), rng.standard_normal(gram.size)
        first = gram.apply(z1)
        gram.apply(z2)
        np.testing.assert_array_equal(gram.apply(z1), first)


class TestBlockJacobiPreconditioner:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_rank_column_permutation(self, seed, data):
        # The preconditioner built at the permuted point maps the permuted
        # input to the permuted output.  Measured over 3,000 draws the relative
        # error is at most 3.5e-15 (the R x R block inverses round differently
        # in a permuted basis), so the bound leaves a margin of about 300.
        prob, latent, permuted, perm, z = permuted_point(seed, data)
        dims, rank = prob.sri_dims, prob.rank
        precond = block_jacobi_preconditioner(GramianOperator.from_latent(latent, prob))
        want = permute_columns(precond(z), dims, rank, perm)
        precond = block_jacobi_preconditioner(GramianOperator.from_latent(permuted, prob))
        got = precond(permute_columns(z, dims, rank, perm))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_isotropic_case_is_scalar_inverse(self):
        # Unit latent, identity Grams and operators s I: the exact diagonal
        # block of every mode is (1 + s^2) I, which the block system matches,
        # and the chain scaling contributes a factor 4, so the preconditioner
        # is I / (4 (1 + s^2)): I/8 for identity operators.
        dims, rank = (3, 3, 2), 2
        orthonormal = [np.eye(d, rank) for d in dims]
        v = np.random.default_rng(0).standard_normal(sum(dims) * rank)
        for s in (1.0, 0.5):
            gram = gramian_from_factors(
                scale=np.full(v.size, 2.0),
                factors=(orthonormal, orthonormal),
                operators=DegradationOperators(*(s * np.eye(d) for d in dims)),
            )
            precond = block_jacobi_preconditioner(gram)
            np.testing.assert_allclose(precond(v), v / (4.0 * (1.0 + s * s)), rtol=1e-9)

    def test_linear_map(self):
        prob, _, _ = make_problem(dims=(4, 3, 3), rank=2, seed=1)
        mats = [m.copy() for m in init_latent(prob.sri_dims, prob.rank, rng_seed=3).mats]
        mats[1][0, 0] = 0.0
        latent = LatentTriple(tuple(mats))
        precond = block_jacobi_preconditioner(
            GramianOperator.from_latent(latent, prob)
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
            GramianOperator.from_latent(latent, prob)
        )
        rng = np.random.default_rng(5)
        for _ in range(5):
            v = rng.standard_normal(20)
            assert v @ precond(v) > 0.0

    @given(gram=random_gramians, seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_cholesky_reference(self, gram, seed):
        v = np.random.default_rng(seed).standard_normal(gram.size)
        expected = reference_preconditioner(gram)(v)
        got = block_jacobi_preconditioner(gram)(v)
        # Two stable solvers agree to about cond * eps; a block whose Grams are
        # singular (fewer rows than the rank, or a zero latent column) is
        # conditioned by the 1e-12 ridge alone.
        cond = max(np.linalg.cond(m) for m in ridged_block_systems(gram))
        tol = 1e-10 + 1e-14 * cond
        assert np.linalg.norm(got - expected) <= tol * np.linalg.norm(expected)

    @given(gram=random_gramians, seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_symmetric(self, gram, seed):
        precond = block_jacobi_preconditioner(gram)
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal(gram.size), rng.standard_normal(gram.size)
        np.testing.assert_allclose(x @ precond(y), y @ precond(x), rtol=1e-12)

    def test_leaves_input_alone_and_returns_fresh_arrays(self):
        precond = block_jacobi_preconditioner(random_gramian(4, 3, (5, 4, 3), 0.3, direct=False))
        v = np.random.default_rng(1).standard_normal(3 * 12)
        before = v.copy()
        first = precond(v)
        second = precond(v)
        np.testing.assert_array_equal(v, before)
        np.testing.assert_array_equal(first, second)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, v)

    @given(gram=random_gramians, seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_apply_does_not_depend_on_call_history(self, gram, seed):
        precond = block_jacobi_preconditioner(gram)
        rng = np.random.default_rng(seed)
        v1, v2 = rng.standard_normal(gram.size), rng.standard_normal(gram.size)
        first = precond(v1)
        precond(v2)
        np.testing.assert_array_equal(precond(v1), first)

    def test_reduces_pcg_iterations(self):
        # identity degradation operators keep the comparison well conditioned
        prob, _, _ = make_problem(
            dims=(6, 5, 4), rank=2, seed=3, kernel_size=1, factor=1, num_msi_bands=4
        )
        latent = init_latent(prob.sri_dims, prob.rank, rng_seed=5)
        g = gradient(latent, prob)
        gram = GramianOperator.from_latent(latent, prob)
        hop = lambda z: 2.0 * gram.apply(z)  # noqa: E731
        budget = dict(max_iters=400, rel_tol=1e-8)
        plain = pcg(hop, g, no_precond, **budget)
        precond = pcg(hop, g, block_jacobi_preconditioner(gram), **budget)
        assert not precond.curvature_exit
        assert precond.residual_norm <= budget["rel_tol"] * np.linalg.norm(g)
        assert precond.iterations <= plain.iterations


class TestPcg:
    def test_identity_hessian_converges_in_one_iteration(self):
        g = np.array([3.0, -1.0, 2.0, 0.5, -4.0])
        result = pcg(lambda z: z, g, no_precond)
        np.testing.assert_allclose(result.step, -g, rtol=1e-14)
        assert result.iterations == 1
        assert result.residual_norm < 1e-12
        assert not result.curvature_exit

    def test_two_by_two_exact_solution(self):
        h = np.array([[4.0, 1.0], [1.0, 3.0]])
        g = np.array([1.0, 2.0])
        result = pcg(lambda z: h @ z, g, no_precond, rel_tol=1e-12)
        np.testing.assert_allclose(
            result.step, np.array([-1.0 / 11.0, -7.0 / 11.0]), rtol=1e-10
        )
        assert result.iterations <= 2

    def test_finite_termination_with_few_distinct_eigenvalues(self):
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        h = q @ np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]) @ q.T
        g = rng.standard_normal(6)
        result = pcg(lambda z: h @ z, g, no_precond, max_iters=10, rel_tol=1e-10)
        assert result.iterations <= 6
        assert result.residual_norm <= 1e-10 * np.linalg.norm(g)

    def test_negative_curvature_exit(self):
        h = np.diag([1.0, -1.0])
        g = np.array([0.0, 1.0])
        result = pcg(lambda z: h @ z, g, no_precond)
        assert result.curvature_exit
        assert result.iterations == 0
        np.testing.assert_array_equal(result.step, np.zeros(2))

    def test_zero_gradient_short_circuits(self):
        result = pcg(lambda z: z, np.zeros(4), no_precond)
        assert isinstance(result, PcgResult)
        assert result.iterations == 0
        np.testing.assert_array_equal(result.step, np.zeros(4))

    @staticmethod
    def counted_pcg(h, g, **budget):
        """PCG on ``h`` with a Jacobi preconditioner, and its calls of each."""
        calls = {"hop": 0, "precond": 0}

        def hop(z):
            calls["hop"] += 1
            return h @ z

        def precond(r):
            calls["precond"] += 1
            return r / np.abs(np.diag(h))

        return pcg(hop, g, precond, **budget), calls

    def test_full_budget_applies_each_operator_max_iters_times(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((12, 12))
        h = a @ a.T + np.diag(np.arange(1.0, 13.0))
        result, calls = self.counted_pcg(h, rng.standard_normal(12), max_iters=5,
                                         rel_tol=1e-14)
        assert result.iterations == 5 and not result.curvature_exit
        # No preconditioner apply follows the last iteration.
        assert calls == {"hop": 5, "precond": 5}

    def test_tolerance_exit_at_iteration_k_applies_the_preconditioner_k_times(self):
        # Three distinct eigenvalues: CG meets the tolerance by iteration 3.
        rng = np.random.default_rng(10)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        h = q @ np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]) @ q.T
        result, calls = self.counted_pcg(h, rng.standard_normal(6), max_iters=10,
                                         rel_tol=1e-10)
        k = result.iterations
        assert 1 <= k < 10 and not result.curvature_exit
        assert calls == {"hop": k, "precond": k}

    def test_curvature_exit_at_iteration_k_applies_the_preconditioner_k_times(self):
        # Preconditioned, the positive eigenvalues coincide, so the second
        # direction lies along the negative one.
        h = np.diag([1.0, 2.0, 3.0, -1.0])
        result, calls = self.counted_pcg(h, np.array([1.0, 1.0, 1.0, 0.1]))
        assert result.curvature_exit
        # An exit at iteration k reports the k - 1 completed iterations.
        k = result.iterations + 1
        assert k == 2
        assert calls == {"hop": k, "precond": k}

    def test_norm_exit_after_the_first_iteration_past_max_norm(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((12, 12))
        h = a @ a.T + np.diag(np.arange(1.0, 13.0))
        g = rng.standard_normal(12)
        first, _ = self.counted_pcg(h, g, max_iters=1)
        bound = 0.5 * np.linalg.norm(first.step)
        result, calls = self.counted_pcg(h, g, max_norm=bound)
        assert result.norm_exit and not result.curvature_exit
        assert result.iterations == 1
        assert calls == {"hop": 1, "precond": 1}
        np.testing.assert_array_equal(result.step, first.step)
        assert np.linalg.norm(result.step) > bound

    def test_infinite_max_norm_changes_nothing(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((12, 12))
        h = a @ a.T + np.diag(np.arange(1.0, 13.0))
        g = rng.standard_normal(12)
        plain, _ = self.counted_pcg(h, g, max_iters=8, rel_tol=1e-14)
        unbounded, _ = self.counted_pcg(h, g, max_iters=8, rel_tol=1e-14, max_norm=math.inf)
        np.testing.assert_array_equal(unbounded.step, plain.step)
        assert unbounded.iterations == plain.iterations == 8
        assert not unbounded.norm_exit and not plain.norm_exit

    @staticmethod
    def spd_system():
        rng = np.random.default_rng(11)
        a = rng.standard_normal((12, 12))
        return a @ a.T + np.diag(np.arange(1.0, 13.0)), rng.standard_normal(12)

    @pytest.mark.parametrize("exit_kind", ["tolerance", "budget", "norm", "curvature", "zero"])
    def test_residual_is_minus_g_minus_h_p_at_every_exit(self, exit_kind):
        if exit_kind == "tolerance":
            rng = np.random.default_rng(10)
            q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
            h, g = q @ np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 3.0]) @ q.T, rng.standard_normal(6)
            budget = dict(max_iters=10, rel_tol=1e-10)
        elif exit_kind == "curvature":
            h, g, budget = np.diag([1.0, 2.0, 3.0, -1.0]), np.array([1.0, 1.0, 1.0, 0.1]), {}
        else:
            h, g = self.spd_system()
            budget = {"budget": dict(max_iters=5, rel_tol=1e-14), "norm": dict(max_norm=1e-3),
                      "zero": {}}[exit_kind]
            if exit_kind == "zero":
                g = np.zeros_like(g)
        result, _ = self.counted_pcg(h, g, **budget)
        assert {"tolerance": result.residual_norm <= 1e-10 * np.linalg.norm(g)
                and result.iterations < 10,
                "budget": result.iterations == 5, "norm": result.norm_exit,
                "curvature": result.curvature_exit and result.iterations > 0,
                "zero": result.iterations == 0}[exit_kind]
        expected = -g - h @ result.step
        assert np.linalg.norm(result.residual - expected) <= 1e-10 * max(np.linalg.norm(g), 1.0)
        assert result.residual_norm == np.linalg.norm(result.residual)

    @given(gram=random_gramians, seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_residual_on_a_gramian_with_zeroed_latent_entries(self, gram, seed):
        # On a singular Gramian the iterate can be 1e8 times longer than b,
        # and both the recursion and this oracle round at about
        # eps ||G|| ||p||, so that, not ||b|| alone, sets the scale.
        b = gram.scale * np.random.default_rng(seed).standard_normal(gram.size)
        result = pcg(gram.apply, b, block_jacobi_preconditioner(gram))
        expected = -b - gram.apply(result.step)
        norm_g = np.linalg.norm(dense_operator(gram.apply, gram.size), 2)
        scale = np.linalg.norm(b) + norm_g * np.linalg.norm(result.step)
        assert np.linalg.norm(result.residual - expected) <= 1e-10 * scale

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_budget_below_one_raises(self, max_iters):
        calls = []
        with pytest.raises(ValueError, match="max_iters"):
            pcg(lambda z: z, np.ones(3), lambda r: calls.append(1) or r, max_iters=max_iters)
        assert not calls


def cauchy_vector(g, curvature, delta):
    """The Cauchy point ``-tau delta g / ||g||`` for the model's ``g^T G g``."""
    g_norm = float(np.linalg.norm(g))
    return -cauchy_point(g_norm, curvature, delta) * delta / g_norm * g


class TestCauchyPoint:
    def test_interior_minimizer_with_identity_hessian(self):
        g = np.array([0.6, 0.8])  # unit norm
        # The Hessian 2 G is the identity.
        p = cauchy_vector(g, 0.5 * float(g @ g), delta=10.0)
        np.testing.assert_allclose(p, -g, rtol=1e-14)

    def test_negative_curvature_goes_to_boundary(self):
        g = np.array([1.0, 2.0])
        p = cauchy_vector(g, -0.5 * float(g @ g), delta=0.7)
        np.testing.assert_allclose(np.linalg.norm(p), 0.7, rtol=1e-14)

    def test_zero_gradient_gives_zero(self):
        assert cauchy_point(0.0, 0.0, 1.0) == 0.0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_never_exceeds_radius(self, seed):
        rng = np.random.default_rng(seed)
        n = rng.integers(1, 6)
        g = rng.standard_normal(n)
        m = rng.standard_normal((n, n))
        delta = float(rng.uniform(0.1, 5.0))
        p = cauchy_vector(g, 0.5 * float(g @ (m @ g + m.T @ g)), delta)
        assert np.linalg.norm(p) <= delta * (1.0 + 1e-12)

    @pytest.mark.parametrize("curvature, delta", [(1e300, 1.0), (1e-300, 1.0), (1e308, 1e-10),
                                                  (-1e300, 1.0), (1e300, 1e300)])
    def test_huge_gradient_gives_a_finite_share(self, curvature, delta):
        # ||g||^3 would overflow a float; the share is formed without it.
        tau = cauchy_point(1e200, curvature, delta)
        assert math.isfinite(tau) and 0.0 <= tau <= 1.0

    def test_huge_gradient_keeps_an_interior_minimizer(self):
        # Rayleigh quotient 1: the minimizer lies at ||g|| / 2, half the radius.
        assert cauchy_point(1e150, 1e300, 1e150) == 0.5


def dogleg_of_points(p_c, p_n, delta):
    """``dogleg_step`` for the Cauchy point ``p_c`` (the gradient is ``-p_c``,
    the share ``min(1, ||p_c|| / delta)``) and the Newton point ``p_n``:
    the step, its kind and its coefficients on ``p_c`` and ``p_n``."""
    g = -p_c
    g_norm = float(np.linalg.norm(g))
    tau = min(1.0, g_norm / delta)
    kind, a, b = dogleg_step(tau, (g_norm, float(g @ p_n), float(np.linalg.norm(p_n))), delta)
    return a * g + b * p_n, kind, (-a, b)


class TestDoglegStep:
    def test_interior_newton_point_returned_unchanged(self):
        p_c = np.array([0.5, 0.0])
        p_n = np.array([1.0, 1.0])
        step, kind, coefficients = dogleg_of_points(p_c, p_n, delta=5.0)
        np.testing.assert_array_equal(step, p_n)
        assert kind == "newton" and coefficients == (0.0, 1.0)

    def test_collinear_segment_hits_boundary(self):
        step, kind, (a, b) = dogleg_of_points(np.array([1.0, 0.0]), np.array([3.0, 0.0]),
                                              delta=2.0)
        np.testing.assert_allclose(step, np.array([2.0, 0.0]), rtol=1e-14)
        assert kind == "dogleg"
        np.testing.assert_allclose([a, b], [0.5, 0.5], rtol=1e-14)

    def test_long_cauchy_point_is_rescaled(self):
        step, kind, (a, b) = dogleg_of_points(np.array([3.0, 0.0]), np.array([0.0, 4.0]),
                                              delta=1.0)
        np.testing.assert_allclose(step, np.array([1.0, 0.0]), rtol=1e-14)
        assert kind == "cauchy"
        np.testing.assert_allclose([a, b], [1.0 / 3.0, 0.0], rtol=1e-14)

    def test_nonpositive_radius_raises(self):
        with pytest.raises(ValueError):
            dogleg_step(0.0, (0.0, -math.sqrt(2.0), math.sqrt(2.0)), 0.0)

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
        step, kind, (a, b) = dogleg_of_points(p_c, p_n, delta)
        assert kind in ("newton", "cauchy", "dogleg")
        assert np.linalg.norm(step) <= delta * (1.0 + 1e-9)
        np.testing.assert_allclose(step, a * p_c + b * p_n, rtol=1e-12, atol=1e-12 * delta)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n=st.integers(min_value=1, max_value=6),
           tau=st.floats(min_value=0.0, max_value=1.0 - 1e-9),
           log_delta=st.floats(min_value=-3.0, max_value=3.0),
           log_newton=st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=200, deadline=None)
    def test_coefficients_reproduce_the_vector_dogleg(self, seed, n, tau, log_delta, log_newton):
        # Away from tau = 1, where the vector form decides by the rounding of
        # ||p_c|| whether the Cauchy point reaches the boundary, the scalar
        # choice gives the vector form's kind and step.
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
        p_n = rng.standard_normal(n)
        p_n *= 10.0**log_newton / np.linalg.norm(p_n)
        delta = 10.0**log_delta
        g_norm = float(np.linalg.norm(g))
        kind, a, b = dogleg_step(tau, (g_norm, float(g @ p_n), float(np.linalg.norm(p_n))),
                                 delta)
        expected, expected_kind = dogleg_vectors(-tau * delta / g_norm * g, p_n, delta)
        assert kind == expected_kind
        assert np.linalg.norm(a * g + b * p_n - expected) <= 1e-10 * delta

    @pytest.mark.parametrize("tau", [0.0, 0.5, 1.0 - 1e-9, 1.0 - 2.0**-52])
    @pytest.mark.parametrize("angle", [0.0, 1e-8, 2.0, math.pi])
    @pytest.mark.parametrize("delta", [1e-6, 1e6])
    def test_near_degenerate_segment_lands_on_the_boundary(self, tau, angle, delta):
        # ||p_N|| = delta (1 + 1e-9).  At angle 0 and tau near 1 the segment
        # runs along the Cauchy point and its squared length, about
        # 1e-18 delta^2, is below the rounding of its expanded form.
        g = np.array([-1.0, 0.0])
        p_n = delta * (1.0 + 1e-9) * np.array([math.cos(angle), math.sin(angle)])
        kind, a, b = dogleg_step(tau, (1.0, float(g @ p_n), float(np.linalg.norm(p_n))), delta)
        assert kind == "dogleg"
        assert math.isfinite(a) and math.isfinite(b) and 0.0 <= b <= 1.0
        assert abs(np.linalg.norm(a * g + b * p_n) - delta) <= 1e-12 * delta


def subspace_model(gram, seed, no_step=False):
    """The model ``solve`` forms at a point of ``gram`` with trust radius 1,
    for a gradient that, like the true one, vanishes where the latent entry
    does.  With ``no_step`` PCG meets zero curvature at its first iteration."""
    g = gram.scale * np.random.default_rng(seed).standard_normal(gram.size)
    hop = (lambda z: 0.0 * z) if no_step else gram.apply
    cg = pcg(hop, 0.5 * g, block_jacobi_preconditioner(gram),
             max_norm=solver_module.CG_RADIUS_FACTOR)
    return solver_module._SubspaceModel.at(g, gram.apply(g), cg)


def assert_model_matches_the_apply(gram, model, delta):
    """The model's predicted decrease against the vectors, each of its terms
    g^T p and p^T G p to 1e-10; returns the step kind."""
    p, kind, predicted = model.step(delta)
    g_p, p_g_p = float(model.g @ p), float(p @ gram.apply(p))
    assert abs(predicted + g_p + p_g_p) <= 1e-10 * (abs(g_p) + abs(p_g_p))
    return kind


class TestSubspaceModel:
    """Every step is a g + b p_N, so its predicted decrease is a sum of the
    scalars formed once per point, with no Gramian apply."""

    # Radii from well inside the Cauchy point to far outside it.
    RADII = np.geomspace(1e-3, 1e4, 57)

    @given(gram=random_gramians, seed=st.integers(min_value=0, max_value=2**32 - 1),
           no_step=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_curvature_matches_the_gramian_apply(self, gram, seed, no_step):
        model = subspace_model(gram, seed, no_step)
        for delta in [*self.RADII, model.metric[2] or 1.0]:
            assert_model_matches_the_apply(gram, model, delta)

    def test_every_step_kind_is_covered(self):
        kinds = set()
        for seed in range(4):
            gram = random_gramian(seed, 3, (5, 4, 3), 0.3, direct=False)
            model = subspace_model(gram, seed)
            kinds |= {assert_model_matches_the_apply(gram, model, delta)
                      for delta in [*self.RADII, model.metric[2]]}
            model = subspace_model(gram, seed, no_step=True)
            assert model.metric[2] == 0.0
            assert assert_model_matches_the_apply(gram, model, 1.0) == "cauchy"
        assert kinds == {"newton", "dogleg", "cauchy"}

    def test_kind_is_cauchy_exactly_at_a_full_share(self):
        # At radii at and below the unconstrained Cauchy length the Cauchy
        # point fills the region; the kind is "cauchy" exactly when tau is 1,
        # never by the rounding of a vector norm.
        kinds = []
        for seed in range(4):
            gram = random_gramian(seed, 3, (5, 4, 3), 0.3, direct=False)
            model = subspace_model(gram, seed)
            g_norm, g_g_g = model.metric[0], model.gramian[0]
            length = g_norm / (2.0 * g_g_g / g_norm / g_norm)
            assert model.metric[2] > length
            for delta in length * np.linspace(0.5, 1.0, 301):
                _, kind, _ = model.step(delta)
                assert (kind == "cauchy") == (cauchy_point(g_norm, g_g_g, delta) == 1.0)
                kinds.append(kind)
        assert kinds.count("cauchy") >= 4 * 300


def make_state(x0, delta, delta_max=1e6):
    # layout is irrelevant for these quadratic-model tests; only the packed
    # vector round trip matters
    mats = tuple(x0[i::3].reshape(-1, 1) for i in range(3))
    latent = LatentTriple(mats)
    f = float(np.sum(latent.vec ** 2))
    g = 2.0 * latent.vec
    return SolverState(
        latent=latent, delta=delta, delta_max=delta_max, f_value=f, gradient=g
    )


def quadratic_objective(latent):
    return float(np.sum(latent.vec ** 2))


def predicted_decrease(state, p):
    """The model's decrease -(g^T p + p^T G p) for the objective ||x||^2, whose Gramian is I."""
    return -float(state.gradient @ p + p @ p)


class TestTrustRegionUpdate:
    def test_perfect_quadratic_step_has_unit_ratio_and_grows(self):
        x0 = np.array([1.0, -2.0, 0.5, 1.5, -0.5, 2.0])
        delta = float(np.linalg.norm(x0))
        state = make_state(x0, delta)
        p = -state.latent.vec
        assert trust_region_update(
            state, p, predicted_decrease(state, p), quadratic_objective
        )
        np.testing.assert_allclose(state.rho, 1.0, rtol=1e-12)
        assert state.f_value < 1e-20
        np.testing.assert_allclose(state.delta, 2.0 * delta, rtol=1e-12)
        np.testing.assert_array_equal(state.latent.vec, np.zeros(6))

    def test_nonpositive_model_decrease_rejects_and_shrinks(self):
        x0 = np.ones(6)
        state = make_state(x0, delta=1.0)
        p = x0.copy()  # ascent direction
        assert not trust_region_update(
            state, p, predicted_decrease(state, p), quadratic_objective
        )
        assert state.rho == -math.inf
        assert state.delta == 0.25
        np.testing.assert_array_equal(state.latent.vec, x0)

    def test_bad_actual_decrease_rejects_and_shrinks(self):
        x0 = np.ones(6)
        state = make_state(x0, delta=1.0)
        f0 = state.f_value
        p = -0.1 * x0
        # the trial "objective" goes up even though the model predicts descent
        assert not trust_region_update(
            state, p, predicted_decrease(state, p), lambda t: f0 + 5.0
        )
        assert state.rho < 0.0
        assert state.delta == 0.25
        np.testing.assert_array_equal(state.latent.vec, x0)
        assert state.f_value == f0

    def test_non_finite_trial_rejects_and_shrinks(self):
        x0 = np.ones(6)
        state = make_state(x0, delta=1.0)
        p = -0.1 * x0
        assert not trust_region_update(
            state, p, predicted_decrease(state, p), lambda t: math.nan
        )
        assert state.delta == 0.25
        np.testing.assert_array_equal(state.latent.vec, x0)

    def test_infinite_ratio_is_accepted(self):
        # a predicted decrease that underflows makes rho = +inf; the trial is
        # finite and lower, so the step is taken
        x0 = np.ones(6)
        state = make_state(x0, delta=1.0)
        f_trial = state.f_value - 1.0
        p = np.full(6, 1e-3)
        assert trust_region_update(
            state, p, 1e-320, lambda t: f_trial
        )
        assert state.rho == math.inf
        assert state.f_value == f_trial
        np.testing.assert_array_equal(state.latent.vec, x0 + p)

    def test_small_accepted_decrease_leaves_the_stop_to_solve(self):
        # The step is accepted; whether a decrease this small stops the
        # iteration is decided in solve, not here.
        x0 = np.ones(6)
        state = make_state(x0, delta=1.0)
        f0 = state.f_value
        f_trial = f0 * (1.0 - 1e-12)
        p = np.full(6, 1e-9)
        assert trust_region_update(
            state, p, f0 - f_trial, lambda t: f_trial
        )
        assert not state.converged
        assert state.reason is None
        assert state.f_value == f_trial

    def test_interior_step_does_not_grow_radius(self):
        x0 = np.array([1.0, -2.0, 0.5, 1.5, -0.5, 2.0])
        state = make_state(x0, delta=100.0)
        p = -state.latent.vec  # well inside the region
        trust_region_update(state, p, predicted_decrease(state, p), quadratic_objective)
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
        assert metrics_report(reconstruct_sri(model), sri).rsnr_db >= 60.0

    def test_init_at_truth_stops_immediately(self):
        prob, _, truth = make_problem()
        init = LatentTriple(tuple(np.sqrt(f) for f in truth))
        _, state, trace = solve(prob, init)
        assert state.converged
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

    def test_collapsed_trust_radius_stops_the_solve(self):
        # The README's noiseless problem: the objective reaches its rounding
        # floor, every later step is rejected, and the radius shrinks until
        # no step inside it can change the iterate.  Without a stop there the
        # radius underflows to zero and the Cauchy point divides by it.
        sri = simulate_scene(SceneConfig(dims=(12, 12, 8), rank=3, seed=0))
        ops = build_operators(
            sri.shape, DegradationConfig(kernel_size=3, sigma=2.0, factor=2, num_msi_bands=4)
        )
        hsi, msi = degrade(sri, ops)
        prob = FusionProblem(hsi=hsi, msi=msi, operators=ops, rank=3)
        init = init_latent(prob.sri_dims, 3, rng_seed=0)
        _, state, trace = solve(prob, init, SolverConfig(max_iters=600, grad_tol=1e-14))
        assert state.reason == "trust radius below machine precision"
        assert not state.converged
        assert len(trace) < 600
        assert 0.0 < state.delta <= np.finfo(float).eps * np.linalg.norm(state.latent.vec)

    # At 0.5 the first step stops the solve; at 0.1 three accepted steps and
    # two rejected ones come before the one that does.
    @pytest.mark.parametrize("rel_f_tol", [0.5, 0.1])
    def test_small_accepted_decrease_stops_the_solve(self, rel_f_tol):
        sri = simulate_scene(SceneConfig(dims=(12, 12, 8), rank=3, seed=0))
        ops = build_operators(
            sri.shape, DegradationConfig(kernel_size=3, sigma=2.0, factor=2, num_msi_bands=4)
        )
        hsi, msi = degrade(sri, ops)
        prob = FusionProblem(hsi=add_noise(hsi, 20.0, 1), msi=add_noise(msi, 20.0, 2),
                             operators=ops, rank=3)
        init = init_latent(prob.sri_dims, 3, rng_seed=0)
        _, state, trace = solve(prob, init, SolverConfig(rel_f_tol=rel_f_tol))
        assert state.converged
        assert state.reason == "objective decrease below rel_f_tol"
        assert trace[-1].accepted
        # The objective before each accepted step, and the relative decrease
        # that step made.
        previous = objective(init, prob)
        decreases = []
        for rec in trace:
            if rec.accepted:
                decreases.append((previous - rec.f_value) / previous)
                previous = rec.f_value
        assert decreases[-1] < rel_f_tol
        assert all(d >= rel_f_tol for d in decreases[:-1])

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

    def test_rejected_step_reuses_the_model(self, monkeypatch):
        # A rejected step leaves the point and gradient unchanged, so the next
        # iteration runs no PCG and records no CG iterations.
        real = solver_module.pcg
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(solver_module, "pcg", counted)
        base, _, _ = make_problem(dims=(8, 8, 6))
        prob = FusionProblem(add_noise(base.hsi, 10.0, 0), add_noise(base.msi, 10.0, 1),
                             base.operators, base.rank)
        _, _, trace = solve(prob, init_latent(prob.sri_dims, prob.rank, 0),
                            SolverConfig(max_iters=30))
        after_rejection = [r for prev, r in zip(trace, trace[1:]) if not prev.accepted]
        assert after_rejection
        assert len(calls) == 1 + sum(r.accepted for r in trace[:-1])
        assert all(r.cg_iterations == 0 for r in after_rejection)

    def test_gramian_applies_are_cg_iterations_curvature_exits_and_points(self, monkeypatch):
        # Every Gramian apply in a solve is PCG's, one per iteration and one
        # per curvature exit, or the Cauchy curvature g^T G g, one per point
        # built; an iteration after a rejected step makes none.
        applies, exits, per_iteration = [], [], []
        real_apply, real_pcg = GramianOperator.apply, solver_module.pcg
        real_update = solver_module.trust_region_update

        def counted_apply(self, z):
            applies.append(1)
            return real_apply(self, z)

        def counted_pcg(*args, **kwargs):
            result = real_pcg(*args, **kwargs)
            exits.append(result.curvature_exit)
            return result

        def counted_update(*args):
            per_iteration.append(len(applies))
            return real_update(*args)

        monkeypatch.setattr(GramianOperator, "apply", counted_apply)
        monkeypatch.setattr(solver_module, "pcg", counted_pcg)
        monkeypatch.setattr(solver_module, "trust_region_update", counted_update)
        prob = noisy_problem()
        _, _, trace = solve(prob, init_latent(prob.sri_dims, prob.rank, 0),
                            SolverConfig(max_iters=30))
        assert len(per_iteration) == len(trace)
        assert len(applies) == sum(r.cg_iterations for r in trace) + sum(exits) + len(exits)
        after_rejection = [i for i, prev in enumerate(trace[:-1], 1) if not prev.accepted]
        assert after_rejection
        for i in after_rejection:
            assert trace[i].cg_iterations == 0
            assert per_iteration[i] == per_iteration[i - 1]

    def test_step_without_a_newton_point_is_recorded_as_cauchy(self, monkeypatch):
        # A curvature exit at PCG's first iteration returns a zero step; the
        # Cauchy point is then taken as it is, and recorded as such.
        def no_step(hop, g, precond, **kwargs):
            return PcgResult(np.zeros_like(g), -g, 0, float(np.linalg.norm(g)), True, False)

        monkeypatch.setattr(solver_module, "pcg", no_step)
        prob, _, _ = make_problem()
        init = init_latent(prob.sri_dims, prob.rank, rng_seed=1)
        _, _, trace = solve(prob, init, SolverConfig(max_iters=3))
        assert trace
        assert all(r.step_type == "cauchy" for r in trace)
        assert all(r.cg_iterations == 0 for r in trace)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e120, 1e140])
    def test_huge_images_stop_for_a_stated_reason(self, scale):
        # The gradient's norm passes 1e120; its cube would overflow a float.
        base, _, _ = make_problem(dims=(8, 8, 6), rank=2, seed=0, kernel_size=3, factor=2,
                                  num_msi_bands=3)
        prob = FusionProblem(scale * base.hsi, scale * base.msi, base.operators, base.rank)
        _, state, trace = solve(prob, init_latent(prob.sri_dims, prob.rank, 0))
        assert trace and trace[0].grad_inf_norm > 1e-2 * scale
        assert state.reason in ("gradient norm below grad_tol", "objective decrease below rel_f_tol",
                                "trust radius below machine precision", "max_iters reached")
        assert math.isfinite(state.f_value)

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


def noisy_problem(seed=0):
    base, _, _ = make_problem(dims=(8, 8, 6), seed=seed)
    return FusionProblem(add_noise(base.hsi, 10.0, seed), add_noise(base.msi, 10.0, seed + 1),
                         base.operators, base.rank)


def point_values(latent, prob, z):
    """Objective, gradient and Gramian apply at ``latent``."""
    gram = GramianOperator.from_latent(latent, prob)
    return objective(latent, prob), gradient(latent, prob), gram.apply(z)


def assert_same_values(found, expected):
    assert found[0] == expected[0]
    for a, b in zip(found[1:], expected[1:]):
        np.testing.assert_array_equal(a, b)


class TestEvaluationAtAPoint:
    """A LatentTriple is read-only and keeps what its objective formed."""

    def count_mttkrps(self, monkeypatch):
        real = solver_module.mttkrp
        calls = []

        def counted(*args):
            calls.append(args[2])
            return real(*args)

        monkeypatch.setattr(solver_module, "mttkrp", counted)
        return calls

    def test_standalone_gradient_makes_six_mttkrps(self, monkeypatch):
        calls = self.count_mttkrps(monkeypatch)
        prob = noisy_problem()
        gradient(init_latent(prob.sri_dims, prob.rank, 0), prob)
        assert sorted(calls) == [1, 1, 2, 2, 3, 3]

    def test_solve_reuses_the_objectives_mode1_mttkrps(self, monkeypatch):
        calls = self.count_mttkrps(monkeypatch)
        counts = {"objective": 0, "gradient": 0}
        for name in counts:
            real = getattr(solver_module, name)

            def counted(*args, _real=real, _name=name):
                counts[_name] += 1
                return _real(*args)

            monkeypatch.setattr(solver_module, name, counted)
        prob = noisy_problem()
        _, _, trace = solve(prob, init_latent(prob.sri_dims, prob.rank, 0),
                            SolverConfig(max_iters=20))
        assert 0 < sum(r.accepted for r in trace) < len(trace)
        assert counts["gradient"] == 1 + sum(r.accepted for r in trace)
        assert counts["objective"] == 1 + len(trace)
        assert len(calls) == 2 * counts["objective"] + 4 * counts["gradient"]

    def assert_read_only(self, latent):
        for a in (latent.vec, *latent.mats):
            with pytest.raises(ValueError):
                a[0] = 1.0
        for name in ("mats", "vec"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(latent, name, getattr(latent, name))

    @pytest.mark.parametrize("build", ["constructor", "from_vector", "init_latent"])
    def test_a_latent_is_read_only(self, build):
        prob = noisy_problem()
        dims, rank = prob.sri_dims, prob.rank
        mats = tuple(np.random.default_rng(1).uniform(0.1, 1.0, (d, rank)) for d in dims)
        vec = np.concatenate([m.ravel(order="F") for m in mats])
        latent = {
            "constructor": lambda: LatentTriple(mats),
            "from_vector": lambda: LatentTriple.from_vector(vec, dims, rank),
            "init_latent": lambda: init_latent(dims, rank, 0),
        }[build]()
        objective(latent, prob)
        self.assert_read_only(latent)
        # The caller's arrays are copied, not frozen.
        for a in (vec, *mats):
            a[0] = 1.0

    def test_gramian_at_an_evaluated_point_matches_a_fresh_build(self):
        # from_latent reads the projections the objective kept there, and
        # evaluates a point that has none.
        prob = noisy_problem(3)
        latent = init_latent(prob.sri_dims, prob.rank, 3)
        objective(latent, prob)
        copy = LatentTriple(latent.mats)
        assert latent._evaluation is not None and copy._evaluation is None
        kept = GramianOperator.from_latent(latent, prob)
        fresh = GramianOperator.from_latent(copy, prob)
        assert copy._evaluation is not None
        built = gramian_from_factors(2.0 * copy.vec,
                                     prob.operators.project(square_params(copy).factors),
                                     prob.operators)
        z = np.random.default_rng(3).standard_normal(latent.vec.size)
        for gram in (fresh, built):
            assert kept.scale.tobytes() == gram.scale.tobytes()
            assert kept.apply(z).tobytes() == gram.apply(z).tobytes()
            assert (block_jacobi_preconditioner(kept)(z).tobytes()
                    == block_jacobi_preconditioner(gram)(z).tobytes())

    def test_one_set_of_grams_and_hadamards_per_point(self):
        # The evaluation forms each image's Grams and Hadamard products once;
        # they equal the plain formulas bit for bit, and the Gramian, and
        # through it the preconditioner, reads those very arrays.
        prob = noisy_problem(2)
        latent = init_latent(prob.sri_dims, prob.rank, 2)
        ev = solver_module._evaluate(latent, prob)
        for s, factors in enumerate(ev.projected):
            grams = [f.T @ f for f in factors]
            for n, (a, b) in enumerate([(1, 2), (0, 2), (0, 1)]):
                assert ev.grams[n, s].tobytes() == grams[n].tobytes()
                assert ev.hadamards[n, s].tobytes() == (grams[a] * grams[b]).tobytes()
        gram = GramianOperator.from_latent(latent, prob)
        assert gram.grams is ev.grams and gram.hadamards is ev.hadamards

    def test_a_solver_point_is_read_only(self):
        prob = noisy_problem()
        _, state, _ = solve(prob, init_latent(prob.sri_dims, prob.rank, 0),
                            SolverConfig(max_iters=3))
        self.assert_read_only(state.latent)

    def test_a_latent_is_evaluated_afresh_for_another_problem(self):
        probs = (noisy_problem(0), noisy_problem(1))
        latent = init_latent(probs[0].sri_dims, probs[0].rank, 0)
        z = np.random.default_rng(1).standard_normal(latent.vec.size)
        values = [point_values(latent, prob, z) for prob in probs + probs]
        assert values[0][0] != values[1][0]
        for prob, found in zip(probs + probs, values):
            assert_same_values(found, point_values(LatentTriple(latent.mats), prob, z))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), iters=st.integers(1, 6))
    def test_a_solver_point_matches_a_plain_latent(self, seed, iters):
        prob = noisy_problem(seed)
        _, state, _ = solve(prob, init_latent(prob.sri_dims, prob.rank, seed),
                            SolverConfig(max_iters=iters))
        plain = LatentTriple(state.latent.mats)
        z = np.random.default_rng(seed).standard_normal(plain.vec.size)
        expected = point_values(plain, prob, z)
        assert_same_values(point_values(state.latent, prob, z), expected)
        assert state.f_value == expected[0]
        np.testing.assert_array_equal(state.gradient, expected[1])


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
        SolverConfig()

    def test_only_caller_facing_fields(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "max_iters", "rel_f_tol", "grad_tol"
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"rel_f_tol": 0.0},
            {"grad_tol": -1.0},
            {"rel_f_tol": math.inf},
            {"grad_tol": math.inf},
        ],
    )
    def test_invalid_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestIterationRecord:
    def test_field_list(self):
        # A record's iteration is its index in the trace.
        assert [f.name for f in dataclasses.fields(IterationRecord)] == [
            "f_value", "grad_inf_norm", "delta", "rho", "cg_iterations", "step_type",
            "accepted",
        ]


class TestFusionProblem:
    def test_dims_derived_from_operators(self):
        prob, _, _ = make_problem(dims=(6, 5, 4))
        assert prob.sri_dims == (6, 5, 4)

    # One slice per operator/image size condition: the three operators' row
    # counts against their own image, and the three scene sizes the two images
    # must agree on.
    @pytest.mark.parametrize(
        "image, cut",
        [
            ("hsi", np.s_[:-1]),
            ("hsi", np.s_[:, :-1]),
            ("msi", np.s_[:, :, :-1]),
            ("msi", np.s_[:-1]),
            ("msi", np.s_[:, :-1]),
            ("hsi", np.s_[:, :, :-1]),
        ],
        ids=["p1-rows", "p2-rows", "pm-rows", "p1-cols", "p2-cols", "pm-cols"],
    )
    def test_mismatched_operator_raises(self, image, cut):
        prob, _, _ = make_problem()
        images = {"hsi": prob.hsi, "msi": prob.msi}
        images[image] = images[image][cut]
        with pytest.raises(ValueError):
            FusionProblem(**images, operators=prob.operators, rank=2)

    def test_invalid_rank_raises(self):
        prob, _, _ = make_problem()
        with pytest.raises(ValueError):
            FusionProblem(hsi=prob.hsi, msi=prob.msi, operators=prob.operators, rank=0)

    def test_images_cannot_be_written_in_place(self):
        # norms_sq is formed at construction, so an in-place write would leave
        # the objective reading a stale norm.  The caller's arrays stay writeable.
        base, _, _ = make_problem()
        hsi, msi = base.hsi.copy(order="F"), base.msi.copy(order="F")
        prob = FusionProblem(hsi=hsi, msi=msi, operators=base.operators, rank=base.rank)
        latent = init_latent(prob.sri_dims, prob.rank, rng_seed=0)
        before = objective(latent, prob)
        with pytest.raises(ValueError):
            prob.hsi *= 0.5
        with pytest.raises(ValueError):
            prob.msi[0, 0, 0] = 1.0
        assert objective(latent, prob) == before
        assert hsi.flags.writeable and msi.flags.writeable

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e200], ids=["nan", "inf", "overflow"])
    @pytest.mark.parametrize("name", ["hsi", "msi"])
    def test_non_finite_image_raises(self, name, bad):
        # 1e200 is finite, but its square overflows the squared norm.
        prob, _, _ = make_problem()
        images = {"hsi": prob.hsi.copy(), "msi": prob.msi.copy()}
        images[name][1, 0, 1] = bad
        with pytest.raises(ValueError, match=f"the {name.upper()} has a non-finite squared norm"):
            FusionProblem(**images, operators=prob.operators, rank=prob.rank)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("name", ["hsi", "msi"])
    def test_image_with_no_entries_raises(self, name, axis):
        prob, _, _ = make_problem()
        images = {"hsi": prob.hsi, "msi": prob.msi}
        images[name] = np.take(images[name], [], axis=axis)
        with pytest.raises(ValueError, match=f"the {name.upper()} of shape .* has no entries"):
            FusionProblem(**images, operators=prob.operators, rank=prob.rank)

    @pytest.mark.parametrize("name", ["hsi", "msi", "operators"])
    def test_fields_cannot_be_rebound(self, name):
        # norms_sq is formed at construction, so rebinding an image would
        # leave the objective reading a stale norm.
        prob, _, _ = make_problem()
        other, _, _ = make_problem(seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(prob, name, getattr(other, name))
        assert getattr(prob, name) is not getattr(other, name)
        np.testing.assert_allclose(prob.norms_sq, [np.sum(t * t) for t in prob.images], rtol=1e-14)


def _fresh_preconditioner(prob):
    latent = init_latent(prob.sri_dims, prob.rank, rng_seed=0)
    return block_jacobi_preconditioner(GramianOperator.from_latent(latent, prob))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda prob: LatentTriple.from_vector(np.zeros(3), prob.sri_dims, prob.rank),
         "latent vector has size"),
        (lambda prob: _fresh_preconditioner(prob)(np.zeros(3)), "vector has shape"),
        (lambda prob: FusionProblem(prob.hsi[:, :, 0], prob.msi, prob.operators, prob.rank),
         "third-order tensor"),
        (lambda prob: FusionProblem(prob.hsi, prob.msi[:, :, 0], prob.operators, prob.rank),
         "third-order tensor"),
    ],
    ids=["latent-vector-size", "preconditioner-vector-shape", "hsi-2d", "msi-2d"],
)
def test_invalid_input_raises(call, message):
    prob, _, _ = make_problem()
    with pytest.raises(ValueError, match=message):
        call(prob)
