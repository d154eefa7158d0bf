import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpfuse.fileio import write_tensor
from cpfuse.tensors import (
    CpdModel,
    _check_triple,
    _mode1_partial,
    _partial_mttkrp,
    cpd_reconstruct,
    frobenius_norm,
    mttkrp,
)
from oracles import fold, khatri_rao, mode_n_product, unfold

RNG = np.random.default_rng(42)

dims_strategy = st.tuples(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=4),
)


def random_tensor(dims, seed):
    return np.random.default_rng(seed).standard_normal(dims)


def unfold_by_enumeration(t, mode):
    """Independent oracle: place each entry by the linearization formula."""
    i_dim, j_dim, k_dim = t.shape
    sizes = {1: (i_dim, j_dim * k_dim), 2: (j_dim, i_dim * k_dim), 3: (k_dim, i_dim * j_dim)}
    out = np.zeros(sizes[mode])
    for i in range(i_dim):
        for j in range(j_dim):
            for k in range(k_dim):
                if mode == 1:
                    out[i, j + j_dim * k] = t[i, j, k]
                elif mode == 2:
                    out[j, i + i_dim * k] = t[i, j, k]
                else:
                    out[k, i + i_dim * j] = t[i, j, k]
    return out


class TestUnfold:
    def test_2x2x2_column_major_layout(self):
        # Entries 1..8 laid out with the first index fastest.
        t = np.arange(1.0, 9.0).reshape((2, 2, 2), order="F")
        expected = np.array([[1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0, 8.0]])
        np.testing.assert_array_equal(unfold(t, 1), expected)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_matches_enumeration_oracle(self, mode):
        t = random_tensor((4, 3, 5), seed=7)
        np.testing.assert_array_equal(unfold(t, mode), unfold_by_enumeration(t, mode))

    def test_rank_one_unfolding_is_outer_with_kron(self):
        a = RNG.standard_normal(4)
        b = RNG.standard_normal(3)
        c = RNG.standard_normal(5)
        t = np.einsum("i,j,k->ijk", a, b, c)
        np.testing.assert_allclose(unfold(t, 1), np.outer(a, np.kron(c, b)), atol=1e-13)

    @pytest.mark.parametrize("mode", [0, 4, -1])
    def test_invalid_mode_raises(self, mode):
        with pytest.raises(ValueError):
            unfold(np.zeros((2, 2, 2)), mode)

    def test_non_tensor_raises(self):
        with pytest.raises(ValueError):
            unfold(np.zeros((2, 2)), 1)


class TestFold:
    @settings(max_examples=30, deadline=None)
    @given(dims=dims_strategy, mode=st.integers(min_value=1, max_value=3), seed=st.integers(0, 2**31))
    def test_round_trip_all_modes(self, dims, mode, seed):
        t = random_tensor(dims, seed)
        np.testing.assert_array_equal(fold(unfold(t, mode), mode, dims), t)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            fold(np.zeros((2, 5)), 1, (2, 2, 2))

    def test_fold_of_cp_matricization(self):
        a = RNG.standard_normal((4, 2))
        b = RNG.standard_normal((3, 2))
        c = RNG.standard_normal((5, 2))
        m = c @ khatri_rao([b, a]).T
        np.testing.assert_allclose(fold(m, 3, (4, 3, 5)), cpd_reconstruct(a, b, c), atol=1e-13)


class TestModeNProduct:
    def test_identity_matrix_is_noop(self):
        t = random_tensor((3, 4, 2), seed=1)
        for mode, d in ((1, 3), (2, 4), (3, 2)):
            np.testing.assert_array_equal(mode_n_product(t, np.eye(d), mode), t)

    def test_zero_matrix_annihilates(self):
        t = random_tensor((3, 4, 2), seed=2)
        out = mode_n_product(t, np.zeros((5, 3)), 1)
        assert out.shape == (5, 4, 2)
        np.testing.assert_array_equal(out, np.zeros((5, 4, 2)))

    def test_commutes_with_cp_structure(self):
        # Contracting a CP tensor equals projecting the corresponding factor.
        a = RNG.uniform(size=(6, 3))
        b = RNG.uniform(size=(5, 3))
        c = RNG.uniform(size=(4, 3))
        t = cpd_reconstruct(a, b, c)
        m = RNG.standard_normal((2, 6))
        np.testing.assert_allclose(
            mode_n_product(t, m, 1), cpd_reconstruct(m @ a, b, c), rtol=1e-12, atol=1e-12
        )

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            mode_n_product(np.zeros((3, 4, 2)), np.zeros((2, 5)), 1)


class TestKhatriRao:
    def test_single_matrix_is_identity_operation(self):
        m = RNG.standard_normal((4, 3))
        np.testing.assert_array_equal(khatri_rao([m]), m)

    def test_two_single_column_matrices_reduce_to_kron(self):
        a = np.array([[1.0], [2.0]])
        b = np.array([[3.0], [4.0], [5.0]])
        np.testing.assert_array_equal(khatri_rao([a, b]), np.kron(a, b))

    def test_columns_are_kron_of_columns(self):
        a = RNG.standard_normal((3, 2))
        b = RNG.standard_normal((4, 2))
        out = khatri_rao([a, b])
        for r in range(2):
            np.testing.assert_allclose(out[:, r], np.kron(a[:, r], b[:, r]), atol=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_gram_identity(self, seed):
        # (A (.) B)^T (A (.) B) == (A^T A) * (B^T B)
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 3))
        w = khatri_rao([a, b])
        np.testing.assert_allclose(w.T @ w, (a.T @ a) * (b.T @ b), rtol=1e-13, atol=1e-13)

    def test_column_count_mismatch_raises(self):
        with pytest.raises(ValueError):
            khatri_rao([np.zeros((2, 2)), np.zeros((3, 4))])

    def test_empty_list_raises(self):
        with pytest.raises(ValueError):
            khatri_rao([])


class TestMttkrp:
    def test_matches_unfold_times_khatri_rao(self):
        t = random_tensor((5, 4, 6), seed=3)
        factors = [RNG.standard_normal((d, 3)) for d in (5, 4, 6)]
        kr_order = {1: [2, 1], 2: [2, 0], 3: [1, 0]}
        for mode in (1, 2, 3):
            w = khatri_rao([factors[n] for n in kr_order[mode]])
            np.testing.assert_allclose(
                mttkrp(t, factors, mode), unfold(t, mode) @ w, rtol=1e-13, atol=1e-13
            )

    def test_cp_tensor_mode1_closed_form(self):
        a = RNG.standard_normal((4, 2))
        b = RNG.standard_normal((3, 2))
        c = RNG.standard_normal((5, 2))
        t = cpd_reconstruct(a, b, c)
        expected = a @ ((b.T @ b) * (c.T @ c))
        np.testing.assert_allclose(mttkrp(t, [a, b, c], 1), expected, rtol=1e-13, atol=1e-13)

    def test_zero_tensor_gives_zeros(self):
        factors = [np.ones((d, 2)) for d in (3, 4, 2)]
        out = mttkrp(np.zeros((3, 4, 2)), factors, 2)
        np.testing.assert_array_equal(out, np.zeros((4, 2)))

    def test_non_target_dimension_mismatch_raises(self):
        factors = [np.ones((3, 2)), np.ones((9, 2)), np.ones((2, 2))]
        with pytest.raises(ValueError):
            mttkrp(np.zeros((3, 4, 2)), factors, 1)


class TestCpdReconstruct:
    def test_rank_one_is_outer_product(self):
        a = RNG.standard_normal((4, 1))
        b = RNG.standard_normal((3, 1))
        c = RNG.standard_normal((2, 1))
        expected = np.einsum("i,j,k->ijk", a[:, 0], b[:, 0], c[:, 0])
        np.testing.assert_allclose(cpd_reconstruct(a, b, c), expected, atol=1e-14)

    def test_zero_factor_gives_zero_tensor(self):
        out = cpd_reconstruct(np.zeros((3, 2)), np.ones((4, 2)), np.ones((2, 2)))
        np.testing.assert_array_equal(out, np.zeros((3, 4, 2)))

    def test_matches_unfolded_formula(self):
        a = RNG.standard_normal((4, 3))
        b = RNG.standard_normal((5, 3))
        c = RNG.standard_normal((2, 3))
        t = cpd_reconstruct(a, b, c)
        np.testing.assert_allclose(
            unfold(t, 1), a @ khatri_rao([c, b]).T, rtol=1e-13, atol=1e-13
        )

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.tuples(*(st.integers(min_value=1, max_value=9),) * 3),
        rank=st.integers(min_value=1, max_value=6),
        seed=st.integers(0, 2**31),
    )
    @example(dims=(1, 1, 1), rank=1, seed=0)
    @example(dims=(1, 7, 1), rank=1, seed=1)
    @example(dims=(6, 1, 5), rank=3, seed=2)
    def test_slice_wise_products_match_one_unfolded_product(self, dims, rank, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (rng.standard_normal((d, rank)) for d in dims)
        t = cpd_reconstruct(a, b, c)
        assert t.flags.f_contiguous
        w = khatri_rao([c, b])
        scale = (np.abs(a) @ np.abs(w).T).max()
        np.testing.assert_allclose(unfold(t, 1), a @ w.T, rtol=1e-13, atol=1e-13 * scale)

    @pytest.mark.parametrize(
        "dims, rank", [((64, 48, 32), 8), ((40, 30, 1), 5), ((1, 50, 40), 1)]
    )
    def test_peak_is_the_output_plus_one_scaled_factor_stack(self, dims, rank):
        rng = np.random.default_rng(7)
        factors = [rng.standard_normal((d, rank)) for d in dims]
        i_dim, j_dim, k_dim = dims
        stack = k_dim * j_dim * rank * 8  # the (K, J, R) stack of b scaled by each row of c
        peak = peak_traced_bytes(lambda: cpd_reconstruct(*factors))
        # 4 KiB of slack for array headers and iterator bookkeeping.
        assert peak <= i_dim * j_dim * k_dim * 8 + stack + 4096

    def test_rank_mismatch_raises(self):
        with pytest.raises(ValueError):
            cpd_reconstruct(np.zeros((3, 2)), np.zeros((4, 3)), np.zeros((2, 2)))


class TestCpdModel:
    def test_properties(self):
        model = CpdModel((np.ones((4, 2)), np.ones((3, 2)), np.ones((5, 2))))
        assert model.rank == 2
        assert model.dims == (4, 3, 5)

    def test_rank_disagreement_raises(self):
        with pytest.raises(ValueError):
            CpdModel((np.ones((4, 2)), np.ones((3, 3)), np.ones((5, 2))))


class TestFrobeniusNorm:
    def test_consistent_with_unfoldings(self):
        t = random_tensor((4, 3, 5), seed=9)
        for mode in (1, 2, 3):
            np.testing.assert_allclose(
                frobenius_norm(t), np.linalg.norm(unfold(t, mode)), rtol=1e-13
            )

    def test_zero_tensor(self):
        assert frobenius_norm(np.zeros((2, 3, 4))) == 0.0


# Kernel properties over small shapes and ranks, in every memory layout the
# package passes to the kernels.
kernel_dims = st.tuples(*(st.integers(min_value=1, max_value=7),) * 3)
kernel_ranks = st.integers(min_value=1, max_value=4)
KR_ORDER = {1: [2, 1], 2: [2, 0], 3: [1, 0]}


def layouts(t):
    """The values of ``t`` C-ordered, Fortran-ordered and as a strided view."""
    i_dim, j_dim, k_dim = t.shape
    padded = np.zeros((i_dim, 2 * j_dim, k_dim + 1))
    padded[:, ::2, 1:] = t
    return {"C": np.ascontiguousarray(t), "F": np.asfortranarray(t), "sliced": padded[:, ::2, 1:]}


def peak_traced_bytes(fn):
    """Peak of numpy's traced allocations while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelProperties:
    @settings(max_examples=40, deadline=None)
    @given(dims=kernel_dims, rank=kernel_ranks, seed=st.integers(0, 2**31))
    def test_mttkrp_matches_unfolding_in_every_layout(self, dims, rank, seed):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal(dims)
        factors = [rng.standard_normal((d, rank)) for d in dims]
        for mode in (1, 2, 3):
            w = khatri_rao([factors[n] for n in KR_ORDER[mode]])
            expected = unfold(t, mode) @ w
            # Rounding of a sum scales with the sum of its absolute terms.
            scale = (np.abs(unfold(t, mode)) @ np.abs(w)).max()
            for layout, view in layouts(t).items():
                np.testing.assert_allclose(
                    mttkrp(view, factors, mode), expected, rtol=1e-12, atol=1e-12 * scale,
                    err_msg=f"mode {mode}, {layout} layout",
                )

    @settings(max_examples=40, deadline=None)
    @given(dims=kernel_dims, rank=kernel_ranks, seed=st.integers(0, 2**31))
    def test_shared_mode1_partial_matches_mttkrp_in_every_layout(self, dims, rank, seed):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal(dims)
        factors = [rng.standard_normal((d, rank)) for d in dims]
        for layout, view in layouts(t).items():
            z = _mode1_partial(view, factors[0])
            for mode in (2, 3):
                w = khatri_rao([factors[n] for n in KR_ORDER[mode]])
                scale = (np.abs(unfold(t, mode)) @ np.abs(w)).max()
                np.testing.assert_allclose(
                    _partial_mttkrp(z, factors, mode), mttkrp(view, factors, mode),
                    rtol=1e-12, atol=1e-12 * scale, err_msg=f"mode {mode}, {layout} layout",
                )

    @settings(max_examples=40, deadline=None)
    @given(dims=kernel_dims, rank=kernel_ranks, seed=st.integers(0, 2**31))
    def test_mttkrp_is_the_shared_mode1_partial_route(self, dims, rank, seed):
        # Every mode of a Fortran-ordered tensor takes the route the ALS
        # dimension tree takes: the same products in the same order.
        rng = np.random.default_rng(seed)
        t = np.asfortranarray(rng.standard_normal(dims))
        a, b, c = factors = [rng.standard_normal((d, rank)) for d in dims]
        for mode in (2, 3):
            np.testing.assert_array_equal(
                mttkrp(t, factors, mode), _partial_mttkrp(_mode1_partial(t, a), factors, mode)
            )
        swapped = t.transpose(1, 0, 2)
        np.testing.assert_array_equal(
            mttkrp(t, factors, 1), _partial_mttkrp(_mode1_partial(swapped, b), (b, a, c), 2)
        )

    @settings(max_examples=40, deadline=None)
    @given(dims=kernel_dims, rank=kernel_ranks, seed=st.integers(0, 2**31))
    def test_cpd_reconstruct_unfoldings_and_layout(self, dims, rank, seed):
        rng = np.random.default_rng(seed)
        factors = [rng.standard_normal((d, rank)) for d in dims]
        t = cpd_reconstruct(*factors)
        assert t.shape == dims
        assert t.flags.f_contiguous
        for mode in (1, 2, 3):
            w = khatri_rao([factors[n] for n in KR_ORDER[mode]])
            scale = (np.abs(factors[mode - 1]) @ np.abs(w).T).max()
            np.testing.assert_allclose(
                unfold(t, mode), factors[mode - 1] @ w.T, rtol=1e-12, atol=1e-12 * scale
            )

    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    def test_mttkrp_makes_no_tensor_sized_copy(self, layout):
        rng = np.random.default_rng(5)
        dims = (64, 64, 32)
        t = layouts(rng.standard_normal(dims))[layout]
        factors = [rng.standard_normal((d, 4)) for d in dims]
        for mode in (1, 2, 3):
            peak = peak_traced_bytes(lambda: mttkrp(t, factors, mode))
            assert peak < 0.25 * t.nbytes, f"mode {mode}: peak {peak} bytes"

    def test_writing_a_reconstruction_makes_no_payload_copy(self, tmp_path):
        rng = np.random.default_rng(6)
        t = cpd_reconstruct(*(rng.standard_normal((d, 4)) for d in (64, 64, 32)))
        peak = peak_traced_bytes(lambda: write_tensor(tmp_path / "t.dt3", t))
        assert peak < 0.1 * t.nbytes


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: _check_triple((np.eye(2), np.eye(2)), "factor"), "expected 3 two-dimensional"),
        (lambda: _check_triple((np.eye(2), np.eye(2), np.ones(2)), "factor"),
         "expected 3 two-dimensional"),
        (lambda: mode_n_product(np.ones((2, 2, 2)), np.ones(2), 1), "expects a matrix"),
        (lambda: khatri_rao([np.eye(2), np.ones(2)]), "must be matrices"),
        (lambda: mttkrp(np.ones((2, 2, 2)), [np.eye(2), np.eye(2)], 1),
         "expected 3 factor matrices"),
    ],
    ids=["triple-of-two", "triple-with-vector", "mode-product-vector", "khatri-rao-vector",
         "mttkrp-two-factors"],
)
def test_invalid_operands_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()
