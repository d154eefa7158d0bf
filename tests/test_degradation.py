import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpfuse.degradation import (
    DegradationConfig,
    DegradationOperators,
    add_noise,
    band_aggregation_matrix,
    blur_downsample_matrix,
    build_operators,
    degrade,
    operator_shapes,
    scene_shape,
)
from cpfuse.tensors import cpd_reconstruct, frobenius_norm
from oracles import mode_n_product

RNG = np.random.default_rng(42)


class TestBlurDownsampleMatrix:
    def test_reference_dimensions(self):
        # 80 -> 20 and 84 -> 21 with a 9-tap kernel at factor 4.
        cfg = DegradationConfig(kernel_size=9, sigma=2.0, factor=4)
        assert blur_downsample_matrix(80, cfg).shape == (20, 80)
        assert blur_downsample_matrix(84, cfg).shape == (21, 84)

    def test_identity_configuration(self):
        cfg = DegradationConfig(kernel_size=1, sigma=1.0, factor=1)
        np.testing.assert_array_equal(blur_downsample_matrix(5, cfg), np.eye(5))

    @settings(max_examples=40, deadline=None)
    @given(full_dim=st.integers(3, 40), factor=st.integers(1, 5))
    def test_shape_contract_always_ceil(self, full_dim, factor):
        cfg = DegradationConfig(kernel_size=3, sigma=1.0, factor=factor)
        p = blur_downsample_matrix(full_dim, cfg)
        assert p.shape == (math.ceil(full_dim / factor), full_dim)

    def test_constant_input_response(self):
        # Interior rows integrate the full kernel (sum 1); boundary rows less.
        cfg = DegradationConfig(kernel_size=5, sigma=1.5, factor=2)
        p = blur_downsample_matrix(12, cfg)
        response = p @ np.ones(12)
        assert np.all(response <= 1.0 + 1e-12)
        interior = response[1:-1]
        np.testing.assert_allclose(interior, np.ones_like(interior), rtol=1e-12)

    def test_entries_nonnegative(self):
        cfg = DegradationConfig(kernel_size=7, sigma=2.0, factor=3)
        assert np.all(blur_downsample_matrix(15, cfg) >= 0.0)

    def test_kernel_wider_than_dimension_raises(self):
        cfg = DegradationConfig(kernel_size=9, sigma=2.0, factor=2)
        with pytest.raises(ValueError):
            blur_downsample_matrix(5, cfg)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError):
            blur_downsample_matrix(10, DegradationConfig(kernel_size=4))

    def test_gaussian_taps_normalized_and_symmetric(self):
        cfg = DegradationConfig(kernel_size=5, sigma=2.0, factor=1)
        p = blur_downsample_matrix(11, cfg)
        center = p[5]
        np.testing.assert_allclose(center.sum(), 1.0, rtol=1e-13)
        np.testing.assert_allclose(center[3:8], center[7:2:-1], rtol=1e-13)
        expected = np.exp(-np.arange(-2, 3) ** 2 / (2 * 2.0**2))
        expected /= expected.sum()
        np.testing.assert_allclose(center[3:8], expected, rtol=1e-13)


class TestBandAggregationMatrix:
    def test_uniform_blocks_204_to_6(self):
        pm = band_aggregation_matrix(204, 6)
        assert pm.shape == (6, 204)
        for q in range(6):
            block = pm[q, 34 * q : 34 * (q + 1)]
            np.testing.assert_allclose(block, np.full(34, 1.0 / 34))
        np.testing.assert_allclose(pm.sum(axis=1), np.ones(6), rtol=1e-13)

    def test_identity_when_counts_match(self):
        np.testing.assert_array_equal(band_aggregation_matrix(4, 4), np.eye(4))

    def test_uneven_split_differs_by_at_most_one(self):
        pm = band_aggregation_matrix(10, 3)
        sizes = (pm > 0).sum(axis=1)
        np.testing.assert_array_equal(sizes, [4, 3, 3])
        np.testing.assert_allclose(pm.sum(axis=1), np.ones(3), rtol=1e-13)

    def test_rows_have_disjoint_support(self):
        pm = band_aggregation_matrix(11, 4)
        support = pm > 0
        assert np.all(support.sum(axis=0) == 1)

    def test_constant_spectrum_preserved(self):
        pm = band_aggregation_matrix(9, 2)
        np.testing.assert_allclose(pm @ np.ones(9), np.ones(2), rtol=1e-13)

    def test_more_groups_than_bands_raises(self):
        with pytest.raises(ValueError):
            band_aggregation_matrix(3, 5)


class TestDegrade:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e300], ids=["nan", "inf", "overflow"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_non_finite_image_raises_as_fusion_problem_does(self, bad, order):
        # Checked on the images with FusionProblem's rule and message; the scene
        # entry reaches the HSI first.  1e300 is finite, but the HSI's squared
        # norm overflows.  No floating-point warning is raised on the way.
        ops = build_operators((6, 6, 4), DegradationConfig(kernel_size=3, factor=2,
                                                            num_msi_bands=2))
        sri = np.asarray(RNG.uniform(size=(6, 6, 4)), order=order)
        sri[2, 3, 1] = bad
        with pytest.raises(ValueError, match="^the HSI has a non-finite squared norm .*: it "
                                             "holds a NaN, an infinity or an entry too large"):
            degrade(sri, ops)

    def test_msi_is_checked_too(self):
        # Only the MSI's entries are large enough for their squares to overflow.
        sri = RNG.uniform(size=(4, 4, 3))
        ops = DegradationOperators(np.eye(4), np.eye(4), np.full((1, 3), 1e200))
        with pytest.raises(ValueError, match="^the MSI has a non-finite squared norm"):
            degrade(sri, ops)

    def test_reference_scene_shapes(self):
        # An 80 x 84 x 204 scene maps to a 20 x 21 x 204 HSI and an 80 x 84 x 6 MSI.
        cfg = DegradationConfig(kernel_size=9, sigma=2.0, factor=4, num_msi_bands=6)
        ops = build_operators((80, 84, 204), cfg)
        sri = np.random.default_rng(0).uniform(size=(80, 84, 204))
        hsi, msi = degrade(sri, ops)
        assert hsi.shape == (20, 21, 204)
        assert msi.shape == (80, 84, 6)

    def test_identity_operators_are_noop(self):
        sri = RNG.uniform(size=(4, 5, 6))
        ops = DegradationOperators(np.eye(4), np.eye(5), np.eye(6))
        hsi, msi = degrade(sri, ops)
        np.testing.assert_array_equal(hsi, sri)
        np.testing.assert_array_equal(msi, sri)

    def test_matches_slice_wise_application(self):
        # Oracle: blur each band as P1 @ slice @ P2^T, aggregate fibers directly.
        cfg = DegradationConfig(kernel_size=3, sigma=1.0, factor=2, num_msi_bands=2)
        ops = build_operators((6, 5, 4), cfg)
        sri = RNG.uniform(size=(6, 5, 4))
        hsi, msi = degrade(sri, ops)
        for k in range(4):
            np.testing.assert_allclose(
                hsi[:, :, k], ops.spatial_1 @ sri[:, :, k] @ ops.spatial_2.T, atol=1e-13
            )
        for i in range(6):
            for j in range(5):
                np.testing.assert_allclose(
                    msi[i, j, :], ops.spectral @ sri[i, j, :], atol=1e-13
                )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31))
    def test_commutes_with_cp_structure(self, seed):
        rng = np.random.default_rng(seed)
        cfg = DegradationConfig(kernel_size=3, sigma=1.5, factor=2, num_msi_bands=3)
        ops = build_operators((8, 7, 6), cfg)
        a, b, c = (rng.uniform(size=(d, 2)) for d in (8, 7, 6))
        hsi, msi = degrade(cpd_reconstruct(a, b, c), ops)
        np.testing.assert_allclose(
            hsi, cpd_reconstruct(ops.spatial_1 @ a, ops.spatial_2 @ b, c), rtol=1e-12, atol=1e-12
        )
        np.testing.assert_allclose(
            msi, cpd_reconstruct(a, b, ops.spectral @ c), rtol=1e-12, atol=1e-12
        )

    def test_preserves_nonnegativity(self):
        cfg = DegradationConfig(kernel_size=3, sigma=1.0, factor=2, num_msi_bands=2)
        ops = build_operators((6, 6, 4), cfg)
        hsi, msi = degrade(RNG.uniform(size=(6, 6, 4)), ops)
        assert np.all(hsi >= 0) and np.all(msi >= 0)

    @pytest.mark.parametrize("mode", [1, 2, 3])
    def test_wrong_operator_shape_raises(self, mode):
        # The scene is 4 x 5 x 6; the operator of ``mode`` has one column too few.
        mats = [np.eye(d - (n + 1 == mode)) for n, d in enumerate((4, 5, 6))]
        with pytest.raises(ValueError, match=f"mode-{mode} operator"):
            degrade(np.zeros((4, 5, 6)), DegradationOperators(*mats))

    def test_mode_product_consistency(self):
        cfg = DegradationConfig(kernel_size=3, sigma=1.0, factor=2, num_msi_bands=2)
        ops = build_operators((6, 5, 4), cfg)
        sri = RNG.uniform(size=(6, 5, 4))
        hsi, msi = degrade(sri, ops)
        np.testing.assert_array_equal(
            hsi, mode_n_product(mode_n_product(sri, ops.spatial_1, 1), ops.spatial_2, 2)
        )
        np.testing.assert_array_equal(msi, mode_n_product(sri, ops.spectral, 3))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_images_are_column_major(self, order):
        # FusionProblem, mttkrp and write_tensor take both images as they are.
        cfg = DegradationConfig(kernel_size=3, sigma=1.0, factor=2, num_msi_bands=3)
        ops = build_operators((12, 10, 8), cfg)
        sri = np.asarray(RNG.uniform(size=(12, 10, 8)), order=order)
        for image in degrade(sri, ops):
            assert image.flags.f_contiguous

    def test_peak_memory_of_column_major_scene(self):
        # The mode-1 partial product and the C-ordered HSI are the largest
        # temporaries; making the HSI column-major adds none that outlives them.
        dims = (48, 40, 32)
        cfg = DegradationConfig(kernel_size=3, sigma=1.0, factor=2, num_msi_bands=4)
        ops = build_operators(dims, cfg)
        sri = cpd_reconstruct(*(RNG.uniform(size=(d, 3)) for d in dims))
        degrade(sri, ops)
        tracemalloc.start()
        try:
            hsi, _ = degrade(sri, ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        partial = ops.spatial_1.shape[0] * dims[1] * dims[2] * 8
        assert peak <= 2 * partial + hsi.nbytes + 4096


def mode_product_route(sri, ops):
    """Both images as mode products through ``unfold`` and ``fold``."""
    hsi = mode_n_product(mode_n_product(sri, ops.spatial_1, 1), ops.spatial_2, 2)
    return hsi, mode_n_product(sri, ops.spectral, 3)


def scene_layouts(t):
    """The values of ``t`` C-ordered, Fortran-ordered and as a strided view."""
    padded = np.zeros((t.shape[0], 2 * t.shape[1], t.shape[2]))
    padded[:, ::2, :] = t
    return {"C": np.ascontiguousarray(t), "F": np.asfortranarray(t), "sliced": padded[:, ::2, :]}


class TestDegradeViews:
    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    @pytest.mark.parametrize("dims, factor", [((64, 48, 32), 2), ((33, 21, 7), 3), ((1, 9, 5), 1)])
    def test_matches_mode_product_route_in_every_layout(self, layout, dims, factor):
        cfg = DegradationConfig(kernel_size=min(3, dims[0]), factor=factor, num_msi_bands=2)
        ops = build_operators(dims, cfg)
        sri = scene_layouts(np.random.default_rng(3).uniform(size=dims))[layout]
        for got, want in zip(degrade(sri, ops), mode_product_route(sri, ops)):
            assert got.flags.f_contiguous
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize(
        "dims, cfg",
        [
            ((24, 24, 16), DegradationConfig(kernel_size=3, factor=2, num_msi_bands=4)),
            ((192, 192, 100), DegradationConfig(kernel_size=9, factor=4, num_msi_bands=6)),
        ],
        ids=["s5-budget", "l-tensor"],
    )
    def test_benchmark_scenes_match_mode_product_route_bit_for_bit(self, dims, cfg):
        # The benchmark's scene shapes and operators, column-major as
        # ``simulate_scene`` and ``read_tensor`` return them.
        ops = build_operators(dims, cfg)
        sri = np.asfortranarray(np.random.default_rng(4).uniform(size=dims))
        for got, want in zip(degrade(sri, ops), mode_product_route(sri, ops)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("order, bound", [("F", 1.0), ("C", 2.0)])
    def test_makes_no_scene_sized_copy(self, order, bound):
        # At this size the mode-product route peaks at 1.25x the scene for a
        # column-major scene.  A C-ordered scene is read through one
        # column-major copy, so its bound is one scene larger.
        dims = (64, 48, 32)
        ops = build_operators(dims, DegradationConfig(kernel_size=3, factor=2, num_msi_bands=6))
        sri = np.asarray(np.random.default_rng(5).uniform(size=dims), order=order)
        degrade(sri, ops)
        tracemalloc.start()
        try:
            degrade(sri, ops)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * sri.nbytes


class TestProject:
    @settings(max_examples=25, deadline=None)
    @given(
        dims=st.tuples(*(st.integers(1, 7) for _ in range(3))),
        rows=st.tuples(*(st.integers(1, 7) for _ in range(3))),
        rank=st.integers(1, 4),
        seed=st.integers(0, 2**31),
    )
    def test_matches_hand_written_coupling(self, dims, rows, rank, seed):
        rng = np.random.default_rng(seed)
        ops = DegradationOperators(*(rng.standard_normal((r, d)) for r, d in zip(rows, dims)))
        a, b, c = (rng.standard_normal((d, rank)) for d in dims)
        hsi_factors, msi_factors = ops.project([a, b, c])
        expected = (
            [ops.spatial_1 @ a, ops.spatial_2 @ b, c],
            [a, b, ops.spectral @ c],
        )
        for got, want in zip((hsi_factors, msi_factors), expected):
            assert len(got) == 3
            for g, w in zip(got, want):
                np.testing.assert_array_equal(g, w)


class TestBackProject:
    @settings(max_examples=40, deadline=None)
    @given(
        dims=st.tuples(*(st.integers(1, 7) for _ in range(3))),
        rows=st.tuples(*(st.integers(1, 7) for _ in range(3))),
        rank=st.integers(1, 4),
        seed=st.integers(0, 2**31),
    )
    def test_is_adjoint_of_project(self, dims, rows, rank, seed):
        # <project(X), T> summed over both images equals, summed over the
        # modes, <X_n, back_project(n, T)>.  Nonnegative draws keep the sums
        # free of cancellation.
        rng = np.random.default_rng(seed)
        ops = DegradationOperators(*(rng.uniform(0.0, 1.0, (r, d)) for r, d in zip(rows, dims)))
        x = [rng.uniform(0.0, 1.0, (d, rank)) for d in dims]
        projected = ops.project(x)
        t = [[rng.uniform(0.0, 1.0, f.shape) for f in image] for image in projected]
        lhs = sum(np.sum(f * g) for pf, tf in zip(projected, t) for f, g in zip(pf, tf))
        rhs = sum(np.sum(x[n] * ops.back_project(n, (t[0][n], t[1][n]))) for n in range(3))
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestSceneShape:
    @settings(max_examples=30, deadline=None)
    @given(
        dims=st.tuples(st.integers(3, 13), st.integers(3, 13), st.integers(1, 9)),
        factor=st.integers(1, 5),
        data=st.data(),
    )
    def test_inverts_degrade(self, dims, factor, data):
        # Sizes that are not multiples of the factor included: the spatial
        # operators keep ceil(size / factor) rows.
        bands = data.draw(st.integers(1, dims[2]), label="bands")
        cfg = DegradationConfig(kernel_size=3, factor=factor, num_msi_bands=bands)
        ops = build_operators(dims, cfg)
        images = degrade(RNG.uniform(0.0, 1.0, dims), ops)
        assert scene_shape(images) == dims
        assert operator_shapes(images) == tuple(q.shape for q in ops.matrices)


class TestBuildOperators:
    def test_custom_spectral_matrix_accepted(self):
        custom = band_aggregation_matrix(6, 3)
        ops = build_operators((8, 8, 6), DegradationConfig(kernel_size=3, factor=2), custom)
        np.testing.assert_array_equal(ops.spectral, custom)

    def test_rows_not_summing_to_one_rejected(self):
        bad = np.full((2, 6), 0.4)
        with pytest.raises(ValueError):
            build_operators((8, 8, 6), DegradationConfig(kernel_size=3, factor=2), bad)

    def test_negative_entries_rejected(self):
        bad = np.eye(6)[:2] * np.array([[1.0], [1.0]])
        bad[0, 1] = -0.1
        bad[0, 0] = 1.1
        with pytest.raises(ValueError):
            build_operators((8, 8, 6), DegradationConfig(kernel_size=3, factor=2), bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_spectral_matrix_named_before_its_sums(self, bad):
        pm = band_aggregation_matrix(6, 3)
        pm[0, 0] = bad
        with pytest.raises(ValueError, match="^spectral holds a NaN or an infinity$"):
            build_operators((8, 8, 6), DegradationConfig(kernel_size=3, factor=2), pm)

    def test_operators_cannot_be_rebound(self):
        # matrices is resolved at construction, so rebinding a field would
        # leave it holding the old matrix.
        ops = build_operators((8, 8, 6), DegradationConfig(kernel_size=3, factor=2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            ops.spectral = np.eye(6)
        assert ops.matrices[2] is ops.spectral

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["spatial_1", "spatial_2", "spectral"])
    def test_non_finite_matrix_rejected(self, field, bad):
        ops = build_operators((8, 8, 6), DegradationConfig(kernel_size=3, factor=2))
        matrices = dict(zip(("spatial_1", "spatial_2", "spectral"), ops.matrices))
        matrices[field] = matrices[field].copy()
        matrices[field][0, 1] = bad
        message = f"^{field} holds a NaN or an infinity$"
        with pytest.raises(ValueError, match=message):
            DegradationOperators(**matrices)
        # So degrade never meets it, and never blames the HSI for it.
        with pytest.raises(ValueError, match=message):
            degrade(np.ones((8, 8, 6)), dataclasses.replace(ops, **{field: matrices[field]}))

    def test_project_mode_matches_project(self):
        ops = build_operators((8, 8, 6), DegradationConfig(kernel_size=3, factor=2))
        rng = np.random.default_rng(0)
        factors = [rng.standard_normal((d, 3)) for d in (8, 8, 6)]
        projected = ops.project(factors)
        for n, f in enumerate(factors):
            pair = ops.project_mode(n, f)
            for i in range(2):
                np.testing.assert_array_equal(pair[i], projected[i][n])


class TestAddNoise:
    def test_infinite_snr_returns_copy(self):
        t = RNG.uniform(size=(3, 4, 2))
        out = add_noise(t, math.inf, rng_seed=0)
        np.testing.assert_array_equal(out, t)
        assert out is not t

    @pytest.mark.parametrize("snr_db", [0.0, 5.0, 10.0, 20.0])
    def test_realized_snr_exact(self, snr_db):
        t = RNG.uniform(size=(6, 5, 4)) + 0.5
        noisy = add_noise(t, snr_db, rng_seed=3)
        realized = 10.0 * math.log10(
            frobenius_norm(t) ** 2 / frobenius_norm(noisy - t) ** 2
        )
        assert abs(realized - snr_db) < 1e-10

    def test_noise_norm_calibration(self):
        t = RNG.uniform(size=(4, 4, 4)) + 1.0
        noisy = add_noise(t, 5.0, rng_seed=9)
        expected = frobenius_norm(t) * 10.0 ** (-5.0 / 20.0)
        np.testing.assert_allclose(frobenius_norm(noisy - t), expected, rtol=1e-12)

    def test_deterministic_per_seed(self):
        t = RNG.uniform(size=(3, 3, 3)) + 1.0
        np.testing.assert_array_equal(add_noise(t, 5.0, 7), add_noise(t, 5.0, 7))
        assert not np.array_equal(add_noise(t, 5.0, 7), add_noise(t, 5.0, 8))

    def test_zero_tensor_raises(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros((2, 2, 2)), 5.0, 0)

    @pytest.mark.parametrize("snr_db", [5.0, math.inf])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_keeps_memory_order(self, order, snr_db):
        t = np.asarray(RNG.uniform(size=(4, 3, 5)) + 0.5, order=order)
        out = add_noise(t, snr_db, rng_seed=2)
        assert out.flags.c_contiguous == (order == "C")
        assert out.flags.f_contiguous == (order == "F")

    def test_same_values_get_the_same_noise_in_either_memory_order(self):
        # Draw 6 of this stream sums its squares to different last bits in C
        # and in Fortran memory order.
        rng = np.random.default_rng(0)
        for _ in range(7):
            c = rng.uniform(0, 1, (16, 16, 8)) + 0.2
        f = np.asfortranarray(c)
        np.testing.assert_array_equal(add_noise(c, 10.0, 3), add_noise(f, 10.0, 3))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_is_input_plus_scaled_standard_normal_draw(self, order):
        t = np.asarray(RNG.uniform(size=(4, 3, 5)) + 0.5, order=order)
        noise = np.random.default_rng(11).standard_normal(t.shape)
        # The signal norm is summed in Fortran order whatever the layout of t.
        signal_norm = frobenius_norm(t.ravel(order="F"))
        scale = signal_norm / (np.linalg.norm(noise.ravel()) * 10.0 ** (5.0 / 20.0))
        np.testing.assert_array_equal(add_noise(t, 5.0, rng_seed=11), t + scale * noise)


class TestDegradationConfig:
    def test_defaults_are_valid(self):
        DegradationConfig()

    def test_field_list(self):
        # Every field acts on the operators; the noise level and seed are
        # arguments of add_noise, not settings.
        assert [f.name for f in dataclasses.fields(DegradationConfig)] == [
            "kernel_size", "sigma", "factor", "num_msi_bands",
        ]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kernel_size": 0},
            {"kernel_size": 2},
            {"sigma": 0.0},
            {"sigma": -1.0},
            {"factor": 0},
            {"num_msi_bands": 0},
            # NaN fails ``sigma > 0``; a test of ``sigma <= 0`` would let it through
            {"sigma": math.nan},
            {"sigma": -math.inf},
            {"sigma": math.inf},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DegradationConfig(**kwargs)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: DegradationOperators(np.ones(3), np.eye(2), np.eye(2)),
         "spatial_1 must be a matrix"),
        (lambda: blur_downsample_matrix(0, DegradationConfig()), "full_dim must be positive"),
        (lambda: band_aggregation_matrix(0, 1), "band counts must be positive"),
        (lambda: build_operators((4, 4, 5), DegradationConfig(kernel_size=3, factor=2),
                                 np.full((2, 4), 0.25)), "must have 5 columns"),
        (lambda: add_noise(np.ones((2, 2, 2)), math.nan, 0), "snr_db must be finite or"),
        (lambda: add_noise(np.ones((2, 2, 2)), -math.inf, 0), "snr_db must be finite or"),
        (lambda: degrade(np.ones((4, 4)), build_operators((4, 4, 2), DegradationConfig(
            kernel_size=3, factor=2, num_msi_bands=1))), "third-order tensor"),
    ],
    ids=["operator-not-a-matrix", "blur-zero-dim", "bands-zero", "spectral-columns",
         "noise-nan", "noise-minus-inf", "degrade-2d"],
)
def test_invalid_input_raises(call, message):
    with pytest.raises(ValueError, match=message):
        call()
