import math
import tracemalloc

import numpy as np
import pytest

from cpfuse.degradation import add_noise
from cpfuse.metrics import (
    cross_correlation,
    metrics_report,
    rmse,
    rsnr,
    sam,
    spatial_smooth,
)
from cpfuse.tensors import frobenius_norm

RNG = np.random.default_rng(42)


def smooth_by_enumeration(t, window):
    """Oracle: per-band loop averaging the in-bounds window entries."""
    half = window // 2
    out = np.zeros_like(t)
    i_dim, j_dim, k_dim = t.shape
    for k in range(k_dim):
        for i in range(i_dim):
            for j in range(j_dim):
                lo_i, hi_i = max(0, i - half), min(i_dim, i + half + 1)
                lo_j, hi_j = max(0, j - half), min(j_dim, j + half + 1)
                patch = t[lo_i:hi_i, lo_j:hi_j, k]
                out[i, j, k] = patch.mean()
    return out


class TestRmse:
    def test_identical_tensors_give_zero(self):
        t = RNG.uniform(size=(4, 3, 5))
        assert rmse(t, t) == 0.0

    def test_constant_offset(self):
        truth = np.zeros((3, 3, 3))
        est = np.full((3, 3, 3), 2.0)
        assert abs(rmse(est, truth) - 2.0) < 1e-14

    def test_matches_definition(self):
        est = RNG.standard_normal((4, 5, 3))
        truth = RNG.standard_normal((4, 5, 3))
        expected = frobenius_norm(est - truth) / math.sqrt(est.size)
        np.testing.assert_allclose(rmse(est, truth), expected, rtol=1e-14)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))


class TestCrossCorrelation:
    def test_identical_tensors_give_one(self):
        t = RNG.uniform(size=(5, 4, 3))
        np.testing.assert_allclose(cross_correlation(t, t), 1.0, rtol=1e-12)

    def test_affine_per_band_invariance(self):
        truth = RNG.uniform(size=(5, 4, 3))
        est = 2.5 * truth + 1.0
        np.testing.assert_allclose(cross_correlation(est, truth), 1.0, rtol=1e-12)

    def test_negated_estimate_gives_minus_one(self):
        truth = RNG.uniform(size=(5, 4, 3))
        np.testing.assert_allclose(cross_correlation(-truth, truth), -1.0, rtol=1e-12)

    def test_constant_band_skipped_with_warning(self):
        truth = RNG.uniform(size=(4, 4, 3))
        truth[:, :, 1] = 7.0
        est = truth + RNG.standard_normal((4, 4, 3)) * 0.01
        with pytest.warns(UserWarning):
            value = cross_correlation(est, truth)
        assert math.isfinite(value)

    def test_all_bands_constant_raises(self):
        truth = np.ones((3, 3, 2))
        with pytest.raises(ValueError):
            cross_correlation(RNG.uniform(size=(3, 3, 2)), truth)

    def test_matches_per_band_pearson_oracle(self):
        est = RNG.uniform(size=(6, 5, 4))
        truth = RNG.uniform(size=(6, 5, 4))
        expected = np.mean(
            [
                np.corrcoef(est[:, :, k].ravel(), truth[:, :, k].ravel())[0, 1]
                for k in range(4)
            ]
        )
        np.testing.assert_allclose(cross_correlation(est, truth), expected, rtol=1e-12)


class TestRsnr:
    def test_exact_reconstruction_is_infinite(self):
        t = RNG.uniform(size=(3, 4, 2)) + 0.1
        assert rsnr(t, t) == math.inf

    def test_matches_definition(self):
        truth = RNG.uniform(size=(4, 4, 3)) + 0.5
        est = truth + 0.1 * RNG.standard_normal((4, 4, 3))
        expected = 10.0 * math.log10(
            float(np.sum(truth**2)) / float(np.sum((est - truth) ** 2))
        )
        np.testing.assert_allclose(rsnr(est, truth), expected, rtol=1e-13)

    def test_consistent_with_rmse_identity(self):
        # rsnr == -20 log10( rmse * sqrt(size) / ||truth|| )
        truth = RNG.uniform(size=(5, 3, 4)) + 0.5
        est = truth + 0.05 * RNG.standard_normal((5, 3, 4))
        identity = -20.0 * math.log10(
            rmse(est, truth) * math.sqrt(truth.size) / frobenius_norm(truth)
        )
        assert abs(rsnr(est, truth) - identity) < 1e-10

    def test_calibrated_noise_recovers_snr(self):
        truth = RNG.uniform(size=(6, 6, 4)) + 0.5
        for snr_db in (0.0, 5.0, 10.0):
            noisy = add_noise(truth, snr_db, rng_seed=1)
            assert abs(rsnr(noisy, truth) - snr_db) < 1e-9

    def test_zero_truth_raises(self):
        with pytest.raises(ValueError):
            rsnr(np.ones((2, 2, 2)), np.zeros((2, 2, 2)))


class TestSam:
    def test_identical_tensors_give_zero(self):
        t = RNG.uniform(size=(4, 3, 5)) + 0.1
        assert sam(t, t) < 1e-7

    def test_fiberwise_scaling_invariance(self):
        truth = RNG.uniform(size=(4, 3, 5)) + 0.1
        est = truth * 3.0
        assert sam(est, truth) < 1e-7

    def test_orthogonal_fibers_give_right_angle(self):
        truth = np.zeros((1, 1, 2))
        est = np.zeros((1, 1, 2))
        truth[0, 0, 0] = 1.0
        est[0, 0, 1] = 1.0
        np.testing.assert_allclose(sam(est, truth), math.pi / 2, rtol=1e-12)

    def test_zero_fibers_skipped(self):
        truth = RNG.uniform(size=(2, 2, 3)) + 0.1
        est = truth.copy()
        truth[0, 0, :] = 0.0
        value = sam(est, truth)
        assert value < 1e-7

    def test_all_fibers_zero_raises(self):
        with pytest.raises(ValueError):
            sam(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)))

    def test_matches_positionwise_oracle(self):
        est = RNG.uniform(size=(3, 4, 5)) + 0.1
        truth = RNG.uniform(size=(3, 4, 5)) + 0.1
        angles = []
        for i in range(3):
            for j in range(4):
                x, y = est[i, j, :], truth[i, j, :]
                cosine = x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
                angles.append(math.acos(max(-1.0, min(1.0, cosine))))
        np.testing.assert_allclose(sam(est, truth), np.mean(angles), rtol=1e-12)


class TestSpatialSmooth:
    def test_single_hot_center_renormalized_boundary(self):
        t = np.zeros((3, 3, 1))
        t[1, 1, 0] = 9.0
        out = spatial_smooth(t, 3)
        expected = np.array(
            [
                [9 / 4, 9 / 6, 9 / 4],
                [9 / 6, 9 / 9, 9 / 6],
                [9 / 4, 9 / 6, 9 / 4],
            ]
        )
        np.testing.assert_allclose(out[:, :, 0], expected, rtol=1e-12)

    def test_constant_tensor_unchanged(self):
        t = np.full((5, 6, 3), 4.2)
        np.testing.assert_allclose(spatial_smooth(t, 3), t, rtol=1e-12)

    def test_window_one_is_copy(self):
        t = RNG.uniform(size=(4, 4, 2))
        out = spatial_smooth(t, 1)
        np.testing.assert_array_equal(out, t)
        assert out is not t

    def test_matches_enumeration_oracle(self):
        t = RNG.uniform(size=(6, 5, 3))
        for window in (3, 5):
            np.testing.assert_allclose(
                spatial_smooth(t, window), smooth_by_enumeration(t, window), rtol=1e-12
            )

    def test_preserves_nonnegativity(self):
        t = RNG.uniform(size=(5, 5, 2))
        assert np.all(spatial_smooth(t, 3) >= 0.0)

    def test_bands_smoothed_independently(self):
        t = RNG.uniform(size=(4, 4, 3))
        out = spatial_smooth(t, 3)
        single = spatial_smooth(t[:, :, 1:2], 3)
        np.testing.assert_allclose(out[:, :, 1], single[:, :, 0], rtol=1e-13)

    def test_even_window_raises(self):
        with pytest.raises(ValueError):
            spatial_smooth(np.zeros((3, 3, 1)), 2)


class TestMetricsReport:
    def test_perfect_reconstruction(self):
        t = RNG.uniform(size=(4, 4, 3)) + 0.1
        report = metrics_report(t, t)
        assert report.rmse == 0.0
        assert report.rsnr_db == math.inf
        np.testing.assert_allclose(report.cc, 1.0, rtol=1e-12)
        assert report.sam_radians < 1e-7
        assert report.cc_bands_skipped == 0
        assert report.sam_fibers_skipped == 0

    def test_skip_counters(self):
        truth = RNG.uniform(size=(3, 3, 4)) + 0.1
        truth[:, :, 0] = 0.0
        truth[0, 0, :] = 0.0
        est = truth + 0.01 * RNG.uniform(size=(3, 3, 4))
        est[0, 0, :] = 0.0
        report = metrics_report(est, truth)
        assert report.cc_bands_skipped >= 1
        assert report.sam_fibers_skipped == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_memory_order_does_not_change_the_metrics(self, seed):
        rng = np.random.default_rng(seed)
        truth = np.asfortranarray(rng.uniform(size=(24, 24, 16)))
        est = np.asfortranarray(truth + 0.1 * rng.standard_normal(truth.shape))
        c_est, c_truth = np.ascontiguousarray(est), np.ascontiguousarray(truth)
        for metric in (metrics_report, rmse, rsnr, sam, cross_correlation):
            assert metric(c_est, c_truth) == metric(est, truth)
            assert metric(c_est, truth) == metric(est, c_truth) == metric(est, truth)


@pytest.mark.parametrize(
    "call",
    [
        lambda t: rmse(t[:, :, 0], t[:, :, 0]),
        lambda t: metrics_report(t, t[:, :, 0]),
        lambda t: spatial_smooth(t[:, :, 0], 3),
    ],
    ids=["estimate", "truth", "smooth"],
)
def test_two_dimensional_input_raises(call):
    with pytest.raises(ValueError, match="third-order tensor"):
        call(np.ones((3, 3, 2)))


@pytest.mark.parametrize("order", ["C", "F"])
def test_spatial_smooth_allocates_one_tensor_besides_its_output(order):
    # The result is the only tensor-sized array; the divisor is one (I, J)
    # plane shared by every band.
    t = np.asarray(RNG.uniform(size=(64, 48, 32)), order=order)
    tracemalloc.start()
    try:
        spatial_smooth(t, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * t.nbytes


@pytest.mark.parametrize("order", ["C", "F"])
def test_spatial_smooth_filters_into_its_output(order):
    # Besides the result, only the divisor plane and the filter's line buffers.
    t = np.asarray(RNG.uniform(size=(64, 48, 32)), order=order)
    tracemalloc.start()
    try:
        spatial_smooth(t, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * t.nbytes


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("window", [1, 5])
def test_spatial_smooth_returns_column_major(order, window):
    # The package's tensor order, which write_tensor writes without a copy.
    t = np.asarray(RNG.uniform(size=(9, 8, 4)), order=order)
    out = spatial_smooth(t, window)
    assert out.flags.f_contiguous
    np.testing.assert_array_equal(out, spatial_smooth(np.ascontiguousarray(t), window))
