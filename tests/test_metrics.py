import math
import tracemalloc
import warnings

import numpy as np
import pytest

from cpfuse.degradation import add_noise
from cpfuse.metrics import MetricsReport, metrics_report, spatial_smooth
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


def report_by_einsum(est, truth):
    """Oracle: the per-band and per-fiber einsum formulas over whole tensors."""
    values, cc_skipped = [], 0
    for k in range(truth.shape[2]):
        xc = est[:, :, k] - est[:, :, k].mean()
        yc = truth[:, :, k] - truth[:, :, k].mean()
        sxx, syy, sxy = (
            float(np.einsum("ij,ij->", u, v)) for u, v in ((xc, xc), (yc, yc), (xc, yc))
        )
        denom = math.sqrt(sxx * syy)
        if denom == 0.0:
            cc_skipped += 1
        else:
            values.append(sxy / denom)
    norm_e = np.sqrt(np.einsum("ijk,ijk->ij", est, est))
    norm_t = np.sqrt(np.einsum("ijk,ijk->ij", truth, truth))
    dots = np.einsum("ijk,ijk->ij", est, truth)
    keep = (norm_e > 0.0) & (norm_t > 0.0)
    cosines = np.clip(dots[keep] / (norm_e[keep] * norm_t[keep]), -1.0, 1.0)
    diff = est - truth
    squared_error = float(np.einsum("ijk,ijk->", diff, diff))
    signal = float(np.einsum("ijk,ijk->", truth, truth))
    return MetricsReport(
        rmse=math.sqrt(squared_error) / math.sqrt(est.size),
        cc=float(np.mean(values)),
        rsnr_db=10.0 * math.log10(signal / squared_error),
        sam_radians=float(np.mean(np.arccos(cosines))),
        cc_bands_skipped=cc_skipped,
        sam_fibers_skipped=int(np.count_nonzero(~keep)),
    )


def pair_with_entry(entry_in=None, value=math.nan):
    """A 4x5x6 uniform truth and a nearby estimate, with one entry ``value``
    in the tensor ``entry_in`` names, if it names one."""
    rng = np.random.default_rng(0)
    truth = rng.uniform(size=(4, 5, 6))
    est = truth + 0.01 * rng.standard_normal(truth.shape)
    if entry_in is not None:
        (est if entry_in == "est" else truth)[1, 2, 3] = value
    return est, truth


class TestRmse:
    def test_identical_tensors_give_zero(self):
        t = RNG.uniform(size=(4, 3, 5))
        assert metrics_report(t, t).rmse == 0.0

    def test_constant_offset(self):
        # Non-constant bands: a report needs at least one defined correlation.
        truth = RNG.uniform(size=(3, 3, 3))
        est = truth + 2.0
        assert abs(metrics_report(est, truth).rmse - 2.0) < 1e-14

    def test_matches_definition(self):
        est = RNG.standard_normal((4, 5, 3))
        truth = RNG.standard_normal((4, 5, 3))
        expected = frobenius_norm(est - truth) / math.sqrt(est.size)
        np.testing.assert_allclose(metrics_report(est, truth).rmse, expected, rtol=1e-14)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            metrics_report(np.zeros((2, 2, 2)), np.zeros((2, 2, 3)))


class TestCrossCorrelation:
    def test_identical_tensors_give_one(self):
        t = RNG.uniform(size=(5, 4, 3))
        np.testing.assert_allclose(metrics_report(t, t).cc, 1.0, rtol=1e-12)

    def test_affine_per_band_invariance(self):
        truth = RNG.uniform(size=(5, 4, 3))
        est = 2.5 * truth + 1.0
        np.testing.assert_allclose(metrics_report(est, truth).cc, 1.0, rtol=1e-12)

    def test_negated_estimate_gives_minus_one(self):
        truth = RNG.uniform(size=(5, 4, 3))
        np.testing.assert_allclose(metrics_report(-truth, truth).cc, -1.0, rtol=1e-12)

    def test_constant_band_skipped_without_warning(self):
        truth = RNG.uniform(size=(4, 4, 3))
        truth[:, :, 1] = 7.0
        est = truth + RNG.standard_normal((4, 4, 3)) * 0.01
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = metrics_report(est, truth)
        assert math.isfinite(report.cc)
        assert report.cc_bands_skipped == 1

    def test_all_bands_constant_raises(self):
        truth = np.ones((3, 3, 2))
        with pytest.raises(ValueError):
            metrics_report(RNG.uniform(size=(3, 3, 2)), truth)

    def test_large_scale_does_not_overflow(self):
        # Each band's centred sums are finite, but their product overflows.
        est, truth = pair_with_entry()
        scaled = metrics_report(1e100 * est, 1e100 * truth).cc
        assert abs(scaled - metrics_report(est, truth).cc) <= 1e-12

    def test_tiny_scale_does_not_underflow(self):
        # Each band's centred sums are subnormal but nonzero, and their product
        # underflows to 0: no band is constant, so none is skipped.
        est, truth = pair_with_entry()
        report = metrics_report(1e-160 * est, 1e-160 * truth)
        assert abs(report.cc - metrics_report(est, truth).cc) <= 1e-3
        assert report.cc_bands_skipped == 0

    def test_matches_per_band_pearson_oracle(self):
        est = RNG.uniform(size=(6, 5, 4))
        truth = RNG.uniform(size=(6, 5, 4))
        expected = np.mean(
            [
                np.corrcoef(est[:, :, k].ravel(), truth[:, :, k].ravel())[0, 1]
                for k in range(4)
            ]
        )
        np.testing.assert_allclose(metrics_report(est, truth).cc, expected, rtol=1e-12)


class TestRsnr:
    def test_exact_reconstruction_is_infinite(self):
        t = RNG.uniform(size=(3, 4, 2)) + 0.1
        assert metrics_report(t, t).rsnr_db == math.inf

    def test_matches_definition(self):
        truth = RNG.uniform(size=(4, 4, 3)) + 0.5
        est = truth + 0.1 * RNG.standard_normal((4, 4, 3))
        expected = 10.0 * math.log10(
            float(np.sum(truth**2)) / float(np.sum((est - truth) ** 2))
        )
        np.testing.assert_allclose(metrics_report(est, truth).rsnr_db, expected, rtol=1e-13)

    def test_consistent_with_rmse_identity(self):
        # rsnr == -20 log10( rmse * sqrt(size) / ||truth|| )
        truth = RNG.uniform(size=(5, 3, 4)) + 0.5
        est = truth + 0.05 * RNG.standard_normal((5, 3, 4))
        report = metrics_report(est, truth)
        identity = -20.0 * math.log10(
            report.rmse * math.sqrt(truth.size) / frobenius_norm(truth)
        )
        assert abs(report.rsnr_db - identity) < 1e-10

    def test_calibrated_noise_recovers_snr(self):
        truth = RNG.uniform(size=(6, 6, 4)) + 0.5
        for snr_db in (0.0, 5.0, 10.0):
            noisy = add_noise(truth, snr_db, rng_seed=1)
            assert abs(metrics_report(noisy, truth).rsnr_db - snr_db) < 1e-9

    def test_zero_truth_raises(self):
        with pytest.raises(ValueError):
            metrics_report(np.ones((2, 2, 2)), np.zeros((2, 2, 2)))

    def test_quotient_underflow_gives_finite_rsnr(self):
        # signal / squared_error is below the smallest float; both are finite.
        est, truth = pair_with_entry()
        est, truth = 1e15 * est, 1e-150 * truth
        signal = math.fsum((truth**2).ravel())
        squared_error = math.fsum(((est - truth) ** 2).ravel())
        assert signal / squared_error == 0.0
        expected = 10.0 * (math.log10(signal) - math.log10(squared_error))
        np.testing.assert_allclose(metrics_report(est, truth).rsnr_db, expected, rtol=1e-12)

    def test_quotient_overflow_gives_finite_rsnr(self):
        # The only error is one subnormal squared entry: signal / squared_error
        # overflows, but the error is not zero.
        _, truth = pair_with_entry("truth", 0.0)
        est = truth.copy()
        est[1, 2, 3] = 1e-160
        signal = math.fsum((truth**2).ravel())
        assert math.isinf(signal / 1e-160**2)
        rsnr_db = metrics_report(est, truth).rsnr_db
        expected = 10.0 * (math.log10(signal) - math.log10(1e-160**2))
        assert 3000.0 < rsnr_db < math.inf
        np.testing.assert_allclose(rsnr_db, expected, rtol=1e-12)


class TestSam:
    def test_identical_tensors_give_zero(self):
        t = RNG.uniform(size=(4, 3, 5)) + 0.1
        assert metrics_report(t, t).sam_radians < 1e-7

    def test_fiberwise_scaling_invariance(self):
        truth = RNG.uniform(size=(4, 3, 5)) + 0.1
        est = truth * 3.0
        assert metrics_report(est, truth).sam_radians < 1e-7

    def test_orthogonal_fibers_give_right_angle(self):
        # Two pixels, so that no band is constant and the report has a correlation.
        truth = np.zeros((1, 2, 2))
        est = np.zeros((1, 2, 2))
        truth[0, 0, 0] = est[0, 1, 0] = 1.0
        est[0, 0, 1] = truth[0, 1, 1] = 1.0
        np.testing.assert_allclose(
            metrics_report(est, truth).sam_radians, math.pi / 2, rtol=1e-12
        )

    def test_zero_fibers_skipped(self):
        truth = RNG.uniform(size=(2, 2, 3)) + 0.1
        est = truth.copy()
        truth[0, 0, :] = 0.0
        value = metrics_report(est, truth).sam_radians
        assert value < 1e-7

    def test_all_fibers_zero_raises(self):
        with pytest.raises(ValueError):
            metrics_report(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)))

    def test_no_pixel_with_both_fibers_nonzero_raises(self):
        # No band is constant, so the spectral angle is the one undefined score.
        est, truth = np.zeros((1, 2, 3)), np.zeros((1, 2, 3))
        est[0, 0, :], truth[0, 1, :] = 1.0, 2.0
        with pytest.raises(ValueError, match="every spectral fiber is zero"):
            metrics_report(est, truth)

    @pytest.mark.parametrize("nan_in", ["est", "truth"])
    def test_nan_fiber_gives_nan(self, nan_in):
        # A NaN fiber's norm is NaN, not 0: it is kept, not skipped as zero.
        est, truth = pair_with_entry(nan_in)
        assert math.isnan(metrics_report(est, truth).sam_radians)

    def test_matches_positionwise_oracle(self):
        est = RNG.uniform(size=(3, 4, 5)) + 0.1
        truth = RNG.uniform(size=(3, 4, 5)) + 0.1
        angles = []
        for i in range(3):
            for j in range(4):
                x, y = est[i, j, :], truth[i, j, :]
                cosine = x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
                angles.append(math.acos(max(-1.0, min(1.0, cosine))))
        np.testing.assert_allclose(
            metrics_report(est, truth).sam_radians, np.mean(angles), rtol=1e-12
        )


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

    @pytest.mark.parametrize("nan_in", ["est", "truth"])
    def test_nan_entry_gives_nan_metrics(self, nan_in):
        report = metrics_report(*pair_with_entry(nan_in))
        for value in (report.rmse, report.cc, report.rsnr_db, report.sam_radians):
            assert math.isnan(value)
        assert report.cc_bands_skipped == 0
        assert report.sam_fibers_skipped == 0

    @pytest.mark.parametrize("value", [math.inf, -math.inf, 1e200], ids=["inf", "-inf", "1e200"])
    @pytest.mark.parametrize("entry_in", ["est", "truth"])
    def test_infinite_or_overflowing_entry_scores_without_warning(self, entry_in, value):
        # pyproject turns any RuntimeWarning into a failure.  An infinite sum
        # gives NaN, never a finite correlation or angle formed from it.
        report = metrics_report(*pair_with_entry(entry_in, value))
        assert report.rmse == math.inf
        if entry_in == "est":
            assert report.rsnr_db == -math.inf
        else:
            assert math.isnan(report.rsnr_db)
        assert math.isnan(report.cc)
        assert math.isnan(report.sam_radians)
        assert report.cc_bands_skipped == 0
        assert report.sam_fibers_skipped == 0

    @pytest.mark.parametrize("seed", range(4))
    def test_memory_order_does_not_change_the_metrics(self, seed):
        rng = np.random.default_rng(seed)
        truth = np.asfortranarray(rng.uniform(size=(24, 24, 16)))
        est = np.asfortranarray(truth + 0.1 * rng.standard_normal(truth.shape))
        c_est, c_truth = np.ascontiguousarray(est), np.ascontiguousarray(truth)
        report = metrics_report(est, truth)
        assert metrics_report(c_est, c_truth) == report
        assert metrics_report(c_est, truth) == metrics_report(est, c_truth) == report


    @pytest.mark.parametrize("est_order", ["C", "F"])
    @pytest.mark.parametrize("truth_order", ["C", "F"])
    def test_matches_einsum_oracle(self, est_order, truth_order):
        rng = np.random.default_rng(7)
        truth = rng.uniform(size=(7, 5, 6)) + 0.1
        truth[:, :, 2] = 3.0  # a constant band
        est = truth + 0.2 * rng.standard_normal(truth.shape)
        est[1, 3, :] = 0.0  # a zero fiber
        est, truth = np.asarray(est, order=est_order), np.asarray(truth, order=truth_order)
        report, expected = metrics_report(est, truth), report_by_einsum(est, truth)
        for name in ("rmse", "cc", "rsnr_db", "sam_radians"):
            np.testing.assert_allclose(
                getattr(report, name), getattr(expected, name), rtol=1e-12, err_msg=name
            )
        skips = [(r.cc_bands_skipped, r.sam_fibers_skipped) for r in (report, expected)]
        assert skips == [(1, 1), (1, 1)]

    @pytest.mark.parametrize("k", range(-3, 4))
    def test_power_of_two_scaling(self, k):
        # Scaling both tensors by 2**k scales every product and sum exactly.
        truth = RNG.uniform(size=(6, 5, 4)) + 0.1
        truth[:, :, 1] = 2.0
        truth[0, 0, :] = 0.0
        est = truth + 0.1 * RNG.standard_normal(truth.shape)
        base, scaled = metrics_report(est, truth), metrics_report(2.0**k * est, 2.0**k * truth)
        assert scaled.rmse == 2.0**k * base.rmse
        for name in (
            "cc", "sam_radians", "rsnr_db", "cc_bands_skipped", "sam_fibers_skipped"
        ):
            assert getattr(scaled, name) == getattr(base, name), name


@pytest.mark.parametrize("order", ["C", "F"])
def test_metrics_report_forms_no_tensor_sized_array(order):
    # A band at a time: per-fiber accumulators, scratch planes and, for a
    # C-ordered tensor, a band buffer, each one (I, J) plane.
    truth = np.asarray(RNG.uniform(size=(64, 48, 32)), order=order)
    est = truth + 0.1 * RNG.standard_normal(truth.shape)
    est = np.asarray(est, order=order)
    tracemalloc.start()
    try:
        metrics_report(est, truth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * truth.nbytes


@pytest.mark.parametrize(
    "call",
    [
        lambda t: metrics_report(t[:, :, 0], t),
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
