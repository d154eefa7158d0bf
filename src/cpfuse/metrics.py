"""Reconstruction quality metrics for third-order image tensors.

All metrics compare an estimate against a ground truth of identical shape
``(I, J, K)`` with the spectral axis last.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter

from .tensors import _as_tensor, _sum_squares

__all__ = [
    "MetricsReport",
    "rmse",
    "cross_correlation",
    "rsnr",
    "sam",
    "spatial_smooth",
    "metrics_report",
]


@dataclass(frozen=True)
class MetricsReport:
    rmse: float
    cc: float
    rsnr_db: float
    sam_radians: float
    cc_bands_skipped: int = 0
    sam_fibers_skipped: int = 0


def _check_pair(est: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    est, truth = _as_tensor(est), _as_tensor(truth)
    if est.shape != truth.shape:
        raise ValueError(f"shape mismatch: estimate {est.shape} vs truth {truth.shape}")
    return est, truth


def _rmse(squared_error: float, size: int) -> float:
    return math.sqrt(squared_error) / math.sqrt(size)


def rmse(est: np.ndarray, truth: np.ndarray) -> float:
    """Root mean squared error over all entries."""
    est, truth = _check_pair(est, truth)
    return _rmse(_sum_squares(est - truth), est.size)


def _band_correlations(est: np.ndarray, truth: np.ndarray) -> tuple[list[float], int]:
    values: list[float] = []
    skipped = 0
    for k in range(truth.shape[2]):
        # Centred band slices, reduced in whatever layout the slices have.
        xc = est[:, :, k] - est[:, :, k].mean()
        yc = truth[:, :, k] - truth[:, :, k].mean()
        sxx, syy, sxy = (
            float(np.einsum("ij,ij->", u, v)) for u, v in ((xc, xc), (yc, yc), (xc, yc))
        )
        denom = math.sqrt(sxx * syy)
        if denom == 0.0:
            skipped += 1
            continue
        values.append(sxy / denom)
    if not values:
        raise ValueError("every spectral band is constant; correlation undefined")
    return values, skipped


def cross_correlation(est: np.ndarray, truth: np.ndarray) -> float:
    """Mean per-band Pearson correlation.

    Bands where either slice is constant have no defined correlation and are
    skipped (with a warning); if every band is skipped a ``ValueError`` is
    raised.
    """
    est, truth = _check_pair(est, truth)
    values, skipped = _band_correlations(est, truth)
    if skipped:
        warnings.warn(f"skipped {skipped} constant band(s) in cross_correlation")
    return float(np.mean(values))


def rsnr(est: np.ndarray, truth: np.ndarray) -> float:
    """Reconstruction signal-to-noise ratio in dB.

    ``10 * log10(sum ||truth_k||_F^2 / sum ||est_k - truth_k||_F^2)`` over
    spectral bands; a zero-error estimate returns ``math.inf``.
    """
    est, truth = _check_pair(est, truth)
    return _rsnr_db(_sum_squares(est - truth), truth)


def _rsnr_db(squared_error: float, truth: np.ndarray) -> float:
    signal = _sum_squares(truth)
    if signal == 0.0:
        raise ValueError("rsnr is undefined for an all-zero truth tensor")
    if squared_error == 0.0:
        return math.inf
    return 10.0 * math.log10(signal / squared_error)


def _fiber_angles(est: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, int]:
    # Per-fiber reductions over the spectral axis: (I, J) outputs, no reshape
    # or masked copy of either tensor.
    norm_e = np.sqrt(np.einsum("ijk,ijk->ij", est, est))
    norm_t = np.sqrt(np.einsum("ijk,ijk->ij", truth, truth))
    dots = np.einsum("ijk,ijk->ij", est, truth)
    keep = (norm_e > 0.0) & (norm_t > 0.0)
    if not keep.any():
        raise ValueError("every spectral fiber is zero; spectral angle undefined")
    skipped = int(np.count_nonzero(~keep))
    cosines = np.clip(dots[keep] / (norm_e[keep] * norm_t[keep]), -1.0, 1.0)
    return np.arccos(cosines), skipped


def sam(est: np.ndarray, truth: np.ndarray) -> float:
    """Mean spectral angle between estimate and truth fibers, in radians.

    The angle is computed per spatial position between the two spectral
    fibers; positions where either fiber is all-zero are skipped.
    """
    est, truth = _check_pair(est, truth)
    return float(np.mean(_fiber_angles(est, truth)[0]))


def check_smooth_window(window: int) -> None:
    """Reject a smoothing window that is not odd and positive."""
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and positive, got {window}")


def spatial_smooth(t: np.ndarray, window: int) -> np.ndarray:
    """Per-band moving average over a ``window x window`` spatial box.

    Boundary cells average only the in-bounds taps (the divisor shrinks with
    the box), so a constant tensor is reproduced exactly.  ``window`` must be
    odd; a window of 1 returns a copy.  The result is column-major, like
    ``cpd_reconstruct`` and ``read_tensor``, so it is written to a file without
    a copy.
    """
    t = _as_tensor(t)
    check_smooth_window(window)
    if window == 1:
        return t.copy(order="F")
    out = np.empty(t.shape, order="F")
    uniform_filter(t, size=(window, window, 1), output=out, mode="constant", cval=0.0)
    # The divisor is the same for every band: one (I, J) plane.
    den = uniform_filter(np.ones(t.shape[:2]), size=(window, window), mode="constant", cval=0.0)
    out /= den[:, :, None]
    return out


def metrics_report(est: np.ndarray, truth: np.ndarray) -> MetricsReport:
    """Bundle all four metrics (plus skip counters) for one reconstruction."""
    est, truth = _check_pair(est, truth)
    cc_values, cc_skipped = _band_correlations(est, truth)
    angles, sam_skipped = _fiber_angles(est, truth)
    squared_error = _sum_squares(est - truth)
    return MetricsReport(
        rmse=_rmse(squared_error, est.size),
        cc=float(np.mean(cc_values)),
        rsnr_db=_rsnr_db(squared_error, truth),
        sam_radians=float(np.mean(angles)),
        cc_bands_skipped=cc_skipped,
        sam_fibers_skipped=sam_skipped,
    )
