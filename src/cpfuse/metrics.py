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

from .tensors import frobenius_norm

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
    est = np.asarray(est, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if est.ndim != 3 or truth.ndim != 3:
        raise ValueError("metrics expect third-order tensors")
    if est.shape != truth.shape:
        raise ValueError(f"shape mismatch: estimate {est.shape} vs truth {truth.shape}")
    return est, truth


def rmse(est: np.ndarray, truth: np.ndarray) -> float:
    """Root mean squared error over all entries."""
    est, truth = _check_pair(est, truth)
    return frobenius_norm(est - truth) / math.sqrt(est.size)


def _band_correlations(est: np.ndarray, truth: np.ndarray) -> tuple[list[float], int]:
    values: list[float] = []
    skipped = 0
    for k in range(truth.shape[2]):
        x = est[:, :, k].ravel()
        y = truth[:, :, k].ravel()
        xc = x - x.mean()
        yc = y - y.mean()
        denom = math.sqrt(float(xc @ xc) * float(yc @ yc))
        if denom == 0.0:
            skipped += 1
            continue
        values.append(float(xc @ yc) / denom)
    return values, skipped


def cross_correlation(est: np.ndarray, truth: np.ndarray) -> float:
    """Mean per-band Pearson correlation.

    Bands where either slice is constant have no defined correlation and are
    skipped (with a warning); if every band is skipped a ``ValueError`` is
    raised.
    """
    est, truth = _check_pair(est, truth)
    values, skipped = _band_correlations(est, truth)
    if not values:
        raise ValueError("every spectral band is constant; correlation undefined")
    if skipped:
        warnings.warn(f"skipped {skipped} constant band(s) in cross_correlation")
    return float(np.mean(values))


def rsnr(est: np.ndarray, truth: np.ndarray) -> float:
    """Reconstruction signal-to-noise ratio in dB.

    ``10 * log10(sum ||truth_k||_F^2 / sum ||est_k - truth_k||_F^2)`` over
    spectral bands; a zero-error estimate returns ``math.inf``.
    """
    est, truth = _check_pair(est, truth)
    signal = float(np.sum(truth * truth))
    if signal == 0.0:
        raise ValueError("rsnr is undefined for an all-zero truth tensor")
    diff = est - truth
    noise = float(np.sum(diff * diff))
    if noise == 0.0:
        return math.inf
    return 10.0 * math.log10(signal / noise)


def _fiber_angles(est: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, int]:
    flat_e = est.reshape(-1, est.shape[2])
    flat_t = truth.reshape(-1, truth.shape[2])
    norm_e = np.linalg.norm(flat_e, axis=1)
    norm_t = np.linalg.norm(flat_t, axis=1)
    keep = (norm_e > 0.0) & (norm_t > 0.0)
    skipped = int(np.sum(~keep))
    dots = np.sum(flat_e[keep] * flat_t[keep], axis=1)
    cosines = np.clip(dots / (norm_e[keep] * norm_t[keep]), -1.0, 1.0)
    return np.arccos(cosines), skipped


def sam(est: np.ndarray, truth: np.ndarray, degrees: bool = False) -> float:
    """Mean spectral angle between estimate and truth fibers.

    The angle is computed per spatial position between the two spectral
    fibers; positions where either fiber is all-zero are skipped.  Returns
    radians unless ``degrees`` is set.
    """
    est, truth = _check_pair(est, truth)
    angles, skipped = _fiber_angles(est, truth)
    if angles.size == 0:
        raise ValueError("every spectral fiber is zero; spectral angle undefined")
    value = float(np.mean(angles))
    return math.degrees(value) if degrees else value


def check_smooth_window(window: int) -> None:
    """Reject a smoothing window that is not odd and positive."""
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and positive, got {window}")


def spatial_smooth(t: np.ndarray, window: int) -> np.ndarray:
    """Per-band moving average over a ``window x window`` spatial box.

    Boundary cells average only the in-bounds taps (the divisor shrinks with
    the box), so a constant tensor is reproduced exactly.  ``window`` must be
    odd; a window of 1 returns a copy.
    """
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError("spatial_smooth expects a third-order tensor")
    check_smooth_window(window)
    if window == 1:
        return t.copy()
    size = (window, window, 1)
    num = uniform_filter(t, size=size, mode="constant", cval=0.0)
    den = uniform_filter(np.ones_like(t), size=size, mode="constant", cval=0.0)
    return num / den


def metrics_report(est: np.ndarray, truth: np.ndarray) -> MetricsReport:
    """Bundle all four metrics (plus skip counters) for one reconstruction."""
    est, truth = _check_pair(est, truth)
    cc_values, cc_skipped = _band_correlations(est, truth)
    if not cc_values:
        raise ValueError("every spectral band is constant; correlation undefined")
    angles, sam_skipped = _fiber_angles(est, truth)
    if angles.size == 0:
        raise ValueError("every spectral fiber is zero; spectral angle undefined")
    return MetricsReport(
        rmse=rmse(est, truth),
        cc=float(np.mean(cc_values)),
        rsnr_db=rsnr(est, truth),
        sam_radians=float(np.mean(angles)),
        cc_bands_skipped=cc_skipped,
        sam_fibers_skipped=sam_skipped,
    )
