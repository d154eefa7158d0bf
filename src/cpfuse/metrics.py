"""Reconstruction quality metrics for third-order image tensors.

All metrics compare an estimate against a ground truth of identical shape
``(I, J, K)`` with the spectral axis last.

Every metric comes from one pass over the spectral bands, ``_band_sums``.
Band ``k`` of a Fortran-ordered tensor is a contiguous ``(I, J)`` slice and
is read in place; a tensor in any other layout is copied into one reused
Fortran-ordered band buffer, one band at a time, so each band is summed in
the same order whatever the caller's layout.  Per band the pass forms the
squared error from the band's difference (not from ``x*x - 2*x*y + y*y``,
which would cost R-SNR digits), the centred correlation sums, and adds the
products ``x*x``, ``y*y`` and ``x*y`` into three ``(I, J)`` per-fiber
accumulators for the spectral angle.  Besides those and the band buffers it
holds two ``(I, J)`` scratch planes and no tensor-sized array.  Each public
metric runs the same pass, so it equals its ``metrics_report`` field exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .tensors import _as_tensor, _check_int

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


@dataclass(frozen=True)
class _BandSums:
    """What one pass over the bands of an estimate and its truth leaves."""

    size: int
    squared_error: float
    signal: float
    band_sums: np.ndarray  # (K, 3): centred sxx, syy, sxy of each band
    fiber_sums: tuple[np.ndarray, np.ndarray, np.ndarray]  # (I, J): ee, tt, et


def _bands(t: np.ndarray):
    """Each spectral band as a Fortran-ordered ``(I, J)`` plane."""
    if t.flags.f_contiguous:
        for k in range(t.shape[2]):
            yield t[:, :, k]
        return
    band = np.empty(t.shape[:2], order="F")
    for k in range(t.shape[2]):
        np.copyto(band, t[:, :, k])
        yield band


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    return float(u.ravel(order="K") @ v.ravel(order="K"))


def _band_sums(est: np.ndarray, truth: np.ndarray) -> _BandSums:
    est, truth = _as_tensor(est), _as_tensor(truth)
    if est.shape != truth.shape:
        raise ValueError(f"shape mismatch: estimate {est.shape} vs truth {truth.shape}")
    plane = est.shape[:2]
    fibers = tuple(np.zeros(plane, order="F") for _ in range(3))
    ee, tt, et = fibers
    # Two scratch planes serve every step; fewer planes stay in cache.
    u, v = (np.empty(plane, order="F") for _ in range(2))
    band_sums = np.empty((est.shape[2], 3))
    squared_error = 0.0
    for k, (x, y) in enumerate(zip(_bands(est), _bands(truth))):
        np.subtract(x, y, out=u)
        squared_error += _dot(u, u)
        # sum / size is np.mean's value without its overhead.
        np.subtract(x, x.sum() / x.size, out=u)
        np.subtract(y, y.sum() / y.size, out=v)
        band_sums[k] = _dot(u, u), _dot(v, v), _dot(u, v)
        ee += np.multiply(x, x, out=u)
        tt += np.multiply(y, y, out=v)
        et += np.multiply(x, y, out=u)
    return _BandSums(est.size, squared_error, float(tt.sum()), band_sums, fibers)


def _rmse(s: _BandSums) -> float:
    return math.sqrt(s.squared_error) / math.sqrt(s.size)


def rmse(est: np.ndarray, truth: np.ndarray) -> float:
    """Root mean squared error over all entries."""
    return _rmse(_band_sums(est, truth))


def _cc(s: _BandSums) -> tuple[float, int]:
    values: list[float] = []
    for sxx, syy, sxy in s.band_sums.tolist():
        denom = math.sqrt(sxx * syy)
        if denom != 0.0:
            values.append(sxy / denom)
    if not values:
        raise ValueError("every spectral band is constant; correlation undefined")
    return float(np.mean(values)), len(s.band_sums) - len(values)


def cross_correlation(est: np.ndarray, truth: np.ndarray) -> float:
    """Mean per-band Pearson correlation.

    Bands where either slice is constant have no defined correlation and are
    skipped (with a warning); if every band is skipped a ``ValueError`` is
    raised.
    """
    cc, skipped = _cc(_band_sums(est, truth))
    if skipped:
        warnings.warn(f"skipped {skipped} constant band(s) in cross_correlation")
    return cc


def rsnr(est: np.ndarray, truth: np.ndarray) -> float:
    """Reconstruction signal-to-noise ratio in dB.

    ``10 * log10(sum ||truth_k||_F^2 / sum ||est_k - truth_k||_F^2)`` over
    spectral bands; a zero-error estimate returns ``math.inf``.
    """
    return _rsnr_db(_band_sums(est, truth))


def _rsnr_db(s: _BandSums) -> float:
    if s.signal == 0.0:
        raise ValueError("rsnr is undefined for an all-zero truth tensor")
    if s.squared_error == 0.0:
        return math.inf
    return 10.0 * math.log10(s.signal / s.squared_error)


def _sam(s: _BandSums) -> tuple[float, int]:
    ee, tt, et = s.fiber_sums
    norm_e, norm_t = np.sqrt(ee), np.sqrt(tt)
    keep = (norm_e > 0.0) & (norm_t > 0.0)
    if not keep.any():
        raise ValueError("every spectral fiber is zero; spectral angle undefined")
    cosines = np.clip(et[keep] / (norm_e[keep] * norm_t[keep]), -1.0, 1.0)
    return float(np.mean(np.arccos(cosines))), int(np.count_nonzero(~keep))


def sam(est: np.ndarray, truth: np.ndarray) -> float:
    """Mean spectral angle between estimate and truth fibers, in radians.

    The angle is computed per spatial position between the two spectral
    fibers; positions where either fiber is all-zero are skipped.
    """
    return _sam(_band_sums(est, truth))[0]


def spatial_smooth(t: np.ndarray, window: int) -> np.ndarray:
    """Per-band moving average over a ``window x window`` spatial box.

    Boundary cells average only the in-bounds taps (the divisor shrinks with
    the box), so a constant tensor is reproduced exactly.  ``window`` must be
    odd; a window of 1 returns a copy.  The result is column-major, like
    ``cpd_reconstruct`` and ``read_tensor``, so it is written to a file without
    a copy.
    """
    # Imported here: loading scipy.ndimage costs memory that no unsmoothed run needs.
    from scipy.ndimage import uniform_filter

    t = _as_tensor(t)
    _check_int("window", window, odd=True)
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
    s = _band_sums(est, truth)
    cc, cc_skipped = _cc(s)
    sam_radians, sam_skipped = _sam(s)
    return MetricsReport(
        rmse=_rmse(s),
        cc=cc,
        rsnr_db=_rsnr_db(s),
        sam_radians=sam_radians,
        cc_bands_skipped=cc_skipped,
        sam_fibers_skipped=sam_skipped,
    )
