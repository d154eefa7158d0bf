"""Reconstruction quality metrics for third-order image tensors.

All metrics compare an estimate against a ground truth of identical shape
``(I, J, K)`` with the spectral axis last.

Every metric comes from one pass over the spectral bands in ``metrics_report``.
Band ``k`` of a Fortran-ordered tensor is a contiguous ``(I, J)`` slice and
is read in place; a tensor in any other layout is copied into one reused
Fortran-ordered band buffer, one band at a time, so each band is summed in
the same order whatever the caller's layout.  Per band the pass forms the
squared error from the band's difference (not from ``x*x - 2*x*y + y*y``,
which would cost R-SNR digits), the centred correlation sums, and adds the
products ``x*x``, ``y*y`` and ``x*y`` into three ``(I, J)`` per-fiber
accumulators for the spectral angle.  Besides those and the band buffers it
holds two ``(I, J)`` scratch planes and no tensor-sized array.  An infinite
entry, or one whose square overflows, makes a sum infinite: ``rmse`` is then
infinite too, while a band or fiber with an infinite sum scores NaN, as one
with a NaN entry does.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .tensors import _as_tensor, _check_int

__all__ = ["MetricsReport", "metrics_report", "spatial_smooth"]


@dataclass(frozen=True)
class MetricsReport:
    """The four scores of one estimate against its truth.

    ``rmse`` is in the tensors' units, ``cc`` has none, ``rsnr_db`` is in dB
    and ``sam_radians`` in radians.  ``cc_bands_skipped`` counts the spectral
    bands left out of ``cc`` because the estimate's or the truth's band is
    constant; ``sam_fibers_skipped`` counts the pixels left out of
    ``sam_radians`` because the estimate's or the truth's spectral fiber is
    all zero.
    """

    rmse: float
    cc: float
    rsnr_db: float
    sam_radians: float
    cc_bands_skipped: int = 0
    sam_fibers_skipped: int = 0


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
    """Score an estimate against its truth.

    ``rmse`` is the root mean squared error over all entries; ``cc`` the mean
    per-band Pearson correlation, skipping bands where either slice is
    constant; ``rsnr_db`` is ``10 * log10(sum ||truth_k||_F^2 /
    sum ||est_k - truth_k||_F^2)`` over spectral bands, ``math.inf`` for a
    zero-error estimate; ``sam_radians`` the mean angle between the two
    spectral fibers at each pixel, skipping pixels where either fiber is all
    zero.  If every band or every fiber is skipped (an all-zero truth among
    them) a ``ValueError`` is raised.

    A NaN entry makes all four NaN.  An infinite entry, or one whose square
    overflows, makes ``rmse`` infinite and ``cc`` and ``sam_radians`` NaN;
    ``rsnr_db`` is ``-inf`` when only the error's energy is infinite and NaN
    when the truth's is.
    """
    est, truth = _as_tensor(est), _as_tensor(truth)
    if est.shape != truth.shape:
        raise ValueError(f"shape mismatch: estimate {est.shape} vs truth {truth.shape}")
    plane = est.shape[:2]
    ee, tt, et = (np.zeros(plane, order="F") for _ in range(3))
    # Two scratch planes serve every step; fewer planes stay in cache.
    u, v = (np.empty(plane, order="F") for _ in range(2))
    band_sums = np.empty((est.shape[2], 3))  # centred sxx, syy, sxy of each band
    squared_error = 0.0
    # An infinite or overflowing entry leaves infinities and NaNs in the sums,
    # which the rules below score; numpy need not warn of them.
    with np.errstate(over="ignore", invalid="ignore"):
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
        signal = float(tt.sum())
    # An infinite band or fiber sum counts as NaN, as a NaN entry's sum does,
    # so no finite correlation or angle is formed from an overflowed sum.
    for sums in (band_sums, ee, tt, et):
        sums[np.isinf(sums)] = math.nan

    correlations = []
    for sxx, syy, sxy in band_sums.tolist():
        # Two roots, not the root of the product, which can overflow or underflow.
        if sxx != 0.0 and syy != 0.0:
            correlations.append(sxy / (math.sqrt(sxx) * math.sqrt(syy)))
    if not correlations:
        raise ValueError("every spectral band is constant; correlation undefined")

    norm_e, norm_t = np.sqrt(ee), np.sqrt(tt)
    keep = (norm_e != 0.0) & (norm_t != 0.0)
    if not keep.any():
        raise ValueError("every spectral fiber is zero; spectral angle undefined")
    cosines = np.clip(et[keep] / (norm_e[keep] * norm_t[keep]), -1.0, 1.0)

    if math.isinf(signal):
        rsnr_db = math.nan
    elif squared_error == 0.0:
        rsnr_db = math.inf
    elif math.isinf(squared_error):
        rsnr_db = -math.inf
    elif sys.float_info.min <= signal / squared_error < math.inf:
        rsnr_db = 10.0 * math.log10(signal / squared_error)
    else:  # the quotient of two finite energies underflowed or overflowed
        rsnr_db = 10.0 * (math.log10(signal) - math.log10(squared_error))
    return MetricsReport(
        rmse=math.sqrt(squared_error) / math.sqrt(est.size),
        cc=float(np.mean(correlations)),
        rsnr_db=rsnr_db,
        sam_radians=float(np.mean(np.arccos(cosines))),
        cc_bands_skipped=len(band_sums) - len(correlations),
        sam_fibers_skipped=int(np.count_nonzero(~keep)),
    )
