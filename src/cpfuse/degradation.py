"""Spatial and spectral degradation operators, and the HSI/MSI coupling.

The high-resolution scene is degraded along two paths: a hyperspectral image
obtained by blurring and downsampling both spatial modes, and a multispectral
image obtained by aggregating spectral bands.  Both paths are plain matrix
mode products, so they commute with CP structure: degrading a CP model equals
projecting its factor matrices.  ``DEGRADED_IN`` states which image degrades
which scene mode.  ``DegradationOperators`` derives the coupling from it, forward
(``project_mode``, ``project``) and back (``back_project``, the adjoint), and
``operator_shapes``/``scene_shape`` the sizes an observed pair implies.
``DegradationConfig`` describes only the operators; the noise level is an
argument of ``add_noise``.  The config and the operators check themselves
when built; the operators cannot be rebound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensors import _as_tensor, _check_int, _sum_squares, frobenius_norm

# The image (0: HSI, 1: MSI) that degrades each scene mode, by blur-downsampling
# or band aggregation; the other image keeps that mode at the scene's size.
DEGRADED_IN = (0, 0, 1)

__all__ = [
    "DEGRADED_IN",
    "DegradationConfig",
    "DegradationOperators",
    "blur_downsample_matrix",
    "band_aggregation_matrix",
    "build_operators",
    "operator_shapes",
    "scene_shape",
    "degrade",
    "add_noise",
]


def _check_snr_db(name: str, value: float) -> None:
    """Reject an SNR in dB that is neither finite nor +inf (no noise)."""
    if not (math.isfinite(value) or value == math.inf):
        raise ValueError(f"{name} must be finite or +inf, got {value}")


def _check_images(images) -> tuple[float, float]:
    """The squared norms of the observed ``images`` (HSI, MSI).  An image with
    no entries or a non-finite squared norm (a NaN, an infinity or an entry too
    large to square) raises ``ValueError`` naming it; an overflow is reported
    here, not warned about."""
    with np.errstate(over="ignore"):
        norms_sq = tuple(_sum_squares(t) for t in images)
    for name, image, norm_sq in zip(("HSI", "MSI"), images, norms_sq):
        if image.size == 0:
            raise ValueError(f"the {name} of shape {image.shape} has no entries")
        if not math.isfinite(norm_sq):
            raise ValueError(f"the {name} has a non-finite squared norm ({norm_sq}): "
                             "it holds a NaN, an infinity or an entry too large to square")
    return norms_sq  # type: ignore[return-value]


@dataclass(frozen=True)
class DegradationConfig:
    """Parameters of the degradation operators: the blur, the downsampling
    factor and the MSI's band count."""

    kernel_size: int = 9
    sigma: float = 2.0
    factor: int = 4
    num_msi_bands: int = 6

    def __post_init__(self) -> None:
        _check_int("kernel_size", self.kernel_size, odd=True)
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        _check_int("factor", self.factor)
        _check_int("num_msi_bands", self.num_msi_bands)


@dataclass(frozen=True, eq=False)
class DegradationOperators:
    """The three degradation matrices applied as mode products.

    spatial_1 : (I_H, I) blur-downsample matrix for the first spatial mode
    spatial_2 : (J_H, J) blur-downsample matrix for the second spatial mode
    spectral  : (K_M, K) band aggregation matrix for the spectral mode

    Each must be a matrix of finite entries.  ``matrices`` is resolved at
    construction; the fields cannot be rebound, so it always holds the
    fields' arrays.  The energy weights ``_energy_weights``, each mode's
    ``||Q_n||_F^2 / d_n`` (the mean eigenvalue of ``Q_n^T Q_n``, which the
    solver's preconditioner reads), are formed once, at construction, shaped
    ``(3, 1, 1)`` to scale a stack of one R x R block per mode.
    """

    spatial_1: np.ndarray
    spatial_2: np.ndarray
    spectral: np.ndarray

    def __post_init__(self) -> None:
        # One memory order whatever the source (``read_matrix`` returns
        # Fortran order), so equal operators give bit-identical products.
        for name in ("spatial_1", "spatial_2", "spectral"):
            m = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if m.ndim != 2:
                raise ValueError(f"{name} must be a matrix")
            if not np.isfinite(m).all():
                raise ValueError(f"{name} holds a NaN or an infinity")
            object.__setattr__(self, name, m)
        object.__setattr__(self, "matrices", (self.spatial_1, self.spatial_2, self.spectral))
        # An operator whose squared entries overflow gets an infinite weight,
        # not a warning; ``degrade`` rejects the images it makes.
        with np.errstate(over="ignore"):
            weights = [_sum_squares(q) / q.shape[1] for q in self.matrices]
        object.__setattr__(self, "_energy_weights", np.array(weights)[:, None, None])

    def project_mode(self, n: int, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The HSI's and the MSI's mode-``n`` CP factor for the scene's mode-``n``
        factor ``f``: ``Q_n f`` in the image that degrades the mode, ``f`` in the
        other, so the HSI's factors are ``[P1 A, P2 B, C]``, the MSI's ``[A, B, Pm C]``."""
        degraded = self.matrices[n].dot(f)
        return (degraded, f) if DEGRADED_IN[n] == 0 else (f, degraded)

    def project(self, factors) -> tuple[list[np.ndarray], ...]:
        """Each image's CP factors for the scene's ``factors``: one list per
        image, HSI first, each mode from ``project_mode``."""
        pairs = [self.project_mode(n, f) for n, f in enumerate(factors)]
        return tuple([pair[s] for pair in pairs] for s in range(2))

    def back_project(self, n: int, terms) -> np.ndarray:
        """Adjoint of ``project`` on scene mode ``n``: the sum of the images'
        mode-``n`` ``terms``, each mapped back through its operator, if any."""
        s = DEGRADED_IN[n]
        return self.matrices[n].T.dot(terms[s]) + terms[1 - s]


def operator_shapes(images) -> tuple[tuple[int, int], ...]:
    """Each mode's operator shape for the observed ``images`` (HSI, MSI): its
    size in the image that degrades it by its size in the image that keeps it."""
    return tuple((images[s].shape[n], images[1 - s].shape[n]) for n, s in enumerate(DEGRADED_IN))


def scene_shape(images) -> tuple[int, int, int]:
    """The scene shape the observed ``images`` (HSI, MSI) imply: each mode at
    its size in the image that leaves it undegraded."""
    return tuple(cols for _, cols in operator_shapes(images))  # type: ignore[return-value]


def blur_downsample_matrix(full_dim: int, cfg: DegradationConfig) -> np.ndarray:
    """Composite blur-then-downsample matrix for one spatial dimension.

    The blur is a symmetric Toeplitz matrix built from a truncated Gaussian
    kernel (``kernel_size`` taps, weights proportional to exp(-i^2/(2 sigma^2))
    and normalized to sum 1) with zero padding at the boundary.  Downsampling
    keeps every ``factor``-th row starting near the half-phase offset, chosen
    so the result always has ceil(full_dim / factor) rows.
    """
    _check_int("full_dim", full_dim)
    if cfg.kernel_size > full_dim:
        raise ValueError(
            f"kernel_size {cfg.kernel_size} exceeds dimension {full_dim}"
        )
    half = (cfg.kernel_size - 1) // 2
    offsets = np.arange(-half, half + 1)
    taps = np.exp(-(offsets.astype(np.float64) ** 2) / (2.0 * cfg.sigma**2))
    taps /= taps.sum()

    blur = np.zeros((full_dim, full_dim))
    for t, w in zip(offsets, taps):
        idx = np.arange(max(0, -t), min(full_dim, full_dim - t))
        blur[idx, idx + t] = w

    d = cfg.factor
    # Half-phase start, clamped so the row count always equals ceil(full_dim/d).
    start = min(d // 2, (full_dim - 1) % d)
    rows = np.arange(start, full_dim, d)
    return blur[rows, :]


def band_aggregation_matrix(k_full: int, k_m: int) -> np.ndarray:
    """Uniform aggregation of ``k_full`` bands into ``k_m`` contiguous groups.

    Group sizes differ by at most one (longer groups first); each row averages
    its group, so rows sum to one and have disjoint support.
    """
    for count in (k_full, k_m):
        _check_int("band counts", count)
    if k_m > k_full:
        raise ValueError(f"cannot aggregate {k_full} bands into {k_m} groups")
    base, extra = divmod(k_full, k_m)
    sizes = [base + 1] * extra + [base] * (k_m - extra)
    out = np.zeros((k_m, k_full))
    lo = 0
    for q, size in enumerate(sizes):
        out[q, lo : lo + size] = 1.0 / size
        lo += size
    return out


def build_operators(
    dims: tuple[int, int, int],
    cfg: DegradationConfig,
    spectral: np.ndarray | None = None,
) -> DegradationOperators:
    """Build the operator triple for a scene of shape ``dims``.

    A user-supplied spectral matrix replaces the uniform aggregation; it must
    have ``dims[2]`` columns, finite and nonnegative entries and unit row sums,
    checked in that order.
    """
    i_dim, j_dim, k_dim = dims
    if spectral is not None:
        spectral = np.asarray(spectral, dtype=np.float64)
        if spectral.ndim != 2 or spectral.shape[1] != k_dim:
            raise ValueError(
                f"spectral operator must have {k_dim} columns, got shape {spectral.shape}"
            )
    ops = DegradationOperators(
        blur_downsample_matrix(i_dim, cfg), blur_downsample_matrix(j_dim, cfg),
        band_aggregation_matrix(k_dim, cfg.num_msi_bands) if spectral is None else spectral,
    )
    if spectral is not None:
        if np.any(ops.spectral < 0):
            raise ValueError("spectral operator must be entrywise nonnegative")
        if not np.allclose(ops.spectral.sum(axis=1), 1.0, atol=1e-8):
            raise ValueError("spectral operator rows must sum to 1")
    return ops


def degrade(sri: np.ndarray, ops: DegradationOperators) -> tuple[np.ndarray, np.ndarray]:
    """Apply both degradation paths to a scene.

    Returns ``(hsi, msi)``: the scene multiplied, mode by mode, by the operator
    of each mode in the image that ``DEGRADED_IN`` names (modes 1 and 2 in the
    HSI, mode 3 in the MSI), both in Fortran order.  The scene is read in
    Fortran order, copied if it is held otherwise, so equal scenes give
    bit-identical images in any layout.  Each product reads it through a
    matricizing view: the mode-1 product is one GEMM on the ``(I, J * K)``
    view and the spectral product one GEMM on the ``(K, I * J)`` view.  The
    mode-2 product is one GEMM on the ``(J, K * I_H)`` view of the mode-1
    product: the shape of the GEMM on the mode-2 unfolding, with its columns
    reordered, so where ``I_H * K`` is a multiple of the BLAS kernel's block,
    each entry matches the product on that unfolding bit for bit.

    Both images are checked as ``FusionProblem`` checks them (``_check_images``):
    a scene holding a NaN or an infinity, or entries whose products overflow,
    raises ``ValueError`` naming the image, with no floating-point warning.
    """
    sri = np.asfortranarray(_as_tensor(sri))
    for n, q in enumerate(ops.matrices):
        if q.shape[1] != sri.shape[n]:
            raise ValueError(
                f"the mode-{n + 1} operator has {q.shape[1]} columns but scene "
                f"mode {n + 1} has size {sri.shape[n]}"
            )
    p1, p2, pm = ops.matrices
    i_dim, j_dim, k_dim = sri.shape
    # A non-finite product is reported by _check_images below, not warned about.
    with np.errstate(invalid="ignore", over="ignore"):
        blurred = p1 @ sri.reshape(i_dim, j_dim * k_dim, order="F")
        # Row i of ``blurred`` holds (j, k) with j fastest: transposed, the
        # C-ordered (I_H, K, J) view is the Fortran-ordered (J, K, I_H) tensor.
        hsi = p2 @ blurred.reshape(-1, k_dim, j_dim).T.reshape(j_dim, -1, order="F")
        hsi = hsi.reshape(-1, blurred.shape[0], k_dim).transpose(1, 0, 2)
        del blurred  # before the HSI's column-major copy, which then outlives no partial product
        msi = (pm @ sri.reshape(i_dim * j_dim, k_dim, order="F").T).T
    images = np.asfortranarray(hsi), msi.reshape(i_dim, j_dim, -1, order="F")
    _check_images(images)
    return images


def add_noise(t: np.ndarray, snr_db: float, rng_seed: int) -> np.ndarray:
    """Add white Gaussian noise rescaled to hit the requested Frobenius SNR exactly.

    A single standard normal draw is rescaled so that
    ``frobenius_norm(noise) == frobenius_norm(t) * 10**(-snr_db / 20)``.
    ``snr_db == math.inf`` disables the noise and returns a copy of ``t``.
    The signal norm is ``frobenius_norm(t)``, summed in Fortran order, so
    equal values get equal noise whatever their memory order.  The result
    keeps the memory order of ``t``.
    """
    _check_snr_db("snr_db", snr_db)
    _check_int("rng_seed", rng_seed, minimum=0)
    t = np.asarray(t, dtype=np.float64)
    if snr_db == math.inf:
        return t.copy(order="K")
    signal_norm = frobenius_norm(t)
    if signal_norm == 0.0:
        raise ValueError("cannot calibrate noise against an all-zero tensor")
    rng = np.random.default_rng(rng_seed)
    noise = rng.standard_normal(t.shape)
    scale = signal_norm / (np.linalg.norm(noise.ravel()) * 10.0 ** (snr_db / 20.0))
    # ``t + scale * noise`` entry by entry, written in the layout of ``t``.
    noise *= scale
    return np.add(t, noise, out=np.empty_like(t))
