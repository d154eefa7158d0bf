"""Matricization oracles for the tests: ``unfold``, ``fold``, ``mode_n_product``
and ``khatri_rao`` in the package's unfolding convention (see the
``cpfuse.tensors`` docstring).  The package's kernels never form an
unfolding; the tests check them against these plain reshapes and products.
``layouts`` holds one tensor's values in the memory layouts the tests pass.
"""

from __future__ import annotations

import numpy as np

from cpfuse.tensors import _as_tensor, _check_dims, _check_mode

__all__ = ["unfold", "fold", "mode_n_product", "khatri_rao", "layouts"]


def unfold(t: np.ndarray, mode: int) -> np.ndarray:
    """Matricize ``t`` along ``mode``.

    Parameters
    ----------
    t : ndarray, shape (I, J, K)
    mode : int
        Target mode, 1-based.

    Returns
    -------
    ndarray, shape (dims[mode-1], prod(other dims))
        Columns enumerate the non-target indices with the lower mode fastest.
    """
    _check_mode(mode)
    t = _as_tensor(t)
    return np.moveaxis(t, mode - 1, 0).reshape((t.shape[mode - 1], -1), order="F")


def fold(m: np.ndarray, mode: int, dims: tuple[int, int, int]) -> np.ndarray:
    """Inverse of :func:`unfold`: rebuild the ``dims`` tensor from a matricization."""
    _check_mode(mode)
    m = np.asarray(m, dtype=np.float64)
    _check_dims(dims)
    rest = tuple(d for ax, d in enumerate(dims) if ax != mode - 1)
    expected = (dims[mode - 1], int(np.prod(rest)))
    if m.ndim != 2 or m.shape != expected:
        raise ValueError(f"matricization has shape {m.shape}, expected {expected}")
    return np.moveaxis(m.reshape((dims[mode - 1],) + rest, order="F"), 0, mode - 1)


def mode_n_product(t: np.ndarray, m: np.ndarray, mode: int) -> np.ndarray:
    """Contract matrix ``m`` against ``mode`` of ``t``: fold(m @ unfold(t, mode))."""
    _check_mode(mode)
    t = _as_tensor(t)
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("mode product expects a matrix")
    if m.shape[1] != t.shape[mode - 1]:
        raise ValueError(
            f"matrix has {m.shape[1]} columns but tensor mode {mode} has "
            f"size {t.shape[mode - 1]}"
        )
    dims = list(t.shape)
    dims[mode - 1] = m.shape[0]
    return fold(m @ unfold(t, mode), mode, tuple(dims))


def khatri_rao(mats) -> np.ndarray:
    """Columnwise Kronecker product of the matrices in ``mats``.

    Column r of the result is the Kronecker product of the r-th columns in
    list order, so the row index of the first matrix varies slowest.
    """
    mats = [np.asarray(m, dtype=np.float64) for m in mats]
    if not mats:
        raise ValueError("khatri_rao needs at least one matrix")
    for m in mats:
        if m.ndim != 2:
            raise ValueError("khatri_rao operands must be matrices")
    cols = {m.shape[1] for m in mats}
    if len(cols) != 1:
        raise ValueError(f"khatri_rao operands disagree on column count: {sorted(cols)}")
    out = mats[0]
    for m in mats[1:]:
        out = (out[:, None, :] * m[None, :, :]).reshape(-1, out.shape[1])
    return out


def layouts(t: np.ndarray) -> dict[str, np.ndarray]:
    """The values of ``t`` C-ordered, Fortran-ordered and as a strided view."""
    i_dim, j_dim, k_dim = t.shape
    padded = np.zeros((i_dim, 2 * j_dim, k_dim + 1))
    padded[:, ::2, 1:] = t
    return {"C": np.ascontiguousarray(t), "F": np.asfortranarray(t), "sliced": padded[:, ::2, 1:]}
