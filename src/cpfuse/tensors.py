"""Dense third-order tensor kernels.

Tensors are float64 ``numpy.ndarray`` objects of shape ``(I, J, K)`` and
factor matrices are ``(dim, R)`` arrays.  The matricization convention is
fixed once for the whole package: linearization of the non-target modes runs
with the lower mode fastest (column-major), so a rank-R CP model obeys::

    unfold(t, 1) == factors[0] @ khatri_rao([factors[2], factors[1]]).T
    unfold(t, 2) == factors[1] @ khatri_rao([factors[2], factors[0]]).T
    unfold(t, 3) == factors[2] @ khatri_rao([factors[1], factors[0]]).T

Layout: tensors are stored column-major (first index fastest), the order of
the dt3 payload.  ``cpd_reconstruct`` returns a Fortran-ordered tensor and
``FusionProblem`` keeps both images in Fortran order.  ``mttkrp`` reads a
tensor through a C-ordered view: ``t`` itself, or for Fortran-ordered input
``t.T`` of shape ``(K, J, I)`` with the modes reversed, so it never copies a
contiguous tensor.

Contraction orders are fixed per mode and made of BLAS products, so no call
plans a contraction.  On the C-ordered view ``(I, J, K)`` with factors
``(a, b, c)``:

* ``mttkrp`` modes 1 and 3: the batched product ``b.T @ t`` of shape
  ``(I, R, K)``, then a two-operand ``einsum`` with ``c`` (mode 1) or ``a``
  (mode 3);
* ``mttkrp`` mode 2: ``t.reshape(I * J, K).dot(c)``, then a two-operand
  ``einsum`` with ``a``.  On a Fortran-ordered tensor this contracts scene
  mode 1 first, so the partial product of an MSI with few bands stays small;
* ``cpd_reconstruct``: one ``(J x R)(R x I)`` product ``(b * c[k]) @ a.T``
  per frontal slice ``k``, written in place into the transpose of a
  Fortran-ordered ``(I, J, K)`` output; its only temporary is the ``(K, J, R)``
  stack of scaled ``b``.

A sweep that updates mode 1 before modes 2 and 3 can share one partial
product between the two later modes (a dimension tree): ``_mode1_partial``
forms ``z[k] = a.T @ t[:, :, k]``, one ``(R x I)(I x J)`` product per
frontal slice that reads a Fortran-ordered tensor in place, and
``_partial_mttkrp`` contracts ``z`` with ``c`` (mode 2) or ``b`` (mode 3) as R
batched matrix-vector products.

Every routine validates shapes and raises ``ValueError`` on mismatch;
``_check_dims``, ``_check_rank``, ``_check_triple`` and ``_as_tensor`` hold
the package's dims, rank, three-matrix and third-order tensor checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CpdModel",
    "unfold",
    "fold",
    "mode_n_product",
    "khatri_rao",
    "mttkrp",
    "cpd_reconstruct",
    "frobenius_norm",
]


def _check_mode(mode: int) -> None:
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode!r}")


def _check_dims(dims) -> None:
    if len(dims) != 3 or any(int(d) <= 0 for d in dims):
        raise ValueError(f"dims must be three positive integers, got {dims!r}")


def _check_rank(rank: int) -> None:
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")


def _check_triple(mats, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``mats`` as three float64 matrices with one shared column count; ``kind``
    names them in the error."""
    mats = tuple(np.asarray(m, dtype=np.float64) for m in mats)
    if len(mats) != 3 or any(m.ndim != 2 for m in mats):
        raise ValueError(f"expected 3 two-dimensional {kind} matrices")
    ranks = {m.shape[1] for m in mats}
    if len(ranks) != 1:
        raise ValueError(f"{kind} matrices disagree on column count: {sorted(ranks)}")
    return mats  # type: ignore[return-value]


def _as_tensor(t) -> np.ndarray:
    t = np.asarray(t, dtype=np.float64)
    if t.ndim != 3:
        raise ValueError(f"expected a third-order tensor, got ndim={t.ndim}")
    return t


@dataclass(eq=False)
class CpdModel:
    """A rank-R CP model held as three factor matrices with a shared column count."""

    factors: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self) -> None:
        self.factors = _check_triple(self.factors, "factor")

    @property
    def rank(self) -> int:
        return self.factors[0].shape[1]

    @property
    def dims(self) -> tuple[int, int, int]:
        return tuple(f.shape[0] for f in self.factors)  # type: ignore[return-value]


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


def _check_factor(f: np.ndarray, dim: int, rank: int, mode: int) -> None:
    if f.shape != (dim, rank):
        raise ValueError(
            f"factor for mode {mode} has shape {f.shape}, expected {(dim, rank)}"
        )


def _mttkrp_c(t: np.ndarray, a, b, c, mode: int) -> np.ndarray:
    """MTTKRP of a tensor read in C order: one GEMM, then one two-operand contraction."""
    i_dim, j_dim, k_dim = t.shape
    if mode == 2:
        # The contiguous last axis goes first: an (I*J x K)(K x R) product.
        partial = t.reshape(i_dim * j_dim, k_dim).dot(c).reshape(i_dim, j_dim, c.shape[1])
        return np.einsum("ijr,ir->jr", partial, a)
    partial = b.T @ t  # (I, R, K): one (R x J)(J x K) product per slice i
    if mode == 1:
        return np.einsum("irk,kr->ir", partial, c)
    return np.einsum("irk,ir->kr", partial, a)


def mttkrp(t: np.ndarray, factors, mode: int) -> np.ndarray:
    """Matricized-tensor times Khatri-Rao product.

    Computes ``unfold(t, mode) @ W`` where ``W`` is the Khatri-Rao product of
    the two non-target factors in the unfolding convention (higher mode
    first).  Only the non-target factors are read; the target slot must still
    be present so ``factors`` always has length 3.  A Fortran-ordered ``t`` is
    read through its C-ordered transpose, so no call copies the tensor.
    """
    _check_mode(mode)
    t = _as_tensor(t)
    factors = [np.asarray(f, dtype=np.float64) for f in factors]
    if len(factors) != 3:
        raise ValueError(f"expected 3 factor matrices, got {len(factors)}")
    rank = factors[mode % 3].shape[1]
    for n in range(3):
        if n != mode - 1:
            _check_factor(factors[n], t.shape[n], rank, n + 1)
    if t.flags.f_contiguous:
        # t.T[k, j, i] == t[i, j, k]: the same contraction with the modes reversed.
        return _mttkrp_c(t.T, factors[2], factors[1], factors[0], 4 - mode)
    return _mttkrp_c(t, *factors, mode)


def _mode1_partial(t: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The ``(K, R, J)`` partial ``z[k, r, j] = sum_i a[i, r] t[i, j, k]``.

    One product per frontal slice; the slices of a Fortran-ordered tensor are
    Fortran-ordered matrices, so it is read in place.
    """
    return np.matmul(a.T, t.transpose(2, 0, 1))


def _partial_mttkrp(z: np.ndarray, factors, mode: int) -> np.ndarray:
    """``mttkrp(t, factors, mode)`` for mode 2 or 3 from ``z = _mode1_partial(t, factors[0])``."""
    per_column = z.transpose(1, 0, 2)  # (R, K, J)
    if mode == 2:
        # m[j, r] = sum_k z[k, r, j] c[k, r]
        return np.matmul(factors[2].T[:, None, :], per_column)[:, 0, :].T
    # m[k, r] = sum_j z[k, r, j] b[j, r]
    return np.matmul(per_column, factors[1].T[:, :, None])[:, :, 0].T


def cpd_reconstruct(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Evaluate the dense tensor of the CP model ``[[a, b, c]]``, in Fortran order."""
    a, b, c = _check_triple((a, b, c), "factor")
    out = np.empty((a.shape[0], b.shape[0], c.shape[0]), order="F")
    # out.T[k] == (b * c[k]) @ a.T: the (K, J, I) C-ordered view, one slice per
    # product.  A broadcast multiply would also allocate ufunc buffers.
    np.matmul(np.einsum("jr,kr->kjr", b, c), a.T, out=out.T)
    return out


def _sum_squares(t: np.ndarray) -> float:
    """Sum of the squared entries as one dot product, read in memory order so
    that a C- or Fortran-contiguous array is not copied."""
    flat = np.asarray(t, dtype=np.float64).ravel(order="K")
    return float(flat @ flat)


def frobenius_norm(t: np.ndarray) -> float:
    """Frobenius norm of an array of any shape."""
    return math.sqrt(_sum_squares(t))
