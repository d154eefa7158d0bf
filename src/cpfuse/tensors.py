"""Dense third-order tensor kernels.

Tensors are float64 ``numpy.ndarray`` objects of shape ``(I, J, K)`` and
factor matrices are ``(dim, R)`` arrays.  The matricization convention is
fixed once for the whole package: linearization of the non-target modes runs
with the lower mode fastest (column-major).  With 0-based indices the mode-1,
mode-2 and mode-3 unfoldings of ``t`` hold ``t[i, j, k]`` at::

    X1[i, j + J*k],    X2[j, i + I*k],    X3[k, i + I*j]

so a rank-R CP model ``t[i, j, k] = sum_r a[i, r] b[j, r] c[k, r]`` has
``X1 = a @ W.T`` with ``W[j + J*k, r] = b[j, r] c[k, r]``, the Khatri-Rao
product of ``c`` and ``b``, and likewise for the other modes.  The test
suite's ``tests/oracles.py`` holds ``unfold``, ``fold``,
``mode_n_product`` and ``khatri_rao`` in this convention, as the oracles the
kernels here are checked against.

Layout: tensors are stored column-major (first index fastest), the order of
the dt3 payload, of ``cpd_reconstruct``'s result and of ``FusionProblem``'s
images.  ``mttkrp`` and ``frobenius_norm`` read a tensor in that order, copying
one held otherwise, so equal values give bit-identical results in any layout.

Contractions are made of BLAS products in a fixed order, so no call plans a
contraction, and every MTTKRP takes one route.  On a tensor ``(I, J, K)`` with
factors ``(a, b, c)``, ``_mode1_partial`` forms ``z[k] = a.T @ t[:, :, k]``,
one ``(R x I)(I x J)`` product per frontal slice, which reads the slices of a
Fortran-ordered tensor in place; ``_partial_mttkrp`` then contracts ``z`` with
``c`` (mode 2) or ``b`` (mode 3) as R batched matrix-vector products.  Mode 1
is mode 2 of the ``(J, I, K)`` view ``t.transpose(1, 0, 2)`` with factors
``(b, a, c)``.  On a Fortran-ordered tensor the first product contracts a
spatial mode, so the partial of an MSI with few bands stays small, and a sweep
that updates mode 1 before modes 2 and 3 can share one partial between the two
later modes (a dimension tree, as ``als.solve_als`` does).

``cpd_reconstruct`` forms one ``(J x R)(R x I)`` product ``(b * c[k]) @ a.T``
per frontal slice ``k``, written in place into the transpose of a
Fortran-ordered ``(I, J, K)`` output; its only temporary is the ``(K, J, R)``
stack of scaled ``b``.

Every routine validates shapes and raises ``ValueError`` on mismatch.
``_check_int`` holds the package's one rule for a count, size or seed (a
rank, a dimension, a degradation size, an iteration budget, a replicate or
worker count, a smoothing window, a seed); ``_check_dims``, ``_check_triple``
and ``_as_tensor`` hold its dims, three-matrix and third-order tensor checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CpdModel",
    "mttkrp",
    "cpd_reconstruct",
    "frobenius_norm",
]


def _check_mode(mode: int) -> None:
    if mode not in (1, 2, 3):
        raise ValueError(f"mode must be 1, 2 or 3, got {mode!r}")


def _check_int(name: str, value, minimum: int = 1, odd: bool = False) -> None:
    """Reject a count, size or seed ``value`` that is not a Python or NumPy
    integer (a ``bool`` is not one, nor is a whole-valued float), that is below
    ``minimum`` (1, positive, or 0, nonnegative) or, with ``odd``, that is
    even.  Seeds take ``minimum=0``: numpy's generators take no negative seed,
    and would say so only when drawing."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value}")
    if value < minimum or (odd and value % 2 == 0):
        kind = "odd and positive" if odd else "positive" if minimum == 1 else "nonnegative"
        raise ValueError(f"{name} must be {kind}, got {value}")


def _check_dims(dims) -> None:
    if len(dims) != 3:
        raise ValueError(f"dims must be three positive integers, got {dims!r}")
    for n, d in enumerate(dims):
        _check_int(f"dims[{n}]", d)


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


def _check_factor(f: np.ndarray, dim: int, rank: int, mode: int) -> None:
    if f.shape != (dim, rank):
        raise ValueError(
            f"factor for mode {mode} has shape {f.shape}, expected {(dim, rank)}"
        )


def mttkrp(t: np.ndarray, factors, mode: int) -> np.ndarray:
    """Matricized-tensor times Khatri-Rao product.

    Computes the mode-``mode`` unfolding of ``t`` times the Khatri-Rao product
    of the two non-target factors in the unfolding convention (higher mode
    first); for mode 1, ``m[i, r] = sum_jk t[i, j, k] b[j, r] c[k, r]``.  Only
    the non-target factors are read; the target slot must still be present so
    ``factors`` always has length 3.  ``t`` is read in Fortran order and the
    factors in C order, so the result's bits do not depend on their layouts.
    """
    _check_mode(mode)
    t = np.asfortranarray(_as_tensor(t))
    factors = [np.ascontiguousarray(f, dtype=np.float64) for f in factors]
    if len(factors) != 3:
        raise ValueError(f"expected 3 factor matrices, got {len(factors)}")
    rank = factors[mode % 3].shape[1]
    for n in range(3):
        if n != mode - 1:
            _check_factor(factors[n], t.shape[n], rank, n + 1)
    if mode == 1:
        # t.transpose(1, 0, 2)[j, i, k] == t[i, j, k]: mode 1 is mode 2 of the view.
        t, factors, mode = t.transpose(1, 0, 2), [factors[1], factors[0], factors[2]], 2
    return _partial_mttkrp(_mode1_partial(t, factors[0]), factors, mode)


def _mode1_partial(t: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The ``(K, R, J)`` partial ``z[k, r, j] = sum_i a[i, r] t[i, j, k]``.

    One product per frontal slice; the slices of a Fortran-ordered tensor are
    Fortran-ordered matrices, and those of its ``t.transpose(1, 0, 2)`` view
    (mode 1 of ``mttkrp``) C-ordered ones, so either is read in place.
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
    """Sum of the squared entries as one dot product, read in Fortran order so
    that equal values give the same bits in any layout."""
    flat = np.asarray(t, dtype=np.float64).ravel(order="F")
    return float(flat @ flat)


def frobenius_norm(t: np.ndarray) -> float:
    """Frobenius norm of an array of any shape, summed in Fortran order."""
    return math.sqrt(_sum_squares(t))
