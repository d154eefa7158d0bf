"""Binary tensor and matrix file formats.

Tensor files: 4-byte magic ``DT3\\0``, three little-endian uint32 dimensions
``(I, J, K)``, then ``I*J*K`` little-endian float64 values in column-major
order (first index fastest).

Matrix files: 4-byte magic ``DM2\\0``, two little-endian uint32 dimensions
``(rows, cols)``, then column-major float64 values.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

__all__ = ["read_tensor", "write_tensor", "read_matrix", "write_matrix"]

TENSOR_MAGIC = b"DT3\0"
MATRIX_MAGIC = b"DM2\0"
_UINT32_MAX = 2**32 - 1


def _read_array(path, magic: bytes, ndim: int) -> np.ndarray:
    """Validate the header against the file size, then read the payload once."""
    header = 4 + 4 * ndim
    with open(path, "rb") as fh:
        head = fh.read(header)
        size = os.fstat(fh.fileno()).st_size
        if len(head) < header:
            raise ValueError(f"{path}: file too short for a {magic[:3].decode()} header")
        if head[:4] != magic:
            raise ValueError(f"{path}: bad magic {head[:4]!r}, expected {magic!r}")
        dims = struct.unpack(f"<{ndim}I", head[4:])
        if any(d == 0 for d in dims):
            raise ValueError(f"{path}: zero dimension in header {dims}")
        count = math.prod(dims)
        expected = header + 8 * count
        if size < expected:
            raise ValueError(
                f"{path}: truncated payload, need {expected} bytes for dims {dims} "
                f"but file has {size}"
            )
        if size > expected:
            raise ValueError(f"{path}: {size - expected} trailing bytes after payload")
        data = np.fromfile(fh, dtype="<f8", count=count)
    # A no-op on little-endian hosts; a byte swap elsewhere.
    return data.astype(np.float64, copy=False).reshape(dims, order="F")


def _write_array(path, magic: bytes, arr, ndim: int) -> None:
    """Write the header, then the column-major payload without a byte-string copy."""
    arr = np.asarray(arr, dtype="<f8")
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional array, got ndim={arr.ndim}")
    # The reader rejects such a file, so none is written.
    if 0 in arr.shape:
        raise ValueError(f"zero dimension in header {arr.shape}")
    if any(d > _UINT32_MAX for d in arr.shape):
        raise ValueError(f"dimensions {arr.shape} exceed the uint32 header range")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack(f"<{ndim}I", *arr.shape))
        # A view for Fortran-ordered little-endian input, one copy otherwise.
        fh.write(arr.ravel(order="F"))


def read_tensor(path) -> np.ndarray:
    """Read a third-order tensor file."""
    return _read_array(path, TENSOR_MAGIC, 3)


def write_tensor(path, t: np.ndarray) -> None:
    """Write a third-order tensor file."""
    _write_array(path, TENSOR_MAGIC, t, 3)


def read_matrix(path) -> np.ndarray:
    """Read a matrix file."""
    return _read_array(path, MATRIX_MAGIC, 2)


def write_matrix(path, m: np.ndarray) -> None:
    """Write a matrix file."""
    _write_array(path, MATRIX_MAGIC, m, 2)
