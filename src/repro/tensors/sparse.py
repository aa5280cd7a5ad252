"""Sparse matrix formats used by the sparse memory controller.

The paper's sparse controller "supports both bitmap and CSR formats to
represent the sparsity of the MK and KN matrices". Both formats here carry
enough metadata for the controller to compute per-row nonzero counts (the
dynamic cluster sizes that drive SIGMA-like execution) and to reconstruct
the dense operand for functional checking.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BitmapMatrix:
    """Bitmap compression: a dense 0/1 mask plus the packed nonzero values.

    ``values`` stores the nonzeros in row-major scan order of ``bitmap``.
    """

    bitmap: np.ndarray
    values: np.ndarray
    shape: tuple

    def __post_init__(self) -> None:
        if self.bitmap.shape != self.shape:
            raise ConfigurationError("bitmap shape must match matrix shape")
        nnz = int(self.bitmap.sum())
        if self.values.shape != (nnz,):
            raise ConfigurationError(
                f"bitmap has {nnz} set bits but {self.values.shape[0]} values"
            )

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    def row_nnz(self) -> np.ndarray:
        """Nonzeros per row — the effective filter sizes of use case 3."""
        return self.bitmap.sum(axis=1).astype(np.int64)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        dense[self.bitmap.astype(bool)] = self.values
        return dense

    def metadata_bits(self) -> int:
        """Storage overhead of the compression metadata, in bits."""
        return int(np.prod(self.shape))


@dataclass(frozen=True)
class CsrMatrix:
    """Compressed Sparse Row: row pointers, column indices and values."""

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    shape: tuple

    def __post_init__(self) -> None:
        rows = self.shape[0]
        for name in ("indptr", "indices"):
            dtype = getattr(self, name).dtype
            if not np.issubdtype(dtype, np.integer):
                raise ConfigurationError(
                    f"{name} must be an integer array, got dtype {dtype}"
                )
        if self.indptr.shape != (rows + 1,):
            raise ConfigurationError(
                f"indptr must have {rows + 1} entries, got {self.indptr.shape}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.values):
            raise ConfigurationError("indptr bounds do not match value count")
        if np.any(np.diff(self.indptr) < 0):
            raise ConfigurationError("indptr must be non-decreasing")
        if self.indices.shape != self.values.shape:
            raise ConfigurationError("indices and values must align")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.shape[1]
        ):
            raise ConfigurationError("column index out of range")

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    def row_nnz(self) -> np.ndarray:
        return np.diff(self.indptr).astype(np.int64)

    def row(self, i: int) -> tuple:
        """(column indices, values) of row ``i``."""
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.indices[lo:hi], self.values[lo:hi]

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        dense[rows, self.indices] = self.values
        return dense

    def metadata_bits(self, index_bits: int = 16) -> int:
        return (len(self.indptr) + len(self.indices)) * index_bits


SparseMatrix = Union[BitmapMatrix, CsrMatrix]


def from_dense(dense: np.ndarray, fmt: str = "bitmap") -> SparseMatrix:
    """Compress a dense 2-D matrix into the requested format."""
    dense = np.asarray(dense)
    if dense.ndim != 2:
        raise ConfigurationError(f"expected a 2-D matrix, got shape {dense.shape}")
    if fmt == "bitmap":
        mask = dense != 0
        return BitmapMatrix(
            bitmap=mask.astype(np.uint8), values=dense[mask].copy(), shape=dense.shape
        )
    if fmt == "csr":
        # np.nonzero scans row-major: the same order as a per-row walk
        rows, cols = np.nonzero(dense)
        indptr = np.zeros(dense.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=dense.shape[0]), out=indptr[1:])
        return CsrMatrix(
            indptr=indptr,
            indices=cols.astype(np.int64),
            values=dense[rows, cols],
            shape=dense.shape,
        )
    raise ConfigurationError(f"unknown sparse format {fmt!r}; use 'bitmap' or 'csr'")


def block_diagonal_csr(
    blocks: Union[np.ndarray, CsrMatrix], groups: int
) -> CsrMatrix:
    """CSR of ``groups`` equal blocks laid along a diagonal.

    ``blocks`` stacks them row-wise, ``(groups * k) x dot`` (a grouped
    convolution's filters), dense or already compressed; the result is
    the ``(groups * k) x (groups * dot)`` matrix with block ``g`` at
    column offset ``g * dot`` — what ``from_dense`` makes of that
    matrix, without building its zeros.
    """
    stacked = blocks if isinstance(blocks, CsrMatrix) else from_dense(blocks, "csr")
    rows, dot = stacked.shape
    if groups < 1 or rows % groups:
        raise ConfigurationError(
            f"{rows} rows do not split into {groups} equal blocks"
        )
    if groups == 1:
        return stacked
    block_of = np.repeat(np.arange(rows) // (rows // groups), stacked.row_nnz())
    return CsrMatrix(
        indptr=stacked.indptr,
        indices=stacked.indices + block_of * dot,
        values=stacked.values,
        shape=(rows, dot * groups),
    )


def structure_digest(matrix: Union[np.ndarray, BitmapMatrix, CsrMatrix]) -> bytes:
    """sha256 of *where* a matrix's nonzeros are, never of what they are.

    Operands with equal digests compress to CSR matrices of the same
    shape, ``indptr`` and ``indices``; their values may differ. A
    :class:`CsrMatrix` is digested as its ``indptr`` and ``indices``
    (the stored entries, whatever their values; duplicates and order
    included), a dense array or a :class:`BitmapMatrix` as the packed
    bits of ``dense != 0``. The digest is read off the content on every
    call, so editing an array in place changes it.
    """
    digest = hashlib.sha256()
    if isinstance(matrix, CsrMatrix):
        rows, cols = matrix.shape
        digest.update(b"csr %d %d " % (rows, cols))
        digest.update(matrix.indptr.astype(np.int64).tobytes())
        digest.update(matrix.indices.astype(np.int64).tobytes())
    else:
        if isinstance(matrix, BitmapMatrix):
            matrix = matrix.to_dense()
        digest.update(b"mask %s " % " ".join(map(str, np.shape(matrix))).encode())
        digest.update(np.packbits(np.asarray(matrix) != 0).tobytes())
    return digest.digest()


def to_dense(matrix: SparseMatrix) -> np.ndarray:
    """Decompress back to a dense matrix."""
    return matrix.to_dense()
