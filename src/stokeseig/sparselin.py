"""Minimal sparse linear algebra: CSR storage, matvec, direct LU solves.

Factorization is sparse LU with partial pivoting and a fill-reducing
column ordering (COLAMD via SuperLU).  Singular systems are reported as
errors instead of producing garbage solutions.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularMatrixError

# a pivot at or below this fraction of the largest entry counts as zero
_PIVOT_TOL = 1e-12


class SparseMatrix:
    """Compressed sparse rows with sorted, duplicate-free column indices."""

    def __init__(self, matrix):
        csr = sp.csr_matrix(matrix)
        csr.sum_duplicates()
        csr.sort_indices()
        self.sp = csr

    @classmethod
    def from_triplets(cls, shape, rows, cols, vals):
        if np.isscalar(shape):
            shape = (shape, shape)
        return cls(sp.coo_matrix((vals, (rows, cols)), shape=shape))

    @classmethod
    def from_dense(cls, dense):
        return cls(sp.csr_matrix(np.asarray(dense, dtype=float)))

    @property
    def shape(self):
        return self.sp.shape

    @property
    def n(self):
        return self.sp.shape[0]

    @property
    def indptr(self):
        return self.sp.indptr

    @property
    def indices(self):
        return self.sp.indices

    @property
    def values(self):
        return self.sp.data

    @property
    def nnz(self):
        return self.sp.nnz

    def __matmul__(self, x):
        return matvec(self, x)

    def toarray(self):
        return self.sp.toarray()

    def norm_inf(self):
        if self.nnz == 0:
            return 0.0
        return float(abs(self.sp).sum(axis=1).max())

    def max_abs(self):
        return float(abs(self.sp).max()) if self.nnz else 0.0


class Factorization:
    """Reusable LU factors of a square sparse matrix."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        return self._lu.solve(b)


def factorize(A):
    """LU-factorize a square :class:`SparseMatrix`.

    Raises :class:`SingularMatrixError` for structurally singular inputs
    (empty row or column) and when a pivot falls to 1e-12 of the largest
    matrix entry or below.
    """
    if A.shape[0] != A.shape[1]:
        raise SingularMatrixError(f"matrix is not square: {A.shape}", kind="structural")
    n = A.shape[0]
    csr = A.sp
    row_counts = np.diff(csr.indptr)
    if np.any(row_counts == 0):
        idx = int(np.argmin(row_counts))
        raise SingularMatrixError(f"row {idx} is empty", kind="structural")
    col_counts = np.diff(csr.tocsc().indptr)
    if np.any(col_counts == 0):
        idx = int(np.argmin(col_counts))
        raise SingularMatrixError(f"column {idx} is empty", kind="structural")

    try:
        lu = spla.splu(csr.tocsc(), permc_spec="COLAMD")
    except RuntimeError as exc:
        raise SingularMatrixError(f"factorization failed: {exc}", kind="numerical") from exc

    diag = np.abs(lu.U.diagonal())
    floor = _PIVOT_TOL * max(A.max_abs(), 1e-300)
    bad = np.nonzero(diag <= floor)[0]
    if bad.size:
        raise SingularMatrixError(
            f"pivot {diag[bad[0]]:.3e} at index {int(bad[0])} below tolerance {floor:.3e}",
            kind="numerical", pivot_index=int(bad[0]))
    return Factorization(lu)


def matvec(A, x):
    x = np.asarray(x)
    if x.shape[0] != A.shape[1]:
        raise ValueError(f"dimension mismatch: matrix {A.shape}, vector {x.shape}")
    return A.sp @ x
