"""Minimal sparse linear algebra: CSR storage, matvec, direct LU solves.

Factorization is sparse LU with partial pivoting and a fill-reducing
column ordering (COLAMD via SuperLU), after scaling the zero-diagonal
(constraint) rows and columns by a power of two.  Singular systems are
reported as errors instead of producing garbage solutions.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularMatrixError

# a pivot at or below this fraction of the largest entry counts as zero
_PIVOT_TOL = 1e-12
# zero-diagonal rows are scaled so that their largest entry is about this many
# times the largest entry of the other rows
_CONSTRAINT_WEIGHT = 16.0


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


class Factorization:
    """Reusable LU factors of D A D, D diagonal; solves A x = b as x = D (DAD)^-1 D b."""

    def __init__(self, lu, scale):
        self._lu = lu
        self._scale = scale

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        d = self._scale.reshape((-1,) + (1,) * (b.ndim - 1))
        return d * self._lu.solve(d * b)


def factorize(A):
    """LU-factorize a square :class:`SparseMatrix`.

    Rows and columns with an exactly zero diagonal are scaled by
    s = 2^round(log2(16 max|other rows| / max|zero-diagonal rows|)).  Partial
    pivoting then eliminates a saddle-point matrix [[A, B^T], [B, 0]] through
    B's rows first, which is the pairing of element-wise condensation and fills
    far less than the unscaled choice between A's and B's rows.  A power of
    two scales without rounding.

    Raises :class:`SingularMatrixError` for structurally singular inputs
    (a row or column without nonzeros) and when a pivot falls to 1e-12 of the largest
    entry of the scaled matrix or below.
    """
    if A.shape[0] != A.shape[1]:
        raise SingularMatrixError(f"matrix is not square: {A.shape}", kind="structural")
    csr = A.sp
    rowmax = abs(csr).max(axis=1).toarray().ravel()
    if np.any(rowmax == 0.0):
        idx = int(np.argmin(rowmax))
        raise SingularMatrixError(f"row {idx} has no nonzero entry", kind="structural")

    scale = np.ones(A.shape[0])
    zero = csr.diagonal() == 0.0
    if zero.any() and not zero.all():
        scale[zero] = 2.0 ** np.round(
            np.log2(_CONSTRAINT_WEIGHT * rowmax[~zero].max() / rowmax[zero].max()))
    scaled = csr.astype(float)
    scaled.data *= np.repeat(scale, np.diff(csr.indptr)) * scale[csr.indices]
    csc = scaled.tocsc()
    col_counts = np.diff(csc.indptr)
    if np.any(col_counts == 0):
        idx = int(np.argmin(col_counts))
        raise SingularMatrixError(f"column {idx} is empty", kind="structural")

    try:
        lu = spla.splu(csc, permc_spec="COLAMD")
    except RuntimeError as exc:
        raise SingularMatrixError(f"factorization failed: {exc}", kind="numerical") from exc

    diag = np.abs(lu.U.diagonal())
    floor = _PIVOT_TOL * np.abs(csc.data).max()
    bad = np.nonzero(diag <= floor)[0]
    if bad.size:
        raise SingularMatrixError(
            f"pivot {diag[bad[0]]:.3e} at index {int(bad[0])} below tolerance {floor:.3e}",
            kind="numerical", pivot_index=int(bad[0]))
    return Factorization(lu, scale)


def matvec(A, x):
    x = np.asarray(x)
    if x.shape[0] != A.shape[1]:
        raise ValueError(f"dimension mismatch: matrix {A.shape}, vector {x.shape}")
    return A.sp @ x
