"""Direct LU solves of a sparse matrix, with static condensation of interior groups.

A matrix may carry ``local``: groups of unknowns that couple only with each
other and with the remaining unknowns, never with another group.  The
pencil sets them for the schemes whose stresses have interior dofs ((1,1),
(1,2), (2,1), (2,2)): one group per triangle, its interior stress moments
and the velocity modes they see through the curl.  ``factorize`` then
eliminates the groups element by element and factorizes the Schur
complement on the rest (static condensation; Arnold & Brezzi, M2AN 19,
1985).  Matrices without groups, such as shifted pencils and the schemes
(1,0) and (2,0), are factorized whole.

Factorization is sparse LU with partial pivoting and a fill-reducing
column ordering (COLAMD via SuperLU), after scaling the zero-diagonal
(constraint) rows and columns by a power of two and preordering rows and
columns symmetrically with reverse Cuthill-McKee.  COLAMD breaks ties in
approximate degree by position, so the order it starts from matters: the
dof numbering is blocked by entity type and carries no mesh locality, and
the RCM preorder supplies it.  Singular systems are reported as errors
instead of producing garbage solutions; numerical singularity is judged
from a 1-norm estimate of the inverse, so only the LU factors are kept in
memory.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import SingularMatrixError

# a matrix whose estimated |A^-1|_1 times its largest entry reaches this counts
# as singular
_COND_LIMIT = 1e12
# zero-diagonal rows are scaled so that their largest entry is about this many
# times the largest entry of the other rows
_CONSTRAINT_WEIGHT = 16.0


class SparseMatrix:
    """A matrix in canonical CSR (``sp``) with the groups ``factorize`` may
    eliminate.

    ``local`` is None or an (n_groups, g) index array of disjoint groups of
    unknowns of a symmetric matrix: within the rows of all groups, entries
    lie only inside a row's own group or in the columns of no group.
    Duplicates are summed here because ``_condense`` fills its blocks by
    assignment and would keep only one of them.
    """

    def __init__(self, matrix, local=None):
        csr = sp.csr_matrix(matrix)
        csr.sum_duplicates()
        csr.sort_indices()
        self.sp = csr
        self.local = local

    # nnz and norm_inf stay because the benchmark (perfbench/) reads them
    @property
    def nnz(self):
        return self.sp.nnz

    def norm_inf(self):
        if self.nnz == 0:
            return 0.0
        return float(abs(self.sp).sum(axis=1).max())


class Factorization:
    """Reusable factors of a matrix K.

    Without groups, LU factors of P D K D P^T, D diagonal, P a permutation:
    K x = b is solved as x = D P^T (PDKDP^T)^-1 P D b.  ``perm`` lists the
    original index of each factorized row; ``scale`` is D's diagonal in the
    original order.

    With the groups E of ``K.local`` and the rest R, ``blocks`` holds E, R,
    the inverses Q^-1 of the diagonal blocks Q = K[E_T, E_T], C = K[R, E] Q^-1
    and C^T, and the LU factors, ``perm`` and ``scale`` are those of the
    Schur complement S = K[R, R] - C K[E, R].  A solve is a block-diagonal
    forward step, one solve with S and a back-substitution:
    x_R = S^-1 (b_R - C b_E), x_E = Q^-1 b_E - C^T x_R.
    """

    def __init__(self, lu, perm, scale, blocks=None):
        self._lu = lu
        self._perm = perm
        self._scale = scale
        self._blocks = blocks

    def _solve_lu(self, b):
        d = self._scale.reshape((-1,) + (1,) * (b.ndim - 1))
        x = np.empty(b.shape)
        x[self._perm] = self._lu.solve((d * b)[self._perm])
        return d * x

    def solve(self, b):
        b = np.asarray(b, dtype=float)
        if self._blocks is None:
            return self._solve_lu(b)
        E, R, Qinv, C, Ct = self._blocks
        x = np.empty(b.shape)
        bE = b[E]
        x[R] = self._solve_lu(b[R] - C @ bE)
        x[E] = (Qinv @ bE.reshape(Qinv.shape[:2] + (-1,))).reshape(bE.shape) - Ct @ x[R]
        return x


def _condense(K, local):
    """Eliminate the groups ``local`` of the symmetric CSR matrix K; returns
    the Schur complement S in CSR and the blocks of :class:`Factorization`."""
    n_blocks, g = local.shape
    E = local.ravel()
    R = np.setdiff1d(np.arange(K.shape[0]), E)
    rows_E = K[E]
    KEE = rows_E[:, E].tocoo()
    del rows_E
    block = KEE.row // g
    outside = block != KEE.col // g
    if outside.any():
        i = int(np.argmax(outside))
        raise SingularMatrixError(
            f"entry ({E[KEE.row[i]]}, {E[KEE.col[i]]}) couples two eliminated groups",
            kind="structural")
    Q = np.zeros((n_blocks, g, g))
    Q[block, KEE.row % g, KEE.col % g] = KEE.data
    try:
        Qinv = np.linalg.inv(Q)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"an eliminated block is singular: {exc}",
                                  kind="numerical") from exc
    cond = np.abs(Qinv).sum(axis=1).max(axis=1) * np.abs(Q).max(axis=(1, 2))
    if not np.all(cond < _COND_LIMIT):      # also a NaN or infinite inverse
        t = int(np.argmin(cond < _COND_LIMIT))
        raise SingularMatrixError(
            f"block of unknowns {local[t].tolist()}: |Q^-1|_1 max|q| = {cond[t]:.3e} "
            f"reaches {_COND_LIMIT:.0e}", kind="numerical")

    rows_R = K[R]
    KRE = rows_R[:, E]
    C = (KRE @ sp.bsr_matrix((Qinv, np.arange(n_blocks), np.arange(n_blocks + 1)),
                             shape=(E.size, E.size))).tocsr()
    S = rows_R[:, R] - C @ KRE.T
    # C^T in CSR: a product with C.T, a CSC view, costs four times as much
    return S.tocsr(), (E, R, Qinv, C, C.T.tocsr())


def factorize(A):
    """Factorize a square :class:`SparseMatrix` for repeated solves.

    When ``A.local`` is set, every group's diagonal block Q_T = A[E_T, E_T]
    is inverted in one batched call and the rest goes on as below with the
    Schur complement S = A_RR - A_RE Q^-1 A_ER in place of A; the block-free
    path is A's own.  On the (2,1) pencils at N = 30 this condenses 38,161
    unknowns to 20,161 (dirichlet) and cuts LU fill from 5.7M to 4.2M.  A
    block counts as singular by the rule below, with its exact inverse.

    Rows and columns with an exactly zero diagonal are scaled by
    s = 2^round(log2(16 max|other rows| / max|zero-diagonal rows|)).  Partial
    pivoting then eliminates a saddle-point matrix [[A, B^T], [B, 0]] through
    B's rows first, which is the pairing of element-wise condensation and fills
    far less than the unscaled choice between A's and B's rows.  A power of
    two scales without rounding.

    The scaled matrix is then permuted symmetrically into reverse
    Cuthill-McKee order (Cuthill & McKee 1969) before COLAMD orders its
    columns.  COLAMD breaks ties in approximate degree by position, and a
    banded start order leads it to far less fill than a numbering blocked by
    entity type: 18-21% less on the (2,1) pencils at N = 30.

    Raises :class:`SingularMatrixError` for structurally singular inputs
    (a row or column without nonzeros, or an entry that couples two groups),
    and when the estimated 1-norm of the inverse of the scaled matrix, times
    its largest entry, is not finite or reaches 1e12.  The estimate (Hager
    1984; Higham & Tisseur 2000, one column, so deterministic) costs a few
    solves with the factors and, unlike reading SuperLU's ``L`` or ``U``,
    copies neither of them.
    """
    csr = A.sp
    if csr.shape[0] != csr.shape[1]:
        raise SingularMatrixError(f"matrix is not square: {csr.shape}", kind="structural")
    rowmax = abs(csr).max(axis=1).toarray().ravel()
    if np.any(rowmax == 0.0):
        idx = int(np.argmin(rowmax))
        raise SingularMatrixError(f"row {idx} has no nonzero entry", kind="structural")
    blocks = None
    if A.local is not None:
        csr, blocks = _condense(csr, A.local)
        rowmax = abs(csr).max(axis=1).toarray().ravel()

    scale = np.ones(csr.shape[0])
    zero = csr.diagonal() == 0.0
    if zero.any() and not zero.all():
        scale[zero] = 2.0 ** np.round(
            np.log2(_CONSTRAINT_WEIGHT * rowmax[~zero].max() / rowmax[zero].max()))
    perm = reverse_cuthill_mckee(csr, symmetric_mode=True)
    # P A P^T: gather the rows, relabel the columns; tocsc sorts the indices,
    # and only its copy stays alive during splu
    rows = csr[perm]
    del csr
    rows.indices = np.argsort(perm).astype(rows.indices.dtype)[rows.indices]
    csc = rows.tocsc().astype(float, copy=False)
    del rows
    d = scale[perm]
    csc.data *= d[csc.indices] * np.repeat(d, np.diff(csc.indptr))
    col_counts = np.diff(csc.indptr)
    if np.any(col_counts == 0):
        idx = int(perm[np.argmin(col_counts)])
        raise SingularMatrixError(f"column {idx} is empty", kind="structural")

    try:
        lu = spla.splu(csc, permc_spec="COLAMD")
    except RuntimeError as exc:
        raise SingularMatrixError(f"factorization failed: {exc}", kind="numerical") from exc

    inverse = spla.LinearOperator(csc.shape, matvec=lu.solve, dtype=float,
                                  rmatvec=lambda b: lu.solve(b, trans="T"))
    with np.errstate(over="ignore", invalid="ignore"):
        cond = spla.onenormest(inverse, t=1) * np.abs(csc.data).max()
    if not cond < _COND_LIMIT:      # also a NaN or infinite estimate
        raise SingularMatrixError(
            f"estimated |A^-1|_1 max|a| = {cond:.3e} reaches {_COND_LIMIT:.0e}",
            kind="numerical")
    return Factorization(lu, perm, scale, blocks)
