"""Direct LU solves of a sparse matrix, with static condensation of interior groups.

A matrix may carry ``local``: groups of unknowns that couple only with each
other and with the remaining unknowns, never with another group.  The
pencil sets them for the schemes whose stresses have interior dofs ((1,1),
(1,2), (2,1), (2,2)): one group per triangle, its interior stress moments
and the velocity modes they see through the curl.  ``factorize`` then
eliminates the groups element by element and factorizes the Schur
complement on the rest (static condensation; Arnold & Brezzi, M2AN 19,
1985).  The groups stay valid for shifted pencils K - theta N, because
theta N couples a triangle's velocity modes only with each other.  Matrices
without groups, those of the schemes (1,0) and (2,0), are factorized whole.

Factorization is sparse LU with partial pivoting and a fill-reducing
column ordering (COLAMD via SuperLU), after scaling the zero-diagonal
(constraint) rows and columns by a power of two and preordering rows and
columns symmetrically with reverse Cuthill-McKee.  COLAMD breaks ties in
approximate degree by position, so the order it starts from matters: the
dof numbering is blocked by entity type and carries no mesh locality, and
the RCM preorder supplies it.  Singular systems are reported as errors
instead of producing garbage solutions; numerical singularity is judged
from a 1-norm estimate of the inverse, so only the LU factors are kept in
memory.  The pencil's K, and the shifted K - theta N, are stored as their
upper triangle.  While SuperLU allocates its factors, only that triangle and
the scaled matrix handed to it are alive besides: the inverted blocks Q^-1
and the coupling block K[E, R] of the condensed solve are read off the
triangle again after SuperLU returns, and the solve keeps no product with
Q^-1.  SuperLU runs without relaxed supernodes and with 8-column panels
(``_RELAX``, ``_PANEL_SIZE``): on these matrices its defaults cost memory and
save no fill.
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
# SuperLU's supernode relaxation and panel width; its defaults are 10 and 20,
# and larger values crash scipy 1.17's SuperLU (see factorize)
_RELAX = 1
_PANEL_SIZE = 8


class SparseMatrix:
    """A square matrix with the groups ``factorize`` may eliminate.

    The constructor keeps the matrix as canonical CSR.  :meth:`symmetric`
    takes a matrix that is symmetric bit for bit, as the pencil's K is, and
    keeps only its upper triangle with the diagonal, about half the memory;
    ``sp`` then rebuilds the full CSR on demand, bit for bit, and ``matvec``
    and ``factorize`` read the triangle.  ``nnz`` and ``norm_inf()`` are
    those of the full matrix; the norm is computed from its rows, once, so
    that the residual check after a solve makes no ``abs`` copy next to the
    LU factors.

    ``local`` is None or an (n_groups, g) index array of disjoint groups of
    unknowns of a symmetric matrix: within the rows of all groups, entries
    lie only inside a row's own group or in the columns of no group.  Only
    the upper triangle of a matrix with groups is read.  Duplicates are
    summed here because ``_blocks`` fills Q by assignment and would keep
    only one of them.
    """

    def __init__(self, matrix, local=None):
        csr = sp.csr_matrix(matrix)
        csr.sum_duplicates()
        csr.sort_indices()
        self.local = local
        # nnz and norm_inf are read by the benchmark (perfbench/)
        self.shape, self.nnz = csr.shape, csr.nnz
        self._norm_inf = float(abs(csr).sum(axis=1).max()) if csr.nnz else 0.0
        self._csr, self._upper = csr, None       # exactly one of them is kept

    @classmethod
    def symmetric(cls, matrix, local=None):
        """The symmetric ``matrix``, stored as its upper triangle."""
        K = cls(matrix, local)
        K._csr, K._upper = None, _upper_triangle(K._csr)
        return K

    @property
    def sp(self):
        """The full matrix in canonical CSR; rebuilt from the triangle on each call."""
        if self._csr is not None:
            return self._csr
        coo = self._upper.tocoo(copy=False)
        return _symmetric_csr(coo.row, coo.col, coo.data, self.shape[0])

    @property
    def upper(self):
        """The upper triangle with the diagonal, in canonical CSR."""
        return self._upper if self._csr is None else _upper_triangle(self._csr)

    def norm_inf(self):
        return self._norm_inf

    def matvec(self, x):
        """The product with a vector or a block of columns x; from the
        triangle U, U x + U^T x - d x."""
        if self._csr is not None:
            return self._csr @ x
        U = self._upper
        y = U @ x
        y += U.T @ x
        y -= (U.diagonal() * x.T).T
        return y

    def row_max(self):
        """max |a_ij| over j, for every row i of the full matrix."""
        if self._csr is not None:
            return abs(self._csr).max(axis=1).toarray().ravel()
        U = abs(self._upper)
        column_max = np.zeros(self.shape[0])
        np.maximum.at(column_max, U.indices, U.data)   # no CSC copy, unlike U.max(axis=0)
        return np.maximum(U.max(axis=1).toarray().ravel(), column_max)


def _upper_triangle(csr):
    """The upper triangle, with the diagonal, of a canonical CSR matrix: the
    tail of each row, kept in place of sp.triu's round trip through COO."""
    n = csr.shape[0]
    rows = np.repeat(np.arange(n, dtype=csr.indices.dtype), np.diff(csr.indptr))
    keep = csr.indices >= rows
    indptr = np.zeros_like(csr.indptr)
    np.cumsum(np.bincount(rows[keep], minlength=n), out=indptr[1:])
    return sp.csr_matrix((csr.data[keep], csr.indices[keep], indptr), shape=csr.shape)


def _symmetric_csr(row, col, data, n):
    """The full n x n canonical CSR of a symmetric matrix from the entries of
    one triangle: an entry off the diagonal stands for itself and its mirror."""
    off = row != col
    return sp.csr_matrix((np.concatenate([data[off], data]),
                          (np.concatenate([col[off], row]), np.concatenate([row[off], col]))),
                         shape=(n, n))


class Factorization:
    """Reusable factors of a matrix K.

    Without groups, LU factors of P D K D P^T, D diagonal, P a permutation:
    K x = b is solved as x = D P^T (PDKDP^T)^-1 P D b.  ``perm`` lists the
    original index of each factorized row; ``scale`` is D's diagonal in the
    original order.

    With the groups E of ``K.local`` and the rest R, ``blocks`` holds E, R,
    the inverses Q^-1 of the diagonal blocks Q = K[E_T, E_T] and K_ER =
    K[E, R], and the LU factors, ``perm`` and ``scale`` are those of the
    Schur complement S = K[R, R] - C K[E, R], C = K_ER^T Q^-1.  A solve is a
    block-diagonal forward step, one solve with S and a back-substitution,
    with C and C^T applied as products with K_ER and Q^-1:
    x_R = S^-1 (b_R - K_ER^T (Q^-1 b_E)), x_E = Q^-1 b_E - Q^-T (K_ER x_R).
    """

    def __init__(self, lu, perm, scale, blocks=None):
        self._lu = lu
        self._perm = perm
        self._scale = scale
        self._blocks = blocks

    def _solve_lu(self, b):
        d = self._scale.reshape((-1,) + (1,) * (b.ndim - 1))
        y = self._lu.solve((d * b)[self._perm])
        x = np.empty(b.shape)
        x[self._perm] = y
        x *= d
        return x

    def solve(self, b, out=None):
        """x with K x = b, for a vector or a block of columns b; ``out``, when
        given, receives x and may be b itself."""
        b = np.asarray(b, dtype=float)
        if self._blocks is None:        # SuperLU solves a block at once
            x = self._solve_lu(b)
            if out is None:
                return x
            out[...] = x
            return out
        if b.ndim == 1 and out is None:
            return self._solve_condensed(b)
        # one column at a time, so that the block temporaries next to b and x
        # have the size of one column
        x = np.empty(b.shape) if out is None else out
        for col in np.ndindex(b.shape[1:]):
            x[(slice(None),) + col] = self._solve_condensed(b[(slice(None),) + col])
        return x

    def _solve_condensed(self, b):
        E, R, Qinv, KER = self._blocks
        blocked = Qinv.shape[:2] + (1,)
        qE = (Qinv @ b[E].reshape(blocked)).ravel()
        bR = b[R]
        bR -= KER.T @ qE
        xR = self._solve_lu(bR)
        del bR
        qE -= (Qinv.transpose(0, 2, 1) @ (KER @ xR).reshape(blocked)).ravel()
        x = np.empty(b.shape)
        x[R], x[E] = xR, qE
        return x


def _condense(U, local):
    """The Schur complement S, in CSR, that eliminating the groups ``local``
    leaves of the symmetric matrix whose upper triangle is the CSR U."""
    _, R, Qinv, KER = _blocks(U, local)
    RR = U[R][:, R].tocoo(copy=False)       # R is sorted, so RR stays upper
    KRR = _symmetric_csr(RR.row, RR.col, RR.data, R.size)
    return (KRR - _coupling(KER, Qinv) @ KER).tocsr()


def _blocks(U, local):
    """E, R, the inverted diagonal blocks Q^-1 and K_ER in CSR of the groups
    ``local`` of the symmetric matrix whose upper triangle is the CSR U:
    entry (i, j) of U is also entry (j, i)."""
    n_blocks, g = local.shape
    E = local.ravel()
    in_R = np.ones(U.shape[0], dtype=bool)
    in_R[E] = False
    R = np.flatnonzero(in_R)
    EE = U[E][:, E].tocoo()
    block = EE.row // g
    outside = block != EE.col // g
    if outside.any():
        i = int(np.argmax(outside))
        raise SingularMatrixError(
            f"entry ({E[EE.row[i]]}, {E[EE.col[i]]}) couples two eliminated groups",
            kind="structural")
    Q = np.zeros((n_blocks, g, g))
    Q[block, EE.row % g, EE.col % g] = EE.data
    Q[block, EE.col % g, EE.row % g] = EE.data
    # freed as soon as possible: after splu this runs next to the LU factors
    del EE, block, outside
    try:
        Qinv = np.linalg.inv(Q)
    except np.linalg.LinAlgError:
        # LAPACK met an exactly zero pivot, the same one that makes det(Q_t) zero
        t = int(np.argmin(np.abs(np.linalg.det(Q))))
        raise SingularMatrixError(f"block of unknowns {local[t].tolist()} is singular",
                                  kind="numerical") from None
    cond = np.abs(Qinv).sum(axis=1).max(axis=1) * np.abs(Q).max(axis=(1, 2))
    if not np.all(cond < _COND_LIMIT):      # also a NaN or infinite inverse
        t = int(np.argmin(cond < _COND_LIMIT))
        raise SingularMatrixError(
            f"block of unknowns {local[t].tolist()}: |Q^-1|_1 max|q| = {cond[t]:.3e} "
            f"reaches {_COND_LIMIT:.0e}", kind="numerical")
    del Q
    # an entry of K_ER lies in U's row e or, mirrored, in its column e; a sum
    # with a missing entry adds an exact zero.  Columns first: U[:, E] is half
    # the size of U[R]
    mirrored = U[:, E][R].T.tocsr()
    return E, R, Qinv, U[E][:, R] + mirrored


def _coupling(KER, Qinv):
    """C = K_RE Q^-1 in CSR, with K_RE = K_ER^T (K symmetric)."""
    n_blocks = len(Qinv)
    blocks = sp.bsr_matrix((Qinv, np.arange(n_blocks), np.arange(n_blocks + 1)),
                           shape=(KER.shape[0],) * 2)
    return (KER.T.tocsr() @ blocks).tocsr()


def factorize(A):
    """Factorize a square :class:`SparseMatrix` for repeated solves.

    When ``A.local`` is set, every group's diagonal block Q_T = A[E_T, E_T]
    is inverted in one batched call and the rest goes on as below with the
    Schur complement S = A_RR - A_RE Q^-1 A_ER in place of A; the block-free
    path is A's own.  On the (2,1) pencils at N = 30 this condenses 38,161
    unknowns to 20,161 (dirichlet) and cuts LU fill from 5.7M to 4.2M.  A
    block counts as singular by the rule below, with its exact inverse.  The
    blocks are read off A's upper triangle; Q^-1 and A_ER, which the solves
    need, are read again once SuperLU has returned, so that neither is alive
    next to it.

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

    SuperLU runs with ``relax`` = 1 and ``panel_size`` = 8 instead of its
    defaults 10 and 20 (Demmel et al., SIMAX 20, 1999).  Relaxed supernodes
    store their zeros dense, and the panel workspace grows with width times
    n.  Measured on one core, against the defaults: the factors of the
    dirichlet (2,1) N = 30 S kept 43.9 MB instead of 49.7 MB, the peak of
    ``splu`` fell from 56.6 to 49.4 MB, and fill moved by -0.1% (4.20M to
    4.19M); at (1,0) N = 100 the peak fell from 168 to 129 MB and fill from
    9.87M to 9.21M.  Of relax 1, 2, 3 and 10, relax 1 kept the least on
    the three benchmark meshes.  Panel 4 peaks 0.3-6 MB lower than panel 8,
    but its ``splu`` at N = 100 took 1.34 s against 1.13 s (medians of four
    runs), and panel 6 lies between the two.  Values above the defaults crashed
    scipy 1.17's SuperLU (relax 50 and 100; panel 32 on an adaptive mesh).
    The constants decide the factors, and so the rounding of every solve.

    Raises :class:`SingularMatrixError` for structurally singular inputs
    (a row or column without nonzeros, or an entry that couples two groups),
    and when the estimated 1-norm of the inverse of the scaled matrix, times
    its largest entry, is not finite or reaches 1e12.  The estimate (Hager
    1984; Higham & Tisseur 2000, one column, so deterministic) costs a few
    solves with the factors and, unlike reading SuperLU's ``L`` or ``U``,
    copies neither of them.
    """
    if A.shape[0] != A.shape[1]:
        raise SingularMatrixError(f"matrix is not square: {A.shape}", kind="structural")
    rowmax = A.row_max()
    if np.any(rowmax == 0.0):
        idx = int(np.argmin(rowmax))
        raise SingularMatrixError(f"row {idx} has no nonzero entry", kind="structural")
    if A.local is None:
        csr = A.sp
    else:
        csr = _condense(A.upper, A.local)
        rowmax = abs(csr).max(axis=1).toarray().ravel()

    scale = np.ones(csr.shape[0])
    zero = csr.diagonal() == 0.0
    if zero.any() and not zero.all():
        scale[zero] = 2.0 ** np.round(
            np.log2(_CONSTRAINT_WEIGHT * rowmax[~zero].max() / rowmax[zero].max()))
    del rowmax, zero
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
    del d
    col_counts = np.diff(csc.indptr)
    if np.any(col_counts == 0):
        idx = int(perm[np.argmin(col_counts)])
        raise SingularMatrixError(f"column {idx} is empty", kind="structural")
    shape, amax = csc.shape, np.abs(csc.data).max()

    try:
        lu = spla.splu(csc, permc_spec="COLAMD", relax=_RELAX, panel_size=_PANEL_SIZE)
    except RuntimeError as exc:
        raise SingularMatrixError(f"factorization failed: {exc}", kind="numerical") from exc
    del csc

    inverse = spla.LinearOperator(shape, matvec=lu.solve, dtype=float,
                                  rmatvec=lambda b: lu.solve(b, trans="T"))
    with np.errstate(over="ignore", invalid="ignore"):
        cond = spla.onenormest(inverse, t=1) * amax
    if not cond < _COND_LIMIT:      # also a NaN or infinite estimate
        raise SingularMatrixError(
            f"estimated |A^-1|_1 max|a| = {cond:.3e} reaches {_COND_LIMIT:.0e}",
            kind="numerical")
    blocks = None if A.local is None else _blocks(A.upper, A.local)
    return Factorization(lu, perm, scale, blocks)
