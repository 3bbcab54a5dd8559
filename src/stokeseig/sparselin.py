"""Direct LU solves of a sparse matrix, with static condensation of element groups.

A matrix may carry ``local``: groups of unknowns that couple only with each
other and with the remaining unknowns, never with another group.  The
pencil sets one group per triangle: its interior stress moments and all of
its velocity dofs.  ``factorize`` eliminates the groups element by element
and factorizes the Schur complement on the rest (static condensation;
Arnold & Brezzi, M2AN 19, 1985).  A matrix marked ``definite``, the
pencil's K - theta0 N, leaves a positive definite Schur complement, which
SuperLU factorizes in symmetric mode with diagonal pivots; any other matrix
gets LU with partial pivoting.  Singular systems are reported as errors
instead of producing garbage solutions, judged from a 1-norm estimate of
the inverse, so only the LU factors are kept in memory.

The pencil's K, and the shifted K - theta N, are stored as their upper
triangle.  While SuperLU allocates its factors, only that triangle and the
scaled matrix handed to it are alive besides: the inverted blocks Q^-1 and
the coupling block K[E, R] of the condensed solve are read off the triangle
again after SuperLU returns, and the solve keeps no product with Q^-1.
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
# times the largest entry of the other rows (or the unit diagonal)
_CONSTRAINT_WEIGHT = 16.0
# SuperLU's panel width; its default is 20, and larger values crash scipy
# 1.17's SuperLU (see factorize)
_PANEL_SIZE = 8


class SparseMatrix:
    """A square matrix with the groups ``factorize`` may eliminate.

    The constructor keeps the matrix as canonical CSR.  :meth:`symmetric`
    takes a matrix that is symmetric bit for bit, as the pencil's K is, as
    slabs of consecutive rows, and keeps only its upper triangle with the
    diagonal, about half the memory; ``sp`` then rebuilds the full CSR on
    demand, bit for bit, and ``matvec`` and ``factorize`` read the triangle.
    ``nnz`` and ``norm_inf()`` are those of the full matrix; the norm is
    computed from its rows, once, so that the residual check after a solve
    makes no ``abs`` copy next to the LU factors.

    ``local`` is None or an (n_groups, g) index array of disjoint groups of
    unknowns of a symmetric matrix: within the rows of all groups, entries
    lie only inside a row's own group or in the columns of no group.  Only
    the upper triangle of a matrix with groups is read.  Duplicates are
    summed here because ``_blocks`` fills Q by assignment and would keep
    only one of them.  ``definite`` marks a symmetric matrix whose Schur
    complement, once the groups are eliminated, is positive definite but
    for rows with a zero diagonal and a single entry (a pin): ``factorize``
    then pivots on the diagonal.
    """

    def __init__(self, matrix, local=None, definite=False):
        csr = _canonical(matrix)
        self.local, self.definite = local, definite
        # nnz and norm_inf are read by the benchmark (perfbench/)
        self.shape, self.nnz = csr.shape, csr.nnz
        self._norm_inf = _norm_inf(csr)
        self._csr, self._upper = csr, None       # exactly one of them is kept

    @classmethod
    def symmetric(cls, slabs, local=None, definite=False):
        """The symmetric matrix whose rows are those of the sparse ``slabs``
        in turn, stored as its upper triangle.  The slabs are read one at a
        time, so that from a generator only one of them is alive."""
        K = cls.__new__(cls)
        K.local, K.definite = local, definite
        K.nnz, K._norm_inf, upper = 0, 0.0, []
        for slab in slabs:
            slab = _canonical(slab)
            K.nnz += slab.nnz
            K._norm_inf = max(K._norm_inf, _norm_inf(slab))
            upper.append(_upper_triangle(slab, sum(u.shape[0] for u in upper)))
            del slab
        K._csr, K._upper = None, sp.vstack(upper, format="csr")
        K.shape = K._upper.shape
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


def _canonical(matrix):
    csr = sp.csr_matrix(matrix)
    csr.sum_duplicates()
    csr.sort_indices()
    return csr


def _norm_inf(csr):
    """max_i sum_j |a_ij| of a canonical CSR matrix, summed over each row
    the way ``abs(csr).sum(axis=1)`` sums it, without its copy of the indices."""
    rows = np.flatnonzero(np.diff(csr.indptr))
    if rows.size == 0:
        return 0.0
    return float(np.add.reduceat(np.abs(csr.data), csr.indptr[rows]).max())


def _upper_triangle(csr, first_row=0):
    """The upper triangle, with the diagonal, of a canonical CSR matrix whose
    rows are those of a larger matrix from ``first_row`` on: the tail of each
    row, kept in place of sp.triu's round trip through COO."""
    n = csr.shape[0]
    rows = np.repeat(np.arange(first_row, first_row + n, dtype=csr.indices.dtype),
                     np.diff(csr.indptr))
    keep = csr.indices >= rows
    indptr = np.zeros_like(csr.indptr)
    np.cumsum(np.bincount(rows[keep] - first_row, minlength=n), out=indptr[1:])
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
    original order.  ``condition`` is the estimate of an inverse's 1-norm
    times the largest entry that ``factorize`` compared with its limit.

    With the groups E of ``K.local`` and the rest R, ``blocks`` holds E, R,
    the inverses Q^-1 of the diagonal blocks Q = K[E_T, E_T] and K_ER =
    K[E, R] with its columns in factorized order, and the LU factors,
    ``perm`` and ``scale`` are those of the Schur complement S = K[R, R] -
    K_RE Q^-1 K_ER, K_RE = K_ER^T.  A solve is a block-diagonal forward step,
    one solve with S and a back-substitution:
    x_R = S^-1 (b_R - K_RE (Q^-1 b_E)), x_E = Q^-1 b_E - Q^-1 (K_ER x_R).
    It runs one column at a time through work vectors allocated once, with
    the transpose K_RE made once.
    """

    def __init__(self, lu, perm, scale, blocks=None):
        self._lu = lu
        self.condition = None       # set by factorize
        self._perm = perm
        self._scale = scale
        self._blocks = blocks
        # the unknown of K behind each factorized row, and D in that order
        self._order, self._d = perm, scale[perm]
        if blocks is not None:
            E, R, Qinv, KER = blocks
            self._order = R[perm]
            self._KRE = KER.T
            self._work = (np.empty(Qinv.shape[:2]), np.empty(Qinv.shape[:2]), np.empty(R.size))

    def solve(self, b, out=None):
        """x with K x = b, for a vector or a block of columns b; ``out``, when
        given, receives x and may be b itself."""
        b = np.asarray(b, dtype=float)
        x = np.empty(b.shape) if out is None else out
        if self._blocks is None:        # SuperLU solves a block at once
            d = self._d.reshape((-1,) + (1,) * (b.ndim - 1))
            y = self._lu.solve(d * b[self._order])
            y *= d
            x[self._order] = y
            return x
        for col in np.ndindex(b.shape[1:]):
            self._solve_condensed(b[(slice(None),) + col], x[(slice(None),) + col])
        return x

    def _solve_condensed(self, b, x):
        E, _, Qinv, KER = self._blocks
        bE, qE, rhs = self._work
        # einsum beats matmul on these small blocks: 0.16 against 0.23 ms at
        # 1,800 blocks of 12, 0.12 against 0.37 ms at 10,000 blocks of 2
        np.take(b, E, out=bE.reshape(-1))
        np.einsum("tij,tj->ti", Qinv, bE, out=qE)
        np.take(b, self._order, out=rhs)
        rhs -= self._KRE @ qE.reshape(-1)
        rhs *= self._d
        y = self._lu.solve(rhs)
        y *= self._d
        x[self._order] = y
        np.einsum("tij,tj->ti", Qinv, (KER @ y).reshape(bE.shape), out=bE)
        qE -= bE
        x[E] = qE.reshape(-1)


def _condense(U, local, definite=False):
    """The Schur complement S, in CSR, that eliminating the groups ``local``
    leaves of the symmetric matrix whose upper triangle is the CSR U."""
    _, R, Qinv, KER = _blocks(U, local, definite)
    RR = U[R][:, R].tocoo(copy=False)       # R is sorted, so RR stays upper
    KRR = _symmetric_csr(RR.row, RR.col, RR.data, R.size)
    del RR
    S = (KRR - _coupling(KER, Qinv) @ KER).tocsr()
    S.sort_indices()
    # S on the pattern of |K_RR| + |K_RE| |Q^-1| |K_ER|, which holds S's: an
    # entry that cancels to 0.0 is kept, so that the pattern, and with it the
    # ordering and the fill, does not follow the rounding.  The sizes are
    # taken in place: the blocks are read again after splu
    for block in (KRR.data, KER.data, Qinv):
        np.abs(block, out=block)
    pattern = KRR + _coupling(KER, Qinv) @ KER
    del KRR, KER, Qinv
    pattern.sort_indices()
    at = np.searchsorted(_keys(pattern), _keys(S))
    pattern.data[:] = 0.0
    pattern.data[at] = S.data
    return pattern


def _keys(csr):
    """Row-major positions i n + j of the entries of a canonical CSR matrix."""
    starts = np.arange(csr.shape[0], dtype=np.int64) * csr.shape[1]
    return np.repeat(starts, np.diff(csr.indptr)) + csr.indices


def _blocks(U, local, definite=False):
    """E, R, the inverted diagonal blocks Q^-1 and K_ER in CSR of the groups
    ``local`` of the symmetric matrix whose upper triangle is the CSR U:
    entry (i, j) of U is also entry (j, i).  A block counts as singular by
    factorize's rule, judged for a ``definite`` matrix after its symmetric
    scaling to a unit diagonal."""
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
    scaled = 1.0
    if definite:
        # [[A_ii, B_i^T], [B_i, theta0 M_T]] is never singular, but M_T scales
        # with the triangle's area: judge D Q D, D = |diag Q|^-1/2
        d = np.abs(np.diagonal(Q, axis1=1, axis2=2)) ** -0.5
        scaled = d[:, :, None] * d[:, None, :]
    cond = (np.abs(Qinv / scaled).sum(axis=1).max(axis=1)
            * np.abs(Q * scaled).max(axis=(1, 2)))
    del scaled
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


def _jacobi_scale(csr):
    """Powers of two that bring every nonzero diagonal entry of D A D within a
    factor 2 of 1, so that no other entry of a positive definite A exceeds 2
    in size, and the largest entry of every row with a zero diagonal (a pin)
    near 16 (``_CONSTRAINT_WEIGHT``): in its column, pivoting then picks the
    pin whatever the rounding."""
    diag = np.abs(csr.diagonal())
    zero = diag == 0.0
    scale = np.ones(len(diag))
    scale[~zero] = 2.0 ** -np.round(0.5 * np.log2(diag[~zero]))
    if zero.any():
        pinned = abs(csr[zero] @ sp.diags(scale)).max(axis=1).toarray().ravel()
        scale[zero] = 2.0 ** np.round(np.log2(_CONSTRAINT_WEIGHT / pinned))
    return scale


def factorize(A):
    """Factorize a square :class:`SparseMatrix` for repeated solves.

    When ``A.local`` is set, every group's diagonal block Q_T = A[E_T, E_T]
    is inverted in one batched call and the rest goes on as below with the
    Schur complement S = A_RR - A_RE Q^-1 A_ER in place of A.  S keeps the
    pattern of |A_RR| + |A_RE| |Q^-1| |A_ER|, entries that cancel to 0.0
    included, so that its pattern, ordering and fill do not follow the
    rounding; on the condensed (2,1) pencils at N = 30 this also gives MMD
    the ordering with 15-17% less fill.  The dirichlet one condenses 38,161
    unknowns to 16,561 and keeps 1.58M entries in the factors, against
    11.4M for the whole matrix under partial pivoting.  A block counts as
    singular by the rule below, with its exact inverse; for a ``definite`` A
    after scaling it to a unit diagonal, since a triangle's velocity mass,
    alone on the diagonal of its constant modes, scales with its area.
    Q^-1 and A_ER are read again after SuperLU returns, so that neither is
    alive next to it.

    A ``definite`` S is scaled by powers of two to a diagonal within a
    factor 2 of 1, its pin rows to an entry near 16, and SuperLU pivots on
    the diagonal in symmetric mode, ordering S + S^T by multiple minimum
    degree.  Any other matrix has its zero-diagonal rows and columns scaled
    by s = 2^round(log2(16 max|other rows| / max|zero-diagonal rows|)), so
    that partial pivoting eliminates a saddle-point matrix through its
    constraint rows first, and COLAMD orders its columns.  Either ordering
    starts from a symmetric reverse Cuthill-McKee preorder (Cuthill & McKee
    1969): the dof numbering carries no mesh locality, and the orderings
    break ties by position.  On the condensed pencils, against MMD in DofMap
    order: 1.58M against 2.19M entries (dirichlet), 1.48M against 2.20M
    (mixed), 3.65M against 4.08M ((1,0) N = 100), but 3.09M against 2.72M
    over the adapt meshes; on a large graded mesh MMD alone made ``splu``
    take 20.1 s against 1.7 s.

    SuperLU runs with 8-column panels instead of its default 20 (Demmel et
    al., SIMAX 20, 1999): the panel workspace grows with width times n, and
    values above the defaults crashed scipy 1.17's SuperLU.  In symmetric
    mode supernode relaxation changes neither fill nor memory, so it keeps
    its default.  These choices decide the factors, and so the rounding.

    Raises :class:`SingularMatrixError` for structurally singular inputs
    (a row or column without nonzeros, or an entry that couples two groups),
    and when the estimated 1-norm of the inverse times the largest entry is
    not finite or reaches 1e12: of the scaled matrix handed to SuperLU, or,
    with groups, of A itself through the condensed solve, since S's own
    estimate grows as the smallest triangle's size to the power -2 (3e11
    at 1e-5 on a graded L-shape, where A's reads 6e2).  The estimate (Hager
    1984; Higham & Tisseur 2000, one column, so deterministic) costs a few
    solves and, unlike reading SuperLU's ``L`` or ``U``, copies neither.
    """
    if A.shape[0] != A.shape[1]:
        raise SingularMatrixError(f"matrix is not square: {A.shape}", kind="structural")
    rowmax = A.row_max()
    if np.any(rowmax == 0.0):
        idx = int(np.argmin(rowmax))
        raise SingularMatrixError(f"row {idx} has no nonzero entry", kind="structural")
    largest = rowmax.max()      # of A, for the estimate through the condensed solve
    csr = A.sp if A.local is None else _condense(A.upper, A.local, A.definite)

    if A.definite:
        scale = _jacobi_scale(csr)
        pivoting = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options=dict(SymmetricMode=True))
    else:
        if A.local is not None:
            rowmax = abs(csr).max(axis=1).toarray().ravel()
        scale = np.ones(csr.shape[0])
        zero = csr.diagonal() == 0.0
        if zero.any() and not zero.all():
            scale[zero] = 2.0 ** np.round(
                np.log2(_CONSTRAINT_WEIGHT * rowmax[~zero].max() / rowmax[zero].max()))
        del zero
        pivoting = dict(permc_spec="COLAMD")
    del rowmax
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
        lu = spla.splu(csc, panel_size=_PANEL_SIZE, **pivoting)
    except RuntimeError as exc:
        raise SingularMatrixError(f"factorization failed: {exc}", kind="numerical") from exc
    del csc

    if A.local is None:
        fact = Factorization(lu, perm, scale)
        inverse = spla.LinearOperator(shape, matvec=lu.solve, dtype=float,
                                      rmatvec=lambda b: lu.solve(b, trans="T"))
    else:
        E, R, Qinv, KER = _blocks(A.upper, A.local, A.definite)
        # K_ER's columns into factorized order, in place
        KER.indices = np.argsort(perm).astype(KER.indices.dtype)[KER.indices]
        KER.has_sorted_indices = False
        KER.sort_indices()
        fact = Factorization(lu, perm, scale, (E, R, Qinv, KER))

        def solve(b):
            x = np.empty(A.shape[0])
            fact._solve_condensed(np.ravel(b), x)
            return x

        # A's own inverse, symmetric: S^-1 alone grows with the mesh grading
        inverse = spla.LinearOperator(A.shape, matvec=solve, rmatvec=solve, dtype=float)
        amax = largest
    with np.errstate(over="ignore", invalid="ignore"):
        fact.condition = spla.onenormest(inverse, t=1) * amax
    if not fact.condition < _COND_LIMIT:      # also a NaN or infinite estimate
        raise SingularMatrixError(
            f"estimated |A^-1|_1 max|a| = {fact.condition:.3e} reaches {_COND_LIMIT:.0e}",
            kind="numerical")
    return fact
