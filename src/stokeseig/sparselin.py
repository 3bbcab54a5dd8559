"""Direct LU solves of sparse symmetric matrices, with static condensation.

``factorize`` takes a symmetric matrix F given by its triangles' blocks
(:class:`ElementBlocks`), as the pencil's K - theta N is: each triangle's
interior stress moments and velocity dofs couple only with each other and
its edge stress dofs, so the element Schur complements are summed into the
Schur complement on the edge dofs (static condensation; Arnold & Brezzi,
M2AN 19, 1985).  A plain symmetric scipy matrix enters the same path as
blocks of no triangles (:meth:`ElementBlocks.whole`).  Each triangle's
coupling C_T to its edge dofs is kept once, as its dense block, for the
condensed solve and :class:`RestrictedInverse`.  Singular systems are
reported as errors, judged from a 1-norm estimate of F's inverse, so only
the LU factors are kept in memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import SingularMatrixError

# a matrix whose estimated |A^-1|_1 times its largest entry reaches this is singular
_COND_LIMIT = 1e12
# iterations of the 1-norm estimate, and the pieces in which it sums |F^-1 x|,
# scipy's
_NORM_ITERATIONS, _NORM_PIECE = 5, 2 ** 20
# SuperLU's panel width (see factorize)
_PANEL_SIZE = 8
# elements per chunk of a temporary: with 32 KB of doubles a chunk's
# temporaries stay below the 128 KB from which glibc maps fresh pages for an
# allocation (the benchmark fixes MALLOC_MMAP_THRESHOLD_ there) and trims
# the top of its heap
_CHUNK = 2 ** 12


@dataclass
class ElementBlocks:
    """The symmetric matrix F of order ``n`` given by its triangles' blocks.

    Triangle t's unknowns ``groups[t]`` couple only with each other, F[g, g]
    = ``Q[t]``, and with its unknowns ``rest[t]`` of the rest R, F[g, r] =
    ``C[t]`` (-1 marks one that F does not have).  F[R, R] sums the ``D[t]``
    at (rest[t], rest[t]) and the ``extra`` (rows, columns, values) that
    belong to no triangle.  ``amax`` is max |F_ij|, for a pencil's F the
    largest of A's diagonal, |B| at the active dofs, |theta| max |M| and the
    pin (``PencilMatrix.amax``); ``definite`` marks an F at a negative shift,
    whose blocks :func:`_invert` judges after scaling them to a unit
    diagonal.
    """
    n: int
    groups: np.ndarray
    rest: np.ndarray
    Q: np.ndarray
    C: np.ndarray
    D: np.ndarray
    extra: tuple
    amax: float
    definite: bool

    @classmethod
    def whole(cls, A):
        """The square symmetric scipy matrix A as blocks of no triangles, every
        entry in ``extra``; not ``definite``.  The groups have one column, so
        that no reduction over the empty blocks has size 0."""
        csr = sp.csr_matrix(A, dtype=float)
        if csr.shape[0] != csr.shape[1]:
            raise SingularMatrixError(f"matrix is not square: {csr.shape}", kind="structural")
        if (csr != csr.T).nnz:
            # the singularity estimate and the RCM preorder take F = F^T
            raise ValueError("matrix is not symmetric")
        coo = csr.tocoo()
        none, empty = np.zeros((0, 1), dtype=int), np.zeros((0, 1, 1))
        return cls(csr.shape[0], none, none, empty, empty, empty,
                   (coo.row, coo.col, coo.data), float(np.abs(coo.data).max(initial=0.0)), False)


class Factorization:
    """Reusable factors of the :class:`ElementBlocks` F: LU factors of
    P S P^T, S the Schur complement of :func:`condense`, P a permutation
    (``perm``); ``condition`` is the estimate ``factorize`` judged.

    It keeps the groups' unknowns E, the unknown of F behind each factorized
    row, Q^-1, each triangle's coupling C_T = F[group, rest] and its rest
    ``cols`` in factorized order (|R| for one it lacks, whose column of C_T
    is zero).
    A solve is x_R = S^-1 (b_R - sum_T C_T^T Q_T^-1 b_T) and
    x_T = Q_T^-1 (b_T - C_T x_R[cols_T]), for a block of k columns in one
    pass: one SuperLU solve of all k right-hand sides.  With no triangles E
    is empty and it is the solve with S = F.
    """

    def __init__(self, lu, perm, E, order, Qinv, C, cols):
        self._lu = lu
        self.condition = None       # set by factorize
        self._perm = perm
        self._E, self._order, self._Qinv, self._C, self._cols = E, order, Qinv, C, cols

    def solve(self, b, out=None):
        """x with F x = b, for a vector or a block of columns b; ``out``, when
        given, receives x, must be contiguous and may be b itself."""
        b = np.asarray(b, dtype=float)
        x = np.empty(b.shape) if out is None else out
        n = len(b)
        self._solve_condensed(b.reshape(n, -1), x.reshape(n, -1, copy=False))
        return x

    def _solve_condensed(self, b, x):
        """x = F^-1 b for (n, k) blocks b and x.  SuperLU solves the k
        right-hand sides together; everything else takes one contiguous
        column at a time, so that each column of x has the bits of its own
        solve and the temporaries are one column long."""
        E, Qinv, C, cols = self._E, self._Qinv, self._C, self._cols
        size, k = len(self._order), b.shape[1]
        bE, QbE = np.empty(Qinv.shape[:2]), np.empty(Qinv.shape[:2])
        onR = np.empty(cols.shape)              # a value at each triangle's rest
        rhs = np.empty((size, k), order="F")    # column order, as SuperLU takes it
        np.take(b, self._order, axis=0, out=rhs, mode="clip")      # "clip": unbuffered
        # einsum beats matmul on these small blocks: 0.16 against 0.23 ms at
        # 1,800 blocks of 12, 0.12 against 0.37 ms at 10,000 blocks of 2
        for c in range(k):
            np.take(b[:, c], E, out=bE.reshape(-1), mode="clip")
            np.einsum("tij,tj->ti", Qinv, bE, out=QbE)
            np.einsum("tgr,tg->tr", C, QbE, out=onR)
            rhs[:, c] -= np.bincount(cols.reshape(-1), onR.reshape(-1), minlength=size + 1)[:size]
        y = self._lu.solve(rhs)
        x[self._order] = y
        for c in range(k):
            # a rest the triangle lacks reads row |R| - 1 ("clip") into a zero column
            np.take(y[:, c], cols, out=onR, mode="clip")
            np.take(b[:, c], E, out=bE.reshape(-1), mode="clip")
            bE -= np.einsum("tgr,tr->tg", C, onR, out=QbE)
            x[E, c] = np.einsum("tij,tj->ti", Qinv, bE, out=QbE).reshape(-1)

    def restrict(self, V):
        """V^T F^-1 V as a :class:`RestrictedInverse`."""
        return RestrictedInverse(self, V)


class RestrictedInverse:
    """w -> V^T F^-1 V w for a :class:`Factorization` of F and a block-diagonal
    V that maps m values of each triangle into the last h unknowns of its
    group: V[t] is (h, m).

    V w lies on the group unknowns E, so condensation gives

        V^T F^-1 V = D + P^T S^-1 P,  D_T = V_T^T Q_T^-1 V_T,  P_T = C_T^T Q_T^-1 V_T,

    P_T the dense (r, m) block of triangle t's columns of P, its rows at the
    triangle's rest in factorized order.  A product is one block product,
    P w, one SuperLU solve of |R| rows and P^T y, on vectors of length |R|
    and n_T m only.  D and P are made here, after SuperLU has run, in one
    batched product a chunk of triangles at a time.  P^T is kept in CSR,
    row (t, j) holding P_T[:, j] at the rest the triangle has; P is its
    transpose.  A block of k columns takes one SuperLU solve and everything
    else one contiguous column at a time, so each column has the bits of its
    own product.
    """

    def __init__(self, fact, V):
        Qinv, C, cols = fact._Qinv, fact._C, fact._cols
        self._lu = fact._lu
        nt, h, m = V.shape
        g, r = C.shape[1:]
        size = len(fact._order)
        has = cols < size                  # the rest each triangle has
        indptr = np.zeros(nt * m + 1, dtype=np.int64)
        indptr[1:].reshape(nt, m)[...] = np.count_nonzero(has, axis=1)[:, None]
        np.cumsum(indptr, out=indptr)
        data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=np.int32)
        self._D = np.empty((nt, m, m))
        step = max(1, _CHUNK // (m * max(g, r)))
        for t in range(0, nt, step):
            c = slice(t, t + step)
            Z = Qinv[c][:, :, g - h:] @ V[c]
            self._D[c] = np.swapaxes(V[c], 1, 2) @ Z[:, g - h:]
            PT = np.swapaxes(Z, 1, 2) @ C[c]        # (t, m, r): the P_T^T
            ok = np.repeat(has[c], m, axis=0)
            span = slice(indptr[t * m], indptr[(t + len(Z)) * m])
            data[span] = PT.reshape(-1, r)[ok]
            indices[span] = np.repeat(cols[c], m, axis=0)[ok]
        self._PT = sp.csr_matrix((data, indices, indptr), shape=(nt * m, size))
        self._P = self._PT.T
        self._rhs = np.empty((size, 1))

    def apply(self, w, out=None):
        """V^T F^-1 V w for a vector or a block of columns w of n_T m rows;
        ``out``, for a vector w, receives the product."""
        cols = w.reshape(len(w), -1)
        k = cols.shape[1]
        rhs = self._rhs if k == 1 else np.empty((len(self._rhs), k), order="F")
        for c in range(k):
            rhs[:, c] = self._P @ cols[:, c]
        y = self._lu.solve(rhs)
        # columns contiguous, for the einsums
        out = np.empty(cols.shape[::-1]).T if out is None else out.reshape(-1, 1)
        shape = self._D.shape[:2]
        for c in range(k):
            np.einsum("tmn,tn->tm", self._D, np.ascontiguousarray(cols[:, c]).reshape(shape),
                      out=out[:, c].reshape(shape))
            out[:, c] += self._PT @ y[:, c]
        return out.reshape(w.shape)


def condense(F):
    """E, R, Q^-1, the position in R of each triangle's rest (-1: none) and
    the Schur complement S = F_RR - F_RE Q^-1 F_ER of the :class:`ElementBlocks`
    F in canonical CSC, summed from S_T = D_T - C_T^T Q_T^-1 C_T and ``extra``
    in one COO pass.  That keeps every entry, 0.0 included (scipy's sparse +
    and - drop it), so the pattern, ordering and fill do not follow the
    rounding.  S_T is formed in F.D, a chunk of triangles at a time; F.Q and
    F.D are dropped once read."""
    E = F.groups.ravel().astype(np.int32)
    in_R = np.ones(F.n, dtype=bool)
    in_R[E] = False
    R = np.flatnonzero(in_R).astype(np.int32)
    at = np.full(F.n + 1, -1, dtype=np.int32)      # at[-1] stays -1
    at[R] = np.arange(R.size, dtype=np.int32)
    cols = at[F.rest]
    Qinv = _invert(F.Q, F.groups, F.definite)
    F.Q = None
    g, r = F.C.shape[1:]
    step = max(1, min(len(F.D), 8 * _CHUNK // (r * max(g, r))))
    QC, CQC = np.empty((step, g, r)), np.empty((step, r, r))     # made once
    for t in range(0, len(F.D), step):
        c = slice(t, t + step)
        n = len(F.D[c])
        np.matmul(Qinv[c], F.C[c], out=QC[:n])
        F.D[c] -= np.matmul(np.swapaxes(F.C[c], 1, 2), QC[:n], out=CQC[:n])
    rows, columns, values = F.extra
    coo = _coo(F.D, cols, cols, (at[rows], at[columns], values))
    F.D = None
    return E, R, Qinv, cols, sp.csc_matrix(coo, shape=(R.size, R.size))


def _coo(blocks, rows, cols, extra=((), (), ())):
    """COO (data, (i, j)) of the blocks (t, i, j) at (rows[t, i], cols[t, j])
    and the ``extra``, without entries in a row or column -1, filled a chunk
    of blocks at a time to keep temporaries small when there are any."""
    nt, a, b = blocks.shape
    size = blocks.size + len(extra[2])
    data, i, j = np.empty(size), np.empty(size, dtype=np.int32), np.empty(size, dtype=np.int32)
    if rows.min(initial=0) >= 0 and cols.min(initial=0) >= 0:
        # nothing to drop: every entry in place, with no temporaries
        k = blocks.size
        data[:k] = blocks.reshape(-1)
        i[:k].reshape(blocks.shape)[...] = rows[:, :, None]
        j[:k].reshape(blocks.shape)[...] = cols[:, None, :]
    else:
        k, step = 0, max(1, _CHUNK // (a * b))
        for t in range(0, nt, step):
            r, c, block = rows[t:t + step, :, None], cols[t:t + step, None, :], blocks[t:t + step]
            ok = (r >= 0) & (c >= 0)
            m = int(np.count_nonzero(ok))
            data[k:k + m] = block[ok]
            i[k:k + m] = np.broadcast_to(r, ok.shape)[ok]
            j[k:k + m] = np.broadcast_to(c, ok.shape)[ok]
            k += m
    m = k + len(extra[2])
    i[k:m], j[k:m], data[k:m] = extra
    return data[:m], (i[:m], j[:m])


def _invert(Q, groups, definite):
    """Q^-1 of every block, judged singular by factorize's rule with its exact
    inverse; for a ``definite`` F after scaling it to a unit diagonal, since
    theta M_T, alone on the diagonal of the velocity dofs, scales with the area."""
    try:
        Qinv = np.linalg.inv(Q)
    except np.linalg.LinAlgError:
        # LAPACK met an exactly zero pivot, the same one that makes det(Q_t) zero
        t = int(np.argmin(np.abs(np.linalg.det(Q))))
        raise SingularMatrixError(f"block of unknowns {groups[t].tolist()} is singular",
                                  kind="numerical") from None
    cond = np.empty(len(Q))
    step = max(1, _CHUNK // (Q.shape[1] * Q.shape[2]))
    for t in range(0, len(Q), step):
        c = slice(t, t + step)
        scaled = 1.0
        if definite:
            d = np.abs(np.diagonal(Q[c], axis1=1, axis2=2)) ** -0.5
            scaled = d[:, :, None] * d[:, None, :]
        cond[c] = (np.abs(Qinv[c] / scaled).sum(axis=1).max(axis=1)
                   * np.abs(Q[c] * scaled).max(axis=(1, 2)))
    if not np.all(cond < _COND_LIMIT):      # also a NaN or infinite inverse
        t = int(np.argmin(cond < _COND_LIMIT))
        raise SingularMatrixError(
            f"block of unknowns {groups[t].tolist()}: |Q^-1|_1 max|q| = {cond[t]:.3e} "
            f"reaches {_COND_LIMIT:.0e}", kind="numerical")
    return Qinv


def _inverse_norm1(solve, n):
    """An estimate of |F^-1|_1 for the symmetric F of order n that ``solve``
    inverts: Higham & Tisseur's Algorithm 2.4 (SIMAX 21, 2000) with one
    column, Hager's method.  It makes the solves, the stopping tests, the
    pick among equal maxima and the estimate of scipy's ``onenormest(t=1)``,
    bit for bit, in three vectors made once; F^-1 = F^-T, so one solve
    serves both products.  With n = 1 the first solve is exact, and a solve
    that is not finite ends it with a non-finite estimate, where scipy would
    go on."""
    x, y, s = np.full(n, 1.0 / n), np.empty(n), np.zeros(n)
    est_old, j = 0.0, None
    for k in range(1, _NORM_ITERATIONS + 2):    # pass _NORM_ITERATIONS + 1 returns
        np.abs(solve(x, out=y), out=x)
        est = sum(x[i:i + _NORM_PIECE].sum() for i in range(0, n, _NORM_PIECE))
        if n == 1 or not np.isfinite(est):
            return est
        if k >= 2 and est <= est_old:
            return est_old
        if k > _NORM_ITERATIONS:
            return est
        est_old = est
        np.greater_equal(y, 0.0, out=x)         # sign(y), with sign(0) = 1
        x *= 2.0
        x -= 1.0
        if np.array_equal(x, s):
            return est
        x, s = s, x
        z = np.abs(solve(s, out=y), out=y)
        i = int(np.argmax(z))
        if not np.isfinite(z[i]):
            return z[i]
        if np.count_nonzero(z == z[i]) > 1:
            i = int(np.argsort(z)[-1])          # scipy's pick among equal maxima
        if k >= 2 and z[i] == z[j]:
            return est
        j = i
        x[:] = 0.0
        x[j] = 1.0


def factorize(A):
    """Factorize a matrix with ``element_blocks()``, or a square symmetric
    scipy matrix (:meth:`ElementBlocks.whole`), for repeated solves.

    The matrix factorized is the Schur complement S of :func:`condense`
    (dirichlet (2,1) at N = 30: 16,561 of 38,161 unknowns, 1.58M entries in
    the factors against 11.4M for the whole matrix), and Q^-1 and the
    triangles' dense C_T are kept for the solves.  A pencil's
    ``element_blocks()`` releases A's and B's blocks, so while SuperLU runs
    only the permuted S, Q^-1, C_T and the forms' M and j are alive beside
    it.  An S condensed from element groups, at any shift, gets diagonal
    pivots in symmetric mode after a multiple minimum degree ordering of
    S + S^T (Grimes, Lewis & Simon, SIMAX 15, 1994), so its fill does not
    follow the rounding; SuperLU passes over the pin's zero diagonal.  A
    plain matrix gets partial pivoting and COLAMD.
    Both orderings start from a symmetric reverse Cuthill-McKee preorder
    (Cuthill & McKee 1969), since the dof numbering carries no mesh locality
    and the orderings break ties by position (dirichlet: 1.58M against 2.19M
    entries with MMD alone).  SuperLU runs with 8-column panels instead of
    its default 20 (Demmel et al., SIMAX 20, 1999), whose workspace grows
    with width times n; values above the defaults crashed scipy 1.17's
    SuperLU.

    Raises :class:`SingularMatrixError` for a non-square input or a row of S
    with no entry, a singular element block (see :func:`_invert`), and when
    the estimated 1-norm of F's inverse, taken through the condensed solve,
    times F's largest entry is not finite or reaches 1e12.  S's own estimate
    would grow as the smallest triangle's size to the power -2 (3e11 at 1e-5
    on a graded L-shape, where F's reads 6e2).  The estimate (Hager 1984;
    Higham & Tisseur 2000, one column, so deterministic) copies neither L
    nor U.  Raises ``ValueError`` for a nonsymmetric plain matrix.
    """
    F = A.element_blocks() if hasattr(A, "element_blocks") else ElementBlocks.whole(A)
    E, R, Qinv, cols, S = condense(F)
    n, amax, C = F.n, F.amax, F.C
    del F
    if not np.diff(S.indptr).all():
        row = int(R[np.argmin(np.diff(S.indptr))])
        raise SingularMatrixError(f"row {row} has no entry", kind="structural")
    if len(E):
        pivoting = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                        options=dict(SymmetricMode=True))
    else:
        pivoting = dict(permc_spec="COLAMD")
    perm = reverse_cuthill_mckee(S, symmetric_mode=True)
    order, size = R[perm], R.size
    del R
    # each triangle's rest in factorized order; one it lacks (-1) becomes
    # |R|, and its column of C_T 0.0, which the solve's gather relies on
    at = np.append(np.argsort(perm), size).astype(np.int32)
    cols = at[cols]
    np.copyto(C, 0.0, where=(cols == size)[:, None, :])
    # P S P^T: gather the columns, relabel and sort the rows; only this copy
    # of S stays alive during splu
    csc = S[:, perm]
    del S
    for k in range(0, csc.nnz, _CHUNK):
        csc.indices[k:k + _CHUNK] = at[csc.indices[k:k + _CHUNK]]
    csc.has_sorted_indices = False
    csc.sort_indices()
    del at
    try:
        lu = spla.splu(csc, panel_size=_PANEL_SIZE, **pivoting)
    except RuntimeError as exc:
        raise SingularMatrixError(f"factorization failed: {exc}", kind="numerical") from exc
    del csc
    # int32 while SuperLU runs; intp for the solves' take and bincount, which
    # would convert int32 indices on every call
    fact = Factorization(lu, perm, E, order, Qinv, C, cols.astype(np.intp))
    # F's own inverse: S^-1 alone grows with the mesh grading
    with np.errstate(over="ignore", invalid="ignore"):
        fact.condition = _inverse_norm1(fact.solve, n) * amax
    if not fact.condition < _COND_LIMIT:      # also a NaN or infinite estimate
        raise SingularMatrixError(
            f"estimated |A^-1|_1 max|a| = {fact.condition:.3e} reaches {_COND_LIMIT:.0e}",
            kind="numerical")
    return fact
