"""Assembly of the saddle-point eigenvalue pencil.

Blocks, in the order (stress, velocity, kernel-pinning multiplier):

* ``A``: (1/mu) integral of sym(xi) : sym(tau) over the domain, where sym is
  the symmetric part of the stress tensor (identical to removing the skew
  multiple of J = [[0, 1], [-1, 0]]).
* ``B``: integral of v . curl(tau), the scalar curl applied to each row.
* ``M``: velocity mass matrix.
* ``j``: integral of tau : J.  The constant-J direction, annihilated by both
  A and the curl, is removed by one single-entry multiplier row that pins a
  stress dof; adding a multiple of it afterwards makes j . sigma = 0.

The eigenvalue problem is K x = lambda N x with N = diag(0, -M, 0): its
finite eigenvalues are the discrete Stokes eigenvalues, all positive.  The
pencil keeps K at the origin of shift-invert, K - THETA0 N with THETA0 = -1,
as a view of the forms that assembles nothing: each triangle adds one dense
block F_T = [[A_T, B_T^T], [B_T, THETA0 M_T]] at its unknowns, and every view
reads F from these blocks.  Eliminating a triangle's velocity (and interior
stress) dofs from F_T leaves the edge-stress part of A - B^T M^-1 B / THETA0,
positive definite once the kernel is pinned.  A and B are kept once, as their
element blocks, made again after a release.  A and K are symmetric bit for
bit: each triangle's A block is kept as its upper triangle.

On an affine triangle every element block is a geometry tensor times a
reference tensor (the tensor representation of Kirby and Logg, ACM TOMS 32,
2006).  A's geometry tensor is det(B) B^-T (x) B^-T, 16 numbers per
triangle, and its reference tensor holds the reference integrals, 1/mu and
the trace terms of sym; B's and M's geometry tensors are 1 and det(B).
Each reference tensor is computed once, and the triangles are mapped a
chunk at a time.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, IOFailureError, is_finite
from .quadrature import quadrature
from .sparselin import _CHUNK, ElementBlocks
from .spaces import DofMap
from .refbasis import pk_reference_mass

J = np.array([[0.0, 1.0], [-1.0, 0.0]])
J.flags.writeable = False

# the pencil stores K - THETA0 N; every solve runs at unit viscosity, so one
# negative origin serves every shift at or below 0
THETA0 = -1.0


def skew_free_part(tau):
    """tau - 0.5 (tau : J) J, i.e. the symmetric part of tau (batched ok)."""
    tau = np.asarray(tau, dtype=float)
    tj = tau[..., 0, 1] - tau[..., 1, 0]
    return tau - 0.5 * tj[..., None, None] * J


@dataclass
class Forms:
    """The bilinear forms on the full (unconstrained) numbering: M in CSR, j,
    and the element blocks they are summed from.  A and B are kept only as
    their blocks: ``A_T`` holds the upper triangle, row by row (see
    :func:`upper_positions`), of each triangle's symmetric 2 nd x 2 nd block
    at its stress dofs ``dofmap.stress_gmap``, and ``B_T`` (nt, p, nd) is a
    triangle's block for either velocity component and its tensor row.  ``M_T``
    (2 nt, p, p) is the mass block of velocity component c of triangle t at
    2 t + c.  A's and B's blocks, the largest, are read-only and made on
    demand: :meth:`release` drops them, and the next read of ``A_T`` or
    ``B_T`` makes both again at viscosity ``mu`` (:func:`_ab_blocks`), bit
    for bit."""
    M: sp.csr_matrix
    j: np.ndarray
    dofmap: DofMap
    M_T: np.ndarray
    mu: float
    blocks: tuple | None = field(default=None, repr=False)    # (A_T, B_T) while alive

    A_T = property(lambda self: self._blocks()[0])
    B_T = property(lambda self: self._blocks()[1])

    def _blocks(self):
        if self.blocks is None:
            self.blocks = _ab_blocks(self.dofmap, self.mu)
        return self.blocks

    def release(self):
        """Drop A's and B's element blocks until they are read again."""
        self.blocks = None


@dataclass
class PencilLayout:
    """The pencil's numbering: the active stress dofs ``keep``, then n_u
    velocity dofs and n_c multipliers.  ``index`` is the pencil index of every
    stress dof (-1 for the constrained ones) and ``pin`` the stress dof that
    the multiplier row pins, where |z| is largest (None without a kernel);
    both are computed once, when the layout is made."""
    n_sigma_full: int
    keep: np.ndarray          # active stress dofs (full numbering)
    n_u: int
    n_c: int
    kernel: tuple | None = None   # (z, j) when a multiplier pins the kernel z
    index: np.ndarray = field(init=False, repr=False)
    pin: int | None = field(init=False)

    def __post_init__(self):
        self.index = np.full(self.n_sigma_full, -1, dtype=np.int32)
        self.index[self.keep] = np.arange(len(self.keep), dtype=np.int32)
        self.pin = None if self.kernel is None else int(np.argmax(np.abs(self.kernel[0])))

    @property
    def n_sigma_active(self):
        return len(self.keep)

    @property
    def size(self):
        return self.n_sigma_active + self.n_u + self.n_c

    @property
    def velocity(self):
        """The velocity slice of a pencil vector."""
        return slice(self.n_sigma_active, self.n_sigma_active + self.n_u)

    def split(self, x):
        """Split a pencil vector into (sigma_full, u), with j . sigma_full = 0."""
        ns, nu = self.n_sigma_active, self.n_u
        sigma = np.zeros(self.n_sigma_full, dtype=x.dtype)
        sigma[self.keep] = x[:ns]
        if self.kernel is not None:
            z, j = self.kernel
            sigma -= (j @ sigma) / (j @ z) * z
        return sigma, x[ns:ns + nu].copy()


class PencilMatrix:
    """F = K - theta N = [[A, B^T, p^T], [B, theta M, 0], [p, 0, 0]] on the
    pencil's numbering (p the pin row), kept as the forms it is made of.

    Nothing is assembled.  Each triangle adds one dense block F_T = [[A_T,
    B_T^T], [B_T, theta M_T]] at its unknowns (:func:`_unknowns`), laid out
    once (:func:`_element_layout`), and every view reads F from these blocks,
    a chunk of triangles at a time (:func:`_element_matrices`): ``matvec``
    multiplies with them, :meth:`element_blocks` hands ``factorize`` their
    slices, and ``sp`` (and ``nnz``) sums their rows into CSR on each call
    (:func:`_rows`).  ``norm_inf()`` and the largest entry ``amax`` are those
    of ``sp``, bit for bit, read when the view is built: the norm sums, as
    ``abs(sp).sum(axis=1)`` does, only the rows whose bound reaches the exact
    sum of the row with the largest bound, less 1e-10 of it.  The bounds'
    theta-free part (:func:`_row_bounds`) is read once and shared by every
    view that :meth:`at` makes.
    """

    def __init__(self, forms, layout, theta):
        self.forms, self.layout = forms, layout
        self.shape = (layout.size, layout.size)
        self.bounds = _row_bounds(forms, layout)
        vars(self).update(vars(self.at(theta)))     # theta and the reads at() makes

    nnz = property(lambda self: self.sp.nnz)

    def at(self, theta):
        """K - theta N of the same pencil: theta moves only the velocity rows,
        whose bounds gain |theta| times their sums of |M|, and max|M| times
        |theta| joins the largest entry."""
        view, lay = copy.copy(self), self.layout
        bound, msum, amax, mmax = self.bounds
        bound = bound.copy()
        bound[lay.velocity] += abs(theta) * msum
        view.theta, view.amax = theta, max(amax, abs(theta) * mmax)
        top = abs(_rows(self.forms, lay, theta, [np.argmax(bound)])).sum()
        rows = np.flatnonzero(bound >= top * (1.0 - 1e-10))
        view._norm = float(abs(_rows(self.forms, lay, theta, rows)).sum(axis=1).max())
        return view

    @property
    def sp(self):
        """F in canonical CSR, built on each call."""
        return _rows(self.forms, self.layout, self.theta, np.arange(self.layout.size))

    def norm_inf(self):
        return self._norm

    def matvec(self, x):
        """F x for a vector or a block of columns x: each triangle's F_T times
        x at its unknowns, summed back through their incidence, and the pin."""
        f, lay = self.forms, self.layout
        pos = _element_layout(f.dofmap.ned.dim, f.dofmap.pk.dim)
        U, cols = _unknowns(f.dofmap, lay), x.reshape(lay.size, -1)
        local = np.empty(U.shape + cols.shape[1:])
        F = gathered = None
        for c, packed in _element_matrices(f, self.theta):
            m = len(packed)
            if F is None:       # buffers made once, at the first chunk, the largest
                F, gathered = np.empty((m,) + pos.shape), np.empty((m,) + local.shape[1:])
            np.take(packed, pos, axis=1, out=F[:m], mode="clip")     # "clip": unbuffered
            np.take(cols, U[c], axis=0, out=gathered[:m], mode="wrap")
            gathered[:m][U[c] < 0] = 0.0        # a constrained stress dof (-1) reads 0
            np.matmul(F[:m], gathered[:m], out=local[c])
        m = U.size          # a constrained dof adds to row lay.size, dropped
        incidence = sp.csc_matrix((np.ones(m), U.ravel() % (lay.size + 1), np.arange(m + 1)),
                                  (lay.size + 1, m))
        y = (incidence @ local.reshape(m, -1))[:-1]
        if lay.n_c:
            y[lay.pin] += x[-1]
            y[-1] = x[lay.pin]
        return y.reshape(x.shape)

    def element_blocks(self):
        """F by triangles (:class:`ElementBlocks`), Q, C and D the slices of
        each F_T at its group and rest: its group is its interior stress dofs
        (both tensor rows) and all of its velocity dofs, which are
        discontinuous; its rest is its edge stress dofs, and the pin lies
        outside every triangle.  It releases A's and B's blocks
        (:meth:`Forms.release`) once it has read them."""
        f, lay, dofmap = self.forms, self.layout, self.forms.dofmap
        nt, nd, p = dofmap.mesh.num_triangles, dofmap.ned.dim, dofmap.pk.dim
        ne = nd - dofmap.interior_dofs_per_tri
        pos = _element_layout(nd, p)
        stress = np.arange(2 * nd).reshape(2, nd)       # each tensor row's edge dofs first
        edge, group = stress[:, :ne].ravel(), np.append(stress[:, ne:], range(2 * nd, len(pos)))
        views = pos[group][:, group], pos[group][:, edge], pos[edge][:, edge]
        blocks = [np.empty((nt,) + view.shape) for view in views]
        for c, packed in _element_matrices(f, self.theta):
            for block, view in zip(blocks, views):
                np.take(packed, view, axis=1, out=block[c], mode="clip")
        f.release()
        U, pin = _unknowns(dofmap, lay), np.array([lay.pin, lay.size - 1][:2 * lay.n_c], dtype=int)
        return ElementBlocks(lay.size, U[:, group], U[:, edge], *blocks,
                             (pin, pin[::-1], np.ones(len(pin))), self.amax, self.theta < 0)


@dataclass
class Pencil:
    """Matrix pair (K - theta0 N, N) whose finite eigenvalues plus theta0
    solve the discrete problem.  ``K`` is the view :class:`PencilMatrix` of
    the forms at theta0, and everything else is read from it; N = diag(0,
    -M, 0) is built on each read."""
    K: PencilMatrix

    @property
    def theta0(self):
        return self.K.theta

    @property
    def forms(self):
        return self.K.forms

    @property
    def layout(self):
        return self.K.layout

    @property
    def dofmap(self):
        return self.K.forms.dofmap

    @property
    def N(self):
        lay = self.layout
        return sp.block_diag((sp.csr_matrix((lay.n_sigma_active,) * 2), -self.forms.M,
                              sp.csr_matrix((lay.n_c, lay.n_c))), format="csr")


def _quad_degree(dofmap):
    return 2 * max(dofmap.ned.degree, dofmap.pk.degree) + 2


def _unknowns(dofmap, layout):
    """Each triangle's pencil unknowns, (nt, 2 nd + 2 p), in the order of its
    F_T: its stress dofs of tensor row 0, then of row 1 (-1 for a constrained
    dof), then its velocity dofs of component 0, then of component 1.  It is
    int32, as ``layout.index`` is, so that every view's copy is half the size."""
    nt = dofmap.mesh.num_triangles
    velocity = np.arange(layout.n_sigma_active, layout.size - layout.n_c, dtype=np.int32)
    return np.hstack([layout.index[dofmap.stress_gmap].reshape(nt, -1), velocity.reshape(nt, -1)])


@functools.cache
def _element_layout(nd, p):
    """Where each entry of a triangle's F_T = [[A_T, B_T^T], [B_T, theta M_T]]
    lies in its packed row [A_T | B_T | theta M_T | 0] (:func:`_element_matrices`):
    A_T's upper triangle row by row, B_T (p, nd) row by row, then M_T of
    velocity component 0 and of component 1.  Tensor row r meets velocity
    component r only; where it meets the other, F_T reads the trailing 0."""
    na = nd * (2 * nd + 1)
    pos = np.full((2 * (nd + p),) * 2, na + p * nd + 2 * p * p)
    pos[:2 * nd, :2 * nd] = upper_positions(2 * nd)
    b = na + np.arange(p * nd).reshape(p, nd)
    m = na + p * nd + np.arange(2 * p * p).reshape(2, p, p)
    for c in range(2):
        row, vel = slice(c * nd, (c + 1) * nd), slice(2 * nd + c * p, 2 * nd + (c + 1) * p)
        pos[vel, row], pos[row, vel], pos[vel, vel] = b, b.T, m[c]
    pos.flags.writeable = False
    return pos


def _element_matrices(forms, theta, triangles=None):
    """The F_T of ``triangles`` (default: all, in order), a chunk at a time:
    yields (c, packed) for each slice c of them, row k of ``packed`` holding
    the packed row [A_T | B_T | theta M_T | 0] of triangle ``triangles[c][k]``,
    so that ``packed[k, _element_layout(nd, p)]`` is its F_T.  ``packed`` is
    one buffer, filled anew for each chunk."""
    nt, p, nd = forms.B_T.shape
    a, b, m = forms.A_T, forms.B_T.reshape(nt, -1), forms.M_T.reshape(nt, -1)
    count = nt if triangles is None else len(triangles)
    step = max(1, 8 * _CHUNK // (2 * (nd + p)) ** 2)
    na, nb = a.shape[1], a.shape[1] + b.shape[1]
    buffer = np.zeros((min(step, count), nb + m.shape[1] + 1))
    for s in range(0, count, step):
        c = slice(s, s + step)
        t = c if triangles is None else triangles[c]
        packed = buffer[:min(step, count - s)]
        packed[:, :na], packed[:, na:nb] = a[t], b[t]
        np.multiply(theta, m[t], out=packed[:, nb:-1])
        yield c, packed


def _rows(forms, layout, theta, rows):
    """F's rows ``rows`` (ascending pencil indices) in canonical CSR without
    exact zeros: the rows of the F_T that hold them, at their triangles'
    unknowns and summed, and the pin's entries."""
    lay = layout
    U = _unknowns(forms.dofmap, lay)
    at = np.full(lay.size + 1, -1)          # at[-1] stays -1: a constrained dof
    at[rows] = np.arange(len(rows))
    t, loc = np.nonzero(at[U] >= 0)
    pos = _element_layout(forms.dofmap.ned.dim, forms.dofmap.pk.dim)
    # each of the pin's (row, column)s in ``rows`` takes one more row of
    # vals and cols, 1.0 in its first slot: nothing is copied to append it
    ends = np.array([lay.pin, lay.size - 1][:2 * lay.n_c], dtype=int)
    ends = np.stack([ends, ends[::-1]])[:, at[ends] >= 0]
    n = len(t)
    vals = np.empty((n + ends.shape[1], len(pos)))
    cols = np.empty(vals.shape, dtype=U.dtype)
    vals[n:], cols[n:] = 0.0, -1
    vals[n:, 0], cols[n:, 0] = 1.0, ends[1]
    tri, inv = np.unique(t, return_inverse=True)      # t ascends, and so does inv
    for c, packed in _element_matrices(forms, theta, tri):
        k = slice(*np.searchsorted(inv, [c.start, c.stop]))
        vals[k] = packed[inv[k, None] - c.start, pos[loc[k]]]
    np.take(U, t, axis=0, out=cols[:n])
    keep = (cols >= 0) & (vals != 0.0)
    i = np.broadcast_to(np.append(at[U[t, loc]], at[ends[0]])[:, None], keep.shape)[keep]
    csr = sp.csr_matrix((vals[keep], (i, cols[keep])), shape=(len(rows), lay.size))
    csr.eliminate_zeros()
    return csr


def _row_bounds(forms, layout):
    """The theta-free part of F's reads, from the packed blocks: a bound on
    the absolute sum of each row of F at theta = 0, the velocity rows' sums
    of |M| (in velocity order), F's largest |entry| at theta = 0, and max|M|.

    A row's absolute sum is at most the sum of its F_T rows' absolute
    entries, one product of the packed rows a chunk at a time.  A is a Gram
    matrix, so |a_ij| <= sqrt(a_ii a_jj) and its largest |entry| is its
    largest diagonal entry, a sum of at most two triangles' entries, whose
    order does not move its bits; B's entries at the active dofs and the
    pin's are F's own."""
    lay = layout
    nt, p, nd = forms.B_T.shape
    pos = _element_layout(nd, p)
    incidence = np.zeros((pos.max() + 1, len(pos)))       # packed entry s in row i of F_T
    np.add.at(incidence, (pos, np.arange(len(pos))[:, None]), 1.0)
    local = np.empty((nt, len(pos)))
    for c, packed in _element_matrices(forms, 0.0):
        np.matmul(np.abs(packed), incidence, out=local[c])
    U = _unknowns(forms.dofmap, lay)
    on = U >= 0
    bound = np.bincount(U[on], local[on], minlength=lay.size)
    stress, active = U[:, :2 * nd], on[:, :2 * nd]
    diag = np.bincount(stress[active], forms.A_T[:, pos.diagonal()[:2 * nd]][active])
    b = np.tile(np.abs(forms.B_T).max(axis=1), 2)[active]
    amax = max(float(diag.max(initial=0.0)), float(b.max(initial=0.0)), float(lay.n_c))
    bound[[lay.pin, -1][:2 * lay.n_c]] += 1.0
    m = np.abs(forms.M_T)
    return bound, m.sum(axis=2).ravel(), amax, float(m.max(initial=0.0))


def assemble_forms(mesh, dofmap, mu=1.0):
    """Assemble A's and B's element blocks, M and the constraint vector j."""
    if not (is_finite(mu) and mu > 0):
        raise AssemblyError(f"viscosity must be finite and positive, got {mu!r}")
    nt, nd, p = mesh.num_triangles, dofmap.ned.dim, dofmap.pk.dim
    jvals = np.empty((nt, 2, nd))
    blocks = _ab_blocks(dofmap, mu, jvals)
    jvec = np.bincount(dofmap.stress_gmap.ravel(), jvals.ravel(), minlength=dofmap.n_sigma)
    del jvals

    # velocity mass: det-scaled reference Gram, block diagonal, so its CSR
    # rows are its blocks' rows, p entries each at the block's own dofs, and
    # its data is M_T's buffer
    _, _, det = mesh.affine_maps
    mblock = np.empty((2 * nt, p, p))
    np.multiply(det[:, None, None], pk_reference_mass(dofmap.pk.order), out=mblock[0::2])
    mblock[1::2] = mblock[0::2]
    cols = np.broadcast_to(np.arange(dofmap.n_u, dtype=np.int32).reshape(2 * nt, 1, p),
                           mblock.shape)
    M = sp.csr_matrix((mblock.reshape(-1), cols.ravel(),
                       np.arange(0, mblock.size + 1, p, dtype=np.int32)), shape=(dofmap.n_u,) * 2)
    return Forms(M, jvec, dofmap, mblock, mu, blocks)


def _ab_blocks(dofmap, mu, jvals=None):
    """A's packed element blocks and B's, read-only, on the dofmap's mesh;
    the per-triangle values of j go to ``jvals`` when it is given."""
    ned, pk, mesh = dofmap.ned, dofmap.pk, dofmap.mesh
    rule = quadrature(_quad_degree(dofmap))
    w = rule.weights
    vhat = ned.eval(rule.points)          # (nd, q, 2)
    nt, nd = mesh.num_triangles, ned.dim
    _, _, det = mesh.affine_maps
    _, BinvT = mesh.inv_maps
    signs = dofmap.vec_signs

    # stress-stress and the constraint, a chunk of triangles at a time.  The
    # physical basis function d is sign_d B^-T vhat_d, so a triangle's packed
    # A block is its geometry tensor G = det B^-T (x) B^-T, 16 numbers, times
    # the reference tensor of :func:`_stiffness_reference`, and its j values,
    # the integrals of (e_r x phi_d) : J = phi_d[1] (r = 0), -phi_d[0] (r = 1),
    # are det B^-T times the reference integrals of vhat; both times the
    # signs, A's entry (d, f) by the product sign_d sign_f, +-1 and exact
    X = _stiffness_reference(np.einsum("dqi,fqj,q->dfij", vhat, vhat, w), mu)
    d, f = (x % nd for x in np.triu_indices(2 * nd))
    df = d * nd + f                     # entry (d, f) of sign_d sign_f, row by row
    vbar = np.einsum("dqi,q->id", vhat, w)
    ablock = np.empty((nt, len(df)))
    step = max(1, 2 * _CHUNK // len(df))
    for t in range(0, nt, step):
        c = slice(t, t + step)
        detB = det[c, None, None] * BinvT[c]
        G = detB[:, :, None, :, None] * BinvT[c, None, :, None, :]
        a = np.matmul(G.reshape(-1, 16), X, out=ablock[c])
        a *= (signs[c, :, None] * signs[c, None, :]).reshape(len(a), -1)[:, df]
        if jvals is not None:
            phi = (detB.reshape(-1, 2) @ vbar).reshape(-1, 2, nd)
            np.multiply(phi[:, ::-1], signs[c, None], out=jvals[c])
            np.negative(jvals[c, 1], out=jvals[c, 1])

    # velocity x curl(stress): the 1/det of the curl cancels the det of the
    # volume element, and row r of the tensor drives component r only.  The
    # entries are fixed by the dofs (commuting diagram); what quadrature
    # leaves below 1e-12 of the largest is rounding of exact zeros.
    bhat = np.einsum("pq,dq,q->pd", pk.eval(rule.points), ned.eval_curl(rule.points), w)
    bhat[np.abs(bhat) < 1e-12 * np.abs(bhat).max()] = 0.0
    bblock = bhat[None] * signs[:, None, :]
    ablock.flags.writeable = bblock.flags.writeable = False
    return ablock, bblock


def _stiffness_reference(R, mu):
    """The reference tensor X, (16, packed entries), of A's blocks: a block's
    upper triangle, row by row, is G X for the geometry tensor G[a, b, i, j]
    = det B^-T[a, i] B^-T[b, j] of its triangle, times the dofs' signs.

    R[d, f, i, j] is the reference integral of vhat_d[i] vhat_f[j], so C_df
    = G : R_df is the integral of phi_d phi_f^T (signs aside), and entry
    ((r, d), (s, f)), the integral of sym(e_r phi_d^T) : sym(e_s phi_f^T) / mu,
    is 0.25 (delta_rs tr (C_df + C_fd) + C_df[s, r] + C_fd[r, s]) / mu."""
    nd = len(R)
    (r, d), (s, f) = (np.divmod(x, nd) for x in np.triu_indices(2 * nd))
    e, Rdf, Rfd = np.eye(2), R[d, f], R[f, d]
    X = (np.einsum("pa,pb,pij->abijp", e[s], e[r], Rdf)
         + np.einsum("pa,pb,pij->abijp", e[r], e[s], Rfd)
         + np.einsum("p,ab,pij->abijp", r == s, e, Rdf + Rfd))
    X *= 0.25 / mu
    return X.reshape(16, -1)


def upper_positions(n):
    """Position of every entry (i, j) of a symmetric n x n matrix in its upper
    triangle stored row by row, as ``np.triu_indices(n)`` lists it."""
    at = np.zeros((n, n), dtype=np.intp)
    at[np.triu_indices(n)] = np.arange(n * (n + 1) // 2)
    return at + np.triu(at, 1).T


def build_pencil(forms):
    """The pencil (K - THETA0 N, N) of the forms, with the constraints applied.

    With all-Dirichlet boundary conditions the constant-J interpolant z
    (A z = B z = 0) spans the kernel left in the stress.  One multiplier row
    with a single entry pins the stress dof where |z| is largest, and
    :meth:`PencilLayout.split` restores the zero mean of sigma : J by adding a
    multiple of z.  That dof is always an edge dof: on every triangle each
    interior moment of J is at most half the triangle's largest edge moment,
    so the pin never falls in an element group.  With mixed conditions the
    Neumann tangential-trace dofs are eliminated instead and no multiplier is
    needed.  Nothing is assembled: K is a view of the forms.
    """
    dofmap = forms.dofmap
    n_sigma = dofmap.n_sigma
    if dofmap.has_mean_constraint:
        layout = PencilLayout(n_sigma, np.arange(n_sigma), dofmap.n_u, 1,
                              (_constant_j_interpolant(dofmap), forms.j))
    else:
        free = np.ones(n_sigma, dtype=bool)
        free[dofmap.constrained] = False
        layout = PencilLayout(n_sigma, np.flatnonzero(free), dofmap.n_u, 0)
    return Pencil(PencilMatrix(forms, layout, THETA0))


def _constant_j_interpolant(dofmap):
    """Interpolant of the constant field J.  Its pull-back B^T J_r is constant
    on each triangle and the dofs are linear in it, so the reference dofs of
    the two unit constant fields, taken once, give every triangle's."""
    unit = dofmap.ned.dof_values(lambda pts: np.broadcast_to(np.eye(2)[:, None], (2, len(pts), 2)))
    z = np.zeros(dofmap.n_sigma)
    z[dofmap.stress_gmap] = dofmap.vec_signs[:, None] * (J @ dofmap.mesh.affine_maps[0] @ unit)
    return z


def export_matrix(matrix, path):
    """Dump a scipy sparse matrix as 'i j value' lines (debug aid)."""
    coo = matrix.tocoo()
    try:
        with open(path, "w") as fp:
            fp.writelines(f"{i} {j} {v:.17g}\n"
                          for i, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
    except OSError as exc:
        raise IOFailureError(f"cannot write matrix to {path}: {exc}") from exc
