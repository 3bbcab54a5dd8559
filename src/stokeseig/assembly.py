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
whose velocity block is THETA0 M, as a view of the forms that assembles
nothing: eliminating each triangle's velocity (and interior stress) dofs
from its element blocks leaves the edge-stress part of
A - THETA0^-1 B^T M^-1 B, which is positive definite once the kernel is
pinned.  A and B are kept once, as their element blocks, made again after
a release; their CSR, and K's, are built only when asked for.  A and K are
symmetric bit for bit: each triangle's A block is kept as its upper triangle.

On an affine triangle every element block is a geometry tensor times a
reference tensor (the tensor representation of Kirby and Logg, ACM TOMS 32,
2006).  A's geometry tensor is det(B) B^-T (x) B^-T, 16 numbers per
triangle, and its reference tensor holds the reference integrals, 1/mu and
the trace terms of sym; B's and M's geometry tensors are 1 and det(B).
Each reference tensor is computed once, and the triangles are mapped a
chunk at a time.
"""

from __future__ import annotations

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
    at its stress dofs ``dofmap.stress_gmap``, ``B_T`` (nt, p, nd) is a
    triangle's block for either velocity component and its tensor row, and
    :attr:`A` and :attr:`B` sum them into CSR on each read.  ``M_T``
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

    @property
    def A(self):
        """A in canonical CSR, summed from ``A_T`` on each read."""
        n, sd = self.dofmap.n_sigma, self.dofmap.stress_gmap.reshape(len(self.A_T), -1)
        return _scatter((n, n), self.A_T[:, upper_positions(sd.shape[1])], sd, sd)

    @property
    def B(self):
        """B in canonical CSR, summed from ``B_T`` on each read."""
        dofmap, rows = self.dofmap, 2 * len(self.B_T)
        return _scatter((dofmap.n_u, dofmap.n_sigma), np.repeat(self.B_T, 2, axis=0),
                        np.arange(dofmap.n_u).reshape(rows, -1),
                        dofmap.stress_gmap.reshape(rows, -1))


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

    Nothing is assembled: ``matvec`` multiplies with A's and B's element
    blocks and with M, :meth:`element_blocks` hands ``factorize`` each
    triangle's blocks, and ``sp`` builds the CSR on each call, as does
    ``nnz``.  ``norm_inf()`` and the largest entry ``amax`` are those of
    ``sp``, bit for bit, read when the view is built: the stress rows'
    from a row-sum bound and A's diagonal (:func:`_stress_reads`), the
    velocity and multiplier rows' from their CSR (:func:`_other_rows`); the
    norm sums each row the way ``abs(sp).sum(axis=1)`` does.  The stress
    rows do not depend on theta, so :meth:`at` reuses their reads.
    """

    def __init__(self, forms, layout, theta, stress_reads=None):
        self.forms, self.layout, self.theta = forms, layout, theta
        self.shape = (layout.size, layout.size)
        self._stress_reads = (_stress_reads(forms, layout) if stress_reads is None
                              else stress_reads)
        other = _other_rows(forms, layout, theta)
        norm, amax = self._stress_reads
        self._norm = max(norm, float(_row_sums(other).max(initial=0.0)))
        self.amax = max(amax, float(np.abs(other.data).max(initial=0.0)))

    nnz = property(lambda self: self.sp.nnz)

    def at(self, theta):
        """K - theta N of the same pencil."""
        return PencilMatrix(self.forms, self.layout, theta, self._stress_reads)

    @property
    def sp(self):
        """F in canonical CSR, built on each call."""
        rows = np.arange(self.layout.n_sigma_active)
        return sp.vstack([_stress_rows(self.forms, self.layout, rows),
                          _other_rows(self.forms, self.layout, self.theta)], format="csr")

    def norm_inf(self):
        return self._norm

    def matvec(self, x):
        """F x for a vector or a block of columns x: A sigma + B^T u + p^T c,
        B sigma + theta M u and p sigma, A and B triangle by triangle
        (:func:`_element_product`)."""
        f, lay = self.forms, self.layout
        ns, vel = lay.n_sigma_active, lay.velocity
        if ns == lay.n_sigma_full:
            sigma = x[:ns]
        else:
            sigma = np.zeros((lay.n_sigma_full,) + x.shape[1:])
            sigma[lay.keep] = x[:ns]
        y = np.empty(x.shape)
        stress, y[vel] = _element_product(f, sigma, x[vel])
        np.take(stress, lay.keep, axis=0, out=y[:ns], mode="clip")     # "clip": unbuffered
        del stress
        if self.theta:
            Mu = f.M @ x[vel]
            Mu *= self.theta
            y[vel] += Mu
        if lay.n_c:
            y[lay.pin] += x[-1]
            y[-1] = x[lay.pin]
        return y

    def element_blocks(self):
        """F by triangles (:class:`ElementBlocks`): each triangle's group is
        its interior stress dofs (both tensor rows) and all of its velocity
        dofs, which are discontinuous; its rest is its edge stress dofs, and
        the pin lies outside every triangle.  It releases A's and B's blocks
        (:meth:`Forms.release`) once it has read them."""
        f, lay, dofmap = self.forms, self.layout, self.forms.dofmap
        nt, nd, p = dofmap.mesh.num_triangles, dofmap.ned.dim, dofmap.pk.dim
        ni = dofmap.interior_dofs_per_tri
        ne = nd - ni
        local = np.arange(2 * nd).reshape(2, nd)
        inner, edge = local[:, ne:].ravel(), local[:, :ne].ravel()
        up = upper_positions(2 * nd)
        a, b = f.A_T, f.B_T
        # Q_T = [[A_II, B_I^T], [B_I, theta M_T]], C_T = [A_IE; B_E]: velocity
        # component c sees tensor row c only
        Q = np.zeros((nt, 2 * (ni + p), 2 * (ni + p)))
        C = np.zeros((nt, 2 * (ni + p), 2 * ne))
        Q[:, :2 * ni, :2 * ni] = a[:, up[inner[:, None], inner]]
        C[:, :2 * ni] = a[:, up[inner[:, None], edge]]
        for c in range(2):
            vel = slice(2 * ni + c * p, 2 * ni + (c + 1) * p)
            Q[:, vel, c * ni:(c + 1) * ni] = b[:, :, ne:]
            Q[:, c * ni:(c + 1) * ni, vel] = np.swapaxes(b[:, :, ne:], 1, 2)
            Q[:, vel, vel] = self.theta * f.M_T[c::2]
            C[:, vel, c * ne:(c + 1) * ne] = b[:, :, :ne]
        D = a[:, up[edge[:, None], edge]]
        f.release()
        stress = lay.index[dofmap.stress_gmap]
        velocity = lay.n_sigma_active + np.arange(lay.n_u).reshape(nt, 2 * p)
        mult = lay.size - 1
        extra = (np.array([lay.pin, mult] if lay.n_c else [], dtype=int),
                 np.array([mult, lay.pin] if lay.n_c else [], dtype=int), np.ones(2 * lay.n_c))
        return ElementBlocks(
            lay.size, np.hstack([stress[:, :, ne:].reshape(nt, -1), velocity]),
            stress[:, :, :ne].reshape(nt, -1), Q, C, D, extra,
            self.amax, self.theta < 0)


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
    return min(10, 2 * max(dofmap.ned.degree, dofmap.pk.degree) + 2)


def _scatter(shape, blocks, rows, cols):
    """Sum element blocks (e, m, n) at global rows (e, m) and columns (e, n),
    without the entries that are exactly zero."""
    r = np.broadcast_to(rows[:, :, None], blocks.shape).ravel()
    c = np.broadcast_to(cols[:, None, :], blocks.shape).ravel()
    mat = sp.coo_matrix((blocks.ravel(), (r, c)), shape=shape).tocsr()
    mat.eliminate_zeros()
    return mat


def _stress_rows(forms, layout, rows):
    """F's stress rows ``rows`` (ascending pencil indices) [A | B^T | p^T] in
    canonical CSR without exact zeros, summed from the blocks of the
    triangles that meet them."""
    lay = layout
    nt, p, nd = forms.B_T.shape
    sd = lay.index[forms.dofmap.stress_gmap].reshape(nt, 2 * nd)
    at = np.full(lay.n_sigma_active + 1, -1)            # at[-1] stays -1
    at[rows] = np.arange(len(rows))
    t, loc = np.nonzero(at[sd] >= 0)
    row = at[sd[t, loc]]
    # tensor row r of a triangle's stress dofs meets its velocity component r
    vel = lay.n_sigma_active + (2 * t + loc // nd)[:, None] * p + np.arange(p)
    ok = sd[t] >= 0
    i = [np.broadcast_to(row[:, None], ok.shape)[ok], np.repeat(row, p)]
    j = [sd[t][ok], vel.ravel()]
    data = [forms.A_T[t[:, None], upper_positions(2 * nd)[loc]][ok],
            forms.B_T[t, :, loc % nd].ravel()]
    if lay.n_c and at[lay.index[lay.pin]] >= 0:
        i, j, data = i + [[at[lay.index[lay.pin]]]], j + [[lay.size - 1]], data + [[1.0]]
    csr = sp.csr_matrix((np.concatenate(data), (np.concatenate(i), np.concatenate(j))),
                        shape=(len(rows), lay.size))
    csr.eliminate_zeros()
    return csr


def _row_sums(csr):
    """The absolute sums of the non-empty rows of a CSR, summed as
    ``abs(csr).sum(axis=1)`` sums them."""
    starts = csr.indptr[:-1]
    return np.add.reduceat(np.abs(csr.data), starts[np.diff(csr.indptr) > 0])


def _stress_reads(forms, layout):
    """The largest absolute row sum of F's stress rows [A | B^T | p^T] and
    the largest |entry| of A and p, without building every row.

    A row's absolute sum is at most the sum of its triangles' absolute
    entries, so only the rows whose bound reaches the exact sum of the row
    with the largest bound, less 1e-10 of it, are built in CSR and summed
    as ``abs(csr).sum(axis=1)`` sums them: the norm is exact.  A is a Gram
    matrix, so |a_ij| <= sqrt(a_ii a_jj) and its largest |entry| is its
    largest diagonal entry, a sum of at most two triangles' entries, whose
    order does not move its bits."""
    lay = layout
    nt, p, nd = forms.B_T.shape
    sd = lay.index[forms.dofmap.stress_gmap].reshape(nt, 2 * nd)
    on = sd >= 0
    # packed entry (i, j) of a triangle's block lies in its rows i and j;
    # |A_T| a chunk of triangles at a time
    iu, ju = np.triu_indices(2 * nd)
    incidence = np.zeros((len(iu), 2 * nd))
    incidence[np.arange(len(iu)), iu] = incidence[np.arange(len(iu)), ju] = 1.0
    bound = np.tile(np.abs(forms.B_T).sum(axis=1), 2)
    step = max(1, 2 * _CHUNK // len(iu))
    for t in range(0, nt, step):
        bound[t:t + step] += np.abs(forms.A_T[t:t + step]) @ incidence
    bound = np.bincount(sd[on], bound[on], minlength=lay.n_sigma_active)
    diag = np.bincount(sd[on], forms.A_T[:, iu == ju][on], minlength=lay.n_sigma_active)
    amax = max(float(diag.max(initial=0.0)), float(lay.n_c))
    if lay.n_c:
        bound[lay.index[lay.pin]] += 1.0
    top = _row_sums(_stress_rows(forms, lay, [np.argmax(bound)]))[0]
    csr = _stress_rows(forms, lay, np.flatnonzero(bound >= top * (1.0 - 1e-10)))
    return float(_row_sums(csr).max()), amax


def _other_rows(forms, layout, theta):
    """F's velocity and multiplier rows [B | theta M | 0] and [p | 0 | 0] in
    canonical CSR without exact zeros, laid out straight from the blocks: a
    velocity row holds its triangle's B block at the active stress dofs of
    its component, then its theta M block."""
    lay = layout
    nt, p, nd = forms.B_T.shape
    vel = lay.n_sigma_active + np.arange(lay.n_u).reshape(nt, 2, 1, p)
    cols = np.concatenate([lay.index[forms.dofmap.stress_gmap][:, :, None], vel], axis=3)
    vals = np.empty((nt, 2, p, nd + p))
    vals[..., :nd] = forms.B_T[:, None]
    np.multiply(theta, forms.M_T.reshape(nt, 2, p, p), out=vals[..., nd:])
    keep = (vals != 0.0) & (cols >= 0)
    counts = np.append(np.count_nonzero(keep, axis=3).ravel(), [1] * lay.n_c)
    csr = sp.csr_matrix((np.append(vals[keep], [1.0] * lay.n_c),
                         np.append(np.broadcast_to(cols, vals.shape)[keep], [lay.pin] * lay.n_c),
                         np.concatenate([[0], np.cumsum(counts)])),
                        shape=(lay.n_u + lay.n_c, lay.size))
    csr.sort_indices()
    return csr


def _element_product(forms, sigma, u):
    """(A sigma + B^T u, B sigma) for vectors or blocks of columns sigma (full
    stress numbering) and u, triangle by triangle: sigma gathered at each
    triangle's stress dofs, multiplied by its blocks, A's unpacked a chunk
    of triangles at a time, and the stress part summed back through the
    dofs' incidence.  Tensor row r of a triangle meets its velocity
    component r only."""
    nt, p, nd = forms.B_T.shape
    sd = forms.dofmap.stress_gmap.reshape(nt, -1)
    up = upper_positions(2 * nd)
    cols = sigma.reshape(len(sigma), -1)
    k = cols.shape[1]
    vel = u.reshape(nt, 2, p, k)
    local, Bs = np.empty(sd.shape + (k,)), np.empty(vel.shape)
    # the unpacked blocks and the gathered columns go to buffers made once
    step = max(1, min(nt, 8 * _CHUNK // up.size))
    blocks, gathered = np.empty((step,) + up.shape), np.empty((step, 2 * nd, k))
    for t in range(0, nt, step):
        c = slice(t, t + step)
        n = len(sd[c])
        a = np.take(forms.A_T[c], up, axis=1, out=blocks[:n], mode="clip")
        s, b = np.take(cols, sd[c], axis=0, out=gathered[:n], mode="clip"), forms.B_T[c, None]
        np.matmul(a, s, out=local[c])
        np.matmul(b, s.reshape(-1, 2, nd, k), out=Bs[c])
        local[c] += (np.swapaxes(b, 2, 3) @ vel[c]).reshape(-1, 2 * nd, k)
    m = sd.size
    incidence = sp.csc_matrix((np.ones(m), sd.ravel(), np.arange(m + 1)), shape=(len(sigma), m))
    return (incidence @ local.reshape(m, k)).reshape(sigma.shape), Bs.reshape(u.shape)


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
    # are det B^-T times the reference integrals of vhat; both times the signs
    X = _stiffness_reference(np.einsum("dqi,fqj,q->dfij", vhat, vhat, w), mu)
    (_, d), (_, f) = (np.divmod(x, nd) for x in np.triu_indices(2 * nd))
    vbar = np.einsum("dqi,q->id", vhat, w)
    ablock = np.empty((nt, len(d)))
    step = max(1, 2 * _CHUNK // len(d))
    for t in range(0, nt, step):
        c = slice(t, t + step)
        detB = det[c, None, None] * BinvT[c]
        G = detB[:, :, None, :, None] * BinvT[c, None, :, None, :]
        a = np.matmul(G.reshape(-1, 16), X, out=ablock[c])
        a *= signs[c][:, d]
        a *= signs[c][:, f]
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
