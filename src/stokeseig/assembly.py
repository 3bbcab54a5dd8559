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
pinned.  A is kept once, as its element blocks; its CSR, and K's, are built
only when asked for.  A and K are symmetric bit for bit by construction:
each triangle's A block is symmetrized before the blocks are summed.

On an affine triangle every form is a reference integral mapped by B^-T and
det B (the tensor representation of Kirby and Logg, ACM TOMS 32, 2006): each
reference integral is computed once and all triangles are mapped in one
array pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, IOFailureError, is_finite
from .quadrature import quadrature
from .sparselin import ElementBlocks, _coo
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
    """The bilinear forms on the full (unconstrained) numbering: B and M in
    CSR, j, and the element blocks they are summed from.  A is kept only as
    its blocks: ``A_T`` holds the upper triangle, row by row (see
    :func:`upper_positions`), of each triangle's symmetric 2 nd x 2 nd block
    at its stress dofs ``dofmap.stress_gmap``, and :attr:`A` sums them into
    CSR on each read.  ``B_T`` (nt, p, nd) is a triangle's block for either
    velocity component and its tensor row, and ``M_T`` (2 nt, p, p) the
    mass block of velocity component c of triangle t at 2 t + c."""
    B: sp.csr_matrix
    M: sp.csr_matrix
    j: np.ndarray
    dofmap: DofMap
    A_T: np.ndarray
    B_T: np.ndarray
    M_T: np.ndarray

    @property
    def A(self):
        """A in canonical CSR, summed from ``A_T`` on each read."""
        n = self.dofmap.n_sigma
        return _stiffness_csr(self, np.arange(n, dtype=np.int32), (n, n))


@dataclass
class PencilLayout:
    n_sigma_full: int
    keep: np.ndarray          # active stress dofs (full numbering)
    n_u: int
    n_c: int
    kernel: tuple | None = None   # (z, j) when a multiplier pins the kernel z

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

    @property
    def index(self):
        """The pencil index of every stress dof, -1 for the constrained ones."""
        at = np.full(self.n_sigma_full, -1, dtype=np.int32)
        at[self.keep] = np.arange(self.n_sigma_active, dtype=np.int32)
        return at

    @property
    def pin(self):
        """The stress dof that the multiplier row pins: where |z| is largest."""
        return int(np.argmax(np.abs(self.kernel[0])))

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

    Nothing is assembled: ``matvec`` multiplies with A's element blocks, B
    and M, :meth:`element_blocks` hands ``factorize`` each triangle's blocks,
    and ``sp`` builds the CSR on each call.  ``nnz``, ``norm_inf()`` and the
    largest entry ``amax`` are those of ``sp``, read when the view is built
    from its rows, the stress rows summed from the element blocks once and
    freed; the norm sums each row the way ``abs(sp).sum(axis=1)`` does.  The
    stress rows do not depend on theta, so :meth:`at` reuses their reads.
    """

    def __init__(self, forms, layout, theta, stress_reads=None):
        self.forms, self.layout, self.theta = forms, layout, theta
        self.shape = (layout.size, layout.size)
        self._stress_reads = (_reads(self._stress_rows()) if stress_reads is None
                              else stress_reads)
        (n0, norm0, amax0), (n1, norm1, amax1) = self._stress_reads, _reads(self._other_rows())
        self.nnz, self._norm, self.amax = n0 + n1, max(norm0, norm1), max(amax0, amax1)

    def at(self, theta):
        """K - theta N of the same pencil."""
        return PencilMatrix(self.forms, self.layout, theta, self._stress_reads)

    def _stress_rows(self):
        """F's stress rows [A | B^T | p^T] in CSR, from the element blocks."""
        f, lay, index = self.forms, self.layout, self.layout.index
        nt, p, nd = f.B_T.shape
        # tensor row c of a triangle's stress dofs meets its velocity component c
        velocity = lay.n_sigma_active + np.arange(lay.n_u, dtype=np.int32).reshape(2 * nt, p)
        pin = ([lay.pin], [lay.size - 1], [1.0]) if lay.n_c else ((), (), ())
        data, (i, j) = _coo(np.repeat(np.swapaxes(f.B_T, 1, 2), 2, axis=0),
                            index[f.dofmap.stress_gmap].reshape(2 * nt, nd), velocity, pin,
                            drop_zeros=True)
        return _stiffness_csr(f, index, (lay.n_sigma_active, lay.size), (i, j, data))

    def _other_rows(self):
        """F's velocity and multiplier rows in CSR."""
        f, lay = self.forms, self.layout
        keep, ns, nu, nc = lay.keep, lay.n_sigma_active, lay.n_u, lay.n_c
        B = f.B if nc else f.B[:, keep]
        pin = sp.csr_matrix((np.ones(nc), (np.zeros(nc, dtype=int), [lay.pin] if nc else [])),
                            shape=(nc, ns))
        uu = self.theta * f.M if self.theta else sp.csr_matrix((nu, nu))
        return sp.vstack([sp.hstack([B, uu, sp.csr_matrix((nu, nc))], format="csr"),
                          sp.hstack([pin, sp.csr_matrix((nc, nu + nc))], format="csr")],
                         format="csr")

    @property
    def sp(self):
        """F in canonical CSR, built on each call."""
        return sp.vstack([self._stress_rows(), self._other_rows()], format="csr")

    def norm_inf(self):
        return self._norm

    def matvec(self, x):
        """F x for a vector or a block of columns x: A sigma + B^T u + p^T c,
        B sigma + theta M u and p sigma, A sigma triangle by triangle."""
        f, lay = self.forms, self.layout
        ns, vel = lay.n_sigma_active, lay.velocity
        sigma = np.zeros((lay.n_sigma_full,) + x.shape[1:])
        sigma[lay.keep] = x[:ns]
        y = np.empty(x.shape)
        y[:ns] = (_stiffness_product(f, sigma) + f.B.T @ x[vel])[lay.keep]
        y[vel] = f.B @ sigma
        if self.theta:
            y[vel] += self.theta * (f.M @ x[vel])
        if lay.n_c:
            y[lay.pin] += x[-1]
            y[-1] = x[lay.pin]
        return y

    def element_blocks(self):
        """F by triangles (:class:`ElementBlocks`): each triangle's group is
        its interior stress dofs (both tensor rows) and all of its velocity
        dofs, which are discontinuous; its rest is its edge stress dofs, and
        the pin lies outside every triangle."""
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
        stress = lay.index[dofmap.stress_gmap]
        velocity = lay.n_sigma_active + np.arange(lay.n_u).reshape(nt, 2 * p)
        mult = lay.size - 1
        extra = (np.array([lay.pin, mult] if lay.n_c else [], dtype=int),
                 np.array([mult, lay.pin] if lay.n_c else [], dtype=int), np.ones(2 * lay.n_c))
        return ElementBlocks(
            lay.size, np.hstack([stress[:, :, ne:].reshape(nt, -1), velocity]),
            stress[:, :, :ne].reshape(nt, -1), Q, C, a[:, up[edge[:, None], edge]], extra,
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


def _reads(csr):
    """nnz, the largest absolute row sum and the largest |entry| of a CSR
    matrix, each row summed as ``abs(csr).sum(axis=1)`` sums it."""
    rows = np.flatnonzero(np.diff(csr.indptr))
    if not rows.size:
        return csr.nnz, 0.0, 0.0
    size = np.abs(csr.data)
    return csr.nnz, float(np.add.reduceat(size, csr.indptr[rows]).max()), float(size.max())


def _stiffness_csr(forms, index, shape, extra=((), (), ())):
    """Canonical CSR of A's element blocks summed at the rows and columns
    ``index`` gives each stress dof (-1 drops it), and the ``extra`` entries
    (rows, columns, values), without the entries that are exactly zero."""
    sd = index[forms.dofmap.stress_gmap.reshape(len(forms.A_T), -1)]
    csr = sp.csr_matrix(_coo(forms.A_T[:, upper_positions(sd.shape[1])], sd, sd, extra),
                        shape=shape)
    csr.eliminate_zeros()
    return csr


def _stiffness_product(forms, sigma):
    """A sigma for a vector or a block of columns sigma, triangle by triangle:
    gathered at each triangle's stress dofs, multiplied by its unpacked block
    and summed back through the dofs' incidence."""
    sd = forms.dofmap.stress_gmap.reshape(len(forms.A_T), -1)
    cols = sigma.reshape(len(sigma), -1)
    prod = forms.A_T[:, upper_positions(sd.shape[1])] @ cols[sd]
    m = sd.size
    incidence = sp.csc_matrix((np.ones(m), sd.ravel(), np.arange(m + 1)), shape=(len(sigma), m))
    return (incidence @ prod.reshape(m, -1)).reshape(sigma.shape)


def assemble_forms(mesh, dofmap, mu=1.0):
    """Assemble A's element blocks, B, M and the constraint vector j."""
    if not (is_finite(mu) and mu > 0):
        raise AssemblyError(f"viscosity must be finite and positive, got {mu!r}")
    ned, pk = dofmap.ned, dofmap.pk
    rule = quadrature(_quad_degree(dofmap))
    w = rule.weights
    vhat = ned.eval(rule.points)          # (nd, q, 2)
    nt, nd = mesh.num_triangles, ned.dim
    _, _, det = mesh.affine_maps
    _, BinvT = mesh.inv_maps
    signs = dofmap.vec_signs
    # stress dofs (e, row r of the tensor, local d), velocity dofs (e comp, p)
    sdofs = dofmap.stress_gmap
    udofs = np.arange(dofmap.n_u).reshape(2 * nt, pk.dim)

    # reference tensors; the physical basis function d is sign_d B^-T vhat_d
    R = np.einsum("dqi,fqj,q->dfij", vhat, vhat, w)
    C = np.einsum("eai,ebj,dfij,e,ed,ef->edfab", BinvT, BinvT, R, det, signs, signs,
                  optimize=True)

    # stress-stress: 0.5 (delta_rs phi_d . phi_f + phi_d[s] phi_f[r]) / mu,
    # symmetric but for the rounding of the einsums; a + a^T is symmetric bit
    # for bit, and so is the sum of the at most two blocks behind an entry
    ablock = (np.einsum("rs,edf->erdsf", np.eye(2), np.einsum("edfaa->edf", C))
              + np.einsum("edfsr->erdsf", C)).reshape(nt, 2 * nd, 2 * nd)
    ablock = (ablock + ablock.transpose(0, 2, 1)) * (0.25 / mu)
    del C           # freed before the scatters: it is as large as ablock
    upper = np.triu_indices(2 * nd)
    ablock = ablock[:, upper[0], upper[1]]

    # velocity x curl(stress): the 1/det of the curl cancels the det of the
    # volume element, and row r of the tensor drives component r only.  The
    # entries are fixed by the dofs (commuting diagram); what quadrature
    # leaves below 1e-12 of the largest is rounding of exact zeros.
    bhat = np.einsum("pq,dq,q->pd", pk.eval(rule.points), ned.eval_curl(rule.points), w)
    bhat[np.abs(bhat) < 1e-12 * np.abs(bhat).max()] = 0.0
    bblock = bhat[None] * signs[:, None, :]
    B = _scatter((dofmap.n_u, dofmap.n_sigma), np.repeat(bblock, 2, axis=0), udofs,
                 sdofs.reshape(2 * nt, nd))

    # velocity mass: det-scaled reference Gram, block diagonal
    mblock = np.repeat(det[:, None, None] * pk_reference_mass(pk.order), 2, axis=0)
    M = _scatter((dofmap.n_u,) * 2, mblock, udofs, udofs)

    # constraint vector: integral of (e_r x phi_d) : J = phi_d[1] (r = 0), -phi_d[0] (r = 1)
    phi_int = np.einsum("eai,di,e,ed->eda", BinvT, np.einsum("dqi,q->di", vhat, w),
                        det, signs)
    jvals = np.stack([phi_int[..., 1], -phi_int[..., 0]], axis=1)
    jvec = np.bincount(sdofs.ravel(), jvals.ravel(), minlength=dofmap.n_sigma)
    return Forms(B, M, jvec, dofmap, ablock, bblock, mblock)


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
        layout = PencilLayout(n_sigma, np.setdiff1d(np.arange(n_sigma), dofmap.constrained),
                              dofmap.n_u, 0)
    return Pencil(PencilMatrix(forms, layout, THETA0))


def _constant_j_interpolant(dofmap):
    """Interpolant of the constant field J, from its pull-backs B^T J_r."""
    pulled = J @ dofmap.mesh.affine_maps[0]
    return dofmap.interpolate(
        lambda pts: np.broadcast_to(pulled[:, :, None], pulled.shape[:2] + (len(pts), 2)))


def export_matrix(matrix, path):
    """Dump a scipy sparse matrix as 'i j value' lines (debug aid)."""
    coo = matrix.tocoo()
    try:
        with open(path, "w") as fp:
            fp.writelines(f"{i} {j} {v:.17g}\n"
                          for i, j, v in zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
    except OSError as exc:
        raise IOFailureError(f"cannot write matrix to {path}: {exc}") from exc
