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
finite eigenvalues are the discrete Stokes eigenvalues.  A and K are
symmetric bit for bit by construction: each triangle's A block is
symmetrized before the blocks are summed.

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
from .sparselin import SparseMatrix
from .spaces import DofMap
from .refbasis import pk_reference_mass

J = np.array([[0.0, 1.0], [-1.0, 0.0]])
J.flags.writeable = False


def skew_free_part(tau):
    """tau - 0.5 (tau : J) J, i.e. the symmetric part of tau (batched ok)."""
    tau = np.asarray(tau, dtype=float)
    tj = tau[..., 0, 1] - tau[..., 1, 0]
    return tau - 0.5 * tj[..., None, None] * J


@dataclass
class Forms:
    """Assembled bilinear forms (CSR) on the full (unconstrained) numbering."""
    A: sp.csr_matrix
    B: sp.csr_matrix
    M: sp.csr_matrix
    j: np.ndarray
    dofmap: DofMap


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

    def split(self, x):
        """Split a pencil vector into (sigma_full, u), with j . sigma_full = 0."""
        ns, nu = self.n_sigma_active, self.n_u
        sigma = np.zeros(self.n_sigma_full, dtype=x.dtype)
        sigma[self.keep] = x[:ns]
        if self.kernel is not None:
            z, j = self.kernel
            sigma -= (j @ sigma) / (j @ z) * z
        return sigma, x[ns:ns + nu].copy()


@dataclass
class Pencil:
    """Matrix pair (K, N) whose finite eigenvalues solve the discrete problem;
    K is stored as its upper triangle and carries the interior groups that
    ``factorize`` eliminates, N is CSR."""
    K: SparseMatrix
    N: sp.csr_matrix
    layout: PencilLayout
    dofmap: DofMap


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


def assemble_forms(mesh, dofmap, mu=1.0):
    """Assemble A, B, M and the constraint vector j."""
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
    sd = sdofs.reshape(nt, 2 * nd)
    A = _scatter((dofmap.n_sigma,) * 2, ablock, sd, sd)

    # velocity x curl(stress): the 1/det of the curl cancels the det of the
    # volume element, and row r of the tensor drives component r only.  The
    # entries are fixed by the dofs (commuting diagram); what quadrature
    # leaves below 1e-12 of the largest is rounding of exact zeros.
    bhat = np.einsum("pq,dq,q->pd", pk.eval(rule.points), ned.eval_curl(rule.points), w)
    bhat[np.abs(bhat) < 1e-12 * np.abs(bhat).max()] = 0.0
    bblock = np.repeat(bhat[None] * signs[:, None, :], 2, axis=0)
    B = _scatter((dofmap.n_u, dofmap.n_sigma), bblock, udofs, sdofs.reshape(2 * nt, nd))

    # velocity mass: det-scaled reference Gram, block diagonal
    mblock = np.repeat(det[:, None, None] * pk_reference_mass(pk.order), 2, axis=0)
    M = _scatter((dofmap.n_u,) * 2, mblock, udofs, udofs)

    # constraint vector: integral of (e_r x phi_d) : J = phi_d[1] (r = 0), -phi_d[0] (r = 1)
    phi_int = np.einsum("eai,di,e,ed->eda", BinvT, np.einsum("dqi,q->di", vhat, w),
                        det, signs)
    jvals = np.stack([phi_int[..., 1], -phi_int[..., 0]], axis=1)
    jvec = np.bincount(sdofs.ravel(), jvals.ravel(), minlength=dofmap.n_sigma)
    return Forms(A, B, M, jvec, dofmap)


def build_pencil(forms):
    """Combine assembled forms into the pencil (K, N), applying constraints.

    With all-Dirichlet boundary conditions the constant-J interpolant z
    (A z = B z = 0) spans the kernel left in the stress.  One multiplier row
    with a single entry pins the stress dof where |z| is largest, and
    :meth:`PencilLayout.split` restores the zero mean of sigma : J by adding a
    multiple of z.  That dof is always an edge dof: on every triangle each
    interior moment of J is at most half the triangle's largest edge moment,
    so the pin never falls in an interior group.  With mixed conditions the
    Neumann tangential-trace dofs are eliminated instead and no multiplier is
    needed.
    """
    dofmap = forms.dofmap
    n_sigma, n_u = dofmap.n_sigma, dofmap.n_u
    A, B, M = forms.A, forms.B, forms.M

    if dofmap.has_mean_constraint:
        keep = np.arange(n_sigma)
        n_c = 1
        # one entry, unlike a dense border row, fills nothing wherever the LU
        # pivots on it, so factorize may scale it with the velocity rows
        z = _constant_j_interpolant(dofmap)
        pin = sp.csr_matrix(([1.0], ([0], [np.argmax(np.abs(z))])), shape=(1, n_sigma))
        K = sp.bmat([[A, B.T, pin.T],
                     [B, None, None],
                     [pin, None, None]], format="csr")
        kernel = (z, forms.j)
    else:
        keep = np.setdiff1d(np.arange(n_sigma), dofmap.constrained)
        n_c = 0
        Ak = A[keep][:, keep]
        Bk = B[:, keep]
        K = sp.bmat([[Ak, Bk.T], [Bk, None]], format="csr")
        kernel = None

    N = sp.block_diag((sp.csr_matrix((len(keep),) * 2), -M, sp.csr_matrix((n_c, n_c))),
                      format="csr")
    layout = PencilLayout(n_sigma, keep, n_u, n_c, kernel)
    return Pencil(SparseMatrix.symmetric(K, _interior_groups(dofmap, B, keep)), N, layout,
                  dofmap)


def _interior_groups(dofmap, B, keep):
    """Pencil indices of the unknowns that couple only within their triangle,
    one row per triangle (``SparseMatrix.local``); None without interior dofs.

    A triangle's group is its interior stress dofs (both tensor rows) and the
    velocity dofs whose curl moments against them are nonzero: the curl of a
    bubble has zero mean, so the constant velocity is not one of them and
    stays coupled to the edges.
    """
    n_int = dofmap.interior_dofs_per_tri
    if n_int == 0:
        return None
    nt, p = dofmap.mesh.num_triangles, dofmap.pk.dim
    interior = dofmap.stress_gmap[:, :, -n_int:].reshape(nt, 2 * n_int)
    seen = np.diff(B[:, interior.ravel()].indptr) > 0
    modes = np.flatnonzero(seen.reshape(-1, p).any(axis=0))
    vel = len(keep) + np.arange(dofmap.n_u).reshape(nt, 2, p)[:, :, modes].reshape(nt, -1)
    return np.hstack([np.searchsorted(keep, interior), vel])


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
