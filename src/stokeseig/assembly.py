"""Assembly of the saddle-point eigenvalue pencil.

Blocks, in the order (stress, velocity, mean-constraint multiplier):

* ``A``: (1/mu) integral of sym(xi) : sym(tau) over the domain, where sym is
  the symmetric part of the stress tensor (identical to removing the skew
  multiple of J = [[0, 1], [-1, 0]]).
* ``B``: integral of v . curl(tau), the scalar curl applied to each row.
* ``M``: velocity mass matrix.
* ``j``: integral of tau : J, one Lagrange-multiplier row/column that removes
  the constant-J direction annihilated by both A and the curl.

The eigenvalue problem is K x = lambda N x with N = diag(0, -M, 0): its
finite eigenvalues are the discrete Stokes eigenvalues.

On an affine triangle every form is a reference integral mapped by B^-T and
det B (the tensor representation of Kirby and Logg, ACM TOMS 32, 2006): each
reference integral is computed once and all triangles are mapped in one
array pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import AssemblyError, IOFailureError
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
    """Assembled bilinear forms on the full (unconstrained) numbering."""
    A: SparseMatrix
    B: SparseMatrix
    M: SparseMatrix
    j: np.ndarray
    mu: float
    dofmap: DofMap


@dataclass
class PencilLayout:
    n_sigma_full: int
    keep: np.ndarray          # active stress dofs (full numbering)
    n_sigma_active: int
    n_u: int
    n_c: int

    @property
    def size(self):
        return self.n_sigma_active + self.n_u + self.n_c

    def split(self, x):
        """Split a pencil vector into (sigma_full, u, multiplier)."""
        ns, nu = self.n_sigma_active, self.n_u
        sigma = np.zeros(self.n_sigma_full, dtype=x.dtype)
        sigma[self.keep] = x[:ns]
        return sigma, x[ns:ns + nu].copy(), x[ns + nu:].copy()


@dataclass
class Pencil:
    """Matrix pair (K, N) whose finite eigenvalues solve the discrete problem."""
    K: SparseMatrix
    N: SparseMatrix
    layout: PencilLayout
    dofmap: DofMap


def _quad_degree(dofmap):
    return min(10, 2 * max(dofmap.ned.degree, dofmap.pk.degree) + 2)


def _scatter(shape, blocks, rows, cols):
    """Sum element blocks (e, m, n) at global rows (e, m) and columns (e, n),
    without the entries that are exactly zero."""
    r = np.broadcast_to(rows[:, :, None], blocks.shape).ravel()
    c = np.broadcast_to(cols[:, None, :], blocks.shape).ravel()
    mat = SparseMatrix.from_triplets(shape, r, c, blocks.ravel())
    mat.sp.eliminate_zeros()
    return mat


def assemble_forms(mesh, dofmap, mu=1.0):
    """Assemble A, B, M and the constraint vector j."""
    if not 0.0 < mu < np.inf:
        raise AssemblyError(f"viscosity must be finite and positive, got {mu}")
    ned, pk = dofmap.ned, dofmap.pk
    rule = quadrature(_quad_degree(dofmap))
    w = rule.weights
    vhat = ned.eval(rule.points)          # (nd, q, 2)
    nt, nd = mesh.num_triangles, ned.dim
    _, _, det = mesh.affine_maps
    _, BinvT = mesh.inv_maps
    signs = dofmap.vec_signs
    # stress dofs (e, row r of the tensor, local d), velocity dofs (e comp, p)
    sdofs = np.stack([dofmap.vec_gmap, dofmap.n_vec + dofmap.vec_gmap], axis=1)
    udofs = np.arange(dofmap.n_u).reshape(2 * nt, pk.dim)

    # reference tensors; the physical basis function d is sign_d B^-T vhat_d
    R = np.einsum("dqi,fqj,q->dfij", vhat, vhat, w)
    C = np.einsum("eai,ebj,dfij,e,ed,ef->edfab", BinvT, BinvT, R, det, signs, signs,
                  optimize=True)

    # stress-stress: 0.5 (delta_rs phi_d . phi_f + phi_d[s] phi_f[r]) / mu
    ablock = (np.einsum("rs,edf->erdsf", np.eye(2), np.einsum("edfaa->edf", C))
              + np.einsum("edfsr->erdsf", C)) * (0.5 / mu)
    sd = sdofs.reshape(nt, 2 * nd)
    A = _scatter((dofmap.n_sigma,) * 2, ablock.reshape(nt, 2 * nd, 2 * nd), sd, sd)

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
    return Forms(A, B, M, jvec, mu, dofmap)


def build_pencil(forms):
    """Combine assembled forms into the pencil (K, N), applying constraints.

    With all-Dirichlet boundary conditions a single Lagrange multiplier
    enforces the zero mean of sigma : J; with mixed conditions the Neumann
    tangential-trace dofs are eliminated instead and no multiplier is needed.
    """
    dofmap = forms.dofmap
    n_sigma, n_u = dofmap.n_sigma, dofmap.n_u
    A, B, M = forms.A.sp, forms.B.sp, forms.M.sp

    if dofmap.has_mean_constraint:
        keep = np.arange(n_sigma)
        n_c = 1
        # The multiplier row is dense.  Partial pivoting picks it wherever its
        # entry is the largest left in a column, and its nonzeros then fill
        # every later row of U: at (2,1), N=30, L+U held 19M to 89M nonzeros
        # as the basis changed by rounding.  Scaled exactly, by a power of two,
        # to at most 2^-20 of the largest entry of A and B in each column, it
        # is picked only where the constant-J direction leaves no other
        # candidate.  The multiplier is zero on every eigenvector, so
        # eigenpairs keep their stress and velocity parts.
        colmax = np.maximum(abs(A).max(axis=0).toarray().ravel(),
                            abs(B).max(axis=0).toarray().ravel())
        nz = forms.j != 0.0
        ratio = (colmax[nz] / np.abs(forms.j[nz])).min()
        jcol = sp.csr_matrix(2.0 ** np.floor(np.log2(2.0 ** -20 * ratio)) * forms.j[:, None])
        K = sp.bmat([[A, B.T, jcol],
                     [B, None, None],
                     [jcol.T, None, None]], format="csr")
    else:
        keep = np.setdiff1d(np.arange(n_sigma), dofmap.constrained)
        n_c = 0
        Ak = A[keep][:, keep]
        Bk = B[:, keep]
        K = sp.bmat([[Ak, Bk.T], [Bk, None]], format="csr")

    asym = abs(K - K.T).max()
    scale = abs(K).max()
    if asym > 1e-12 * scale:
        raise AssemblyError(f"assembled pencil is not symmetric: |K-K^T| = {asym:.3e}")
    K = ((K + K.T) * 0.5).tocsr()

    size = len(keep) + n_u + n_c
    Ncoo = (-M).tocoo()
    N = sp.coo_matrix((Ncoo.data, (Ncoo.row + len(keep), Ncoo.col + len(keep))),
                      shape=(size, size)).tocsr()

    layout = PencilLayout(n_sigma, keep, len(keep), n_u, n_c)
    return Pencil(SparseMatrix(K), SparseMatrix(N), layout, dofmap)


def export_matrix(matrix, path):
    """Dump a sparse matrix as 'i j value' lines (debug aid)."""
    coo = matrix.sp.tocoo()
    try:
        with open(path, "w") as fp:
            for i, jc, v in zip(coo.row, coo.col, coo.data):
                fp.write(f"{i} {jc} {v:.17g}\n")
    except OSError as exc:
        raise IOFailureError(f"cannot write matrix to {path}: {exc}") from exc
