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

_CHUNK = 512


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


def assemble_forms(mesh, dofmap, mu=1.0):
    """Assemble A, B, M and the constraint vector j."""
    if mu <= 0.0:
        raise AssemblyError(f"viscosity must be positive, got {mu}")
    ned, pk = dofmap.ned, dofmap.pk
    rule = quadrature(_quad_degree(dofmap))
    w = rule.weights
    vhat = ned.eval(rule.points)          # (nd, q, 2)
    chat = ned.eval_curl(rule.points)     # (nd, q)
    phat = pk.eval(rule.points)           # (np, q)
    nd, npk = ned.dim, pk.dim
    nt = mesh.num_triangles
    Bmat, _, det = mesh.affine_maps
    _, BinvT = mesh.inv_maps

    # velocity x curl block is element independent: the 1/det from the curl
    # cancels the det of the volume element
    b_elem = np.einsum("pq,dq,q->pd", phat, chat, w)
    mass_ref = pk_reference_mass(pk.order)

    n_sigma, n_u, n_vec = dofmap.n_sigma, dofmap.n_u, dofmap.n_vec

    a_rows, a_cols, a_vals = [], [], []
    b_rows, b_cols, b_vals = [], [], []
    m_rows, m_cols, m_vals = [], [], []
    jvec = np.zeros(n_sigma)

    for start in range(0, nt, _CHUNK):
        tris = np.arange(start, min(start + _CHUNK, nt))
        c = len(tris)
        gmap = dofmap.vec_gmap[tris]
        signs = dofmap.vec_signs[tris]
        detc = det[tris]

        V = np.einsum("eij,dqj->edqi", BinvT[tris], vhat)       # (c, nd, q, 2)
        C = np.einsum("edqa,efqb,q->edfab", V, V, w) * detc[:, None, None, None, None]
        G0 = C[..., 0, 0] + C[..., 1, 1]

        # stress-stress block: 0.5 (delta_rs phi_i . phi_j + phi_i[s] phi_j[r]) / mu
        ablock = np.empty((c, 2, nd, 2, nd))
        for r in range(2):
            for s in range(2):
                ablock[:, r, :, s, :] = 0.5 / mu * C[..., s, r]
                if r == s:
                    ablock[:, r, :, s, :] += 0.5 / mu * G0
        sgn = np.concatenate([signs, signs], axis=1).reshape(c, 2, nd)
        ablock *= sgn[:, :, :, None, None] * sgn[:, None, None, :, :]
        gdof = np.stack([gmap, n_vec + gmap], axis=1)           # (c, 2, nd)
        rows = np.broadcast_to(gdof[:, :, :, None, None], ablock.shape)
        cols = np.broadcast_to(gdof[:, None, None, :, :], ablock.shape)
        a_rows.append(rows.ravel())
        a_cols.append(cols.ravel())
        a_vals.append(ablock.ravel())

        # velocity x curl(stress): row r of the tensor drives component r only
        bblock = np.einsum("pd,ed->epd", b_elem, signs)         # (c, np, nd)
        for comp in range(2):
            vrows = (tris[:, None, None] * 2 * npk
                     + comp * npk + np.arange(npk)[None, :, None])
            vcols = comp * n_vec + gmap[:, None, :]
            b_rows.append(np.broadcast_to(vrows, bblock.shape).ravel())
            b_cols.append(np.broadcast_to(vcols, bblock.shape).ravel())
            b_vals.append(bblock.ravel())

        # velocity mass: det-scaled reference Gram, block diagonal
        mblock = detc[:, None, None] * mass_ref[None, :, :]
        for comp in range(2):
            base = tris * 2 * npk + comp * npk
            mr = base[:, None, None] + np.arange(npk)[None, :, None]
            mc = base[:, None, None] + np.arange(npk)[None, None, :]
            m_rows.append(np.broadcast_to(mr, mblock.shape).ravel())
            m_cols.append(np.broadcast_to(mc, mblock.shape).ravel())
            m_vals.append(mblock.ravel())

        # constraint vector: integral of (e_r x phi_d) : J
        comp_int = np.einsum("edqi,q->edi", V, w) * detc[:, None, None]
        np.add.at(jvec, gmap, signs * comp_int[:, :, 1])
        np.add.at(jvec, n_vec + gmap, -signs * comp_int[:, :, 0])

    A = SparseMatrix.from_triplets((n_sigma, n_sigma), np.concatenate(a_rows),
                                   np.concatenate(a_cols), np.concatenate(a_vals))
    Bm = SparseMatrix.from_triplets((n_u, n_sigma), np.concatenate(b_rows),
                                    np.concatenate(b_cols), np.concatenate(b_vals))
    M = SparseMatrix.from_triplets((n_u, n_u), np.concatenate(m_rows),
                                   np.concatenate(m_cols), np.concatenate(m_vals))
    return Forms(A, Bm, M, jvec, mu, dofmap)


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
