"""Shared helpers and independent oracles for the test suite."""

import numpy as np
import scipy.sparse as sp

from stokeseig import assembly
from stokeseig.assembly import _scatter, assemble_forms, build_pencil, upper_positions
from stokeseig.eigsolve import EigConfig, solve_eig
from stokeseig.mesh import (BI_UNIT_SQUARE, UNIT_SQUARE, Mesh, build_lshape_mesh,
                            build_square_mesh, refine, tag_bottom_fixed)
from stokeseig.quadrature import quadrature
from stokeseig.spaces import ALL_DIRICHLET, MIXED_BOTTOM_FIXED, DofMap, SpaceDescriptor


def single_triangle_mesh():
    """The reference triangle as a one-element mesh."""
    return Mesh.from_triangles(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[0, 1, 2]]))


def refined_lshape():
    """L-shape refined twice around the reentrant corner: graded, non-uniform."""
    mesh = build_lshape_mesh(2)
    for _ in range(2):
        centroids = mesh.vertices[mesh.tri_vertices].mean(axis=1)
        mesh = refine(mesh, np.nonzero(np.hypot(*centroids.T) < 0.6)[0])
    return mesh


def solve_problem(mesh, ell, k, nev=5, bc=ALL_DIRICHLET, mu=1.0, seed=20240901, shift=0.0):
    desc = SpaceDescriptor(ell, k)
    dofmap = DofMap(mesh, desc, bc)
    forms = assemble_forms(mesh, dofmap, mu)
    pencil = build_pencil(forms)
    solution = solve_eig(pencil, EigConfig(nev=nev, seed=seed, shift=shift))
    return solution, pencil, dofmap


def perturb_a_blocks(monkeypatch, edit):
    """Make every assembly of A's element blocks, in ``assemble_forms`` and
    after each release, hand ``edit`` a writable copy of them to change in
    place; the forms keep the edited copy.  The blocks are read-only, so a
    test perturbs A here rather than in the forms."""
    real = assembly._ab_blocks

    def ab_blocks(*args, **kwargs):
        a, b = real(*args, **kwargs)
        a = a.copy()
        edit(a)
        return a, b

    monkeypatch.setattr(assembly, "_ab_blocks", ab_blocks)


def _square_forms(ell, k, bc, N, mu=1.0):
    if bc == MIXED_BOTTOM_FIXED:
        mesh = tag_bottom_fixed(build_square_mesh(N, UNIT_SQUARE))
    else:
        mesh = build_square_mesh(N, BI_UNIT_SQUARE)
    return assemble_forms(mesh, DofMap(mesh, SpaceDescriptor(ell, k), bc), mu)


def square_pencil(ell, k, bc=ALL_DIRICHLET, N=8):
    """Pencil on the bi-unit square (all-Dirichlet) or the unit square with its
    bottom fixed (mixed)."""
    return build_pencil(_square_forms(ell, k, bc, N))


def block_pencil(ell, k, bc=ALL_DIRICHLET, N=8, mu=1.0):
    """The unshifted K and N of :func:`square_pencil` at viscosity ``mu``."""
    return unshifted_pencil(_square_forms(ell, k, bc, N, mu))


def unshifted_pencil(forms):
    """K and N of ``build_pencil(forms)``, both whole CSR assembled from the
    forms' blocks, with K unshifted: an oracle for the pencil, which keeps
    K - theta0 N as a view of the forms.  A is scattered from the unpacked
    element blocks in one COO pass, independently of the pencil's build."""
    layout = build_pencil(forms).layout
    keep = layout.keep
    n = 2 * forms.dofmap.ned.dim
    sd = forms.dofmap.stress_gmap.reshape(-1, n)
    A = _scatter((forms.dofmap.n_sigma,) * 2, forms.A_T[:, upper_positions(n)], sd, sd)
    A, B = A[keep][:, keep], forms.B[:, keep]
    if layout.n_c:
        pin = sp.csr_matrix(([1.0], ([0], [np.argmax(np.abs(layout.kernel[0]))])),
                            shape=(1, len(keep)))
        K = sp.bmat([[A, B.T, pin.T], [B, None, None], [pin, None, None]], format="csr")
    else:
        K = sp.bmat([[A, B.T], [B, None]], format="csr")
    N = sp.block_diag((sp.csr_matrix((len(keep),) * 2), -forms.M,
                       sp.csr_matrix((layout.n_c,) * 2)), format="csr")
    return K, N


def dense_gauss_solve(A, b):
    """Plain dense Gaussian elimination with partial pivoting (oracle)."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = A.shape[0]
    for col in range(n):
        piv = col + int(np.argmax(np.abs(A[col:, col])))
        if abs(A[piv, col]) == 0.0:
            raise ZeroDivisionError("singular matrix in oracle")
        if piv != col:
            A[[col, piv]] = A[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            f = A[row, col] / A[col, col]
            A[row, col:] -= f * A[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1:] @ x[row + 1:]) / A[row, row]
    return x


def dense_pencil_eigenvalues(pencil):
    """Finite positive generalized eigenvalues, at unit viscosity, of the
    pencil's unshifted K and N assembled again from the blocks on its mesh, by
    a dense QZ-style solve."""
    from scipy.linalg import eig
    dofmap = pencil.dofmap
    K, N = unshifted_pencil(assemble_forms(dofmap.mesh, dofmap))
    w, _ = eig(K.toarray(), N.toarray(), homogeneous_eigvals=True)
    alphas, betas = w[0], w[1]
    lam = []
    scale = np.abs(alphas).max()
    for a, b in zip(alphas, betas):
        if abs(b) > 1e-10 * scale:
            v = a / b
            if abs(v.imag) < 1e-8 * abs(v) and v.real > 0:
                lam.append(v.real)
    return np.sort(np.array(lam))


def permute_edges(mesh, perm):
    """Rebuild the mesh with edge ids permuted: new id of old edge e is perm[e]."""
    perm = np.asarray(perm)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return Mesh(mesh.vertices, mesh.tri_vertices, perm[mesh.tri_edges],
                mesh.tri_parents, mesh.edges[inv], mesh.edge_tags[inv])


def l2_field_error(mesh, field, exact, degree=10):
    """L2 norm of (discrete field - analytic vector/tensor function)."""
    rule = quadrature(degree)
    vals = field.values_at(rule.points)
    B, origin, det = mesh.affine_maps
    pts = np.einsum("eij,qj->eqi", B, rule.points) + origin[:, None, :]
    diff2 = np.zeros(vals.shape[:2])
    for e in range(mesh.num_triangles):
        for q in range(len(rule.points)):
            diff2[e, q] = np.sum((vals[e, q] - exact(pts[e, q])) ** 2)
    return float(np.sqrt(float(np.einsum("eq,q,e->", diff2, rule.weights, det))))


def field_l2_norm(field, degree=6):
    rule = quadrature(degree)
    vals = field.values_at(rule.points)
    _, _, det = field.mesh.affine_maps
    return float(np.sqrt(float(np.einsum("eqc,eqc,q,e->", vals, vals, rule.weights, det))))
