import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import stokeseig.mesh as mm
from helpers import (block_pencil, permute_edges, refined_lshape, single_triangle_mesh,
                     solve_problem, square_pencil)
from stokeseig.assembly import (J, assemble_forms, build_pencil, export_matrix,
                                skew_free_part)
from stokeseig.eigsolve import EigConfig, solve_eig
from stokeseig.errors import AssemblyError, KindMismatchError
from stokeseig.fields import DiscreteField, pressure_from_stress, vorticity_from_stress
from stokeseig.mesh import build_square_mesh
from stokeseig.quadrature import quadrature
from stokeseig.refbasis import ned_basis, pk_basis
from stokeseig.spaces import (ALL_DIRICHLET, MIXED_BOTTOM_FIXED, DofMap, SpaceDescriptor,
                              interpolate_ned)
from stokeseig.sparselin import SparseMatrix, factorize

SCHEMES = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


def test_tensor_helper_identities():
    assert float(np.tensordot(J, J)) == 2.0
    assert np.abs(skew_free_part(J)).max() == 0.0
    eye = np.eye(2)
    assert np.array_equal(skew_free_part(eye), eye)
    rng = np.random.default_rng(1)
    tau = rng.standard_normal((7, 2, 2))
    red = skew_free_part(tau)
    # annihilates J and is idempotent
    assert np.abs(np.einsum("eij,ij->e", red, J)).max() < 1e-14
    assert np.abs(skew_free_part(red) - red).max() < 1e-14


def test_whitney_curl_integrals_are_unit():
    mesh = single_triangle_mesh()
    dm = DofMap(mesh, SpaceDescriptor(1, 0))
    forms = assemble_forms(mesh, dm)
    B = forms.B.toarray()
    # each stress row couples only the matching velocity component, with
    # integral of the Whitney curl equal to +-1 by edge orientation
    nonzero = B[np.abs(B) > 1e-13]
    assert np.allclose(np.abs(nonzero), 1.0, atol=1e-13)
    assert np.count_nonzero(np.abs(B) > 1e-13) == 6


def test_velocity_mass_is_areas():
    mesh = build_square_mesh(1, mm.UNIT_SQUARE)
    dm = DofMap(mesh, SpaceDescriptor(1, 0))
    forms = assemble_forms(mesh, dm)
    assert np.allclose(forms.M.toarray(), 0.5 * np.eye(4), atol=1e-14)


def test_constant_j_field_in_a_kernel():
    mesh = build_square_mesh(2, mm.UNIT_SQUARE)
    desc = SpaceDescriptor(1, 0)
    dm = DofMap(mesh, desc)
    forms = assemble_forms(mesh, dm)
    cj = interpolate_ned(mesh, desc, lambda p: J)
    scale = np.abs(forms.A.data).max()
    assert np.abs(forms.A @ cj).max() < 1e-12 * scale
    # the multiplier row evaluates to 2 |Omega| on the same field
    assert abs(forms.j @ cj - 2.0 * mesh.tri_areas.sum()) < 1e-12


def test_pencil_symmetry_and_blocks():
    mesh = build_square_mesh(4, mm.UNIT_SQUARE)
    dm = DofMap(mesh, SpaceDescriptor(1, 0))
    forms = assemble_forms(mesh, dm)
    pencil = build_pencil(forms)
    K = pencil.K.sp
    assert abs(K - K.T).max() == 0.0
    n = pencil.layout.size
    assert n == dm.n_sigma + dm.n_u + 1
    # N carries only the negative velocity mass block
    N = pencil.N.toarray()
    s = dm.n_sigma
    assert np.allclose(N[s:s + dm.n_u, s:s + dm.n_u], -forms.M.toarray())
    N[s:s + dm.n_u, s:s + dm.n_u] = 0.0
    assert np.abs(N).max() == 0.0


@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
@pytest.mark.parametrize("ell,k", SCHEMES)
def test_pencil_k_is_the_block_assembled_k_bit_for_bit(ell, k, bc):
    # the pencil keeps K's upper triangle; K.sp rebuilds the whole of it
    pencil = square_pencil(ell, k, bc, N=3)
    K, N = block_pencil(ell, k, bc, N=3)
    for got, want in ((pencil.K.sp, K), (pencil.N, N)):
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
    assert pencil.K.nnz == K.nnz
    assert pencil.K.norm_inf() == float(abs(K).sum(axis=1).max())


@pytest.mark.parametrize("mu", [1e-3, 1.0, 7.3])
@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
@pytest.mark.parametrize("ell,k", SCHEMES)
def test_a_and_k_are_symmetric_bit_for_bit(ell, k, bc, mu):
    if bc == MIXED_BOTTOM_FIXED:
        mesh = mm.tag_bottom_fixed(build_square_mesh(3, mm.UNIT_SQUARE))
    else:
        mesh = build_square_mesh(3, mm.BI_UNIT_SQUARE)
    forms = assemble_forms(mesh, DofMap(mesh, SpaceDescriptor(ell, k)), mu)
    K = build_pencil(forms).K.sp
    assert (forms.A != forms.A.T).nnz == 0
    assert (K != K.T).nnz == 0


@pytest.mark.parametrize("ell,k", SCHEMES)
def test_a_and_k_are_symmetric_bit_for_bit_on_a_graded_mesh(ell, k):
    mesh = refined_lshape()
    forms = assemble_forms(mesh, DofMap(mesh, SpaceDescriptor(ell, k)), 7.3)
    K = build_pencil(forms).K.sp
    assert (forms.A != forms.A.T).nnz == 0
    assert (K != K.T).nnz == 0


def test_block_definiteness():
    mesh = build_square_mesh(2, mm.UNIT_SQUARE)
    dm = DofMap(mesh, SpaceDescriptor(1, 0))
    forms = assemble_forms(mesh, dm)
    a_eigs = np.linalg.eigvalsh(forms.A.toarray())
    assert a_eigs.min() > -1e-12 * abs(a_eigs).max()   # positive semidefinite
    m_eigs = np.linalg.eigvalsh(forms.M.toarray())
    assert m_eigs.min() > 0.0                          # positive definite


def test_kernel_exclusion_unique_solve():
    mesh = build_square_mesh(3, mm.UNIT_SQUARE)
    dm = DofMap(mesh, SpaceDescriptor(1, 0))
    pencil = build_pencil(assemble_forms(mesh, dm))
    fact = factorize(pencil.K)
    assert np.abs(fact.solve(np.zeros(pencil.layout.size))).max() == 0.0
    rng = np.random.default_rng(5)
    b = rng.standard_normal(pencil.layout.size)
    x = fact.solve(b)
    assert np.linalg.norm(pencil.K.sp @ x - b) / np.linalg.norm(b) < 1e-10


def _fill(lu):
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("ell,k", SCHEMES)
def test_multiplier_border_adds_little_lu_fill(ell, k):
    # oracle: the pinned dof of the constant-J interpolant eliminated from the
    # system, instead of held by the multiplier row
    mesh = build_square_mesh(6, mm.BI_UNIT_SQUARE)
    desc = SpaceDescriptor(ell, k)
    forms = assemble_forms(mesh, DofMap(mesh, desc))
    z = interpolate_ned(mesh, desc, lambda p: J)
    keep = np.delete(np.arange(z.size), np.argmax(np.abs(z)))
    A, B = forms.A[keep][:, keep], forms.B[:, keep]
    pinned = factorize(SparseMatrix(sp.bmat([[A, B.T], [B, None]], format="csr")))
    bordered = factorize(SparseMatrix(build_pencil(forms).K.sp))
    assert _fill(bordered._lu) < 1.5 * _fill(pinned._lu)


@pytest.mark.parametrize("ell,k", SCHEMES)
def test_kernel_pin_keeps_stress_and_pressure(ell, k):
    mesh = build_square_mesh(3, mm.BI_UNIT_SQUARE)
    desc = SpaceDescriptor(ell, k)
    forms = assemble_forms(mesh, DofMap(mesh, desc))
    pencil = build_pencil(forms)
    z, j = pencil.layout.kernel
    want = interpolate_ned(mesh, desc, lambda p: J)
    assert np.abs(z - want).max() <= 1e-15 * np.abs(want).max()

    sol = solve_eig(pencil, EigConfig(nev=3))
    for sigma in sol.sigma:
        assert abs(j @ sigma) <= 1e-12 * np.linalg.norm(j) * np.linalg.norm(sigma)

    # oracle: the stress of each eigenpair from the pencil with the dense
    # multiplier border j, the kernel removed by the zero mean of sigma : J
    A, B, M = forms.A.toarray(), forms.B.toarray(), forms.M.toarray()
    ns, nu = B.shape[1], B.shape[0]
    bordered = np.block([[A, B.T, j[:, None]],
                         [B, np.zeros((nu, nu + 1))],
                         [j[None, :], np.zeros((1, nu + 1))]])
    points = quadrature(4).points
    for lam, sigma, u in zip(sol.eigenvalues, sol.sigma, sol.u):
        x = np.linalg.solve(bordered, np.concatenate([np.zeros(ns), -lam * M @ u, [0.0]]))
        assert np.abs(x[ns:ns + nu] - u).max() <= 1e-10 * np.abs(u).max()
        got, oracle = (pressure_from_stress(DiscreteField.stress(mesh, desc, s)).values_at(points)
                       for s in (sigma, x[:ns]))
        assert np.abs(got - oracle).max() <= 1e-10 * np.abs(oracle).max()


@pytest.mark.parametrize("bc", ["dirichlet", MIXED_BOTTOM_FIXED])
def test_constraint_scaling_cuts_lu_fill(bc):
    K = SparseMatrix(square_pencil(2, 1, bc).K.sp)
    plain = spla.splu(K.sp.tocsc(), permc_spec="COLAMD")
    assert _fill(factorize(K)._lu) <= 0.75 * _fill(plain)


@pytest.mark.parametrize("bc", ["dirichlet", MIXED_BOTTOM_FIXED])
def test_preorder_cuts_lu_fill(bc):
    # oracle: COLAMD on the same scaled matrix in DofMap order, whose blocks by
    # entity type carry no mesh locality
    K = SparseMatrix(square_pencil(2, 1, bc).K.sp)
    fact = factorize(K)
    D = sp.diags(fact._scale)     # powers of two, so D K D is exactly what factorize scales
    dofmap_order = spla.splu((D @ K.sp @ D).tocsc(), permc_spec="COLAMD")
    assert _fill(fact._lu) <= 0.92 * _fill(dofmap_order)


@pytest.mark.parametrize("bc", ["dirichlet", MIXED_BOTTOM_FIXED])
def test_condensation_cuts_lu_fill(bc):
    K = square_pencil(2, 1, bc).K
    whole = factorize(SparseMatrix(K.sp))
    assert _fill(factorize(K)._lu) <= 0.8 * _fill(whole._lu)


def test_scaled_pin_row_adds_no_lu_fill_to_a_shifted_pencil():
    # shifted, only the multiplier row has a zero diagonal; scaling it must not
    # move its pivot early, as it did for a dense border
    pencil = square_pencil(2, 1)
    shifted = SparseMatrix(pencil.K.sp - 5.0 * pencil.N)
    plain = spla.splu(shifted.sp.tocsc(), permc_spec="COLAMD")
    assert _fill(factorize(shifted)._lu) <= 1.1 * _fill(plain)


@pytest.mark.parametrize("mu", [0.0, -1.0, np.nan, np.inf, "x", None, True], ids=repr)
def test_viscosity_must_be_positive(mu):
    mesh = build_square_mesh(1, mm.UNIT_SQUARE)
    desc = SpaceDescriptor(1, 0)
    dm = DofMap(mesh, desc)
    with pytest.raises(AssemblyError):
        assemble_forms(mesh, dm, mu=mu)
    sigma = DiscreteField.stress(mesh, desc, np.ones(dm.n_sigma), dofmap=dm)
    with pytest.raises(KindMismatchError):
        vorticity_from_stress(sigma, pressure_from_stress(sigma), mu)


@pytest.mark.parametrize("ell,k", SCHEMES)
def test_curl_block_stores_no_rounding_noise(ell, k):
    desc = SpaceDescriptor(ell, k)
    # the reference block, integrated at degree 10, splits into rounding of
    # exact zeros and values far above the 1e-12 threshold assembly snaps at
    ned, pk = ned_basis(desc.stress_family, desc.stress_order), pk_basis(k)
    rule = quadrature(10)
    bhat = np.einsum("pq,dq,q->pd", pk.eval(rule.points), ned.eval_curl(rule.points),
                     rule.weights)
    rel = np.abs(bhat) / np.abs(bhat).max()
    assert rel[rel < 1e-12].max(initial=0.0) < 1e-13
    assert rel[rel >= 1e-12].min() >= 1e-3

    mesh = build_square_mesh(3, mm.BI_UNIT_SQUARE)
    B = assemble_forms(mesh, DofMap(mesh, desc)).B
    assert np.abs(B.data).min() >= 1e-12 * np.abs(B.data).max()


def _oracle_forms(mesh, dm, mu):
    """A, B, M and j by a per-element loop over a degree-10 rule."""
    ned, pk = dm.ned, dm.pk
    rule = quadrature(10)
    w, pts = rule.weights, rule.points
    vhat, chat, phat = ned.eval(pts), ned.eval_curl(pts), pk.eval(pts)
    _, _, det = mesh.affine_maps
    _, BinvT = mesh.inv_maps
    nd, npk = ned.dim, pk.dim
    A = sp.lil_matrix((dm.n_sigma, dm.n_sigma))
    B = sp.lil_matrix((dm.n_u, dm.n_sigma))
    M = sp.lil_matrix((dm.n_u, dm.n_u))
    j = np.zeros(dm.n_sigma)
    for t in range(mesh.num_triangles):
        sign = dm.vec_signs[t]
        phi = sign[:, None, None] * np.einsum("ij,dqj->dqi", BinvT[t], vhat)
        curl = sign[:, None] * chat / det[t]
        sdofs = [r * dm.n_vec + dm.vec_gmap[t] for r in range(2)]
        udofs = [t * 2 * npk + c * npk + np.arange(npk) for c in range(2)]
        tau = np.zeros((2, nd, len(w), 2, 2))   # row r of tau_(r, d) is phi_d
        tau[0, :, :, 0, :] = phi
        tau[1, :, :, 1, :] = phi
        sym = 0.5 * (tau + np.swapaxes(tau, -1, -2))
        a_loc = np.einsum("rdqab,sfqab,q->rdsf", sym, sym, w) * det[t] / mu
        for r in range(2):
            for s in range(2):
                A[np.ix_(sdofs[r], sdofs[s])] = A[np.ix_(sdofs[r], sdofs[s])] + a_loc[r, :, s]
            B[np.ix_(udofs[r], sdofs[r])] = np.einsum("pq,dq,q->pd", phat, curl, w) * det[t]
            M[np.ix_(udofs[r], udofs[r])] = np.einsum("pq,fq,q->pf", phat, phat, w) * det[t]
            j[sdofs[r]] += np.einsum("dqab,ab,q->d", tau[r], J, w) * det[t]
    return A.toarray(), B.toarray(), M.toarray(), j


@pytest.mark.parametrize("ell,k", SCHEMES)
def test_forms_match_per_element_quadrature(ell, k):
    mesh = refined_lshape()
    dm = DofMap(mesh, SpaceDescriptor(ell, k))
    forms = assemble_forms(mesh, dm, mu=1.7)
    A, B, M, j = _oracle_forms(mesh, dm, 1.7)
    B[np.abs(B) < 1e-12 * np.abs(B).max()] = 0.0
    for got, want in ((forms.A.toarray(), A), (forms.B.toarray(), B),
                      (forms.M.toarray(), M), (forms.j, j)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_mu_scaling_scales_eigenvalues():
    mesh = build_square_mesh(6, mm.BI_UNIT_SQUARE)
    sol1, _, _ = solve_problem(mesh, 1, 0, nev=1, mu=1.0)
    sol2, _, _ = solve_problem(mesh, 1, 0, nev=1, mu=2.0)
    assert abs(sol2.eigenvalues[0] - 2.0 * sol1.eigenvalues[0]) < 1e-9 * sol2.eigenvalues[0]


def test_edge_renumbering_invariance():
    mesh = build_square_mesh(4, mm.BI_UNIT_SQUARE)
    rng = np.random.default_rng(17)
    perm = rng.permutation(mesh.num_edges)
    permuted = permute_edges(mesh, perm)
    sol1, _, _ = solve_problem(mesh, 1, 0, nev=3)
    sol2, _, _ = solve_problem(permuted, 1, 0, nev=3)
    rel = np.abs(sol1.eigenvalues - sol2.eigenvalues) / sol1.eigenvalues
    assert rel.max() < 1e-9


def test_matrix_export(tmp_path):
    mesh = build_square_mesh(1, mm.UNIT_SQUARE)
    dm = DofMap(mesh, SpaceDescriptor(1, 0))
    pencil = build_pencil(assemble_forms(mesh, dm))
    path = tmp_path / "K.txt"
    K = pencil.K.sp
    export_matrix(K, path)
    rows = [ln.split() for ln in path.read_text().strip().splitlines()]
    assert len(rows) == K.nnz
    dense = np.zeros(K.shape)
    for i, j, v in rows:
        dense[int(i), int(j)] = float(v)
    assert np.array_equal(dense, K.toarray())


def test_matrix_export_matches_line_by_line_text(tmp_path):
    K = square_pencil(2, 1, N=3).K.sp
    path = tmp_path / "K.txt"
    export_matrix(K, path)
    coo = K.tocoo()
    want = "".join(f"{i} {j} {v:.17g}\n" for i, j, v in zip(coo.row, coo.col, coo.data))
    assert path.read_text() == want
