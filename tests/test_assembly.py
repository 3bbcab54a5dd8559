import copy
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import stokeseig.mesh as mm
from helpers import (block_pencil, forms_ab, permute_edges, refined_lshape,
                     single_triangle_mesh, solve_problem, square_pencil)
from stokeseig import sparselin
from stokeseig.assembly import (THETA0, J, PencilLayout, PencilMatrix, assemble_forms,
                                build_pencil, export_matrix, skew_free_part)
from stokeseig.eigsolve import EigConfig, eigen_residuals, solve_eig
from stokeseig.errors import AssemblyError, ConfigurationError, KindMismatchError
from stokeseig.fields import DiscreteField, pressure_from_stress, vorticity_from_stress
from stokeseig.mesh import build_square_mesh
from stokeseig.quadrature import quadrature
from stokeseig.refbasis import ned_basis, pk_basis
from stokeseig.spaces import (ALL_DIRICHLET, MIXED_BOTTOM_FIXED, DofMap, SpaceDescriptor,
                              interpolate_ned)
from stokeseig.sparselin import factorize

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
    B = forms_ab(assemble_forms(mesh, dm))[1].toarray()
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
    A = forms_ab(forms)[0]
    assert np.abs(A @ cj).max() < 1e-12 * np.abs(A.data).max()
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
    # the pencil keeps K - theta0 N as a view of the forms; K.sp builds the
    # whole of it
    pencil = square_pencil(ell, k, bc, N=3)
    assert pencil.theta0 == THETA0 < 0.0
    K, N = block_pencil(ell, k, bc, N=3)
    shifted = (K - THETA0 * N).tocsr()
    for got, want in ((pencil.K.sp, shifted), (pencil.N, N)):
        for attr in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr))
    assert pencil.K.nnz == shifted.nnz
    assert pencil.K.norm_inf() == float(abs(shifted).sum(axis=1).max())


@pytest.mark.parametrize("theta", [THETA0, 5.0])
@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
@pytest.mark.parametrize("ell,k", SCHEMES)
def test_element_blocks_sum_to_the_pencil_bit_for_bit(ell, k, bc, theta):
    # every triangle's Q at (group, group), C and C^T between its group and
    # its rest and D at (rest, rest), with the extra entries, is F = K.sp
    K = square_pencil(ell, k, bc, N=3).K.at(theta)
    want = K.sp
    F = K.element_blocks()
    g, r = F.groups, F.rest
    rows, cols, vals = [F.extra[0]], [F.extra[1]], [F.extra[2]]
    for block, i, j in ((F.Q, g, g), (F.C, g, r), (np.swapaxes(F.C, 1, 2), r, g), (F.D, r, r)):
        i, j = np.broadcast_to(i[:, :, None], block.shape), np.broadcast_to(j[:, None, :], block.shape)
        on = (i >= 0) & (j >= 0)
        rows, cols, vals = rows + [i[on]], cols + [j[on]], vals + [block[on]]
    got = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=K.shape)
    got.eliminate_zeros()
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr))


@pytest.mark.parametrize("mu", [1e-3, 1.0, 7.3])
@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
@pytest.mark.parametrize("ell,k", SCHEMES)
def test_a_and_k_are_symmetric_bit_for_bit(ell, k, bc, mu):
    if bc == MIXED_BOTTOM_FIXED:
        mesh = mm.tag_bottom_fixed(build_square_mesh(3, mm.UNIT_SQUARE))
    else:
        mesh = build_square_mesh(3, mm.BI_UNIT_SQUARE)
    forms = assemble_forms(mesh, DofMap(mesh, SpaceDescriptor(ell, k)), mu)
    K, A = build_pencil(forms).K.sp, forms_ab(forms)[0]
    assert (A != A.T).nnz == 0
    assert (K != K.T).nnz == 0


@pytest.mark.parametrize("ell,k", SCHEMES)
def test_a_and_k_are_symmetric_bit_for_bit_on_a_graded_mesh(ell, k):
    mesh = refined_lshape()
    forms = assemble_forms(mesh, DofMap(mesh, SpaceDescriptor(ell, k)), 7.3)
    K, A = build_pencil(forms).K.sp, forms_ab(forms)[0]
    assert (A != A.T).nnz == 0
    assert (K != K.T).nnz == 0


def test_block_definiteness():
    mesh = build_square_mesh(2, mm.UNIT_SQUARE)
    dm = DofMap(mesh, SpaceDescriptor(1, 0))
    forms = assemble_forms(mesh, dm)
    a_eigs = np.linalg.eigvalsh(forms_ab(forms)[0].toarray())
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
    # system, instead of held by the multiplier row, with the same groups
    mesh = build_square_mesh(6, mm.BI_UNIT_SQUARE)
    desc = SpaceDescriptor(ell, k)
    forms = assemble_forms(mesh, DofMap(mesh, desc))
    pencil = build_pencil(forms)
    z = interpolate_ned(mesh, desc, lambda p: J)
    keep = np.delete(np.arange(z.size), np.argmax(np.abs(z)))
    layout = PencilLayout(z.size, keep, pencil.layout.n_u, 0)
    pinned = factorize(PencilMatrix(forms, layout, THETA0))
    assert _fill(factorize(pencil.K)._lu) < 1.5 * _fill(pinned._lu)


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
    (A, B), M = (m.toarray() for m in forms_ab(forms)), forms.M.toarray()
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
def test_preorder_cuts_lu_fill(monkeypatch, bc):
    # oracle: the matrix factorize hands to SuperLU, the condensed
    # K - theta0 N, put back in DofMap order, whose blocks by entity type carry
    # no mesh locality, and ordered by MMD alone.  At N = 30 (the benchmark's
    # size) measured 0.72 (dirichlet) and 0.67 (mixed); below N = 20 the
    # preorder neither cuts nor adds fill
    seen = {}
    real_splu = spla.splu

    def splu(csc, **kw):
        seen["csc"], seen["kw"] = csc, kw
        return real_splu(csc, **kw)

    monkeypatch.setattr(sparselin.spla, "splu", splu)
    fact = factorize(square_pencil(2, 1, bc, N=30).K)
    back = np.argsort(fact._order)      # R ascends, so R[perm] sorts as perm does
    dofmap_order = real_splu(seen["csc"][back][:, back].tocsc(), **seen["kw"])
    assert _fill(fact._lu) <= 0.92 * _fill(dofmap_order)


@pytest.mark.parametrize("bc", ["dirichlet", MIXED_BOTTOM_FIXED])
def test_condensation_cuts_lu_fill(bc):
    K = square_pencil(2, 1, bc).K
    whole = factorize(K.sp)
    assert _fill(factorize(K)._lu) <= 0.8 * _fill(whole._lu)


@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
def test_positive_shift_fill_on_the_element_path(bc):
    # the indefinite S at a positive shift gets the diagonal pivots of the
    # definite S at theta0, so its fill stays at theta0's: measured at most
    # 1.026 times it, at (1,2) dirichlet theta = 30 (1.5-3.4 times under
    # partial pivoting).  With no pin, no pivot leaves the diagonal
    for ell, k in SCHEMES:
        pencil = square_pencil(ell, k, bc, N=4)
        fill0 = _fill(factorize(pencil.K)._lu)
        for theta in (5.0, 30.0, 100.0, 400.0):
            lu = factorize(pencil.K.at(theta))._lu
            assert _fill(lu) <= 1.05 * fill0, (ell, k, theta)
            if bc == MIXED_BOTTOM_FIXED:
                assert np.array_equal(lu.perm_r, lu.perm_c), (ell, k, theta)


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


def test_a_quadrature_beyond_the_rules_raises():
    # a stress basis of degree 5 asks for a rule of degree 12, above the
    # largest there is: assembly refuses instead of under-integrating
    mesh = build_square_mesh(1, mm.UNIT_SQUARE)
    dm = DofMap(mesh, SpaceDescriptor(1, 0))
    dm.ned = copy.copy(dm.ned)
    dm.ned.degree = 5
    with pytest.raises(ConfigurationError, match="degree 12"):
        assemble_forms(mesh, dm)


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
    B = forms_ab(assemble_forms(mesh, DofMap(mesh, desc)))[1]
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
    assembled = [m.toarray() for m in (*forms_ab(forms), forms.M)] + [forms.j]
    for got, want in zip(assembled, (A, B, M, j)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
@pytest.mark.parametrize("ell,k", SCHEMES)
def test_released_blocks_come_back_bit_for_bit(ell, k, bc):
    # factorize releases A's and B's element blocks and Rayleigh-Ritz makes
    # them anew: they, the view's reads and CSR and the residuals equal those
    # of forms that were never released, bit for bit
    if bc == MIXED_BOTTOM_FIXED:
        mesh = mm.tag_bottom_fixed(build_square_mesh(3, mm.UNIT_SQUARE))
    else:
        mesh = build_square_mesh(3, mm.BI_UNIT_SQUARE)
    pencil, kept = (build_pencil(assemble_forms(mesh, DofMap(mesh, SpaceDescriptor(ell, k), bc),
                                                mu=1.7)) for _ in range(2))
    first = pencil.forms.A_T
    with pytest.raises(ValueError, match="read-only"):
        first[0, 0] = 1.0
    solution = solve_eig(pencil, EigConfig(nev=2))
    forms, fresh = pencil.forms, kept.forms
    assert forms.blocks is not None and forms.blocks[0] is not first
    assert forms.A_T.tobytes() == fresh.A_T.tobytes()
    assert forms.B_T.tobytes() == fresh.B_T.tobytes()
    for K in (pencil.K, build_pencil(forms).K):
        assert (K.nnz, K.norm_inf(), K.amax) == (kept.K.nnz, kept.K.norm_inf(), kept.K.amax)
        got, want = K.sp, kept.K.sp
        for a in ("data", "indices", "indptr"):
            assert getattr(got, a).tobytes() == getattr(want, a).tobytes()
    assert eigen_residuals(pencil, solution) == eigen_residuals(kept, solution)


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


def test_build_pencil_allocates_less_than_the_forms():
    # the stress rows' reads (|K|_inf, max|K|) come from the element blocks,
    # |A_T| a chunk at a time, and only the velocity rows are built whole in
    # CSR: at its peak build_pencil holds less than the forms
    # themselves plus its layout (keep, index and the kernel z, under 32
    # bytes per pencil row).  A build of K's stress rows in CSR for the reads
    # peaks at 2.6 MB here, six times the forms' 0.41 MB
    mesh = build_square_mesh(8, mm.BI_UNIT_SQUARE)
    forms = assemble_forms(mesh, DofMap(mesh, SpaceDescriptor(2, 1)))
    assert np.shares_memory(forms.M.data, forms.M_T)    # counted once, as M_T
    own = sum(a.nbytes for a in (forms.A_T, forms.B_T, forms.M_T, forms.j, forms.M.indices,
                                 forms.M.indptr))
    tracemalloc.start()
    try:
        pencil = build_pencil(forms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= own + 32 * pencil.layout.size


@pytest.mark.parametrize("ell,k,N", [(2, 1, 30), (1, 0, 100)])
def test_assemble_forms_allocates_at_most_half_again_its_output(ell, k, N):
    # each A block is its triangle's 16-number geometry tensor times one
    # reference tensor, and the geometry tensors and j's values are formed a
    # chunk of triangles at a time; an (nt, nd, nd, 2, 2) element tensor of
    # all triangles would take the peak to 2.5-3 times the output
    mesh = build_square_mesh(N, mm.BI_UNIT_SQUARE)
    dofmap = DofMap(mesh, SpaceDescriptor(ell, k))
    assemble_forms(mesh, dofmap)        # the mesh's cached maps, the reference bases
    tracemalloc.start()
    try:
        forms = assemble_forms(mesh, dofmap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.shares_memory(forms.M.data, forms.M_T)    # counted once, as M_T
    own = sum(a.nbytes for a in (forms.A_T, forms.B_T, forms.M_T, forms.j, forms.M.indices,
                                 forms.M.indptr))
    assert peak <= 1.5 * own
