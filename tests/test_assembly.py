import numpy as np
import pytest
import scipy.sparse as sp

import stokeseig.mesh as mm
from helpers import permute_edges, single_triangle_mesh, solve_problem
from stokeseig.assembly import (J, assemble_forms, build_pencil, export_matrix,
                                skew_free_part)
from stokeseig.errors import AssemblyError
from stokeseig.mesh import build_square_mesh
from stokeseig.spaces import DofMap, SpaceDescriptor, interpolate_ned
from stokeseig.sparselin import SparseMatrix, factorize


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
    scale = np.abs(forms.A.values).max()
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
    assert np.linalg.norm(pencil.K @ x - b) / np.linalg.norm(b) < 1e-10


@pytest.mark.parametrize("ell,k", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)])
def test_multiplier_border_adds_little_lu_fill(ell, k):
    # oracle: the same kernel removed by pinning the largest dof of the
    # constant-J interpolant, which leaves no dense row
    mesh = build_square_mesh(6, mm.BI_UNIT_SQUARE)
    desc = SpaceDescriptor(ell, k)
    forms = assemble_forms(mesh, DofMap(mesh, desc))
    z = interpolate_ned(mesh, desc, lambda p: J)
    keep = np.delete(np.arange(z.size), np.argmax(np.abs(z)))
    A, B = forms.A.sp[keep][:, keep], forms.B.sp[:, keep]
    pinned = factorize(SparseMatrix(sp.bmat([[A, B.T], [B, None]], format="csr")))
    bordered = factorize(build_pencil(forms).K)

    def fill(fact):
        return fact._lu.L.nnz + fact._lu.U.nnz

    assert fill(bordered) < 1.5 * fill(pinned)


def test_viscosity_must_be_positive():
    mesh = build_square_mesh(1, mm.UNIT_SQUARE)
    dm = DofMap(mesh, SpaceDescriptor(1, 0))
    with pytest.raises(AssemblyError):
        assemble_forms(mesh, dm, mu=0.0)


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
    export_matrix(pencil.K, path)
    rows = [ln.split() for ln in path.read_text().strip().splitlines()]
    assert len(rows) == pencil.K.nnz
    dense = np.zeros(pencil.K.shape)
    for i, j, v in rows:
        dense[int(i), int(j)] = float(v)
    assert np.array_equal(dense, pencil.K.toarray())
