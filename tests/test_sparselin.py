import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import stokeseig.mesh as mm
from helpers import dense_gauss_solve, square_pencil
from stokeseig import sparselin
from stokeseig.assembly import assemble_forms, build_pencil
from stokeseig.errors import SingularMatrixError
from stokeseig.spaces import ALL_DIRICHLET, MIXED_BOTTOM_FIXED, DofMap, SpaceDescriptor
from stokeseig.sparselin import SparseMatrix, factorize


def test_identity_solve():
    A = SparseMatrix(np.eye(4))
    fact = factorize(A)
    b = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.allclose(fact.solve(b), b, atol=1e-14)


def test_antidiagonal_needs_pivoting():
    A = SparseMatrix([[0.0, 1.0], [1.0, 0.0]])
    fact = factorize(A)
    assert np.allclose(fact.solve(np.array([1.0, 2.0])), [2.0, 1.0], atol=1e-14)


def test_random_saddle_point_residual():
    rng = np.random.default_rng(42)
    n, m = 140, 60
    Ablk = rng.standard_normal((n, n))
    Ablk = Ablk + Ablk.T + 2.0 * n * np.eye(n)
    Bblk = rng.standard_normal((m, n))
    K = np.block([[Ablk, Bblk.T], [Bblk, np.zeros((m, m))]])
    # sparsify: zero small entries while keeping symmetry and full rank
    K[np.abs(K) < 0.4] = 0.0
    K = (K + K.T) / 2.0
    A = SparseMatrix(K)
    x = rng.standard_normal(n + m)
    b = A.sp @ x
    got = factorize(A).solve(b)
    denom = A.norm_inf() * np.abs(got).max() + np.abs(b).max()
    assert np.abs(A.sp @ got - b).max() / denom <= 1e-10


def test_scaled_solve_of_many_right_hand_sides():
    rng = np.random.default_rng(7)
    n, m = 40, 15
    Ablk = rng.standard_normal((n, n))
    Ablk = Ablk + Ablk.T + 2.0 * n * np.eye(n)
    Bblk = 1e-3 * rng.standard_normal((m, n))
    A = SparseMatrix(np.block([[Ablk, Bblk.T], [Bblk, np.zeros((m, m))]]))
    fact = factorize(A)
    assert fact._scale[n:].min() > 1.0     # the zero-diagonal rows are scaled
    rhs = rng.standard_normal((n + m, 3))
    X = fact.solve(rhs)
    for c in range(3):
        x = fact.solve(rhs[:, c])
        assert np.abs(X[:, c] - x).max() <= 1e-14 * np.abs(x).max()
        assert np.abs(A.sp @ x - rhs[:, c]).max() <= 1e-10 * np.abs(rhs[:, c]).max()


def test_preordered_solve_round_trip():
    # nonsymmetric [[A, C], [B, 0]]: the zero-diagonal rows get scaled, and the
    # reverse Cuthill-McKee preorder moves rows and columns
    rng = np.random.default_rng(11)
    n, m = 50, 12
    Ablk = sp.random(n, n, density=0.1, random_state=rng).toarray() + 4.0 * np.eye(n)
    Bblk = sp.random(m, n, density=0.2, random_state=rng).toarray()
    Cblk = sp.random(n, m, density=0.2, random_state=rng).toarray()
    Bblk[np.arange(m), rng.permutation(n)[:m]] = 1.0    # no empty constraint row
    Cblk[rng.permutation(n)[:m], np.arange(m)] = 1.0    # nor column
    dense = np.block([[Ablk, Cblk], [Bblk, np.zeros((m, m))]])
    q = rng.permutation(n + m)
    dense = dense[q][:, q]
    A = SparseMatrix(dense)
    fact = factorize(A)
    assert np.any(fact._scale != 1.0)
    assert not np.array_equal(fact._perm, np.arange(n + m))
    for b in (rng.standard_normal(n + m), rng.standard_normal((n + m, 3))):
        x = fact.solve(b)
        want = np.linalg.solve(dense, b)
        assert x.shape == b.shape
        assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()
        # reports are reproducible only if refactorizing gives the same bits
        assert np.array_equal(factorize(A).solve(b), x)


@pytest.mark.parametrize("n", [5, 17, 50])
def test_matches_dense_elimination_oracle(n):
    rng = np.random.default_rng(n)
    dense = rng.standard_normal((n, n)) + n * np.eye(n)
    dense[np.abs(dense) < 0.5] = 0.0
    dense += n * np.eye(n) * 0.0
    b = rng.standard_normal(n)
    A = SparseMatrix(dense)
    x_sparse = factorize(A).solve(b)
    x_oracle = dense_gauss_solve(dense, b)
    assert np.abs(x_sparse - x_oracle).max() <= 1e-9 * max(1.0, np.abs(x_oracle).max())


def test_structurally_singular_reported():
    dense = np.eye(4)
    dense[2, 2] = 0.0
    with pytest.raises(SingularMatrixError) as info:
        factorize(SparseMatrix(dense))
    assert info.value.kind in ("structural", "numerical")


def test_numerically_singular_reported():
    dense = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as info:
        factorize(SparseMatrix(dense))
    assert info.value.kind == "numerical"


@pytest.mark.parametrize("dense", [
    # rank 19 in exact arithmetic, so only rounding keeps the last pivot nonzero
    np.random.default_rng(3).standard_normal((20, 19))
    @ np.random.default_rng(4).standard_normal((19, 20)),
    # a pivot so small that the solves overflow
    np.diag([1.0, 1e-320]),
], ids=["rank_deficient_product", "denormal_pivot"])
def test_nearly_singular_without_zero_pivot_reported(dense):
    A = SparseMatrix(dense)
    spla.splu(A.sp.tocsc(), permc_spec="COLAMD")   # SuperLU itself accepts it
    with pytest.raises(SingularMatrixError) as info:
        factorize(A)
    assert info.value.kind == "numerical"


class _FactorsUnreadable:
    """SuperLU object that solves but refuses to hand out its factors: reading
    ``L`` or ``U`` makes SuperLU build and keep CSC copies of both."""

    def __init__(self, lu):
        self.solve = lu.solve

    @property
    def L(self):
        raise AssertionError("factorize read lu.L")

    @property
    def U(self):
        raise AssertionError("factorize read lu.U")


def test_factorize_never_reads_the_factors(monkeypatch):
    mesh = mm.build_square_mesh(4, mm.BI_UNIT_SQUARE)
    K = build_pencil(assemble_forms(mesh, DofMap(mesh, SpaceDescriptor(2, 1)))).K
    b = np.random.default_rng(5).standard_normal(K.sp.shape[0])
    expect = factorize(K).solve(b)
    real_splu = spla.splu
    monkeypatch.setattr(sparselin.spla, "splu",
                        lambda *args, **kw: _FactorsUnreadable(real_splu(*args, **kw)))
    assert np.array_equal(factorize(K).solve(b), expect)


@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
@pytest.mark.parametrize("ell,k", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_condensed_solve_matches_block_free(ell, k, bc):
    K = square_pencil(ell, k, bc).K
    fact, whole = factorize(K), factorize(SparseMatrix(K.sp))
    n = K.sp.shape[0]
    assert fact._lu.shape[0] == n - K.local.size
    rng = np.random.default_rng(8)
    for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        x, want = fact.solve(b), whole.solve(b)
        assert x.shape == b.shape
        assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()
    # refactorizing K gives the same fill (the benchmark's trace check relies on it)
    again = factorize(K)
    assert again._lu.L.nnz + again._lu.U.nnz == fact._lu.L.nnz + fact._lu.U.nnz


@pytest.mark.parametrize("ell,k,width", [(1, 0, None), (2, 0, None), (1, 1, 8), (1, 2, 22),
                                         (2, 1, 10), (2, 2, 26)])
def test_interior_groups_per_scheme(ell, k, width):
    pencil = square_pencil(ell, k, N=2)
    if width is None:
        assert pencil.K.local is None
    else:
        assert pencil.K.local.shape == (pencil.dofmap.mesh.num_triangles, width)
        assert np.unique(pencil.K.local).size == pencil.K.local.size


def _randomly_refined_lshape():
    rng = np.random.default_rng(17)
    mesh = mm.build_lshape_mesh(2)
    for _ in range(3):
        mesh = mm.refine(mesh, np.flatnonzero(rng.random(mesh.num_triangles) < 0.3))
    return mesh


@pytest.mark.parametrize("ell,k", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)])
@pytest.mark.parametrize("build", [lambda: mm.build_square_mesh(4, mm.BI_UNIT_SQUARE),
                                   lambda: mm.build_circle_mesh(3), _randomly_refined_lshape],
                         ids=["square", "disk", "random_lshape"])
def test_pinned_dof_is_an_edge_dof_outside_every_group(build, ell, k):
    mesh = build()
    dofmap = DofMap(mesh, SpaceDescriptor(ell, k))
    pencil = build_pencil(assemble_forms(mesh, dofmap))
    pin_row = pencil.K.sp[-1]
    assert pin_row.nnz == 1
    pinned = pin_row.indices[0]
    n_edge = dofmap.ned.dim - dofmap.interior_dofs_per_tri
    assert np.isin(pinned, dofmap.stress_gmap[:, :, :n_edge])
    if pencil.K.local is not None:
        assert not np.isin(pinned, pencil.K.local)
        # why: on every triangle each interior moment of the constant J is at
        # most half the triangle's largest edge moment
        z = np.abs(pencil.layout.kernel[0])[dofmap.stress_gmap].reshape(mesh.num_triangles, 2, -1)
        edge, interior = z[:, :, :n_edge], z[:, :, n_edge:]
        assert np.all(interior.max(axis=(1, 2)) <= 0.5 * (1 + 1e-12) * edge.max(axis=(1, 2)))


@pytest.mark.parametrize("factor", [0.0, 1e-14], ids=["singular", "ill_conditioned"])
def test_singular_interior_block_reported(factor):
    # (2,1): six interior stress dofs against four velocity modes, so one
    # triangle's block is singular without its A_II part
    K = square_pencil(2, 1, N=2).K
    coo = K.sp.tocoo()
    stress = K.local[0, :6]
    coo.data[np.isin(coo.row, stress) & np.isin(coo.col, stress)] *= factor
    with pytest.raises(SingularMatrixError) as info:
        factorize(SparseMatrix(coo, K.local))
    assert info.value.kind == "numerical"
    assert f"block of unknowns {K.local[0].tolist()}" in str(info.value)


def test_entry_coupling_two_groups_reported():
    K = square_pencil(2, 1, N=2).K
    i, j = K.local[0, 0], K.local[1, 0]
    link = sp.csr_matrix(([1.0, 1.0], ([i, j], [j, i])), shape=K.sp.shape)
    with pytest.raises(SingularMatrixError) as info:
        factorize(SparseMatrix(K.sp + link, K.local))
    assert info.value.kind == "structural"


def test_rejects_non_square():
    A = SparseMatrix(sp.csr_matrix(([1.0, 1.0], ([0, 1], [0, 2])), shape=(2, 3)))
    with pytest.raises(SingularMatrixError):
        factorize(A)


@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
@pytest.mark.parametrize("ell,k", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)])
def test_forms_and_pencil_are_canonical_csr(ell, k, bc):
    # sorted, duplicate-free CSR: _condense fills its blocks by assignment
    mesh = mm.build_square_mesh(3, mm.UNIT_SQUARE)
    if bc == MIXED_BOTTOM_FIXED:
        mesh = mm.tag_bottom_fixed(mesh)
    forms = assemble_forms(mesh, DofMap(mesh, SpaceDescriptor(ell, k), bc))
    pencil = build_pencil(forms)
    for mat in (forms.A, forms.B, forms.M, pencil.K.sp, pencil.N):
        assert sp.isspmatrix_csr(mat)
        assert mat.has_canonical_format


def _numpy_bytes():
    """Bytes of numpy data allocated since tracemalloc started and still alive."""
    numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    return sum(t.size for t in tracemalloc.take_snapshot().filter_traces(numpy_only).traces)


def test_only_the_scaled_matrix_alive_during_splu(monkeypatch):
    # at its memory peak SuperLU shares the process with the pencil's K, kept
    # as its upper triangle, and the matrix it factorizes; Q^-1 and K_ER are
    # read off the triangle after it returns
    K = square_pencil(2, 1).K
    n = K.shape[0]
    assert K._csr is None and K._upper.nnz <= (K.nnz + n) / 2
    seen = {}
    real_splu = spla.splu

    def splu(csc, **kw):
        seen["alive"] = _numpy_bytes()
        seen["csc"] = csc.data.nbytes + csc.indices.nbytes + csc.indptr.nbytes
        return real_splu(csc, **kw)

    monkeypatch.setattr(sparselin.spla, "splu", splu)
    tracemalloc.start()
    try:
        fact = factorize(K)
    finally:
        tracemalloc.stop()
    E, R, Qinv, KER = fact._blocks
    # the RCM order, the scale and the column counts: at most 4 x 8 bytes per row
    allowed = seen["csc"] + 4 * 8 * n
    assert seen["alive"] <= allowed
    # the bound would see either block
    assert seen["alive"] + min(Qinv.nbytes, KER.data.nbytes) > allowed


@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
@pytest.mark.parametrize("ell,k", [(1, 0), (1, 2), (2, 1)])
def test_reads_of_the_triangle_equal_those_of_the_full_matrix(ell, k, bc):
    K = square_pencil(ell, k, bc, N=4).K
    full = K.sp
    assert sp.isspmatrix_csr(full) and full.has_canonical_format and full.nnz == K.nnz
    assert (full != full.T).nnz == 0
    assert np.array_equal(K.row_max(), abs(full).max(axis=1).toarray().ravel())
    # products: U x + U^T x - d x sums each row in another order than K x, so
    # the two differ by at most the rounding bound of a sum of m terms, twice
    x = np.random.default_rng(3).standard_normal(K.shape[0])
    bound = (np.diff(full.indptr) + 2) * np.finfo(float).eps * (abs(full) @ np.abs(x))
    assert np.all(np.abs(K.matvec(x) - full @ x) <= bound)
    if K.local is None:
        return
    # blocks, bit for bit: Q^-1 of the full blocks, K_ER and S from slices of the full K
    E, R, Qinv, KER = sparselin._blocks(K.upper, K.local)
    n_blocks, g = K.local.shape
    Q = full[E][:, E].toarray().reshape(n_blocks, g, n_blocks, g)
    assert np.array_equal(Qinv, np.linalg.inv(Q[np.arange(n_blocks), :, np.arange(n_blocks)]))
    sliced = full[E][:, R]
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(KER, attr), getattr(sliced, attr))
    S = (full[R][:, R] - sparselin._coupling(sliced, Qinv) @ sliced).tocsr()
    condensed = sparselin._condense(K.upper, K.local)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(condensed, attr), getattr(S, attr))


@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
def test_unrelaxed_supernodes_store_less_than_superlu_default(monkeypatch, bc):
    # oracle: the matrix factorize hands to SuperLU, factorized at SuperLU's
    # default relax with the same panel size
    seen = {}
    real_splu = spla.splu

    def splu(csc, **kw):
        seen["csc"], seen["kw"] = csc, kw
        return real_splu(csc, **kw)

    monkeypatch.setattr(sparselin.spla, "splu", splu)
    fact = factorize(square_pencil(1, 0, bc, N=12).K)
    kw = {key: value for key, value in seen["kw"].items() if key != "relax"}
    relaxed = real_splu(seen["csc"], **kw)
    # measured with scipy 1.17: 0.979 (dirichlet), 0.975 (mixed)
    assert fact._lu.L.nnz + fact._lu.U.nnz <= 0.99 * (relaxed.L.nnz + relaxed.U.nnz)


def test_norm_inf_is_computed_once():
    K = square_pencil(2, 1).K
    tracemalloc.start()
    try:
        value = K.norm_inf()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024
    assert value == K.norm_inf()
