import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import stokeseig.mesh as mm
from helpers import block_pencil, dense_gauss_solve, forms_ab, perturb_a_blocks, square_pencil
from stokeseig import eigsolve, sparselin
from stokeseig.assembly import THETA0, assemble_forms, build_pencil, upper_positions
from stokeseig.eigsolve import EigConfig, solve_eig
from stokeseig.errors import ShiftAtEigenvalueError, SingularMatrixError
from stokeseig.spaces import ALL_DIRICHLET, MIXED_BOTTOM_FIXED, DofMap, SpaceDescriptor
from stokeseig.sparselin import factorize

SCHEMES = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


def test_identity_solve():
    A = sp.csr_matrix(np.eye(4))
    fact = factorize(A)
    b = np.array([1.0, -2.0, 3.0, 0.5])
    assert np.allclose(fact.solve(b), b, atol=1e-14)


def test_antidiagonal_needs_pivoting():
    A = sp.csr_matrix([[0.0, 1.0], [1.0, 0.0]])
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
    A = sp.csr_matrix(K)
    x = rng.standard_normal(n + m)
    b = A @ x
    got = factorize(A).solve(b)
    denom = abs(A).sum(axis=1).max() * np.abs(got).max() + np.abs(b).max()
    assert np.abs(A @ got - b).max() / denom <= 1e-10


def test_block_solve_equals_column_solves():
    rng = np.random.default_rng(7)
    n, m = 40, 15
    Ablk = rng.standard_normal((n, n))
    Ablk = Ablk + Ablk.T + 2.0 * n * np.eye(n)
    Bblk = 1e-3 * rng.standard_normal((m, n))
    A = sp.csr_matrix(np.block([[Ablk, Bblk.T], [Bblk, np.zeros((m, m))]]))
    # a plain matrix, and the pencil's K given by its triangles' blocks: a
    # block of columns is solved in one pass, one SuperLU solve for all
    K = square_pencil(2, 1).K
    for F, times in ((A, A.dot), (K, K.matvec)):
        fact = factorize(F)
        rhs = rng.standard_normal((F.shape[0], 3))
        X = fact.solve(rhs)
        for c in range(3):
            x = fact.solve(rhs[:, c])
            assert np.abs(X[:, c] - x).max() <= 1e-14 * np.abs(x).max()
            assert np.abs(times(x) - rhs[:, c]).max() <= 1e-10 * np.abs(rhs[:, c]).max()


def test_preordered_solve_round_trip():
    # symmetric [[A, B^T], [B, 0]], its rows and columns shuffled: the reverse
    # Cuthill-McKee preorder moves them
    rng = np.random.default_rng(11)
    n, m = 50, 12
    Ablk = sp.random(n, n, density=0.1, random_state=rng).toarray()
    Ablk = Ablk + Ablk.T + 4.0 * np.eye(n)
    Bblk = sp.random(m, n, density=0.2, random_state=rng).toarray()
    Bblk[np.arange(m), rng.permutation(n)[:m]] = 1.0    # no empty constraint row
    dense = np.block([[Ablk, Bblk.T], [Bblk, np.zeros((m, m))]])
    q = rng.permutation(n + m)
    dense = dense[q][:, q]
    A = sp.csr_matrix(dense)
    fact = factorize(A)
    assert not np.array_equal(fact._order, np.arange(n + m))
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
    dense = rng.standard_normal((n, n))
    dense[np.abs(dense) < 0.5] = 0.0
    dense = dense + dense.T + n * np.eye(n)
    b = rng.standard_normal(n)
    A = sp.csr_matrix(dense)
    x_sparse = factorize(A).solve(b)
    x_oracle = dense_gauss_solve(dense, b)
    assert np.abs(x_sparse - x_oracle).max() <= 1e-9 * max(1.0, np.abs(x_oracle).max())


def test_structurally_singular_reported():
    dense = np.eye(4)
    dense[2, 2] = 0.0
    with pytest.raises(SingularMatrixError) as info:
        factorize(sp.csr_matrix(dense))
    assert info.value.kind in ("structural", "numerical")


def test_numerically_singular_reported():
    dense = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrixError) as info:
        factorize(sp.csr_matrix(dense))
    assert info.value.kind == "numerical"


@pytest.mark.parametrize("dense", [
    # X X^T, rank 19 in exact arithmetic, so only rounding keeps the last
    # pivot nonzero
    (lambda X: X @ X.T)(np.random.default_rng(3).standard_normal((20, 19))),
    # a pivot so small that the solves overflow
    np.diag([1.0, 1e-320]),
], ids=["rank_deficient_product", "denormal_pivot"])
def test_nearly_singular_without_zero_pivot_reported(dense):
    A = sp.csr_matrix(dense)
    spla.splu(A.tocsc(), permc_spec="COLAMD")   # SuperLU itself accepts it
    with pytest.raises(SingularMatrixError) as info:
        factorize(A)
    assert info.value.kind == "numerical"


def _count_solves(monkeypatch, spoil=None):
    """Count the calls of ``Factorization.solve``; ``spoil`` (call, value), when
    given, writes value into entry 0 of that call's result."""
    calls = []
    solve = sparselin.Factorization.solve

    def counted(self, b, out=None):
        x = solve(self, b, out)
        if spoil is not None and len(calls) == spoil[0]:
            x[0] = spoil[1]
        calls.append(b.shape)
        return x
    monkeypatch.setattr(sparselin.Factorization, "solve", counted)
    return calls


def _assert_condition_is_onenormest(monkeypatch, F, amax):
    # the estimate factorize judges is scipy's onenormest(t=1) of F^-1 times
    # max|F|, bit for bit, from as many solves
    calls = _count_solves(monkeypatch)
    fact = factorize(F)
    made = len(calls)
    n = F.shape[0]
    inverse = spla.LinearOperator((n, n), matvec=fact.solve, rmatvec=fact.solve, dtype=float)
    assert fact.condition == spla.onenormest(inverse, t=1) * amax
    assert len(calls) - made == made


@pytest.mark.parametrize("theta", [THETA0, 5.0])
@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
@pytest.mark.parametrize("ell,k", SCHEMES)
def test_condition_is_scipys_one_norm_estimate(monkeypatch, ell, k, bc, theta):
    # the definite H at theta0 and the indefinite H at 5, which lies between
    # eigenvalues, both with diagonal pivots in symmetric mode
    K = square_pencil(ell, k, bc, N=4).K.at(theta)
    _assert_condition_is_onenormest(monkeypatch, K, K.amax)


@pytest.mark.parametrize("dense", [[[2.0, -1.0], [-1.0, 3.0]], [[-4.0]],
                                   [[1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 1.0]]],
                         ids=["2x2", "1x1", "tie"])
def test_condition_of_a_plain_matrix_is_scipys_one_norm_estimate(monkeypatch, dense):
    # at n = 1 scipy takes its exact branch: one solve of e_0.  On "tie" the
    # second solve's largest |entry| is at rows 0 and 2, whose columns of the
    # inverse have 1-norms 1 and 3: the estimate follows the one scipy picks
    _assert_condition_is_onenormest(monkeypatch, sp.csr_matrix(dense), np.abs(dense).max())


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("call", range(4))
def test_a_non_finite_solve_fails_the_condition_estimate(monkeypatch, call, value):
    # each of the estimate's four solves on this pencil, spoiled in one entry,
    # leaves the estimate non-finite; onenormest would go on from the next
    # unit vector to a finite estimate
    K = square_pencil(1, 0, N=4).K
    calls = _count_solves(monkeypatch, (call, value))
    with pytest.raises(SingularMatrixError) as info:
        factorize(K)
    assert info.value.kind == "numerical"
    assert len(calls) == call + 1


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
    b = np.random.default_rng(5).standard_normal(K.shape[0])
    expect = factorize(K).solve(b)
    real_splu = spla.splu
    monkeypatch.setattr(sparselin.spla, "splu",
                        lambda *args, **kw: _FactorsUnreadable(real_splu(*args, **kw)))
    assert np.array_equal(factorize(K).solve(b), expect)


@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
@pytest.mark.parametrize("ell,k", SCHEMES)
def test_condensed_solve_matches_block_free(ell, k, bc):
    # diagonal pivots on the condensed matrix at theta0 and at positive
    # shifts, where it is indefinite, against the whole matrix with partial
    # pivoting; under mixed conditions triangles lack some of their rest
    pencil = square_pencil(ell, k, bc)
    n = pencil.K.shape[0]
    rng = np.random.default_rng(8)
    for K in (pencil.K, *(pencil.K.at(theta) for theta in (5.0, 30.0, 400.0))):
        fact, whole = factorize(K), factorize(K.sp)
        assert fact._lu.shape[0] == n - K.element_blocks().groups.size
        for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            x, want = fact.solve(b), whole.solve(b)
            assert x.shape == b.shape
            assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()
    # refactorizing K gives the same fill (the benchmark's trace check relies on it)
    fact, again = factorize(pencil.K), factorize(pencil.K)
    assert again._lu.L.nnz + again._lu.U.nnz == fact._lu.L.nnz + fact._lu.U.nnz


@pytest.mark.parametrize("ell,k,width", [(1, 0, None), (2, 0, None), (1, 1, 8), (1, 2, 22),
                                         (2, 1, 10), (2, 2, 26)])
def test_interior_groups_per_scheme(ell, k, width):
    # width: a triangle's interior stress dofs and the velocity modes they see
    # through the curl (None: no interior dofs).  Each group holds them and
    # the two constant velocity modes, which the curl of a bubble does not see
    pencil = square_pencil(ell, k, N=2)
    local, K = pencil.K.element_blocks().groups, pencil.K.sp
    assert local.shape == (pencil.dofmap.mesh.num_triangles, (width or 0) + 2)
    assert np.unique(local).size == local.size
    n_stress = 2 * pencil.dofmap.interior_dofs_per_tri
    for group in local:
        seen = K[group[:n_stress]][:, group[n_stress:]].getnnz(axis=0) > 0
        assert n_stress + seen.sum() == (width or 0)


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
    assert not np.isin(pinned, pencil.K.element_blocks().groups)
    if dofmap.interior_dofs_per_tri:
        # why: on every triangle each interior moment of the constant J is at
        # most half the triangle's largest edge moment
        z = np.abs(pencil.layout.kernel[0])[dofmap.stress_gmap].reshape(mesh.num_triangles, 2, -1)
        edge, interior = z[:, :, :n_edge], z[:, :, n_edge:]
        assert np.all(interior.max(axis=(1, 2)) <= 0.5 * (1 + 1e-12) * edge.max(axis=(1, 2)))


@pytest.mark.parametrize("factor,theta", [(0.0, THETA0), (1e-14, 5.0)],
                         ids=["singular", "ill_conditioned"])
def test_singular_interior_block_reported(monkeypatch, factor, theta):
    # (2,1): six interior stress dofs against four velocity modes, so one
    # triangle's block is singular without its A_II part.  At theta0 < 0 the
    # blocks are judged after scaling to a unit diagonal, which leaves the
    # 1e-14 block well conditioned; the indefinite blocks of a positive shift
    # are judged as they are
    dofmap = square_pencil(2, 1, N=2).dofmap
    nd, ni = dofmap.ned.dim, dofmap.interior_dofs_per_tri
    inner = np.r_[nd - ni:nd, 2 * nd - ni:2 * nd]
    at = np.unique(upper_positions(2 * nd)[np.ix_(inner, inner)])

    def edit(a):
        a[0, at] *= factor

    perturb_a_blocks(monkeypatch, edit)
    pencil = square_pencil(2, 1, N=2)
    with pytest.raises(SingularMatrixError) as info:
        factorize(pencil.K.at(theta))
    assert info.value.kind == "numerical"
    assert f"block of unknowns {pencil.K.element_blocks().groups[0].tolist()}" in str(info.value)


@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
@pytest.mark.parametrize("ell,k", SCHEMES)
def test_groups_couple_only_within_their_triangle(ell, k, bc):
    # condense reads a group's rows off its triangle's blocks alone: in the
    # assembled K - theta0 N they reach only the group and the triangle's rest
    pencil = square_pencil(ell, k, bc, N=3)
    F, K = pencil.K.element_blocks(), pencil.K.sp
    for group, rest in zip(F.groups, F.rest):
        assert set(K[group].indices) <= set(group) | set(rest[rest >= 0])


def test_rejects_non_square():
    A = sp.csr_matrix(([1.0, 1.0], ([0, 1], [0, 2])), shape=(2, 3))
    with pytest.raises(SingularMatrixError):
        factorize(A)


def test_rejects_nonsymmetric():
    # the singularity estimate solves with F for F^T, and the preorder reads
    # the pattern of F + F^T
    A = sp.csr_matrix([[2.0, 1.0], [1.0 + 2 ** -52, 2.0]])
    with pytest.raises(ValueError, match="not symmetric"):
        factorize(A)
    with pytest.raises(ValueError, match="not symmetric"):
        factorize(sp.csr_matrix([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
@pytest.mark.parametrize("ell,k", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)])
def test_forms_and_pencil_are_canonical_csr(ell, k, bc):
    # sorted, duplicate-free CSR, as every caller of the forms expects
    mesh = mm.build_square_mesh(3, mm.UNIT_SQUARE)
    if bc == MIXED_BOTTOM_FIXED:
        mesh = mm.tag_bottom_fixed(mesh)
    forms = assemble_forms(mesh, DofMap(mesh, SpaceDescriptor(ell, k), bc))
    pencil = build_pencil(forms)
    for mat in (forms.M, pencil.K.sp, pencil.N):
        assert sp.isspmatrix_csr(mat)
        assert mat.has_canonical_format


def _numpy_bytes():
    """Bytes of numpy data allocated since tracemalloc started and still alive."""
    numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    return sum(t.size for t in tracemalloc.take_snapshot().filter_traces(numpy_only).traces)


def test_only_the_solve_blocks_alive_during_splu(monkeypatch):
    # at its memory peak SuperLU shares the process with the pencil's forms,
    # the matrix it factorizes and what the condensed solve keeps, Q^-1 and
    # the triangles' couplings C_T, made once; Q, D and S are gone
    K = square_pencil(2, 1).K
    n = K.shape[0]
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
    kept = sum(a.nbytes for a in (fact._E, fact._order, fact._Qinv, fact._C, fact._cols))
    # the RCM order and what else factorize holds per row: at most 4 x 8 bytes per row
    allowed = seen["csc"] + kept + 4 * 8 * n
    assert seen["alive"] <= allowed
    # the bound would see the smallest of the triangles' blocks
    assert seen["alive"] + K.element_blocks().Q.nbytes > allowed


def test_a_whole_solve_keeps_no_assembled_a_at_splu(monkeypatch):
    # from assembly on, at SuperLU's memory peak the process holds no copy of
    # A: with A's and B's element blocks alive beside the factors' inputs,
    # the live bytes exceed this bound by 306,404 (32% of it)
    mesh = mm.build_square_mesh(8, mm.BI_UNIT_SQUARE)
    dofmap = DofMap(mesh, SpaceDescriptor(2, 1))
    seen = {}
    real_splu = spla.splu

    def splu(csc, **kw):
        seen["alive"] = _numpy_bytes()
        seen["csc"] = csc.data.nbytes + csc.indices.nbytes + csc.indptr.nbytes
        return real_splu(csc, **kw)

    monkeypatch.setattr(sparselin.spla, "splu", splu)
    tracemalloc.start()
    try:
        forms = assemble_forms(mesh, dofmap)
        K = build_pencil(forms).K
        fact = factorize(K)
    finally:
        tracemalloc.stop()
    # M's data is M_T's buffer; A's and B's blocks are released before S is
    # condensed, and reading them here would make them anew
    kept = [forms.M_T, forms.j, forms.M.indices, forms.M.indptr, fact._E, fact._order,
            fact._Qinv, fact._C, fact._cols]
    # the layout and the RCM order: at most 4 x 8 bytes per row
    allowed = sum(a.nbytes for a in kept) + seen["csc"] + 4 * 8 * K.shape[0]
    assert seen["alive"] <= allowed


@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
def test_no_a_or_b_block_alive_while_superlu_and_lanczos_run(monkeypatch, bc):
    # element_blocks() releases A's and B's blocks once it has gathered the
    # triangles' Q, C and D, and Rayleigh-Ritz makes them anew: when SuperLU
    # is called and when the Lanczos run ends, the live numpy bytes are those
    # of the forms' M and j, the layout, K's theta-free row bounds (which its
    # views at other shifts read), what the solves keep and, at SuperLU,
    # the matrix it factorizes or, after Lanczos, its output.  The bound is
    # that sum and 4 bytes a row, less than either block takes.
    if bc == MIXED_BOTTOM_FIXED:
        mesh = mm.tag_bottom_fixed(mm.build_square_mesh(8, mm.UNIT_SQUARE))
    else:
        mesh = mm.build_square_mesh(8, mm.BI_UNIT_SQUARE)
    dofmap = DofMap(mesh, SpaceDescriptor(2, 1), bc)
    assemble_forms(mesh, dofmap)        # the mesh's cached maps, the reference bases
    seen, ops = {}, []
    real_splu, real_eigsh = spla.splu, spla.eigsh
    real_init = eigsolve._VelocityOperator.__init__

    def splu(csc, **kw):
        seen["splu"] = _numpy_bytes()
        seen["csc"] = csc.data.nbytes + csc.indices.nbytes + csc.indptr.nbytes
        return real_splu(csc, **kw)

    def eigsh(*args, **kw):
        seen["ritz"] = real_eigsh(*args, **kw)
        seen["eigsh"] = _numpy_bytes()
        return seen["ritz"]

    def init(op, *args):
        real_init(op, *args)
        ops.append((op, op.fact, op.inverse))

    monkeypatch.setattr(sparselin.spla, "splu", splu)
    monkeypatch.setattr(eigsolve.spla, "eigsh", eigsh)
    monkeypatch.setattr(eigsolve._VelocityOperator, "__init__", init)
    tracemalloc.start()
    try:
        forms = assemble_forms(mesh, dofmap)
        pencil = build_pencil(forms)
        solve_eig(pencil, EigConfig(nev=5))
    finally:
        tracemalloc.stop()
    (op, fact, inverse), = ops
    lay, slack = pencil.layout, 4 * pencil.K.shape[0]
    kept = [forms.M_T, forms.j, forms.M.indices, forms.M.indptr, lay.index, lay.keep,
            fact._E, fact._order, fact._Qinv, fact._C, fact._cols,
            *pencil.K.bounds[:2]]
    kept += [] if lay.kernel is None else [lay.kernel[0]]
    at_splu = sum(a.nbytes for a in kept) + seen["csc"] + slack
    kept += [op.L, op._product, inverse._D, inverse._PT.data, inverse._PT.indices,
             inverse._PT.indptr, inverse._rhs, *seen["ritz"]]
    at_end = sum(a.nbytes for a in kept) + 8 * lay.n_u + slack       # and the start vector
    block = min(forms.A_T.nbytes, forms.B_T.nbytes)
    for alive, allowed in ((seen["splu"], at_splu), (seen["eigsh"], at_end)):
        assert alive <= allowed
        assert alive + block > allowed


@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
def test_restrict_allocates_what_it_keeps_and_chunks(bc):
    # the restricted inverse is made from the dense C_T in one chunked
    # product: beyond the arrays the operator keeps, restrict allocates at most
    # four chunks of temporaries at once
    pencil = square_pencil(2, 1, bc)
    fact = factorize(pencil.K)
    nt, h = pencil.dofmap.mesh.num_triangles, 2 * pencil.dofmap.pk.dim
    V = np.random.default_rng(4).standard_normal((nt, h, h))
    tracemalloc.start()
    try:
        inverse = fact.restrict(V)
        kept = _numpy_bytes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= kept + 4 * 8 * sparselin._CHUNK
    assert kept >= inverse._D.nbytes + inverse._PT.data.nbytes


@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED, "corner_bisected_45"])
@pytest.mark.parametrize("ell,k", SCHEMES)
def test_reads_of_the_view_equal_those_of_the_full_matrix(ell, k, bc):
    # at theta0, at 0 (the dump's K), at positive shifts and at +-1e6, where
    # a velocity row sets both reads, on the squares and on the L-shape with
    # its corner bisected 45 times; a view of a view reads as the view itself
    if bc == "corner_bisected_45":
        mesh = _corner_bisected(45)
        pencil = build_pencil(assemble_forms(mesh, DofMap(mesh, SpaceDescriptor(ell, k))))
    else:
        pencil = square_pencil(ell, k, bc, N=4)
    # amax reads A's largest diagonal entry: A is a Gram matrix, so its
    # active part has its largest |entry| on its diagonal
    keep, velocity = pencil.layout.keep, np.r_[pencil.layout.velocity]
    A = forms_ab(pencil.forms)[0][keep][:, keep]
    assert abs(A).max() == A.diagonal().max()
    rng = np.random.default_rng(3)
    for theta in (THETA0, 0.0, 5.0, 400.0, 1e6, -1e6):
        K, chained = pencil.K.at(theta), pencil.K.at(5.0).at(theta)
        full = K.sp
        assert sp.isspmatrix_csr(full) and full.has_canonical_format and full.shape == K.shape
        assert (full != full.T).nnz == 0
        assert K.norm_inf() == float(abs(full).sum(axis=1).max()) == chained.norm_inf()
        blocks, again = K.element_blocks(), chained.element_blocks()
        assert blocks.amax == abs(full).max() == again.amax
        for a in ("groups", "rest", "Q", "C", "D"):
            assert getattr(blocks, a).tobytes() == getattr(again, a).tobytes()
        if abs(theta) == 1e6:
            assert np.argmax(abs(full).sum(axis=1)) in velocity
            assert abs(full).argmax() // full.shape[1] in velocity
        # products: A sigma + B^T u sums each row in another order than K x,
        # so the two differ by at most the rounding bound of a sum of m terms, twice
        for x in (rng.standard_normal(K.shape[0]), rng.standard_normal((K.shape[0], 3))):
            terms = (np.diff(full.indptr) + 2).reshape((-1,) + (1,) * (x.ndim - 1))
            bound = terms * np.finfo(float).eps * (abs(full) @ np.abs(x))
            assert np.all(np.abs(K.matvec(x) - full @ x) <= bound)


@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
@pytest.mark.parametrize("ell,k", SCHEMES)
def test_view_nnz_is_that_of_its_csr(ell, k, bc):
    pencil = square_pencil(ell, k, bc, N=3)
    assert pencil.K.nnz == pencil.K.sp.nnz


@pytest.mark.parametrize("theta", [THETA0, 5.0])
@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
@pytest.mark.parametrize("ell,k", SCHEMES)
def test_element_schur_complement_is_the_dense_condensation(ell, k, bc, theta):
    # oracle: K - theta N assembled whole from the forms, its groups
    # eliminated densely
    pencil = square_pencil(ell, k, bc, N=3)
    K, N = block_pencil(ell, k, bc, N=3)
    F = (K - theta * N).toarray()
    E, R, _, cols, S = sparselin.condense(pencil.K.at(theta).element_blocks())
    want = F[np.ix_(R, R)] - F[np.ix_(R, E)] @ np.linalg.solve(F[np.ix_(E, E)], F[np.ix_(E, R)])
    assert np.abs(S.toarray() - want).max() <= 1e-12 * np.abs(want).max()
    # the pattern is the union of the triangles' blocks on the rest plus the
    # pin, with the entries that cancel to 0.0
    pattern = set()
    for c in cols:
        pattern.update(itertools.product(c[c >= 0].tolist(), repeat=2))
    if pencil.layout.n_c:
        pin, mult = np.searchsorted(R, [pencil.layout.pin, pencil.layout.size - 1]).tolist()
        pattern.update([(pin, mult), (mult, pin)])
    coo = S.tocoo()
    assert S.has_canonical_format and S.nnz == len(pattern)
    assert set(zip(coo.row.tolist(), coo.col.tolist())) == pattern


@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
def test_fill_does_not_follow_the_last_bit(monkeypatch, bc):
    # diagonal pivots: the fill depends only on the pattern and the ordering
    # (partial pivoting breaks near-ties by the last bit of the matrix), and
    # S keeps the entries that cancel to 0.0.  SuperLU's nnz counts the
    # stored entries; L.nnz + U.nnz skips those that are 0.0
    if bc == MIXED_BOTTOM_FIXED:
        mesh = mm.tag_bottom_fixed(mm.build_square_mesh(8, mm.UNIT_SQUARE))
    else:
        mesh = mm.build_square_mesh(8, mm.BI_UNIT_SQUARE)
    dofmap = DofMap(mesh, SpaceDescriptor(2, 1), bc)
    fills, condensed = [], []
    for nudged in (False, True):
        if nudged:      # A stays symmetric
            perturb_a_blocks(monkeypatch, lambda a: np.nextafter(a, np.inf, out=a))
        K = build_pencil(assemble_forms(mesh, dofmap)).K
        fills.append(factorize(K)._lu.nnz)
        condensed.append(sparselin.condense(K.element_blocks())[-1])
    assert not np.array_equal(condensed[0].data, condensed[1].data)
    assert np.array_equal(condensed[0].indices, condensed[1].indices)
    assert fills[0] == fills[1]


def test_deeply_graded_mesh_solves():
    # 35 bisections at the reentrant corner, h_min = 1.9e-6.  The Schur
    # complement's own condition grows as h_min^-2 (1.5e13 here), so the
    # check reads the inverse of K - theta0 N itself; its residuals grow the
    # same way, so a lift that misses the bound is made again with the whole
    # K - theta0 N, partially pivoted ((1,0) reads 3.7e-8 |K| without);
    # and the element blocks are judged after scaling, since theta0 M_T
    # scales with the triangle's area ((2,2) reads 1.4e12 unscaled)
    mesh = mm.build_lshape_mesh(2)
    for _ in range(35):
        at_corner = np.all(mesh.vertices[mesh.tri_vertices] == 0.0, axis=2).any(axis=1)
        mesh = mm.refine(mesh, np.flatnonzero(at_corner))
    assert np.sqrt(mesh.tri_areas.min()) < 2e-6
    for ell, k in [(1, 0), (2, 1), (2, 2)]:
        pencil = build_pencil(assemble_forms(mesh, DofMap(mesh, SpaceDescriptor(ell, k))))
        assert factorize(pencil.K).condition < 1e10
        sol = solve_eig(pencil, EigConfig(nev=2))
        assert sol.residuals.max() <= 1e-8 * pencil.K.norm_inf()


def _corner_bisected(times):
    """The L-shape (N = 2) with the triangles at the reentrant corner bisected
    ``times`` times."""
    mesh = mm.build_lshape_mesh(2)
    for _ in range(times):
        at_corner = np.all(mesh.vertices[mesh.tri_vertices] == 0.0, axis=2).any(axis=1)
        mesh = mm.refine(mesh, np.flatnonzero(at_corner))
    return mesh


@pytest.mark.parametrize("bisections", [45, 55])
@pytest.mark.parametrize("ell,k", SCHEMES)
def test_strongly_graded_mesh_solves(ell, k, bisections):
    # h_min = 6.0e-8 and 1.9e-9.  The condensed lift misses the residual bound
    # on every scheme but (2,2) at 45, by up to 2e6 times at 55, so extract
    # makes it again with the whole K - theta0 N, factorized with partial
    # pivoting; the Lanczos pairs of the condensed operator need no more
    mesh = _corner_bisected(bisections)
    pencil = build_pencil(assemble_forms(mesh, DofMap(mesh, SpaceDescriptor(ell, k))))
    if (ell, k, bisections) == (1, 0, 55):
        # the condition estimate through the condensed solve breaks down at
        # (1,0) from 50 bisections (9e31 here, where the whole matrix's reads
        # 3.9e2), so the shift is refused before Lanczos runs
        with pytest.raises(ShiftAtEigenvalueError):
            solve_eig(pencil, EigConfig(nev=2))
        return
    sol = solve_eig(pencil, EigConfig(nev=2))
    assert sol.residuals.max() <= 1e-8 * pencil.K.norm_inf()


def test_norm_inf_is_computed_once():
    # the norm is read when K is built, before SuperLU runs, so the residual
    # bound read after it copies nothing; nnz is counted on demand, off the
    # solve path (test_view_nnz_is_that_of_its_csr)
    K = square_pencil(2, 1).K
    factorize(K)
    tracemalloc.start()
    try:
        value = K.norm_inf()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1024
    assert value == K.norm_inf()
