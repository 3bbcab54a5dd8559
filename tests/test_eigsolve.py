import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import stokeseig.mesh as mm
from helpers import dense_pencil_eigenvalues, solve_problem, square_pencil
from stokeseig.eigsolve import EigConfig, SpectralSolution, _shifted, eigen_residuals, solve_eig
from stokeseig.errors import ConfigurationError, ShiftAtEigenvalueError
from stokeseig.mesh import build_square_mesh
from stokeseig.spaces import ALL_DIRICHLET, MIXED_BOTTOM_FIXED
from stokeseig.sparselin import SparseMatrix, factorize


def test_config_validation():
    with pytest.raises(ConfigurationError):
        EigConfig(nev=0)


@pytest.mark.parametrize("kwargs", [
    {"nev": 2.5}, {"nev": True}, {"seed": -1}, {"shift": float("nan")}, {"shift": float("inf")},
], ids=["nev-float", "nev-bool", "seed-negative", "shift-nan", "shift-inf"])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigurationError):
        EigConfig(**kwargs)


def test_tiny_pencil_matches_dense_oracle():
    mesh = build_square_mesh(1, mm.UNIT_SQUARE)
    solution, pencil, _ = solve_problem(mesh, 1, 0, nev=4)
    dense = dense_pencil_eigenvalues(pencil)
    assert len(dense) >= 4
    rel = np.abs(solution.eigenvalues - dense[:4]) / dense[:4]
    assert rel.max() < 1e-9


def _oracle_cases():
    square = build_square_mesh(2, mm.BI_UNIT_SQUARE)
    mixed = mm.tag_bottom_fixed(build_square_mesh(2, mm.UNIT_SQUARE))
    for ell in (1, 2):
        for k in (0, 1, 2):
            yield square, ell, k, "dirichlet", 0.0
            yield mixed, ell, k, MIXED_BOTTOM_FIXED, 0.0
    yield square, 2, 1, "dirichlet", 5.0


def test_all_schemes_match_dense_oracle():
    for mesh, ell, k, bc, shift in _oracle_cases():
        solution, pencil, _ = solve_problem(mesh, ell, k, nev=3, bc=bc, shift=shift)
        dense = dense_pencil_eigenvalues(pencil)[:3]
        rel = np.abs(solution.eigenvalues - dense) / dense
        assert rel.max() < 1e-10, (ell, k, bc, shift, solution.eigenvalues, dense)


def test_small_velocity_space_reports_too_few_pairs(capsys):
    import json

    from stokeseig import cli
    code = cli.main(["solve", "--domain", "unit_square", "--scheme", "1,0",
                     "--N", "1", "--nev", "50"])
    assert code == 5
    assert json.loads(capsys.readouterr().err)["category"] == "solver"


def test_nev_beyond_the_velocity_space_fails_before_factorizing(monkeypatch):
    from stokeseig import eigsolve
    from stokeseig.errors import UnconvergedError

    def no_factorize(*args):
        raise AssertionError("factorize must not run")

    monkeypatch.setattr(eigsolve, "factorize", no_factorize)
    pencil = square_pencil(2, 1, N=2)
    n_u = pencil.layout.n_u
    with pytest.raises(UnconvergedError, match=f"only {n_u} of {n_u + 1} eigenpairs"):
        solve_eig(pencil, EigConfig(nev=n_u + 1))


def test_square_lowest_eigenvalue_against_published_values():
    # coarse and fine resolutions of the (-1,1)^2 benchmark
    mesh = build_square_mesh(20, mm.BI_UNIT_SQUARE)
    sol, _, _ = solve_problem(mesh, 1, 0, nev=1)
    assert abs(sol.eigenvalues[0] - 13.07172) / 13.07172 < 5e-3

    mesh = build_square_mesh(50, mm.BI_UNIT_SQUARE)
    sol, _, _ = solve_problem(mesh, 1, 0, nev=1)
    assert abs(sol.eigenvalues[0] - 13.08371) / 13.08371 < 5e-3


def test_double_eigenvalue_on_square():
    mesh = build_square_mesh(12, mm.BI_UNIT_SQUARE)
    sol, _, _ = solve_problem(mesh, 1, 0, nev=3)
    lam = sol.eigenvalues
    assert abs(lam[1] - lam[2]) / lam[1] < 1e-6


def test_eigenvectors_are_mass_orthonormal():
    # the double eigenvalue gets two orthogonal velocities, not two near copies
    mesh = build_square_mesh(12, mm.BI_UNIT_SQUARE)
    solution, pencil, _ = solve_problem(mesh, 1, 0, nev=3)
    X = solution.vectors
    assert np.abs(-(X.T @ (pencil.N @ X)) - np.eye(3)).max() < 1e-10


@pytest.mark.parametrize("domain, bc, limit", [
    (mm.BI_UNIT_SQUARE, "dirichlet", 60),
    (mm.UNIT_SQUARE, MIXED_BOTTOM_FIXED, 40),
])
def test_lu_solve_count(monkeypatch, domain, bc, limit):
    from stokeseig.sparselin import Factorization
    columns = []
    real_solve = Factorization.solve

    def solve(self, b, **kw):
        columns.append(1 if np.ndim(b) == 1 else np.shape(b)[1])
        return real_solve(self, b, **kw)

    monkeypatch.setattr(Factorization, "solve", solve)
    mesh = build_square_mesh(10, domain)
    if bc != "dirichlet":
        mesh = mm.tag_bottom_fixed(mesh)
    solve_problem(mesh, 2, 1, nev=5, bc=bc)
    assert sum(columns) <= limit


def test_shift_independence():
    mesh = build_square_mesh(10, mm.BI_UNIT_SQUARE)
    sol0, _, _ = solve_problem(mesh, 1, 0, nev=1, shift=0.0)
    sol5, _, _ = solve_problem(mesh, 1, 0, nev=1, shift=5.0)
    assert abs(sol0.eigenvalues[0] - sol5.eigenvalues[0]) / sol0.eigenvalues[0] < 1e-8


def test_monotone_error_under_refinement():
    lams = []
    for N in (10, 20, 40):
        mesh = build_square_mesh(N, mm.BI_UNIT_SQUARE)
        sol, _, _ = solve_problem(mesh, 1, 0, nev=1)
        lams.append(sol.eigenvalues[0])
    # extrapolated target from the finest pair of steps
    from stokeseig.study import extrapolate
    lam_inf, _, _ = extrapolate([(1.0 / N, l) for N, l in zip((10, 20, 40), lams)])
    errs = [abs(l - lam_inf) for l in lams]
    assert errs[0] > errs[1] > errs[2]


def test_velocity_normalized_and_residuals_small():
    mesh = build_square_mesh(8, mm.BI_UNIT_SQUARE)
    solution, pencil, dofmap = solve_problem(mesh, 1, 0, nev=3)
    assert np.all(solution.eigenvalues > 0)
    assert np.all(np.diff(solution.eigenvalues) >= -1e-12)
    kinf = pencil.K.norm_inf()
    assert np.all(solution.residuals <= 1e-8 * kinf)
    # unit velocity: -x^T N x = |u|^2 = 1
    for i in range(3):
        x = solution.vectors[:, i]
        assert abs(-(x @ (pencil.N @ x)) - 1.0) < 1e-10


def test_eigen_residuals_recompute_and_reject():
    mesh = build_square_mesh(6, mm.BI_UNIT_SQUARE)
    solution, pencil, _ = solve_problem(mesh, 1, 0, nev=2)
    res = eigen_residuals(pencil, solution)
    assert max(res) <= 1e-8 * pencil.K.norm_inf()

    rng = np.random.default_rng(0)
    noisy = solution.vectors + 1e-3 * rng.standard_normal(solution.vectors.shape)
    perturbed = SpectralSolution(
        solution.eigenvalues, solution.sigma, solution.u, solution.residuals, noisy)
    res_noisy = eigen_residuals(pencil, perturbed)
    assert min(np.array(res_noisy) / np.array(res)) > 10.0

    zeroed = SpectralSolution(
        solution.eigenvalues[:1], solution.sigma[:1], solution.u[:1], solution.residuals[:1],
        np.zeros((pencil.layout.size, 1)))
    with pytest.raises(ValueError):
        eigen_residuals(pencil, zeroed)


def test_shift_at_eigenvalue_reported():
    from stokeseig.assembly import Pencil, PencilLayout
    from stokeseig.errors import ShiftAtEigenvalueError
    from stokeseig.sparselin import SparseMatrix

    singular = np.zeros((3, 3))
    singular[0, 0] = 1.0
    pencil = Pencil(SparseMatrix(singular), sp.csr_matrix(-np.eye(3)),
                    PencilLayout(0, np.empty(0, dtype=int), 3, 0), None)
    with pytest.raises(ShiftAtEigenvalueError):
        solve_eig(pencil, EigConfig(nev=1))


@pytest.mark.parametrize("ell,k,bc", [(1, 0, "dirichlet"), (2, 1, "dirichlet"),
                                      (2, 1, MIXED_BOTTOM_FIXED)])
def test_shift_at_computed_eigenvalue_raises(ell, k, bc):
    if bc == MIXED_BOTTOM_FIXED:
        mesh = mm.tag_bottom_fixed(build_square_mesh(6, mm.UNIT_SQUARE))
    else:
        mesh = build_square_mesh(6, mm.BI_UNIT_SQUARE)
    solution, pencil, _ = solve_problem(mesh, ell, k, nev=3, bc=bc)
    for lam in solution.eigenvalues:
        with pytest.raises(ShiftAtEigenvalueError):
            solve_eig(pencil, EigConfig(nev=3, shift=float(lam)))


@pytest.mark.parametrize("shift", [5.0, -5.0])
@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
def test_shifted_pencil_keeps_interior_groups(bc, shift):
    pencil = square_pencil(2, 1, bc)
    F = _shifted(pencil.K, pencil.N, shift)
    assert np.array_equal(F.local, pencil.K.local)
    grouped, whole = factorize(F)._lu, factorize(SparseMatrix(F.sp))._lu
    # measured 0.45-0.49
    assert grouped.L.nnz + grouped.U.nnz <= 0.6 * (whole.L.nnz + whole.U.nnz)


def test_positive_shift_gives_the_unshifted_eigenvalues():
    # every eigenvalue lies above 5, so the five nearest 5 are the five lowest
    pencil = square_pencil(2, 1)
    at_zero = solve_eig(pencil, EigConfig(nev=5)).eigenvalues
    at_five = solve_eig(pencil, EigConfig(nev=5, shift=5.0)).eigenvalues
    assert np.abs(at_five - at_zero).max() <= 1e-10 * np.abs(at_zero).max()


def test_shift_at_element_block_eigenvalue_reported():
    # a finite eigenvalue of one triangle's block (K - theta N)[g, g] makes that
    # block singular without being an eigenvalue of the pencil
    pencil = square_pencil(2, 1)
    g = pencil.K.local[0]
    local = sla.eigvals(pencil.K.sp[g][:, g].toarray(), pencil.N[g][:, g].toarray())
    theta = float(np.min(local[np.isfinite(local)].real))
    lams = solve_eig(pencil, EigConfig(nev=5)).eigenvalues
    assert np.abs(lams - theta).min() > 1.0
    with pytest.raises(ShiftAtEigenvalueError) as info:
        solve_eig(pencil, EigConfig(nev=5, shift=theta))
    assert any(str(row.tolist()) in str(info.value) for row in pencil.K.local)


def test_deterministic_given_seed():
    mesh = build_square_mesh(6, mm.BI_UNIT_SQUARE)
    sol1, _, _ = solve_problem(mesh, 1, 0, nev=3, seed=7)
    sol2, _, _ = solve_problem(mesh, 1, 0, nev=3, seed=7)
    assert np.array_equal(sol1.eigenvalues, sol2.eigenvalues)
    assert np.array_equal(sol1.vectors, sol2.vectors)


@pytest.fixture
def arpack_gives_up(monkeypatch):
    """Make every Lanczos run report non-convergence, carrying the pairs it found."""
    import scipy.sparse.linalg as spla
    real_eigsh = spla.eigsh

    def eigsh(*args, **kwargs):
        nu, vecs = real_eigsh(*args, **kwargs)
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", nu, vecs)

    monkeypatch.setattr(spla, "eigsh", eigsh)


def test_unconverged_arnoldi_raises_with_partial(arpack_gives_up):
    from stokeseig.errors import UnconvergedError
    mesh = build_square_mesh(6, mm.BI_UNIT_SQUARE)
    with pytest.raises(UnconvergedError) as info:
        solve_problem(mesh, 1, 0, nev=3)
    partial = info.value.partial
    assert partial is not None and len(partial.eigenvalues) == 3


def test_unconverged_arnoldi_exits_with_solver_code(arpack_gives_up, capsys):
    import json

    from stokeseig import cli
    code = cli.main(["solve", "--domain", "bi_unit_square", "--scheme", "1,0",
                     "--N", "6", "--nev", "3"])
    assert code == 5
    assert json.loads(capsys.readouterr().err)["category"] == "solver"
