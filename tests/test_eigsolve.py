import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla

import stokeseig.mesh as mm
from helpers import dense_pencil_eigenvalues, perturb_a_blocks, solve_problem, square_pencil
from stokeseig.eigsolve import (EigConfig, SpectralSolution, _shifted, _VelocityOperator,
                                eigen_residuals, solve_eig)
from stokeseig.errors import ConfigurationError, ShiftAtEigenvalueError
from stokeseig.mesh import build_square_mesh
from stokeseig.spaces import ALL_DIRICHLET, MIXED_BOTTOM_FIXED
from stokeseig.sparselin import factorize


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
    # every column solved with the factors: the full solves and the Lanczos
    # steps' solves through the restricted inverse
    from stokeseig.sparselin import Factorization, RestrictedInverse
    columns = []

    def counted(real):
        def call(self, b, **kw):
            columns.append(1 if np.ndim(b) == 1 else np.shape(b)[1])
            return real(self, b, **kw)
        return call

    monkeypatch.setattr(Factorization, "solve", counted(Factorization.solve))
    monkeypatch.setattr(RestrictedInverse, "apply", counted(RestrictedInverse.apply))
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


def test_shift_at_eigenvalue_reported(monkeypatch):
    # without A, (1,0)'s K - theta0 N is singular: B sigma = 0 has nonzero
    # solutions with sigma at the pin 0, since there are more stress dofs than
    # velocity dofs
    from stokeseig.errors import ShiftAtEigenvalueError

    perturb_a_blocks(monkeypatch, lambda a: a.fill(0.0))
    pencil = square_pencil(1, 0, N=2)
    assert not pencil.forms.A_T.any()
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


@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
@pytest.mark.parametrize("ell,k", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)])
def test_shift_next_to_an_eigenvalue_solves_or_is_refused(ell, k, bc):
    # diagonal pivots on the indefinite condensed K - theta N carry no
    # stability guarantee; the guards are the condition estimate and the
    # residual bound.  A shift 1e-6 relative from each of the three lowest
    # eigenvalues either gives that eigenvalue as it is at theta0 or is
    # refused (measured: all 72 solve, at most 4.3e-7 of the bound and 7.1e-15
    # relative)
    pencil = square_pencil(ell, k, bc, N=6)
    bound = 1e-8 * pencil.K.norm_inf()
    lams = solve_eig(pencil, EigConfig(nev=3)).eigenvalues
    for shift in np.outer(lams, [1.0 - 1e-6, 1.0 + 1e-6]).ravel():
        try:
            sol = solve_eig(pencil, EigConfig(nev=1, shift=float(shift)))
        except ShiftAtEigenvalueError:
            continue
        assert sol.residuals.max() <= bound
        assert (np.abs(lams - sol.eigenvalues[0]) / lams).min() <= 1e-12


@pytest.mark.parametrize("shift", [5.0, -5.0])
@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
def test_shifted_pencil_keeps_interior_groups(bc, shift):
    pencil = square_pencil(2, 1, bc)
    F = _shifted(pencil, shift)
    assert F.theta == (shift if shift > 0.0 else pencil.theta0)
    assert np.array_equal(F.element_blocks().groups, pencil.K.element_blocks().groups)
    grouped, whole = factorize(F)._lu, factorize(F.sp)._lu
    # measured 0.21-0.39
    assert grouped.L.nnz + grouped.U.nnz <= 0.6 * (whole.L.nnz + whole.U.nnz)


def test_positive_shift_gives_the_unshifted_eigenvalues():
    # every eigenvalue lies above 5, so the five nearest 5 are the five lowest
    pencil = square_pencil(2, 1)
    at_zero = solve_eig(pencil, EigConfig(nev=5)).eigenvalues
    at_five = solve_eig(pencil, EigConfig(nev=5, shift=5.0)).eigenvalues
    assert np.abs(at_five - at_zero).max() <= 1e-10 * np.abs(at_zero).max()


def test_shift_at_element_block_eigenvalue_reported():
    # a positive finite eigenvalue of one triangle's block (K - theta N)[g, g]
    # makes that block singular without being an eigenvalue of the pencil (0,
    # that of the constant velocity modes, is never factorized: shifts at or
    # below 0 use the stored K - theta0 N)
    pencil = square_pencil(2, 1)
    groups = pencil.K.element_blocks().groups
    g = groups[0]
    Kg = pencil.K.sp[g][:, g] + pencil.theta0 * pencil.N[g][:, g]
    local = sla.eigvals(Kg.toarray(), pencil.N[g][:, g].toarray())
    local = local[np.isfinite(local)].real
    theta = float(np.min(local[local > 0.0]))
    lams = solve_eig(pencil, EigConfig(nev=5)).eigenvalues
    assert np.abs(lams - theta).min() > 1.0
    with pytest.raises(ShiftAtEigenvalueError) as info:
        solve_eig(pencil, EigConfig(nev=5, shift=theta))
    assert any(str(row.tolist()) in str(info.value) for row in groups)


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


def _velocity_operator(ell, k, bc, shift, N=3):
    pencil = square_pencil(ell, k, bc, N=N)
    return pencil, _VelocityOperator(pencil, shift, factorize(_shifted(pencil, shift)), 1.0)


def _lifted_apply(pencil, op, W):
    """-L^T [F^-1 E L W]_u through the full condensed solve."""
    X = np.zeros((pencil.layout.size,) + W.shape[1:])
    X[op.vel] = op._mul_L(W)
    U = op.fact.solve(X)[op.vel]
    L = op.L
    return -(np.swapaxes(L, 1, 2) @ U.reshape(len(L), L.shape[1], -1)).reshape(W.shape)


@pytest.mark.parametrize("columns", [1, 7])
@pytest.mark.parametrize("shift", [0.0, 3.0])
@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
@pytest.mark.parametrize("ell,k", [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)])
def test_restricted_apply_is_the_lifted_solve(ell, k, bc, shift, columns):
    # D w + P^T S^-1 P w against the solve of the whole system
    pencil, op = _velocity_operator(ell, k, bc, shift)
    rng = np.random.default_rng(7)
    W = rng.standard_normal((pencil.layout.n_u, columns)).squeeze()
    got, want = op.apply(W), _lifted_apply(pencil, op, W)
    assert got.shape == W.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("shift", [0.0, 3.0])
@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
def test_block_apply_equals_column_applies(bc, shift):
    # one SuperLU solve of k columns may round differently from k solves of one
    pencil, op = _velocity_operator(2, 1, bc, shift)
    W = np.random.default_rng(8).standard_normal((pencil.layout.n_u, 7))
    block = op.apply(W)
    for c in range(7):
        x = op.apply(W[:, c])
        assert np.abs(block[:, c] - x).max() <= 1e-14 * np.abs(x).max()


def test_lanczos_step_allocates_two_short_vectors_beyond_the_solve():
    # a Lanczos step works on vectors of the velocity and of the condensed
    # system only: beyond SuperLU's own solve of the same right-hand side it
    # allocates at most two vectors of each length (the full solve it
    # replaced took a work vector of all n unknowns)
    pencil, op = _velocity_operator(2, 1, ALL_DIRICHLET, 0.0, N=8)
    lu = op.fact._lu
    rng = np.random.default_rng(9)
    w, rhs = rng.standard_normal(pencil.layout.n_u), rng.standard_normal(lu.shape[0])
    op.apply(w)

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    solve, step = peak(lambda: lu.solve(rhs)), peak(lambda: op.apply(w))
    assert step - solve <= 2 * (lu.shape[0] + pencil.layout.n_u) * 8
