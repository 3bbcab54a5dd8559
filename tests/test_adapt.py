import inspect
import weakref

import numpy as np
import pytest

from stokeseig import adapt
from stokeseig.adapt import afem_loop, fit_decay_order, mark
from stokeseig.eigsolve import EigConfig
from stokeseig.errors import ConfigurationError, UnsupportedSchemeError
from stokeseig.estimator import LocalIndicators
from stokeseig.mesh import build_lshape_mesh
from stokeseig.spaces import SpaceDescriptor

LAMBDA_REF = 32.13183
# the second (double) eigenvalue of the bi-unit square, SQUARE_LIMITS[1] of test_acceptance
SQUARE_LAMBDA_2 = 23.03109


def _indicators(eta_values):
    eta_sq = np.asarray(eta_values, dtype=float) ** 2
    addends = np.zeros((len(eta_sq), 5))
    addends[:, 0] = eta_sq
    return LocalIndicators(addends, eta_sq, float(np.sqrt(eta_sq.sum())))


def test_mark_threshold():
    assert mark(_indicators([1.0, 0.6, 0.4])) == {0, 1}


def test_mark_all_equal():
    assert mark(_indicators([0.3, 0.3, 0.3, 0.3])) == {0, 1, 2, 3}


def test_mark_fraction_one_keeps_argmax():
    assert mark(_indicators([0.2, 0.9, 0.1]), fraction=1.0) == {1}


def test_requires_lowest_order():
    mesh = build_lshape_mesh(2)
    with pytest.raises(UnsupportedSchemeError):
        afem_loop(mesh, SpaceDescriptor(1, 1))


@pytest.fixture(scope="module")
def short_lshape_run():
    mesh = build_lshape_mesh(4)
    return afem_loop(mesh, SpaceDescriptor(1, 0), target_index=0,
                     max_iterations=8, dof_cap=100_000, lambda_ref=LAMBDA_REF)


def test_zero_iterations_single_entry():
    mesh = build_lshape_mesh(2)
    report = afem_loop(mesh, SpaceDescriptor(1, 0), max_iterations=0,
                       lambda_ref=LAMBDA_REF)
    assert len(report.iterations) == 1
    assert report.iterations[0].marked >= 1


def test_dof_cap_below_initial_single_entry():
    mesh = build_lshape_mesh(2)
    report = afem_loop(mesh, SpaceDescriptor(1, 0), max_iterations=10, dof_cap=10,
                       lambda_ref=LAMBDA_REF)
    assert len(report.iterations) == 1


def test_each_iteration_is_freed_before_the_next_solve(monkeypatch):
    # the loop keeps only its records, so the solution and pencil of every
    # earlier mesh are gone, with no garbage collection, when a solve starts
    earlier = []
    solve_eig = adapt.solve_eig

    def solve_and_watch(pencil, cfg):
        assert [ref() for ref in earlier] == [None] * len(earlier)
        solution = solve_eig(pencil, cfg)
        earlier.extend([weakref.ref(solution), weakref.ref(pencil)])
        return solution

    monkeypatch.setattr(adapt, "solve_eig", solve_and_watch)
    report = afem_loop(build_lshape_mesh(2), SpaceDescriptor(1, 0), max_iterations=3,
                       lambda_ref=LAMBDA_REF)
    assert len(earlier) == 2 * len(report.iterations) == 8


def test_dofs_strictly_increase(short_lshape_run):
    dofs = short_lshape_run.dofs
    assert np.all(np.diff(dofs) > 0)
    assert all(rec.marked >= 1 for rec in short_lshape_run.iterations)


def test_lambda_approaches_reference(short_lshape_run):
    errs = np.abs(short_lshape_run.lambdas - LAMBDA_REF)
    assert errs[-1] < errs[0]
    assert short_lshape_run.lambdas[-1] < LAMBDA_REF  # converges from below


def test_refinement_concentrates_at_corner(short_lshape_run):
    mesh = short_lshape_run.final_mesh
    smallest = int(np.argmin(mesh.h_tri))
    centroid = mesh.vertices[mesh.tri_vertices[smallest]].mean(axis=0)
    assert np.linalg.norm(centroid) < 0.1


def test_eta_monotone_after_burn_in(short_lshape_run):
    eta = np.array([rec.eta_sq for rec in short_lshape_run.iterations])
    for i in range(3, len(eta) - 1):
        assert eta[i + 1] <= eta[i] * 1.05


def test_effectivity_band(short_lshape_run):
    effs = np.array([rec.effectivity for rec in short_lshape_run.iterations[3:]])
    assert np.all(effs > 0)
    assert effs.max() / effs.min() <= 25.0


def test_effectivity_near_published_first_row(short_lshape_run):
    # published first adaptive row has effectivity 7.71413e-2; ours must sit
    # within a factor of two at the matching iteration
    eff = short_lshape_run.iterations[1].effectivity
    assert 7.71413e-2 / 2.0 <= eff <= 7.71413e-2 * 2.0


def test_square_adaptivity_no_worse_than_uniform():
    # smooth eigenfunctions: the adaptive loop behaves like uniform refinement
    from helpers import solve_problem
    from stokeseig.mesh import build_square_mesh

    lam_ref = 13.08617
    mesh = build_square_mesh(4, "bi_unit_square")
    report = afem_loop(mesh, SpaceDescriptor(1, 0), max_iterations=10,
                       dof_cap=6000, lambda_ref=lam_ref)
    dofs, errs = [], []
    for N in (4, 8, 16):
        m = build_square_mesh(N, "bi_unit_square")
        sol, pencil, _ = solve_problem(m, 1, 0, nev=1)
        dofs.append(pencil.layout.size)
        errs.append(abs(sol.eigenvalues[0] - lam_ref))
    uniform_slope = float(np.polyfit(np.log(dofs), np.log(errs), 1)[0])
    assert report.fitted_order <= uniform_slope + 0.3


def test_fit_decay_order_on_synthetic_series():
    dofs = np.array([2000, 4000, 8000, 16000, 32000])
    errors = 50.0 * dofs ** -1.0
    slope = fit_decay_order(dofs, errors)
    assert abs(slope + 1.0) < 1e-10


def test_nev_too_small_for_the_target_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="needs nev >= 3, got 2"):
        afem_loop(build_lshape_mesh(2), SpaceDescriptor(1, 0), target_index=2,
                  eig=EigConfig(nev=2))


def test_second_eigenvalue_is_followed_by_its_index_on_the_lshape():
    # after the first refinement the second eigenvalue moves from 33.12 to
    # 35.10 and the first rises to 29.43, both within 12% of 33.12: too close
    # to tell apart by value
    from helpers import solve_problem

    eig = EigConfig(nev=5)
    report = afem_loop(build_lshape_mesh(4), SpaceDescriptor(1, 0), target_index=1,
                       max_iterations=3, eig=eig)
    assert len(report.iterations) == 4
    sol, _, _ = solve_problem(report.final_mesh, 1, 0, nev=eig.nev, seed=eig.seed)
    assert report.iterations[-1].lambda_h == sol.eigenvalues[1]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_second_eigenvalue_of_the_square_converges_for_any_start_vector(seed):
    from stokeseig.mesh import BI_UNIT_SQUARE, build_square_mesh

    report = afem_loop(build_square_mesh(4, BI_UNIT_SQUARE), SpaceDescriptor(1, 0),
                       target_index=1, dof_cap=8000, eig=EigConfig(nev=5, seed=seed))
    assert report.dofs[-1] >= 8000
    assert abs(report.lambdas[-1] - SQUARE_LAMBDA_2) <= 5e-3 * SQUARE_LAMBDA_2


@pytest.mark.parametrize("kwargs", [
    {"target_index": -1}, {"mark_fraction": float("nan")}, {"mark_fraction": 2.0},
    {"max_iterations": -1}, {"dof_cap": "x"}, {"lambda_ref": -1.0},
    {"mu": float("nan")}, {"mu": "x"}, {"mu": True},
], ids=repr)
def test_bad_loop_parameters_fail_before_the_first_solve(monkeypatch, kwargs):
    def no_solve(*args):
        raise AssertionError("solve_eig must not run")

    monkeypatch.setattr(adapt, "solve_eig", no_solve)
    with pytest.raises(ConfigurationError):
        afem_loop(build_lshape_mesh(2), SpaceDescriptor(1, 0), **{"max_iterations": 2, **kwargs})


def test_boundary_conditions_follow_the_initial_mesh_tags():
    from helpers import solve_problem
    from stokeseig.mesh import NEUMANN, UNIT_SQUARE, build_square_mesh, tag_bottom_fixed
    from stokeseig.spaces import MIXED_BOTTOM_FIXED

    assert "bc" not in inspect.signature(afem_loop).parameters
    mesh = tag_bottom_fixed(build_square_mesh(4, UNIT_SQUARE))
    report = afem_loop(mesh, SpaceDescriptor(1, 0), max_iterations=1)
    sol, pencil, _ = solve_problem(mesh, 1, 0, bc=MIXED_BOTTOM_FIXED)
    assert report.iterations[0].lambda_h == sol.eigenvalues[0]
    assert report.iterations[0].dof == pencil.layout.size
    # refinement passes the tags on, so the refined mesh keeps mixed conditions
    assert abs(report.iterations[1].lambda_h - 2.4674) < 0.1
    assert np.any(report.final_mesh.edge_tags == NEUMANN)
