"""Viscosity is a scale: every solve runs at mu = 1, and mu multiplies only
what is reported.  lambda and sigma scale with mu, so does p; u and the
vorticity (sigma + p J) / mu do not."""

import json

import numpy as np
import pytest

from stokeseig import cli, study
from stokeseig.adapt import afem_loop
from stokeseig.cli import main
from stokeseig.eigsolve import eigen_residuals
from stokeseig.mesh import build_lshape_mesh
from stokeseig.quadrature import quadrature
from stokeseig.spaces import ALL_DIRICHLET, MIXED_BOTTOM_FIXED, SpaceDescriptor

MUS = (1e-12, 1e-8, 1e-4, 1.0, 1e4, 1e8, 1e12)
SCHEMES = ((1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2))
DOMAIN_OF = {ALL_DIRICHLET: "bi_unit_square", MIXED_BOTTOM_FIXED: "unit_square"}
LAMBDA_REF = 32.13183


def _reported(monkeypatch, capsys, argv):
    """The `solve` JSON eigenvalues and the `export` fields of one (scheme, bc,
    mu), with the (solution, pencil) of every solve the two commands ran."""
    solves, exported = [], []

    def recording_solve(cfg, mesh):
        solution, pencil, dofmap = study.solve_on_mesh(cfg, mesh)
        solves.append((solution, pencil))
        return solution, pencil, dofmap

    monkeypatch.setattr(cli, "solve_on_mesh", recording_solve)
    monkeypatch.setattr(cli, "export_vtk", lambda fields, path: exported.append(fields))
    assert main(["solve", *argv]) == 0
    eigenvalues = np.array(json.loads(capsys.readouterr().out)["eigenvalues"])
    assert main(["export", *argv]) == 0
    capsys.readouterr()
    u, p, vort, _ = exported[0]
    points = quadrature(4).points
    return eigenvalues, u.values_at(points), p.values_at(points), vort.values_at(points), solves


@pytest.mark.parametrize("bc", [ALL_DIRICHLET, MIXED_BOTTOM_FIXED])
@pytest.mark.parametrize("ell,k", SCHEMES)
def test_viscosity_sweep_scales_only_what_is_reported(monkeypatch, capsys, ell, k, bc):
    runs = {mu: _reported(monkeypatch, capsys,
                          ["--domain", DOMAIN_OF[bc], "--bc", bc, "--scheme", f"{ell},{k}",
                           "--N", "4", "--nev", "3", "--mu", repr(mu)])
            for mu in MUS}
    lam1, u1, p1, vort1, _ = runs[1.0]
    # p = -(sigma : J)/2 rounds relative to the unit stress, whose size the
    # vorticity has; p itself may be far smaller (mixed conditions)
    scale = np.abs(vort1).max()
    for mu, (lam, u, p, vort, solves) in runs.items():
        for solution, pencil in solves:
            assert max(eigen_residuals(pencil, solution)) <= 1e-8 * pencil.K.norm_inf()
        assert np.abs(lam / mu - lam1).max() <= 1e-12 * lam1.max(), mu
        assert np.array_equal(u, u1), mu
        assert np.abs(p / mu - p1).max() <= 1e-12 * scale, mu
        assert np.abs(vort - vort1).max() <= 1e-12 * scale, mu


@pytest.fixture(scope="module")
def unit_lshape_run():
    return afem_loop(build_lshape_mesh(2), SpaceDescriptor(1, 0), max_iterations=2,
                     lambda_ref=LAMBDA_REF)


@pytest.mark.parametrize("mu", [7.3, 1e12])
def test_adaptive_loop_scales_only_the_eigenvalue(unit_lshape_run, mu):
    report = afem_loop(build_lshape_mesh(2), SpaceDescriptor(1, 0), max_iterations=2,
                       mu=mu, lambda_ref=LAMBDA_REF * mu)
    base = unit_lshape_run.iterations
    assert len(report.iterations) == len(base) == 3
    for attr in ("dof", "marked", "eta_sq"):
        assert [getattr(r, attr) for r in report.iterations] == [getattr(r, attr) for r in base]
    assert [r.lambda_h for r in report.iterations] == [mu * r.lambda_h for r in base]
    # eta^2 carries no mu, the error does: the effectivity scales with mu
    for got, want in zip(report.iterations, base):
        assert got.effectivity == pytest.approx(mu * want.effectivity, rel=1e-12)


def test_cli_solves_at_the_viscosity_of_air(capsys):
    assert main(["solve", "--scheme", "2,2", "--N", "4", "--mu", "1.8e-5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["eigenvalues"]) == 5 and min(payload["eigenvalues"]) > 0
