import math

import numpy as np
import pytest

import stokeseig.estimator as est
import stokeseig.mesh as mm
from helpers import refined_lshape, solve_problem
from stokeseig.assembly import J, skew_free_part
from stokeseig.errors import UnsupportedSchemeError
from stokeseig.estimator import compute_indicators, effectivity
from stokeseig.fields import DiscreteField, theta_postprocess
from stokeseig.mesh import build_square_mesh, patches
from stokeseig.quadrature import quadrature
from stokeseig.spaces import SpaceDescriptor, interpolate_ned
from stokeseig.study import fit_order


def _constant_velocity(mesh, value):
    coeffs = np.tile(np.asarray(value, dtype=float), mesh.num_triangles)
    return DiscreteField.velocity(mesh, 0, coeffs)


def test_zero_residual_input_gives_zero():
    mesh = build_square_mesh(2, mm.UNIT_SQUARE)
    desc = SpaceDescriptor(1, 0)
    # constant multiple of J: its skew-free part vanishes identically
    sigma = DiscreteField.stress(mesh, desc, interpolate_ned(mesh, desc, lambda p: 2.5 * J))
    u = _constant_velocity(mesh, [0.4, -0.2])
    theta = theta_postprocess(u, patches(mesh))
    ind = compute_indicators(mesh, sigma, u, theta)
    assert np.abs(ind.addends).max() < 1e-24
    assert ind.eta < 1e-12


def test_global_eta_consistent_with_locals():
    mesh = build_square_mesh(4, mm.BI_UNIT_SQUARE)
    sol, _, dm = solve_problem(mesh, 1, 0, nev=1)
    desc = SpaceDescriptor(1, 0)
    sigma = DiscreteField.stress(mesh, desc, sol.sigma[0], dm)
    u = DiscreteField.velocity(mesh, desc.k, sol.u[0])
    theta = theta_postprocess(u, patches(mesh))
    ind = compute_indicators(mesh, sigma, u, theta)
    assert np.all(ind.addends >= 0.0)
    assert abs(ind.eta ** 2 - ind.eta_sq.sum()) <= 1e-14 * ind.eta ** 2
    assert np.abs(ind.eta_sq - ind.addends.sum(axis=1)).max() <= 1e-14 * ind.eta_sq.max()


def test_constant_normal_jump_hand_integral():
    mesh = build_square_mesh(1, mm.UNIT_SQUARE)
    desc = SpaceDescriptor(1, 0)
    e = int(np.nonzero(mesh.edge_tags == mm.INTERIOR)[0][0])
    a, b = mesh.vertices[mesh.edges[e]]
    tvec = b - a
    length = np.linalg.norm(tvec)
    normal = np.array([tvec[1], -tvec[0]]) / length

    gamma = np.array([0.6, -1.1])
    base = np.array([[0.8, 0.3], [-0.4, 1.2]])
    jump_tensor = np.outer(gamma, normal)  # rows differ by gamma_r * n: t-trace continuous

    def tau(p):
        # the diagonal runs through y = x; both sides agree on the edge's tangent
        if p[1] > p[0] + 1e-13:
            return base
        return base - jump_tensor

    sigma = DiscreteField.stress(mesh, desc, interpolate_ned(mesh, desc, tau))
    u = _constant_velocity(mesh, [0.0, 0.0])
    theta = theta_postprocess(u, patches(mesh))
    ind = compute_indicators(mesh, sigma, u, theta)

    D = skew_free_part(jump_tensor)
    expected = length ** 2 * float(np.sum((D @ normal) ** 2))  # h_e * |e| * |D n|^2
    assert abs(ind.addends[0, 3] - expected) < 1e-12 * max(expected, 1.0)
    assert abs(ind.addends[1, 3] - expected) < 1e-12 * max(expected, 1.0)


@pytest.mark.parametrize("ell", [1, 2])
def test_indicator_rule_is_exact(ell, monkeypatch):
    mesh = refined_lshape()
    desc = SpaceDescriptor(ell, 0)
    sol, _, dm = solve_problem(mesh, ell, 0, nev=1)
    sigma = DiscreteField.stress(mesh, desc, sol.sigma[0], dm)
    u = DiscreteField.velocity(mesh, desc.k, sol.u[0])
    theta = theta_postprocess(u, patches(mesh))
    got = compute_indicators(mesh, sigma, u, theta).addends
    monkeypatch.setattr(est, "quadrature", lambda degree: quadrature(8))
    want = compute_indicators(mesh, sigma, u, theta).addends
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_rejects_higher_order_velocity():
    mesh = build_square_mesh(2, mm.UNIT_SQUARE)
    desc = SpaceDescriptor(1, 1)
    from stokeseig.spaces import DofMap
    dm = DofMap(mesh, desc)
    sigma = DiscreteField.stress(mesh, desc, np.zeros(dm.n_sigma), dofmap=dm)
    u = DiscreteField.velocity(mesh, 1, np.zeros(2 * 3 * mesh.num_triangles))
    theta = theta_postprocess(u, patches(mesh))
    with pytest.raises(UnsupportedSchemeError):
        compute_indicators(mesh, sigma, u, theta)
    # a P0 velocity does not make the degree-2 rule exact for a quadratic stress
    u0 = _constant_velocity(mesh, [0.0, 0.0])
    with pytest.raises(UnsupportedSchemeError):
        compute_indicators(mesh, sigma, u0, theta_postprocess(u0, patches(mesh)))


def test_effectivity_values():
    # reference row: error 1.93509 over eta^2 25.0851
    eff = effectivity(32.13183, 30.19673, math.sqrt(25.0851))
    assert abs(eff - 7.714e-2) < 2e-5
    assert effectivity(5.0, 5.0, 1.0) == 0.0
    assert effectivity(5.0, 4.0, 2.0) == effectivity(5.0, 4.0, 1.0) / 4.0
    assert effectivity(5.0, 4.0, 0.0) == math.inf


def test_estimator_tracks_true_error_under_uniform_refinement():
    # eta^2 and the eigenvalue error must decay at matching rates; the error
    # is measured against the converged limit confirmed by extrapolation of
    # the finer N = 20..50 series elsewhere in the suite
    lam_limit = 13.08617
    etas, lams, hs = [], [], []
    for N in (8, 16, 32):
        mesh = build_square_mesh(N, mm.BI_UNIT_SQUARE)
        sol, _, dm = solve_problem(mesh, 1, 0, nev=1)
        desc = SpaceDescriptor(1, 0)
        sigma = DiscreteField.stress(mesh, desc, sol.sigma[0], dm)
        u = DiscreteField.velocity(mesh, desc.k, sol.u[0])
        theta = theta_postprocess(u, patches(mesh))
        ind = compute_indicators(mesh, sigma, u, theta)
        etas.append(ind.eta ** 2)
        lams.append(sol.eigenvalues[0])
        hs.append(2.0 / N)
    errs = [abs(l - lam_limit) for l in lams]
    order_eta, _ = fit_order(list(zip(hs, etas)))
    order_err, _ = fit_order(list(zip(hs, errs)))
    assert abs(order_eta - order_err) <= 0.3
