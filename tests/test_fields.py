import numpy as np
import pytest

import stokeseig.mesh as mm
from helpers import field_l2_norm
from stokeseig.assembly import J, skew_free_part
from stokeseig.errors import KindMismatchError, MeshError
from stokeseig.fields import (DiscreteField, element_integrals,
                              pressure_from_stress, theta_postprocess,
                              vorticity_from_stress)
from stokeseig.mesh import build_square_mesh, patches
from stokeseig.quadrature import quadrature
from stokeseig.spaces import DofMap, SpaceDescriptor, interpolate_ned, l2_project_velocity
from stokeseig.vtkio import export_vtk, read_vtk


def _stress_of(mesh, tau, ell=1, k=0):
    desc = SpaceDescriptor(ell, k)
    return DiscreteField.stress(mesh, desc, interpolate_ned(mesh, desc, tau))


def test_pressure_of_constant_tensors():
    mesh = build_square_mesh(2, mm.UNIT_SQUARE)
    rule = quadrature(2)
    p = pressure_from_stress(_stress_of(mesh, lambda q: J))
    assert np.abs(p.values_at(rule.points) + 1.0).max() < 1e-13
    p = pressure_from_stress(_stress_of(mesh, lambda q: np.eye(2)))
    assert np.abs(p.values_at(rule.points)).max() < 1e-13


def test_manufactured_pressure_and_vorticity():
    # stress of u = (y, 0), p = 3 with mu = 1
    mesh = build_square_mesh(2, mm.UNIT_SQUARE)
    curl_u = np.array([[-1.0, 0.0], [0.0, 0.0]])
    tau = curl_u - 3.0 * J
    sigma = _stress_of(mesh, lambda q: tau)
    p = pressure_from_stress(sigma)
    rule = quadrature(2)
    assert np.abs(p.values_at(rule.points) - 3.0).max() < 1e-12
    w = vorticity_from_stress(sigma, p, mu=1.0)
    assert np.abs(w.values_at(rule.points) - curl_u).max() < 1e-12
    # viscosity 2 halves the recovered tensor for the same stress and pressure
    w2 = vorticity_from_stress(sigma, p, mu=2.0)
    assert np.abs(w2.values_at(rule.points) - 0.5 * curl_u).max() < 1e-13


def test_vorticity_pairs_with_reduced_stress():
    # sigma = J, p = -1: vorticity J + (-1) J = 0
    mesh = build_square_mesh(1, mm.UNIT_SQUARE)
    sigma = _stress_of(mesh, lambda q: J)
    w = vorticity_from_stress(sigma, pressure_from_stress(sigma), mu=1.0)
    rule = quadrature(2)
    assert np.abs(w.values_at(rule.points)).max() < 1e-13


def test_reduced_identity_pointwise():
    # sigma + p J equals the skew-free part for any discrete stress
    mesh = build_square_mesh(2, mm.UNIT_SQUARE)
    desc = SpaceDescriptor(1, 1)
    rng = np.random.default_rng(3)
    from stokeseig.spaces import DofMap
    dm = DofMap(mesh, desc)
    sigma = DiscreteField.stress(mesh, desc, rng.standard_normal(dm.n_sigma), dofmap=dm)
    p = pressure_from_stress(sigma)
    rule = quadrature(3)
    sv = sigma.values_at(rule.points)
    pv = p.values_at(rule.points)
    assert np.abs(sv + pv[..., None, None] * J - skew_free_part(sv)).max() < 1e-12


def test_kind_checks():
    mesh = build_square_mesh(1, mm.UNIT_SQUARE)
    vel = DiscreteField.velocity(mesh, 0, np.zeros(4))
    with pytest.raises(KindMismatchError):
        pressure_from_stress(vel)
    sigma = _stress_of(mesh, lambda q: J)
    other = _stress_of(mesh, lambda q: np.eye(2))
    with pytest.raises(KindMismatchError):
        vorticity_from_stress(sigma, pressure_from_stress(other), mu=1.0)



@pytest.mark.parametrize("tri", [-1, 8, True, 1.0], ids=["negative", "past_end", "bool", "float"])
def test_invalid_triangle_id_rejected(tri):
    mesh = build_square_mesh(2, mm.UNIT_SQUARE)
    assert mesh.num_triangles == 8
    sigma = _stress_of(mesh, lambda q: np.array([[1.0, 2.0], [3.0, 4.0]]), ell=2, k=1)
    centroid = np.full((1, 2), 1.0 / 3.0)
    # valid ids select rows of the all-triangle evaluation
    assert np.allclose(sigma.eval_at(7, mesh.vertices[mesh.tri_vertices[7]].mean(axis=0)),
                       sigma.values_at(centroid)[7], atol=1e-12)
    assert np.array_equal(sigma.curl_at(centroid, [0, 7]), sigma.curl_at(centroid)[[0, 7]])
    with pytest.raises(MeshError):
        sigma.eval_at(tri, mesh.vertices[mesh.tri_vertices[0]].mean(axis=0))
    methods = (sigma.values_at, sigma.curl_at, sigma.jacobian_at,
               pressure_from_stress(sigma).values_at)
    for tris in ([tri], np.array([tri]), [0, tri]):
        for method in methods:
            with pytest.raises(MeshError):
                method(centroid, tris)

def test_theta_reproduces_constants():
    mesh = build_square_mesh(3, mm.UNIT_SQUARE)
    const = np.array([0.7, -0.3])
    coeffs = np.tile(np.concatenate([const[:1], const[1:]]), mesh.num_triangles)
    u = DiscreteField.velocity(mesh, 0, coeffs)
    theta = theta_postprocess(u, patches(mesh))
    assert np.abs(theta.nodal_values - const).max() < 1e-13


def test_theta_of_projection_matches_theta():
    mesh = build_square_mesh(4, mm.UNIT_SQUARE)

    def v(p):
        return np.array([np.sin(p[0] + 2 * p[1]), p[0] * p[1] ** 2])

    pat = patches(mesh)
    proj = DiscreteField.velocity(mesh, 0, l2_project_velocity(mesh, 0, v))
    # integral-average both ways: the element mean is preserved by the projection
    smooth = DiscreteField.velocity(mesh, 2, l2_project_velocity(mesh, 2, v))
    t_proj = theta_postprocess(proj, pat)
    t_smooth = theta_postprocess(smooth, pat)
    assert np.abs(t_proj.nodal_values - t_smooth.nodal_values).max() < 1e-11


def test_theta_bounded_on_random_fields():
    mesh = build_square_mesh(8, mm.UNIT_SQUARE)
    pat = patches(mesh)
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(5):
        coeffs = rng.standard_normal(2 * mesh.num_triangles)
        u = DiscreteField.velocity(mesh, 0, coeffs)
        theta = theta_postprocess(u, pat)
        worst = max(worst, field_l2_norm(theta) / field_l2_norm(u))
    assert worst <= 3.0


def test_theta_error_decay_on_smooth_field():
    def u(p):
        x, y = p
        return np.array([np.sin(np.pi * x) ** 2 * np.sin(np.pi * y) ** 2,
                         (x * (1 - x) * y * (1 - y)) ** 2])

    errs, hs = [], []
    for N in (8, 16, 32):
        mesh = build_square_mesh(N, mm.UNIT_SQUARE)
        proj = DiscreteField.velocity(mesh, 0, l2_project_velocity(mesh, 0, u))
        theta = theta_postprocess(proj, patches(mesh))
        rule = quadrature(8)
        vals = theta.values_at(rule.points)
        B, origin, det = mesh.affine_maps
        pts = np.einsum("eij,qj->eqi", B, rule.points) + origin[:, None, :]
        exact = np.empty_like(vals)
        for e in range(mesh.num_triangles):
            for q in range(len(rule.points)):
                exact[e, q] = u(pts[e, q])
        err2 = np.einsum("eqc,q,e->", (vals - exact) ** 2, rule.weights, det)
        errs.append(np.sqrt(err2))
        hs.append(1.0 / N)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= 1.8


@pytest.mark.parametrize("ell, k", [(1, 1), (2, 2)])
def test_jacobians_match_central_differences(ell, k):
    base = build_square_mesh(2, mm.UNIT_SQUARE)
    shear = np.array([[1.0, 0.4], [0.15, 0.9]])
    mesh = mm.Mesh.from_triangles(base.vertices @ shear.T, base.tri_vertices)
    desc = SpaceDescriptor(ell, k)
    dm = DofMap(mesh, desc)
    rng = np.random.default_rng(5)
    sigma = DiscreteField.stress(mesh, desc, rng.standard_normal(dm.n_sigma), dofmap=dm)
    u = DiscreteField.velocity(mesh, k, rng.standard_normal(dm.n_u))
    ref = np.array([[0.2, 0.3], [0.5, 0.25], [0.1, 0.7]])
    B, origin, _ = mesh.affine_maps
    h = 1e-5
    for field in (sigma, u):
        jac = field.jacobian_at(ref)                    # derivative on the last axis
        scale = np.abs(jac).max()
        for t in range(mesh.num_triangles):
            x = origin[t] + ref @ B[t].T
            for d in range(2):
                step = h * np.eye(2)[d]
                fd = (field.eval_at(t, x + step) - field.eval_at(t, x - step)) / (2 * h)
                assert np.abs(jac[t, ..., d] - fd).max() < 1e-8 * scale


def test_element_integrals_match_means():
    mesh = build_square_mesh(2, mm.UNIT_SQUARE)
    coeffs = np.arange(2.0 * mesh.num_triangles)
    u = DiscreteField.velocity(mesh, 0, coeffs)
    ints = element_integrals(u)
    want = coeffs.reshape(-1, 2) * mesh.tri_areas[:, None]
    assert np.abs(ints - want).max() < 1e-14


def test_vtk_export_and_roundtrip(tmp_path):
    mesh = build_square_mesh(1, mm.UNIT_SQUARE)
    sigma = _stress_of(mesh, lambda q: np.array([[1.0, 2.0], [3.0, 4.0]]))
    p = pressure_from_stress(sigma)
    w = vorticity_from_stress(sigma, p, mu=1.0)
    u = DiscreteField.velocity(mesh, 0, np.arange(4.0))
    theta = theta_postprocess(u, patches(mesh))
    path = tmp_path / "fields.vtk"
    export_vtk([u, p, w, theta], path)
    data = read_vtk(path)
    assert data["points"].shape == (4, 2)
    assert data["cells"].shape == (2, 3)
    assert np.array_equal(data["points"], mesh.vertices)
    assert np.array_equal(data["cells"], mesh.tri_vertices)
    rule_pt = np.array([[1 / 3, 1 / 3]])
    assert np.allclose(data["cell_data"]["pressure"], p.values_at(rule_pt)[:, 0])
    assert np.allclose(data["cell_data"]["velocity"], u.values_at(rule_pt)[:, 0, :])
    assert np.allclose(data["point_data"]["velocity_recovered"], theta.nodal_values)


def test_vtk_empty_field_list_rejected(tmp_path):
    with pytest.raises(KindMismatchError):
        export_vtk([], tmp_path / "x.vtk")


def test_vtk_mixed_meshes_rejected(tmp_path):
    m1 = build_square_mesh(1, mm.UNIT_SQUARE)
    m2 = build_square_mesh(2, mm.UNIT_SQUARE)
    u1 = DiscreteField.velocity(m1, 0, np.zeros(4))
    u2 = DiscreteField.velocity(m2, 0, np.zeros(16))
    with pytest.raises(KindMismatchError):
        export_vtk([u1, u2], tmp_path / "x.vtk")
