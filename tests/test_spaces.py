import numpy as np
import pytest

import stokeseig.mesh as mm
from helpers import l2_field_error, single_triangle_mesh
from stokeseig.assembly import assemble_forms, build_pencil
from stokeseig.eigsolve import EigConfig, solve_eig
from stokeseig.errors import ConfigurationError
from stokeseig.fields import DiscreteField
from stokeseig.mesh import build_square_mesh, tag_bottom_fixed
from stokeseig.quadrature import quadrature
from stokeseig.spaces import (ALL_DIRICHLET, MIXED_BOTTOM_FIXED, DofMap, SpaceDescriptor,
                              interpolate_ned, l2_project_velocity)

ALL_SCHEMES = [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]


def test_descriptor_pairs_family_and_order():
    assert SpaceDescriptor(1, 2).stress_order == 2
    assert SpaceDescriptor(2, 0).stress_order == 1
    assert SpaceDescriptor(2, 2).stress_order == 3
    with pytest.raises(ConfigurationError):
        SpaceDescriptor(3, 0)
    with pytest.raises(ConfigurationError):
        SpaceDescriptor(1, 5)


@pytest.mark.parametrize("ell,k", [(True, False), (1.0, 0.0), (2, 1.0), (np.float64(1), 0),
                                   (1, True), (np.True_, 0), ("1", 0), (1, None)])
def test_descriptor_rejects_non_integers(ell, k):
    with pytest.raises(ConfigurationError):
        SpaceDescriptor(ell, k)


def test_descriptor_accepts_numpy_integers():
    desc = SpaceDescriptor(np.int64(2), np.int32(1))
    assert desc == SpaceDescriptor(2, 1)
    assert desc.name == "P1-N2o2"


def test_counts_two_triangle_square():
    mesh = build_square_mesh(1, mm.UNIT_SQUARE)
    dm = DofMap(mesh, SpaceDescriptor(1, 0))
    assert dm.n_vec == 5
    assert dm.n_sigma == 10
    assert dm.n_u == 4
    dm2 = DofMap(mesh, SpaceDescriptor(2, 1))
    # second kind order 2: 3 dofs per edge, 3 interior per vector copy
    assert dm2.n_vec == 3 * mesh.num_edges + 3 * mesh.num_triangles
    assert dm2.n_sigma == 2 * dm2.n_vec


def test_mixed_bc_requires_tags():
    mesh = build_square_mesh(2, mm.UNIT_SQUARE)
    with pytest.raises(ConfigurationError):
        DofMap(mesh, SpaceDescriptor(1, 0), MIXED_BOTTOM_FIXED)
    tagged = tag_bottom_fixed(mesh)
    dm = DofMap(tagged, SpaceDescriptor(1, 0), MIXED_BOTTOM_FIXED)
    n_neumann = int(np.sum(tagged.edge_tags == mm.NEUMANN))
    assert dm.constrained.size == 2 * n_neumann
    assert not dm.has_mean_constraint


@pytest.mark.parametrize("ell,k", ALL_SCHEMES)
def test_tangential_trace_continuity(ell, k):
    mesh = build_square_mesh(2, mm.UNIT_SQUARE)
    desc = SpaceDescriptor(ell, k)
    dm = DofMap(mesh, desc)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(dm.n_sigma)
    field = DiscreteField.stress(mesh, desc, coeffs, dofmap=dm)
    interior = np.nonzero(mesh.edge_tags == mm.INTERIOR)[0]
    for e in interior[:4]:
        a, b = mesh.vertices[mesh.edges[e]]
        tang = (b - a) / np.linalg.norm(b - a)
        t0, t1 = (int(t) for t in mesh.edge_tris[e])
        for s in (0.21, 0.5, 0.83):
            p = a + s * (b - a)
            v0 = field.eval_at(t0, p) @ tang
            v1 = field.eval_at(t1, p) @ tang
            assert np.abs(v0 - v1).max() < 1e-12


def test_interpolate_constant_tensor():
    mesh = build_square_mesh(2, mm.UNIT_SQUARE)
    tau = np.array([[1.5, -0.25], [0.75, 2.0]])
    for ell, k in ALL_SCHEMES:
        desc = SpaceDescriptor(ell, k)
        coeffs = interpolate_ned(mesh, desc, lambda p: tau)
        field = DiscreteField.stress(mesh, desc, coeffs)
        err = l2_field_error(mesh, field, lambda p: tau, degree=4)
        assert err < 1e-12


def test_interpolate_whitney_span_exact():
    mesh = single_triangle_mesh()

    def tau(p):
        x, y = p
        return np.array([[y, -x], [1.0, 2.0]])

    desc = SpaceDescriptor(1, 0)
    coeffs = interpolate_ned(mesh, desc, tau)
    field = DiscreteField.stress(mesh, desc, coeffs)
    rule = quadrature(4)
    vals = field.values_at(rule.points)[0]
    for q, pt in enumerate(rule.points):
        assert np.abs(vals[q] - tau(pt)).max() < 1e-13


def test_interpolation_idempotent():
    mesh = single_triangle_mesh()
    desc = SpaceDescriptor(1, 1)

    def tau(p):
        x, y = p
        return np.array([[1 + x, y], [x - y, 2 * x]])

    c1 = interpolate_ned(mesh, desc, tau)
    field = DiscreteField.stress(mesh, desc, c1)
    c2 = interpolate_ned(mesh, desc, lambda p: field.eval_at(0, p)[0])
    assert np.abs(c1 - c2).max() < 1e-12


@pytest.mark.parametrize("ell,k", ALL_SCHEMES)
def test_commuting_diagram(ell, k):
    mesh = build_square_mesh(4, mm.UNIT_SQUARE)

    def tau(p):
        x, y = p
        return np.array([[np.sin(y), x ** 2], [np.sin(y), x ** 2]])

    def curl_tau(p):
        x, y = p
        c = 2.0 * x - np.cos(y)
        return np.array([c, c])

    desc = SpaceDescriptor(ell, k)
    sig = DiscreteField.stress(mesh, desc, interpolate_ned(mesh, desc, tau))
    vel = DiscreteField.velocity(mesh, k, l2_project_velocity(mesh, k, curl_tau))
    rule = quadrature(4)
    lhs = sig.curl_at(rule.points)
    rhs = vel.values_at(rule.points)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_l2_projection_examples():
    mesh = single_triangle_mesh()
    # constants are exact at k = 0
    c = l2_project_velocity(mesh, 0, lambda p: np.array([2.0, -1.0]))
    assert np.allclose(c, [2.0, -1.0], atol=1e-14)
    # the element mean of (x, y) is the centroid
    c = l2_project_velocity(mesh, 0, lambda p: p)
    assert np.abs(c - np.array([1 / 3, 1 / 3])).max() < 1e-14
    # quadratics are reproduced at k = 2
    mesh4 = build_square_mesh(2, mm.UNIT_SQUARE)
    c = l2_project_velocity(mesh4, 2, lambda p: np.array([p[0] ** 2, p[0] * p[1]]))
    field = DiscreteField.velocity(mesh4, 2, c)
    err = l2_field_error(mesh4, field, lambda p: np.array([p[0] ** 2, p[0] * p[1]]), degree=6)
    assert err < 1e-12


@pytest.mark.parametrize("ell,k,min_order", [(1, 0, 0.8), (2, 0, 1.8)])
def test_interpolation_error_decay(ell, k, min_order):
    desc = SpaceDescriptor(ell, k)

    def tau(p):
        x, y = p
        return np.array([[np.sin(np.pi * x) * y, np.cos(y)],
                         [x * y, np.exp(x - y)]])

    errs, hs = [], []
    for N in (4, 8, 16):
        mesh = build_square_mesh(N, mm.UNIT_SQUARE)
        field = DiscreteField.stress(mesh, desc, interpolate_ned(mesh, desc, tau))
        errs.append(l2_field_error(mesh, field, tau, degree=8))
        hs.append(1.0 / N)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope >= min_order


def test_boundary_conditions_come_from_the_edge_tags():
    mesh = tag_bottom_fixed(build_square_mesh(8, mm.UNIT_SQUARE))
    desc = SpaceDescriptor(1, 0)
    dm = DofMap(mesh, desc)
    explicit = DofMap(mesh, desc, MIXED_BOTTOM_FIXED)
    assert np.array_equal(dm.constrained, explicit.constrained)
    assert dm.constrained.size and not dm.has_mean_constraint
    assert not hasattr(dm, "bc")
    solution = solve_eig(build_pencil(assemble_forms(mesh, dm)), EigConfig(nev=1))
    assert abs(solution.eigenvalues[0] - 2.4671) < 5e-3
    # a mode that disagrees with the tags is an error, not a choice
    with pytest.raises(ConfigurationError, match="disagrees"):
        DofMap(mesh, desc, ALL_DIRICHLET)
    with pytest.raises(ConfigurationError, match="disagrees"):
        DofMap(build_square_mesh(8, mm.UNIT_SQUARE), desc, MIXED_BOTTOM_FIXED)
    with pytest.raises(ConfigurationError, match="disagrees"):
        DofMap(mesh, desc, "neumann")


def test_neumann_tags_without_a_dirichlet_edge_raise():
    mesh = build_square_mesh(2, mm.UNIT_SQUARE)
    tags = np.where(mesh.edge_tags == mm.DIRICHLET, mm.NEUMANN, mesh.edge_tags)
    free = mm.Mesh(mesh.vertices, mesh.tri_vertices, mesh.tri_edges, mesh.tri_parents,
                   mesh.edges, tags)
    with pytest.raises(ConfigurationError, match="Dirichlet-tagged"):
        DofMap(free, SpaceDescriptor(1, 0))
