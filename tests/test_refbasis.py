from math import factorial

import numpy as np
import pytest
from numpy.polynomial import Legendre
from numpy.polynomial.legendre import leggauss

from stokeseig.errors import ConfigurationError
from stokeseig.quadrature import quadrature
from stokeseig.refbasis import NED1, NED2, ned_basis, pk_basis, pk_reference_mass

DIMS = {(NED1, 0): 3, (NED1, 1): 8, (NED1, 2): 15,
        (NED2, 1): 6, (NED2, 2): 12, (NED2, 3): 20}


@pytest.mark.parametrize("make", [lambda: ned_basis(NED1, 1.0), lambda: ned_basis(NED2, 2.0),
                                  lambda: ned_basis(NED1, True), lambda: pk_basis(1.0),
                                  lambda: pk_basis(True), lambda: pk_basis("1")],
                         ids=["ned1-float", "ned2-float", "ned1-bool", "pk-float", "pk-bool",
                              "pk-str"])
def test_non_integer_orders_are_configuration_errors(make):
    ned_basis(NED1, 1), ned_basis(NED2, 2), pk_basis(1), pk_basis(0)   # cached int orders
    with pytest.raises(ConfigurationError):
        make()


def test_numpy_integer_orders_are_accepted():
    assert ned_basis(NED1, np.int64(1)).dim == 8
    assert pk_basis(np.int32(2)).dim == 6


@pytest.mark.parametrize("family,order", sorted(DIMS))
def test_dimension_formulas(family, order):
    basis = ned_basis(family, order)
    assert basis.dim == DIMS[(family, order)]
    if family == NED1:
        assert basis.dim == (order + 1) * (order + 3)
        per_copy_interior = order * (order + 1)
    else:
        assert basis.dim == (order + 1) * (order + 2)
        per_copy_interior = (order - 1) * (order + 1)
    edge = basis.num_edge_dofs
    assert edge == 3 * (order + 1)
    assert basis.dim - edge == per_copy_interior


@pytest.mark.parametrize("family,order", sorted(DIMS))
def test_unisolvence_dof_matrix_identity(family, order):
    basis = ned_basis(family, order)

    def as_callable(coeff_idx):
        def fn(points):
            return basis.eval(points)[coeff_idx]
        return fn

    vand = np.column_stack([basis.dof_values(as_callable(j)) for j in range(basis.dim)])
    assert np.abs(vand - np.eye(basis.dim)).max() < 1e-12


@pytest.mark.parametrize("family,order", sorted(DIMS))
def test_dof_values_batch_matches_single_fields(family, order):
    basis = ned_basis(family, order)
    coef = np.random.default_rng(1).standard_normal((3, 2, 3))

    def fields(points):
        # three smooth non-polynomial fields, shape (3, n, 2)
        x, y = points[:, 0], points[:, 1]
        mono = np.stack([np.ones_like(x), x * y, np.exp(x - y)])
        return np.ascontiguousarray(np.einsum("fck,kn->fnc", coef, mono))

    single = [basis.dof_values(lambda points, f=f: fields(points)[f]) for f in range(3)]
    assert np.array_equal(basis.dof_values(fields), np.stack(single))


@pytest.mark.parametrize("family,order", sorted(DIMS))
def test_dof_values_are_the_moment_integrals(family, order):
    # the functionals' values, not only their duality, against an independent
    # oracle: numpy's Gauss rule for the tangential Legendre moments on each
    # edge from its first vertex, exact monomial integrals for the P0^2
    # interior moments of (NED1, 1)
    basis = ned_basis(family, order)
    i, j = np.array([(i, j) for i in range(basis.degree + 1)
                     for j in range(basis.degree + 1 - i)]).T
    coef = np.random.default_rng(5).standard_normal((3, 2, i.size))

    def fields(points):
        # three random vector polynomials of the basis degree, shape (3, n, 2)
        return np.einsum("fct,nt->fnc", coef, points[:, :1] ** i * points[:, 1:] ** j)

    dofs = basis.dof_values(fields)
    s, w = leggauss(basis.degree + order + 1)
    t, w = (s + 1.0) / 2.0, w / 2.0
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for e in range(3):
        a, b = verts[e], verts[(e + 1) % 3]
        tangential = fields(a + np.outer(t, b - a)) @ (b - a)
        for m in range(order + 1):
            want = tangential @ (w * Legendre.basis(m)(2.0 * t - 1.0))
            assert np.abs(dofs[:, basis.dofs.index(("edge", e, m))] - want).max() < 1e-13
    if (family, order) == (NED1, 1):
        area = [factorial(p) * factorial(q) / factorial(p + q + 2) for p, q in zip(i, j)]
        interior = [basis.dofs.index(("interior", c)) for c in range(2)]
        assert np.abs(dofs[:, interior] - coef @ area).max() < 1e-13


@pytest.mark.parametrize("family,order", sorted(DIMS))
def test_tangential_trace_vanishes_off_edge(family, order):
    # edge j of the reference triangle joins vertices j and j+1 mod 3
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    basis = ned_basis(family, order)
    s = np.linspace(0.0, 1.0, 11)
    for edge in range(3):
        a, b = verts[edge], verts[(edge + 1) % 3]
        trace = basis.eval(a + np.outer(s, b - a)) @ (b - a)
        others = [d for d, dof in enumerate(basis.dofs) if dof[:2] != ("edge", edge)]
        assert np.abs(trace[others]).max() < 2e-13


def test_whitney_curls_constant():
    basis = ned_basis(NED1, 0)
    assert basis.dim == 3
    pts = np.array([[0.2, 0.3], [0.5, 0.1], [0.1, 0.6]])
    curls = basis.eval_curl(pts)
    assert np.abs(curls - curls[:, :1]).max() < 1e-13


def test_ned2_order1_is_full_p1():
    basis = ned_basis(NED2, 1)
    assert basis.dim == 6
    # every linear vector field is reproduced through its dofs
    rng = np.random.default_rng(0)
    coef = rng.standard_normal((2, 3))

    def field(points):
        x, y = points[:, 0], points[:, 1]
        return np.stack([coef[0, 0] + coef[0, 1] * x + coef[0, 2] * y,
                         coef[1, 0] + coef[1, 1] * x + coef[1, 2] * y], axis=-1)

    dofs = basis.dof_values(field)
    pts = np.array([[0.25, 0.25], [0.1, 0.7], [0.6, 0.2]])
    recon = np.einsum("d,dqc->qc", dofs, basis.eval(pts))
    assert np.abs(recon - field(pts)).max() < 1e-12


@pytest.mark.parametrize("family,order", sorted(DIMS))
def test_curl_matches_finite_differences(family, order):
    basis = ned_basis(family, order)
    pts = np.array([[0.3, 0.25], [0.2, 0.5], [0.45, 0.15]])
    h = 1e-5
    dx = (basis.eval(pts + [h, 0.0]) - basis.eval(pts - [h, 0.0])) / (2 * h)
    dy = (basis.eval(pts + [0.0, h]) - basis.eval(pts - [0.0, h])) / (2 * h)
    fd = dx[..., 1] - dy[..., 0]
    assert np.abs(basis.eval_curl(pts) - fd).max() < 1e-6


@pytest.mark.parametrize("order,dim", [(0, 1), (1, 3), (2, 6), (3, 10)])
def test_pk_dimensions(order, dim):
    basis = pk_basis(order)
    assert basis.dim == dim
    if order == 0:
        assert abs(basis.eval(np.array([[0.3, 0.4]]))[0, 0] - 1.0) < 1e-15


def test_p2_mass_matrix_positive_definite():
    mass = pk_reference_mass(2)
    assert mass.shape == (6, 6)
    assert np.abs(mass - mass.T).max() == 0.0
    assert np.linalg.eigvalsh(mass).min() > 0.0
    # consistency with quadrature
    basis = pk_basis(2)
    rule = quadrature(6)
    vals = basis.eval(rule.points)
    quad_mass = np.einsum("aq,bq,q->ab", vals, vals, rule.weights)
    assert np.abs(quad_mass - mass).max() < 1e-15


def test_jacobian_matches_finite_differences():
    basis = ned_basis(NED1, 1)
    pts = np.array([[0.3, 0.25]])
    h = 1e-6
    jac = basis.eval_jacobian(pts)
    for der, step in ((0, [h, 0.0]), (1, [0.0, h])):
        fd = (basis.eval(pts + step) - basis.eval(pts - step)) / (2 * h)
        assert np.abs(jac[:, :, :, der] - fd).max() < 1e-6


def test_unsupported_orders_rejected():
    with pytest.raises(ConfigurationError):
        ned_basis(NED1, 3)
    with pytest.raises(ConfigurationError):
        ned_basis(NED2, 0)
    with pytest.raises(ConfigurationError):
        ned_basis("nope", 1)
    with pytest.raises(ConfigurationError):
        pk_basis(4)
