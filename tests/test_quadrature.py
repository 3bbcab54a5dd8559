import os
import subprocess
import sys

import numpy as np
import pytest

import stokeseig
from stokeseig.errors import ConfigurationError
from stokeseig.quadrature import (_JACOBI10, _LEGENDRE, MAX_DEGREE, gauss_legendre, quadrature,
                                  reference_monomial_integral)


@pytest.mark.parametrize("degree", range(1, MAX_DEGREE + 1))
def test_exactness_all_monomials(degree):
    rule = quadrature(degree)
    x, y = rule.points[:, 0], rule.points[:, 1]
    for total in range(degree + 1):
        for i in range(total + 1):
            j = total - i
            got = float(rule.weights @ (x ** i * y ** j))
            assert abs(got - reference_monomial_integral(i, j)) < 1e-13


@pytest.mark.parametrize("degree", range(1, MAX_DEGREE + 1))
def test_weights_positive_and_sum_to_area(degree):
    rule = quadrature(degree)
    assert np.all(rule.weights > 0.0)
    assert abs(rule.weights.sum() - 0.5) < 1e-14


@pytest.mark.parametrize("degree", range(1, MAX_DEGREE + 1))
def test_point_set_symmetric(degree):
    rule = quadrature(degree)
    keys = {tuple(np.round(sorted(b), 12)) for b in rule.bary}
    for b in rule.bary:
        for perm in [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (1, 0, 2), (2, 1, 0)]:
            assert tuple(np.round(sorted(b[list(perm)]), 12)) in keys


def test_centroid_rule():
    rule = quadrature(1)
    assert len(rule) == 1
    assert np.allclose(rule.bary[0], [1 / 3, 1 / 3, 1 / 3])
    assert abs(rule.weights[0] - 0.5) < 1e-15


def test_known_monomial_values():
    # int x^2 y = 1/60, int x^3 y^3 = 1/1120 (analytic integration)
    assert abs(reference_monomial_integral(2, 1) - 1.0 / 60.0) < 1e-17
    rule = quadrature(3)
    got = float(rule.weights @ (rule.points[:, 0] ** 2 * rule.points[:, 1]))
    assert abs(got - 1.0 / 60.0) < 1e-15
    rule6 = quadrature(6)
    got = float(rule6.weights @ (rule6.points[:, 0] ** 3 * rule6.points[:, 1] ** 3))
    assert abs(got - 1.0 / 1120.0) < 1e-14


def test_edge_rule_matches_degree():
    for degree in range(1, MAX_DEGREE + 1):
        rule = quadrature(degree)
        for p in range(degree + 1):
            got = float(rule.edge_weights @ rule.edge_points ** p)
            assert abs(got - 1.0 / (p + 1)) < 1e-14


def test_rejects_unsupported_degree():
    with pytest.raises(ConfigurationError):
        quadrature(MAX_DEGREE + 1)
    with pytest.raises(ConfigurationError):
        quadrature(0)


@pytest.mark.parametrize("n", sorted(_LEGENDRE))
def test_legendre_table_is_scipy_rule_and_exact(n):
    from scipy.special import roots_legendre
    x, w = gauss_legendre(n)
    for got, want in zip((x, w), roots_legendre(n)):
        assert np.array_equal(got, want)
    for p in range(2 * n):
        assert abs(w @ x ** p - (1 - (-1) ** (p + 1)) / (p + 1)) < 1e-14


@pytest.mark.parametrize("n", sorted(_JACOBI10))
def test_jacobi_table_is_scipy_rule_and_exact(n):
    from scipy.special import roots_jacobi
    x, w = (np.array(v) for v in _JACOBI10[n])
    for got, want in zip((x, w), roots_jacobi(n, 1.0, 0.0)):
        assert np.array_equal(got, want)
    for p in range(2 * n):
        # int_{-1}^{1} (1 - x) x^p dx
        exact = (1 - (-1) ** (p + 1)) / (p + 1) - (1 - (-1) ** (p + 2)) / (p + 2)
        assert abs(w @ x ** p - exact) < 1e-14


def test_import_does_not_load_scipy_special():
    src = os.path.dirname(os.path.dirname(os.path.abspath(stokeseig.__file__)))
    code = "import sys, stokeseig; sys.exit('scipy.special' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
