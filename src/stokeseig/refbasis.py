"""Reference-triangle bases: vector elements for H(curl) and scalar P_k.

Vector bases are the dual of the classical edge/interior moment functionals.
The first-kind space of order k is P_k^2 plus the rotated Raviart-Thomas
homogeneous tail (-y, x) * homogeneous P_k; the second-kind space of order m
is the full P_m^2.

Edge functionals are tangential moments against Legendre polynomials on the
edge (parametrized from the first listed local vertex); interior functionals
are moments against P_{k-1}^2 (first kind) or the Raviart-Thomas space of
order m-2 (second kind).  These choices make the elements commute with the
element-wise L2 projection of the scalar curl.  All of them are stated once,
as one set of reference points and one weight array: a field's dofs are one
contraction of its values there.

Vector bases are stored in Bernstein-Bezier coordinates: a component of
degree d is ``sum c[a1, a2] B_a`` with
``B_a = d! / (a0! a1! a2!) l0^a0 l1^a1 l2^a2`` in the barycentric coordinates
``l0 = 1 - x - y``, ``l1 = x``, ``l2 = y`` (``a0 = d - a1 - a2``).  The B_a are
nonnegative and sum to one, so Bernstein coefficients are of the size of the
values they describe and evaluation loses a few ulp of the largest of them.
On an edge only the coefficients with the opposite index zero survive, so a
tangential trace is set by the coefficients of that edge alone.  Monomial
coefficients are not used for these bases: at second kind, order 3 they reach
5.8e3 for values of about 1e2, and rounding them alone leaves tangential
traces of about 5e-13 on edges where they vanish.  The basis is found with one
solve of the moment matrix of Bernstein generators of the space.

The scalar P_k basis is the monomial one; its coefficients are exact.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np
from numpy.polynomial.legendre import legval
from scipy.linalg import block_diag

from .errors import ConfigurationError, is_int
from .quadrature import gauss_legendre, quadrature

NED1 = "ned1"
NED2 = "ned2"

# reference vertices (0,0), (1,0), (0,1); edge j joins vertices j, j+1 mod 3
_REF_VERTS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_EDGE_VERTS = ((0, 1), (1, 2), (2, 0))

_GAUSS_N = 10


def _monomial_exponents(order):
    return [(d - j, j) for d in range(order + 1) for j in range(d + 1)]


def _monomial_table(deg, points):
    """x^i y^j at ``points``, shape (deg+1, deg+1, n), zero where i + j > deg."""
    x, y = points[:, 0], points[:, 1]
    out = np.zeros((deg + 1, deg + 1, len(points)))
    for i, j in _monomial_exponents(deg):
        out[i, j] = x ** i * y ** j
    return out


def _bernstein_table(deg, points):
    """B_a at ``points`` indexed [a1, a2], shape (deg+1, deg+1, n), zero where a1 + a2 > deg."""
    x, y = points[:, 0], points[:, 1]
    l0 = 1.0 - x - y
    out = np.zeros((deg + 1, deg + 1, len(points)))
    for i, j in _monomial_exponents(deg):
        k = deg - i - j
        scale = factorial(deg) // (factorial(i) * factorial(j) * factorial(k))
        out[i, j] = scale * x ** i * y ** j * l0 ** k
    return out


def _evaluate(table, coeffs, points):
    """Contract coefficient arrays (..., d+1, d+1) with the degree-d table: (..., n)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return np.tensordot(coeffs, table(coeffs.shape[-1] - 1, points), axes=2)


def _monomial_grad(c):
    """Gradient of monomial coefficient arrays, [d/dx, d/dy] on a new axis -3."""
    out = np.zeros(c.shape[:-2] + (2,) + c.shape[-2:])
    out[..., 0, :-1, :] = c[..., 1:, :] * np.arange(1, c.shape[-2])[:, None]
    out[..., 1, :, :-1] = c[..., :, 1:] * np.arange(1, c.shape[-1])
    return out


def _bernstein_grad(c):
    """Gradient of degree-d Bernstein coefficient arrays as degree d-1 ones,
    [d/dx, d/dy] = d [c[a + e1] - c[a + e0], c[a + e2] - c[a + e0]] on a new axis -3."""
    deg = c.shape[-1] - 1
    keep = np.add.outer(np.arange(deg), np.arange(deg)) < deg
    base = c[..., :-1, :-1]
    return deg * np.stack([c[..., 1:, :-1] - base, c[..., :-1, 1:] - base], axis=-3) * keep


def _interior_moment_fields(family, order):
    """Monomial coefficient arrays (2, d+1, d+1) of the interior moment weights:
    P_{k-1}^2, or RT_{m-2} = P_{m-2}^2 + (x, y) * homogeneous P_{m-2}."""
    deg = order - 1
    full = deg if family == NED1 else deg - 1
    fields = []
    for i, j in _monomial_exponents(full):
        for comp in range(2):
            c = np.zeros((2, deg + 1, deg + 1))
            c[comp, i, j] = 1.0
            fields.append(c)
    if family == NED2:
        for j in range(full + 1):
            c = np.zeros((2, deg + 1, deg + 1))
            c[0, full - j + 1, j] = 1.0
            c[1, full - j, j + 1] = 1.0
            fields.append(c)
    return fields


def _functionals(family, order, deg):
    """The dofs, and their functionals as one point set and one weight array
    W of shape (points, 2, dim): dof d of a field v is sum_{q,c} v(x_q)_c W[q, c, d].

    Edge e's block weighs the tangent b - a with the Legendre polynomials on
    the edge's Gauss points, parametrized from its first vertex a; the
    interior block is the quadrature weights times the moment fields."""
    s, w = gauss_legendre(_GAUSS_N)
    legendre = w[:, None] / 2.0 * legval(s, np.eye(order + 1)).T      # (point, m)
    points, blocks = [], []
    for a, b in _REF_VERTS[list(_EDGE_VERTS)]:
        points.append(a + np.outer((s + 1.0) / 2.0, b - a))
        blocks.append(legendre[:, None] * (b - a)[:, None])
    dofs = [("edge", e, m) for e in range(3) for m in range(order + 1)]
    fields = _interior_moment_fields(family, order)
    if fields:
        rule = quadrature(2 * deg + 2)
        points.append(rule.points)
        blocks.append((rule.weights * _evaluate(_monomial_table, np.array(fields), rule.points)).T)
        dofs += [("interior", i) for i in range(len(fields))]
    weights = block_diag(*(blk.reshape(-1, blk.shape[-1]) for blk in blocks))
    return dofs, np.concatenate(points), weights.reshape(-1, 2, len(dofs))


class ReferenceBasis:
    """Basis on the reference triangle, dual to its degree-of-freedom functionals.

    ``coeffs`` holds Bernstein-Bezier coefficients, shape (dim, 2, d+1, d+1),
    for vector families and monomial coefficients, shape (dim, d+1, d+1), for
    scalar P_k; ``degree`` is d, the polynomial degree.  ``eval`` returns
    (dim, n, 2) for vector families and (dim, n) for scalars; ``eval_curl`` the
    scalar curl d1 v2 - d2 v1 of every vector basis function.  A vector
    basis's functionals are the reference ``points`` and one weight array
    ``weights`` (points, 2, dim), which :meth:`dof_values` contracts with a
    field's values there.
    """

    def __init__(self, order, coeffs, dofs, points=None, weights=None):
        self.order = order
        self.coeffs = coeffs
        self.dofs = dofs
        self.points, self.weights = points, weights
        self.vector = coeffs.ndim == 4
        self.dim = coeffs.shape[0]
        self.degree = coeffs.shape[-1] - 1
        self._table, grad = ((_bernstein_table, _bernstein_grad) if self.vector
                             else (_monomial_table, _monomial_grad))
        self._jac = grad(coeffs)  # [dof, (comp,) der, i, j]
        if self.vector:
            self._curl = self._jac[:, 1, 0] - self._jac[:, 0, 1]

    @property
    def num_edge_dofs(self):
        return sum(1 for d in self.dofs if d[0] == "edge")

    def eval(self, points):
        vals = _evaluate(self._table, self.coeffs, points)
        return np.moveaxis(vals, -1, 1) if self.vector else vals

    def eval_curl(self, points):
        return _evaluate(self._table, self._curl, points)

    def eval_jacobian(self, points):
        """Jacobians d(component)/d(coordinate): (dim, n, 2, 2) for vector
        families, gradients (dim, n, 2) for scalars."""
        return np.moveaxis(_evaluate(self._table, self._jac, points), -1, 1)

    def dof_values(self, fn):
        """Apply every degree-of-freedom functional to a callable field.

        ``fn(points)`` returns shape (..., n, 2) at the n reference ``points``;
        the result has shape (..., dim), one row of dof values per leading index.
        """
        return np.einsum("...qc,qcd->...d", fn(self.points), self.weights)


def _generators(family, order, exps):
    """Columns spanning the local space in Bernstein coordinates (component, index)."""
    n = len(exps)
    if family == NED2:
        return np.eye(2 * n)
    # first kind: P_order^2 raised to degree order + 1, then the rotated tail
    index = {e: col for col, e in enumerate(exps)}
    gens = []
    for comp in range(2):
        for b1, b2 in _monomial_exponents(order):
            # B^{d-1}_b is proportional to sum_i (b_i + 1) B^d_{b + e_i}
            g = np.zeros(2 * n)
            g[comp * n + index[(b1, b2)]] = order - b1 - b2 + 1
            g[comp * n + index[(b1 + 1, b2)]] = b1 + 1
            g[comp * n + index[(b1, b2 + 1)]] = b2 + 1
            gens.append(g)
    for j in range(order + 1):
        # (-y, x) x^(order-j) y^j; x^i y^j is proportional to i! j! B^d_(i, j) when i + j = d
        g = np.zeros(2 * n)
        g[index[(order - j, j + 1)]] = -(j + 1)
        g[n + index[(order - j + 1, j)]] = order - j + 1
        gens.append(g)
    # orthonormal columns keep the moment matrix of the generators well conditioned
    return np.linalg.qr(np.column_stack(gens))[0]


# typed, so that a float order equal to a cached int is checked, not served
@lru_cache(maxsize=None, typed=True)
def ned_basis(family, order):
    """Vector basis of the requested family and order.

    Supported: first kind orders 0..2, second kind orders 1..3.
    """
    if family == NED1:
        if not is_int(order) or order not in (0, 1, 2):
            raise ConfigurationError(f"first-kind order must be 0, 1 or 2, got {order!r}")
    elif family == NED2:
        if not is_int(order) or order not in (1, 2, 3):
            raise ConfigurationError(f"second-kind order must be 1, 2 or 3, got {order!r}")
    else:
        raise ConfigurationError(f"unknown vector family {family!r}")

    deg = order + 1 if family == NED1 else order
    exps = _monomial_exponents(deg)
    gens = _generators(family, order, exps)
    dofs, points, weights = _functionals(family, order, deg)
    if len(dofs) != gens.shape[1]:
        raise ConfigurationError(
            f"{family} order {order}: {gens.shape[1]} generators vs {len(dofs)} functionals")

    # the moment matrix of the unit Bernstein polynomials B_a e_c, columns
    # (c, a), from one table of them at the points; solved once on the
    # generators for the dual basis
    i, j = np.array(exps).T
    table = _bernstein_table(deg, points)[i, j]
    moments = np.einsum("aq,qcd->dca", table, weights).reshape(len(dofs), -1)
    dual = gens @ np.linalg.solve(moments @ gens, np.eye(len(dofs)))
    coeffs = np.zeros((len(dofs), 2, deg + 1, deg + 1))
    coeffs[..., i, j] = dual.T.reshape(len(dofs), 2, -1)
    return ReferenceBasis(order, coeffs, dofs, points, weights)


@lru_cache(maxsize=None, typed=True)
def pk_basis(order):
    """Monomial basis of P_order on the reference triangle (constant first)."""
    if not is_int(order) or order not in (0, 1, 2, 3):
        raise ConfigurationError(f"piecewise polynomial order must be 0..3, got {order!r}")
    exps = _monomial_exponents(order)
    coeffs = np.zeros((len(exps), order + 1, order + 1))
    for d, (i, j) in enumerate(exps):
        coeffs[d, i, j] = 1.0
    dofs = [("interior", i) for i in range(len(exps))]
    return ReferenceBasis(order, coeffs, dofs)


@lru_cache(maxsize=None)
def pk_reference_mass(order):
    """Exact Gram matrix of :func:`pk_basis` on the reference triangle."""
    exps = _monomial_exponents(order)
    n = len(exps)
    out = np.empty((n, n))
    for a, (i, j) in enumerate(exps):
        for b, (k, l) in enumerate(exps):
            out[a, b] = factorial(i + k) * factorial(j + l) / factorial(i + k + j + l + 2)
    return out
