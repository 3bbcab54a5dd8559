"""Numerical integration on the reference triangle and its edges.

The reference triangle is ``{(x, y) : x >= 0, y >= 0, x + y <= 1}`` with
vertices (0,0), (1,0), (0,1).  Rules are fully symmetric (invariant under all
six vertex permutations), carry positive weights only, and come paired with a
Gauss rule on [0, 1] of the same polynomial exactness for edge integrals.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np

from .errors import ConfigurationError, is_int

MAX_DEGREE = 10

# Gauss rules on [-1, 1], (nodes, weights), as scipy.special 1.17's
# roots_legendre / roots_jacobi return them, bit for bit: the assembled
# matrices, and so the LU pivots, follow their last bits.  Legendre rules are
# exactly symmetric and are stored by their nodes <= 0.
_LEGENDRE = {
    1: ((0.0,), (2.0,)),
    2: ((-0.5773502691896257,), (1.0,)),
    3: ((-0.7745966692414834, 0.0), (0.5555555555555558, 0.8888888888888883)),
    4: ((-0.8611363115940526, -0.3399810435848563), (0.3478548451374538, 0.6521451548625462)),
    5: ((-0.906179845938664, -0.5384693101056831, 0.0),
        (0.23692688505618897, 0.4786286704993665, 0.568888888888889)),
    6: ((-0.932469514203152, -0.6612093864662645, -0.23861918608319693),
        (0.17132449237917016, 0.36076157304813855, 0.4679139345726912)),
    10: ((-0.9739065285171717, -0.8650633666889844, -0.6794095682990244,
          -0.4333953941292472, -0.14887433898163116),
         (0.06667134430868714, 0.14945134915058053, 0.21908636251598224,
          0.26926671930999674, 0.2955242247147533)),
}
# Gauss-Jacobi for the weight 1 - x (alpha = 1, beta = 0)
_JACOBI10 = {
    2: ((-0.6898979485566357, 0.2898979485566358), (1.2721655269759087, 0.7278344730240913)),
    3: ((-0.8228240809745921, -0.1810662711185305, 0.5753189235216941),
        (0.8037276549558384, 0.9169644254383448, 0.2793079196058167)),
    4: ((-0.8857916077709646, -0.44631397272375245, 0.16718086473783364, 0.7204802713124389),
        (0.5420276537259541, 0.8138582720410844, 0.5193901904329293, 0.12472388380003234)),
    5: ((-0.9203802858970626, -0.6039731642527836, -0.1240503795052277, 0.39092854670727223,
         0.8029298284023472),
        (0.3871263609066059, 0.6686985523774788, 0.5855479483386794, 0.2956354802904667,
         0.0629916580867692)),
    6: ((-0.9413671456804301, -0.7038428006630314, -0.3260306194376914, 0.1173430375431003,
         0.538467724060109, 0.8538913426394822),
        (0.2892413229020356, 0.5421699889260747, 0.5631702151527953, 0.3946446035626208,
         0.17582066220203585, 0.034953207254438116)),
}

_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


class QuadratureRule:
    """Symmetric positive rule on the reference triangle.

    Attributes
    ----------
    degree : int
        Total polynomial degree integrated exactly.
    bary : (n, 3) array
        Barycentric coordinates; the cartesian point is ``(b1, b2)``.
    weights : (n,) array
        Positive weights summing to the reference area 1/2.
    edge_points, edge_weights : (m,) arrays
        Companion Gauss rule on [0, 1], weights summing to 1.
    """

    def __init__(self, degree, bary, weights, edge_points, edge_weights):
        self.degree = int(degree)
        self.bary = np.asarray(bary, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.edge_points = np.asarray(edge_points, dtype=float)
        self.edge_weights = np.asarray(edge_weights, dtype=float)
        for arr in (self.bary, self.weights, self.edge_points, self.edge_weights):
            arr.flags.writeable = False

    @property
    def points(self):
        """Cartesian quadrature points, shape (n, 2)."""
        return self.bary[:, 1:]

    def __len__(self):
        return self.weights.size


def reference_monomial_integral(i, j):
    """Exact value of ``int x^i y^j`` over the reference triangle."""
    return factorial(i) * factorial(j) / factorial(i + j + 2)


def gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [-1, 1] (n = 1..6 or 10)."""
    x, w = (np.array(v) for v in _LEGENDRE[n])
    m = n // 2
    return np.concatenate([x, -x[:m][::-1]]), np.concatenate([w, w[:m][::-1]])


def _gauss01(n):
    x, w = gauss_legendre(n)
    return (x + 1.0) / 2.0, w / 2.0


def _conical_rule(degree):
    # Gauss-Legendre in the collapsed coordinate, Gauss-Jacobi (weight 1-y)
    # in the other; exact for total degree 2n-1 per direction.
    n = (degree + 2) // 2
    s, ws = _gauss01(n)
    t, wt = (np.array(v) for v in _JACOBI10[n])
    y = (t + 1.0) / 2.0
    wy = wt / 4.0
    xx = np.outer(1.0 - y, s).ravel()
    yy = np.repeat(y, n)
    ww = np.outer(wy, ws).ravel()
    return np.column_stack([xx, yy]), ww


def _symmetrize(points, weights):
    b = np.column_stack([1.0 - points[:, 0] - points[:, 1], points[:, 0], points[:, 1]])
    bary = np.vstack([b[:, perm] for perm in _PERMS])
    w = np.tile(weights / 6.0, len(_PERMS))
    return bary, w


@lru_cache(maxsize=None)
def quadrature(degree):
    """Return a :class:`QuadratureRule` exact to the given total degree."""
    if not is_int(degree) or degree < 1:
        raise ConfigurationError(f"quadrature degree must be a positive integer, got {degree!r}")
    if degree > MAX_DEGREE:
        raise ConfigurationError(f"quadrature degree {degree} exceeds the supported maximum {MAX_DEGREE}")

    if degree == 1:
        bary = np.array([[1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]])
        weights = np.array([0.5])
    elif degree == 2:
        bary = np.array([
            [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0],
            [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
            [1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0],
        ])
        weights = np.full(3, 1.0 / 6.0)
    else:
        pts, w = _conical_rule(degree)
        bary, weights = _symmetrize(pts, w)

    ep, ew = _gauss01((degree + 2) // 2)
    return QuadratureRule(degree, bary, weights, ep, ew)
