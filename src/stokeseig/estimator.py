"""Residual error indicators for computed eigenpairs (lowest-order scheme).

For each triangle T the squared indicator sums five nonnegative pieces:

1. the distance between the velocity and its patch-averaged recovery on T,
2. h_T^2 times the constitutive residual curl(u_h) - sigma_h^r,
3. h_T^2 times the strong divergence of sigma_h^r,
4. h_e times the normal jump of sigma_h^r over each interior edge of T,
5. h_e times sigma_h^r n_e over each boundary edge of T.

sigma_h is the unit-viscosity stress that every solve computes: no term carries mu.

Interior edge terms enter the indicator of both adjacent triangles.  Edges
with an essential stress condition (Neumann tag) are excluded from piece 5.
For a stress of degree <= 1 and a P0 velocity no integrand has degree above
2, so the 3-point triangle rule and its 2-point edge rule are exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from . import fields as fd
from . import mesh as meshmod
from .assembly import skew_free_part
from .errors import KindMismatchError, UnsupportedSchemeError
from .quadrature import quadrature


@dataclass
class LocalIndicators:
    """Per-triangle squared indicators, their five addends, and the global total."""
    addends: np.ndarray      # (nt, 5)
    eta_sq: np.ndarray       # (nt,)
    eta: float

    @property
    def eta_tri(self):
        return np.sqrt(self.eta_sq)


def compute_indicators(mesh, sigma, u, theta_u):
    """Evaluate the local indicators for one normalized unit-viscosity eigenpair."""
    if sigma.kind != fd.STRESS or u.kind != fd.VELOCITY or theta_u.kind != fd.NODAL_P1:
        raise KindMismatchError("expected (stress, velocity, recovered velocity) fields")
    if u.order != 0 or sigma._d["dofmap"].ned.degree > 1:
        raise UnsupportedSchemeError("indicators are defined for the lowest-order scheme only")
    if sigma.mesh is not mesh or u.mesh is not mesh or theta_u.mesh is not mesh:
        raise KindMismatchError("all fields must live on the given mesh")

    nt = mesh.num_triangles
    addends = np.zeros((nt, 5))
    _, _, det = mesh.affine_maps
    h_t = mesh.h_tri

    rule = quadrature(2)
    w = rule.weights

    # volume terms
    diff = theta_u.values_at(rule.points) - u.values_at(rule.points)
    addends[:, 0] = np.einsum("eqc,q->e", diff ** 2, w) * det

    sr = skew_free_part(sigma.values_at(rule.points))                # (nt, q, 2, 2)
    ju = u.jacobian_at(rule.points)                                  # (nt, q, 2, 2)
    curl_u = np.empty_like(ju)
    curl_u[..., 0] = -ju[..., 1]     # column 0: -d(comp)/dy
    curl_u[..., 1] = ju[..., 0]      # column 1:  d(comp)/dx
    resid = curl_u - sr
    addends[:, 1] = h_t ** 2 * np.einsum("eqrc,q->e", resid ** 2, w) * det

    js = sigma.jacobian_at(rule.points)                              # (nt, q, 2, 2, 2)
    div_sym = 0.5 * (js[..., 0, 0] + js[..., 1, 1]
                     + js[:, :, 0, :, 0] + js[:, :, 1, :, 1])
    addends[:, 2] = h_t ** 2 * np.einsum("eqi,q->e", div_sym ** 2, w) * det

    # edge terms: evaluate sigma^r at the edge Gauss points of every
    # (triangle, local edge) slot; the Gauss set is symmetric, so a flipped
    # local direction is just the reversed point order
    s_param, w_edge = rule.edge_points, rule.edge_weights
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tangents = np.roll(ref, -1, axis=0) - ref      # local edges (0,1), (1,2), (2,0)
    local_pts = (ref[:, None] + s_param[:, None] * tangents[:, None]).reshape(-1, 2)
    sv = skew_free_part(sigma.values_at(local_pts))
    sv = sv.reshape(nt, 3, len(s_param), 2, 2)
    flipped = mesh.tri_local_edge_flipped()
    sv[flipped] = sv[flipped][:, ::-1]

    edge_vec = mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]
    lengths = mesh.edge_lengths
    normals = np.column_stack([edge_vec[:, 1], -edge_vec[:, 0]]) / lengths[:, None]

    sides = mesh.edge_sides
    interior = mesh.edge_tags == meshmod.INTERIOR
    ii = np.nonzero(interior)[0]
    t0, j0 = sides[ii, 0, 0], sides[ii, 0, 1]
    t1, j1 = sides[ii, 1, 0], sides[ii, 1, 1]
    jump = np.einsum("eqrc,ec->eqr", sv[t0, j0] - sv[t1, j1], normals[ii])
    val = lengths[ii] ** 2 * np.einsum("eqr,q->e", jump ** 2, w_edge)
    np.add.at(addends[:, 3], t0, val)
    np.add.at(addends[:, 3], t1, val)

    bb = np.nonzero(mesh.edge_tags == meshmod.DIRICHLET)[0]
    if bb.size:
        tb, jb = sides[bb, 0, 0], sides[bb, 0, 1]
        tr = np.einsum("eqrc,ec->eqr", sv[tb, jb], normals[bb])
        val = lengths[bb] ** 2 * np.einsum("eqr,q->e", tr ** 2, w_edge)
        np.add.at(addends[:, 4], tb, val)

    eta_sq = addends.sum(axis=1)
    return LocalIndicators(addends, eta_sq, float(math.sqrt(eta_sq.sum())))


def effectivity(lambda_ref, lambda_h, eta):
    """|lambda_ref - lambda_h| / eta^2, +inf when eta vanishes but the error does not."""
    err = abs(lambda_ref - lambda_h)
    if eta == 0.0:
        return 0.0 if err == 0.0 else math.inf
    if eta < 0.0:
        raise ValueError(f"estimator value must be nonnegative, got {eta}")
    return err / eta ** 2

