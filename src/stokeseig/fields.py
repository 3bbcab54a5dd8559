"""Discrete fields and postprocessing: pressure, vorticity, patch averaging.

Pressure and vorticity are derived from the stress on the fly,
p = -(sigma : J)/2 and curl(u) = (sigma + p J)/mu; they are never assembled
unknowns.  The patch-averaging operator turns an element-wise velocity into a
continuous piecewise-linear field whose nodal value is the integral of the
velocity over the vertex patch divided by the patch measure.
"""

from __future__ import annotations

import numpy as np

from .assembly import J, skew_free_part
from .errors import KindMismatchError, is_finite
from .quadrature import quadrature
from .spaces import DofMap

STRESS = "stress"
VELOCITY = "velocity"
PRESSURE = "pressure"
VORTICITY = "vorticity"
NODAL_P1 = "nodal_p1"


class DiscreteField:
    """A finite-element field bound to one mesh.

    Use the class methods to construct; ``values_at(ref_points, tris)``
    evaluates at the given reference coordinates on every triangle, or on the
    triangles ``tris``.
    """

    def __init__(self, kind, mesh, data):
        self.kind = kind
        self.mesh = mesh
        self._d = data

    # -- constructors -------------------------------------------------------

    @classmethod
    def stress(cls, mesh, descriptor, coeffs, dofmap=None):
        dofmap = dofmap or DofMap(mesh, descriptor)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (dofmap.n_sigma,):
            raise KindMismatchError(
                f"stress coefficient vector has length {coeffs.shape}, expected {dofmap.n_sigma}")
        local = dofmap.stress_local_coeffs(coeffs)
        return cls(STRESS, mesh, {"dofmap": dofmap, "local": local})

    @classmethod
    def velocity(cls, mesh, order, coeffs):
        from .refbasis import pk_basis
        pk = pk_basis(order)
        coeffs = np.asarray(coeffs, dtype=float)
        n_u = 2 * mesh.num_triangles * pk.dim
        if coeffs.shape != (n_u,):
            raise KindMismatchError(
                f"velocity coefficient vector has length {coeffs.shape}, expected {n_u}")
        local = coeffs.reshape(mesh.num_triangles, 2, pk.dim)
        return cls(VELOCITY, mesh, {"pk": pk, "order": order, "local": local})

    @classmethod
    def nodal_p1(cls, mesh, values):
        values = np.asarray(values, dtype=float)
        if values.shape != (mesh.num_vertices, 2):
            raise KindMismatchError(f"nodal value array has shape {values.shape}")
        return cls(NODAL_P1, mesh, {"values": values})

    # -- generic info ---------------------------------------------------------

    @property
    def order(self):
        if self.kind == VELOCITY:
            return self._d["order"]
        if self.kind == NODAL_P1:
            return 1
        if self.kind in (PRESSURE, VORTICITY):
            return self._d["stress"].order
        return self._d["dofmap"].descriptor.stress_order

    @property
    def nodal_values(self):
        if self.kind != NODAL_P1:
            raise KindMismatchError(f"nodal values exist for nodal P1 fields, not {self.kind}")
        return self._d["values"]

    # -- evaluation ------------------------------------------------------------

    def _triangle_ids(self, tris):
        return np.arange(self.mesh.num_triangles) if tris is None else self.mesh.triangle_ids(tris)

    def values_at(self, ref_points, tris=None):
        """Evaluate on (all or selected) triangles at shared reference points.

        Returns (nt, nq, 2, 2) for stress/vorticity, (nt, nq, 2) for vector
        fields, (nt, nq) for pressure.
        """
        ref_points = np.atleast_2d(ref_points)
        ids = self._triangle_ids(tris)
        if self.kind == STRESS:
            dofmap = self._d["dofmap"]
            vhat = dofmap.ned.eval(ref_points)                     # (nd, q, 2)
            _, BinvT = self.mesh.inv_maps
            local = self._d["local"][ids]                          # (e, 2, nd)
            raw = np.einsum("erd,dqj->erqj", local, vhat)
            return np.einsum("eij,erqj->eqri", BinvT[ids], raw)
        if self.kind == VELOCITY:
            phat = self._d["pk"].eval(ref_points)                  # (np, q)
            return np.einsum("ecd,dq->eqc", self._d["local"][ids], phat)
        if self.kind == NODAL_P1:
            bary = np.column_stack([1.0 - ref_points[:, 0] - ref_points[:, 1],
                                    ref_points[:, 0], ref_points[:, 1]])
            vv = self._d["values"][self.mesh.tri_vertices[ids]]    # (e, 3, 2)
            return np.einsum("qb,ebc->eqc", bary, vv)
        if self.kind == PRESSURE:
            s = self._d["stress"].values_at(ref_points, tris)
            return -0.5 * (s[..., 0, 1] - s[..., 1, 0])
        if self.kind == VORTICITY:
            s = self._d["stress"].values_at(ref_points, tris)
            return skew_free_part(s) / self._d["mu"]
        raise KindMismatchError(f"cannot evaluate field of kind {self.kind}")

    def curl_at(self, ref_points, tris=None):
        """Row-wise scalar curl of the stress, shape (nt, nq, 2)."""
        if self.kind != STRESS:
            raise KindMismatchError(f"curl is defined for stress fields, not {self.kind}")
        ref_points = np.atleast_2d(ref_points)
        tris = self._triangle_ids(tris)
        dofmap = self._d["dofmap"]
        chat = dofmap.ned.eval_curl(ref_points)                    # (nd, q)
        _, _, det = self.mesh.affine_maps
        local = self._d["local"][tris]
        return np.einsum("erd,dq->eqr", local, chat) / det[tris, None, None]

    def jacobian_at(self, ref_points, tris=None):
        """Spatial jacobians: stress (nt, nq, 2, 2, 2) with [row, comp, deriv],
        velocity (nt, nq, 2, 2) with [comp, deriv]."""
        ref_points = np.atleast_2d(ref_points)
        tris = self._triangle_ids(tris)
        Binv, BinvT = self.mesh.inv_maps
        if self.kind == STRESS:
            dofmap = self._d["dofmap"]
            jhat = dofmap.ned.eval_jacobian(ref_points)            # (nd, q, 2, 2)
            # optimize=True picks a pairwise order; the fused default loop is ~3x slower
            return np.einsum("erd,dqab,eca,ebf->eqrcf", self._d["local"][tris], jhat,
                             BinvT[tris], Binv[tris], optimize=True)
        if self.kind == VELOCITY:
            ghat = self._d["pk"].eval_jacobian(ref_points)         # (np, q, 2)
            local = self._d["local"][tris]
            raw = np.einsum("ecd,dqa->eqca", local, ghat)
            return np.einsum("eqca,ead->eqcd", raw, Binv[tris])
        raise KindMismatchError(f"jacobian not available for kind {self.kind}")


def pressure_from_stress(sigma):
    """p = -(sigma : J) / 2, element-wise polynomial."""
    if sigma.kind != STRESS:
        raise KindMismatchError(f"expected a stress field, got {sigma.kind}")
    return DiscreteField(PRESSURE, sigma.mesh, {"stress": sigma})


def vorticity_from_stress(sigma, pressure, mu):
    """Recovered vorticity tensor (sigma + p J) / mu."""
    if sigma.kind != STRESS:
        raise KindMismatchError(f"expected a stress field, got {sigma.kind}")
    if pressure.kind != PRESSURE or pressure._d["stress"] is not sigma:
        raise KindMismatchError("pressure field does not belong to this stress field")
    if not (is_finite(mu) and mu > 0):
        raise KindMismatchError(f"viscosity must be finite and positive, got {mu!r}")
    return DiscreteField(VORTICITY, sigma.mesh, {"stress": sigma, "mu": float(mu)})


def element_integrals(u):
    """Integral of a velocity field over every triangle, shape (nt, 2)."""
    if u.kind not in (VELOCITY, NODAL_P1):
        raise KindMismatchError(f"expected a velocity-like field, got {u.kind}")
    rule = quadrature(max(2, u.order))
    vals = u.values_at(rule.points)
    _, _, det = u.mesh.affine_maps
    return np.einsum("eqc,q->ec", vals, rule.weights) * det[:, None]


def theta_postprocess(u, incidence):
    """Patch-averaging recovery: continuous P1 field with nodal values
    sum_T int_T u / |patch| over the triangles touching each vertex.

    ``incidence`` is the vertex-triangle matrix returned by :func:`stokeseig.mesh.patches`.
    """
    values = (incidence @ element_integrals(u)) / (incidence @ u.mesh.tri_areas)[:, None]
    return DiscreteField.nodal_p1(u.mesh, values)

