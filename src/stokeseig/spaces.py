"""Global spaces: tensor stress (two vector rows) and discontinuous velocity.

The stress tensor is discretized row-wise: each of its two rows is an
independent copy of a global vector H(curl) space, so tangential traces of
both rows are continuous across edges.  Edge degrees of freedom are shared
between elements with a sign fixed by the global edge orientation
(low vertex id -> high vertex id); Legendre moment weights of order m pick up
an extra (-1)^(m+1) on flipped edges.

Velocity is element-wise P_k^2 with no coupling between elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh as meshmod
from .errors import ConfigurationError
from .quadrature import quadrature
from .refbasis import NED1, NED2, ned_basis, pk_basis, pk_reference_mass

ALL_DIRICHLET = "dirichlet"
MIXED_BOTTOM_FIXED = "mixed_bottom_fixed"


@dataclass(frozen=True)
class SpaceDescriptor:
    """Velocity order k paired with the matching stress family.

    ``ell`` selects the stress family: first kind of order k (ell = 1) or
    second kind of order k + 1 (ell = 2).
    """
    ell: int
    k: int

    def __post_init__(self):
        if self.ell not in (1, 2):
            raise ConfigurationError(f"stress family selector must be 1 or 2, got {self.ell}")
        if self.k not in (0, 1, 2):
            raise ConfigurationError(f"velocity order must be 0, 1 or 2, got {self.k}")

    @property
    def stress_family(self):
        return NED1 if self.ell == 1 else NED2

    @property
    def stress_order(self):
        return self.k if self.ell == 1 else self.k + 1

    @property
    def name(self):
        return f"P{self.k}-N{self.ell}o{self.stress_order}"


class DofMap:
    """Element-to-global numbering for one scheme on one mesh.

    Stress dofs come first (row 0 of the tensor, then row 1), then velocity
    dofs grouped per triangle (component 0 block, then component 1).
    """

    def __init__(self, mesh, descriptor, bc=ALL_DIRICHLET):
        if bc not in (ALL_DIRICHLET, MIXED_BOTTOM_FIXED):
            raise ConfigurationError(f"unknown boundary-condition mode {bc!r}")
        self.mesh = mesh
        self.descriptor = descriptor
        self.bc = bc
        self.ned = ned_basis(descriptor.stress_family, descriptor.stress_order)
        self.pk = pk_basis(descriptor.k)

        per_edge = self.ned.num_edge_dofs // 3
        n_int = self.ned.dim - 3 * per_edge
        self.edge_dofs_per_edge = per_edge
        self.interior_dofs_per_tri = n_int
        nt, ne = mesh.num_triangles, mesh.num_edges
        self.n_vec = ne * per_edge + nt * n_int
        self.n_sigma = 2 * self.n_vec
        self.n_u = 2 * nt * self.pk.dim

        # local vector dof -> global vector dof, plus orientation signs
        gmap = np.empty((nt, self.ned.dim), dtype=np.int64)
        signs = np.ones((nt, self.ned.dim))
        flipped = mesh.tri_local_edge_flipped()
        col = 0
        for e_loc in range(3):
            eids = mesh.tri_edges[:, e_loc]
            for m in range(per_edge):
                gmap[:, col] = eids * per_edge + m
                if m % 2 == 0:
                    signs[flipped[:, e_loc], col] = -1.0
                col += 1
        base = ne * per_edge
        for i in range(n_int):
            gmap[:, col] = base + np.arange(nt) * n_int + i
            col += 1
        self.vec_gmap = gmap
        self.vec_signs = signs

        if bc == MIXED_BOTTOM_FIXED:
            neumann = np.nonzero(mesh.edge_tags == meshmod.NEUMANN)[0]
            if neumann.size == 0:
                raise ConfigurationError("mixed boundary conditions need Neumann-tagged edges")
            if not np.any(mesh.edge_tags == meshmod.DIRICHLET):
                raise ConfigurationError("mixed boundary conditions need Dirichlet-tagged edges")
            vdofs = (neumann[:, None] * per_edge + np.arange(per_edge)).ravel()
            self.constrained = np.sort(np.concatenate([vdofs, self.n_vec + vdofs]))
        else:
            self.constrained = np.empty(0, dtype=np.int64)

    @property
    def has_mean_constraint(self):
        return self.bc == ALL_DIRICHLET

    def stress_local_coeffs(self, coeffs):
        """Per-element local stress coefficients, shape (nt, 2, ned.dim)."""
        coeffs = np.asarray(coeffs)
        out = np.empty((self.mesh.num_triangles, 2, self.ned.dim))
        for row in range(2):
            out[:, row] = self.vec_signs * coeffs[row * self.n_vec + self.vec_gmap]
        return out


def _pullback_row(tau, row, B, origin):
    """Covariant pull-back of one row of an analytic tensor field."""

    def fn(ref_pts):
        phys = ref_pts @ B.T + origin
        vals = np.asarray([np.asarray(tau(p), dtype=float)[row] for p in phys])
        return vals @ B  # B^T v per point

    return fn


def interpolate_ned(mesh, descriptor, tau):
    """Edge/interior-moment interpolation of an analytic tensor field.

    ``tau(x)`` must return a 2x2 array; each row is interpolated into the
    vector stress space.  Fields whose rows lie in the local space are
    reproduced exactly.
    """
    dofmap = DofMap(mesh, descriptor)
    ned = dofmap.ned
    B, origin, _ = mesh.affine_maps
    out = np.zeros(dofmap.n_sigma)
    for t in range(mesh.num_triangles):
        for row in range(2):
            local = ned.dof_values(_pullback_row(tau, row, B[t], origin[t]))
            gdofs = row * dofmap.n_vec + dofmap.vec_gmap[t]
            out[gdofs] = dofmap.vec_signs[t] * local
    return out


def l2_project_velocity(mesh, k, v):
    """Element-wise L2 projection of an analytic vector field onto P_k^2."""
    pk = pk_basis(k)
    rule = quadrature(min(10, 2 * k + 6))
    phat = pk.eval(rule.points)                      # (np, q)
    mass = pk_reference_mass(k)
    B, origin, det = mesh.affine_maps
    out = np.empty((mesh.num_triangles, 2, pk.dim))
    for t in range(mesh.num_triangles):
        phys = rule.points @ B[t].T + origin[t]
        vals = np.asarray([np.asarray(v(p), dtype=float) for p in phys])  # (q, 2)
        rhs = phat @ (rule.weights[:, None] * vals)  # (np, 2)
        out[t] = np.linalg.solve(mass, rhs).T
    return out.ravel()
