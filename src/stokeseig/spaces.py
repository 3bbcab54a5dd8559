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
from numbers import Integral

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
        for value, allowed, what in ((self.ell, (1, 2), "stress family selector"),
                                     (self.k, (0, 1, 2), "velocity order")):
            if (isinstance(value, bool) or not isinstance(value, Integral)
                    or value not in allowed):
                raise ConfigurationError(
                    f"{what} must be one of {allowed}, got {value!r}")

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
        # global stress dof of (triangle, tensor row, local dof)
        self.stress_gmap = np.stack([gmap, self.n_vec + gmap], axis=1)

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
        return self.vec_signs[:, None] * np.asarray(coeffs)[self.stress_gmap]

    def interpolate(self, rows):
        """Global stress coefficients of the field whose covariant pull-backs
        B^T tau_r of both rows ``rows(ref_points)`` returns, shape (nt, 2, n, 2)."""
        out = np.zeros(self.n_sigma)
        out[self.stress_gmap] = self.vec_signs[:, None] * self.ned.dof_values(rows)
        return out


def interpolate_ned(mesh, descriptor, tau):
    """Edge/interior-moment interpolation of an analytic tensor field.

    ``tau(x)`` must return a 2x2 array; each row is interpolated into the
    vector stress space.  Fields whose rows lie in the local space are
    reproduced exactly.  ``tau`` is called once per physical point of the
    functionals' quadratures.
    """
    dofmap = DofMap(mesh, descriptor)
    B, origin, _ = mesh.affine_maps
    pulled = {}

    def rows(ref_pts):
        # covariant pull-back B^T tau_r of both rows, shape (nt, 2, n, 2); the
        # functionals of one edge share their points, as do the interior ones
        key = ref_pts.tobytes()
        if key not in pulled:
            phys = ref_pts @ np.swapaxes(B, 1, 2) + origin[:, None]
            vals = np.array([tau(p) for p in phys.reshape(-1, 2)], dtype=float)
            pulled[key] = np.swapaxes(vals.reshape(phys.shape + (2,)), 1, 2) @ B[:, None]
        return pulled[key]

    return dofmap.interpolate(rows)


def l2_project_velocity(mesh, k, v):
    """Element-wise L2 projection of an analytic vector field onto P_k^2."""
    pk = pk_basis(k)
    rule = quadrature(min(10, 2 * k + 6))
    B, origin, _ = mesh.affine_maps
    phys = rule.points @ np.swapaxes(B, 1, 2) + origin[:, None]       # (nt, q, 2)
    vals = np.array([v(p) for p in phys.reshape(-1, 2)], dtype=float).reshape(phys.shape)
    rhs = pk.eval(rule.points) @ (rule.weights[:, None] * vals)       # (nt, np, 2)
    return np.swapaxes(np.linalg.solve(pk_reference_mass(k), rhs), 1, 2).ravel()
