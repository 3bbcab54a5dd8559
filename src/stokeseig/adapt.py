"""Adaptive solve-estimate-mark-refine loop with per-iteration reporting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fields as fd
from .assembly import assemble_forms, build_pencil
from .eigsolve import EigConfig, solve_eig
from .errors import ConfigurationError, UnsupportedSchemeError, check_int, is_finite
from .estimator import compute_indicators, effectivity
from .mesh import patches, refine
from .spaces import DofMap

# iterations below this dof count are left out of the decay-order fit
_FIT_MIN_DOF = 1200


@dataclass
class IterationRecord:
    dof: int
    lambda_h: float
    eta_sq: float
    effectivity: float | None
    marked: int
    num_triangles: int
    num_vertices: int


@dataclass
class AdaptReport:
    """One row per adaptive iteration plus the fitted error-decay order."""
    iterations: list = field(default_factory=list)
    lambda_ref: float | None = None
    fitted_order: float | None = None
    final_mesh: object = None

    @property
    def dofs(self):
        return np.array([r.dof for r in self.iterations])

    @property
    def lambdas(self):
        return np.array([r.lambda_h for r in self.iterations])


def mark(indicators, fraction=0.5):
    """Maximum marking: every T with eta_T >= fraction * max eta."""
    eta = indicators.eta_tri
    if eta.size == 0:
        raise ValueError("cannot mark an empty indicator set")
    return set(np.nonzero(eta >= fraction * eta.max())[0].tolist())


def check_loop_parameters(target_index, max_iterations, dof_cap, mark_fraction, lambda_ref,
                          mu):
    """Raise :class:`ConfigurationError` for a parameter :func:`afem_loop`
    cannot run with; ``ExperimentConfig`` applies the same rules."""
    if not (is_finite(mu) and mu > 0):
        raise ConfigurationError(f"mu must be a finite positive number, got {mu!r}")
    for name, value, low in (("target_index", target_index, 0),
                             ("max_iterations", max_iterations, 0), ("dof_cap", dof_cap, 1)):
        check_int(name, value, low)
    if not (is_finite(mark_fraction) and 0 <= mark_fraction <= 1):
        raise ConfigurationError(f"mark_fraction must be in [0, 1], got {mark_fraction!r}")
    if lambda_ref is not None and not (is_finite(lambda_ref) and lambda_ref > 0):
        raise ConfigurationError(
            f"lambda_ref must be a finite positive number, got {lambda_ref!r}")


def afem_loop(initial_mesh, descriptor, target_index=0, max_iterations=10,
              dof_cap=50_000, mu=1.0, lambda_ref=None, mark_fraction=0.5,
              eig=None):
    """Run the adaptive loop; returns the per-iteration report.

    The loop records a solve for the initial mesh, then refines while the
    iteration and dof budgets allow.  Every iteration follows the
    ``target_index``-th lowest eigenvalue (0-based): the method has no
    spurious modes, so the j-th discrete eigenvalue converges to the j-th
    exact one (Boffi, Gallistl, Gardini & Gastaldi, Math. Comp. 86, 2017).
    Boundary conditions come from the initial mesh's edge tags.
    Every solve and estimate runs at unit viscosity; ``mu`` scales only the
    recorded ``lambda_h``, and with it the effectivity against ``lambda_ref``.
    """
    if descriptor.k != 0:
        raise UnsupportedSchemeError("adaptive refinement requires the lowest-order scheme")
    check_loop_parameters(target_index, max_iterations, dof_cap, mark_fraction, lambda_ref, mu)
    eig = eig or EigConfig(nev=max(target_index + 1, 5))
    if eig.nev < target_index + 1:
        raise ConfigurationError(f"eigenvalue {target_index} needs nev >= "
                                 f"{target_index + 1}, got {eig.nev}")

    def solve_and_mark(mesh):
        # only the record and the marked set outlive this call, so the
        # solution, fields and pencil of one mesh are freed before the next
        # mesh is assembled and factorized
        dofmap = DofMap(mesh, descriptor)
        pencil = build_pencil(assemble_forms(mesh, dofmap))
        solution = solve_eig(pencil, eig)

        sigma = fd.DiscreteField.stress(mesh, descriptor, solution.sigma[target_index], dofmap)
        u = fd.DiscreteField.velocity(mesh, descriptor.k, solution.u[target_index])
        theta = fd.theta_postprocess(u, patches(mesh))
        ind = compute_indicators(mesh, sigma, u, theta)
        marked = mark(ind, mark_fraction)

        lambda_h = mu * float(solution.eigenvalues[target_index])
        eff = None if lambda_ref is None else effectivity(lambda_ref, lambda_h, ind.eta)
        record = IterationRecord(
            dof=pencil.layout.size, lambda_h=lambda_h, eta_sq=float(ind.eta ** 2),
            effectivity=eff, marked=len(marked), num_triangles=mesh.num_triangles,
            num_vertices=mesh.num_vertices)
        return record, marked

    report = AdaptReport(lambda_ref=lambda_ref)
    mesh = initial_mesh
    for iteration in range(max_iterations + 1):
        record, marked = solve_and_mark(mesh)
        report.iterations.append(record)
        if iteration == max_iterations or record.dof >= dof_cap or not marked:
            break
        mesh = refine(mesh, marked)

    report.final_mesh = mesh
    if lambda_ref is not None and len(report.iterations) >= 3:
        report.fitted_order = fit_decay_order(report.dofs, np.abs(report.lambdas - lambda_ref))
    return report


def fit_order(pairs):
    """Least-squares slope of log(error) against log(size); returns (slope, residual)."""
    pts = np.array(list(pairs), dtype=float).reshape(-1, 2)
    if len(pts) < 2:
        raise ConfigurationError("order fit needs at least two (h, error) pairs")
    if (pts <= 0).any():
        raise ConfigurationError("order fit needs positive mesh sizes and errors")
    coef, res = np.polyfit(*np.log(pts).T, 1, full=True)[:2]
    return float(coef[0]), float(res[0]) if len(res) else 0.0


def fit_decay_order(dofs, errors, min_dof=_FIT_MIN_DOF):
    """:func:`fit_order` of error against dof, from ``min_dof`` on if 3 points remain."""
    dofs = np.asarray(dofs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    sel = (dofs >= min_dof) & (errors > 0.0)
    if sel.sum() < 3:
        sel = errors > 0.0
    if sel.sum() < 2:
        return None
    return fit_order(zip(dofs[sel], errors[sel]))[0]
