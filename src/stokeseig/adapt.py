"""Adaptive solve-estimate-mark-refine loop with per-iteration reporting."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import fields as fd
from .assembly import assemble_forms, build_pencil
from .eigsolve import EigConfig, solve_eig
from .errors import (ConfigurationError, TrackingError, UnsupportedSchemeError, check_int,
                     is_finite)
from .estimator import compute_indicators, effectivity
from .mesh import patches, refine
from .spaces import DofMap

# a new eigenvalue counts as the tracked one only within this relative window
_TRACK_WINDOW = 0.2
# abort if a second candidate sits at a comparable distance (cannot disambiguate)
_TRACK_TIE_RATIO = 0.5
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


def _track(lambdas, previous):
    """Pick the eigenvalue continuing the tracked branch from ``previous``."""
    dist = np.abs(lambdas - previous)
    window = _TRACK_WINDOW * abs(previous)
    inside = np.nonzero(dist <= window)[0]
    if inside.size == 0:
        raise TrackingError(
            f"no eigenvalue within {100 * _TRACK_WINDOW:.0f}% of tracked value {previous:.6g}; "
            f"candidates: {np.array2string(lambdas, precision=6)}")
    order = inside[np.argsort(dist[inside])]
    if order.size > 1 and dist[order[0]] > _TRACK_TIE_RATIO * dist[order[1]]:
        raise TrackingError(
            f"ambiguous tracking from {previous:.6g}: candidates "
            f"{lambdas[order[0]]:.6g} and {lambdas[order[1]]:.6g} are equally close")
    return int(order[0])


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
    iteration and dof budgets allow.  The tracked eigenvalue starts as the
    ``target_index``-th lowest and is followed across meshes by value
    proximity.  Boundary conditions come from the initial mesh's edge tags.
    """
    if descriptor.k != 0:
        raise UnsupportedSchemeError("adaptive refinement requires the lowest-order scheme")
    check_loop_parameters(target_index, max_iterations, dof_cap, mark_fraction, lambda_ref, mu)
    eig = eig or EigConfig(nev=max(target_index + 3, 5))
    if eig.nev < target_index + 2:
        raise ConfigurationError(f"tracking eigenvalue {target_index} needs nev >= "
                                 f"{target_index + 2}, got {eig.nev}")

    def solve_and_mark(mesh, tracked):
        # only the record, the tracked value and the marked set outlive this
        # call, so the solution, fields and pencil of one mesh are freed
        # before the next mesh is assembled and factorized
        dofmap = DofMap(mesh, descriptor)
        pencil = build_pencil(assemble_forms(mesh, dofmap, mu))
        solution = solve_eig(pencil, eig)

        idx = target_index if tracked is None else _track(solution.eigenvalues, tracked)
        tracked = float(solution.eigenvalues[idx])

        sigma = fd.stress_from_solution(mesh, descriptor, solution, idx, dofmap=dofmap)
        u = fd.velocity_from_solution(mesh, descriptor, solution, idx)
        theta = fd.theta_postprocess(u, patches(mesh))
        ind = compute_indicators(mesh, sigma, u, theta, mu)
        marked = mark(ind, mark_fraction)

        eff = None if lambda_ref is None else effectivity(lambda_ref, tracked, ind.eta)
        record = IterationRecord(
            dof=pencil.layout.size, lambda_h=tracked, eta_sq=float(ind.eta ** 2),
            effectivity=eff, marked=len(marked), num_triangles=mesh.num_triangles,
            num_vertices=mesh.num_vertices)
        return record, tracked, marked

    report = AdaptReport(lambda_ref=lambda_ref)
    mesh = initial_mesh
    tracked = None
    for iteration in range(max_iterations + 1):
        record, tracked, marked = solve_and_mark(mesh, tracked)
        report.iterations.append(record)
        if iteration == max_iterations or record.dof >= dof_cap or not marked:
            break
        mesh = refine(mesh, marked)

    report.final_mesh = mesh
    if lambda_ref is not None and len(report.iterations) >= 3:
        report.fitted_order = fit_decay_order(report.dofs, np.abs(report.lambdas - lambda_ref))
    return report


def fit_decay_order(dofs, errors, min_dof=_FIT_MIN_DOF):
    """Least-squares slope of log error against log dof (asymptotic window)."""
    dofs = np.asarray(dofs, dtype=float)
    errors = np.asarray(errors, dtype=float)
    sel = (dofs >= min_dof) & (errors > 0.0)
    if sel.sum() < 3:
        sel = errors > 0.0
    if sel.sum() < 2:
        return None
    slope = np.polyfit(np.log(dofs[sel]), np.log(errors[sel]), 1)[0]
    return float(slope)
