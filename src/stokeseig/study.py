"""Experiment harness: convergence studies, order fits, eigenvalue extrapolation.

A study runs one scheme over a list of mesh resolutions, fits the observed
convergence order of every eigenvalue, extrapolates the mesh-independent
limit, and writes CSV/JSON tables.  The mesh parameter h used in fits is the
structured cell size (side length / N; 1/N for the disk), recorded in the
output metadata.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import mesh as meshmod
from .adapt import afem_loop, check_loop_parameters, fit_order
from .assembly import assemble_forms, build_pencil
from .eigsolve import EigConfig, solve_eig
from .errors import ConfigurationError, IOFailureError, check_int, is_int
from .spaces import (ALL_DIRICHLET, BOUNDARY_CONDITIONS, MIXED_BOTTOM_FIXED, DofMap,
                     SpaceDescriptor)

# name -> (mesh builder of N, h * N, mixed boundary conditions defined)
DOMAINS = {
    "unit_square": (lambda N: meshmod.build_square_mesh(N, meshmod.UNIT_SQUARE), 1.0, True),
    "bi_unit_square": (lambda N: meshmod.build_square_mesh(N, meshmod.BI_UNIT_SQUARE), 2.0, True),
    "circle": (meshmod.build_circle_mesh, 1.0, False),
    "lshape": (meshmod.build_lshape_mesh, 1.0, False),
}
# integer fields of ExperimentConfig outside the adaptive loop's own, and
# their least allowed values
_INT_FIELDS = (("ell", 1), ("k", 0), ("nev", 1), ("seed", 0), ("initial_N", 1))


def _fmt(x):
    return f"{x:.17g}"


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment (JSON-serializable)."""
    domain: str = "bi_unit_square"
    ell: int = 1
    k: int = 0
    mu: float = 1.0
    bc: str = ALL_DIRICHLET
    N: tuple = (20, 30, 40, 50)
    nev: int = 5
    seed: int = 20240901
    out: str | None = None
    # adaptive-mode parameters
    max_iterations: int = 30
    dof_cap: int = 50_000
    target_index: int = 0
    lambda_ref: float | None = None
    mark_fraction: float = 0.5
    initial_N: int = 4

    def __post_init__(self):
        if not isinstance(self.domain, str) or self.domain not in DOMAINS:
            raise ConfigurationError(
                f"unknown domain {self.domain!r}; pick one of {tuple(DOMAINS)}")
        for name, low in _INT_FIELDS:
            check_int(name, getattr(self, name), low)
        N = tuple(self.N) if np.iterable(self.N) and not isinstance(self.N, str) else (self.N,)
        if not N or not all(is_int(n) and n >= 1 for n in N):
            raise ConfigurationError(f"mesh resolutions must be positive integers, got {self.N!r}")
        self.N = tuple(int(n) for n in N)
        check_loop_parameters(self.target_index, self.max_iterations, self.dof_cap,
                              self.mark_fraction, self.lambda_ref, self.mu)
        if self.out is not None and not isinstance(self.out, (str, os.PathLike)):
            raise ConfigurationError(f"out must be a directory path, got {self.out!r}")
        self.descriptor = SpaceDescriptor(self.ell, self.k)
        if self.bc not in BOUNDARY_CONDITIONS:
            raise ConfigurationError(f"unknown boundary mode {self.bc!r}")
        if self.bc == MIXED_BOTTOM_FIXED and not DOMAINS[self.domain][2]:
            raise ConfigurationError("mixed boundary conditions are defined on the square domains")

    @classmethod
    def from_json(cls, path, **overrides):
        try:
            with open(path) as fp:
                data = json.load(fp)
        except OSError as exc:
            raise IOFailureError(f"cannot read config {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep
            raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigurationError(f"config {path} must hold a JSON object")
        scheme = data.pop("scheme", None)
        if scheme is not None:
            if not isinstance(scheme, dict) or set(scheme) != {"ell", "k"}:
                raise ConfigurationError(f'"scheme" must be {{"ell": .., "k": ..}}, got {scheme!r}')
            data.update(scheme)
        adaptive = data.pop("adaptive", None)
        if adaptive is not None:
            if not isinstance(adaptive, dict):
                raise ConfigurationError(f'"adaptive" must be a JSON object, got {adaptive!r}')
            data.update(adaptive)
        data.update({k: v for k, v in overrides.items() if v is not None})
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    def build_mesh(self, N):
        """The domain's mesh, its boundary tagged with the conditions of ``bc``."""
        m = DOMAINS[self.domain][0](N)
        return meshmod.tag_bottom_fixed(m) if self.bc == MIXED_BOTTOM_FIXED else m

    def h_of(self, N):
        return DOMAINS[self.domain][1] / N


@dataclass
class ConvergenceReport:
    """Eigenvalue series over a mesh family with fitted orders and limits."""
    config: ExperimentConfig
    h: np.ndarray
    dofs: np.ndarray
    lambdas: np.ndarray          # (len(N), nev)
    orders: np.ndarray           # (nev,)
    extrapolated: np.ndarray     # (nev,)

    def relative_errors(self):
        return np.abs(self.lambdas - self.extrapolated[None, :]) / np.abs(self.extrapolated)


def extrapolate(pairs):
    """Fit lambda(h) ~ lambda_inf + C h^t; returns (lambda_inf, C, t).

    The rate t is located by a coarse scan plus golden-section refinement on
    [0.25, 8]; the linear parameters are solved exactly for each t.  A
    constant series returns its mean with C = 0 and t = nan.
    """
    pairs = [(float(h), float(l)) for h, l in pairs]
    if len(pairs) < 3:
        raise ConfigurationError("extrapolation needs at least three (h, lambda) pairs")
    if any(h <= 0 for h, _ in pairs):
        raise ConfigurationError("extrapolation needs positive mesh sizes")
    h = np.array([p[0] for p in pairs])
    lam = np.array([p[1] for p in pairs])
    if np.ptp(lam) <= 1e-14 * max(1.0, np.abs(lam).max()):
        return float(lam.mean()), 0.0, float("nan")

    def ssr(t):
        design = np.column_stack([np.ones_like(h), h ** t])
        coef, res, *_ = np.linalg.lstsq(design, lam, rcond=None)
        r = lam - design @ coef
        return float(r @ r), coef

    ts = np.linspace(0.25, 8.0, 96)
    best = min(range(len(ts)), key=lambda i: ssr(ts[i])[0])
    lo = ts[max(best - 1, 0)]
    hi = ts[min(best + 1, len(ts) - 1)]
    phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = ssr(c)[0], ssr(d)[0]
    for _ in range(200):
        if b - a < 1e-12:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = ssr(c)[0]
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = ssr(d)[0]
    t = (a + b) / 2.0
    _, coef = ssr(t)
    return float(coef[0]), float(coef[1]), float(t)


def solve_on_mesh(cfg, mesh):
    """Assemble and solve one mesh at unit viscosity; returns (solution, pencil,
    dofmap) of that problem, whose pairs ``eigen_residuals`` measures.  The
    pairs at ``cfg.mu`` are (mu lambda, mu sigma, u): callers scale what they report."""
    dofmap = DofMap(mesh, cfg.descriptor, cfg.bc)
    pencil = build_pencil(assemble_forms(mesh, dofmap))
    eig = EigConfig(nev=cfg.nev, seed=cfg.seed)
    return solve_eig(pencil, eig), pencil, dofmap


def run_study(cfg):
    """Eigenvalue convergence study over ``cfg.N``; writes tables when cfg.out is set."""
    if len(cfg.N) < 3 or len(set(cfg.N)) < len(cfg.N):
        raise ConfigurationError(
            f"a study needs at least three distinct mesh resolutions, got {cfg.N}")
    if cfg.out:
        output_dir(cfg.out)
    lambdas = np.empty((len(cfg.N), cfg.nev))
    dofs = np.empty(len(cfg.N), dtype=int)
    for i, N in enumerate(cfg.N):
        mesh = cfg.build_mesh(N)
        solution, pencil, _ = solve_on_mesh(cfg, mesh)
        lambdas[i] = cfg.mu * solution.eigenvalues[:cfg.nev]
        dofs[i] = pencil.layout.size
    h = np.array([cfg.h_of(N) for N in cfg.N])

    extr = np.empty(cfg.nev)
    orders = np.empty(cfg.nev)
    for i in range(cfg.nev):
        lam_inf = extrapolate(list(zip(h, lambdas[:, i])))[0]
        extr[i] = lam_inf
        errs = np.abs(lambdas[:, i] - lam_inf)
        good = errs > 1e-13 * abs(lam_inf)
        if good.sum() >= 2:
            orders[i] = fit_order(list(zip(h[good], errs[good])))[0]
        else:
            orders[i] = float("nan")
    report = ConvergenceReport(cfg, h, dofs, lambdas, orders, extr)
    if cfg.out:
        write_study_outputs(report)
    return report


def output_dir(path):
    """Create the directory ``path`` if it is missing; returns ``path``."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IOFailureError(f"cannot create output directory {path}: {exc}") from exc
    return path


def write_study_outputs(report):
    cfg = report.config
    table = os.path.join(output_dir(cfg.out), "study_table.csv")
    try:
        with open(table, "w") as fp:
            cols = ",".join(f"N={N}" for N in cfg.N)
            fp.write(f"eigenvalue,{cols},order,lambda_extr\n")
            for i in range(cfg.nev):
                vals = ",".join(_fmt(v) for v in report.lambdas[:, i])
                fp.write(f"{i + 1},{vals},{_fmt(report.orders[i])},{_fmt(report.extrapolated[i])}\n")
        errs = os.path.join(cfg.out, "study_errors.csv")
        rel = report.relative_errors()
        with open(errs, "w") as fp:
            fp.write("N,h,dof," + ",".join(f"e_lambda{i + 1}" for i in range(cfg.nev)) + "\n")
            for row, N in enumerate(cfg.N):
                vals = ",".join(_fmt(v) for v in rel[row])
                fp.write(f"{N},{_fmt(report.h[row])},{report.dofs[row]},{vals}\n")
        meta = {
            "domain": cfg.domain,
            "scheme": {"ell": cfg.ell, "k": cfg.k},
            "mu": cfg.mu,
            "bc": cfg.bc,
            "N": list(cfg.N),
            "h_convention": "side_length/N (1/N on the disk)",
            "seed": cfg.seed,
            "lambda_extr": [float(v) for v in report.extrapolated],
            "orders": [float(v) for v in report.orders],
        }
        with open(os.path.join(cfg.out, "study_report.json"), "w") as fp:
            json.dump(meta, fp, indent=2, sort_keys=True)
            fp.write("\n")
    except OSError as exc:
        raise IOFailureError(f"cannot write study outputs under {cfg.out}: {exc}") from exc


def run_adapt(cfg):
    """Adaptive experiment driver; writes the iteration table when cfg.out is set."""
    if cfg.k != 0:
        raise ConfigurationError("adaptive mode requires the lowest-order scheme (k = 0)")
    if cfg.out:
        output_dir(cfg.out)
    mesh = cfg.build_mesh(cfg.initial_N)
    report = afem_loop(mesh, cfg.descriptor, target_index=cfg.target_index,
                       max_iterations=cfg.max_iterations, dof_cap=cfg.dof_cap,
                       mu=cfg.mu, lambda_ref=cfg.lambda_ref,
                       mark_fraction=cfg.mark_fraction,
                       eig=EigConfig(nev=max(cfg.nev, cfg.target_index + 1), seed=cfg.seed))
    if cfg.out:
        write_adapt_outputs(cfg, report)
    return report


def write_adapt_outputs(cfg, report):
    try:
        with open(os.path.join(output_dir(cfg.out), "adapt_table.csv"), "w") as fp:
            fp.write("iteration,dof,lambda_h,abs_error,eta_sq,effectivity,marked,triangles\n")
            for it, rec in enumerate(report.iterations):
                err = "" if report.lambda_ref is None else _fmt(abs(rec.lambda_h - report.lambda_ref))
                eff = "" if rec.effectivity is None else _fmt(rec.effectivity)
                fp.write(f"{it},{rec.dof},{_fmt(rec.lambda_h)},{err},{_fmt(rec.eta_sq)},"
                         f"{eff},{rec.marked},{rec.num_triangles}\n")
        with open(os.path.join(cfg.out, "adapt_errors.csv"), "w") as fp:
            fp.write("dof,abs_error,eta_sq\n")
            for rec in report.iterations:
                err = "" if report.lambda_ref is None else _fmt(abs(rec.lambda_h - report.lambda_ref))
                fp.write(f"{rec.dof},{err},{_fmt(rec.eta_sq)}\n")
        meta = {
            "domain": cfg.domain,
            "scheme": {"ell": cfg.ell, "k": cfg.k},
            "lambda_ref": cfg.lambda_ref,
            "fitted_order": report.fitted_order,
            "iterations": len(report.iterations),
            "seed": cfg.seed,
        }
        with open(os.path.join(cfg.out, "adapt_report.json"), "w") as fp:
            json.dump(meta, fp, indent=2, sort_keys=True)
            fp.write("\n")
    except OSError as exc:
        raise IOFailureError(f"cannot write adaptive outputs under {cfg.out}: {exc}") from exc
