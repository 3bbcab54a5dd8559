"""Command-line front end.

Subcommands: ``mesh`` (write a triangulation), ``solve`` (eigenvalues on one
mesh), ``study`` (convergence tables), ``adapt`` (adaptive refinement run),
``export`` (VTK fields of one eigenfunction).  Every subcommand accepts
``--config PATH`` (JSON) with flags overriding config keys.  Errors exit
nonzero and print ``{"category": ..., "message": ...}`` to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fields as fd
from . import mesh as meshmod
from .errors import ConfigurationError, StokesEigError
from .spaces import BOUNDARY_CONDITIONS
from .study import DOMAINS, ExperimentConfig, output_dir, run_adapt, run_study, solve_on_mesh
from .vtkio import export_vtk

_EXIT_CODES = {"config": 2, "mesh": 3, "assembly": 4, "solver": 5, "io": 6, "internal": 1}


def _parse_scheme(text):
    try:
        ell, k = (int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigurationError(f"scheme must look like '1,0', got {text!r}") from exc
    return ell, k


def _add_common(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--domain", choices=list(DOMAINS))
    p.add_argument("--scheme", help="ell,k e.g. 1,0")
    p.add_argument("--N", help="comma-separated resolutions, e.g. 20,30,40,50")
    p.add_argument("--nev", type=int)
    p.add_argument("--mu", type=float)
    p.add_argument("--bc", choices=BOUNDARY_CONDITIONS)
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int)


def _build_config(args, **extra):
    overrides = dict(extra)
    if args.domain:
        overrides["domain"] = args.domain
    if args.scheme:
        overrides["ell"], overrides["k"] = _parse_scheme(args.scheme)
    if args.N:
        try:
            overrides["N"] = tuple(int(v) for v in args.N.split(","))
        except ValueError as exc:
            raise ConfigurationError(f"N must be comma-separated integers, got {args.N!r}") from exc
    for key in ("nev", "mu", "bc", "out", "seed",
                "max_iterations", "dof_cap", "lambda_ref", "target_index", "initial_N"):
        val = getattr(args, key, None)
        if val is not None:
            overrides[key] = val
    if args.config:
        return ExperimentConfig.from_json(args.config, **overrides)
    return ExperimentConfig(**overrides)


def _cmd_mesh(args):
    cfg = _build_config(args)
    N = cfg.N[0]
    mesh = cfg.build_mesh(N)
    path = args.path or f"{cfg.domain}_N{N}.mesh"
    meshmod.write_mesh(mesh, path)
    print(f"wrote {path}: {mesh.num_vertices} vertices, {mesh.num_edges} edges, "
          f"{mesh.num_triangles} triangles")
    return 0


def _cmd_solve(args):
    cfg = _build_config(args)
    out = output_dir(cfg.out or ".") if args.dump_matrices else None
    mesh = cfg.build_mesh(cfg.N[0])
    solution, pencil, dofmap = solve_on_mesh(cfg, mesh)
    result = {
        "domain": cfg.domain,
        "scheme": {"ell": cfg.ell, "k": cfg.k},
        "N": cfg.N[0],
        "dof": pencil.layout.size,
        "eigenvalues": [float(cfg.mu * v) for v in solution.eigenvalues],
        "residuals": [float(v) for v in solution.residuals],
    }
    print(json.dumps(result, indent=2, sort_keys=True))
    if out:
        from .assembly import assemble_forms, build_pencil, export_matrix
        pencil = build_pencil(assemble_forms(mesh, dofmap, cfg.mu))
        # the unshifted K, at theta = 0, made from the forms
        export_matrix(pencil.K.at(0.0).sp, os.path.join(out, "pencil_K.txt"))
        export_matrix(pencil.N, os.path.join(out, "pencil_N.txt"))
    return 0


def _cmd_study(args):
    cfg = _build_config(args)
    report = run_study(cfg)
    for i in range(cfg.nev):
        print(f"lambda_{i + 1}: extr={report.extrapolated[i]:.7g} order={report.orders[i]:.3g}")
    if cfg.out:
        print(f"tables written to {cfg.out}")
    return 0


def _cmd_adapt(args):
    cfg = _build_config(args)
    report = run_adapt(cfg)
    for it, rec in enumerate(report.iterations):
        eff = "-" if rec.effectivity is None else f"{rec.effectivity:.4g}"
        print(f"iter {it}: dof={rec.dof} lambda={rec.lambda_h:.6f} "
              f"eta^2={rec.eta_sq:.5g} effectivity={eff} marked={rec.marked}")
    if report.fitted_order is not None:
        print(f"fitted decay order vs dof: {report.fitted_order:.3f}")
    if cfg.out:
        print(f"tables written to {cfg.out}")
    return 0


def _cmd_export(args):
    cfg = _build_config(args)
    mesh = cfg.build_mesh(cfg.N[0])
    solution, _, dofmap = solve_on_mesh(cfg, mesh)
    idx = args.eigenindex
    if not 0 <= idx < len(solution.eigenvalues):
        raise ConfigurationError(f"eigenindex {idx} out of range")
    sigma = fd.DiscreteField.stress(mesh, cfg.descriptor, cfg.mu * solution.sigma[idx], dofmap)
    u = fd.DiscreteField.velocity(mesh, cfg.descriptor.k, solution.u[idx])
    p = fd.pressure_from_stress(sigma)
    vort = fd.vorticity_from_stress(sigma, p, cfg.mu)
    theta = fd.theta_postprocess(u, meshmod.patches(mesh))
    path = args.path or f"{cfg.domain}_mode{idx}.vtk"
    export_vtk([u, p, vort, theta], path)
    print(f"wrote {path} (lambda = {cfg.mu * solution.eigenvalues[idx]:.7g})")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="stokeseig",
                                     description="Stress-velocity Stokes eigenvalue solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="build a mesh and write the text format")
    _add_common(p)
    p.add_argument("--path", help="output mesh file")
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("solve", help="solve the eigenproblem on one mesh")
    _add_common(p)
    p.add_argument("--dump-matrices", action="store_true", help="export pencil matrices")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("study", help="convergence study over mesh resolutions")
    _add_common(p)
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("adapt", help="adaptive refinement experiment")
    _add_common(p)
    p.add_argument("--max-iterations", dest="max_iterations", type=int)
    p.add_argument("--dof-cap", dest="dof_cap", type=int)
    p.add_argument("--lambda-ref", dest="lambda_ref", type=float)
    p.add_argument("--target-index", dest="target_index", type=int)
    p.add_argument("--initial-N", dest="initial_N", type=int)
    p.set_defaults(func=_cmd_adapt)

    p = sub.add_parser("export", help="write VTK fields of one eigenfunction")
    _add_common(p)
    p.add_argument("--eigenindex", type=int, default=0)
    p.add_argument("--path", help="output VTK file")
    p.set_defaults(func=_cmd_export)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StokesEigError as exc:
        print(json.dumps({"category": exc.category, "message": str(exc)}), file=sys.stderr)
        return _EXIT_CODES.get(exc.category, 1)


if __name__ == "__main__":
    sys.exit(main())
