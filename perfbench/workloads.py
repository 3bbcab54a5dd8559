"""The three benchmark workloads and their correctness gate.

Each workload makes the calls its CLI subcommand makes (``stokeseig solve`` or
``stokeseig adapt``) minus printing.  The sizes are scaled down from the
ROADMAP baseline table so that a workload repeats in seconds, and chosen so
that each layer does most of the work in one workload and little in another
(see README.md).
"""

from __future__ import annotations

import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

# eigenvalues and final iteration data must match the recorded seed-commit
# values to this relative tolerance, whatever the Arnoldi start vector
EIG_RTOL = 1e-10
# residual bound relative to |K|_inf, the one solve_eig itself enforces
RESIDUAL_FACTOR = 1e-8

# lowest (or tracked) exact eigenvalue of each domain, from tests/test_acceptance.py
LAMBDA_REF = {
    "bi_unit_square": 13.08617,
    "unit_square_mixed": 2.46740,   # pi^2 / 4
    "lshape": 32.13183,
}

WORKLOADS = {
    "solve_square_dirichlet_p2": dict(
        kind="solve", lambda_ref=LAMBDA_REF["bi_unit_square"],
        config=dict(domain="bi_unit_square", ell=2, k=1, N=(30,), nev=5, bc="dirichlet")),
    "solve_square_mixed_p2": dict(
        kind="solve", lambda_ref=LAMBDA_REF["unit_square_mixed"],
        config=dict(domain="unit_square", ell=2, k=1, N=(30,), nev=5, bc="mixed_bottom_fixed")),
    "adapt_lshape_p0": dict(
        kind="adapt", lambda_ref=LAMBDA_REF["lshape"],
        config=dict(domain="lshape", ell=1, k=0, initial_N=4, dof_cap=20_000,
                    max_iterations=40, lambda_ref=LAMBDA_REF["lshape"], nev=5)),
}


def make_config(name, seed):
    """ExperimentConfig of a workload; the seed is the Arnoldi start-vector seed."""
    from stokeseig.study import ExperimentConfig
    return ExperimentConfig(**WORKLOADS[name]["config"], seed=seed)


def build_reference_data(cfg):
    """Build the reference basis and quadrature the workload's assembly uses."""
    from stokeseig.quadrature import quadrature
    from stokeseig.refbasis import ned_basis, pk_basis
    d = cfg.descriptor
    ned = ned_basis(d.stress_family, d.stress_order)
    pk = pk_basis(d.k)
    quadrature(min(10, 2 * max(ned.degree, pk.degree) + 2))


def run(name, cfg):
    """Run one workload; returns the objects the gate needs."""
    from stokeseig import study
    if WORKLOADS[name]["kind"] == "solve":
        mesh = cfg.build_mesh(cfg.N[0])
        solution, pencil, _ = study.solve_on_mesh(cfg, mesh)
        return {"mesh": mesh, "solution": solution, "pencil": pencil}
    return {"report": study.run_adapt(cfg)}


def summary(name, out):
    """JSON-ready numbers of one run: what the gate compares against the reference."""
    if WORKLOADS[name]["kind"] == "solve":
        return {"eigenvalues": [float(v) for v in out["solution"].eigenvalues],
                "dofs": int(out["pencil"].layout.size)}
    report = out["report"]
    return {"lambdas": [float(r.lambda_h) for r in report.iterations],
            "dofs": [int(r.dof) for r in report.iterations]}


def final_pencil(name, cfg, out):
    """The pencil of the last solve; for the adaptive loop it is rebuilt from the final mesh."""
    if WORKLOADS[name]["kind"] == "solve":
        return out["pencil"]
    from stokeseig.assembly import assemble_forms, build_pencil
    from stokeseig.spaces import DofMap
    dofmap = DofMap(out["report"].final_mesh, cfg.descriptor, cfg.bc)
    return build_pencil(assemble_forms(out["report"].final_mesh, dofmap, cfg.mu))


def load_reference(name):
    with open(REFERENCE_PATH) as fp:
        return json.load(fp)["workloads"][name]


def _close(a, b):
    return abs(a - b) <= EIG_RTOL * abs(b)


def gate(name, cfg, out, got):
    """Check one run against the recorded reference; returns a list of failures.

    ``got`` is ``summary(name, out)``.  Residuals are recomputed with
    ``eigen_residuals``; for the adaptive loop the final mesh is solved again
    (same seed) to obtain eigenvectors, and its tracked eigenvalue must equal
    the reported one.
    """
    from stokeseig.eigsolve import EigConfig, eigen_residuals, solve_eig
    ref = load_reference(name)
    errors = []
    if WORKLOADS[name]["kind"] == "solve":
        if got["dofs"] != ref["dofs"]:
            errors.append(f"dofs {got['dofs']} != reference {ref['dofs']}")
        if len(got["eigenvalues"]) != len(ref["eigenvalues"]) or not all(
                _close(a, b) for a, b in zip(got["eigenvalues"], ref["eigenvalues"])):
            errors.append(f"eigenvalues {got['eigenvalues']} != reference {ref['eigenvalues']}")
        pencil, solution = out["pencil"], out["solution"]
    else:
        if len(got["dofs"]) != len(ref["dofs"]):
            errors.append(f"{len(got['dofs'])} iterations != reference {len(ref['dofs'])}")
        if got["dofs"] != ref["dofs"]:
            errors.append(f"dof series {got['dofs']} != reference {ref['dofs']}")
        if len(got["lambdas"]) != len(ref["lambdas"]) or not all(
                _close(a, b) for a, b in zip(got["lambdas"], ref["lambdas"])):
            errors.append("tracked eigenvalue series differs from the reference")
        pencil = final_pencil(name, cfg, out)
        solution = solve_eig(pencil, EigConfig(nev=cfg.nev, seed=cfg.seed))
        tracked = got["lambdas"][-1]
        nearest = min(solution.eigenvalues, key=lambda v: abs(v - tracked))
        if not _close(nearest, tracked):
            errors.append(f"final-mesh re-solve gives {nearest!r}, report has {tracked!r}")
    bound = RESIDUAL_FACTOR * pencil.K.norm_inf()
    worst = max(eigen_residuals(pencil, solution))
    if not worst <= bound:
        errors.append(f"eigen residual {worst:.3e} exceeds {bound:.3e}")
    return errors


def lambda_err(name, got):
    lam = got["eigenvalues"][0] if "eigenvalues" in got else got["lambdas"][-1]
    ref = WORKLOADS[name]["lambda_ref"]
    return abs(lam - ref) / ref
