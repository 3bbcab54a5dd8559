"""The benchmark (``perfbench/run.py``) accepts a small solve, traced or not.

``perfbench/worker.py::check_trace`` refactorizes the final pencil's K and
compares its LU fill, dof count and call counts with what the tracer saw;
``perfbench/workloads.py::gate`` reads the dof count, ``K.norm_inf()`` and
``eigen_residuals``.  A library change that breaks either contract otherwise
shows only as a failed benchmark run.  The benchmark files are imported
read-only.
"""

import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from stokeseig import study
from stokeseig.eigsolve import eigen_residuals
from stokeseig.study import ExperimentConfig

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
# worker.py pins these on import; monkeypatch restores them after the test
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def perfbench(monkeypatch):
    for var in THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(PERFBENCH)     # restores sys.path, which worker.py extends
    monkeypatch.setattr(sys, "dont_write_bytecode", True)    # leave perfbench/ as it is
    import tracer
    import worker
    import workloads
    assert tuple(worker.THREAD_VARS) == THREAD_VARS
    return tracer, worker, workloads


@pytest.mark.parametrize("name,domain,ell,k,bc", [
    ("solve_square_dirichlet_p2", "bi_unit_square", 2, 1, "dirichlet"),
    ("solve_square_mixed_p2", "unit_square", 2, 1, "mixed_bottom_fixed"),
    ("solve_square_dirichlet_p2", "bi_unit_square", 1, 0, "dirichlet"),
    ("solve_square_dirichlet_p2", "bi_unit_square", 2, 2, "dirichlet"),
    ("solve_square_mixed_p2", "unit_square", 1, 0, "mixed_bottom_fixed"),
], ids=["dirichlet-2-1", "mixed-2-1", "dirichlet-1-0", "dirichlet-2-2", "mixed-1-0"])
def test_traced_solve_passes_check_trace(perfbench, name, domain, ell, k, bc):
    # check_trace refactorizes K from its element blocks and compares the
    # fill: under both conditions, with the largest groups (2,2), and with
    # velocity-only groups beside constrained edge dofs (mixed (1,0))
    tracer_mod, worker, workloads = perfbench
    cfg = ExperimentConfig(domain=domain, ell=ell, k=k, N=(6,), nev=5, bc=bc, seed=301)
    mesh = cfg.build_mesh(cfg.N[0])
    tracer = tracer_mod.Tracer("test")
    tracer.install()
    try:
        solution, pencil, _ = study.solve_on_mesh(cfg, mesh)
    finally:
        tracer.uninstall()
    result = {"mesh": mesh, "solution": solution, "pencil": pencil}
    got = workloads.summary(name, result)
    assert worker.check_trace(name, cfg, result, got, tracer) == []
    # what the untraced gate (--trace 0) reads of the library besides the reference values
    assert got["dofs"] == pencil.layout.size
    bound = workloads.RESIDUAL_FACTOR * pencil.K.norm_inf()
    assert max(eigen_residuals(pencil, solution)) <= bound


@pytest.mark.parametrize("ell,k,bc", [(2, 1, "dirichlet"), (2, 1, "mixed_bottom_fixed"),
                                      (1, 0, "dirichlet")])
def test_cached_norm_inf_is_the_gate_expression(ell, k, bc):
    # the gate's residual bound reads K.norm_inf(), computed once when K is built
    domain = "bi_unit_square" if bc == "dirichlet" else "unit_square"
    cfg = ExperimentConfig(domain=domain, ell=ell, k=k, N=(6,), nev=5, bc=bc)
    _, pencil, _ = study.solve_on_mesh(cfg, cfg.build_mesh(cfg.N[0]))
    assert pencil.K.norm_inf() == float(abs(pencil.K.sp).sum(axis=1).max())


@pytest.mark.parametrize("name,sizes", [("adapt_lshape_p0", dict(initial_N=2, max_iterations=2)),
                                        ("solve_square_mixed_p2", dict(N=(6,)))])
def test_final_pencil_rebuild_matches_the_library_solve(perfbench, name, sizes):
    # final_pencil rebuilds the adaptive run's last pencil with
    # DofMap(mesh, cfg.descriptor, cfg.bc), bc positional; run it on the
    # adaptive final mesh and on a mixed-conditions mesh
    _, _, workloads = perfbench
    cfg = ExperimentConfig(**{**workloads.WORKLOADS[name]["config"], **sizes}, seed=311)
    if workloads.WORKLOADS[name]["kind"] == "adapt":
        mesh = study.run_adapt(cfg).final_mesh
    else:
        mesh = cfg.build_mesh(cfg.N[0])
    rebuilt = workloads.final_pencil("adapt_lshape_p0", cfg,
                                     {"report": SimpleNamespace(final_mesh=mesh)})
    _, pencil, _ = study.solve_on_mesh(cfg, mesh)
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(rebuilt.K.sp, attr), getattr(pencil.K.sp, attr))
