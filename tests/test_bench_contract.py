"""The benchmark's traced run (``perfbench/run.py --trace 1``) accepts a small solve.

``perfbench/worker.py::check_trace`` refactorizes the final pencil's K and
compares its LU fill, dof count and call counts with what the tracer saw; a
library change that breaks that contract otherwise shows only as a failed
benchmark run.  The benchmark files are imported read-only.
"""

import os
import sys

import pytest

from stokeseig import study
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


def test_traced_solve_passes_check_trace(perfbench):
    tracer_mod, worker, workloads = perfbench
    name = "solve_square_dirichlet_p2"
    cfg = ExperimentConfig(domain="bi_unit_square", ell=2, k=1, N=(6,), nev=5,
                           bc="dirichlet", seed=301)
    mesh = cfg.build_mesh(cfg.N[0])
    tracer = tracer_mod.Tracer("test")
    tracer.install()
    try:
        solution, pencil, _ = study.solve_on_mesh(cfg, mesh)
    finally:
        tracer.uninstall()
    result = {"mesh": mesh, "solution": solution, "pencil": pencil}
    assert worker.check_trace(name, cfg, result, workloads.summary(name, result), tracer) == []
