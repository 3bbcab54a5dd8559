"""Current and peak RSS at each stage boundary of one solve or one workload.

    python3 tools/rss_stages.py WORKLOAD
    python3 tools/rss_stages.py ELL K N

Runs one fresh process with the environment ``perfbench/run.py`` gives its
workers (glibc's mmap threshold fixed) and one BLAS thread, importing the
library from this checkout's ``src``.  It wraps library functions from
outside ``src`` and prints, as each stage returns, the stage's wall time,
the current RSS and ``ru_maxrss``, in MB.  The stages are assembly, pencil,
element blocks, condense, splu, condition estimate, restrict, eigsh, lift
and Rayleigh-Ritz, in the order a solve reaches them; an adaptive workload
prints them once per solve.  A workload name runs that benchmark workload
at seed 911, without its gate; three integers run one all-Dirichlet solve of
scheme (ELL, K), five eigenvalues, on the bi-unit square with N x N cells.
The last line names the stage during which ``ru_maxrss`` last rose: the one
that set the peak.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

from run import WORKER_ENV  # noqa: E402

SEED = 911
# the child: worker.py pins the BLAS threads and puts src/ first on the path
# when imported, as it does for the benchmark's samples
CHILD = ("import sys; sys.path.insert(0, {tools!r}); import rss_stages; "
         "rss_stages.measure(sys.argv[1:])")


def _rss_mb():
    """(current RSS, ru_maxrss) of this process in MB."""
    with open("/proc/self/statm") as fp:
        resident = int(fp.read().split()[1])
    current = resident * os.sysconf("SC_PAGE_SIZE") / 2 ** 20
    return current, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Stages:
    """Prints a line as each wrapped call returns and keeps the stage during
    which the peak last rose."""

    def __init__(self):
        self.peak, self.peak_stage = _rss_mb()[1], "imports"

    def line(self, name, seconds):
        current, peak = _rss_mb()
        if peak > self.peak:
            self.peak, self.peak_stage = peak, name
        print(f"{name:<20} {seconds:8.4f} s   rss {current:8.1f} MB   peak {peak:8.1f} MB",
              flush=True)

    def wrap(self, owner, attr, name):
        real = getattr(owner, attr)

        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return real(*args, **kwargs)
            finally:
                self.line(name, time.perf_counter() - t0)

        setattr(owner, attr, wrapped)


def measure(args):
    """Run the solve or workload ``args`` names in this process, stage by stage."""
    import worker  # noqa: F401
    import workloads
    from stokeseig import adapt, assembly, eigsolve, sparselin, study
    from stokeseig.study import ExperimentConfig

    stages = Stages()
    stages.line("imports", 0.0)
    for module in (study, adapt):
        stages.wrap(module, "assemble_forms", "assembly")
        stages.wrap(module, "build_pencil", "pencil")
    stages.wrap(assembly.PencilMatrix, "element_blocks", "element blocks")
    stages.wrap(sparselin, "condense", "condense")
    stages.wrap(sparselin.spla, "splu", "splu")
    stages.wrap(sparselin, "_inverse_norm1", "condition estimate")
    stages.wrap(sparselin.Factorization, "restrict", "restrict")
    stages.wrap(eigsolve.spla, "eigsh", "eigsh")
    stages.wrap(eigsolve._VelocityOperator, "_lift", "lift")
    stages.wrap(eigsolve._VelocityOperator, "_rayleigh_ritz", "Rayleigh-Ritz")
    if len(args) == 1:
        workloads.run(args[0], workloads.make_config(args[0], SEED))
    else:
        ell, k, n = (int(a) for a in args)
        cfg = ExperimentConfig(domain="bi_unit_square", ell=ell, k=k, N=(n,), nev=5,
                               bc="dirichlet", seed=SEED)
        study.solve_on_mesh(cfg, cfg.build_mesh(n))
    print(f"peak {stages.peak:.1f} MB, set during {stages.peak_stage}")


def main():
    args = sys.argv[1:]
    if len(args) not in (1, 3):
        raise SystemExit(__doc__)
    code = CHILD.format(tools=os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run([sys.executable, "-B", "-c", code, *args], cwd=ROOT, env=WORKER_ENV,
                          check=False)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
