"""One benchmark sample in a fresh interpreter; prints one JSON line.

Modes:
  setup  time ``import stokeseig`` plus the workload's reference basis and
         quadrature, then exit
  run    the same set-up, then one untraced workload run with its wall time,
         peak RSS and correctness gate
  trace  as ``run``, with every layer wrapped by the tracer; start it under
         ``python3 -X importtime`` to also get the refbasis import time

Exit code 0 means a JSON line was printed (the run itself may have failed its
gate); 3 means the library could not be imported from the checkout's ``src``.
"""

from __future__ import annotations

import os

# the paper targets one core: pin BLAS/OpenMP threads before numpy is imported
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
sys.path.insert(0, SRC)


def setup(name, seed):
    """Import the library and build the workload's reference data; returns (cfg, seconds)."""
    t0 = time.perf_counter()
    try:
        import stokeseig
    except ImportError as exc:
        print(f"cannot import stokeseig from {SRC}: {exc}", file=sys.stderr)
        sys.exit(3)
    if not os.path.abspath(stokeseig.__file__).startswith(SRC + os.sep):
        print(f"stokeseig imported from {stokeseig.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(3)
    import workloads
    cfg = workloads.make_config(name, seed)
    workloads.build_reference_data(cfg)
    return cfg, time.perf_counter() - t0


def provenance():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "env": {v: os.environ.get(v) for v in THREAD_VARS + ("MALLOC_MMAP_THRESHOLD_",)},
    }


def sample(name, seed, traced):
    import workloads
    from tracer import Tracer, layer_metrics

    cfg, setup_s = setup(name, seed)
    out = {"setup_s": setup_s, "provenance": provenance()}
    tracer = Tracer(f"{name}-{seed}-{os.getpid()}") if traced else None
    try:
        if tracer:
            tracer.install()
        try:
            t0 = time.perf_counter()
            result = workloads.run(name, cfg)
            out["wall_s"] = time.perf_counter() - t0
        finally:
            if tracer:
                tracer.uninstall()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        got = workloads.summary(name, result)
        out["result"] = got
        out["lambda_err"] = workloads.lambda_err(name, got)
        errors = workloads.gate(name, cfg, result, got)
        if tracer:
            errors += check_trace(name, cfg, result, got, tracer)
            out["layers"] = layer_metrics(tracer.spans, out["wall_s"])
            write_spans(tracer)
    except Exception:
        errors = [traceback.format_exc()]
    out["errors"] = errors
    return out


def check_trace(name, cfg, result, got, tracer):
    """The tracer itself: originals restored, spans nested, counts equal the library's."""
    import workloads
    from stokeseig.sparselin import factorize
    from tracer import layer_metrics

    errors = [f"not restored: {n}" for n in tracer.restored()]
    errors += tracer.nesting_errors()
    tracer.measure_factors()
    m = layer_metrics(tracer.spans, 1.0)
    dofs = got["dofs"] if isinstance(got["dofs"], list) else [got["dofs"]]
    iterations = len(dofs) if workloads.WORKLOADS[name]["kind"] == "adapt" else 0
    pencil = workloads.final_pencil(name, cfg, result)
    fact = factorize(pencil.K)
    last_fill = [s["fill"] for s in tracer.spans if s["name"] == "sparselin.factorize"][-1]
    expect = {
        "adapt.iterations": (m["adapt.iterations"], iterations),
        "eigsolve.solve_calls": (m["eigsolve.solve_calls"], len(dofs)),
        "assembly.dofs": (m["assembly.dofs"], sum(dofs)),
        "mesh.triangles": (m["mesh.triangles"], pencil.dofmap.mesh.num_triangles),
        "last factorize fill": (last_fill, fact._lu.L.nnz + fact._lu.U.nnz),
    }
    if iterations:
        report = result["report"]
        expect["adapt.marked_total"] = (m["adapt.marked_total"],
                                        sum(r.marked for r in report.iterations))
    else:
        expect["assembly.K_nnz"] = (m["assembly.K_nnz"], result["pencil"].K.nnz)
    errors += [f"trace count {k} = {a}, library gives {b}" for k, (a, b) in expect.items()
               if a != b]
    return errors


def write_spans(tracer):
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"spans-{tracer.run_id}.json")
    with open(path, "w") as fp:
        json.dump(tracer.spans, fp)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = p.parse_args()
    if args.mode == "setup":
        out = {"setup_s": setup(args.workload, args.seed)[1]}
    else:
        out = sample(args.workload, args.seed, traced=args.mode == "trace")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
