"""stokeseig benchmark: one workload, closed loop with one client, fresh process per sample.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src``.
Each sample is a fresh ``worker.py`` process, so ``setup_s`` (import plus
reference data) and ``peak_rss_mb`` are measured per sample.  Samples are
started one after another until ``--seconds`` have passed (at least one
runs).  With ``--trace 0`` the end-to-end metrics are the medians over the
samples; with ``--trace 1`` each sample is an untraced run followed by a
traced run of the same seed, and the per-layer metrics are the medians over
the traced runs.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

# every run ends within this many seconds, whatever --seconds says
HARD_LIMIT_S = 170.0
# every sample measures set-up; short runs add set-up-only workers up to this many
MIN_SETUP_SAMPLES = 3

# glibc's default mmap threshold, held fixed for the workers: its dynamic raise
# makes the heap high-water mark, and so ru_maxrss, vary by about 10% run to run
WORKER_ENV = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "lambda_err": "rel",
              "pass_ratio": "ratio"}


class WorkerFailed(RuntimeError):
    """A worker could not run at all (library missing, crash, timeout)."""


def call_worker(workload, seed, mode, deadline):
    cmd = [sys.executable]
    if mode == "trace":
        cmd += ["-X", "importtime"]
    cmd += [WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=WORKER_ENV, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker exceeded {timeout:.0f} s") from exc
    other = []
    import_s = None
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            fields = line.split("|")
            if fields[-1].strip() == "stokeseig.refbasis":
                import_s = int(fields[1]) * 1e-6
        else:
            other.append(line)
    if other:
        print("\n".join(other), file=sys.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if mode == "trace" and "layers" in out:
        if import_s is None:
            out["errors"].append("no import time recorded for stokeseig.refbasis")
            import_s = 0.0
        out["layers"]["refbasis.import_s"] = import_s
    return out


def git_sha():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return None
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return sha.stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        return None


def source_digest():
    """sha256 over the library sources, for checkouts without git metadata."""
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "stokeseig")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fp:
                digest.update(fp.read())
    return digest.hexdigest()


def loop(step, seconds, deadline):
    """Call ``step()`` until ``seconds`` have passed (at least once), unless the
    next call would end after ``deadline``."""
    results = []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(step())
        now = time.monotonic()
        if now - start >= seconds or now + (now - t0) > deadline:
            return results


def main():
    p = argparse.ArgumentParser(description="stokeseig benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "stokeseig", "__init__.py")):
        print(f"no stokeseig sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    w, seed = args.workload, args.seed

    try:
        if args.trace:
            pairs = loop(lambda: (call_worker(w, seed, "run", deadline),
                                  call_worker(w, seed, "trace", deadline)),
                         args.seconds, deadline)
            samples = [s for pair in pairs for s in pair]
            for plain, traced in pairs:
                if plain.get("result") != traced.get("result"):
                    traced["errors"].append("traced results differ from untraced ones")
        else:
            samples = loop(lambda: call_worker(w, seed, "run", deadline), args.seconds,
                           deadline)
            setups = [s["setup_s"] for s in samples]
            while len(setups) < MIN_SETUP_SAMPLES:
                setups.append(call_worker(w, seed, "setup", deadline)["setup_s"])
    except WorkerFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    ok = [s for s in samples if not s["errors"]]
    for s in samples:
        if s["errors"]:
            print(f"FAILED sample: {s['errors'][0].strip().splitlines()[-1]}", file=sys.stderr)
    if not ok:
        print("benchmark aborted: no sample passed the correctness gate", file=sys.stderr)
        return 1

    if args.trace:
        traced = [s["layers"] for s in ok if "layers" in s]
        plain = [s for s in ok if "layers" not in s]
        if not traced or not plain:
            print("benchmark aborted: no passing traced/untraced pair", file=sys.stderr)
            return 1
        metrics = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        metrics["trace.overhead_s"] = (statistics.median(t["trace.wall_s"] for t in traced)
                                       - statistics.median(s["wall_s"] for s in plain))
        units = {k: unit_of(k) for k in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(s["wall_s"] for s in ok),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in ok),
            "lambda_err": statistics.median(s["lambda_err"] for s in ok),
            "pass_ratio": len(ok) / len(samples),
        }
        units = END_TO_END

    meta = {"workload": w, "seed": seed, "trace": args.trace, "git_sha": git_sha(),
            "src_sha256": source_digest(), "provenance": ok[0]["provenance"],
            "samples": len(samples), "setup_samples": None if args.trace else len(setups)}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{w}-seed{seed}-trace{args.trace}.json"), "w") as fp:
        json.dump({"meta": meta, "samples": samples, "metrics": metrics}, fp, indent=1)

    print(f"provenance: {json.dumps(meta)}")
    for k, v in metrics.items():
        print(f"  {k:40s} {v:>16.6g} {units[k]}")
    print(json.dumps({
        "correct": len(ok) == len(samples),
        "attempted": len(samples),
        "failed": len(samples) - len(ok),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def unit_of(name):
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_computed"):
        return "B"
    if name.endswith("_per_solve"):
        return "count/solve"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
