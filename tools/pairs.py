"""Ten alternating fresh-process pairs of benchmark samples: a parent checkout against this one.

    python3 tools/pairs.py --parent DIR --workload NAME --seed N

Each pair runs ``perfbench/worker.py --mode run`` once in the parent checkout
and once in this one, each in a fresh process, with the environment
``perfbench/run.py`` gives its workers; the side that runs first alternates
from pair to pair.  For ``wall_s``, ``setup_s`` and ``peak_rss_mb`` it prints
each side's median and quartiles, the number of pairs in which the change is
lower, and whether a gain holds: the change lower in at least 9 of the 10
pairs, and the medians further apart than the parent's interquartile range.
A sample that fails the correctness gate is printed and counts as a loss.
Then, for these metrics and ``lambda_err``, it prints whether the change's
median stays within the bound that ``BENCHMARK.json`` fixes relative to the
parent's median, and "no metric worse" when every one does and no sample of
the change failed the gate (``pass_ratio``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from run import WORKER_ENV  # noqa: E402

METRICS = ("wall_s", "setup_s", "peak_rss_mb")
PAIRS, WINS = 10, 9
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")


def sample(checkout, workload, seed):
    """One ``--mode run`` worker in ``checkout``; its JSON line."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "worker.py"),
           "--workload", workload, "--seed", str(seed), "--mode", "run"]
    proc = subprocess.run(cmd, cwd=checkout, env=WORKER_ENV, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"worker in {checkout} exited with code {proc.returncode}:\n"
                         f"{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    for error in out["errors"]:
        print(f"gate failed in {checkout}: {error}", file=sys.stderr)
    return out


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def bound_verdicts(values, end_to_end):
    """(metric, parent median, change median, limit, within) for every metric
    of ``end_to_end`` (``BENCHMARK.json``'s list) that ``values[side]``
    samples: the change's median may be worse than the parent's by at most
    the metric's relative bound."""
    verdicts = []
    for spec in end_to_end:
        name, bound = spec["name"], spec["bound"]
        if name not in values["parent"]:
            continue
        parent, change = (statistics.median(values[side][name]) for side in ("parent", "change"))
        sign = 1.0 if spec["better"] == "lower" else -1.0
        limit = parent * (1.0 + sign * bound)
        verdicts.append((name, parent, change, limit, sign * change <= sign * limit))
    return verdicts


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="root of the parent checkout")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(sample(sides[side], args.workload, args.seed))
        print(f"pair {i + 1}: " + "  ".join(
            f"{side} {runs[side][-1]['wall_s']:.4f} s {runs[side][-1]['peak_rss_mb']:.1f} MB"
            for side in ("parent", "change")), flush=True)
    print(f"{args.workload}, seed {args.seed}, {PAIRS} pairs")
    values = {side: {m: [r[m] for r in runs[side]] for m in METRICS + ("lambda_err",)}
              for side in runs}
    for metric in METRICS:
        parent, change = values["parent"][metric], values["change"][metric]
        for side in ("parent", "change"):
            q1, median, q3 = quartiles(values[side][metric])
            print(f"  {metric} {side}: median {median:.4f}, quartiles {q1:.4f} .. {q3:.4f}")
        wins = sum(c < b and not r["errors"] for b, c, r in zip(parent, change, runs["change"]))
        q1, parent_median, q3 = quartiles(parent)
        gap = parent_median - statistics.median(change)
        holds = wins >= WINS and gap > q3 - q1
        print(f"  {metric}: change lower in {wins} of {PAIRS} pairs; median gap {gap:.4f} "
              f"against the parent's interquartile range {q3 - q1:.4f}; "
              f"gain {'holds' if holds else 'does not hold'}")
    with open(BENCHMARK) as fp:
        verdicts = bound_verdicts(values, json.load(fp)["end_to_end"])
    for name, parent, change, limit, within in verdicts:
        print(f"  {name}: change median {change:.6g} against the parent's {parent:.6g}, "
              f"limit {limit:.6g}: {'within its bound' if within else 'WORSE'}")
    worse = [v[0] for v in verdicts if not v[-1]]
    failed = sum(bool(r["errors"]) for r in runs["change"])
    if failed:
        worse.append(f"pass_ratio ({failed} of {PAIRS} samples of the change failed the gate)")
    print("  no metric worse" if not worse else f"  worse: {'; '.join(worse)}")


if __name__ == "__main__":
    main()
