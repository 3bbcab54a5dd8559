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
    for metric in METRICS:
        values = {side: [r[metric] for r in runs[side]] for side in runs}
        for side in ("parent", "change"):
            q1, median, q3 = quartiles(values[side])
            print(f"  {metric} {side}: median {median:.4f}, quartiles {q1:.4f} .. {q3:.4f}")
        wins = sum(c < b and not r["errors"] for b, c, r in
                   zip(values["parent"], values["change"], runs["change"]))
        q1, parent_median, q3 = quartiles(values["parent"])
        gap = parent_median - statistics.median(values["change"])
        holds = wins >= WINS and gap > q3 - q1
        print(f"  {metric}: change lower in {wins} of {PAIRS} pairs; median gap {gap:.4f} "
              f"against the parent's interquartile range {q3 - q1:.4f}; "
              f"gain {'holds' if holds else 'does not hold'}")


if __name__ == "__main__":
    main()
