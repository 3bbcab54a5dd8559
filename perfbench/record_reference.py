"""Record the reference results the correctness gate compares against.

    python3 perfbench/record_reference.py --seed N

Writes ``perfbench/reference.json``.  The committed file was recorded at the
commit named in it; re-record only when a change is meant to alter the
method's results, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys

import worker  # sets the thread variables before numpy is imported
import workloads
from run import git_sha


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    args = p.parse_args()
    out = {"seed": args.seed, "git_sha": git_sha(), "workloads": {}}
    for name in workloads.WORKLOADS:
        cfg, _ = worker.setup(name, args.seed)
        got = workloads.summary(name, workloads.run(name, cfg))
        out["workloads"][name] = got
        print(f"{name}: {got}", file=sys.stderr)
    out["provenance"] = worker.provenance()
    with open(workloads.REFERENCE_PATH, "w") as fp:
        json.dump(out, fp, indent=1)
        fp.write("\n")


if __name__ == "__main__":
    main()
