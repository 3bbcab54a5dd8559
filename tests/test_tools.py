"""The measurement tools under ``tools/``: the pairs tool's bound verdicts on
made-up samples, and a per-stage RSS run of a small solve."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOLS = os.path.join(ROOT, "tools")
STAGES = ("assembly", "pencil", "element blocks", "condense", "splu", "condition estimate",
          "restrict", "eigsh", "lift", "Rayleigh-Ritz")
END_TO_END = [{"name": "wall_s", "better": "lower", "bound": 0.25},
              {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
              {"name": "pass_ratio", "better": "higher", "bound": 0.01}]


@pytest.fixture
def pairs(monkeypatch):
    monkeypatch.syspath_prepend(TOOLS)      # restores sys.path, which pairs.py extends
    monkeypatch.setattr(sys, "dont_write_bytecode", True)    # leave perfbench/ as it is
    import pairs
    return pairs


def test_pairs_bound_verdicts(pairs):
    # medians: wall 1.0 -> 1.2 (limit 1.25) holds, RSS 100 -> 106 (limit
    # 105) does not; pass_ratio is higher-better and has no samples here
    values = {"parent": {"wall_s": [0.9, 1.0, 5.0], "peak_rss_mb": [100.0, 100.0, 90.0]},
              "change": {"wall_s": [1.2, 1.3, 0.1], "peak_rss_mb": [106.0, 106.0, 1.0]}}
    got = pairs.bound_verdicts(values, END_TO_END)
    assert [(name, within) for name, *_, within in got] == [("wall_s", True),
                                                          ("peak_rss_mb", False)]
    assert got[0][1:4] == (1.0, 1.2, 1.25)
    assert got[1][3] == pytest.approx(105.0)
    # the limit itself is within; a higher-better metric may fall by its bound
    at_limit = {"parent": {"wall_s": [2.0]}, "change": {"wall_s": [2.5]}}
    assert pairs.bound_verdicts(at_limit, END_TO_END)[0][-1]
    ratio = {"parent": {"pass_ratio": [1.0]}, "change": {"pass_ratio": [0.98]}}
    assert pairs.bound_verdicts(ratio, END_TO_END) == [("pass_ratio", 1.0, 0.98, 0.99, False)]


def test_rss_stages_prints_every_stage_of_a_small_solve():
    proc = subprocess.run([sys.executable, "-B", os.path.join(TOOLS, "rss_stages.py"), "1", "0",
                           "4"], capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line[:20].rstrip() for line in lines[1:-1]] == list(STAGES)
    peaks = [float(line.split()[-2]) for line in lines[:-1]]
    assert peaks == sorted(peaks)       # ru_maxrss never falls
    assert lines[-1].startswith(f"peak {peaks[-1]:.1f} MB, set during ")
