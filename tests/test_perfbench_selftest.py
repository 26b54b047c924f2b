"""The release benchmark's self-test, run as part of the suite.

``perfbench/selftest.py`` runs every benchmark workload at toy size, checks
each operation's output, and fails when a name its tracer wraps is missing
from the package, so a package change that breaks the benchmark fails here.

The tracer wraps module attributes that the package looks up at call time. A
mechanism called through a function object stored earlier escapes its
wrapper, and its per-layer metrics then read 0 while every name still
exists; the traced toy runs below catch that.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout


# per-layer metrics that must read > 0 in a traced toy run of each workload
TRACED = {
    "binary-complete": [
        "topdown.nodes_released",
        "topdown.deep_quarter_share",
        "baselines.vanilla_gauss.busy_s",
        "baselines.sh.busy_s",
        "hierarchy.aggregate_s",
    ],
    "cli-sparse-1m": [
        "topdown.nodes_released",
        "baselines.sh.busy_s",
        "baselines.tda_l2.self_s",
    ],
}


@pytest.mark.parametrize("workload", sorted(TRACED))
def test_traced_run_reaches_every_mechanism(workload, tmp_path):
    if PERFBENCH not in sys.path:
        sys.path.insert(0, PERFBENCH)
    import run
    import workloads

    wl = workloads.make_workloads(toy=True)[workload]
    record = run.benchmark(wl, wl.default_seed, 0.2, True, min_cycles=1, out_dir=str(tmp_path))
    assert record["failed"] == 0, record["failures"]
    metrics = record["trace_detail"]["metrics"]
    assert {name: metrics[name] for name in TRACED[workload] if not metrics[name] > 0} == {}
