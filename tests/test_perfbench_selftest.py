"""The release benchmark's self-test, run as part of the suite.

``perfbench/selftest.py`` runs every benchmark workload at toy size, checks
each operation's output, and fails when a name its tracer wraps is missing
from the package, so a package change that breaks the benchmark fails here.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
