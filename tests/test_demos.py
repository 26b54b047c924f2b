"""The example scripts under ``demos/`` run to completion.

Each demo calls the public API end to end (``build_tree``, ``release``,
``run_experiment``, the optimizers), so an API change that breaks one fails
here instead of going unnoticed.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=[os.path.basename(p) for p in DEMOS])
def test_demo_exits_0(path, tmp_path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, path], cwd=tmp_path, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
