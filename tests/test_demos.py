"""Every demo script runs to completion against the current public API."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    # the suite's rule that a file left open fails, in the demo's own process; a warning
    # raised in a destructor is only printed there, so stderr is read too
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-W", "error::ResourceWarning", demo], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, f"{os.path.basename(demo)} failed:\n{done.stderr}"
    for sign in ("ResourceWarning", "Exception ignored"):
        assert sign not in done.stderr, f"{os.path.basename(demo)}:\n{done.stderr}"


def test_demos_are_found():
    assert DEMOS, "no demo scripts found"
