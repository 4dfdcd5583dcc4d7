"""Smoke test of the demos: each script under demos/ runs to completion."""

import glob
import os
import subprocess
import sys

import pytest

import toruslab

DEMOS = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos", "*.py")))


def test_demos_found():
    assert DEMOS  # an empty glob would leave test_demo_runs with no cases


@pytest.mark.parametrize("path", DEMOS, ids=os.path.basename)
def test_demo_runs(path, tmp_path):
    # as run_cli in test_runner.py: point the child at the toruslab this
    # module imported, since a relative PYTHONPATH entry would resolve
    # against the child's working directory
    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(
        toruslab.__file__)))
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        pkg_root + os.pathsep + inherited if inherited else pkg_root
    )
    out = subprocess.run([sys.executable, os.path.abspath(path)],
                         capture_output=True, text=True, cwd=str(tmp_path),
                         env=env)
    assert out.returncode == 0, out.stderr
