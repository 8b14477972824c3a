"""Each demo script runs to completion in a fresh interpreter.

The demos use the public API as a reader would, so an API change that
breaks one shows up here.  Their output is meant for people: numpy scalar
reprs such as ``np.float64(0.5)`` must not leak into it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypharm

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(demo):
    src = str(Path(hypharm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "np." not in proc.stdout
