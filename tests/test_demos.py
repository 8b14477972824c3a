"""Each demo script, and the README's python example, runs to completion
in a fresh interpreter.

The demos use the public API as a reader would, so an API change that
breaks one shows up here.  Their output is meant for people: numpy scalar
reprs such as ``np.float64(0.5)`` must not leak into it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hypharm

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 6


def _run_clean(args):
    src = str(Path(hypharm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "np." not in proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(demo):
    _run_clean([str(demo)])


def test_readme_example_runs_clean():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.S | re.M)
    assert len(blocks) == 1
    _run_clean(["-c", blocks[0]])
