"""Each demo runs to the end as a script: exit 0 and nothing on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW = {"04_identity_suite.py"}  # it runs the whole identity suite again


@pytest.mark.parametrize("demo", [
    pytest.param(path, id=path.name, marks=[pytest.mark.slow] if path.name in SLOW else [])
    for path in DEMOS])
def test_demo_runs_cleanly(demo):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert proc.stdout


def test_every_demo_is_found():
    assert [path.name for path in DEMOS] == [
        "01_rank_refinement.py", "02_moments_and_durfee.py", "03_smallest_parts.py", "04_identity_suite.py"]
