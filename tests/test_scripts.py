"""The two scripts in ``scripts/``, run in a subprocess against this
checkout's fcckit, so a change to the package cannot break them
unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script,stream,want",
    [
        # the grid writes its CSV to stdout and the verdict to stderr
        ("conjecture_grid.py", "stderr", "no cell exceeds the conjectured bound"),
        ("redundancy_census.py", "stdout", "functions at the 2t floor: 254 of 254 non-constant"),
    ],
    ids=["conjecture_grid", "redundancy_census"],
)
def test_script_runs(script, stream, want):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert want in getattr(proc, stream)
