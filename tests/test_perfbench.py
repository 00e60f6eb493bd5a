"""The benchmark's own self-check, run in a subprocess: every perfbench
workload at a tiny size against this checkout's fcckit, and every result
check fed a corrupted result.  A change to fcckit that breaks what the
benchmark checks fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-check passed" in proc.stdout
