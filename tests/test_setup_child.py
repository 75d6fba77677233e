"""The benchmark's set-up child builds a table and its invariant family in a
fresh process; it must keep running, so that a renamed or reshaped builder
fails here and not only under a benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SETUP_CHILD = ROOT / "perfbench" / "setup_child.py"


@pytest.mark.parametrize("algebra,char", [("f4-nil", "3"), ("g2-borel", "5")])
def test_setup_child_exits_cleanly(algebra, char):
    proc = subprocess.run(
        [sys.executable, str(SETUP_CHILD), "verify", "--algebra", algebra, "--char", char],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
