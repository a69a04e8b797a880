"""The benchmark's cross-checks of its committed references, run as a script."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_crosscheck_passes():
    run = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "crosscheck.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "crosscheck: ok"
