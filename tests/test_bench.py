"""The benchmark harness still runs against the package.

``bench/tracing.py`` wraps `cqed` functions by name and ``bench/checks.py``
reads the tables, so a rename or an output change in the package can break
the harness while every other test passes.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
