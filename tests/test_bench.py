"""The benchmark harness stays runnable against the engine it measures."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # tiny runs of every workload: each metric printed with its unit, each
    # traced boundary found, each oracle passing and catching a corruption
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--selftest"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: 0 problem(s)" in done.stdout.splitlines()
