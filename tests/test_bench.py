"""The benchmark harness stays runnable against the engine it measures."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    # tiny runs of every workload: each metric printed with its unit, each
    # traced boundary found, each oracle passing and catching a corruption
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--selftest"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: 0 problem(s)" in done.stdout.splitlines()


@pytest.mark.parametrize("seed, digest", [
    (7, "692ac3edcf19a9628b1c25c4552a8dca78cfd91af811116087bd280d4c903a09"),
    (8, "89be74e5c1809c5a1ef05b3f8209bdc106e2e90075b732dd49cf9c76c1ec316a"),
])
def test_generated_document_reports_are_pinned(seed, digest, tmp_path, monkeypatch):
    # every report digest of the seeded documents of the ``documents``
    # workload: the sha256 of the sorted '<file> <exit code> <digest>' lines
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from documents import documents
    inputs = documents(seed, workdir=tmp_path / "docs")
    lines = []
    for block in inputs.blocks:
        for verdict in block:
            code, out = verdict.call()
            lines.append(f"{verdict.key} {code} {json.loads(out)['digest']}")
    inputs.cleanup()
    assert len(lines) == 44
    assert hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest() == digest
