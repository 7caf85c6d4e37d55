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


def verdict_meaning(out, err):
    """What one ``aft-sweep`` or ``limit-functor`` verdict decided, as
    canonical JSON data built with ``runner.jsonable``, so a pinned digest
    moves when an answer moves and not when a repr does.

    - an adjoint construction: the left adjoint's object and arrow tables,
      and the unit and counit components;
    - a limit functor: the functor's object and arrow tables, the unit
      components, ``unit_is_iso``, and the certified cone (vertex and
      legs) at each site stage;
    - a refusal: its kind and details; any other error: its type name.

    Recipe: the sha256 of ``json.dumps`` of the list of meanings, in block
    order, with ``sort_keys=True`` and ``separators=(",", ":")``.
    """
    from intcat.limits import RefusalError
    from intcat.runner import jsonable
    if err is not None:
        if isinstance(err, RefusalError):
            return {"refusal": jsonable(err.refusal)}
        return {"error": type(err).__name__}
    if hasattr(out, "left"):        # an adjoint construction
        return jsonable({"f0": out.left.f0.components, "f1": out.left.f1.components,
                         "unit": out.unit.component.components,
                         "counit": out.counit.component.components})
    cert = out.certificate
    return jsonable({"f0": out.functor.f0.components, "f1": out.functor.f1.components,
                     "unit": out.unit.component.components,
                     "unit_is_iso": out.unit_is_iso,
                     "cones": {s: cert.object_at(s) for s in cert.point.components}})


def _meanings_digest(verdicts):
    meanings = []
    for verdict in verdicts:
        try:
            out, err = verdict.call(), None
        except Exception as exc:    # refusals are outcomes
            out, err = None, exc
        meanings.append(verdict_meaning(out, err))
    text = json.dumps(meanings, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload, count, digest", [
    ("aft_sweep", 100, "fca22d853ead7399767e109c934891e4ce0230b60f172738d6cc4a05581bb966"),
    ("limit_functor", None, "c23d12387ec6a6ec74ddaf2365fdee89104379c016d329ad643d4907119e75fc"),
], ids=["aft-sweep", "limit-functor"])
def test_workload_verdict_meanings_are_pinned(workload, count, digest, monkeypatch):
    # the first 100 seed-7 ``aft-sweep`` verdicts and the first seed-7
    # ``limit-functor`` block, read by ``verdict_meaning``
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads
    blocks = getattr(workloads, workload)(7).blocks
    verdicts = [v for block in blocks for v in block][:count] if count else blocks[0]
    assert _meanings_digest(verdicts) == digest
