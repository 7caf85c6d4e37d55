"""Self-test of the benchmark harness at tiny sizes (a few seconds).

Checks that every metric named in ``BENCHMARK.json`` is printed with its
unit, that the tiny workloads pass their own oracles, and that a
deliberately corrupted reference is counted as a failure, so an oracle
cannot pass silently.

    python3 bench/run.py --selftest
"""

from __future__ import annotations

import contextlib
import io
import json

import run


def _result(workload, trace, corrupt=False):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report(workload, seed=7, seconds=0.0, trace=trace, tiny=True,
                   corrupt=corrupt)
    return buf.getvalue(), json.loads(buf.getvalue().splitlines()[-1])


def _expect(cond, message, problems):
    if not cond:
        problems.append(message)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            text, res = _result(name, trace)
            _expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                    f"{name} trace {trace}: tiny run failed its checks", problems)
            got = res["metrics"]
            _expect(set(got) == {m["name"] for m in listed},
                    f"{name} trace {trace}: metric names differ from BENCHMARK.json",
                    problems)
            for m in listed:
                line = f"  {m['name']} = "
                _expect(got.get(m["name"], {}).get("unit") == m["unit"]
                        and any(row.startswith(line) and row.endswith(" " + m["unit"])
                                for row in text.splitlines()),
                        f"{name}: {m['name']} not printed with unit {m['unit']}",
                        problems)
        _, bad = _result(name, 0, corrupt=True)
        _expect(bad["failed"] > 0 and not bad["correct"]
                and bad["metrics"]["ok_share"]["value"] < 1.0,
                f"{name}: a corrupted reference was not counted as failed",
                problems)
    for p in problems:
        print("FAIL " + p)
    print(f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0
