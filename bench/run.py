#!/usr/bin/env python3
"""The intcat benchmark: seeded workloads run through the public API.

    python3 bench/run.py --workload aft-sweep --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --selftest

Each workload is one process, one thread and a closed loop: the next
verdict starts when the previous one ends. A verdict is one engine call,
timed alone and then checked against a reference computed without engine
code. The timed phase runs whole blocks of verdicts, round after round,
until ``--seconds`` have passed and every input has run three times.
Times are rescaled to a host of nominal speed (see ``hostspeed``).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
fixed amount of work, timed by wrappers around each layer's boundary
functions. Exits 2 when the engine sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from itertools import cycle
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# whole blocks of verdicts in the traced run
TRACE_BLOCKS = {"aft-sweep": 2, "limit-functor": 1, "documents": 1}
SETUP_SAMPLES = 3
MIN_REPEATS = 3         # runs of each input before the timed phase may end

END_TO_END = (("setup_s", "s"), ("verdicts_per_s", "1/s"),
              ("verdict_p50_ms", "ms"), ("verdict_tail_ms", "ms"),
              ("peak_rss_mb", "MiB"), ("ok_share", "ratio"))


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of ``n`` values
    beyond it, by nearest rank."""
    return max((p for p in range(1, 100) if n - math.ceil(p / 100 * n) >= 10),
               default=50)


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def workdir(workload: str, seed: int) -> Path:
    return HERE / f".work-{workload}-{seed}-{os.getpid()}"


def generate(workload: str, seed: int, tiny=False, corrupt=False):
    import documents
    import workloads
    if workload == "documents":
        return documents.documents(seed, tiny, corrupt, workdir(workload, seed))
    build = {"aft-sweep": workloads.aft_sweep,
             "limit-functor": workloads.limit_functor}[workload]
    return build(seed, tiny, corrupt)


def timed_setup(workload: str, seed: int, tiny=False, corrupt=False):
    """Import the engine and generate the inputs, timed together; returns
    the inputs and the time unscaled and rescaled to the nominal host by
    reference runs right after it."""
    start = time.perf_counter()
    import intcat  # noqa: F401
    inputs = generate(workload, seed, tiny, corrupt)
    took = time.perf_counter() - start
    host = hostspeed.HostSpeed()
    for _ in range(2 * hostspeed.WINDOW):
        host.sample()
    return inputs, took, took * host.scale()


def setup_in_child(workload: str, seed: int):
    """Set-up times of a fresh interpreter, which pays the import again."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True)
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


def run_verdict(v):
    """Time one verdict; return (seconds, outcome matches the reference)."""
    start = time.perf_counter()
    try:
        out, err = v.call(), None
    except Exception as exc:            # refusals are expected outcomes
        out, err = None, exc
    took = time.perf_counter() - start
    try:
        ok = bool(v.check(out, err))
    except Exception:                   # a malformed result is a failure
        ok = False
    return took, ok


def closed_loop(blocks, seconds: float):
    """Whole blocks, round after round, until ``seconds`` have passed and
    every input has run ``MIN_REPEATS`` times, with the reference job run
    between verdicts every 50 ms. Returns each input's runs as
    (start, seconds), the host speed samples, and the failed runs."""
    gc.collect()
    runs: dict = {}
    failed = 0
    host = hostspeed.HostSpeed()
    host.sample()
    start = last = time.perf_counter()
    for block in cycle(blocks):
        for v in block:
            began = time.perf_counter()
            took, ok = run_verdict(v)
            runs.setdefault(v.key, []).append((began, took))
            failed += not ok
            if time.perf_counter() - last >= 0.05:
                host.sample()
                last = time.perf_counter()
        if time.perf_counter() - start >= seconds and \
                min(len(r) for r in runs.values()) >= MIN_REPEATS:
            return runs, host, failed


def end_to_end(workload, seed, seconds, tiny=False, corrupt=False, children=True):
    """End-to-end metrics in nominal-host time.

    Each run of a verdict is rescaled by the host speed measured around it
    (see ``hostspeed``), and an input's time is the median of its runs.
    """
    inputs, *own = timed_setup(workload, seed, tiny, corrupt)
    try:
        samples = [own] + [setup_in_child(workload, seed)
                           for _ in range(SETUP_SAMPLES - 1) if children]
        runs, host, failed = closed_loop(inputs.blocks, seconds)
    finally:
        inputs.cleanup()
    per_input = [statistics.median(took * host.scale_at(began)
                                   for began, took in r) for r in runs.values()]
    raw = [statistics.median(took for _, took in r) for r in runs.values()]
    n_runs = sum(len(r) for r in runs.values())
    pct = tail_percentile(len(per_input))
    values = {
        "setup_s": statistics.median(scaled for _, scaled in samples),
        "verdicts_per_s": len(per_input) / sum(per_input),
        "verdict_p50_ms": statistics.median(per_input) * 1000,
        "verdict_tail_ms": percentile(per_input, pct) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_share": (n_runs - failed) / n_runs,
    }
    repeats = sorted(len(r) for r in runs.values())
    notes = [f"input profile {json.dumps(inputs.profile, sort_keys=True)}",
             f"{len(per_input)} inputs, each run {repeats[0]} to {repeats[-1]} "
             f"times; an input's time is the median of its runs",
             f"verdict_tail_ms is p{pct} over {len(per_input)} inputs",
             f"host speed: {len(host.times)} reference runs, median "
             f"{statistics.median(host.times) * 1000:.4f} ms; times are "
             f"rescaled to a host where it takes {hostspeed.NOMINAL_S * 1000} ms",
             f"unscaled: setup_s {statistics.median(t for t, _ in samples):.4f} "
             f"verdicts_per_s {len(raw) / sum(raw):.4f} "
             f"verdict_p50_ms {statistics.median(raw) * 1000:.4f} "
             f"verdict_tail_ms {percentile(raw, pct) * 1000:.4f}",
             f"failed_share = {failed / n_runs} ratio ({failed} of {n_runs} "
             f"runs; the JSON result carries ok_share = 1 - failed_share)"]
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    return n_runs, failed, metrics, notes


def fixed_pass(inputs, n_blocks: int):
    took, n, failed = 0.0, 0, 0
    for block in inputs.blocks[:n_blocks]:
        for v in block:
            t, ok = run_verdict(v)
            took, n, failed = took + t, n + 1, failed + (not ok)
    return took, n, failed


def overhead(inputs, n_blocks: int):
    """Each verdict of the first blocks run once untraced and once traced,
    in alternating order so that the host's drift cancels. Returns the
    traced and untraced total times, the runs, and the failed runs."""
    import layers
    times = [0.0, 0.0]                  # untraced, traced
    n = failed = 0
    verdicts = [v for block in inputs.blocks[:n_blocks] for v in block]
    for k, v in enumerate(verdicts):
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                with layers.Tracer():
                    took, ok = run_verdict(v)
            else:
                took, ok = run_verdict(v)
            times[with_trace] += took
            n, failed = n + 1, failed + (not ok)
    return times[1], times[0], n, failed


def traced(workload, seed, tiny=False):
    """Per-layer metrics of the first blocks, traced with set-up included;
    then the tracing overhead on the same inputs; then a profiled pass over
    fresh inputs for the Python call counts."""
    import layers
    blocks = TRACE_BLOCKS[workload]
    inputs = None
    try:
        with layers.Tracer() as tracer:
            inputs = generate(workload, seed, tiny)
            _, n, failed = fixed_pass(inputs, blocks)
        # the traced pass has warmed these inputs, so neither side of the
        # overhead pairs pays for a first run
        t_traced, t_plain, n2, failed2 = overhead(inputs, blocks)
    finally:
        if inputs is not None:
            inputs.cleanup()

    def profiled():
        work = generate(workload, seed, tiny)
        try:
            fixed_pass(work, blocks)
        finally:
            work.cleanup()
    metrics = tracer.metrics()
    metrics.update(layers.py_calls(profiled))
    metrics["trace.overhead"] = (t_traced / t_plain, "ratio")
    notes = [f"{n} verdicts traced; overhead from the same verdicts run "
             f"traced ({t_traced:.3f} s) and untraced ({t_plain:.3f} s) in turn"]
    return n + n2, failed + failed2, metrics, notes


def report(workload, seed, seconds, trace, tiny=False, corrupt=False):
    """Run one workload and print its metrics, the JSON result last."""
    if trace:
        attempted, failed, metrics, notes = traced(workload, seed, tiny)
    else:
        attempted, failed, metrics, notes = end_to_end(
            workload, seed, seconds, tiny, corrupt, children=not tiny)
    print(f"workload {workload} seed {seed} trace {trace}")
    for line in notes:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(TRACE_BLOCKS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used for the median)")
    p.add_argument("--selftest", action="store_true",
                   help="run every workload at tiny sizes and check the harness")
    args = p.parse_args(argv)
    if not (SRC / "intcat" / "__init__.py").is_file():
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set iteration order steers the engine's searches, so a fixed hash
        # seed makes the Python call counts repeat exactly
        rest = sys.argv[1:] if argv is None else argv
        os.execve(sys.executable, [sys.executable, str(HERE / "run.py"), *rest],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.selftest:
        import selftest
        return selftest.main()
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_only:
        inputs, took, scaled = timed_setup(args.workload, args.seed)
        inputs.cleanup()
        print(json.dumps([took, scaled]))
        return 0
    report(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
