"""How fast the host runs at each moment of a timed phase.

The host's speed drifts by a fifth over minutes, so the benchmark runs a
fixed pure-Python reference job between verdicts and reports every time
rescaled to a host on which that job takes ``NOMINAL_S``. The job does the
kind of work the engine does (tuple labels, set closure, dict tables)
without calling the engine, so its time moves with the host and never with
the engine's code.
"""

from __future__ import annotations

import bisect
import statistics
import time

NOMINAL_S = 0.003       # the reference job's typical time on a nominal host
WINDOW = 10             # reference runs on each side that set the local speed


def reference_job() -> int:
    elems = [f"e{i}" for i in range(14)]
    rel = {(a, a) for a in elems}
    rel.update((elems[i], elems[i + 1]) for i in range(len(elems) - 1))
    changed = True
    while changed:
        changed = False
        for a, b in list(rel):
            for b2, c in list(rel):
                if b == b2 and (a, c) not in rel:
                    rel.add((a, c))
                    changed = True
    table = {((b, c), (a, b2)): (a, c) for (b, c) in rel for (a, b2) in rel
             if b2 == b}
    return len(sorted(table, key=repr))


class HostSpeed:
    """Reference-job runs taken through a timed phase."""

    def __init__(self):
        self.starts: list = []
        self.times: list = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference_job()
        self.starts.append(start)
        self.times.append(time.perf_counter() - start)

    def scale_at(self, t: float) -> float:
        """Factor that rescales a time taken at ``t`` to the nominal host:
        the nominal job time over the median of the nearest runs."""
        i = bisect.bisect_left(self.starts, t)
        near = self.times[max(0, i - WINDOW):i + WINDOW]
        return NOMINAL_S / statistics.median(near)

    def scale(self) -> float:
        """The same factor over the whole phase."""
        return NOMINAL_S / statistics.median(self.times)
