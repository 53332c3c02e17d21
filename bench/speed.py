"""Times scaled to a reference speed of the machine.

On a shared 2-core virtual machine the speed changes by up to 1.7x for
spells of 30 s and more, with CPU time equal to wall time, so raw times of
one program spread across runs by more than any useful regression bound.
A fixed pure-Python loop (graph search over tuples in dicts and sets, the
kind of work ``gtc`` does) is timed between operations, at least every
``SAMPLE_EVERY_NS``.  A time measured between two samples is multiplied by
``REFERENCE_NS`` over the mean of their loop times: it is reported at the
speed at which the loop takes 0.4 ms.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
from time import perf_counter_ns

REFERENCE_NS = 400_000
SAMPLE_EVERY_NS = 100_000_000


def _graph_search() -> int:
    succ = {
        (i % 97, i): [((i * 7) % 97, (i * 13) % 500), ((i + 1) % 97, (i + 1) % 500)]
        for i in range(500)
    }
    seen = set()
    todo = [(0, 0)]
    while todo:
        p = todo.pop()
        if p in seen or p not in succ:
            continue
        seen.add(p)
        todo.extend(succ[p])
    return len(seen)


def reference_ns() -> int:
    """Fastest of three timings of the reference loop.  The collector is
    off meanwhile, so the garbage an operation left does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(3):
            t0 = perf_counter_ns()
            _graph_search()
            dt = perf_counter_ns() - t0
            best = dt if best is None else min(best, dt)
    finally:
        if enabled:
            gc.enable()
    return best


class SpeedClock:
    """Reference-loop samples ``(time_ns, loop_ns)`` over time; ``scale``
    converts a raw interval."""

    def __init__(self) -> None:
        self.samples: list[tuple[int, int]] = []

    def sample(self) -> None:
        ref = reference_ns()
        self.samples.append((perf_counter_ns(), ref))

    def maybe_sample(self) -> None:
        if not self.samples or perf_counter_ns() - self.samples[-1][0] >= SAMPLE_EVERY_NS:
            self.sample()

    def scale(self, t0: int, t1: int) -> float:
        """Factor for a time measured over [t0, t1]: REFERENCE_NS over the
        mean loop time of the last sample before t0 and the first after t1."""
        i = bisect_right(self.samples, t0, key=lambda s: s[0]) - 1
        j = bisect_left(self.samples, t1, key=lambda s: s[0])
        refs = [self.samples[k][1] for k in (i, j) if 0 <= k < len(self.samples)]
        return REFERENCE_NS / (sum(refs) / len(refs))
