"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by up to half in
phases of a few to tens of seconds, while the program's work stays the
same.  A fixed pure-Python kernel, run right before and right after each
timed interval, measures the host's speed at that moment; a timing is
multiplied by ``NOMINAL_S / kernel time`` to give seconds at nominal
host speed.  The kernel exercises what the program's hot paths spend
their time on (tuple-keyed dicts, breadth-first search, string building,
sorting) and does not touch the program, so a change to the program moves
the corrected figure exactly as it moves the wall time at a fixed host
speed.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

# Median kernel time on the reference host (2-core VM, Python 3.11):
# corrected figures there equal wall times at that host's median speed.
NOMINAL_S = 0.0019
REPEATS = 12


def _kernel() -> int:
    """Breadth-first shortest output words over a fixed 300-state,
    6-input transition table, then sorted."""
    succ = {}
    for q in range(300):
        for a in range(6):
            succ[(q, a)] = ((q * 7 + a * 13 + 1) % 300, f"o{(q + a) % 5}")
    words, frontier = {0: ()}, [0]
    while frontier:
        nxt = []
        for q in frontier:
            for a in range(6):
                t, out = succ[(q, a)]
                if t not in words:
                    words[t] = words[q] + (out,)
                    nxt.append(t)
        frontier = nxt
    return len(sorted("/".join(w) for w in words.values()))


def sample(times: list[float], repeats: int = REPEATS):
    """Append ``repeats`` kernel times to ``times``.  The collector is off
    meanwhile, so the program's leftover heap does not slow the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            start = perf_counter()
            _kernel()
            times.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()


class Timer:
    """Wall time of an interval, with a host-speed sample on each side.

    ``wall`` is the measured time; ``seconds`` the time at nominal host
    speed, scaled by the median kernel time of both samples."""

    def __enter__(self):
        self._kernel: list[float] = []
        sample(self._kernel)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = perf_counter() - self._start
        sample(self._kernel)
        self.speed = NOMINAL_S / statistics.median(self._kernel)
        self.seconds = self.wall * self.speed
        return False
