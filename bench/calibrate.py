"""Machine-speed calibration for timings taken on a shared, drifting host.

On a small shared machine the speed of a fixed piece of Python work drifts by
20-40 % over seconds, as other tenants come and go; a 20-second run cannot
average that out.  The benchmark therefore runs a fixed kernel, which uses
no g2flop code, between timed operations: in ``run.py`` after every child
process, and in a worker around every block of queries and every scale
probe.  A timing is scaled by ``REFERENCE_S`` over the median of the kernel
samples taken next to it (``Timeline`` for run.py's samples, which are
stamped with the monotonic clock; ``run.Bench.scaled_blocks`` for a worker's
own).  The reported time is the time the operation would have taken with
the kernel running at ``REFERENCE_S``, in the same unit.  The program cannot
move the kernel, so a change in the program still shows in full; raw medians
are printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

#: Seconds the kernel is defined to take at reference speed.
REFERENCE_S = 0.010
#: Half-width of the window of kernel samples that scales one timing.
WINDOW_S = 0.5
#: Fewest samples a window is widened to, for isolated operations.
MIN_SAMPLES = 4


def _kernel() -> int:
    # Tuples, dict probes and small-int arithmetic: the operations the
    # program's own hot paths are made of.
    counts: dict = {}
    acc = 0
    for i in range(20000):
        key = (i, i * 3 % 7)
        counts[key] = counts.get(key, 0) + 1
        acc += key[1] * key[0] % 5
    return acc


def sample() -> tuple[float, float]:
    """(clock reading at the middle of the run, seconds) of one kernel run."""
    t0 = time.perf_counter()
    _kernel()
    t1 = time.perf_counter()
    return ((t0 + t1) / 2.0, t1 - t0)


class Timeline:
    """Kernel samples of one benchmark run, from every process, by time."""

    def __init__(self):
        self._times: list[float] = []
        self._secs: list[float] = []

    def add(self, when: float, secs: float) -> None:
        i = bisect.bisect(self._times, when)
        self._times.insert(i, when)
        self._secs.insert(i, secs)

    def factor(self, start: float, end: float) -> float:
        """Scale for a timing taken between clock readings ``start`` and ``end``."""
        mid = (start + end) / 2.0
        half = max(WINDOW_S, (end - start) / 2.0)
        lo = bisect.bisect_left(self._times, mid - half)
        hi = bisect.bisect_right(self._times, mid + half)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self._times)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self._times))
        return REFERENCE_S / statistics.median(self._secs[lo:hi])
