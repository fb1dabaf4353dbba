"""Host-speed reference for the end-to-end times.

The benchmark runs on shared hosts whose speed drifts: the same run of the
same code can take 1.8 times as long ten minutes later, in CPU time as much
as in wall time.  So a run also times a fixed pure-Python loop, shaped like
the program's own work: a 300 x 300 table of distinct int objects filled
row by row, then read at 20000 scattered places.  It is timed at the start
and end of a phase and before any op that starts at least
``SAMPLE_EVERY_S`` after the last timing.  Each op's latency is then scaled
to a host on which that loop takes ``REF_NOMINAL_S``:

    scaled = latency * REF_NOMINAL_S / median(loop times near the op)

where "near" is within ``WINDOW_S`` of the op's start or end.  The loop does
not touch ``nilclean``, so no change to the program moves it; only the host
does.  ``REF_NOMINAL_S`` is the loop's time on the host the baseline was
recorded on, rounded; it is a fixed unit and must not change, or every
scaled figure moves with it.

A loop that stays in the CPU cache was tried first; it swung with the host
about 1.7 times as much as the program did, so it overcorrected.  The
table and scattered reads of this one put cache misses and allocation into
it in about the program's proportion.
"""

from __future__ import annotations

import bisect
import statistics
import time

REF_NOMINAL_S = 0.015
SAMPLE_EVERY_S = 0.25
WINDOW_S = 2.0
_N = 300
_READS = 20000


def reference_work() -> int:
    n = _N
    rows = [[(i * j) % n + n for j in range(n)] for i in range(n)]
    total, r = 0, 12345
    for _ in range(_READS):
        r = (r * 1103515245 + 12345) & 0x7FFFFFFF
        total += rows[r % n][(r >> 9) % n]
    return total


class Samples:
    """Reference timings of one run, in the order they were taken."""

    def __init__(self):
        self.at = []
        self.ref = []

    def take(self):
        t0 = time.perf_counter()
        reference_work()
        self.at.append(t0)
        self.ref.append(time.perf_counter() - t0)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= SAMPLE_EVERY_S

    def scale(self, start: float, end: float) -> float:
        """Factor that turns a time measured in [start, end] into nominal time."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.ref[lo:hi]
        if not near:  # no sample within the window: take the closest one
            i = min(range(len(self.at)), key=lambda k: abs(self.at[k] - start))
            near = [self.ref[i]]
        return REF_NOMINAL_S / statistics.median(near)
