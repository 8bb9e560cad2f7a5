"""Seconds at a fixed reference speed, on a machine whose speed drifts.

On a shared machine the speed of a single thread drifts by tens of percent
over seconds to minutes, for every process alike: on a shared 2-vCPU Xeon
virtual machine a fixed loop timed in back-to-back 10 s windows gave an
interquartile range of 13-17 % of its median.  While a RefClock is active, a
profiling timer interrupts the process every INTERVAL_S of CPU time to time
a short calibration slice of fixed standard-library work, inside operations
as well as between them.  A latency, with the slices taken out, is scaled by
REF_SLICE_S over the median of the slices around it.  A change in ivrf moves
the scaled figures; a change in the machine's speed mostly does not, because
the slice runs no ivrf code.  Wall seconds are kept next to the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.2         # CPU time between calibration slices
NEIGHBOURS = 5           # slices whose median gives the local speed
MARGIN_S = 1.0           # slices this close to an op's span count for it
REF_SLICE_S = 0.0015     # one slice at the reference speed


def calibration_slice():
    """Fixed work of the kind the library's inner loops do: Fraction
    arithmetic, small tuples and dict updates."""
    seen = {}
    for i in range(1, 200):
        f = Fraction(i % 7 + 1, i % 5 + 1)
        g = f * Fraction(i % 3 + 1, 2) + f
        key = (g.numerator % 11, g.denominator % 13)
        seen[key] = seen.get(key, 0) + 1
    return seen


class RefClock:
    """Use as a context manager around the measured passes."""

    def __init__(self):
        self.ends = []           # perf_counter at the end of each slice
        self.slices = []         # wall seconds per slice
        self.busy = 0.0          # wall seconds spent in slices so far

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        for _ in range(NEIGHBOURS):
            self._sample()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        calibration_slice()
        end = time.perf_counter()
        self.ends.append(end)
        self.slices.append(end - start)
        self.busy += end - start

    def _scale(self, lo, hi):
        return REF_SLICE_S / statistics.median(self.slices[lo:hi])

    def scale_over(self, t0, t1):
        """Reference seconds per wall second for an op that ran from t0 to t1:
        from the slices within MARGIN_S of it, or else the NEIGHBOURS nearest."""
        lo = bisect.bisect_left(self.ends, t0 - MARGIN_S)
        hi = bisect.bisect_right(self.ends, t1 + MARGIN_S)
        if hi - lo < NEIGHBOURS:
            mid = bisect.bisect_left(self.ends, (t0 + t1) / 2)
            lo = max(0, min(mid - NEIGHBOURS // 2, len(self.slices) - NEIGHBOURS))
            hi = lo + NEIGHBOURS
        return self._scale(lo, hi)

    def scale_now(self):
        return self._scale(-NEIGHBOURS, None)
