"""Machine-speed normalisation of measured times.

On a shared host the speed of one core can swing by a factor of two within
seconds (a fixed Fraction loop took between 0.13 and 0.28 s on a shared
2-vCPU Firecracker VM), which swamps the effect of most program changes.
A ``Speedometer`` samples that speed while the benchmark runs: every
``INTERVAL_S`` a timer signal interrupts the program and times a short,
fixed reference loop.  ``normalized(a, b)`` converts the
wall interval [a, b] into reference seconds: each stretch of time between
samples is scaled by REFERENCE_S over the duration of the reference loop
measured at that moment, and the sampling itself is left out.  A reference
second is the time the interval would take on a core that runs the
reference loop in REFERENCE_S.
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
# Duration of one reference loop on an uncontended core of a 2-vCPU
# Firecracker VM running CPython 3.11.
REFERENCE_S = 0.0007
# Speed at a moment is the median of this many neighbouring samples.
WINDOW = 3

clock = time.perf_counter


def reference_loop():
    """Fixed pure-Python work: exact rational sums, like the package's
    inner loops."""
    acc = Fraction(0)
    for i in range(1, 200):
        acc += Fraction(1, i % 97 + 1)
    return acc


class Speedometer:
    """Context manager that samples the core's speed on a timer signal."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self._previous = None

    def _tick(self, signum, frame):
        start = clock()
        reference_loop()
        self.starts.append(start)
        self.durations.append(clock() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _scale(self, k):
        """REFERENCE_S over the reference duration around sample k."""
        lo = max(0, k - WINDOW // 2)
        window = self.durations[lo:lo + WINDOW]
        return REFERENCE_S / statistics.median(window)

    def normalized(self, a, b):
        """Reference seconds spent in the wall interval [a, b]."""
        if not self.starts:
            return b - a
        first = bisect.bisect_left(self.starts, a)
        last = bisect.bisect_right(self.starts, b)
        k = max(0, first - 1)
        total = 0.0
        position = a
        scale = self._scale(k)
        for k in range(first, last):
            total += (self.starts[k] - position) * scale
            scale = self._scale(k)
            position = min(b, self.starts[k] + self.durations[k])
        total += max(0.0, b - position) * scale
        return total
