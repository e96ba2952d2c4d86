"""Contention probe: how fast the machine runs Python during a repetition.

The benchmark runs on shared machines whose other tenants slow it down, by
30 to 60%, in stretches that last from a fraction of a second to minutes.
Within one run that is noise; between runs minutes apart it is a drift that
no number of repetitions averages away.

While a repetition runs, a SIGALRM timer interrupts it every INTERVAL
seconds and times a fixed pure-Python loop. ``scale()`` is REFERENCE over
the median loop time, so that wall time × scale is the repetition's wall
time at the speed where the loop takes REFERENCE seconds. The loop is
independent of kinsir, so the scale moves with the machine and not with
the code under test. A sample costs about 20 µs every 20 ms, or 0.1%.
"""

import contextlib
import signal
from statistics import median
from time import perf_counter

INTERVAL = 0.02
# The loop's time on the quiet 2-vCPU Xeon host where these figures were
# taken. Any fixed value works: only ratios between runs carry meaning.
REFERENCE = 20e-6


def _loop():
    x = 0.1
    for _ in range(300):
        x = x * 0.999 + 0.001 * (x * x - 0.5)
    return x


class Probe:
    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        start = perf_counter()
        _loop()
        self.samples.append(perf_counter() - start)

    @contextlib.contextmanager
    def running(self):
        """Sample throughout the block; at least once, at its end."""
        self.samples = []
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            if not self.samples:
                self._sample(None, None)

    def scale(self):
        return REFERENCE / median(self.samples)
