"""Scale pass times to a nominal machine speed.

The benchmark runs on shared CPUs whose throughput drifts over spans of
5 to 30 s, by up to a factor of 2 over an hour, and process CPU time
drifts with it, so a raw pass time moves with the neighbours as much as
with the program.  While a pass runs, a ``SIGALRM`` timer runs a fixed
reference kernel every ``INTERVAL_S`` and times it.  The kernel's speed,
averaged over the pass, is the share of nominal speed the machine gave
the pass; the pass time (less the kernel's own time) times that share is
the time the pass would have taken at nominal speed.  The kernel is the
benchmark's own code, so a change to the program moves the scaled time
and leaves the kernel alone.
"""

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.05
# The kernel's time at nominal speed: a round figure within its range
# (0.5 to 1.1 ms) on the 2-CPU container where the baseline was measured
# (Python 3.11.7).
NOMINAL_KERNEL_S = 1e-3


def kernel():
    """Pure-Python exact arithmetic and dict updates, like the program's
    linear algebra over the rationals."""
    acc, cells = Fraction(0), {}
    for i in range(1, 120):
        acc = acc * Fraction(3, 7) + Fraction(i, i + 1)
        cells[i % 13] = cells.get(i % 13, 0) + acc.numerator % 1000003
    return cells


class Speedometer:
    """``start()`` before a pass, ``scale(wall_s)`` after it.  Use it as a
    context manager, so the timer and the old handler are restored on
    every way out."""

    def __init__(self):
        self.speeds = []
        self.spent = 0.0
        self._busy = False
        self._old = None

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def _sample(self, *_):
        if self._busy:  # a late signal during a sample: skip it
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
        finally:
            self._busy = False
        self.speeds.append(NOMINAL_KERNEL_S / dt)
        self.spent += dt

    def start(self):
        self.speeds, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def scale(self, wall_s):
        """Stop sampling; returns (scaled time, mean speed) of the pass
        that took ``wall_s``, samples included."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        net = wall_s - self.spent
        if not self.speeds:  # a pass shorter than one interval
            self._sample()
        speed = statistics.fmean(self.speeds)
        return net * speed, speed
