"""Speed meter: the pace of this CPU while a run is measured.

On a shared virtual machine the same single-threaded computation can take
from 1x to 2.5x its uncontended time, in phases that last from seconds to
minutes (other tenants on the sibling hardware thread, steal).  No
estimator over the workload's own timings removes that.  The meter
therefore samples a fixed probe (under a millisecond of Fraction and dict
work, the operations the library spends its time in) every ``INTERVAL``
seconds from a SIGALRM handler, in the benchmark's single thread and also
while a long library call runs.

``clock()`` is ``perf_counter`` minus the time spent in probes, so the
probes do not count in any measured region.  ``elapsed(t0)`` divides a
region's wall time by its pace, computed from the probes inside the
region (at least MIN_PROBES, reaching back before it for short regions)
against the probe's time on an uncontended core of the reference
machine.  The result is seconds at the reference machine's uncontended
pace.  The run's overall pace is kept in its record.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.05
MIN_PROBES = 5
# probe time on an uncontended core of the reference machine (an Intel
# Xeon VM with 2 vCPUs, Python 3.11): the fastest phase's median
NOMINAL_PROBE_S = 0.00062
# Contention slows the probe more than the library, and a region can span
# fast and slow phases: its pace is the mean over its probes of
# min(factor, CLIP) ** ALPHA.  On that machine, over 74 regions of 25
# Jucys-Murphy idempotents each (1.1 to 2.3 s, probe factors 1.0 to 2.0),
# this took the standard deviation of log region time from 0.16 (raw) to
# 0.04; the median factor to the same power left 0.07.
ALPHA = 0.85
CLIP = 3.0


def probe_work():
    d = {}
    x = Fraction(1)
    for i in range(1, 120):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i)
        d[(i, i % 3)] = x
    return len(d)


class Stopwatch:
    """Elapsed wall time of measured regions."""

    def clock(self):
        return time.perf_counter()

    def elapsed(self, t0):
        """Seconds since ``t0`` (a value of ``clock()``)."""
        return self.clock() - t0


class SpeedMeter(Stopwatch):
    """Stopwatch that samples the probe on a timer while it is open and
    states every region's time at the reference pace."""

    def __init__(self, interval=INTERVAL):
        self.interval = interval
        self.times = []      # probe start, on this meter's clock
        self.samples = []    # probe duration
        self.spent = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        self.times.append(t0 - self.spent)
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def clock(self):
        """perf_counter without the time spent in probes."""
        return time.perf_counter() - self.spent

    def pace(self, t0=None, t1=None):
        """Divisor taking the wall time of [t0, t1] to the reference pace,
        from the probes inside it; the window is widened backwards to at
        least MIN_PROBES probes.  Without bounds: over the whole run."""
        lo, hi = 0, len(self.times)
        if t0 is not None:
            lo = bisect.bisect_left(self.times, t0)
            hi = bisect.bisect_right(self.times, t1)
            lo = max(0, min(lo, hi - MIN_PROBES))
        if hi <= lo:
            return 1.0
        return statistics.fmean(
            min(s / NOMINAL_PROBE_S, CLIP) ** ALPHA
            for s in self.samples[lo:hi])

    def elapsed(self, t0):
        t1 = self.clock()
        return (t1 - t0) / self.pace(t0, t1)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
