"""Interval timing corrected for the speed of a shared host, and memory samples.

On a shared host the time of a fixed loop can change by half within
seconds, for every process alike (see README.md).  ``HostClock`` samples
that speed all along a run: a ``SIGALRM`` timer runs a short calibration
loop in the main thread every ``PERIOD`` seconds, with no extra thread or
process.  An interval measured
with the clock excludes the time spent in those samples, and is scaled by
``NOMINAL_MS`` over the mean calibration time sampled during the interval
(or next to it, for an interval shorter than the period).  Its result is
the interval's length at one fixed host speed.  Each sample also reads the
process's resident memory, so that the peak of an interval can be found
without ``tracemalloc``, which slows the large region builds tenfold.
"""

from __future__ import annotations

import os
import signal
import statistics
import time
from bisect import bisect_left, bisect_right
from random import Random

PERIOD = 0.1
# The calibration loop's time at the reference speed.
NOMINAL_MS = 5.0
_ROUNDS = 30_000
# The loop reads and rewrites random slots of a 1,024-slot table, about
# 32 KB, which stays in the core's own caches.  A loop over a table larger
# than those caches ran slower while the planner's tree filled memory than
# during the region builds of the same run, so its speed followed the
# program's working set and not only the host.  The floats are not tracked
# by the garbage collector, so sampling does not move the program's
# collections.
_SLOTS = 1024
_VALUES = [float(i) for i in range(_SLOTS)]
_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """Resident memory of this process now."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def calibration_ms() -> float:
    """A fixed interpreter-bound loop over a table that stays in cache."""
    t0 = time.perf_counter()
    rnd = Random(0).random
    values = _VALUES
    acc = 0.0
    for _ in range(_ROUNDS):
        j = int(rnd() * _SLOTS)
        x = values[j]
        values[j] = x + 1.0
        acc += x
    return (time.perf_counter() - t0) * 1000.0


class HostClock:
    """Speed samples taken from a timer signal while the clock runs."""

    def __init__(self):
        self.times: list[float] = []
        self.cal_ms: list[float] = []
        self.rss: list[float] = []
        self.spent = 0.0
        self._old = None

    def sample(self, *_signal) -> None:
        """Take one sample; the timer calls this with the signal's arguments."""
        t0 = time.perf_counter()
        ms = calibration_ms()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.cal_ms.append(ms)
        self.rss.append(rss_mb())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def reading(self) -> tuple[float, float]:
        return time.perf_counter(), self.spent

    @staticmethod
    def raw_seconds(start: tuple[float, float], end: tuple[float, float]) -> float:
        """Seconds between two readings, less the time spent sampling."""
        return (end[0] - start[0]) - (end[1] - start[1])

    def seconds(self, start: tuple[float, float], end: tuple[float, float]) -> float:
        """Seconds between two readings, at the reference speed."""
        return self.at_reference(self.raw_seconds(start, end), start[0], end[0])

    def at_reference(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` measured during [t0, t1], at the reference speed."""
        return seconds * NOMINAL_MS / self.speed_ms(t0, t1)

    def speed_ms(self, t0: float, t1: float) -> float:
        """Mean calibration time sampled in [t0, t1], or next to it."""
        lo = bisect_left(self.times, t0 - PERIOD / 2)
        hi = bisect_right(self.times, t1 + PERIOD / 2)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        if lo == hi:
            raise RuntimeError("no host-speed sample taken yet")
        return statistics.fmean(self.cal_ms[lo:hi])

    def rss_growth_mb(self, t0: float, t1: float) -> float:
        """Highest resident memory sampled in [t0, t1], or just after it,
        above the last sample before t0."""
        lo = bisect_left(self.times, t0)
        hi = bisect_right(self.times, t1) + 1
        if lo == 0 or hi > len(self.times):
            raise RuntimeError("no memory sample before or during the interval")
        return max(self.rss[lo:hi]) - self.rss[lo - 1]
