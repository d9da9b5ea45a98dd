"""Timing that is steady on a machine whose speed changes under the run.

On a shared two-vCPU virtual machine, the same pure-Python loop measured
from 2.1 to 4.1 us per iteration within one minute, in phases of about a
second, and a 20-second workload run moved by up to 30% from one run to the
next.  CPU time moved the same way, so the cause is contention outside the
process.

SpeedSampler times a fixed reference loop from a SIGALRM handler every
INTERVAL seconds, in the benchmark's one thread.  A timed interval has the
handler's own time taken out, and is then scaled by REFERENCE_S over the
mean loop time sampled around it: the result is the interval's length at
the reference speed, the speed at which the loop takes REFERENCE_S.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from time import perf_counter

INTERVAL = 0.1
LOOPS = 3000
REFERENCE_S = 1.5e-3  # about the median loop time on an Intel Xeon VM


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def reference_loop(n: int) -> int:
    """Object allocation, attribute access and integer arithmetic, the
    mix the simulator's scalar code spends its time on."""
    acc = 0
    for i in range(n):
        p = _Pair(i, i >> 3)
        acc += (p.a * 2654435761 + p.b) & 0xFFFF
    return acc


class WallClock:
    """Plain wall time; an interval is (start, end, seconds)."""

    def timed(self, fn, *args):
        a = perf_counter()
        out = fn(*args)
        b = perf_counter()
        return (a, b, b - a), out

    def seconds(self, interval) -> float:
        return interval[2]


class SpeedSampler(WallClock):
    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        reference_loop(LOOPS)
        t1 = perf_counter()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is None:
            time.sleep(2 * INTERVAL)  # samples after the last interval
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args):
        spent = self.spent
        (a, b, dt), out = super().timed(fn, *args)
        return (a, b, dt - (self.spent - spent)), out

    def seconds(self, interval) -> float:
        """The interval's length at the reference speed; valid once the
        sampler has been closed."""
        a, b, dt = interval
        i = bisect.bisect_left(self.at, a - INTERVAL)
        j = bisect.bisect_right(self.at, b + INTERVAL)
        if j <= i:  # the handler was held off by one long native call
            i, j = max(0, i - 1), min(len(self.at), i + 1)
        return dt * REFERENCE_S / statistics.fmean(self.took[i:j])
