"""Host-speed calibration: scale measured times to one reference host speed.

On a shared VM the speed at which the same code runs changes while a run
goes on.  On the 2-vCPU x86-64 VM (Intel Xeon, Python 3.11.7) this
benchmark was written on, a fixed pure-Python loop switched between about
14 and 21 ms every few seconds, with process time tracking wall time: the
host executes more slowly, nobody takes the CPU away.  The median pass time
of closed-forms then differed by 0.16 and 0.28 (interquartile range over
median) between the ten 30 s windows of two 300 s recordings.

run.py uses this for the workloads in workloads.SPEED_SCALED.  A
``SpeedMeter`` times a fixed interpreter loop on small ints between ops,
at most every ``SAMPLE_EVERY_S``.  The loop runs once untimed first, so it
is timed warm and does not depend on what the op before it left in the
caches; it has no data of its own beyond a few ints.  A sample is the
median of ``TIMINGS`` timed runs, so one interrupted run does not count.
A time measured over [t0, t1] is multiplied by

    REFERENCE_S / median(samples within WINDOW_S of [t0, t1])

which gives seconds at the host speed where the loop takes REFERENCE_S.
On the first recording this cut the spread of the pass time from 0.16 to
0.03, of the median op latency from 0.09 to 0.04 and of the tail latency
from 0.14 to 0.04.  A change to the program moves the scaled times as it
moves the wall times; a change of host speed moves only the wall times, as
far as the program's speed follows the loop's.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

SAMPLE_EVERY_S = 0.025
WINDOW_S = 0.5
LOOP = 2000
TIMINGS = 3
# about the median time of the timed loop on the VM described above
REFERENCE_S = 0.0002


def _loop() -> int:
    acc = 0
    for i in range(LOOP):
        acc += i * i % 7
    return acc


class SpeedMeter:
    def __init__(self):
        self._last = -math.inf
        self.times: list[float] = []
        self.values: list[float] = []

    def sample(self) -> float:
        _loop()
        runs = []
        for _ in range(TIMINGS):
            t0 = time.perf_counter()
            _loop()
            runs.append(time.perf_counter() - t0)
        value = statistics.median(runs)
        self._last = time.perf_counter()
        self.times.append(self._last)
        self.values.append(value)
        return value

    def maybe_sample(self) -> None:
        """Take a sample when the last one is more than SAMPLE_EVERY_S old."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the median sample within WINDOW_S of [t0, t1].

        The window always holds the nearest sample before t0 and after t1,
        so a long op is judged by the speed on both sides of it.
        """
        times = self.times
        if not times:
            raise RuntimeError("no speed sample taken")
        lo = min(bisect.bisect_left(times, t0 - WINDOW_S), max(bisect.bisect_left(times, t0) - 1, 0))
        hi = max(bisect.bisect_right(times, t1 + WINDOW_S), min(bisect.bisect_right(times, t1) + 1, len(times)))
        return REFERENCE_S / statistics.median(self.values[lo:hi])
