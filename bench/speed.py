"""How fast the host runs right now, from a fixed pure-Python probe.

The benchmark host shares its two cores with other machines' work.  For
seconds to minutes at a time, the same code runs 1.3 to 1.7 times slower.  A
plain wall-clock figure then says more about the neighbours than about the
code.  So the timed parts are interleaved with a probe, a fixed piece of
interpreter work, and every time the benchmark gates on is scaled to
reference speed:

    reference seconds = measured seconds * REF_PROBE_MS / probe ms beside it

The probe uses neither numpy nor the library.  A change to the library
cannot move it, and it runs before ``import numpy`` without altering set-up.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

#: The probe's time with the development host in its fast mode (Intel Xeon,
#: 2.1 GHz, 2 vCPUs).  It fixes the scale of reference seconds.  On the same
#: host, reference seconds match wall seconds when it runs fast.
REF_PROBE_MS = 1.4
#: Probe cadence during a timed part: about 3 ms of probe per 250 ms of work.
PROBE_EVERY_S = 0.25


def probe_ms() -> float:
    """Best of three timings of a fixed loop of arithmetic, appends and a sort."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        items = []
        for i in range(6000):
            acc += i * i
            items.append(acc & 0xFFFF)
        items.sort()
        best = min(best, time.perf_counter() - t0)
    return 1000 * best


class SpeedTrack:
    """Probe readings taken between timed samples, and the time they took."""

    def __init__(self):
        self.times: list[float] = []
        self.readings: list[float] = []
        self.overhead_s = 0.0
        self._due = 0.0

    def tick(self) -> None:
        """Probe if PROBE_EVERY_S has passed since the last probe."""
        now = time.perf_counter()
        if now < self._due:
            return
        ms = probe_ms()
        done = time.perf_counter()
        self.times.append(done)
        self.readings.append(ms)
        self.overhead_s += done - now
        self._due = done + PROBE_EVERY_S

    def factor(self, t0: float, t1: float) -> float:
        """Slowdown against reference speed over [t0, t1].  This is the mean of
        the readings inside the interval and the last one before it."""
        lo = max(bisect.bisect_left(self.times, t0) - 1, 0)
        hi = bisect.bisect_right(self.times, t1)
        window = self.readings[lo:hi] or self.readings[-1:]
        return statistics.fmean(window) / REF_PROBE_MS if window else 1.0

    def factor_at(self, t: float) -> float:
        """Slowdown against reference speed at the last reading before t."""
        idx = max(bisect.bisect_right(self.times, t) - 1, 0)
        return self.readings[idx] / REF_PROBE_MS if self.readings else 1.0

    def summary(self) -> dict:
        if not self.readings:
            return {"count": 0}
        return {
            "count": len(self.readings),
            "median_ms": statistics.median(self.readings),
            "min_ms": min(self.readings),
            "max_ms": max(self.readings),
            "ref_ms": REF_PROBE_MS,
        }
