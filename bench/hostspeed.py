"""Host-speed sampling, so that call times from a shared host compare.

Other tenants of the host slow this process for seconds to minutes at a time,
by up to a factor of two, and CPU time slows with wall time. A fixed
calibration loop, run from a ``SIGALRM`` handler every ``PERIOD_S`` seconds of
wall time, measures how fast the host runs this process at that moment; it
needs no hook in the package, so it also samples the middle of a 15-s sweep.

``Sampler.work_times(spans)`` turns the wall interval of each call into the
time the call would have taken on the reference host without contention: the
interval minus the handler's own time, scaled by ``REFERENCE_S`` over the
calibration times sampled during the call and the period either side of it.
Each calibration time is first replaced by the median of the five around it:
the host switches between speeds that last seconds, while a single slow
sample is an interrupt of the loop, not of the call.

The scaling is approximate: in a slow period the loop slows by 1.6-1.9 times
and the package's calls by 1.2-1.7 times, so a call in a slow period reads 4-17%
(once 25%) faster than the same call in a fast one. A faster or slower package
still shows in full: the loop calls nothing from the package.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25
SMOOTH = 5  # calibration samples per running median
# calibrate() on the reference host (2-vCPU Xeon) with no tenant contending
REFERENCE_S = 1.8e-3


def calibrate() -> float:
    """Fixed work in the package's mix, none of it the package's code: 300
    explicit Euler steps of a two-dimensional finite-time law, with the small
    numpy ops and Python floats of the package's stepper."""
    y = np.array([0.3, -0.2])
    s = 0.0
    for i in range(300):
        f = -np.abs(y) ** 0.5 * np.sign(y) - y
        y = y + 1e-3 * f
        s += 1e-3 * float(np.max(np.abs(f))) + math.sqrt(i)
    return s


class Sampler:
    def __init__(self):
        self.mids = []  # midpoints of the calibration runs, ascending
        self.durations = []  # their lengths
        self.spent = [0.0]  # handler time up to and including each run

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        return False

    def _sample(self, *_):
        start = time.perf_counter()
        calibrate()
        end = time.perf_counter()
        self.mids.append(0.5 * (start + end))
        self.durations.append(end - start)
        self.spent.append(self.spent[-1] + end - start)

    def _handler_time(self, t: float) -> float:
        """Handler time spent before ``t``, a clock read outside the handler."""
        return self.spent[bisect.bisect_right(self.mids, t)]

    def _smoothed(self) -> list:
        half = SMOOTH // 2
        return [
            statistics.median(self.durations[max(0, i - half): i + half + 1])
            for i in range(len(self.durations))
        ]

    def work_times(self, spans: list) -> list:
        """Reference-host seconds of each call ``(start, end)`` in ``spans``."""
        durations = self._smoothed()
        return [self._work_time(start, end, durations) for start, end in spans]

    def _work_time(self, start: float, end: float, durations: list) -> float:
        busy = (end - start) - (self._handler_time(end) - self._handler_time(start))
        lo = bisect.bisect_left(self.mids, start - PERIOD_S)
        hi = bisect.bisect_right(self.mids, end + PERIOD_S)
        if hi - lo < 2:  # the two runs nearest to the call
            lo = min(max(bisect.bisect_left(self.mids, start) - 1, 0), len(self.mids) - 2)
            hi = lo + 2
        # mean speed over the call: work done is the integral of speed over time
        speed = sum(REFERENCE_S / d for d in durations[lo:hi]) / (hi - lo)
        return busy * speed
