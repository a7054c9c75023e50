"""Host-speed-adjusted time for one repetition.

The benchmark runs on shared hosts whose speed swings by tens of percent
within seconds (on the reference machine a fixed loop runs in either ~6 ms or
~10 ms, switching after a fraction of a second to several seconds), and CPU
time swings with wall time, so
neither measures the program alone. `HostClock` samples the host's speed
while the simulation runs: a SIGALRM timer interrupts the program every
`period` seconds and times a short fixed kernel (`calibrate`) that never
calls `hks`. The kernel runs twice and only the second run is timed, so how
much of the cache the program left to it does not count. A duration is then
reported in reference-host seconds: each stretch of wall time is weighted by
`CALIB_REF_S` over the kernel time measured nearest to it, and the time
spent in the kernel itself is left out. The host can switch speed within a
fraction of a second, so the nearest sample alone is used, unsmoothed.
A program change moves the adjusted time as much as the wall time; a host
that slows everything down moves the kernel too and cancels out.

The kernel allocates nothing the program can see and draws no random
numbers at run time, so the simulation's outputs do not change.
"""
from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time

# Typical time of `calibrate()` on the reference machine in its slow state
# (see README.md). A stretch in which the kernel ran this fast reports
# wall-clock seconds.
CALIB_REF_S = 0.002

_INPUTS = None


def calibrate() -> float:
    """Seconds taken by a fixed ~2 ms kernel shaped like the simulator's work.

    Pure-Python heap and dict traffic (as in the HNSW graph walk), small
    matrix products and row reductions (as in distance evaluations and
    train steps) and a pass over a 1.6 MB array (as in the hierarchy's
    distance matrix).
    """
    import numpy as np

    global _INPUTS
    if _INPUTS is None:
        rng = np.random.default_rng(12345)
        _INPUTS = (rng.standard_normal((256, 32)), rng.standard_normal((32, 16)),
                   rng.standard_normal(200_000))
    V, W, big = _INPUTS
    start = time.perf_counter()
    heap, seen = [], {}
    for i in range(1200):
        heapq.heappush(heap, ((i * 7919) % 1009, i))
        seen[i & 511] = i
        if len(heap) > 64:
            heapq.heappop(heap)
    for i in range(12):
        rows = V[(i * 37) % 200:(i * 37) % 200 + 48]
        d = np.einsum("ij,ij->i", rows, rows)
        np.argsort(d)
        np.maximum(rows @ W, 0.0).sum(axis=0)
    float(np.minimum(big, 0.5).sum())
    return time.perf_counter() - start


class HostClock:
    """Samples host speed during a run and converts wall times to adjusted ones.

    Use `start()` before the timed work and `stop()` after it; then
    `adjusted(a, b)` gives the reference-host seconds between two
    `time.perf_counter()` readings taken in between.
    """

    def __init__(self, period: float = 0.1):
        self.period = period
        # (start, end, timed kernel seconds) of every sample; start and end
        # are perf_counter readings around both kernel runs.
        self.samples: list[tuple[float, float, float]] = []
        self._busy = False
        self._times: list[float] = []
        self._adjusted: list[float] = []
        self._factors: list[float] = []

    def _sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            a = time.perf_counter()
            calibrate()
            kernel_s = calibrate()
            self.samples.append((a, time.perf_counter(), kernel_s))
        finally:
            self._busy = False

    def start(self) -> "HostClock":
        calibrate()  # the first call pays for numpy's lazy set-up
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()
        self._build()

    def _build(self) -> None:
        """Knots of the piecewise-linear map from wall time to adjusted time.

        Inside a kernel run the map is flat. Between two kernel runs, the
        half nearer each one is weighted by that sample's factor.
        """
        self._factors = [CALIB_REF_S / kernel_s for _, _, kernel_s in self.samples]
        times, adjusted = [self.samples[0][0]], [0.0]

        def knot(t: float, factor: float) -> None:
            adjusted.append(adjusted[-1] + (t - times[-1]) * factor)
            times.append(t)

        for i, (a, b, _) in enumerate(self.samples):
            if i:
                prev_end = self.samples[i - 1][1]
                knot((prev_end + a) / 2, self._factors[i - 1])
                knot(a, self._factors[i])
            knot(b, 0.0)
        self._times, self._adjusted = times, adjusted

    def _at(self, t: float) -> float:
        times, adjusted = self._times, self._adjusted
        if t <= times[0]:
            return (t - times[0]) * self._factors[0]
        if t >= times[-1]:
            return adjusted[-1] + (t - times[-1]) * self._factors[-1]
        j = bisect.bisect_right(times, t)
        t0, t1 = times[j - 1], times[j]
        return adjusted[j - 1] + (adjusted[j] - adjusted[j - 1]) * (t - t0) / (t1 - t0)

    def adjusted(self, a: float, b: float) -> float:
        """Reference-host seconds between wall times `a` <= `b`."""
        return self._at(b) - self._at(a)

    def factor(self) -> float:
        """Median speed factor over the run, for reporting."""
        return statistics.median(self._factors)
