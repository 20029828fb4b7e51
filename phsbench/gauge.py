"""Machine-speed gauge: scales timings to a machine of fixed speed.

On a machine shared with other tenants the same phs work takes up to 2x
longer, with CPU time equal to wall time (the process is slowed, not
preempted), and the slowdown switches on and off within about 0.1 s.  The
gauge times a small fixed calibration kernel of the same kind of work as
phs (a 3x3 LAPACK call, a per-node einsum and interpreter-bound Python,
about 0.05 ms, timed after an untimed run so that it runs from warm
caches) between timed calls, at most every INTERVAL seconds.  A timing
over [start, end] is then scaled by NOMINAL_S / c, with c the mean kernel
time of the readings in [start - WINDOW, end + WINDOW] and of at least
the NEAREST readings on either side: the result is what the timing would
read on a machine where the kernel takes NOMINAL_S.

Measured over 120 s of phs.classify on the network fixture while the
machine was busy, split into 10-second windows: the spread (IQR / median)
of the window p50 was 0.09 raw and 0.03 scaled, that of the window p99
0.7 raw and 0.1 scaled.  A gauge read every 0.25 s with a 2.5 ms kernel
left them at 0.1 and 0.2: it is too slow to follow the slowdown.
"""

from __future__ import annotations

import math
import time

import numpy as np

clock = time.perf_counter

INTERVAL = 0.01
WINDOW = 0.05
# About the kernel's 5th-percentile time on a 2-vCPU Intel Xeon VM shared with
# other tenants, where this benchmark was tuned.
NOMINAL_S = 45e-6
KERNEL_ROUNDS = 2
# Most kernel runs in one reading, and fewest readings a timing is scaled by.
MAX_ROUNDS = 50
NEAREST = 3


class Gauge:
    """Calibration readings (time, kernel seconds) and the scale factors
    they imply.  ``spent`` is the total time spent in readings."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        self._a = a + a.conj().T
        self._b = rng.standard_normal((64, 3, 3)) + 0j
        self._g = rng.standard_normal((64, 3)) + 0j
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self.spent = 0.0
        self._last = -math.inf
        self._next = 0.0

    def _kernel(self) -> float:
        acc = 0.0
        for _ in range(KERNEL_ROUNDS):
            w, _v = np.linalg.eigh(self._a)
            acc += float(np.einsum("nij,nj->ni", self._b, self._g).real.sum()) + float(w[0])
            acc += sum(i * 0.5 for i in range(50))
        return acc

    def tick(self, force: bool = False) -> bool:
        """Take a reading if INTERVAL has passed since the last one; say
        whether one was taken."""
        begin = clock()
        if begin < self._next and not force:
            return False
        # about 1 % of the time since the last reading, so that sparse
        # readings (between long calls) are as precise as dense ones
        rounds = int(min(max((begin - self._last) / INTERVAL, 1), MAX_ROUNDS))
        self._kernel()  # untimed: brings the kernel's code and data into the caches
        start = clock()
        for _ in range(rounds):
            self._kernel()
        end = clock()
        self.times.append((start + end) / 2)
        self.kernel_s.append((end - start) / rounds)
        self.spent += end - begin
        self._last = end
        self._next = end + INTERVAL
        return True

    def scale(self, samples) -> np.ndarray:
        """Scaled durations of ``samples``, a sequence of (mid time, seconds):
        each divided by the mean kernel time of the readings within WINDOW
        of it, and at least the NEAREST readings before and after it."""
        if not len(samples):
            return np.empty(0)
        mids, durations = np.asarray(samples, dtype=float).T
        times = np.asarray(self.times)
        kernel = np.asarray(self.kernel_s)
        starts, ends = mids - durations / 2, mids + durations / 2
        lo = np.minimum(np.searchsorted(times, starts - WINDOW),
                        np.maximum(np.searchsorted(times, starts) - NEAREST, 0))
        hi = np.maximum(np.searchsorted(times, ends + WINDOW, side="right"),
                        np.minimum(np.searchsorted(times, ends) + NEAREST, times.size))
        sums = np.r_[0.0, np.cumsum(kernel)]
        return durations * NOMINAL_S * (hi - lo) / (sums[hi] - sums[lo])
