"""Host-speed calibration, so a shared machine's noise does not read as a change.

A shared host disturbs single-threaded timings in two ways.  Other
processes take the CPU for a scheduler tick (about 4 ms) several times a
second, which wall time counts and thread CPU time does not.  And the
CPU itself runs up to ~1.7x slower or faster from one few-second stretch
to the next as neighbours load it, which CPU time counts as well.  So the
benchmark times operations in thread CPU time, and while they run a
``SIGALRM`` timer runs a fixed reference kernel (interpreter work plus
small numpy calls, the mix fraczee itself runs) every
``CALIBRATE_EVERY_S``.  An operation's latency is its CPU time minus the
kernel's, scaled to the reference speed: ``net * REFERENCE_S / kernel``,
where ``kernel`` is the mean kernel CPU time over the samples taken within
``SMOOTH_S`` of the operation.  Raw wall times are
kept in the results file next to the scaled ones.
"""

from __future__ import annotations

import bisect
import math
import signal
import time

import numpy as np

#: kernel CPU time that defines the reference speed: about its time on an
#: uncontended 2.1 GHz core of the machine the baseline was measured on, so
#: scaled times read as wall times on that machine when it is quiet
REFERENCE_S = 0.0035
CALIBRATE_EVERY_S = 0.25
#: samples this far either side of an operation enter its speed estimate
SMOOTH_S = 1.0
_LOOPS = 24_000
_NUMPY_CALLS = 300


def kernel_s() -> float:
    """Thread CPU time of one run of the fixed reference kernel."""
    t0 = time.thread_time()
    acc, table = 0.0, {}
    for i in range(_LOOPS):
        acc += math.sqrt(i + 0.5)
        table[i & 1023] = acc
    a = np.linspace(0.1, 1.0, 64)
    for _ in range(_NUMPY_CALLS):
        a = np.exp(-a) + 0.5 * a
    return time.thread_time() - t0


class Speed:
    """Kernel samples on a timer; use as a context manager around the work.

    ``stolen`` is the CPU time spent in the sampler so far: read it before
    and after an operation to take the sampling out of its latency.
    Samples are stamped with ``time.perf_counter``.
    """

    def __init__(self):
        self.at: list[float] = []
        self.kernel: list[float] = []
        self.stolen = 0.0

    def _sample(self, *_):
        c0 = time.thread_time()
        k = kernel_s()
        self.at.append(time.perf_counter())
        self.kernel.append(k)
        self.stolen += time.thread_time() - c0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def mean_kernel(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """Mean kernel time over [t0 - SMOOTH_S, t1 + SMOOTH_S], and at least
        over the samples just before and after [t0, t1]."""
        lo = max(min(bisect.bisect_left(self.at, t0 - SMOOTH_S), bisect.bisect_left(self.at, t0) - 1), 0)
        hi = min(max(bisect.bisect_right(self.at, t1 + SMOOTH_S), bisect.bisect_right(self.at, t1) + 1), len(self.at))
        return math.fsum(self.kernel[lo:hi]) / (hi - lo)

    def scale(self, net_s: float, t0: float, t1: float) -> float:
        """``net_s`` CPU seconds spent over [t0, t1], at the reference speed."""
        return net_s * REFERENCE_S / self.mean_kernel(t0, t1)
