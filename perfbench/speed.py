"""Host-speed normalisation of the benchmark's CPU times.

On a shared host the speed of a core drifts with what the other tenants
run on it: the same pass of the same workload took from 4.3 to 7.7 CPU
seconds within a few minutes on a 2-core shared Xeon, and the drift
lasts seconds, so it does not average out within a run.  The benchmark
therefore samples the core's speed while it measures.  A ``Sampler``
interrupts the process every ``interval`` CPU seconds (``ITIMER_PROF``)
and times a fixed reference kernel in the signal handler; the mean
kernel time over a measured span is the speed of the core during that
span.

A normalised time is the span's CPU time, less the time spent in the
kernel, scaled to a reference core on which the kernel takes exactly
``REFERENCE_KERNEL_S``.  The kernel mixes Python float arithmetic with
small numpy operations, as the library's optimisers do, so that it
slows with the same contention that slows the library.  It does not
depend on the library: a faster library does not change it.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

REFERENCE_KERNEL_S = 1e-3


class Sampler:
    """Samples of the reference kernel's time, taken while code runs.

    Kernel times are wall-clock (``time.perf_counter``): the process's
    CPU clock is too coarse on some virtual machines to time 1 ms.
    """

    def __init__(self, interval: float):
        # imported here, not with the module, so that the set-up the
        # benchmark times still includes numpy's import
        import numpy

        self._np, self._start = numpy, numpy.arange(4.0)
        self.interval = interval
        self.samples: list[float] = []
        for _ in range(20):  # warm the kernel's code paths
            self.kernel()

    def kernel(self) -> float:
        """Fixed work, about 1 ms on a 2-core shared Xeon."""
        np = self._np
        acc = 0.0
        for i in range(2800):
            acc += (i * 0.5) ** 0.5
        a = self._start
        for _ in range(280):
            a = np.sqrt(a * a + 1.0) - 0.5
        return acc + float(a[0])

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)

    def calibrate(self, n: int = 100) -> float:
        """Speed of the core now, from n kernel runs in a row."""
        for _ in range(n):
            self._sample(None, None)
        speed = REFERENCE_KERNEL_S / statistics.fmean(self.samples[-n:])
        del self.samples[-n:]
        return speed

    @contextmanager
    def measuring(self):
        """Sample during the block; yields a dict that gets cpu_s, normalised_s, speed."""
        result: dict = {}
        self.samples = []
        previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        cpu = time.process_time()
        try:
            yield result
        finally:
            cpu = time.process_time() - cpu
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)
        if not self.samples:  # the block ran for less than one interval
            self._sample(None, None)
            cpu += self.samples[-1]
        kernel_mean = statistics.fmean(self.samples)
        result["cpu_s"] = cpu
        result["speed"] = REFERENCE_KERNEL_S / kernel_mean
        result["normalised_s"] = (cpu - sum(self.samples)) * result["speed"]
