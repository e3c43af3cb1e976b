"""Host-speed probe: times a fixed snippet at regular intervals during a job.

On a shared host the same job runs up to twice as slow in phases that
last from seconds to minutes, and CPU time slows as much as wall time,
so neither can be compared between runs taken minutes apart.  The probe
measures the host's speed while the job runs: every ``INTERVAL_S`` a
timer signal interrupts the job between bytecodes and times
``snippet``, a fixed pure-Python loop of float arithmetic and ``math``
calls like the package's nested-sum kernels.  The snippet does not
touch the package, so a change to the package cannot change it.

A sample's speed is ``REFERENCE_S`` over the snippet's time: 1.0 at the
reference speed, 0.5 when the host runs the snippet half as fast.  The
samples are evenly spaced in time, so their mean is the share of
reference-speed work the host allowed in a phase, and a time measured
in that phase times the mean is the time it would take at the
reference speed.  A mean of speeds, not of snippet times, keeps one
sample that lands in a pause of the whole machine from counting more
than the 25 ms it stands for.  The probe costs about
``SNIPPET_S / INTERVAL_S`` of the job's time, in every job alike.

The module imports only the standard library, so it can start before
the package is imported and measure the speed during the import too.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL_S = 0.025
# Median time of ``snippet`` on an idle 2-core x86-64 host (Python 3.11).
REFERENCE_S = 0.000200
# A phase with fewer samples than this is given the speed over the whole job.
MIN_SAMPLES = 5


def snippet() -> float:
    acc = 0.0
    for n in range(800):
        x = n * 0.001 + 1.0
        acc += math.exp(-x) * math.log(x) / (x + n)
    return acc


class Probe:
    """Samples ``(speed, monotonic end)`` of ``snippet`` on SIGALRM."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        snippet()
        t1 = time.perf_counter()
        self.samples.append((REFERENCE_S / (t1 - t0), time.clock_gettime(time.CLOCK_MONOTONIC)))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start: float, end: float) -> float:
        """Mean speed over the samples taken between two ``CLOCK_MONOTONIC`` readings."""
        phase = [speed for speed, at in self.samples if start <= at <= end]
        if len(phase) < MIN_SAMPLES:
            phase = [speed for speed, _ in self.samples]
        return statistics.fmean(phase)
