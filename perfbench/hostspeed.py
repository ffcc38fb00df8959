"""Host speed factor: cancel the sandbox's slow phases out of the timings.

On the shared 2-vCPU host this benchmark was built on, a fixed pure-Python
loop sampled once a second for 100 s took between 68 and 110 ms, in slow
and fast phases lasting seconds to tens of seconds.  A phase can cover a
whole run, so more work per run and medians do not remove it: raw host
times of one workload spread by 20-28 % (quartile distance over median)
from run to run.

Every timing the benchmark reports is therefore divided by the host speed
factor measured around it: the median time of :func:`unit` — a fixed integer
loop that touches no simulator code — over :data:`REFERENCE_S`.  Samples are
taken between the timed pieces of work, so a factor covers the same phase as
the work it scales.  A change to the simulator cannot move the factor: the
loop lives here, outside the program it measures.  The raw host figures and
the factor are printed next to the result line.
"""

from __future__ import annotations

import statistics
import time

#: Seconds :func:`unit` takes on the reference host (the fast phase of the
#: host above); reported timings are seconds on that host.
REFERENCE_S = 0.0034
_ITERATIONS = 50_000


def unit() -> float:
    """Seconds one fixed calibration unit takes right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


class HostSpeed:
    """Calibration samples of one run, and factors over slices of them."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def mark(self) -> int:
        return len(self.samples)

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(unit())

    def factor(self, since: int = 0) -> float:
        """Median slowdown over the reference host, of samples after ``since``."""
        return statistics.median(self.samples[since:]) / REFERENCE_S
