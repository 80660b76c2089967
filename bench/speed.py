"""Reference seconds: wall time corrected for the host's speed at the time.

On a host whose cores are shared with other tenants the same pure-Python
work runs at two or more speeds that change every few seconds (here about
1.5x apart, for seconds to minutes at a time), and CPU time moves with wall
time, so neither tells a slower program from a slower host.  ``Clock``
times a fixed reference kernel between operations: one determinant of a
fixed 16 x 16 integer matrix by the oracle's modular elimination, plain
Python that does not use flowinv.  An operation's time in reference seconds
is its wall time divided by the time of ``RUNS_PER_REF_S`` kernel runs at
the host's speed around it, the median of the kernel samples taken within
``WINDOW_S`` of the operation.  One reference second is about one second of
wall time on a 2-core x86-64 virtual machine with Python 3.11.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

import oracle

RUNS_PER_REF_S = 700
SAMPLE_EVERY_S = 0.02  # most wall time between two kernel samples, when ops are short
WINDOW_S = 0.25

_rng = random.Random(0)
REF_ROWS = [[_rng.randint(-5, 5) for _ in range(16)] for _ in range(16)]
del _rng


class Clock:
    def __init__(self) -> None:
        self.times: list[float] = []  # midpoint of each kernel sample
        self.costs: list[float] = []  # its wall seconds

    def sample(self) -> None:
        t0 = time.perf_counter()
        oracle.det(REF_ROWS)
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.costs.append(t1 - t0)

    def tick(self) -> None:
        """Sample the kernel if the last sample is older than SAMPLE_EVERY_S;
        call it between operations and once after the last."""
        if not self.times or time.perf_counter() - self.times[-1] > SAMPLE_EVERY_S:
            self.sample()

    def kernel_s(self, t0: float, t1: float) -> float:
        """Median kernel time of the samples within WINDOW_S of [t0, t1],
        always counting the last sample before t0 and the first after t1."""
        times = self.times
        lo = max(0, min(bisect.bisect_left(times, t0 - WINDOW_S), bisect.bisect_left(times, t0) - 1))
        hi = max(bisect.bisect_right(times, t1 + WINDOW_S), bisect.bisect_right(times, t1) + 1)
        return statistics.median(self.costs[lo:hi])

    def ref_seconds(self, t0: float, t1: float) -> float:
        """The wall interval [t0, t1] in reference seconds."""
        return (t1 - t0) / (self.kernel_s(t0, t1) * RUNS_PER_REF_S)
