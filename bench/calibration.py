"""Machine-speed calibration for timings on a shared, fluctuating host.

On a machine shared with other tenants the speed of one core can swing by
a factor of 1.5 or more within seconds, which would drown any change a
program makes.  The benchmark therefore times a fixed pure-Python kernel
between operations, and scales every operation time by ``NOMINAL_NS`` over the
median kernel time measured around it.  A calibrated time is the time the
operation would take on a machine where the kernel takes ``NOMINAL_NS``.
Raw wall-clock figures are printed next to the calibrated ones.
"""

from __future__ import annotations

import bisect
import itertools
import statistics
import time
from fractions import Fraction

NOMINAL_NS = 2_000_000  # kernel time of the nominal machine calibrated times refer to
EVERY_NS = 50_000_000  # at most one kernel sample per 50 ms of work
WINDOW_NS = 2_000_000_000  # samples within 2 s of an operation describe its speed


def kernel() -> int:
    """Fixed work whose time tracks the speed of the core it runs on.

    It mixes what the library's hot loops do: dict, set and integer work,
    exact ``Fraction`` sums over ``itertools.product``, and frozenset
    intersections.  It shares no code with the library, so a change to
    the library cannot change it.
    """
    table: dict[int, int] = {}
    acc = 0
    for i in range(2000):
        table[i & 511] = table.get(i & 511, 0) + i
        acc += len({i, i + 1, i >> 3}) ^ (i * 7 & 255)
    half = Fraction(1, 2)
    best = Fraction(0)
    for point in itertools.product((0, half, 1), repeat=4):
        best = max(best, sum(point, Fraction(0)))
    rows = [frozenset(range(j, j + 3)) for j in range(40)]
    acc += sum(len(a & b) for a, b in zip(rows, rows[1:]))
    return acc + int(best)


def kernel_ns() -> int:
    start = time.perf_counter_ns()
    kernel()
    return time.perf_counter_ns() - start


class Calibration:
    """Kernel samples taken between operations, and the scale they imply."""

    def __init__(self) -> None:
        self.times: list[int] = []
        self.costs: list[int] = []

    def sample(self) -> None:
        self.times.append(time.perf_counter_ns())
        self.costs.append(kernel_ns())

    def sample_if_due(self) -> None:
        if not self.times or time.perf_counter_ns() - self.times[-1] >= EVERY_NS:
            self.sample()

    def scale(self, start: int, end: int) -> float:
        """Factor that turns a wall time measured over ``[start, end]`` into a calibrated one."""
        lo = bisect.bisect_left(self.times, start - WINDOW_NS)
        hi = bisect.bisect_right(self.times, end + WINDOW_NS)
        window = self.costs[lo:hi] or [self.costs[min(lo, len(self.costs) - 1)]]
        return NOMINAL_NS / statistics.median(window)
