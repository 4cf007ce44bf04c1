"""Host-speed normalisation of measured times.

On a shared host the same pure-Python work can take 20-40 % longer from
one second to the next, and CPU time rises with wall time, so neither
separates a slower program from a slower host.  ``Sampler`` runs a fixed
snippet of exact-rational work from a timer signal every ``INTERVAL``
seconds while jobs run, and ``factor(t0, t1)`` turns the snippet's median
cost around an interval into a speed factor: a job's time times that factor
is its time on a host where the snippet takes ``REFERENCE_S``.  The time
spent in the samples themselves is tracked so that callers can subtract it.
"""

from __future__ import annotations

import signal
import statistics
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.01
REFERENCE_S = 0.0004


def snippet() -> float:
    """Seconds taken by the fixed calibration work (Fraction arithmetic,
    comparisons, dict stores: the library's staple operations)."""
    start = perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 60):
        q = Fraction(i, i % 7 + 2)
        acc += q
        seen[q] = max(acc, q) > q
    return perf_counter() - start


class Sampler:
    def __init__(self):
        self.times = array("d")
        self.costs = array("d")
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        cost = snippet()
        self.times.append(start)
        self.costs.append(cost)
        self.spent += perf_counter() - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float, t1: float) -> float:
        """Speed factor over [t0, t1] from the median cost of the samples
        inside it and the nearest one on each side, so that one sample
        slowed by a stall does not speed up every job around it."""
        lo = max(bisect_left(self.times, t0) - 1, 0)
        hi = min(bisect_right(self.times, t1) + 1, len(self.times))
        if hi <= lo:
            return REFERENCE_S / snippet()
        return REFERENCE_S / statistics.median(self.costs[lo:hi])
