"""A fixed kernel that measures how fast the machine runs right now.

A shared host's speed wanders by a third or more within seconds as other
tenants load its cores and caches.  The benchmark times this kernel between
the calls it times, at most every PACE_S seconds, and scales each tree's
time by the kernel times around it, to the speed at which the kernel takes
REFERENCE_S.  The kernel does the kind of work treelap's hot paths do, in
the interpreter: Fraction additions over objects scattered through a few
megabytes, so that it feels cache pressure as treelap does, Fraction
arithmetic on growing denominators, big-integer multiplication and a plain
integer loop.

The kernel is a yardstick: changing it, or REFERENCE_S, changes every
calibrated figure, so neither may change without a new baseline.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from fractions import Fraction

# the kernel's median time on the machine the baseline in README.md was
# measured on (2 vCPU Intel Xeon VM, Python 3.11.7)
REFERENCE_S = 0.012
PACE_S = 0.1

_rng = random.Random(20261017)
_TABLE = [Fraction(_rng.randrange(1, 10**6), _rng.randrange(1, 10**6)) for _ in range(40000)]
_PICKS = _rng.sample(range(len(_TABLE)), 600)
_FACTORS = [_rng.getrandbits(256) | 1 for _ in range(750)]


def _kernel() -> int:
    acc = Fraction(0)  # Fraction sums over objects scattered in memory
    for j, i in enumerate(_PICKS):
        acc = acc + _TABLE[i] if j % 16 else Fraction(0)
    x = Fraction(1, 3)  # Fraction arithmetic on growing denominators
    for i in range(1, 250):
        acc += x / i
        x = Fraction(x.numerator * 3 + 1, x.denominator * 2 + 1) if i % 50 else Fraction(1, 3)
    s = 1  # big-integer products
    for f in _FACTORS:
        s = (s * f) % (1 << 4096)
    for i in range(5000):  # plain interpreter work
        s += i * i % 7
    return s + acc.numerator


def kernel_seconds(reps: int = 3) -> float:
    """Median time of `reps` runs of the kernel."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Pacer:
    """Kernel timings taken between units of work, and the machine's
    slowness over an interval read back from them."""

    def __init__(self):
        self.at: list[float] = []  # when each timing ended
        self.kernel_s: list[float] = []
        self.measure()

    def measure(self) -> None:
        t0 = time.perf_counter()
        _kernel()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.kernel_s.append(t1 - t0)

    def __call__(self) -> None:
        """Time the kernel if PACE_S seconds have passed since the last timing."""
        if time.perf_counter() - self.at[-1] >= PACE_S:
            self.measure()

    def slowness(self, start: float, end: float) -> float:
        """Median of the two timings before `start` and the two after `end`,
        over REFERENCE_S: above 1 when the machine ran slow."""
        before = bisect.bisect_right(self.at, start)
        after = bisect.bisect_left(self.at, end)
        near = self.kernel_s[max(before - 2, 0):before] + self.kernel_s[after:after + 2]
        return statistics.median(near or self.kernel_s[-1:]) / REFERENCE_S
