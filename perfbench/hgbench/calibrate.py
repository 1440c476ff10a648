"""A fixed pure-Python kernel that measures how fast the machine runs right now.

On a host shared with other machines, the same request ran up to 1.8x slower
for seconds or minutes at a time, and whole 30-second runs sat in the slow
state; no statistic of one run's raw times was steady across runs.  Times
are therefore reported at a reference speed: between requests the harness
runs this kernel for about a tenth of the request time, and each round's
times are scaled by REFERENCE_SECONDS / (mean kernel time in that round).
The kernel does the kind of work the package's inner loops do (dict
iteration over tuple keys, Counter, factorials, Fraction sums) and never
changes, so the ratio cancels the machine's speed but not the program's.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from fractions import Fraction

# About one unit's time on the machine the baseline was taken on (2-core
# KVM guest, Intel Xeon, Python 3.11.7) in its fast state; its median over a
# minute was 7.3 ms, its tenth percentile 5.1 ms.  A constant: changing it
# rescales every reported time.
REFERENCE_SECONDS = 0.005
# Kernel time per second of request time.
SHARE = 0.1

_KEYS = {
    tuple(sorted((i * 7919 + j * 104729) % 997 + 1 for j in range(5))): Fraction(1, 24)
    for i in range(400)
}


def unit() -> Fraction:
    """One unit of reference work: leave-one-out multiset counts over every key."""
    weights = [0] * 997
    total = Fraction(0)
    for key, value in _KEYS.items():
        for i in set(key):
            rest = list(key)
            rest.remove(i)
            weight = math.factorial(len(rest))
            for count in Counter(rest).values():
                weight //= math.factorial(count)
            weights[i - 1] += weight
        total += value * weights[key[0] - 1]
    return total


def time_unit() -> float:
    start = time.perf_counter()
    unit()
    return time.perf_counter() - start


def sample(seconds: float) -> list[float]:
    """Run units for about SHARE * seconds, at least one; each unit's time."""
    times = [time_unit()]
    while sum(times) < SHARE * seconds:
        times.append(time_unit())
    return times


def speed(times: list[float]) -> float:
    """Factor that turns seconds measured alongside ``times`` into reference seconds."""
    return REFERENCE_SECONDS / (sum(times) / len(times))
