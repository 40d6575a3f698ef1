"""Host-speed calibration.

On a shared host the speed of one CPU drifts between runs, by 20 % in calm
periods and by up to 2x in busy ones, and it can change as much within a
second.  Medians inside a run cannot remove drift that lasts minutes, so
every timing is taken next to a fixed
pure-Python kernel in the shapes of the package's hot loops: integer
multiply-adds in a loop, and products of small integer and rational
matrices held as tuples.  A timing is reported in reference seconds:

    reported = measured * REFERENCE_S / median(kernel times around it)

``REFERENCE_S`` is the kernel's time on the reference machine (README), so
there reported times are close to wall seconds.  A change to the package
moves the measured time and not the kernel, so it moves the reported time
by the same factor.  The raw wall times and the factors are kept in each
run's record.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0035
SAMPLES = 3  # kernel runs on each side of a timed region

_rng = random.Random(20081851)
_INTS = tuple(tuple(_rng.randint(-3, 3) for _ in range(8)) for _ in range(8))
_FRACTIONS = tuple(tuple(Fraction(_rng.randint(-3, 3), _rng.randint(1, 4)) for _ in range(6)) for _ in range(6))


def _product(a):
    cols = tuple(zip(*a))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def _kernel():
    s = 0
    for i in range(25000):
        s += i * i
    for _ in range(4):
        _product(_INTS)
    for _ in range(2):
        _product(_FRACTIONS)
    return s


def samples() -> list:
    """Wall times of ``SAMPLES`` kernel runs."""
    out = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        _kernel()
        out.append(time.perf_counter() - start)
    return out


def factor(kernel_times: list) -> float:
    """Multiplier from measured seconds to reference seconds."""
    return REFERENCE_S / statistics.median(kernel_times)
