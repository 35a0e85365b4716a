"""Host speed, for stating measured times at one reference speed.

The virtual machines this benchmark runs on change speed by 25-40% for
minutes at a time, with the load of other tenants; every Python operation
slows together.  A whole run can fall in a fast or a slow stretch, so raw
times of identical code differ from run to run by more than the changes the
benchmark is meant to show.  Each run therefore times, next to the
operations, a fixed piece of pure-Python work that shares no code with
braidhom: a product of two sparse two-variable polynomials held in dicts,
the same kind of work as braidhom's ring.  A measured time t is reported as

    t * REFERENCE_S / kernel_s

where kernel_s is the median of three kernel runs made just before and just
after the operation (the two factors are averaged; the kernel is run again
at most every `every_s` seconds), and REFERENCE_S is the kernel's median
time on the machine the benchmark was tuned on (2-core x86-64 virtual
machine, Python 3.11).  A change to braidhom moves the scaled time as much
as the raw one; a change in host speed moves the kernel with it and
cancels.  The raw figures are kept next to the scaled ones.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

REFERENCE_S = 1.7e-3


def _operand(rng: random.Random) -> list[tuple[tuple[int, int], int]]:
    terms = {}
    while len(terms) < 60:
        terms[(rng.randint(-8, 8), rng.randint(-8, 8))] = rng.choice((-3, -2, -1, 1, 2, 3))
    return list(terms.items())


_RNG = random.Random("hostspeed")
_A, _B = _operand(_RNG), _operand(_RNG)


def kernel() -> float:
    """Seconds taken by one fixed polynomial product."""
    start = perf_counter()
    out: dict[tuple[int, int], int] = {}
    for (i, j), c in _A:
        for (k, l), d in _B:
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + c * d
    return perf_counter() - start


class HostClock:
    """Factor that scales a time measured now to the reference speed."""

    def __init__(self, every_s: float = 0.1):
        self.every_s = every_s
        self.last = float("-inf")
        self.factor = 1.0
        self.factors: list[float] = []

    def refresh(self) -> float:
        """The current factor, measuring the kernel again if it is due."""
        if perf_counter() - self.last >= self.every_s:
            self.factor = REFERENCE_S / statistics.median(kernel() for _ in range(3))
            self.factors.append(self.factor)
            self.last = perf_counter()
        return self.factor
