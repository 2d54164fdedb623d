"""Host-speed calibration for the timed run.

The benchmark shares its cores with other machines, and their load changes
how fast the same Python code runs by up to 2x, within seconds and from
one minute to the next; CPU time rises with wall time, so no clock the
process can read avoids it.  `Calibration` measures that speed while the
jobs run: every `INTERVAL` seconds a SIGALRM handler runs a fixed kernel
and times it.  The kernel does what uqbench's scalar layer does most,
multiplying sparse Laurent polynomials held as {exponent: Fraction} dicts,
on a fixed table of about a megabyte, and it calls nothing in uqbench, so a
change to the program cannot change it.  A run's `slowdown` is the mean
kernel time over `KERNEL_REF_S`, the kernel's time on an idle core of the
host the benchmark was defined on (a 2-vCPU Xeon VM, Python 3.11.7).

Handler time is kept in `spent`, so callers can take it out of the times
they measure.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.025
KERNEL_REF_S = 0.0005
TABLE_SIZE = 2048


class Calibration:
    def __init__(self):
        rng = random.Random(0)
        self._table = [{e: Fraction(rng.randrange(1, 999), rng.randrange(1, 999))
                        for e in range(-1, 2 + i % 5)}
                       for i in range(TABLE_SIZE)]
        self._pos = 0
        self._previous = None
        self.samples: list[float] = []
        self.spent = 0.0

    def kernel(self) -> int:
        terms = 0
        for j in range(4):
            a = self._table[(self._pos + 131 * j) % TABLE_SIZE]
            b = self._table[(self._pos + 71 * j + 5) % TABLE_SIZE]
            product: dict[int, Fraction] = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
            terms += len(product)
        self._pos = (self._pos + 997) % TABLE_SIZE
        return terms

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "Calibration":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def slowdown(self) -> float:
        """Mean kernel time over the reference time; 1.0 without samples."""
        if not self.samples:
            return 1.0
        return statistics.mean(self.samples) / KERNEL_REF_S
