"""Host speed probe that the benchmark's times are scaled by.

On the shared machine the benchmark was built on, the same code runs up to
45% slower for stretches of seconds to minutes while neighbours are busy,
and every process slows alike.  Plain wall-clock times then spread by
0.2-0.4 (interquartile range over median) between runs, more than any
regression bound.  So every process that runs a timed operation also runs
this fixed pure-Python kernel (big-integer elimination, dict and tuple
traffic, fractions) just before and just after the operation, and the
operation's time is reported scaled to a host on which the kernel takes
``REF_S``:

    reported = measured * REF_S / mean(kernel time before, kernel time after)

A slowdown of the host moves the kernel and the operation together; a
change to clgeom moves only the operation, because the kernel uses no
clgeom code.  Interleaved in one process this way, the scaled times of a
clgeom operation spread 0.05-0.08 across processes and across
fifteen-second windows where the raw times spread 0.3-0.4.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# a typical kernel time on the machine the benchmark was built on; it fixes
# the scale of the reported times and does not affect their spread
REF_S = 0.006


def kernel() -> None:
    rows = [[(i * 7919 + j * 104729) % 1000003 for j in range(48)]
            for i in range(28)]
    for r in range(18):
        p = rows[r]
        for i in range(r + 1, 28):
            f, g = rows[i][r], p[r] or 1
            rows[i] = [g * a - f * b for a, b in zip(rows[i], p)]
    table = {}
    for i in range(8000):
        key = ((i * 31) % 997, i % 13)
        table[key] = table.get(key, 0) + (i * i) % 7
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i, i + 1)


def probe() -> float:
    """Fastest of two kernel runs, in seconds.

    The garbage collector is paused so that a large heap left by the
    measured work (an enumeration holds millions of objects) does not slow
    the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = perf_counter()
            kernel()
            best = min(best, perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


def scaled(times: list, probes: list) -> list:
    """Each time scaled by the probes taken just before and just after it;
    ``probes`` has one entry more than ``times``."""
    return [t * 2 * REF_S / (a + b)
            for t, a, b in zip(times, probes, probes[1:])]
