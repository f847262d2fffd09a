"""A fixed reference kernel that gauges how fast the machine runs Python.

The benchmark's machine shares its cores with other tenants, and its
speed for object-heavy Python changes by up to 1.6x over tens of seconds;
a whole run can fall into a slow or a fast phase. So every timed sample
of the end-to-end metrics is scaled by the speed of this kernel, measured
just before and just after the sample:

    scaled = wall * NOMINAL_S / mean(kernel before, kernel after)

The kernel does what the pipeline spends its time on (splitting CSV
text, parsing dates and floats, building tuples, sorting) but calls no
shiftminer code, so no change to the program can move it. It runs with
the garbage collector paused, so the program's heap does not leak into
the gauge.
"""

from __future__ import annotations

import gc
import statistics
from datetime import date
from time import perf_counter

import numpy as np

# Kernel time that defines one reference second: the kernel's typical time
# on the 2-vCPU VM the bounds were set on (Python 3.11.7), so scaled times
# read close to wall seconds there.
NOMINAL_S = 0.025
REPEATS = 5  # kernel calls per measurement; the measurement is their median
ROWS = 20_000

_TEXT = "\n".join(
    f"{date.fromordinal(730_000 + i).isoformat()},{v:.6g}"
    for i, v in enumerate(np.random.default_rng(0).normal(size=ROWS))
)


def _kernel() -> int:
    rows = []
    for line in _TEXT.split("\n"):
        day, value = line.split(",")
        rows.append((date.fromisoformat(day), float(value)))
    values = tuple(row[1] for row in rows)
    return len(sorted(rows, key=lambda row: row[1])) + len(values)


class Gauge:
    """Measures the kernel on demand and keeps every measurement."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # seconds per kernel call

    def measure(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(REPEATS):
                start = perf_counter()
                _kernel()
                times.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(statistics.median(times))
        return self.samples[-1]


def scale(wall: float, before: float, after: float) -> float:
    """``wall`` seconds in reference seconds, given the kernel times around it."""
    return wall * NOMINAL_S / ((before + after) / 2)
