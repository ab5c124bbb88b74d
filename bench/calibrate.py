"""Machine-speed calibration for the benchmark's timings.

The benchmark shares its cores with other tenants, and the speed of one
core drifts by up to 1.7x over a minute. A fixed kernel timed next to every
op tracks that drift: the kernel mixes the work one solver trial is made of
(length-6 numpy jets, complex scalar arithmetic and small-object churn,
Runge-Kutta stages on complex 2-vectors). On a shared 2-vCPU Xeon, the
10-second medians of long-cc op time over kernel time spread by about 3%
where the raw op times spread by 30%; on pcf-rival, 5% against 16%.

A timing is reported in reference seconds: the measured seconds times
NOMINAL_S over the kernel's time, that is, the seconds the work would take
on a machine where one kernel pass takes NOMINAL_S. A sample runs before
each op, between its solve and its verify, and after it; the kernel's
time for a stage is the mean of the two samples that bracket it. The
machine's speed flips within a tenth of a second, so a wider window
mis-scales the stages that run in short slow spells: over ten 30-second
long-cc runs the spread (interquartile range over median) of solve_s_tail
fell from 36% with the median of the samples within a second of the op to
7% with the bracketing pair. The kernel is frozen: changing it or
NOMINAL_S changes every reported time.
"""

from __future__ import annotations

import bisect
import cmath
import math
import statistics
import time

import numpy as np

NOMINAL_S = 0.006


def kernel() -> complex:
    u = np.arange(1.0, 7.0)
    v = np.arange(2.0, 8.0)
    acc = 0j
    # Taylor-jet division on length-6 arrays.
    for _ in range(100):
        out = np.zeros(6)
        out[0] = u[0] / v[0]
        for k in range(1, 6):
            out[k] = (u[k] - np.dot(v[1:k + 1], out[k - 1::-1])) / v[0]
        acc += out[5]
    # Complex scalar arithmetic and small-object churn.
    table = {}
    for i in range(1000):
        z = complex(i, 1.0) * 1.0001
        acc += abs(z) * math.sqrt(i + 1.0) + cmath.exp(1j * (i * 0.001))
        table[i % 64] = (z, acc)
    # Six-stage Runge-Kutta stages on complex 2-vectors.
    y0 = np.array([1.0 + 0.5j, 0.25 - 1j])
    for i in range(40):
        ks = []
        for stage in range(6):
            yi = y0.copy()
            for k in ks:
                yi += 0.0025 * k
            ki = np.array([yi[1], -(1.0 + 0.001 * i) * yi[0]], dtype=complex)
            if not np.all(np.isfinite(ki.view(float))):
                raise ArithmeticError("calibration kernel diverged")
            ks.append(ki)
        acc += complex((y0 + 0.01 * sum(0.2 * k for k in ks))[0])
    return acc


def kernel_s() -> float:
    """Median seconds of one kernel pass, over three passes run now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Calibration:
    """Kernel samples taken between ops, and the scale they give each op."""

    def __init__(self):
        self.times: list[float] = []
        self.values: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.values.append(kernel_s())
        self.times.append(0.5 * (t0 + time.perf_counter()))

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per measured second for work in [start, end],
        which lies between two samples."""
        before = bisect.bisect_left(self.times, start) - 1
        after = bisect.bisect_right(self.times, end)
        if before < 0 or after >= len(self.times):
            raise ValueError("work not bracketed by calibration samples")
        return NOMINAL_S / (0.5 * (self.values[before] + self.values[after]))
