"""Workload table of the benchmark and the per-seed input variants.

Each workload is one problem and one controller setting. A run cycles its
ops over a few h0 variants drawn from the seed, so that a claim can be
re-checked on inputs it was not tuned on:

* seed 0 is the unperturbed setting (one variant, factor exactly 1);
* any other seed scales h0 by `variants` factors on a jittered grid over
  [1 - H0_SPREAD, 1 + H0_SPREAD], the jitter drawn from the seed.

The global error of a run is the median over its variants. One variant is
not enough on `long-cc`: its sup error is set by where the early RKF45
steps land and jumps between 4e-5 and 1.7e-4 under h0 changes as small as
0.1%, so `long-cc` takes the median over 256 variants (one op costs about
0.1 s with its calibration), which keeps the run-to-run spread of that
median near 3%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

H0_SPREAD = 0.10


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    `ceiling` is the correctness gate on an op's sup error: about a decade
    above the seed-0 value, so the seed passes as it stands and a wrong
    answer does not.
    """

    name: str
    why: str
    make_problem: Callable[[], object]
    tol: float
    h0: float
    method: str
    phase: str
    ceiling: float
    variants: int

    def h0_factors(self, seed: int) -> list[float]:
        if seed == 0:
            return [1.0]
        u = random.Random(seed).random()
        n = self.variants
        return [1.0 + H0_SPREAD * (2.0 * (j + u) / n - 1.0) for j in range(n)]

    def config(self, factor: float):
        from wkbmarch import SolverConfig
        return SolverConfig(tol=self.tol, h0=self.h0 * factor,
                            method=self.method, phase=self.phase)


def _airy(x_end: float):
    def make():
        from wkbmarch import make_airy_problem
        return make_airy_problem(1.0, 0.1, x_end)
    return make


def _pcf():
    from wkbmarch import make_pcf_problem
    return make_pcf_problem(2.0 ** -6, 0.01, 1.99)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="airy-mixed",
        why="main method across a turning point: RKF45 then WKB, every "
            "layer busy, 856 reference queries on the continuation branch",
        make_problem=_airy(50.0), tol=1e-9, h0=0.5, method="wkb+rkf45",
        phase="exact", ceiling=1e-7, variants=8),
    Workload(
        name="pcf-rival",
        why="rival rkwkbmod method on the quadratic benchmark: only user "
            "of rkwkb, bypasses WKB step assembly, 5% rejected trials",
        make_problem=_pcf, tol=1e-9, h0=0.05, method="rkwkbmod",
        phase="exact", ceiling=1.5e-5, variants=8),
    Workload(
        name="long-cc",
        why="headline regime on [0.1, 1e8]: 40 WKB steps span millions of "
            "wavelengths, cc phase quadrature, few reference queries",
        make_problem=_airy(1e8), tol=1e-5, h0=0.5, method="wkb+rkf45",
        phase="cc", ceiling=7.5e-4, variants=256),
)}
