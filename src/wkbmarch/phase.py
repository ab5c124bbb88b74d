"""Phase increments for the oscillatory transforms.

The solver needs the per-step increment s = phase(x1) - phase(x0) of the
phase integral int (sqrt(a) - eps^2 b). It comes either from a closed-form
antiderivative or from Clenshaw-Curtis quadrature on the interval, with
`wkb_core.phase_rates` evaluating the integrand at all nodes in one call. Each
step gauges its own phase at its start point, so only s/eps reduced modulo
2*pi ever reaches an exponential; that quotient is where the phase rounding
happens, while the raw phase grows without bound (about x^(3/2)/eps on the
linear benchmark, ~1e12 at the far end of the long runs).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

from .state import WKBInadmissibleError
from .wkb_core import phase_rates

# Clenshaw-Curtis nodes of the cc phase mode.
CC_NODES = 15


@functools.lru_cache(maxsize=None)
def _cc_nodes_weights(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Chebyshev-Lobatto nodes and Clenshaw-Curtis weights on [-1, 1].

    Weights follow from integrating the Chebyshev interpolant: with
    m_k = int T_k = 2/(1-k^2) for even k (0 for odd), the inverse DCT-I
    gives w_j = (2/n) sig_j * sum_k sig_k m_k cos(k j pi / n) with the
    first/last factors halved. Exact for polynomials of degree <= n. Only
    the left half is computed; the right half is its mirror image, so
    x_(n-j) = -x_j and w_(n-j) = w_j hold exactly.
    """
    half = n // 2 + 1
    # cos(j pi / n) written as an odd function of n - 2j.
    nodes = [math.sin(math.pi * (n - 2 * j) / (2 * n)) for j in range(half)]
    weights = []
    for j in range(half):
        terms = []
        for k in range(0, n + 1, 2):
            # m_k cos(k j pi / n) / 2, with k j reduced modulo 2n first.
            t = math.cos(math.pi * (k * j % (2 * n)) / n) / (1 - k * k)
            terms.append(0.5 * t if k == 0 or k == n else t)
        # Scaling by 4/n last rounds each weight once, not by a shared 2/n.
        w = math.fsum(terms) * 4.0 / n
        weights.append(0.5 * w if j == 0 else w)
    mirror = n + 1 - half
    nodes += [-x for x in reversed(nodes[:mirror])]
    weights += reversed(weights[:mirror])
    return tuple(nodes), tuple(weights)


def clenshaw_curtis(integrand: Callable[[list[float]], Sequence[float]],
                    a: float, b: float, nodes: int = CC_NODES) -> float:
    """Clenshaw-Curtis approximation of int_a^b integrand(x) dx.

    `nodes` counts the Chebyshev-Lobatto points; the rule is exact for
    polynomials of degree <= nodes - 1. `integrand` maps the list of nodes
    [b, ..., a] to their values in one call, as in scipy's fixed_quad.
    Raises ValueError, naming the first such node, where a value is not
    finite; every weight is positive, so such a value leaves the sum not
    finite, and only then are the values scanned.
    """
    if nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    xs, ws = _cc_nodes_weights(nodes - 1)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    points = [mid + half * xi for xi in xs]
    # The end nodes are b and a themselves; mid -/+ half can round past them.
    points[0], points[-1] = b, a
    vals = integrand(points)
    total = 0.0
    for wi, val in zip(ws, vals, strict=True):
        total += wi * val
    if not math.isfinite(total):
        for x, val in zip(points, vals):
            if not math.isfinite(val):
                raise ValueError(f"non-finite integrand at x={x}")
    return half * total


class PhaseProvider:
    """Phase increments of one problem in one mode: "exact", "cc", or
    "auto", which picks the closed form when the problem has one.

    `increment` gives the same bits as a fresh provider on any interval,
    so one provider may serve any number of steps and solves. Its one
    piece of state is an exact-mode memo, `(x1, F(x1))` of the last call,
    kept as one tuple so that no reader pairs one call's x with another's
    F: the step after an accepted one starts where its predecessor ended
    and reads F there from the memo, so a march evaluates the closed form
    F once per grid point. A rejected trial's x0 misses and is evaluated
    again, and a call where F raises leaves the memo as it was.
    """

    def __init__(self, problem, mode: str = "exact"):
        if mode == "auto":
            mode = "cc" if problem.phase_antiderivative is None else "exact"
        if mode not in ("exact", "cc"):
            raise ValueError(f"unknown phase mode {mode!r}")
        if mode == "exact" and problem.phase_antiderivative is None:
            raise ValueError("problem has no closed-form phase; use cc mode")
        self.problem = problem
        self.mode = mode
        self._rates = functools.partial(phase_rates, problem)
        self._last = (math.nan, 0.0)  # NaN equals no x0: the first call misses

    def increment(self, x0: float, x1: float) -> float:
        """s = phase(x1) - phase(x0)."""
        if x1 == x0:
            return 0.0
        if self.mode == "cc":
            # phase_rates rejects a non-finite integrand value itself.
            s = clenshaw_curtis(self._rates, x0, x1)
        else:
            F = self.problem.phase_antiderivative
            last_x, last_F = self._last
            try:
                F1 = F(x1)
                # Equal floats have equal bits except for 0.0 and -0.0, so a
                # zero x0 never reads the memo.
                F0 = last_F if x0 == last_x != 0.0 else F(x0)
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise WKBInadmissibleError(
                    f"closed-form phase undefined on [{x0}, {x1}]") from exc
            self._last = (x1, F1)
            s = F1 - F0
        if not isinstance(s, float) or not math.isfinite(s):
            raise WKBInadmissibleError(
                f"phase increment not finite on [{x0}, {x1}]")
        return s
