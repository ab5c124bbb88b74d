"""Phase bookkeeping for the oscillatory transforms.

The solver needs per-step increments s_n of the phase integral
int (sqrt(a) - eps^2 b) together with unit-modulus exponentials
exp(i k phase / eps) at step endpoints. Increments come either from a
closed-form antiderivative or from Clenshaw-Curtis quadrature on each
interval. Because the raw phase grows without bound (about x^(3/2)/eps on
the linear benchmark, ~1e12 at the far end of the long runs), a provider
keeps a compensated running sum of phase/eps reduced modulo 2*pi before
exponentiating; evaluating exp(i * huge) from a single float would throw
away every digit of locality.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from .state import WKBInadmissibleError
from .wkb_core import b_jet

TWO_PI = 2.0 * math.pi

_CC_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _cc_nodes_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev-Lobatto nodes and Clenshaw-Curtis weights on [-1, 1].

    Weights follow from integrating the Chebyshev interpolant: with
    m_k = int T_k = 2/(1-k^2) for even k (0 for odd), the inverse DCT-I
    gives w_j = (2/n) sig_j * sum_k sig_k m_k cos(k j pi / n) with the
    first/last factors halved. Exact for polynomials of degree <= n.
    """
    cached = _CC_NODE_CACHE.get(n)
    if cached is not None:
        return cached
    if n < 1:
        raise ValueError("need at least 2 quadrature nodes")
    j = np.arange(n + 1)
    theta = j * math.pi / n
    nodes = np.cos(theta)
    k = np.arange(0, n + 1, 2)
    moments = 2.0 / (1.0 - k.astype(float) ** 2)
    moments[0] = 2.0
    sig_k = np.ones_like(moments)
    sig_k[0] = 0.5
    if n % 2 == 0:
        sig_k[-1] = 0.5
    weights = (2.0 / n) * np.cos(np.outer(theta, k)) @ (sig_k * moments)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    _CC_NODE_CACHE[n] = (nodes, weights)
    return nodes, weights


def clenshaw_curtis(integrand: Callable[[float], float], a: float, b: float,
                    nodes: int = 15) -> float:
    """Clenshaw-Curtis approximation of int_a^b integrand(x) dx.

    `nodes` counts the Chebyshev-Lobatto points; the rule is exact for
    polynomials of degree <= nodes - 1.
    """
    if nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    xs, ws = _cc_nodes_weights(nodes - 1)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0.0
    for xi, wi in zip(xs, ws):
        val = integrand(mid + half * xi)
        if not math.isfinite(val):
            raise ValueError(f"non-finite integrand at x={mid + half * xi}")
        total += wi * val
    return half * total


class PhaseProvider:
    """Phase state of one solve: increments plus reduced exponentials.

    A provider is anchored at the last accepted grid point. It advances by
    per-step increments, accumulated in units of phase/eps as a compensated
    sum reduced modulo 2*pi (for the exponentials); the gauge is the phase
    at the point of the last `rebase`, initially x_start. Single-solver
    state; share nothing between solves.
    """

    def __init__(self, problem, mode: str = "exact", nodes: int = 15):
        if mode not in ("exact", "cc"):
            raise ValueError(f"unknown phase mode {mode!r}")
        if mode == "exact" and problem.phase_antiderivative is None:
            raise ValueError("problem has no closed-form phase; use cc mode")
        self.problem = problem
        self.mode = mode
        self.nodes = nodes
        self.rebase(problem.x_start)

    # -- increments ---------------------------------------------------------

    def increment(self, x0: float, x1: float) -> float:
        """s = phase(x1) - phase(x0); pure, no provider state touched."""
        if x1 == x0:
            return 0.0
        if self._memo is not None and self._memo[0] == x0 and self._memo[1] == x1:
            return self._memo[2]
        if self.mode == "exact":
            F = self.problem.phase_antiderivative
            try:
                s = F(x1) - F(x0)
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise WKBInadmissibleError(
                    f"closed-form phase undefined on [{x0}, {x1}]") from exc
            if not isinstance(s, float) or not math.isfinite(s):
                raise WKBInadmissibleError(
                    f"closed-form phase not finite on [{x0}, {x1}]")
        else:
            problem = self.problem
            eps2 = problem.epsilon ** 2

            def integrand(y: float) -> float:
                _, sqrt_a, b = b_jet(problem, y, 0)
                return sqrt_a[0] - eps2 * b[0]

            s = clenshaw_curtis(integrand, x0, x1, self.nodes)
        self._memo = (x0, x1, s)
        return s

    # -- anchored state -----------------------------------------------------

    def advance(self, x_new: float) -> None:
        """Move the anchor to x_new, accumulating the increment."""
        self._advance_reduced(self.increment(self.anchor, x_new)
                              / self.problem.epsilon)
        self.anchor = x_new

    def rebase(self, x_new: float) -> None:
        """Re-anchor with a fresh phase gauge at x_new.

        Used after marching through a region where increments are not
        admissible (turning points); the reconstructed solution is invariant
        under the constant phase offset this introduces.
        """
        self.anchor = x_new
        self._red = 0.0   # (phase(anchor) - phase(gauge))/eps, mod 2*pi
        self._red_c = 0.0
        self._memo: tuple[float, float, float] | None = None

    def _advance_reduced(self, dtheta: float) -> None:
        d = math.fmod(dtheta, TWO_PI)
        y = d - self._red_c
        t = self._red + y
        self._red_c = (t - self._red) - y
        self._red = t
        if self._red > math.pi:
            self._red -= TWO_PI
        elif self._red < -math.pi:
            self._red += TWO_PI

    def reduced_phase(self, x: float) -> float:
        """(phase(x) - phase(gauge))/eps modulo 2*pi, for x at or reachable
        from the anchor."""
        theta = self._red - self._red_c
        if x != self.anchor:
            ds = self.increment(self.anchor, x) / self.problem.epsilon
            theta += math.fmod(ds, TWO_PI)
        return theta

    def exponential(self, x: float, k: int = 1) -> complex:
        """exp(i k (phase(x) - phase(gauge)) / eps) with |result| = 1."""
        return cmath.exp(1j * math.fmod(k * self.reduced_phase(x), TWO_PI))
