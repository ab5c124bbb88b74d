"""Oscillation-removing transforms and the WKB marching steps.

The pipeline: (phi, phi') -> U (amplitude-normalized first-order system)
-> Z (dominant oscillation factored out). In Z variables one step of the
first-order scheme is Z_{n+1} = (I + A1) Z_n; the second-order scheme uses
Z_{n+1} = (I + A1_mod + A2) Z_n. A1 and A1_mod are off-diagonal and A2 is
diagonal, so a step is four complex products per order; U and Z are kept as
pairs of complex scalars. Every matrix entry carries a factor built from the
correction density b(x) and the derived coefficients b_k, so for constant
a(x) both schemes propagate Z exactly.

Every step forms Z at its own start, where the factored-out oscillation
exp(-i phase/eps) is 1; the step's increment theta1 = s/eps modulo 2*pi is
the phase at its end, and `from_Z` rotates back by rot = exp(i theta1),
which `wkb_step_pair` forms once for both orders. The scheme does not
depend on where the phase is referenced, so no phase is carried between
steps. `from_Z` and `from_U` return (phi, phi') as bare complex scalars,
and the controller builds a `WaveState` only for a step it accepts.

Everything a step reads at a grid point x sits in one flat `Endpoint`
record, which `control.integrate` builds once per grid point (`eval_bk`);
a point where a guard trips gets no record, so a step never reads one.

b and all b_k derivatives are expanded analytically through truncated
Taylor jets over the coefficient field's derivative tower, written out in
the rounding order of the generic recursions in tests/test_kernels.py;
numerical differentiation is never used here (the schemes multiply b_3 by
eps^5 h_2(2s/eps), so noise in the tower would be amplified badly at small
eps). `b_jet` is the only place b, and the phase derivative
sqrt(a) - eps^2 b with its guard, are built from the derivatives of a;
`phase_rates` repeats its order-0 heads bit for bit (tests/test_kernels.py).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import isfinite

from .state import WaveState, WKBInadmissibleError

# Relative floor for the transformed frequency sqrt(a) - eps^2 b.
PHASE_DERIV_GUARD = 1e-10

SQRT2 = math.sqrt(2.0)


@dataclass(slots=True)
class Endpoint:
    """What a transform step reads at x: the U factors a^(1/4) and
    a'/(4 a^(5/4)), and b(x) with the derived coefficients b_0..b_3."""

    x: float
    root4: float
    shift: float
    b: float
    b0: float
    b1: float
    b2: float
    b3: float


def b_jet(problem, x: float, order: int):
    """The jets (a, sqrt(a), b, sqrt(a) - eps^2 b) at x as lists of Taylor
    coefficients c_k = f^(k)(x)/k!: at order 3 (`eval_bk`) each to order 3,
    and at order 2 (`wkb_basis`) a, sqrt(a) and b to order 2 and the last
    jet to order 1, what the basis fit reads.

    b(x) = -(a^(-1/4))'' / (2 a^(1/4)) is expanded through the chain rule as
    b = -(5/32) a'^2 a^(-5/2) + (1/8) a'' a^(-3/2), so b to order n reads
    a to order n + 2. The last jet is the phase derivative of the
    oscillatory factor; where it falls below PHASE_DERIV_GUARD * sqrt(a) or
    is not finite, x is inadmissible.

    The order-0 heads, `phase_rates`'s arithmetic, come first, then every
    coefficient to order 2; order 2 returns there, so its lists are the
    heads of order 3's, bit for bit. Sums keep the generic recursion's 0.0
    seed.
    """
    a0, a1, t2, t3, t4, t5 = problem.field.jet(x)
    if a0 < problem.tau_guard:  # before sqrt(a), which a < 0 would fail
        raise WKBInadmissibleError(f"a({x}) = {a0} below tau guard")
    # Jets: s = sqrt(a), w = a^(3/2), aa = a^2, q = a^(5/2), d = a',
    # e = a'', m = a'^2, f = a'^2 / a^(5/2) and g = a'' / a^(3/2).
    s0, aa0, a2 = math.sqrt(a0), a0 * a0, t2 / 2.0
    q0, w0, e0 = aa0 * s0, a0 * s0, a2 * 2
    # b divides by a^(5/2), which underflows to 0 where a is still normal.
    if q0 == 0.0:
        raise WKBInadmissibleError(f"a({x}) = {a0} below tau guard")
    f0, g0 = a1 * a1 / q0, e0 / w0
    b0 = -0.15625 * f0 + 0.125 * g0
    eps2 = problem.epsilon * problem.epsilon
    p0 = s0 - eps2 * b0
    if not PHASE_DERIV_GUARD * s0 <= p0 < math.inf:
        raise WKBInadmissibleError(
            f"phase derivative {p0} degenerate or not finite at x={x}")
    a3, a4 = t3 / 6.0, t4 / 24.0
    d1, d2, d3 = e0, a3 * 3, a4 * 4
    e1, e2 = d2 * 2, d3 * 3
    two_s0 = 2.0 * s0
    s1 = a1 / two_s0
    s2 = (a2 - s1 * s1) / two_s0
    w1 = 0.0 + a0 * s1 + a1 * s0
    w2 = 0.0 + a0 * s2 + a1 * s1 + a2 * s0
    aa1 = 0.0 + a0 * a1 + a1 * a0
    aa2 = 0.0 + a0 * a2 + a1 * a1 + a2 * a0
    q1 = 0.0 + aa0 * s1 + aa1 * s0
    q2 = 0.0 + aa0 * s2 + aa1 * s1 + aa2 * s0
    m1 = 0.0 + a1 * d1 + d1 * a1
    m2 = 0.0 + a1 * d2 + d1 * d1 + d2 * a1
    f1 = (m1 - (0.0 + q1 * f0)) / q0
    f2 = (m2 - (0.0 + q1 * f1 + q2 * f0)) / q0
    g1 = (e1 - (0.0 + w1 * g0)) / w0
    g2 = (e2 - (0.0 + w1 * g1 + w2 * g0)) / w0
    b1, b2 = -0.15625 * f1 + 0.125 * g1, -0.15625 * f2 + 0.125 * g2
    p1 = s1 - eps2 * b1
    if order == 2:
        return [a0, a1, a2], [s0, s1, s2], [b0, b1, b2], [p0, p1]
    a5 = t5 / 120.0
    e3 = a5 * 5 * 4
    s3 = (a3 - (0.0 + s1 * s2 + s2 * s1)) / two_s0
    w3 = 0.0 + a0 * s3 + a1 * s2 + a2 * s1 + a3 * s0
    aa3 = 0.0 + a0 * a3 + a1 * a2 + a2 * a1 + a3 * a0
    q3 = 0.0 + aa0 * s3 + aa1 * s2 + aa2 * s1 + aa3 * s0
    m3 = 0.0 + a1 * d3 + d1 * d2 + d2 * d1 + d3 * a1
    f3 = (m3 - (0.0 + q1 * f2 + q2 * f1 + q3 * f0)) / q0
    g3 = (e3 - (0.0 + w1 * g2 + w2 * g1 + w3 * g0)) / w0
    b3 = -0.15625 * f3 + 0.125 * g3
    return ([a0, a1, a2, a3], [s0, s1, s2, s3], [b0, b1, b2, b3],
            [p0, p1, s2 - eps2 * b2, s3 - eps2 * b3])


def phase_rates(problem, xs) -> list[float]:
    """b_jet(problem, x, order)[3][0], the cc phase integrand, at every x of xs in
    one loop, bit for bit, raising b_jet's error at the first failing x.
    Each node is one call, to the field's written-out heads (a, a', a'')."""
    heads = problem.field.heads
    tau, eps2 = problem.tau_guard, problem.epsilon * problem.epsilon
    rates = []
    for x in xs:
        a0, a1, t2 = heads(x)
        if a0 < tau:
            raise WKBInadmissibleError(f"a({x}) = {a0} below tau guard")
        s0 = math.sqrt(a0)
        q0 = a0 * a0 * s0
        if q0 == 0.0:
            raise WKBInadmissibleError(f"a({x}) = {a0} below tau guard")
        # a'' as b_jet forms it, through its Taylor coefficient a''/2.
        p0 = s0 - eps2 * (-0.15625 * (a1 * a1 / q0)
                          + 0.125 * (t2 / 2.0 * 2 / (a0 * s0)))
        if not PHASE_DERIV_GUARD * s0 <= p0 < math.inf:
            raise WKBInadmissibleError(
                f"phase derivative {p0} degenerate or not finite at x={x}")
        rates.append(p0)
    return rates


def eval_bk(problem, x: float) -> Endpoint:
    """The transform scheme's record at x: the U factors, and b with the
    derived coefficients b_0..b_3, all from one jet pass.

    b_0 = b / (2 (sqrt(a) - eps^2 b)), and each next b_{k+1} is the
    derivative of b_k over twice the phase derivative, so b_k is needed to
    order 3 - k and b to order 3; the quotient recursions are written out.
    """
    (a0, a1, _, _), _, (b, bd1, bd2, bd3), phase = b_jet(problem, x, 3)
    # ydk is the k-th Taylor coefficient of y; t is the 2 phase' jet.
    t0, t1, t2, t3 = [2.0 * p for p in phase]
    b0 = b / t0
    b0d1 = (bd1 - (0.0 + t1 * b0)) / t0
    b0d2 = (bd2 - (0.0 + t1 * b0d1 + t2 * b0)) / t0
    b0d3 = (bd3 - (0.0 + t1 * b0d2 + t2 * b0d1 + t3 * b0)) / t0
    b1 = b0d1 / t0
    b1d1 = (b0d2 * 2 - (0.0 + t1 * b1)) / t0
    b1d2 = (b0d3 * 3 - (0.0 + t1 * b1d1 + t2 * b1)) / t0
    b2 = b1d1 / t0
    b3 = (b1d2 * 2 - (0.0 + t1 * b2)) / t0 / t0
    shift = 0.25 * a1 * a0 ** -1.25
    if not (isfinite(shift) and isfinite(b) and isfinite(b0)
            and isfinite(b1) and isfinite(b2) and isfinite(b3)):
        raise WKBInadmissibleError(f"non-finite record entry at x={x}")
    return Endpoint(x, a0 ** 0.25, shift, b, b0, b1, b2, b3)


# ---------------------------------------------------------------------------
# Oscillatory kernels
# ---------------------------------------------------------------------------

_H2_SERIES_CUT = 1e-4


def osc_kernels(y: float) -> tuple[complex, complex]:
    """(h1, h2) = (e^{iy} - 1, e^{iy} - 1 - iy).

    h1 uses the cancellation-free identity cos(y) - 1 = -2 sin^2(y/2) and
    is at full relative accuracy. h2 is at full relative accuracy only
    below |y| = 1e-4, where it switches to its Taylor series. At and above
    the cut, h2 = h1 - iy keeps the absolute rounding of sin(y), which
    |h2| ~ y^2/2 does not scale down: against mpmath on 1e-4 <= |y| <= 1,
    h2 is within eps |y| (eps = 2^-52), a relative error below 2 eps / |y|
    (2.5e-13 at y = 1.0001e-4 and 8.5e-15 at y = 1e-2), and Im h2 =
    sin(y) - y is within a relative 4 eps / y^2 (7.6e-9 at y = 1.0001e-4).
    """
    half = math.sin(0.5 * y)
    h1 = complex(-2.0 * half * half, math.sin(y))
    if abs(y) >= _H2_SERIES_CUT:
        return h1, h1 - 1j * y
    t = 1j * y
    # h2 = sum_{k>=2} t^k / k!; eight terms leave a tail below 1e-30 here.
    acc = 0j
    for k in range(9, 2, -1):
        acc = (acc + 1.0 / math.factorial(k)) * t
    h2 = (acc + 0.5) * t * t
    return h1, h2


# ---------------------------------------------------------------------------
# U and Z transforms
# ---------------------------------------------------------------------------

def to_U(problem, end: Endpoint, state: WaveState) -> tuple[complex, complex]:
    """(phi, phi') -> U = (a^(1/4) phi, eps (a^(1/4) phi)' / sqrt(a))."""
    u1 = end.root4 * state.phi
    u2 = problem.epsilon * (end.shift * state.phi + state.dphi / end.root4)
    return u1, u2


def from_U(problem, end: Endpoint, U) -> tuple[complex, complex]:
    """Inverse of to_U at end.x: (phi, phi')."""
    u1, u2 = U
    return u1 / end.root4, u2 * end.root4 / problem.epsilon - end.shift * u1


def to_Z(U) -> tuple[complex, complex]:
    """U -> Z = P U with P = [[i, 1], [1, i]]/sqrt(2), formed where U is
    taken (theta = 0, so the oscillation factor is 1 there)."""
    u1, u2 = U
    return (1j * u1 + u2) / SQRT2, (1j * u2 + u1) / SQRT2


def from_Z(problem, end: Endpoint, Z, rot: complex):
    """Z at end.x -> the scalars (phi, phi'), using U = P^H exp(i theta) Z
    with rot = exp(i theta)."""
    z1, z2 = Z
    w1 = rot * z1
    w2 = z2 / rot
    return from_U(problem, end,
                  ((-1j * w1 + w2) / SQRT2, (w1 - 1j * w2) / SQRT2))


# ---------------------------------------------------------------------------
# Marching steps
# ---------------------------------------------------------------------------

def assemble_step_matrices(problem, provider, left: Endpoint,
                           right: Endpoint):
    """The nonzero entries of (A1, A1_mod, A2) for the step [x0, x1]
    between the records `left` and `right`, with Z formed at x0.

    Returns ((A1_12, A1_21), (A1_mod_12, A1_mod_21), (A2_11, A2_22),
    theta1): the off-diagonals of A1 and A1_mod, the diagonal of A2, and
    the phase at x1, s/eps reduced to [-pi, pi]. Raises
    WKBInadmissibleError when the phase increment fails on the interval;
    the controller turns that into a rejected trial.
    """
    eps = problem.epsilon
    x0, x1 = left.x, right.x
    s = provider.increment(x0, x1)
    theta1 = math.remainder(s / eps, math.tau)
    e1p = cmath.exp(2j * theta1)
    e1m = e1p.conjugate()
    h1p, h2p = osc_kernels(2.0 * s / eps)
    h1m = h1p.conjugate()
    h2m = h2p.conjugate()

    eps2 = eps * eps
    eps3 = eps2 * eps
    eps4 = eps3 * eps
    eps5 = eps4 * eps

    delta12 = -1j * eps2 * (left.b0 - right.b0 * e1m)
    delta21 = -1j * eps2 * (right.b0 * e1p - left.b0)

    a1 = (eps3 * right.b1 * h1m + delta12, eps3 * right.b1 * h1p + delta21)

    a1mod = (delta12
             + eps3 * (right.b1 * e1m - left.b1)
             - 1j * eps4 * right.b2 * h1m
             - eps5 * right.b3 * h2m,
             delta21
             + eps3 * (right.b1 * e1p - left.b1)
             + 1j * eps4 * right.b2 * h1p
             - eps5 * right.b3 * h2p)

    trap = 0.5 * (right.b * right.b0 + left.b * left.b0)
    a2 = (-1j * eps3 * (x1 - x0) * trap
          - eps4 * left.b0 * right.b0 * h1m
          + eps5 * right.b1 * (left.b0 - right.b0) * h2m,
          1j * eps3 * (x1 - x0) * trap
          - eps4 * left.b0 * right.b0 * h1p
          - eps5 * right.b1 * (left.b0 - right.b0) * h2p)
    return a1, a1mod, a2, theta1


def wkb_step_pair(problem, provider, left: Endpoint, right: Endpoint, Z):
    """Both marching orders from the same Z_n = (z1, z2) at left.x over
    [left.x, x1], x1 = right.x.

    Returns (first-order Z, second-order Z, rot), with the one rotation
    rot = exp(i theta1) by the phase theta1 = s/eps at x1 that `from_Z`
    applies to both; the controller differences the two results for the
    error estimate and propagates the second.
    """
    (a12, a21), (m12, m21), (d11, d22), theta1 = assemble_step_matrices(
        problem, provider, left, right)
    z1, z2 = Z
    return ((z1 + a12 * z2, z2 + a21 * z1),
            (z1 + (d11 * z1 + m12 * z2), z2 + (m21 * z1 + d22 * z2)),
            cmath.exp(1j * theta1))
