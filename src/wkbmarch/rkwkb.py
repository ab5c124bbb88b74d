"""Rival stepping procedure built on WKB basis functions.

One step fits the current (phi, phi', phi'') to the two-dimensional span of
approximate basis solutions f+ and f- and evaluates the fit at x + h. With
the order-2 basis f = a^(-1/4) exp(+-i phase/eps); the order-3 basis carries
the extra real factor exp(eps^2 phi3) with phi3 = b / (2 sqrt(a)), obtained
from the next power of the eikonal recursion (any additive constant in phi3
is absorbed by the fitted coefficients). Whatever the basis order, the
procedure is first order in the step size; its error estimate therefore
differences two basis orders rather than two h-orders. Both orders are
built from the same jets of a, sqrt(a) and b, so `wkb_basis` puts both
bases, each with the left-end part of its fit, in one `BasisEndpoint`
record per point, and `rkwkb_step` returns the two steps (order 2,
order 3) as bare complex scalars (phi2, dphi2, phi3, dphi3). Each step
gauges the phase at its start point; the fitted coefficients absorb the
constant offset, so only the step's own increment is applied.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .phase import PhaseProvider
from .state import WaveState, WKBInadmissibleError
from .wkb_core import b_jet

# Below this magnitude the 2x2 fit denominators count as degenerate and the
# step is rejected rather than evaluated.
DEGENERATE_DENOM = 1e-30


@dataclass(slots=True)
class WKBBasis:
    """One basis pair f+- = exp(L+-) at a point, gauged so that its phase
    vanishes there and f+- = amp, the real amplitude (a^(-1/4) times the
    order-3 correction); L+-'; and, for a step from the point, f' = L' f,
    f'' = (L'^2 + L'') f and the fit denominators of (f, f') and (f', f'')."""

    amp: float
    lp_plus: complex
    lp_minus: complex
    df_plus: complex
    df_minus: complex
    d2f_plus: complex
    d2f_minus: complex
    den_f: complex
    den_df: complex


@dataclass(slots=True)
class BasisEndpoint:
    """What a basis-fit step reads at x: a(x) and the basis pairs of WKB
    orders 2 and 3."""

    x: float
    a: float
    basis: tuple[WKBBasis, WKBBasis]


def _basis(x, amp, l1, l2, w1, w2) -> WKBBasis:
    """The basis pair of amplitude amp, L+-' = l1 +- w1, L+-'' = l2 +- w2."""
    lp_plus, lp_minus = l1 + w1, l1 - w1
    lpp_plus, lpp_minus = l2 + w2, l2 - w2
    # The minus entries are the conjugates of the plus ones up to the sign
    # of zero, so the plus ones alone are checked. They keep their own
    # arithmetic, the generic form's bits: with l1 = -0.0, l1 - w1 has the
    # real part -0.0 where the conjugate of l1 + w1 has 0.0.
    if not (math.isfinite(amp) and cmath.isfinite(lp_plus)
            and cmath.isfinite(lpp_plus)):
        raise WKBInadmissibleError(f"non-finite record entry at x={x}")
    df_plus, df_minus = lp_plus * amp, lp_minus * amp
    d2f_plus = (lp_plus * lp_plus + lpp_plus) * amp
    d2f_minus = (lp_minus * lp_minus + lpp_minus) * amp
    return WKBBasis(amp, lp_plus, lp_minus, df_plus, df_minus, d2f_plus,
                    d2f_minus, df_plus * amp - df_minus * amp,
                    d2f_plus * df_minus - d2f_minus * df_plus)


def wkb_basis(problem, x: float) -> BasisEndpoint:
    """The basis-fit scheme's record at x: a(x) and the basis pairs of WKB
    orders 2 and 3, from one jet pass. L collects the amplitude log, the
    oscillatory phase and (order 3) the eps^2 phi3 correction."""
    eps = problem.epsilon
    # ph1, ph2: the phase derivative sqrt(a) - eps^2 b and its derivative.
    a, s, bj, (ph1, ph2) = b_jet(problem, x, 2)
    # Amplitude log: -(1/4) log a; only its derivatives are needed.
    a1, a2 = a[1], 2.0 * a[2]
    amp1 = -0.25 * a1 / a[0]
    amp2 = -0.25 * (a2 / a[0] - (a1 / a[0]) ** 2)
    eps2 = eps * eps
    amp = a[0] ** -0.25
    w1, w2 = 1j * ph1 / eps, 1j * ph2 / eps
    # phi3 = b / (2 sqrt(a)) to order 2, the quotient recursion written out.
    t0, t1, t2 = 2.0 * s[0], 2.0 * s[1], 2.0 * s[2]
    p0 = bj[0] / t0
    p1 = (bj[1] - (0.0 + t1 * p0)) / t0
    p2 = (bj[2] - (0.0 + t1 * p1 + t2 * p0)) / t0
    try:
        corr = math.exp(eps2 * p0)
    except OverflowError as exc:  # large b over a tiny sqrt(a)
        raise WKBInadmissibleError(
            f"order-3 basis factor exp({eps2 * p0}) overflows") from exc
    # The order-2 correction terms are 0.0; adding them turns -0.0 to 0.0.
    return BasisEndpoint(x, a[0], (
        _basis(x, amp, amp1 + 0.0, amp2 + 0.0, w1, w2),
        _basis(x, amp * corr, amp1 + eps2 * p1, amp2 + eps2 * 2.0 * p2,
               w1, w2)))


def rkwkb_step(problem, provider: PhaseProvider, left: BasisEndpoint,
               right: BasisEndpoint, state: WaveState):
    """One basis-fit step from `state` at left.x to right.x, per order.

    Returns (phi2, dphi2, phi3, dphi3), the order-2 and order-3 results.
    phi'' at the start is taken from the differential equation itself,
    with a(x0) from `left`.
    """
    x0, x1 = left.x, right.x
    if x1 <= x0:
        raise ValueError("step size must be positive")
    theta1 = math.fmod(provider.increment(x0, x1) / problem.epsilon, math.tau)
    osc1 = cmath.exp(1j * theta1)
    phi, dphi = state.phi, state.dphi
    ddphi = -left.a * phi / problem.epsilon ** 2
    (b2, b3), (r2, r3) = left.basis, right.basis
    if (abs(b2.den_f) < DEGENERATE_DENOM or abs(b2.den_df) < DEGENERATE_DENOM
            or abs(b3.den_f) < DEGENERATE_DENOM
            or abs(b3.den_df) < DEGENERATE_DENOM):
        raise WKBInadmissibleError("degenerate basis fit denominator")
    # Per order: g+- fits (phi, phi') on (f, f'), d+- fits (phi', phi'') on
    # (f', f''), and the fits at x1 carry phi and phi'.
    v = dphi * b2.amp
    gp = (v - phi * b2.df_minus) / b2.den_f
    gm = -(v - phi * b2.df_plus) / b2.den_f
    dp = (ddphi * b2.df_minus - dphi * b2.d2f_minus) / b2.den_df
    dm = -(ddphi * b2.df_plus - dphi * b2.d2f_plus) / b2.den_df
    fp, fm = r2.amp * osc1, r2.amp / osc1
    phi2 = gp * fp + gm * fm
    dphi2 = dp * (r2.lp_plus * fp) + dm * (r2.lp_minus * fm)
    v = dphi * b3.amp
    gp = (v - phi * b3.df_minus) / b3.den_f
    gm = -(v - phi * b3.df_plus) / b3.den_f
    dp = (ddphi * b3.df_minus - dphi * b3.d2f_minus) / b3.den_df
    dm = -(ddphi * b3.df_plus - dphi * b3.d2f_plus) / b3.den_df
    fp, fm = r3.amp * osc1, r3.amp / osc1
    return (phi2, dphi2, gp * fp + gm * fm,
            dp * (r3.lp_plus * fp) + dm * (r3.lp_minus * fm))
