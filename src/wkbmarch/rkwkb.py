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
bases, without their phase factor, in a point's endpoint record and
`rkwkb_step` returns the two steps (order 2, order 3). Each step gauges
the phase at its start point; the fitted coefficients absorb the constant
offset, so only the step's own increment is applied.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .phase import PhaseProvider
from .state import WaveState, WKBInadmissibleError
from .wkb_core import Endpoint, b_jet

# Below this magnitude the 2x2 fit denominators count as degenerate and the
# step is rejected rather than evaluated.
DEGENERATE_DENOM = 1e-30


@dataclass(slots=True)
class WKBBasis:
    """One basis pair f+- = exp(L+-) at a point, without its phase factor:
    the real amplitude (a^(-1/4) times the order-3 correction) and the
    log-derivatives L+-' and L+-''."""

    amp: float
    lp_plus: complex
    lp_minus: complex
    lpp_plus: complex
    lpp_minus: complex

    def at(self, osc: complex):
        """(f, f', f'') as (plus, minus) pairs, where osc = exp(i theta)
        and theta is phase/eps at the point in the caller's gauge:
        f+- = amp osc^(+-1), f' = L' f and f'' = (L'^2 + L'') f."""
        f_plus = self.amp * osc
        f_minus = self.amp / osc
        return ((f_plus, f_minus),
                (self.lp_plus * f_plus, self.lp_minus * f_minus),
                ((self.lp_plus * self.lp_plus + self.lpp_plus) * f_plus,
                 (self.lp_minus * self.lp_minus + self.lpp_minus) * f_minus))


def wkb_basis(problem, x: float) -> Endpoint:
    """The basis-fit scheme's record at x: a(x) and the basis pairs of WKB
    orders 2 and 3, from one jet pass.

    Derivatives are produced analytically: with f = exp(L),
    f' = L' f and f'' = (L'^2 + L'') f, where L collects the amplitude
    log, the oscillatory phase and (order 3) the eps^2 phi3 correction.
    """
    eps = problem.epsilon
    # ph1, ph2: the phase derivative sqrt(a) - eps^2 b and its derivative.
    a, s, bj, (ph1, ph2, _, _) = b_jet(problem, x)
    # Amplitude log: -(1/4) log a; only its derivatives are needed.
    a1 = a[1]
    a2 = 2.0 * a[2]
    amp1 = -0.25 * a1 / a[0]
    amp2 = -0.25 * (a2 / a[0] - (a1 / a[0]) ** 2)
    eps2 = eps * eps
    amp = a[0] ** -0.25

    def basis(corr, c1, c2):
        f = WKBBasis(amp * corr,
                     amp1 + c1 + 1j * ph1 / eps, amp1 + c1 - 1j * ph1 / eps,
                     amp2 + c2 + 1j * ph2 / eps, amp2 + c2 - 1j * ph2 / eps)
        # The minus entries are the conjugates of the plus ones.
        if not (math.isfinite(f.amp) and cmath.isfinite(f.lp_plus)
                and cmath.isfinite(f.lpp_plus)):
            raise WKBInadmissibleError(f"non-finite record entry at x={x}")
        return f

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
    return Endpoint(x, a[0], basis=(basis(1.0, 0.0, 0.0), basis(
        corr, eps2 * p1, eps2 * 2.0 * p2)))


def _fit_pair(v0: complex, v1: complex, g, h):
    """Coefficients (c+, c-) with c+ (g+, h+) + c- (g-, h-) = (v0, v1), for
    basis values g and derivatives h given as (plus, minus) pairs."""
    gp, gm = g
    hp, hm = h
    denom = hp * gm - hm * gp
    if abs(denom) < DEGENERATE_DENOM:
        raise WKBInadmissibleError("degenerate basis fit denominator")
    coef_plus = (v1 * gm - v0 * hm) / denom
    coef_minus = -(v1 * gp - v0 * hp) / denom
    return coef_plus, coef_minus


def rkwkb_step(problem, provider: PhaseProvider, left: Endpoint,
               right: Endpoint,
               state: WaveState) -> tuple[WaveState, WaveState]:
    """One basis-fit step from `state` at left.x to right.x, per order.

    Returns (order-2 result, order-3 result). phi'' at the start is taken
    from the differential equation itself, with a(x0) from `left`.
    """
    x0, x1 = left.x, right.x
    if x1 <= x0:
        raise ValueError("step size must be positive")
    theta1 = math.fmod(provider.increment(x0, x1) / problem.epsilon, math.tau)
    osc1 = cmath.exp(1j * theta1)
    ddphi = -left.a * state.phi / problem.epsilon ** 2
    out = []
    for basis0, basis1 in zip(left.basis, right.basis):
        f0, df0, d2f0 = basis0.at(1.0)
        gamma_p, gamma_m = _fit_pair(state.phi, state.dphi, f0, df0)
        delta_p, delta_m = _fit_pair(state.dphi, ddphi, df0, d2f0)
        f1, df1, _ = basis1.at(osc1)
        phi_next = gamma_p * f1[0] + gamma_m * f1[1]
        dphi_next = delta_p * df1[0] + delta_m * df1[1]
        out.append(WaveState(x1, complex(phi_next), complex(dphi_next)))
    return out[0], out[1]
