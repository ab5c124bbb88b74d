"""Rival stepping procedure built on WKB basis functions.

One step fits the current (phi, phi', phi'') to the two-dimensional span of
approximate basis solutions f+ and f- and evaluates the fit at x + h. With
the order-2 basis f = a^(-1/4) exp(+-i phase/eps); the order-3 basis carries
the extra real factor exp(eps^2 phi3) with phi3 = b / (2 sqrt(a)), obtained
from the next power of the eikonal recursion (any additive constant in phi3
is absorbed by the fitted coefficients). Whatever the basis order, the
procedure is first order in the step size; its error estimate therefore
differences two basis orders rather than two h-orders. Both orders are
built from the same jets of a, sqrt(a) and b, so `wkb_basis` returns the
two bases at a point and `rkwkb_step` the two steps (order 2, order 3).
Each step gauges the phase at its start point; the fitted coefficients
absorb the constant offset, so only the step's own increment is needed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .phase import PhaseProvider
from .state import WaveState, WKBInadmissibleError
from .wkb_core import b_jet, jet_div

# Below this magnitude the 2x2 fit denominators count as degenerate and the
# step is rejected rather than evaluated.
DEGENERATE_DENOM = 1e-30


@dataclass(frozen=True)
class WKBBasis:
    """Basis pair evaluations at one point: f+-, f+-', f+-''."""

    order: int
    f_plus: complex
    f_minus: complex
    df_plus: complex
    df_minus: complex
    d2f_plus: complex
    d2f_minus: complex


def wkb_basis(problem, x: float,
              theta: float) -> tuple[WKBBasis, WKBBasis]:
    """Basis pairs and derivatives at x for WKB orders 2 and 3, where
    theta is phase(x)/eps (modulo 2*pi) in the caller's gauge.

    Derivatives are produced analytically: with f = exp(L),
    f' = L' f and f'' = (L'^2 + L'') f, where L collects the amplitude
    log, the oscillatory phase and (order 3) the eps^2 phi3 correction.
    """
    eps = problem.epsilon
    a, s, bj = b_jet(problem, x, 2)
    # Amplitude log: -(1/4) log a; only its derivatives are needed.
    a1 = a[1]
    a2 = 2.0 * a[2]
    amp1 = -0.25 * a1 / a[0]
    amp2 = -0.25 * (a2 / a[0] - (a1 / a[0]) ** 2)
    # Oscillatory phase derivative (sqrt(a) - eps^2 b) and its derivative.
    eps2 = eps * eps
    ph1 = s[0] - eps2 * bj[0]
    ph2 = s[1] - eps2 * bj[1]  # jet index 1 holds the first derivative
    amp = a[0] ** -0.25
    osc = cmath.exp(1j * theta)

    def basis(order, corr, c1, c2):
        f_plus = amp * corr * osc
        f_minus = amp * corr / osc
        lp_plus = amp1 + c1 + 1j * ph1 / eps
        lp_minus = amp1 + c1 - 1j * ph1 / eps
        lpp_plus = amp2 + c2 + 1j * ph2 / eps
        lpp_minus = amp2 + c2 - 1j * ph2 / eps
        return WKBBasis(
            order=order,
            f_plus=f_plus,
            f_minus=f_minus,
            df_plus=lp_plus * f_plus,
            df_minus=lp_minus * f_minus,
            d2f_plus=(lp_plus * lp_plus + lpp_plus) * f_plus,
            d2f_minus=(lp_minus * lp_minus + lpp_minus) * f_minus,
        )

    p3 = jet_div(bj, [2.0 * sk for sk in s], 2)  # phi3 jet
    try:
        corr = math.exp(eps2 * p3[0])
    except OverflowError as exc:  # large b over a tiny sqrt(a)
        raise WKBInadmissibleError(
            f"order-3 basis factor exp({eps2 * p3[0]}) overflows") from exc
    return (basis(2, 1.0, 0.0, 0.0),
            basis(3, corr, eps2 * p3[1], eps2 * 2.0 * p3[2]))


def _fit_pair(v0: complex, v1: complex, b0: WKBBasis, use_derivs: bool):
    """Solve the 2x2 system matching (v0, v1) to the basis at the step start.

    use_derivs=False matches (f, f'); True matches (f', f'')."""
    if use_derivs:
        gp, gm = b0.df_plus, b0.df_minus
        hp, hm = b0.d2f_plus, b0.d2f_minus
    else:
        gp, gm = b0.f_plus, b0.f_minus
        hp, hm = b0.df_plus, b0.df_minus
    denom = hp * gm - hm * gp
    if abs(denom) < DEGENERATE_DENOM:
        raise WKBInadmissibleError("degenerate basis fit denominator")
    coef_plus = (v1 * gm - v0 * hm) / denom
    coef_minus = -(v1 * gp - v0 * hp) / denom
    return coef_plus, coef_minus


def rkwkb_step(problem, provider: PhaseProvider, state: WaveState,
               h: float) -> tuple[WaveState, WaveState]:
    """One basis-fit step of size h from `state` with each basis order.

    Returns (order-2 result, order-3 result). phi'' at the start is taken
    from the differential equation itself.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    x0 = state.x
    x1 = x0 + h
    bases0 = wkb_basis(problem, x0, 0.0)
    theta1 = math.fmod(provider.increment(x0, x1) / problem.epsilon, math.tau)
    bases1 = wkb_basis(problem, x1, theta1)
    ddphi = -problem.field(x0) * state.phi / problem.epsilon ** 2
    out = []
    for basis0, basis1 in zip(bases0, bases1):
        gamma_p, gamma_m = _fit_pair(state.phi, state.dphi, basis0, False)
        delta_p, delta_m = _fit_pair(state.dphi, ddphi, basis0, True)
        phi_next = gamma_p * basis1.f_plus + gamma_m * basis1.f_minus
        dphi_next = delta_p * basis1.df_plus + delta_m * basis1.df_minus
        out.append(WaveState(x1, complex(phi_next), complex(dphi_next)))
    return out[0], out[1]
