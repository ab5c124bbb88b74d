"""Oscillation-removing transforms and the WKB marching steps.

The pipeline: (phi, phi') -> U (amplitude-normalized first-order system)
-> Z (dominant oscillation factored out). In Z variables one step of the
first-order scheme is Z_{n+1} = (I + A1) Z_n; the second-order scheme uses
Z_{n+1} = (I + A1_mod + A2) Z_n. Every matrix entry carries a factor built
from the correction density b(x) and the derived coefficients b_k, so for
constant a(x) both schemes propagate Z exactly.

All b_k derivatives are expanded analytically through truncated Taylor jets
over the coefficient field's derivative tower; numerical differentiation is
never used here (the schemes multiply b_3 by eps^5 h_2(2s/eps), so noise in
the tower would be amplified badly at small eps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phase import PhaseProvider, TWO_PI
from .state import WaveState, WKBInadmissibleError

# Relative floor for the transformed frequency sqrt(a) - eps^2 b.
PHASE_DERIV_GUARD = 1e-10

_FACTORIALS = np.array([math.factorial(j) for j in range(6)], dtype=float)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Taylor jets: arrays c[0..5] with c[j] = f^(j)(x)/j!.
# Entries beyond each quantity's valid order are carried but never read.
# ---------------------------------------------------------------------------

def jet_mul(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = np.zeros(6)
    for k in range(6):
        out[k] = np.dot(u[:k + 1], v[k::-1])
    return out


def jet_div(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = np.zeros(6)
    out[0] = u[0] / v[0]
    for k in range(1, 6):
        out[k] = (u[k] - np.dot(v[1:k + 1], out[k - 1::-1])) / v[0]
    return out


def jet_sqrt(u: np.ndarray) -> np.ndarray:
    out = np.zeros(6)
    out[0] = math.sqrt(u[0])
    for k in range(1, 6):
        acc = u[k] - np.dot(out[1:k], out[k - 1:0:-1])
        out[k] = acc / (2.0 * out[0])
    return out


def jet_deriv(u: np.ndarray) -> np.ndarray:
    out = np.zeros(6)
    out[:5] = u[1:] * np.arange(1, 6)
    return out


@dataclass(frozen=True)
class BkTable:
    """Values b(x) and b_0(x)..b_3(x) entering the marching matrices."""

    b: float
    b0: float
    b1: float
    b2: float
    b3: float


@dataclass(frozen=True)
class ZState:
    """Transformed solution sample: x and the 2-vector z."""

    x: float
    z: np.ndarray


def b_jet(problem, x: float):
    """The jets (a, sqrt(a), b) at x: one jet pass per point.

    b(x) = -(a^(-1/4))'' / (2 a^(1/4)) is expanded through the chain rule as
    b = -(5/32) a'^2 a^(-5/2) + (1/8) a'' a^(-3/2); its jet is valid to
    order 3, those of a and sqrt(a) to order 5.
    """
    a = np.asarray(problem.field.jet(x), dtype=float) / _FACTORIALS
    if a[0] < problem.tau_guard:
        raise WKBInadmissibleError(f"a({x}) = {a[0]} below tau guard")
    a1 = jet_deriv(a)
    a2 = jet_deriv(a1)
    s = jet_sqrt(a)
    a_s = jet_mul(a, s)            # a^(3/2)
    a2_s = jet_mul(jet_mul(a, a), s)  # a^(5/2)
    term1 = jet_div(jet_mul(a1, a1), a2_s)
    term2 = jet_div(a2, a_s)
    return a, s, -(5.0 / 32.0) * term1 + 0.125 * term2


def eval_bk(problem, x: float) -> BkTable:
    """b and the derived coefficients b_0..b_3 at x.

    b_0 = b / (2 (sqrt(a) - eps^2 b)), and each next b_{k+1} is the
    derivative of b_k over twice the phase derivative, expanded analytically
    over the derivative tower of a (which is why the tower reaches a^(5)).
    """
    eps = problem.epsilon
    _, s, bj = b_jet(problem, x)
    phase = s - eps * eps * bj
    if phase[0] < PHASE_DERIV_GUARD * s[0]:
        raise WKBInadmissibleError(
            f"phase derivative {phase[0]} degenerate at x={x}")
    two_phase = 2.0 * phase
    b0 = jet_div(bj, two_phase)
    b1 = jet_div(jet_deriv(b0), two_phase)
    b2 = jet_div(jet_deriv(b1), two_phase)
    b3 = jet_div(jet_deriv(b2), two_phase)
    return BkTable(b=float(bj[0]), b0=float(b0[0]), b1=float(b1[0]),
                   b2=float(b2[0]), b3=float(b3[0]))


# ---------------------------------------------------------------------------
# Oscillatory kernels
# ---------------------------------------------------------------------------

_H2_SERIES_CUT = 1e-4


def osc_kernels(y: float) -> tuple[complex, complex]:
    """(h1, h2) = (e^{iy} - 1, e^{iy} - 1 - iy) at full relative accuracy.

    h1 uses the cancellation-free identity cos(y) - 1 = -2 sin^2(y/2); h2
    switches to its Taylor series below |y| = 1e-4.
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

def to_U(problem, state: WaveState) -> np.ndarray:
    """(phi, phi') -> U = (a^(1/4) phi, eps (a^(1/4) phi)' / sqrt(a))."""
    a, a1 = problem.field.jet(state.x)[:2]
    if a < problem.tau_guard:
        raise WKBInadmissibleError(f"a({state.x}) = {a} below tau guard")
    eps = problem.epsilon
    root4 = a ** 0.25
    u1 = root4 * state.phi
    u2 = eps * (0.25 * a1 * a ** -1.25 * state.phi + state.dphi / root4)
    return np.array([u1, u2], dtype=complex)


def from_U(problem, x: float, U: np.ndarray) -> WaveState:
    """Inverse of to_U."""
    a, a1 = problem.field.jet(x)[:2]
    if a < problem.tau_guard:
        raise WKBInadmissibleError(f"a({x}) = {a} below tau guard")
    eps = problem.epsilon
    root4 = a ** 0.25
    phi = U[0] / root4
    dphi = U[1] * root4 / eps - 0.25 * a1 * a ** -1.25 * U[0]
    return WaveState(x, complex(phi), complex(dphi))


def to_Z(provider: PhaseProvider, U: np.ndarray, x: float) -> ZState:
    """U -> Z = exp(-i Phi/eps) P U with P = [[i, 1], [1, i]]/sqrt(2)."""
    theta = provider.reduced_phase(x)
    rot = np.exp(-1j * theta)
    z1 = rot * (1j * U[0] + U[1]) / SQRT2
    z2 = (1j * U[1] + U[0]) / (rot * SQRT2)
    return ZState(x=x, z=np.array([z1, z2], dtype=complex))


def from_Z(problem, provider: PhaseProvider, zstate: ZState) -> WaveState:
    """Z -> (phi, phi'), using U = P^H exp(i Phi/eps) Z (P is unitary)."""
    theta = provider.reduced_phase(zstate.x)
    rot = np.exp(1j * theta)
    w1 = rot * zstate.z[0]
    w2 = zstate.z[1] / rot
    u1 = (-1j * w1 + w2) / SQRT2
    u2 = (w1 - 1j * w2) / SQRT2
    return from_U(problem, zstate.x, np.array([u1, u2], dtype=complex))


# ---------------------------------------------------------------------------
# Marching steps
# ---------------------------------------------------------------------------

def assemble_step_matrices(problem, provider: PhaseProvider, x0: float,
                           x1: float):
    """The update matrices (A1, A1_mod, A2) for the step [x0, x1].

    Raises WKBInadmissibleError when any guard fails on the interval; the
    controller turns that into a rejected trial.
    """
    eps = problem.epsilon
    t0 = eval_bk(problem, x0)
    t1 = eval_bk(problem, x1)
    s = provider.increment(x0, x1)
    theta0 = provider.reduced_phase(x0)
    theta1 = theta0 + math.fmod(s / eps, TWO_PI)
    e0p = np.exp(2j * theta0)
    e1p = np.exp(2j * theta1)
    e0m = np.conj(e0p)
    e1m = np.conj(e1p)
    y = 2.0 * s / eps
    h1p, h2p = osc_kernels(y)
    h1m = np.conj(h1p)
    h2m = np.conj(h2p)

    eps2 = eps * eps
    eps3 = eps2 * eps
    eps4 = eps3 * eps
    eps5 = eps4 * eps

    delta12 = -1j * eps2 * (t0.b0 * e0m - t1.b0 * e1m)
    delta21 = -1j * eps2 * (t1.b0 * e1p - t0.b0 * e0p)

    a1 = np.array([
        [0.0, eps3 * t1.b1 * e0m * h1m + delta12],
        [eps3 * t1.b1 * e0p * h1p + delta21, 0.0],
    ], dtype=complex)

    a1mod = np.array([
        [0.0,
         delta12
         + eps3 * (t1.b1 * e1m - t0.b1 * e0m)
         - 1j * eps4 * t1.b2 * e0m * h1m
         - eps5 * t1.b3 * e0m * h2m],
        [delta21
         + eps3 * (t1.b1 * e1p - t0.b1 * e0p)
         + 1j * eps4 * t1.b2 * e0p * h1p
         - eps5 * t1.b3 * e0p * h2p,
         0.0],
    ], dtype=complex)

    trap = 0.5 * (t1.b * t1.b0 + t0.b * t0.b0)
    d_top = (-1j * eps3 * (x1 - x0) * trap
             - eps4 * t0.b0 * t1.b0 * h1m
             + eps5 * t1.b1 * (t0.b0 - t1.b0) * h2m)
    d_bot = (1j * eps3 * (x1 - x0) * trap
             - eps4 * t0.b0 * t1.b0 * h1p
             - eps5 * t1.b1 * (t0.b0 - t1.b0) * h2p)
    a2 = np.array([[d_top, 0.0], [0.0, d_bot]], dtype=complex)
    return a1, a1mod, a2


def wkb_step_pair(zn: ZState, x1: float, problem,
                  provider: PhaseProvider) -> tuple[ZState, ZState]:
    """Both marching orders from the same Z_n over [zn.x, x1].

    Returns (first-order result, second-order result); the controller
    differences them for the error estimate and propagates the second.
    """
    a1, a1mod, a2 = assemble_step_matrices(problem, provider, zn.x, x1)
    return (ZState(x=x1, z=zn.z + a1 @ zn.z),
            ZState(x=x1, z=zn.z + (a1mod + a2) @ zn.z))
