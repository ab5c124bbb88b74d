"""Embedded Runge-Kutta-Fehlberg 4(5) step on the untransformed equation.

The step acts directly on Y = (phi, phi') with phi'' = -a(x) phi / eps^2,
using the classical six-stage Fehlberg tableau, and returns the embedded
pair of 4th- and 5th-order results for the error controller. Near turning
points the solution is smooth and this is the method of choice; in the
oscillatory regime the controller hands over to the transformed steps.
"""

from __future__ import annotations

import cmath

from .state import SolverError, WaveState

# Classical Fehlberg tableau.
_C = (0.0, 1.0 / 4.0, 3.0 / 8.0, 12.0 / 13.0, 1.0, 1.0 / 2.0)
_A = (
    (),
    (1.0 / 4.0,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0)
_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0,
       -9.0 / 50.0, 2.0 / 55.0)


def rkf45_step(problem, state: WaveState,
               h: float) -> tuple[WaveState, WaveState]:
    """One Fehlberg 4(5) step of size h from `state`.

    Returns (4th-order result, 5th-order result) at x + h. Raises
    SolverError on a non-finite right-hand side (overflow or an invalid
    coefficient evaluation).
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    inv_eps2 = 1.0 / problem.epsilon ** 2
    field = problem.field
    x0, phi0, dphi0 = state.x, state.phi, state.dphi
    k_phi, k_dphi = [], []   # stage slopes of phi and phi'
    for i in range(6):
        phi, dphi = phi0, dphi0
        for j, aij in enumerate(_A[i]):
            phi += h * aij * k_phi[j]
            dphi += h * aij * k_dphi[j]
        xi = x0 + _C[i] * h
        ddphi = -field(xi) * phi * inv_eps2
        if not (cmath.isfinite(dphi) and cmath.isfinite(ddphi)):
            raise SolverError(f"non-finite right-hand side near x={xi}")
        k_phi.append(dphi)
        k_dphi.append(ddphi)

    def combine(weights):
        return WaveState(
            x0 + h,
            complex(phi0 + h * sum(b * k for b, k in zip(weights, k_phi))),
            complex(dphi0 + h * sum(b * k for b, k in zip(weights, k_dphi))))

    return combine(_B4), combine(_B5)
