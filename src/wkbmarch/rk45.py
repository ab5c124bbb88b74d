"""Embedded Runge-Kutta-Fehlberg 4(5) step on the untransformed equation.

The step acts directly on Y = (phi, phi') with phi'' = -a(x) phi / eps^2,
using the classical six-stage Fehlberg tableau, and returns the embedded
pair of 4th- and 5th-order results for the error controller as four bare
complex scalars, which the controller scores where they land. Near turning
points the solution is smooth and this is the method of choice; in the
oscillatory regime the controller hands over to the transformed steps.
"""

from __future__ import annotations

from .state import WaveState

# Classical Fehlberg tableau: nodes C<i> (C1 = 0, C5 = 1), weights A<i><j>
# and B4<j>, B5<j>. The weighted sums of the step run left to right, the
# final ones from 0.0, and leave out the zero weights B42, B46 and B52.
C2, C3, C4, C6 = 1.0 / 4.0, 3.0 / 8.0, 12.0 / 13.0, 1.0 / 2.0
A21 = 1.0 / 4.0
A31, A32 = 3.0 / 32.0, 9.0 / 32.0
A41, A42, A43 = 1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0
A51, A52, A53, A54 = 439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0
A61, A62, A63, A64, A65 = (-8.0 / 27.0, 2.0, -3544.0 / 2565.0,
                           1859.0 / 4104.0, -11.0 / 40.0)
B41, B43, B44, B45 = 25.0 / 216.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -0.2
B51, B53, B54, B55, B56 = (16.0 / 135.0, 6656.0 / 12825.0,
                           28561.0 / 56430.0, -9.0 / 50.0, 2.0 / 55.0)


def rkf45_step(problem, state: WaveState, h: float):
    """One Fehlberg 4(5) step of size h from `state`.

    Returns (phi4, dphi4, phi5, dphi5), the 4th- and 5th-order results at
    x + h. Stages are not checked: a non-finite one leaves the member
    difference non-finite, which the controller's screen rejects.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    inv_eps2 = 1.0 / problem.epsilon ** 2
    # a(xi) at each stage by the field's written-out Horner value.
    a_at = problem.field.value
    x0, phi0, dphi0 = state.x, state.phi, state.dphi
    xi = x0 + 0.0 * h  # C1 = 0, kept: it maps x0 = -0.0 to 0.0
    k1, l1 = dphi0, -a_at(xi) * phi0 * inv_eps2
    xi, w1 = x0 + C2 * h, h * A21
    k2, l2 = dphi0 + w1 * l1, -a_at(xi) * (phi0 + w1 * k1) * inv_eps2
    xi, w1, w2 = x0 + C3 * h, h * A31, h * A32
    k3 = dphi0 + w1 * l1 + w2 * l2
    l3 = -a_at(xi) * (phi0 + w1 * k1 + w2 * k2) * inv_eps2
    xi, w1, w2, w3 = x0 + C4 * h, h * A41, h * A42, h * A43
    k4 = dphi0 + w1 * l1 + w2 * l2 + w3 * l3
    l4 = -a_at(xi) * (phi0 + w1 * k1 + w2 * k2 + w3 * k3) * inv_eps2
    xi, w1, w2, w3, w4 = x0 + h, h * A51, h * A52, h * A53, h * A54
    k5 = dphi0 + w1 * l1 + w2 * l2 + w3 * l3 + w4 * l4
    l5 = (-a_at(xi) * (phi0 + w1 * k1 + w2 * k2 + w3 * k3 + w4 * k4)
          * inv_eps2)
    xi = x0 + C6 * h
    w1, w2, w3, w4, w5 = h * A61, h * A62, h * A63, h * A64, h * A65
    k6 = dphi0 + w1 * l1 + w2 * l2 + w3 * l3 + w4 * l4 + w5 * l5
    l6 = (-a_at(xi)
          * (phi0 + w1 * k1 + w2 * k2 + w3 * k3 + w4 * k4 + w5 * k5)
          * inv_eps2)
    return (phi0 + h * (0.0 + B41 * k1 + B43 * k3 + B44 * k4 + B45 * k5),
            dphi0 + h * (0.0 + B41 * l1 + B43 * l3 + B44 * l4 + B45 * l5),
            phi0 + h * (0.0 + B51 * k1 + B53 * k3 + B54 * k4 + B55 * k5
                        + B56 * k6),
            dphi0 + h * (0.0 + B51 * l1 + B53 * l3 + B54 * l4 + B55 * l5
                         + B56 * l6))
