"""Embedded Fehlberg 4(5) pair on the untransformed equation."""

import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

from wkbmarch import WaveState, make_polynomial_problem
from wkbmarch.rk45 import rkf45_step


def plane_wave_problem():
    # a = 1, eps = 1: phi = e^{ix} from (1, i).
    return make_polynomial_problem([1.0], 1.0, (0.0, 10.0),
                                   initial=WaveState(0.0, 1.0 + 0.0j, 1.0j))


def step(problem, state, h):
    """rkf45_step's (phi4, dphi4, phi5, dphi5) as (y4, y5) at x + h."""
    phi4, dphi4, phi5, dphi5 = rkf45_step(problem, state, h)
    return (WaveState(state.x + h, phi4, dphi4),
            WaveState(state.x + h, phi5, dphi5))


def march(problem, state, h, n):
    for _ in range(n):
        state = step(problem, state, h)[1]
    return state


def march4(problem, state, h, n):
    for _ in range(n):
        state = step(problem, state, h)[0]
    return state


def test_free_particle_exact():
    # a = 0 makes the solution linear in x; every RK stage is exact.
    p = make_polynomial_problem([0.0], 1.0, (0.0, 10.0),
                                initial=WaveState(0.0, 1.0 + 0.0j, 2.0 + 1.0j))
    out = rkf45_step(p, p.initial, 0.7)
    # Four bare complex scalars: phi and phi' of each order.
    assert len(out) == 4 and all(type(v) is complex for v in out)
    y4, y5 = step(p, p.initial, 0.7)
    expect = 1.0 + 0.7 * (2.0 + 1.0j)
    assert y4.phi == pytest.approx(expect, abs=1e-15)
    assert y5.phi == pytest.approx(expect, abs=1e-15)


def test_plane_wave_single_step():
    p = plane_wave_problem()
    y4, y5 = step(p, p.initial, 0.1)
    exact = cmath.exp(0.1j)
    assert abs(y5.phi - exact) <= 1e-9
    assert abs(y5.dphi - 1j * exact) <= 1e-9
    # The pair difference sits at the h^5 local-error scale.
    assert 1e-9 < abs(y4.phi - y5.phi) < 1e-7


def test_plane_wave_halving():
    # Global error of the propagated 5th-order result drops ~2^5 per halving.
    p = plane_wave_problem()
    errs = []
    for n in (10, 20, 40):
        end = march(p, p.initial, 1.0 / n, n)
        errs.append(abs(end.phi - cmath.exp(1.0j)))
    assert errs[0] / errs[1] == pytest.approx(32.0, rel=0.35)
    assert errs[1] / errs[2] == pytest.approx(32.0, rel=0.35)


def test_observed_global_orders():
    p = plane_wave_problem()
    errs5, errs4 = [], []
    for n in (16, 32, 64):
        e5 = march(p, p.initial, 1.0 / n, n)
        e4 = march4(p, p.initial, 1.0 / n, n)
        errs5.append(abs(e5.phi - cmath.exp(1.0j)))
        errs4.append(abs(e4.phi - cmath.exp(1.0j)))
    order5 = math.log2(errs5[0] / errs5[1])
    order4 = math.log2(errs4[0] / errs4[1])
    assert 4.7 <= order5 <= 5.3
    assert 3.7 <= order4 <= 4.3
    assert 4.7 <= math.log2(errs5[1] / errs5[2]) <= 5.3


@settings(deadline=None, derandomize=True, max_examples=30)
@given(st.complex_numbers(min_magnitude=1e-2, max_magnitude=1e2,
                          allow_nan=False, allow_infinity=False))
def test_linearity(alpha):
    p = plane_wave_problem()
    base4, base5 = step(p, p.initial, 0.2)
    scaled_state = WaveState(0.0, alpha * p.initial.phi, alpha * p.initial.dphi)
    scaled4, scaled5 = step(p, scaled_state, 0.2)
    assert abs(scaled5.phi - alpha * base5.phi) <= 1e-14 * abs(alpha)
    assert abs(scaled4.dphi - alpha * base4.dphi) <= 1e-14 * abs(alpha)


def test_nonfinite_rhs_gives_nonfinite_difference():
    # The step does not check its stages: an overflowing right-hand side
    # leaves the member difference non-finite, which the controller's one
    # screen rejects.
    from wkbmarch.problem import CoefficientField, Problem

    bad_field = CoefficientField([1e308])  # phi'' overflows
    p = Problem(epsilon=1.0, field=bad_field, x_start=0.0, x_end=1.0,
                initial=WaveState(0.0, 1.0 + 0.0j, 0.0j))
    phi4, dphi4, phi5, dphi5 = rkf45_step(p, p.initial, 0.1)
    assert not (abs(phi4 - phi5) < math.inf and abs(dphi4 - dphi5) < math.inf)


def test_step_size_guard():
    p = plane_wave_problem()
    with pytest.raises(ValueError):
        rkf45_step(p, p.initial, -0.1)
