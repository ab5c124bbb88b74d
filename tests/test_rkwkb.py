"""Basis-fit stepping procedure and its WKB basis functions."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from wkbmarch import (PhaseProvider, WaveState, make_airy_problem,
                      make_polynomial_problem)
from wkbmarch.rkwkb import DEGENERATE_DENOM, rkwkb_step, wkb_basis
from wkbmarch.state import WKBInadmissibleError
from wkbmarch.wkb_core import eval_bk


def reference_flow(problem, state, x1):
    """DOP853 on the original equation at rtol 1e-13."""
    eps2 = problem.epsilon ** 2

    def rhs(x, yri):
        y = yri[:2] + 1j * yri[2:]
        dy = np.array([y[1], -problem.field(x) * y[0] / eps2])
        return np.concatenate([dy.real, dy.imag])

    y0 = np.array([state.phi, state.dphi])
    sol = solve_ivp(rhs, (state.x, x1), np.concatenate([y0.real, y0.imag]),
                    rtol=1e-13, atol=1e-15, method="DOP853")
    return sol.y[:2, -1] + 1j * sol.y[2:, -1]


def bases(problem, x, theta):
    """Both basis orders at x as (order, f, f', f''), each value a (plus,
    minus) pair, with phase theta at x; the record holds orders 2 and 3,
    each with f'' at phase 0."""
    osc = cmath.exp(1j * theta)
    out = []
    for order, b in zip((2, 3), wkb_basis(problem, x).basis):
        f = (b.amp * osc, b.amp / osc)
        out.append((order, f, (b.lp_plus * f[0], b.lp_minus * f[1]),
                    (b.d2f_plus * osc, b.d2f_minus / osc)))
    return out


def step(problem, provider, state, h):
    """rkwkb_step from `state` over [state.x, state.x + h], its
    (phi2, dphi2, phi3, dphi3) as the (order 2, order 3) states."""
    x1 = state.x + h
    phi2, dphi2, phi3, dphi3 = rkwkb_step(
        problem, provider, wkb_basis(problem, state.x), wkb_basis(problem, x1),
        state)
    return WaveState(x1, phi2, dphi2), WaveState(x1, phi3, dphi3)


# ---------------------------------------------------------------------------
# basis functions
# ---------------------------------------------------------------------------

def test_phi3_airy_value(airy1):
    # Eikonal chain: phi3 = b/(2 sqrt(a)) = -5/(64 x^3) on a(x) = x; the
    # order-3 basis is the order-2 basis times exp(eps^2 phi3).
    (_, f2, _, _), (_, f3, _, _) = bases(airy1, 2.0, 0.0)
    phi3 = math.log(abs(f3[0]) / abs(f2[0])) / airy1.epsilon ** 2
    assert phi3 == pytest.approx(-5.0 / 512.0, rel=1e-13)


def test_basis_conjugate_symmetry(airy1):
    for _, *values in bases(airy1, 5.0, 0.0):
        for plus, minus in values:
            assert minus == plus.conjugate()


def test_basis_constant_coefficient_proportionality():
    # Constant a: order-2 and order-3 bases differ by the constant factor
    # exp(eps^2 phi3), and both satisfy the equation exactly.
    p = make_polynomial_problem([4.0], 1.0, (0.0, 10.0))
    # theta = (phase(1) - phase(0))/eps = 2 with the phase gauged at 0.
    (_, f2, _, d2f2), (_, f3, _, d2f3) = bases(p, 1.0, 2.0)
    factor = math.exp(eval_bk(p, 1.0).b / (2.0 * math.sqrt(4.0)))
    assert f3[0] == pytest.approx(factor * f2[0], rel=1e-14)
    for f, d2f in ((f2, d2f2), (f3, d2f3)):
        residual = abs(d2f[0] + 4.0 * f[0])
        assert residual <= 1e-13 * abs(f[0]) * 4.0


def test_basis_residual_epsilon_orders():
    """ODE residual decays one eps power faster for the order-3 basis."""
    res = {2: [], 3: []}
    eps_list = (1e-1, 1e-2, 1e-3)
    for eps in eps_list:
        p = make_airy_problem(eps)
        for order, f, _, d2f in bases(p, 10.0, 0.0):
            r = abs(eps ** 2 * d2f[0] + 10.0 * f[0]) / (10.0 * abs(f[0]))
            res[order].append(r)
    slope2 = math.log10(res[2][0] / res[2][1])
    slope3 = math.log10(res[3][0] / res[3][1])
    assert slope2 == pytest.approx(3.0, abs=0.3)
    assert slope3 == pytest.approx(4.0, abs=0.3)
    # One extra eps power throughout the sweep (last point may sit near the
    # rounding floor, so compare where both are clean).
    assert res[3][0] < 0.05 * res[2][0]
    assert res[3][1] < 0.05 * res[2][1]


# ---------------------------------------------------------------------------
# stepping procedure
# ---------------------------------------------------------------------------

def test_exact_on_ansatz_span():
    # a = 4, eps = 1: e^{2ix} lies in the basis span, so any h is exact.
    p = make_polynomial_problem([4.0], 1.0, (0.0, 30.0),
                                initial=WaveState(0.0, 1.0 + 0.0j, 2.0j))
    prov = PhaseProvider(p, "cc")
    for out in step(p, prov, p.initial, 7.3):
        exact = cmath.exp(2j * 7.3)
        assert abs(out.phi - exact) < 5e-15
        assert abs(out.dphi - 2j * exact) < 1e-14


def test_interpolation_property(airy1):
    # gamma+ f+ + gamma- f- reproduces phi at the step start, with the fit
    # of (phi, phi') on (f, f') solved from the order-3 record's entries.
    st = airy1.exact(5.0)
    b = wkb_basis(airy1, 5.0).basis[1]
    gp = (st.dphi * b.amp - st.phi * b.df_minus) / b.den_f
    gm = -(st.dphi * b.amp - st.phi * b.df_plus) / b.den_f
    recon = gp * b.amp + gm * b.amp
    assert abs(recon - st.phi) / abs(st.phi) < 1e-12


def test_one_step_local_error_order(airy1):
    # First-order method: local error O(h^2) under halving.
    st = airy1.exact(10.0)
    prov = PhaseProvider(airy1, "exact")
    errs = []
    for h in (0.5, 0.25, 0.125):
        _, out = step(airy1, prov, st, h)
        ref = reference_flow(airy1, st, 10.0 + h)
        errs.append(max(abs(out.phi - ref[0]), abs(out.dphi - ref[1])))
    assert errs[0] / errs[1] > 2.8
    assert errs[1] / errs[2] > 3.2


def test_consistency_expansion(airy1):
    # phi_{n+1} = phi_n + h phi'_n + O(h^2): remainder slope in [1.8, 2.2].
    st = airy1.exact(10.0)
    prov = PhaseProvider(airy1, "exact")
    hs = (0.2, 0.1, 0.05, 0.025)
    rem_phi, rem_dphi = [], []
    ddphi = -10.0 * st.phi
    for h in hs:
        _, out = step(airy1, prov, st, h)
        rem_phi.append(abs(out.phi - st.phi - h * st.dphi))
        rem_dphi.append(abs(out.dphi - st.dphi - h * ddphi))
    for rem in (rem_phi, rem_dphi):
        slopes = [math.log2(rem[i] / rem[i + 1]) for i in range(3)]
        for s in slopes:
            assert 1.8 <= s <= 2.2


def test_order_gap_shrinks_with_epsilon():
    # The two basis orders drift apart by an eps-power per decade.
    diffs = []
    for eps in (1e-1, 1e-2, 1e-3):
        p = make_airy_problem(eps)
        prov = PhaseProvider(p, "exact")
        st = p.exact(10.0)
        o2, o3 = step(p, prov, st, 0.25)
        scale = max(abs(o3.phi), abs(o3.dphi))
        diffs.append(max(abs(o2.phi - o3.phi), abs(o2.dphi - o3.dphi)) / scale)
    assert diffs[0] > diffs[1] > diffs[2]


def test_step_guards(airy1):
    prov = PhaseProvider(airy1, "exact")
    with pytest.raises(ValueError):
        step(airy1, prov, airy1.exact(1.0), -0.5)


@pytest.mark.parametrize("eps, tripped", [(1e31, "den_f"), (1e29, "den_df")])
def test_degenerate_fit_rejects_step(eps, tripped):
    # a = 4 from (1, 0): the (f, f') denominator scales as 1/eps and the
    # (f', f'') one as 1/eps^3, so at eps = 1e31 the first is degenerate and
    # at eps = 1e29 only the second.
    p = make_polynomial_problem([4.0], eps, (0.0, 10.0),
                                initial=WaveState(0.0, 1.0 + 0.0j, 0j))
    fit = wkb_basis(p, 0.0).basis[0]
    degenerate = [name for name in ("den_f", "den_df")
                  if abs(getattr(fit, name)) < DEGENERATE_DENOM]
    assert degenerate[0] == tripped
    with pytest.raises(WKBInadmissibleError,
                       match="degenerate basis fit denominator"):
        step(p, PhaseProvider(p, "cc"), p.initial, 0.5)
