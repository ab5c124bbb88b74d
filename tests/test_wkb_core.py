"""Transforms, analytic coefficient tables, and the marching steps.

Oracles: sympy symbolic differentiation for b and the derived b_k chain,
DOP853 at rtol 1e-13 on the transformed system for one-step defects, and
mpmath for the oscillatory kernels.
"""

import cmath
import math

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from wkbmarch import (PhaseProvider, WaveState, WKBInadmissibleError,
                      make_airy_problem, make_polynomial_problem,
                      march_fixed_grid)
from wkbmarch.rkwkb import wkb_basis
from wkbmarch.wkb_core import (assemble_step_matrices, b_jet, eval_bk, from_U,
                               from_Z, osc_kernels, phase_rates, to_U, to_Z,
                               wkb_step_pair)

finite_complex = st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                                    allow_nan=False, allow_infinity=False)


def sympy_bk_tables(a_expr, x0, eps_val):
    """Symbolic oracle for b and b_0..b_3 of a coefficient expression.

    Evaluated at exact rational points with 40-digit precision so the oracle
    itself carries no float roundoff.
    """
    x = sympy.symbols("x", positive=True)
    expr = a_expr(x)
    b = -1 / (2 * expr ** sympy.Rational(1, 4)) * sympy.diff(
        expr ** sympy.Rational(-1, 4), x, 2)
    phase = sympy.sqrt(expr) - sympy.Rational(eps_val) ** 2 * b
    tables = [b]
    cur = b / (2 * phase)
    tables.append(cur)
    for _ in range(3):
        cur = sympy.diff(cur, x) / (2 * phase)
        tables.append(cur)
    point = sympy.Rational(x0)
    return [float(t.subs(x, point).evalf(40)) for t in tables]


# ---------------------------------------------------------------------------
# b and b_k
# ---------------------------------------------------------------------------

def test_b_airy_values(airy1):
    assert eval_bk(airy1, 1.0).b == pytest.approx(-0.15625, rel=1e-14)
    assert eval_bk(airy1, 4.0).b == pytest.approx(-5.0 / 1024.0, rel=1e-14)


def test_b_pcf_center(pcf6):
    assert eval_bk(pcf6, 1.0).b == pytest.approx(-math.sqrt(2.0) / 4.0, rel=1e-14)


def test_b_jet_carries_a_and_sqrt_a(pcf6):
    # One jet pass per point: the a- and sqrt(a)-jets come with the b-jet.
    a, s, bj, _ = b_jet(pcf6, 0.7, 3)
    tower = pcf6.field.jet(0.7)
    assert a[0] == pcf6.field(0.7) and a[1] == tower[1]
    assert a[2] == 0.5 * tower[2]
    assert s[0] == pytest.approx(math.sqrt(a[0]), rel=1e-15)
    assert np.allclose(np.convolve(s, s)[:4], a, rtol=1e-14, atol=1e-15)
    assert bj[0] == eval_bk(pcf6, 0.7).b


@pytest.mark.parametrize("x", [0.3, 0.7, 1.6])
def test_b_jet_truncation_keeps_leading_entries(pcf6, x):
    # The cc integrand at x is the leading entry of the phase jet, bit for
    # bit, and order 2 gives the heads of order 3's lists, the phase jet
    # to order 1.
    three = b_jet(pcf6, x, 3)
    assert phase_rates(pcf6, [x]) == [three[3][0]]
    assert b_jet(pcf6, x, 2) == (three[0][:3], three[1][:3], three[2][:3],
                                 three[3][:2])


def test_b_jet_phase_derivative_and_guard(pcf6):
    # The fourth jet is sqrt(a) - eps^2 b, and b_jet itself applies its
    # guard: at the minimum of a = 1e-10 + x^2, eps^2 b = a''/(8 a^1.5)
    # dwarfs sqrt(a) while a stays above the tau guard.
    _, s, bj, phase = b_jet(pcf6, 0.7, 3)
    assert phase == [sk - pcf6.epsilon ** 2 * bk for sk, bk in zip(s, bj)]
    p = make_polynomial_problem([1e-10, 0.0, 1.0], 1.0, (-1.0, 1.0),
                                initial=WaveState(-1.0, 1.0 + 0.0j, 0.0j))
    with pytest.raises(WKBInadmissibleError, match="phase derivative"):
        b_jet(p, 0.0, 3)
    with pytest.raises(WKBInadmissibleError, match="phase derivative"):
        phase_rates(p, [0.0])


def test_b_constant_zero():
    p = make_polynomial_problem([7.0], 1.0, (0.0, 1.0))
    assert eval_bk(p, 0.3).b == 0.0


def test_bk_constant_zero():
    p = make_polynomial_problem([7.0], 1.0, (0.0, 1.0))
    t = eval_bk(p, 0.3)
    assert (t.b, t.b0, t.b1, t.b2, t.b3) == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_bk_airy_b0_value(airy1):
    # b0(1) = b / (2 (sqrt(a) - eps^2 b)) = (-5/32) / (2 (1 + 5/32)).
    assert eval_bk(airy1, 1.0).b0 == pytest.approx(-5.0 / 74.0, rel=1e-14)


def test_bk_small_eps_limit():
    p = make_airy_problem(1e-8)
    assert eval_bk(p, 1.0).b0 == pytest.approx(-5.0 / 64.0, rel=1e-12)


@pytest.mark.parametrize("x0", [0.8, 2.5, 17.3])
def test_bk_airy_vs_sympy(airy1, x0):
    oracle = sympy_bk_tables(lambda x: x, x0, 1.0)
    t = eval_bk(airy1, x0)
    assert t.b == pytest.approx(oracle[0], rel=1e-12)
    for got, want in zip((t.b0, t.b1, t.b2, t.b3), oracle[1:]):
        assert got == pytest.approx(want, rel=1e-11, abs=1e-18)


@pytest.mark.parametrize("x0", [0.3, 1.0, 1.6])
def test_bk_pcf_vs_sympy(pcf6, x0):
    oracle = sympy_bk_tables(lambda x: -x ** 2 / 2 + x, x0, 2.0 ** -6)
    t = eval_bk(pcf6, x0)
    assert t.b == pytest.approx(oracle[0], rel=1e-12)
    for got, want in zip((t.b0, t.b1, t.b2, t.b3), oracle[1:]):
        assert got == pytest.approx(want, rel=1e-11, abs=1e-18)


def test_guards_raise_inadmissible(airy1):
    with pytest.raises(WKBInadmissibleError):
        phase_rates(airy1, [-1.0])
    with pytest.raises(WKBInadmissibleError):
        eval_bk(airy1, -1.0)
    with pytest.raises(WKBInadmissibleError):
        eval_bk(airy1, 0.0)


def test_underflowing_a_is_inadmissible():
    # With the tau guard far below a = 1e-200, a^(5/2) underflows to 0;
    # every scheme's record and the cc phase treat x as inadmissible.
    p = make_polynomial_problem(
        [0.0, 1.0], 1.0, (1e-200, 1.0),
        initial=WaveState(1e-200, 1.0 + 0.0j, 0.0j), tau_guard=1e-300)
    with pytest.raises(WKBInadmissibleError):
        eval_bk(p, 1e-200)
    with pytest.raises(WKBInadmissibleError):
        wkb_basis(p, 1e-200)
    with pytest.raises(WKBInadmissibleError):
        PhaseProvider(p, "cc").increment(1e-200, 2e-200)


@pytest.mark.parametrize("x", [4e-130, 1e-127, 1e-125, 2e-123])
def test_overflowing_b_is_inadmissible(x):
    # a = x is tiny but a^(5/2) is not 0: b overflows to -inf (or about
    # -9e305 at 2e-123, where its derivatives overflow), and the b_k table
    # and the basis log-derivatives would carry NaN. No record is built.
    p = make_polynomial_problem(
        [0.0, 1.0], 1.0, (1e-200, 1.0),
        initial=WaveState(1e-200, 1.0 + 0.0j, 0.0j), tau_guard=1e-300)
    with pytest.raises(WKBInadmissibleError):
        eval_bk(p, x)
    with pytest.raises(WKBInadmissibleError):
        wkb_basis(p, x)
    # The cc nodes of [x/10, x] reach down to where b is -inf.
    with pytest.raises(WKBInadmissibleError):
        PhaseProvider(p, "cc").increment(0.1 * x, x)


# ---------------------------------------------------------------------------
# oscillatory kernels
# ---------------------------------------------------------------------------

def test_kernels_at_zero():
    h1, h2 = osc_kernels(0.0)
    assert h1 == 0.0 and h2 == 0.0


def test_kernels_at_pi():
    h1, h2 = osc_kernels(math.pi)
    assert h1 == pytest.approx(-2.0 + 0.0j, abs=1e-15)
    assert h2 == pytest.approx(complex(-2.0, -math.pi), abs=1e-15)


def test_kernel_h2_tiny_argument():
    # Series oracle: h2 = -y^2/2 - i y^3/6 + O(y^4).
    y = 1e-8
    _, h2 = osc_kernels(y)
    assert h2.real == pytest.approx(-0.5 * y * y, rel=1e-3)
    assert h2.imag == pytest.approx(-y ** 3 / 6.0, rel=1e-3)


@pytest.mark.parametrize("y", [0.99e-4, 1.01e-4, -0.99e-4])
def test_kernel_branch_agreement(y):
    # Compare the magnitude of both evaluation branches at the switch; the
    # direct branch carries the sine rounding, worth a few 1e-12 relative.
    _, h2 = osc_kernels(y)
    h1_direct = complex(-2.0 * math.sin(0.5 * y) ** 2, math.sin(y))
    h2_direct = h1_direct - 1j * y
    assert abs(h2 - h2_direct) / abs(h2) < 1e-11


def test_kernel_accuracy_above_series_cut():
    """Against mpmath on 1e-4 <= |y| <= 1, h1 is at full relative accuracy
    and the direct h2 = h1 - iy within the bounds its docstring states:
    eps |y| absolute, 2 eps / |y| relative, and 4 eps / y^2 relative in
    Im h2 = sin(y) - y. The measured worst cases sit at about half of each
    bound."""
    eps = 2.0 ** -52
    ys = [float(y) for y in np.geomspace(1e-4, 1.0, 400)] + [1.0001e-4]
    with mpmath.workprec(200):
        for y in ys + [-y for y in ys]:
            h1, h2 = osc_kernels(y)
            exact1 = mpmath.expj(y) - 1
            exact2 = exact1 - 1j * mpmath.mpf(y)
            assert abs(mpmath.mpc(h1) - exact1) <= eps * abs(exact1), y
            err2 = abs(mpmath.mpc(h2) - exact2)
            assert err2 <= eps * abs(y), y
            assert err2 <= 2 * eps / abs(y) * abs(exact2), y
            assert abs(h2.imag - exact2.imag) <= \
                4 * eps / (y * y) * abs(exact2.imag), y


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.floats(min_value=-50.0, max_value=50.0))
def test_kernel_identities(y):
    h1, h2 = osc_kernels(y)
    assert abs(h1 - (cmath.exp(1j * y) - 1.0)) < 1e-14
    assert abs((h2 - h1) + 1j * y) < 1e-14
    # Conjugation symmetry used by the Hermitian step matrices.
    h1m, h2m = osc_kernels(-y)
    assert abs(h1m - h1.conjugate()) < 1e-16
    assert abs(h2m - h2.conjugate()) < 1e-16


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------

def test_to_U_unit_coefficient():
    p = make_polynomial_problem([1.0], 0.25, (0.0, 1.0))
    st_ = WaveState(0.5, 0.3 + 0.4j, -0.2 + 0.9j)
    U = to_U(p, eval_bk(p, 0.5), st_)
    assert U[0] == st_.phi
    assert U[1] == 0.25 * st_.dphi


def test_to_U_airy_example(airy1):
    U = to_U(airy1, eval_bk(airy1, 1.0), WaveState(1.0, 1.0 + 0.0j, 0.0j))
    assert U[0] == pytest.approx(1.0)
    assert U[1] == pytest.approx(0.25)  # (x^(1/4))' = x^(-3/4)/4 at x = 1


@settings(deadline=None, derandomize=True, max_examples=40)
@given(finite_complex, finite_complex, st.floats(min_value=0.3, max_value=40.0))
def test_U_round_trip(phi, dphi, x):
    p = make_airy_problem(0.5)
    st_ = WaveState(x, phi, dphi)
    end = eval_bk(p, x)
    back_phi, back_dphi = from_U(p, end, to_U(p, end, st_))
    scale = max(abs(phi), abs(dphi))
    assert abs(back_phi - phi) <= 1e-14 * scale
    assert abs(back_dphi - dphi) <= 1e-14 * scale


def test_to_Z_zero_phase(airy1):
    z = to_Z((1.0 + 0.0j, 0.0j))
    # Z is formed with the phase a step reaches over no distance: the
    # rotation of the step [x, x] has the bits of exp(i theta1) and of 1,
    # the oscillation factor Z carries where it is formed.
    end = eval_bk(airy1, 1.0)
    prov = PhaseProvider(airy1, "exact")
    theta1 = assemble_step_matrices(airy1, prov, end, end)[3]
    rot = cmath.exp(1j * theta1)
    step_rot = wkb_step_pair(airy1, prov, end, end, z)[2]
    assert (step_rot.real.hex(), step_rot.imag.hex()) == (
        rot.real.hex(), rot.imag.hex()) == ((1.0).hex(), (0.0).hex())
    assert z[0] == pytest.approx(1j / math.sqrt(2.0), abs=1e-15)
    assert z[1] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-15)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(finite_complex, finite_complex, st.floats(min_value=0.5, max_value=30.0))
def test_Z_norm_and_round_trip(u1, u2, x):
    p = make_airy_problem(1.0)
    z = to_Z((u1, u2))
    norm = math.hypot(abs(u1), abs(u2))
    assert math.hypot(abs(z[0]), abs(z[1])) == pytest.approx(norm, rel=1e-13)
    end = eval_bk(p, x)
    back = to_U(p, end, WaveState(x, *from_Z(p, end, z, 1 + 0j)))
    assert max(abs(back[0] - u1), abs(back[1] - u2)) <= 1e-13 * norm


# ---------------------------------------------------------------------------
# step matrices and marching steps
# ---------------------------------------------------------------------------

def test_step_matrices_hermitian(airy1):
    rng = np.random.default_rng(42)
    for _ in range(20):
        x0 = float(rng.uniform(0.5, 30.0))
        x1 = x0 + float(rng.uniform(0.01, 3.0))
        prov = PhaseProvider(airy1, "exact")
        a1, a1m, _, _ = assemble_step_matrices(
            airy1, prov, eval_bk(airy1, x0), eval_bk(airy1, x1))
        # Off-diagonal entries (upper, lower) of A1 and A1_mod.
        assert a1[1] == pytest.approx(a1[0].conjugate(), abs=1e-18)
        assert a1m[1] == pytest.approx(a1m[0].conjugate(), abs=1e-18)


def test_constant_coefficient_step_is_identity():
    p = make_polynomial_problem([4.0], 1.0, (0.0, 10.0))
    prov = PhaseProvider(p, "cc")
    st_ = WaveState(0.0, 0.3 + 0.4j, -0.2 + 0.9j)
    left = eval_bk(p, 0.0)
    z0 = to_Z(to_U(p, left, st_))
    z1, z2, _ = wkb_step_pair(p, prov, left, eval_bk(p, 7.0), z0)
    assert z1 == z0
    assert z2 == z0


def z_reference(problem, z0, x0, x1):
    """DOP853 on the transformed system with the closed-form phase."""
    F = problem.phase_antiderivative
    eps = problem.epsilon

    def b(x):
        return -(5.0 / 32.0) * x ** -2.5

    def rhs(x, zri):
        z = zri[:2] + 1j * zri[2:]
        ph = (F(x) - F(x0)) / eps
        dz = eps * np.array([b(x) * np.exp(-2j * ph) * z[1],
                             b(x) * np.exp(2j * ph) * z[0]])
        return np.concatenate([dz.real, dz.imag])

    sol = solve_ivp(rhs, (x0, x1), np.concatenate([z0.real, z0.imag]),
                    rtol=1e-13, atol=1e-15, method="DOP853")
    return sol.y[:2, -1] + 1j * sol.y[2:, -1]


def test_one_step_defect_orders(airy1):
    x0 = 1.0
    prov = PhaseProvider(airy1, "exact")
    left = eval_bk(airy1, x0)
    z0 = to_Z(to_U(airy1, left, airy1.exact(x0)))
    defects = {1: [], 2: []}
    for h in (0.0625, 0.03125, 0.015625):
        zref = z_reference(airy1, np.array(z0), x0, x0 + h)
        z1, z2, _ = wkb_step_pair(airy1, prov, left, eval_bk(airy1, x0 + h),
                                  z0)
        defects[1].append(max(abs(z1[0] - zref[0]), abs(z1[1] - zref[1])))
        defects[2].append(max(abs(z2[0] - zref[0]), abs(z2[1] - zref[1])))
    # Halving h cuts the defect by >= 3.5 (first order) and >= 7 (second).
    for coarse, fine in zip(defects[1], defects[1][1:]):
        assert coarse / fine >= 3.5
    for coarse, fine in zip(defects[2], defects[2][1:]):
        assert coarse / fine >= 7.0


def test_epsilon_asymptotic_trend():
    # Fixed grid, shrinking eps: the second-order scheme's error decreases.
    errs = []
    for eps in (1e-1, 1e-2, 1e-3):
        p = make_airy_problem(eps, 1.0, 2.0)
        xs = np.linspace(1.0, 2.0, 17)
        end = march_fixed_grid(p, xs)[-1]
        ex = p.exact(2.0)
        errs.append(abs(end.phi - ex.phi) / abs(ex.phi))
    assert errs[0] > errs[1] > errs[2]


def test_pcf_step_matches_reference(pcf6):
    # One second-order step against DOP853 on the original equation.
    st0 = pcf6.exact(0.9)
    prov = PhaseProvider(pcf6, "exact")
    left, right = eval_bk(pcf6, 0.9), eval_bk(pcf6, 1.0)
    z0 = to_Z(to_U(pcf6, left, st0))
    _, z2, rot = wkb_step_pair(pcf6, prov, left, right, z0)
    phi, dphi = from_Z(pcf6, right, z2, rot)
    ex = pcf6.exact(1.0)
    assert abs(phi - ex.phi) / abs(ex.phi) < 1e-5
    assert abs(dphi - ex.dphi) / abs(ex.dphi) < 1e-5
