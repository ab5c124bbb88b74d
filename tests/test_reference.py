"""Special-function layer: Airy hybrid, parabolic cylinder, metrics.

Independent oracles used here: scipy.special (airy), mpmath (pcfu),
scipy.integrate.solve_ivp at tight tolerance, and cross-validation between
the asymptotic expansions and the Taylor continuation, which share no code
path beyond float arithmetic.
"""

import dataclasses
import math
import random
import sys
import threading

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import solve_ivp

from wkbmarch import (ContinuationError, WaveState, airy_pair,
                      global_error, make_pcf_problem, reference)
from wkbmarch.reference import (AIRY_VALUE_SWITCH, SERIES_TERMS,
                                _ContinuationTable, _dd_add, _dd_deriv_coeffs, _dd_horner,
                                _dd_horner_rows, _dd_mul_d, _dd_mul_dd,
                                _dd_recip_int, _dd_series, _dd_shift_poly,
                                _dd_substep, _series_phase_cap, airy_asymptotic,
                                airy_origin_values, airy_values,
                                asymptotic_coeffs, exact_solution,
                                pcf_origin_values)

EPS_MACH = 2.220446049250313e-16


def _bits(*zs):
    """float.hex of the real and the imaginary part of every z of zs, so
    that a comparison of float or complex values is one of their bits."""
    return [x.hex() for z in zs for x in (z.real, z.imag)]


# ---------------------------------------------------------------------------
# asymptotic coefficients
# ---------------------------------------------------------------------------

def test_asymptotic_coeffs_start():
    assert asymptotic_coeffs(0) == (1.0, 1.0)


def test_asymptotic_coeffs_first():
    u1, v1 = asymptotic_coeffs(1)
    # Cross-check: u1 = 3*5/216 from the product form.
    assert u1 == pytest.approx(5.0 / 72.0, rel=1e-15)
    assert u1 == pytest.approx(3.0 * 5.0 / 216.0, rel=1e-15)
    assert v1 == pytest.approx(-7.0 / 72.0, rel=1e-15)


def test_asymptotic_coeffs_second():
    u2, v2 = asymptotic_coeffs(2)
    # Product form u2 = 5*7*9*11 / (216^2 * 2!).
    assert u2 == pytest.approx(5 * 7 * 9 * 11 / (216.0 ** 2 * 2), rel=1e-15)
    assert u2 == pytest.approx(385.0 / 10368.0, rel=1e-15)
    assert v2 == pytest.approx(-455.0 / 10368.0, rel=1e-15)


# ---------------------------------------------------------------------------
# Taylor continuation
# ---------------------------------------------------------------------------

def taylor_continuation(q_coeffs, x0: float, w0, dw0, x1: float,
                        terms: int = SERIES_TERMS):
    """Continue the solution of w'' = q(x) w from x0 to x1.

    The independent oracle of the checkpoint table: it marches the same
    certified substeps (`_dd_substep`) from x0 straight to x1, keeps no
    checkpoints and may use another series length.

    Parameters
    ----------
    q_coeffs : sequence of float
        Real polynomial coefficients of q, ascending powers.
    x0, x1 : float
        Start and target points.
    w0, dw0 : float or complex
        Initial value and derivative at x0.
    terms : int
        Series length per substep (>= 25). Substeps are at most 1 long and
        shrink where |q| is large so the truncated series stays converged.

    Returns
    -------
    (w, dw) at x1.

    Raises
    ------
    ContinuationError
        If the series tail fails the convergence certificate.

    Notes
    -----
    The state is carried in compensated (double-double) arithmetic, so the
    accumulated phase stays accurate to roughly one float64 ulp even after
    tens of thousands of oscillations.
    """
    if terms < 25:
        raise ValueError("need at least 25 series terms")
    qpoly = [float(c) for c in q_coeffs]
    phase_cap = _series_phase_cap(terms)
    zero = w0 * 0.0
    x = float(x0)
    state = (w0, zero, dw0, zero)
    while x != x1:
        x, state, *_ = _dd_substep(qpoly, x, state, x1, phase_cap, terms)
    wh, wl, dh, dl = state
    return wh + wl, dh + dl


def test_continuation_zero_coefficient():
    # w'' = 0 with w(0)=1, w'(0)=1 is w = 1 + x.
    w, dw = taylor_continuation([0.0], 0.0, 1.0, 1.0, 2.0)
    assert w == pytest.approx(3.0, abs=1e-15)
    assert dw == pytest.approx(1.0, abs=1e-15)


def test_continuation_harmonic_oscillator():
    w, dw = taylor_continuation([-1.0], 0.0, 1.0, 0.0, math.pi)
    assert w == pytest.approx(-1.0, abs=1e-13)
    assert dw == pytest.approx(0.0, abs=1e-13)


def test_continuation_complex_state():
    # exp(ix) carried as a complex state of the same real ODE.
    w, dw = taylor_continuation([-1.0], 0.0, 1.0 + 0.0j, 1.0j, 0.5 * math.pi)
    assert abs(w - 1.0j) < 1e-14
    assert abs(dw + 1.0) < 1e-14


def test_continuation_airy_vs_asymptotics_at_600():
    # The two routes are independent above the switch; with the compensated
    # state the agreement reaches the rounding of the outputs themselves.
    w0, dw0 = airy_origin_values()
    w, dw = taylor_continuation([0.0, 1.0], 0.0, w0.real, dw0.real, -600.0)
    wb, dwb = taylor_continuation([0.0, 1.0], 0.0, w0.imag, dw0.imag, -600.0)
    aw, adw = airy_asymptotic(600.0)
    assert abs(w - aw.real) / abs(aw.real) < 1e-14
    assert abs(dw - adw.real) / abs(adw.real) < 1e-14
    assert abs(wb - aw.imag) / abs(aw.imag) < 1e-14
    assert abs(dwb - adw.imag) / abs(adw.imag) < 1e-14


def test_continuation_parameter_guards():
    with pytest.raises(ValueError):
        taylor_continuation([0.0], 0.0, 1.0, 1.0, 1.0, terms=10)


@pytest.mark.parametrize("w0, dw0", [(1e305, 1e305), (math.nan, 1.0)])
def test_continuation_non_finite_series_is_not_certified(w0, dw0):
    # Past about 1.3e300 the double-double split (2^27 + 1) w overflows and
    # the series coefficients turn NaN; a NaN start is NaN at once. The
    # tail certificate fails on a non-finite term sum instead of passing it.
    with pytest.raises(ContinuationError):
        taylor_continuation([1.0], 0.0, w0, dw0, 3.0)


def test_pcf_reference_overflow_names_x_and_epsilon(monkeypatch):
    # At eps = 1.2e-3 U(nu, 0) is finite but its continuation overflows:
    # the provider turns the failed certificate into a ValueError.
    with pytest.raises(ValueError, match=r"x=0\.01, epsilon=0\.0012"):
        make_pcf_problem(1.2e-3)
    # At eps = 1.227055e-3 the continuation overflows on the side z > 0
    # (x < 1) alone. A batch names the first point that fails alone, as
    # that query does, with numpy and without.
    p = make_pcf_problem(1.227055e-3, 1.5, 1.9)
    for numpy in (np, None):
        with monkeypatch.context() as m:
            m.setitem(sys.modules, "numpy", numpy)
            for xs in ([1.5, 0.5, 1.99, math.nan], [1.2, math.nan, 0.01],
                       [1.99, 1.0, 0.01, 0.5], [0.01, 1.99]):
                kind, message = first_error(p.exact, xs)
                assert "overflows" in message or "finite" in message
                with pytest.raises(kind) as info:
                    exact_solution(p, xs)
                assert str(info.value) == message, numpy


# The series kernels are written out for speed; these compositions of the
# double-double helpers are the arithmetic they must reproduce bit for bit.

def _oracle_series(qhi, qlo, wh, wl, dh, dl, terms):
    chi, clo = [wh, dh], [wl, dl]
    deg = len(qhi) - 1
    for m in range(terms - 2):
        sh = sl = qhi[0] * 0.0
        for j in range(min(deg, m) + 1):
            ph, pl = _dd_mul_dd(chi[m - j], clo[m - j], qhi[j], qlo[j])
            sh, sl = _dd_add(sh, sl, ph, pl)
        sh, sl = _dd_mul_dd(sh, sl, *_dd_recip_int((m + 1) * (m + 2)))
        chi.append(sh)
        clo.append(sl)
    return chi, clo


def _oracle_deriv_coeffs(chi, clo):
    pairs = [_dd_mul_d(chi[m], clo[m], float(m)) for m in range(1, len(chi))]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def _oracle_horner(hi, lo, h):
    vh = vl = hi[0] * 0.0
    for yh, yl in zip(reversed(hi), reversed(lo)):
        vh, vl = _dd_add(*_dd_mul_d(vh, vl, h), yh, yl)
    return vh, vl


def _dd_value(rng, kind):
    """A normalized double-double pair (hi, lo) of the given type."""
    if kind is complex:
        hi = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
    else:
        hi = rng.uniform(-2.0, 2.0)
    return _dd_add(hi, hi * 0.0, hi * rng.uniform(-1e-16, 1e-16), 0.0)


@pytest.mark.parametrize("terms", [25, 30, 40])
@pytest.mark.parametrize("x0", [0.0, -3.75, 2.3, -17.1])
@pytest.mark.parametrize("kind", [float, complex])
@pytest.mark.parametrize(
    "q", [[0.0, 1.0], [-1.0 / (math.sqrt(8.0) * 2.0 ** -6), 0.0, 0.25]],
    ids=["airy", "pcf"])
def test_dd_kernels_match_helper_oracle(q, kind, x0, terms):
    """Series, derivative coefficients and Horner hops equal the helper
    compositions in every bit, signed zeros included (at x0 = 0 the Airy
    polynomial has q_0 = 0, so products vanish)."""
    rng = random.Random(f"{q}{kind.__name__}{x0}{terms}")
    qhi, qlo = _dd_shift_poly(q, x0)
    states = [(*_dd_value(rng, kind), *_dd_value(rng, kind)),
              (kind(0.7), kind(0.0), kind(-1.3), kind(0.0))]
    for state in states:
        chi, clo = _dd_series(qhi, qlo, *state, terms)
        assert repr((chi, clo)) == repr(
            _oracle_series(qhi, qlo, *state, terms))
        ghi, glo = _dd_deriv_coeffs(chi, clo)
        assert repr((ghi, glo)) == repr(_oracle_deriv_coeffs(chi, clo))
        for h in (0.0, 0.37, -0.81, rng.uniform(-1.0, 1.0)):
            assert repr(_dd_horner(chi, clo, h)) == repr(
                _oracle_horner(chi, clo, h))
            assert repr(_dd_horner(ghi, glo, h)) == repr(
                _oracle_horner(ghi, glo, h))


# Exact edge values of the batch Horner property: signed zeros (the Airy
# origin series has c_(3k+2) = 0), tiny, unit and large coefficients.
HORNER_EDGES = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, -2.5, 3e10]


@settings(deadline=None, derandomize=True, max_examples=150)
@given(data=st.data())
def test_batch_horner_matches_scalar(data):
    """_dd_horner_rows on numpy (hi, lo) coefficient rows, real or
    complex, one real hop of either sign per column, gives the bits of the
    scalar _dd_horner of every column in float.hex, signed zeros included.
    Complex rows run as interleaved real lanes, each multiplied only by
    its column's real hop. Coefficients stay where no product overflows,
    the range of every continuation table."""
    kind = data.draw(st.sampled_from([float, complex]))
    shape = data.draw(st.tuples(st.integers(1, SERIES_TERMS),
                                st.integers(1, 60)))

    def rows(size):
        def part():
            return data.draw(hnp.arrays(np.float64, shape, elements=(
                st.sampled_from(HORNER_EDGES) | st.floats(-size, size))))
        if kind is float:
            return part()
        out = np.empty(shape, complex)
        out.real, out.imag = part(), part()
        return out

    hi, lo = rows(1e3), rows(1e-13)
    hs = data.draw(hnp.arrays(np.float64, shape[1],
                              elements=st.floats(-1.0, 1.0)))
    vh, vl = _dd_horner_rows(hi, lo, hs, np)
    assert vh.dtype == vl.dtype == hi.dtype
    for j, h in enumerate(hs.tolist()):
        scalar = _dd_horner(hi[:, j].tolist(), lo[:, j].tolist(), h)
        assert _bits(vh[j].item(), vl[j].item()) == _bits(*scalar), j


# ---------------------------------------------------------------------------
# Airy hybrid evaluator
# ---------------------------------------------------------------------------

def _parts(pair):
    """(Ai, Ai', Bi, Bi') of an Airy pair (w, w'), w = Ai + i Bi."""
    w, dw = pair
    return w.real, dw.real, w.imag, dw.imag


def _wronskian(pair):
    """Ai Bi' - Ai' Bi of an Airy pair (w, w'), which is 1/pi."""
    w, dw = pair
    return w.real * dw.imag - dw.real * w.imag


def test_airy_origin_values():
    w, dw = airy_pair(0.0)
    assert w.real == pytest.approx(0.35502805388781723, rel=1e-13)
    assert w.imag == pytest.approx(0.6149266274460007, rel=1e-13)
    assert dw.real == pytest.approx(-0.2588194037928068, rel=1e-13)
    assert dw.imag == pytest.approx(0.4482883573538264, rel=1e-13)


@pytest.mark.parametrize("t", [0.3, 5.0, 123.456, 350.0, 499.0])
def test_airy_matches_scipy_moderate(t):
    w, dw = airy_pair(t)
    ai, aip, bi, bip = sp.airy(-t)
    assert w.real == pytest.approx(ai, rel=2e-13)
    assert dw.real == pytest.approx(aip, rel=2e-13)
    assert w.imag == pytest.approx(bi, rel=2e-13)
    assert dw.imag == pytest.approx(bip, rel=2e-13)


@pytest.mark.parametrize("t", [49.9, 50.0, 50.1, 499.9, 500.1, 400.0,
                               400.05])
def test_airy_seam_agreement(t):
    """Both branches agree at the one seam (t = 50) and further out."""
    cont = _parts(reference._AIRY_TABLE.state_at(-t))
    asym = _parts(airy_asymptotic(t))
    for a, c in zip(asym, cont):
        assert abs(a - c) / abs(c) < 1e-12


def test_airy_continuation_asymptotics_cross_validation():
    """Above the switch the two methods stay within 1e-12 of each other."""
    ts = np.concatenate((np.geomspace(AIRY_VALUE_SWITCH, 500.0, 12),
                         np.geomspace(500.0, 2000.0, 12)))
    for t in ts:
        cont = _parts(reference._AIRY_TABLE.state_at(-float(t)))
        asym = _parts(airy_asymptotic(float(t)))
        for name, a, c in zip(("ai", "aip", "bi", "bip"), asym, cont):
            assert abs(a - c) / abs(c) < 1e-12, (t, name)


def test_airy_pair_takes_one_route(monkeypatch):
    """The continuation serves t <= 50 and the asymptotic expansion t > 50;
    neither is called outside its range."""
    def forbidden(t):
        raise AssertionError(f"wrong route at t={t}")

    class Unreachable:
        """An Airy table stand-in whose queries raise."""

        def state_at(self, y):
            forbidden(-y)

        def values_at(self, ys):
            forbidden([-y for y in ys])

    low = [0.0, 1.0, 30.0, 49.9, AIRY_VALUE_SWITCH]
    high = [math.nextafter(AIRY_VALUE_SWITCH, math.inf), 50.1, 400.0, 450.0,
            500.0, 1e4]
    with monkeypatch.context() as m:
        m.setattr(reference, "airy_asymptotic", forbidden)
        for t in low:
            assert airy_pair(t) == reference._AIRY_TABLE.state_at(-t)
    with monkeypatch.context() as m:
        m.setattr(reference, "_AIRY_TABLE", Unreachable())
        for t in high:
            assert airy_pair(t) == airy_asymptotic(t)


@pytest.mark.parametrize("t", [0.0, 0.3, 17.0, AIRY_VALUE_SWITCH,
                               math.nextafter(AIRY_VALUE_SWITCH, math.inf),
                               50.1, 400.0, 1e4])
def test_airy_pair_value_only(monkeypatch, t):
    """airy_values gives the w of airy_pair bit for bit on both routes,
    alone and in one batch with points on both sides of the seam, with
    numpy and without."""
    full = airy_pair(t)[0]
    for numpy in (np, None):
        with monkeypatch.context() as m:
            m.setitem(sys.modules, "numpy", numpy)
            for ts, j in (([t], 0), ([1.5, 60.0, t, 0.0, 1e3], 2)):
                assert _bits(airy_values(ts)[j]) == _bits(full), (numpy, ts)


def test_airy_wronskian_identity():
    for t in np.geomspace(0.1, 2000.0, 50):
        pair = airy_pair(float(t))
        assert _wronskian(pair) * math.pi == pytest.approx(1.0, rel=1e-10)
    # Asymptotic branch alone, at a fixed large argument.
    assert _wronskian(airy_asymptotic(1000.0)) * math.pi == \
        pytest.approx(1.0, rel=1e-13)


def test_airy_leading_order_remainder_bound():
    # Remainder of the one-term expansion, scaled by the amplitude prefactor,
    # is controlled by the first dropped coefficient u1/zeta.
    t = 1000.0
    zeta = (2.0 / 3.0) * t ** 1.5
    w, _ = airy_pair(t)
    leading = math.cos(zeta - 0.25 * math.pi) / (math.sqrt(math.pi) * t ** 0.25)
    u1, _ = asymptotic_coeffs(1)
    scaled = abs(w.real - leading) * math.sqrt(math.pi) * t ** 0.25
    assert scaled <= 2.0 * u1 / zeta


def first_error(exact, xs):
    """(type, message) of the first point of xs whose single full-state
    query `exact(x)` raises."""
    for x in xs:
        try:
            exact(x)
        except Exception as exc:
            return type(exc), str(exc)
    raise AssertionError("no point fails")


def test_airy_rejects_negative_argument(monkeypatch, airy1):
    with pytest.raises(ValueError):
        airy_pair(-1.0)
    # A batch names the first point that fails alone, as that query does,
    # with numpy and without.
    for numpy in (np, None):
        with monkeypatch.context() as m:
            m.setitem(sys.modules, "numpy", numpy)
            for xs in ([1.0, -2.0, math.nan, 60.0],
                       [70.0, math.nan, 0.5, -1.0], [-3.0, 1e300]):
                kind, message = first_error(airy1.exact, xs)
                with pytest.raises(kind) as info:
                    exact_solution(airy1, xs)
                assert str(info.value) == message, numpy


@pytest.mark.parametrize("ts, bad", [
    ([1.0, -2.0, math.nan, 60.0], -2.0),
    ([70.0, 1e300, math.nan, 0.5, -1.0], math.nan),
    ([-0.0, 3.0, -math.inf], -math.inf),
])
def test_airy_values_name_first_bad_argument(monkeypatch, ts, bad):
    """airy_values checks every t before it evaluates any: the first NaN or
    negative t raises airy_pair's ValueError, with numpy and without, even
    where a point above the seam before it would overflow."""
    with pytest.raises(ValueError) as single:
        airy_pair(bad)
    for numpy in (np, None):
        with monkeypatch.context() as m:
            m.setitem(sys.modules, "numpy", numpy)
            with pytest.raises(ValueError) as info:
                airy_values(ts)
        assert str(info.value) == str(single.value)


@pytest.mark.parametrize("error", [ValueError, OverflowError,
                                   ContinuationError])
def test_failed_batch_falls_back_to_single_points(airy1, error):
    # A batch that fails where every single point succeeds still answers,
    # with each point's full-state phi.
    def exact(x):
        return airy1.exact(x)

    def phis(xs):
        raise error("batch fails")

    exact.phis = phis
    p = dataclasses.replace(airy1, exact=exact)
    xs = [0.5, 1.0, 60.0, 1e3]
    assert exact_solution(p, xs) == [airy1.exact(x).phi for x in xs]


def test_remark_floor_scaling():
    """Perturbing x by one machine epsilon moves the oscillatory value by
    about eps * x^(3/2) / epsilon (the precision floor of any evaluator)."""
    delta = 2.2e-16
    for eps, expect in ((1e-4, 7.78e-10), (1e-3, 7.78e-11)):
        scale = eps ** (-2.0 / 3.0)
        phi1 = airy_pair(50.0 * scale)[0]
        phi2 = airy_pair((50.0 * (1.0 + delta)) * scale)[0]
        moved = abs(phi2 - phi1) / abs(phi1)
        assert expect / 2.0 <= moved <= expect * 2.0


# ---------------------------------------------------------------------------
# Parabolic cylinder values
# ---------------------------------------------------------------------------

NU = -1.0 / (math.sqrt(8.0) * 2.0 ** -6)


def pcf_U(nu, z):
    """(U(nu, z), U'(nu, z)) from a checkpoint table seeded at the origin
    values, the route make_pcf_problem takes."""
    table = _ContinuationTable([nu, 0.0, 0.25], 0.0, pcf_origin_values(nu))
    return table.state_at(z)


# eps from the benchmark's 2^-6 down to the overflow onset of make_pcf_problem.
ORIGIN_EPS = [float(e) for e in np.geomspace(2.0 ** -6, 1.2275e-3, 40)]


def test_pcf_origin_values_match_mpmath():
    # U'(nu, 0) = -(nu + 1/2) U(nu + 1, 0) (DLMF 12.8.2 at z = 0).
    with mpmath.workdps(40):
        for eps in ORIGIN_EPS:
            nu = -1.0 / (math.sqrt(8.0) * eps)
            u, du = pcf_origin_values(nu)
            ref = mpmath.pcfu(nu, 0)
            dref = -(mpmath.mpf(nu) + 0.5) * mpmath.pcfu(mpmath.mpf(nu) + 1, 0)
            assert abs(u - ref) <= 1e-14 * abs(ref), eps
            assert abs(du - dref) <= 1e-14 * abs(dref), eps


@pytest.mark.parametrize("z", [0.5, 3.0, 9.42, -5.0, -9.42])
def test_pcf_matches_mpmath(z):
    u, du = pcf_U(NU, z)
    ref = float(mpmath.pcfu(mpmath.mpf(NU), mpmath.mpf(z)))
    assert u == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("nu", [-0.5, -1.5])
@pytest.mark.parametrize("z", [0.0, 1.0, -2.5, 4.0])
def test_pcf_at_gamma_pole_matches_mpmath(nu, z):
    # One origin value sits on a pole of gamma here; 1/Gamma vanishes there.
    u, du = pcf_U(nu, z)
    ref = float(mpmath.pcfu(nu, z))
    dref = float(mpmath.diff(lambda t: mpmath.pcfu(nu, t), z))
    assert u == pytest.approx(ref, rel=1e-12, abs=1e-15)
    assert du == pytest.approx(dref, rel=1e-12, abs=1e-15)


def test_pcf_round_trip_residual():
    # Continue out and back; the return must hit the closed-form start.
    u0, du0 = pcf_U(NU, 0.0)
    u9, du9 = pcf_U(NU, 9.42)
    back, dback = taylor_continuation([NU, 0.0, 0.25], 9.42, u9, du9, 0.0)
    scale = max(abs(u0), abs(du0))
    assert abs(back - u0) / scale < 1e-12
    assert abs(dback - du0) / scale < 1e-12


def test_pcf_agrees_with_tight_ivp():
    # Independent oracle: DOP853 on w'' = (z^2/4 + nu) w at rtol 1e-13.
    u0, du0 = pcf_U(NU, 0.0)

    def rhs(z, y):
        return [y[1], (0.25 * z * z + NU) * y[0]]

    sol = solve_ivp(rhs, (0.0, 9.42), [u0, du0], rtol=1e-13, atol=1e-300,
                    method="DOP853")
    u, du = pcf_U(NU, 9.42)
    assert u == pytest.approx(sol.y[0, -1], rel=1e-10)
    assert du == pytest.approx(sol.y[1, -1], rel=1e-10)


# ---------------------------------------------------------------------------
# Continuation table
# ---------------------------------------------------------------------------

# name -> (q coefficients, (w, w') at 0, query range)
TABLES = {
    "airy": ([0.0, 1.0], airy_origin_values(), (-20.0, 3.0)),
    "pcf": ([NU, 0.0, 0.25], pcf_origin_values(NU), (-9.5, 9.5)),
}


@pytest.mark.parametrize("name", sorted(TABLES))
@settings(deadline=None, derandomize=True, max_examples=10)
@given(data=st.data())
def test_table_independent_of_query_order(name, data):
    q, (w0, dw0), (lo, hi) = TABLES[name]
    xs = data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=6))
    shuffled = data.draw(st.permutations(xs))

    def states(order, grow_first=()):
        """The bits of each state_at(x) in order, and the table's sides."""
        table = _ContinuationTable(q, 0.0, (w0, dw0))
        for x in grow_first:
            table.state_at(x)
        return ({x: _bits(*table.state_at(x)) for x in order},
                repr(table._sides))

    ascending, sides = states(sorted(xs))
    assert states(sorted(xs, reverse=True)) == (ascending, sides)
    assert states(shuffled) == (ascending, sides)
    assert states(xs, grow_first=(lo - 0.5, hi + 0.5))[0] == ascending
    table = _ContinuationTable(q, 0.0, (w0, dw0))
    for x in xs:
        got, dgot = table.state_at(x)
        w, dw = taylor_continuation(q, 0.0, w0, dw0, x)
        scale = max(abs(w), abs(dw))
        assert abs(got - w) <= 1e-14 * scale
        assert abs(dgot - dw) <= 1e-14 * scale


@pytest.mark.parametrize("name", sorted(TABLES))
def test_value_only_query_matches_full_state(monkeypatch, name):
    """values_at(xs) gives the w of state_at(x) bit for bit at every x: at checkpoint keys, at x0 and between keys on both sides of
    x0, in shuffled batches mixed with full queries on one table, with
    numpy and with numpy unimportable. Once the tables have grown over the
    points, a batch hops over the series stored at growth: it forms no
    series and adds no checkpoint."""
    q, seed, (lo, hi) = TABLES[name]
    ref = _ContinuationTable(q, 0.0, seed)
    for x in (lo, hi):
        ref.state_at(x)
    keys = [d * k for d in (1.0, -1.0) for k in ref._sides[d][0]
            if lo <= d * k <= hi]
    assert len(keys) > 10
    between = [float(x) for x in np.linspace(lo, hi, 57)]
    xs = keys + between + [0.0]
    random.Random(name).shuffle(xs)
    heads = {x: _bits(ref.state_at(x)[0]) for x in xs}

    def forbidden(*args):
        raise AssertionError("series formed on a query")

    for numpy in (np, None):
        table = _ContinuationTable(q, 0.0, seed)
        for x in (lo, hi):
            table.state_at(x)
        with monkeypatch.context() as m:
            m.setitem(sys.modules, "numpy", numpy)
            for helper in ("_dd_series", "_dd_shift_poly",
                           "_dd_deriv_coeffs"):
                m.setattr(reference, helper, forbidden)
            attrs = dict(vars(table))
            sizes = {d: [len(part) for part in side]
                     for d, side in table._sides.items()}
            for start in range(0, len(xs), 7):
                batch = xs[start:start + 7]
                full = table.state_at(batch[0])
                assert _bits(*full) == _bits(*ref.state_at(batch[0]))
                assert [_bits(w) for w in table.values_at(batch)] == \
                    [heads[x] for x in batch]
            assert [_bits(w) for w in table.values_at(xs)] == \
                [heads[x] for x in xs]
            assert vars(table) == attrs
            assert sizes == {d: [len(part) for part in side]
                             for d, side in table._sides.items()}


# name -> batch on a fresh table: PCF on both sides of x0, Airy on one.
FRESH_BATCHES = {
    "airy": [-0.37, -12.5, -4.0, -19.25, -0.001, -7.75, -3.0],
    "pcf": [3.1, -8.9, 0.0, 9.4, -0.02, 5.5, -2.25, 0.75],
}


@pytest.mark.parametrize("on_keys", [False, True], ids=["between", "keys"])
@pytest.mark.parametrize("name", sorted(FRESH_BATCHES))
def test_batch_grows_fresh_table_as_serial_queries(monkeypatch, name,
                                                   on_keys):
    """A batch on a fresh table grows it itself. With numpy and with numpy
    unimportable, its values equal the w of state_at in float.hex, and the
    table holds the keys, series and frontier states that serial state_at
    queries leave. With numpy the batch makes no _locate call: it locates
    every point in one lookup per side, on checkpoints too."""
    q, seed, _ = TABLES[name]
    xs = list(FRESH_BATCHES[name])
    if on_keys:
        grown = _ContinuationTable(q, 0.0, seed)
        grown.state_at(max(xs))
        grown.state_at(min(xs))
        keys = [d * k for d in (1.0, -1.0) for k in grown._sides[d][0][1:4]
                if min(xs) <= d * k <= max(xs)]
        assert len(keys) == (3 if name == "airy" else 6)
        xs += keys
        random.Random(name).shuffle(xs)
    serial = _ContinuationTable(q, 0.0, seed)
    heads = [_bits(serial.state_at(x)[0]) for x in xs]
    sides = repr(serial._sides)

    def forbidden(*args):
        raise AssertionError("_locate called by a numpy batch")

    for numpy in (np, None):
        table = _ContinuationTable(q, 0.0, seed)
        with monkeypatch.context() as m:
            m.setitem(sys.modules, "numpy", numpy)
            if numpy is not None:
                m.setattr(table, "_locate", forbidden)
            ws = table.values_at(xs)
        assert [_bits(w) for w in ws] == heads
        assert repr(table._sides) == sides


@pytest.mark.parametrize("name", sorted(TABLES))
def test_numpy_batch_calls_no_scalar_horner(monkeypatch, name):
    """With numpy, a batch over a grown table hops through _dd_horner_rows
    alone and never calls the scalar _dd_horner, on checkpoints and
    between them, and its values equal the w of state_at in float.hex."""
    q, seed, (lo, hi) = TABLES[name]
    table = _ContinuationTable(q, 0.0, seed)
    for x in (lo, hi):
        table.state_at(x)
    keys = [d * k for d in (1.0, -1.0) for k in table._sides[d][0][1:6]]
    xs = keys + [float(x) for x in np.linspace(lo, hi, 41)]
    random.Random(name).shuffle(xs)
    heads = [_bits(table.state_at(x)[0]) for x in xs]

    def forbidden(*args):
        raise AssertionError("scalar _dd_horner called by a numpy batch")

    monkeypatch.setattr(reference, "_dd_horner", forbidden)
    assert [_bits(w) for w in table.values_at(xs)] == heads


def test_airy_real_tables_match_complex_table(monkeypatch):
    """The complex Airy table, seeded with w = Ai + i Bi, gives the bits of
    two real tables, one per solution, kept here as the reference: in full
    queries and in value-only batches with and without numpy, at every
    checkpoint key up to t = 50, at the origin, at the seam and between
    keys. The recurrence has real coefficients, so each part of w marches
    as its real table does."""
    w0, dw0 = airy_origin_values()
    real = [_ContinuationTable([0.0, 1.0], 0.0, seed)
            for seed in ((w0.real, dw0.real), (w0.imag, dw0.imag))]
    for table in real:
        table.state_at(-AIRY_VALUE_SWITCH)
    keys = [k for k in real[0]._sides[-1.0][0] if k <= AIRY_VALUE_SWITCH]
    assert len(keys) > 100
    assert real[1]._sides[-1.0][0] == real[0]._sides[-1.0][0]
    rng = random.Random(0)
    between = [rng.uniform(0.0, AIRY_VALUE_SWITCH) for _ in range(200)]
    ts = keys + between + [0.0, AIRY_VALUE_SWITCH]
    heads = []
    for t in ts:
        (a, da), (b, db) = [table.state_at(-t) for table in real]
        expect = [x.hex() for x in (a, da, b, db)]
        heads.append([expect[0], expect[2]])
        assert [x.hex() for x in _parts(
            reference._AIRY_TABLE.state_at(-t))] == expect, t
    for numpy in (np, None):
        with monkeypatch.context() as m:
            m.setitem(sys.modules, "numpy", numpy)
            ws = airy_values(ts)
        assert [[w.real.hex(), w.imag.hex()] for w in ws] == heads
    for _, series, frontier in reference._AIRY_TABLE._sides.values():
        assert all(type(part) is complex for part in frontier)
        assert all(type(c) is complex for pair in series for hi, lo in pair
                   for part in (hi, lo) for c in part)


@pytest.mark.parametrize("name", sorted(TABLES))
def test_query_at_last_key_grows_one_substep(monkeypatch, name):
    """A query exactly at a side's last key, on either side, grows that
    side by one substep, since the last key has no series to hop over yet.
    state_at and values_at, with numpy and without, then give the key the
    bits of a table that was grown past it before the query."""
    q, seed, (lo, hi) = TABLES[name]
    grown = _ContinuationTable(q, 0.0, seed)
    for x in (lo, hi):
        grown.state_at(x)
    for d in (1.0, -1.0):
        before, key = (d * k for k in grown._sides[d][0][2:4])
        expect = {"state_at": _bits(*grown.state_at(key))}
        expect["values_at"] = expect["values_at_without_numpy"] = _bits(
            grown.state_at(key)[0])
        for query, want in expect.items():
            table = _ContinuationTable(q, 0.0, seed)
            table.state_at((before + key) / 2.0)
            assert d * table._sides[d][0][-1] == key
            with monkeypatch.context() as m:
                if query == "values_at_without_numpy":
                    m.setitem(sys.modules, "numpy", None)
                if query == "state_at":
                    got = _bits(*table.state_at(key))
                else:
                    got = _bits(*table.values_at([key]))
            assert got == want, query
            assert table._sides[d][0] == grown._sides[d][0][:5]
            assert len(table._sides[d][1]) == 4


@pytest.mark.parametrize("query", ["state_at", "values_at",
                                   "values_at_without_numpy"])
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_table_rejects_non_finite_point(monkeypatch, x, query):
    """A march towards an infinite point would never end. A batch with
    points on both sides raises the ValueError of a single query at its
    first non-finite point, not at a later one, with numpy and without."""
    table = _ContinuationTable([0.0, 1.0], 0.0, airy_origin_values())
    later = math.inf if math.isnan(x) else math.nan
    if query == "values_at_without_numpy":
        monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ValueError) as info:
        if query == "state_at":
            table.state_at(x)
        else:
            table.values_at([0.5, -1.5, x, 2.0, later, -3.0])
    assert str(info.value) == f"continuation point must be finite, got {x!r}"


def test_table_concurrent_growth_matches_serial():
    """Two threads growing one fresh table from opposite ends, and a third
    issuing batch queries over both ends meanwhile, see the serial table's
    states and heads bit for bit."""
    q, seed = [0.0, 1.0], airy_origin_values()
    ys = [-float(t) for t in range(1, 59)]
    serial = _ContinuationTable(q, 0.0, seed)
    expect = {y: _bits(*serial.state_at(y)) for y in ys}
    batches = [ys[k::7] + [-y for y in ys[k::11]] for k in range(7)]
    expect_heads = [[_bits(serial.state_at(y)[0]) for y in batch]
                    for batch in batches]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            table = _ContinuationTable(q, 0.0, seed)
            got = ({}, {})
            got_heads = []

            def run(order, out):
                for y in order:
                    out[y] = _bits(*table.state_at(y))

            def run_batches():
                for batch in batches:
                    got_heads.append([_bits(w)
                                      for w in table.values_at(batch)])

            threads = [threading.Thread(target=run, args=(order, out))
                       for order, out in zip((ys, ys[::-1]), got)]
            threads.append(threading.Thread(target=run_batches))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert got == (expect, expect)
            assert got_heads == expect_heads
    finally:
        sys.setswitchinterval(old)


# ---------------------------------------------------------------------------
# Exact solutions and error metrics
# ---------------------------------------------------------------------------

def test_airy_exact_wronskian_constant(airy1):
    # Im(conj(phi) * eps * phi') = -eps^(1/3)/pi for the oscillatory pair.
    for x in (0.2, 1.0, 7.5, 43.0):
        s = airy1.exact(x)
        w = (s.phi.conjugate() * airy1.epsilon * s.dphi).imag
        assert w == pytest.approx(-airy1.epsilon ** (1 / 3) / math.pi, rel=1e-10)


def test_pcf_exact_at_center(pcf6):
    # z(1) = 0, so phi(1) = kappa * U(nu, 0).
    s = pcf6.exact(1.0)
    u0, _ = pcf_origin_values(NU)
    kappa = s.phi / u0
    # kappa normalization: phi(1) + i sqrt(2) eps phi'(1) = 2.
    val = s.phi + 1j * math.sqrt(2.0) * pcf6.epsilon * s.dphi
    assert val == pytest.approx(2.0 + 0.0j, rel=1e-12)
    assert abs(kappa) > 0.0


def test_global_error_trivial(airy1):
    states = [airy1.exact(x) for x in (0.5, 1.0, 2.0)]
    assert global_error(states, airy1, "sup") == pytest.approx(0.0, abs=1e-13)
    assert global_error(states, airy1, "l2rel") == pytest.approx(0.0, abs=1e-13)


def test_global_error_single_node_scaling(airy1):
    ex = airy1.exact(2.0)
    bumped = WaveState(2.0, ex.phi * (1 + 1e-6), ex.dphi)
    assert global_error([bumped], airy1, "sup") == pytest.approx(1e-6, rel=1e-6)
    assert global_error([bumped], airy1, "l2rel") == pytest.approx(1e-6, rel=1e-6)


def test_global_error_reads_no_derivative(monkeypatch, airy1, pcf6,
                                         airy_runs, pcf_runs):
    """Both norms succeed with the derivative series forbidden, and equal
    the norms recomputed from the full exact(x). That recomputation also
    grows the tables over the nodes, and growth is where each checkpoint's
    derivative series is formed, so a query forms none. A problem whose
    provider is a plain x -> WaveState callable, with no batch query, is
    queried one point at a time and gives the same norms."""
    cases = [(airy_runs[1e-6], airy1), (pcf_runs["wkb+rkf45", 1e-6], pcf6)]
    expect = []
    for traj, p in cases:
        refs = [p.exact(s.x).phi for s in traj.states]
        errs = [abs(s.phi - r) for s, r in zip(traj.states, refs)]
        expect.append((max(e / abs(r) for e, r in zip(errs, refs) if r != 0),
                       math.hypot(*errs) / math.hypot(*map(abs, refs))))

    def forbidden(*args):
        raise AssertionError("derivative series evaluated")

    monkeypatch.setattr(reference, "_dd_deriv_coeffs", forbidden)
    for (traj, p), (sup, l2rel) in zip(cases, expect):
        plain = dataclasses.replace(p, exact=lambda x, f=p.exact: f(x))
        for problem in (p, plain):
            assert global_error(traj, problem, "sup") == sup
            assert global_error(traj, problem, "l2rel") == l2rel


def test_global_error_nan_node_reads_nan(airy1):
    # A NaN node is not skipped by the sup norm: wherever it sits, both
    # norms read nan.
    good = [airy1.exact(x) for x in (0.5, 1.0, 2.0)]
    bad = WaveState(1.5, complex(math.nan, 0.0), 0j)
    for states in ([bad, *good], [good[0], bad, *good[1:]], [*good, bad]):
        assert math.isnan(global_error(states, airy1, "sup"))
        assert math.isnan(global_error(states, airy1, "l2rel"))


def test_global_error_nan_node_reads_nan_beside_inf_node(airy1):
    # math.hypot reads inf when one argument is inf and another nan; l2rel
    # reads nan, as sup does, wherever the two nodes sit.
    good = [airy1.exact(x) for x in (0.5, 1.0, 2.0)]
    nan = WaveState(1.5, complex(math.nan, 0.0), 0j)
    inf = WaveState(3.0, complex(math.inf, 0.0), 0j)
    for states in ([nan, inf, *good], [*good, inf, nan],
                   [good[0], inf, good[1], nan, good[2]]):
        assert math.isnan(global_error(states, airy1, "sup"))
        assert math.isnan(global_error(states, airy1, "l2rel"))
    # An Inf node alone reads inf in both norms.
    for norm in ("sup", "l2rel"):
        assert global_error([*good, inf], airy1, norm) == math.inf


def test_global_error_vanishing_exact_solution_raises(airy1):
    # With no node left to measure, the sup norm raises as l2rel does.
    zero = dataclasses.replace(airy1, exact=lambda x: WaveState(x, 0j, 0j))
    states = [airy1.exact(x) for x in (0.5, 1.0)]
    for norm in ("sup", "l2rel"):
        with pytest.raises(ValueError, match="vanishes on all nodes"):
            global_error(states, zero, norm)


def test_global_error_unknown_norm(airy1):
    with pytest.raises(ValueError):
        global_error([airy1.exact(1.0)], airy1, "max")
