"""Special-function layer: Airy hybrid, parabolic cylinder, metrics.

Independent oracles used here: scipy.special (airy), mpmath (pcfu),
scipy.integrate.solve_ivp at tight tolerance, and cross-validation between
the asymptotic expansions and the Taylor continuation, which share no code
path beyond float arithmetic.
"""

import dataclasses
import importlib.util
import math
import random
import sys
import threading
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import solve_ivp

from wkbmarch import (ContinuationError, Trajectory, WaveState, airy_pair,
                      global_error, integrate, make_pcf_problem, reference)
from wkbmarch.reference import (AIRY_VALUE_SWITCH, SERIES_TERMS,
                                _ContinuationTable, _dd_add, _dd_deriv_coeffs, _dd_horner,
                                _dd_mul_d, _horner, _horner_rows,
                                _dd_recip_int, _dd_series, _dd_shift_poly,
                                _dd_substep, _series_phase_cap, airy_asymptotic,
                                airy_origin_values, airy_values,
                                asymptotic_coeffs, exact_solution,
                                pcf_origin_values, _two_prod, _two_sum)

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

def _dd_mul_dd(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    e = e + (xh * yl + xl * yh)
    return _two_sum(p, e)


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
# origin series has c_(3k+2) = 0), infinities, tiny, unit and large
# coefficients.
HORNER_EDGES = [0.0, -0.0, math.inf, -math.inf, 1e-300, -1e-300, 1.0, -1.0,
                -2.5, 3e10]


@settings(deadline=None, derandomize=True, max_examples=150)
@given(data=st.data())
def test_batch_horner_matches_scalar(data):
    """_horner_rows on numpy coefficient rows, real or complex, one real
    hop of either sign per column, gives the bits of the scalar _horner of
    every column in float.hex, signed zeros and infinities included.
    Complex rows run as interleaved real lanes, and the scalar kernel runs
    each part alone, so neither forms a complex product."""
    kind = data.draw(st.sampled_from([float, complex]))
    shape = data.draw(st.tuples(st.integers(1, SERIES_TERMS),
                                st.integers(1, 60)))

    def part():
        return data.draw(hnp.arrays(np.float64, shape, elements=(
            st.sampled_from(HORNER_EDGES) | st.floats(-1e3, 1e3))))

    if kind is float:
        hi = part()
    else:
        hi = np.empty(shape, complex)
        hi.real, hi.imag = part(), part()
    hs = data.draw(hnp.arrays(np.float64, shape[1], elements=(
        st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-1.0, 1.0))))
    with np.errstate(all="ignore"):
        v = _horner_rows(hi, hs, np)
    assert v.dtype == hi.dtype and v.shape == hs.shape
    for j, h in enumerate(hs.tolist()):
        assert _bits(v[j].item()) == _bits(_horner(hi[:, j].tolist(), h)), j


U_ROUND = 2.0 ** -53


def _plain_bound(series, h):
    """values_at's bound gamma_2n * sum |c_k| |h|^k on each real lane
    (real, imaginary) of a hop h over the n plain coefficients c_k of
    series, exactly, as Fractions; gamma_m = m u / (1 - m u)."""
    m = 2 * len(series) * Fraction(U_ROUND)
    gamma = m / (1 - m)
    habs = abs(Fraction(h))
    bounds = []
    for lane in ("real", "imag"):
        total = Fraction(0)
        for c in reversed(series):
            total = total * habs + abs(Fraction(getattr(c, lane)))
        bounds.append(gamma * total)
    return bounds


def _assert_within_bound(got, head, series, h):
    """got, a plain Horner answer, lies within _plain_bound of the head
    of the compensated pass, on each real lane, in exact arithmetic."""
    for lane, bound in zip(("real", "imag"), _plain_bound(series, h)):
        g, w = float(getattr(got, lane)), float(getattr(head, lane))
        assert abs(Fraction(g) - Fraction(w)) <= bound, (lane, g, w, h)


def _assert_table_bound(table, ys, ws):
    """Each w of ws, the values_at answer at y of ys, is within the bound
    of state_at(y)'s w, over the series and hop that y's query reads."""
    for y, w in zip(ys, ws):
        d, i, h = table._locate(y)
        _assert_within_bound(w, table.state_at(y)[0],
                             table._sides[d][1][i][0][0], h)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(data=st.data())
def test_plain_horner_within_bound_of_compensated_head(data):
    """On random normalized double-double series, real or complex, of 1 to
    SERIES_TERMS terms, the plain pass over the high parts, in both the
    scalar and the batch kernel, is within gamma_2n * sum |c_k| |h|^k of
    _dd_horner's head on each real lane, for hops of either sign."""
    kind = data.draw(st.sampled_from([float, complex]))
    n = data.draw(st.integers(1, SERIES_TERMS))
    magnitude = st.floats(1e-8, 1e8) | st.just(0.0)

    def value():
        re = data.draw(magnitude) * data.draw(st.sampled_from([1.0, -1.0]))
        if kind is float:
            return re
        return complex(re, data.draw(magnitude)
                       * data.draw(st.sampled_from([1.0, -1.0])))

    def pair():
        c = value()
        tail = data.draw(st.floats(-1.0, 1.0)) * U_ROUND
        return _dd_add(c, c * 0.0, c * tail, c * 0.0)

    pairs = [pair() for _ in range(n)]
    hi, lo = [c for c, _ in pairs], [e for _, e in pairs]
    hs = [data.draw(st.just(0.0) | st.floats(1e-6, 1.0))
          * data.draw(st.sampled_from([1.0, -1.0])) for _ in range(4)]
    rows = _horner_rows(np.array(hi).reshape(n, 1).repeat(len(hs), 1),
                        np.array(hs), np)
    for h, batch in zip(hs, rows.tolist()):
        plain = _horner(hi, h)
        assert _bits(batch) == _bits(plain)
        _assert_within_bound(plain, _dd_horner(hi, lo, h)[0], hi, h)


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
    """airy_values gives one set of bits at t, alone and in one batch with
    points on both sides of the seam, with numpy and without. Above the
    seam they are the bits of airy_pair's w; at or below it, the table's
    plain pass, within its bound of airy_pair's w."""
    full = airy_pair(t)[0]
    got = set()
    for numpy in (np, None):
        with monkeypatch.context() as m:
            m.setitem(sys.modules, "numpy", numpy)
            for ts, j in (([t], 0), ([1.5, 60.0, t, 0.0, 1e3], 2)):
                got.add(tuple(_bits(airy_values(ts)[j])))
    assert len(got) == 1
    w = complex(*(float.fromhex(x) for x in got.pop()))
    if t > AIRY_VALUE_SWITCH:
        assert _bits(w) == _bits(full)
    else:
        _assert_table_bound(reference._AIRY_TABLE, [-t], [w])


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


# The asymptotic route is written out for speed; this composition of the
# double-double helpers, with its sums in a loop over asymptotic_coeffs, is
# the arithmetic that _airy_phase, _airy_w and airy_asymptotic must
# reproduce bit for bit.

def _dd_sqrt(x):
    sh = math.sqrt(x)
    p, e = _two_prod(sh, sh)
    return sh, ((x - p) - e) / (2.0 * sh)


def _reduce_mod_2pi(xh, xl):
    n = round(xh / reference._TWO_PI_HI)
    if n != 0:
        ph, pe = _two_prod(float(n), reference._TWO_PI_HI)
        xh, xl = _dd_add(xh, xl, -ph, -(pe + n * reference._TWO_PI_LO))
    return xh + xl


def _oracle_airy_asymptotic(t):
    if not t > 0.0:
        raise ValueError("asymptotic branch needs t > 0")
    sh, sl = _dd_sqrt(t)
    zh, zl = _dd_mul_d(sh, sl, t)
    zh, zl = _dd_mul_dd(zh, zl, reference._TWO_THIRDS_HI,
                        reference._TWO_THIRDS_LO)
    zeta = zh + zl
    if not math.isfinite(zeta):
        raise OverflowError(f"Airy phase overflows at t={t!r}")
    arg = _reduce_mod_2pi(zh, zl) - 0.25 * math.pi
    cosz = math.cos(arg)
    sinz = math.sin(arg)
    even_u = odd_u = even_v = odd_v = 0.0
    for k in range(4):
        sign = -1.0 if k % 2 else 1.0
        u2k, v2k = asymptotic_coeffs(2 * k)
        u2k1, v2k1 = asymptotic_coeffs(2 * k + 1)
        even_u += sign * u2k / zeta ** (2 * k)
        odd_u += sign * u2k1 / zeta ** (2 * k + 1)
        even_v += sign * v2k / zeta ** (2 * k)
        odd_v += sign * v2k1 / zeta ** (2 * k + 1)
    amp = 1.0 / (reference.SQRT_PI * t ** 0.25)
    damp = t ** 0.25 / reference.SQRT_PI
    return (complex(amp * (cosz * even_u + sinz * odd_u),
                    amp * (-sinz * even_u + cosz * odd_u)),
            complex(damp * (sinz * even_v - cosz * odd_v),
                    damp * (cosz * even_v + sinz * odd_v)))


def _outcome(fn, t):
    """float.hex of every part fn(t) returns, or the type of what it
    raises."""
    try:
        out = fn(t)
    except Exception as exc:
        return type(exc)
    return _bits(*(out if isinstance(out, tuple) else (out,)))


# The expansion answers up to _EDGE and raises from the next float up,
# where zeta ** 7 overflows in its sums.
_EDGE = float.fromhex("0x1.e24c968ffd534p+97")  # 2.9852872821457974e29


@example(t=math.nextafter(AIRY_VALUE_SWITCH, math.inf))
@example(t=1e29)
@example(t=_EDGE)
@example(t=math.nextafter(_EDGE, math.inf))
@example(t=3e29)
@example(t=1.0)  # zeta < pi: the reduction's n is 0
@example(t=1e-32)  # zeta ** 2 underflows: ZeroDivisionError in the sums
@settings(deadline=None, derandomize=True, max_examples=400)
@given(t=st.one_of(
    st.floats(AIRY_VALUE_SWITCH, 3e29, exclude_min=True),
    st.floats(0.0, AIRY_VALUE_SWITCH, exclude_min=True),
    st.builds(lambda e: 10.0 ** e, st.floats(1.7, 29.47))))
def test_asymptotic_route_matches_helper_oracle(t):
    """airy_asymptotic and the value kernel _airy_w of _airy_phase give the
    helper oracle's float.hex, or raise the same exception type: over t in
    (50, 3e29], log-uniform too, and below the seam, where the full-state
    route still answers; at the overflow edge and on both sides of it."""
    expect = _outcome(_oracle_airy_asymptotic, t)
    assert _outcome(airy_asymptotic, t) == expect
    value = _outcome(lambda x: reference._airy_w(x, *reference._airy_phase(x)),
                     t)
    assert value == (expect[:2] if isinstance(expect, list) else expect)


def test_asymptotic_rejects_nan_and_names_inf():
    """airy_asymptotic refuses a NaN t as it refuses one that is not
    positive, with its ValueError, not as a phase overflow; at t = inf the
    phase does overflow, and the OverflowError names t."""
    for t in (math.nan, -math.nan, 0.0, -0.0, -1.0, -math.inf):
        with pytest.raises(ValueError, match="needs t > 0"):
            airy_asymptotic(t)
    with pytest.raises(OverflowError) as info:
        airy_asymptotic(math.inf)
    assert str(info.value) == "Airy phase overflows at t=inf"


def test_asymptotic_overflow_edge_names_t(monkeypatch):
    """From t of about 2.985e29 up, zeta ** 7 overflows in the sums. Below
    that edge airy_pair and airy_values answer; above it both raise an
    OverflowError naming t, with numpy and without."""
    message = "Airy expansion overflows at t=4e+29"
    assert all(map(math.isfinite, _parts(airy_pair(1e29))))
    with pytest.raises(OverflowError) as info:
        airy_pair(4e29)
    assert str(info.value) == message
    for numpy in (np, None):
        with monkeypatch.context() as m:
            m.setitem(sys.modules, "numpy", numpy)
            assert _bits(airy_values([1.0, 1e29])[1]) == \
                _bits(airy_pair(1e29)[0])
            with pytest.raises(OverflowError) as info:
                airy_values([1.0, 4e29])
            assert str(info.value) == message, numpy


def test_airy_asymptotic_accuracy_against_mpmath():
    """Against mpmath at 60 digits, at the float t, the expansion's w is
    within 1e-15 of |w| on 50 < t <= 1e10. The largest of these points
    reads 4.0e-16, so the bound has a margin of about 2.5. Further out
    zeta's own double-double rounding takes over: 4.0e-15 at t = 1e12 and
    2.7e-12 at 1e14, so no bound of this size holds there."""
    rng = random.Random(0)
    ts = [10.0 ** rng.uniform(math.log10(AIRY_VALUE_SWITCH), 10.0)
          for _ in range(100)] + [1e8, 1e10]
    with mpmath.workdps(60):
        for t in ts:
            ref = mpmath.mpc(mpmath.airyai(-mpmath.mpf(t)),
                             mpmath.airybi(-mpmath.mpf(t)))
            err = abs(mpmath.mpc(airy_asymptotic(t)[0]) - ref) / abs(ref)
            assert err <= 1e-15, t


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
    """values_at(xs) is within the plain-pass bound of the w of
    state_at(x) at every x: at checkpoint keys, at x0 and between keys on
    both sides of x0. Shuffled batches mixed with full queries on one
    table, with numpy and with numpy unimportable, give the bits of one
    batch over all the points on another table, and the full queries give
    that table's bits. Once the tables have grown over the
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
    plain = ref.values_at(xs)
    _assert_table_bound(ref, xs, plain)
    heads = {x: _bits(w) for x, w in zip(xs, plain)}

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
    unimportable, its values equal in float.hex those of the same batch on
    a table grown first by serial state_at queries, and lie within the
    plain-pass bound of state_at's w; the table holds the keys, series and
    frontier states that the serial queries leave. With numpy the batch
    makes no _locate call: it locates every point in one lookup per side,
    on checkpoints too."""
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
    for x in xs:
        serial.state_at(x)
    sides = repr(serial._sides)
    plain = serial.values_at(xs)
    _assert_table_bound(serial, xs, plain)
    heads = [_bits(w) for w in plain]

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
    """With numpy, a batch over a grown table hops through _horner_rows
    alone and never calls the scalar _horner or the compensated
    _dd_horner, on checkpoints and between them. Its values equal those of
    the numpy-free batch in float.hex and lie within the plain-pass bound
    of state_at's w."""
    q, seed, (lo, hi) = TABLES[name]
    table = _ContinuationTable(q, 0.0, seed)
    for x in (lo, hi):
        table.state_at(x)
    keys = [d * k for d in (1.0, -1.0) for k in table._sides[d][0][1:6]]
    xs = keys + [float(x) for x in np.linspace(lo, hi, 41)]
    random.Random(name).shuffle(xs)
    with monkeypatch.context() as m:
        m.setitem(sys.modules, "numpy", None)
        plain = table.values_at(xs)
    _assert_table_bound(table, xs, plain)

    def forbidden(*args):
        raise AssertionError("scalar kernel called by a numpy batch")

    monkeypatch.setattr(reference, "_horner", forbidden)
    monkeypatch.setattr(reference, "_dd_horner", forbidden)
    assert [_bits(w) for w in table.values_at(xs)] == \
        [_bits(w) for w in plain]


def test_airy_real_tables_match_complex_table(monkeypatch):
    """The complex Airy table, seeded with w = Ai + i Bi, gives the bits of
    two real tables, one per solution, kept here as the reference: in full
    queries, and in value-only batches with and without numpy against the
    real tables' own batches, at every checkpoint key up to t = 50, at the
    origin, at the seam and between keys. The recurrence has real
    coefficients, so each part of w marches as its real table does, and
    the plain pass runs each part as a real lane."""
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
    for t in ts:
        (a, da), (b, db) = [table.state_at(-t) for table in real]
        expect = [x.hex() for x in (a, da, b, db)]
        assert [x.hex() for x in _parts(
            reference._AIRY_TABLE.state_at(-t))] == expect, t
    for numpy in (np, None):
        with monkeypatch.context() as m:
            m.setitem(sys.modules, "numpy", numpy)
            ws = airy_values(ts)
            parts = [table.values_at([-t for t in ts]) for table in real]
        assert [[w.real.hex(), w.imag.hex()] for w in ws] == \
            [[a.hex(), b.hex()] for a, b in zip(*parts)]
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
    states and batch values bit for bit."""
    q, seed = [0.0, 1.0], airy_origin_values()
    ys = [-float(t) for t in range(1, 59)]
    serial = _ContinuationTable(q, 0.0, seed)
    expect = {y: _bits(*serial.state_at(y)) for y in ys}
    batches = [ys[k::7] + [-y for y in ys[k::11]] for k in range(7)]
    expect_heads = [[_bits(w) for w in serial.values_at(batch)]
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
    the norms recomputed from the batch exact_solution. A problem whose
    provider is a plain x -> WaveState callable, with no batch query, is
    queried one point at a time and gives the norms recomputed from the
    full exact(x); that recomputation also grows the tables over the
    nodes, and growth is where each checkpoint's derivative series is
    formed, so a query forms none. The batch reads the plain Horner pass
    and the full query the compensated one, so the two sets of norms agree
    to 1e-6 of themselves, not in every bit."""
    cases = [(airy_runs[1e-6], airy1), (pcf_runs["wkb+rkf45", 1e-6], pcf6)]

    def norms(states, refs):
        errs = [abs(s.phi - r) for s, r in zip(states, refs)]
        return (max(e / abs(r) for e, r in zip(errs, refs) if r != 0),
                math.hypot(*errs) / math.hypot(*map(abs, refs)))

    expect = []
    for traj, p in cases:
        full = norms(traj.states, [p.exact(s.x).phi for s in traj.states])
        batch = norms(traj.states,
                      exact_solution(p, [s.x for s in traj.states]))
        for a, b in zip(full, batch):
            assert a == pytest.approx(b, rel=1e-6, abs=0.0)
        expect.append((batch, full))

    def forbidden(*args):
        raise AssertionError("derivative series evaluated")

    monkeypatch.setattr(reference, "_dd_deriv_coeffs", forbidden)
    for (traj, p), pair in zip(cases, expect):
        plain = dataclasses.replace(p, exact=lambda x, f=p.exact: f(x))
        for problem, (sup, l2rel) in zip((p, plain), pair):
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


def test_global_error_overflowing_modulus_reads_inf(monkeypatch, airy1):
    """A node whose error has a modulus beyond the largest float reads inf
    in both norms, with numpy and without: abs(complex) raises
    OverflowError there, and the norms read inf as estimate_error does."""
    states = [WaveState(1.0, 1.5e308 + 1.5e308j, 0j)]
    with pytest.raises(OverflowError):
        abs(states[0].phi - airy1.exact(1.0).phi)
    for numpy in (np, None):
        with monkeypatch.context() as m:
            m.setitem(sys.modules, "numpy", numpy)
            for norm in ("sup", "l2rel"):
                assert global_error(states, airy1, norm) == math.inf, norm
            good = [airy1.exact(x) for x in (0.5, 2.0)]
            assert global_error([*good, *states], airy1, "l2rel") == math.inf


# Parts of the random states and exact values below: plain values, zeros
# of both signs, NaN, infinities, and parts near the overflow and
# underflow edges of the modulus.
_PARTS = st.one_of(
    st.floats(-1e3, 1e3), st.sampled_from(
        [0.0, -0.0, math.nan, math.inf, -math.inf, 1.5e308, -1.2e308,
         5e-324, 1e-310]),
    st.floats(allow_nan=False, allow_infinity=False))
_COMPLEX = st.builds(complex, _PARTS, _PARTS)


# On these two nodes np.abs of the difference and of the exact value each
# differ from abs in the last bit, and so does the ratio they give.
@example(pairs=[(0.8825389674564839 + 0.5803500161908991j,
                 0.09151670328235219 + 0.6701043548284794j),
                (1.3700723413337117 - 1.4603812011954127j,
                 -0.5963695117707888 - 0.32124391928619556j)])
@settings(deadline=None, derandomize=True, max_examples=300)
@given(pairs=st.lists(st.tuples(_COMPLEX, st.one_of(
    _COMPLEX, st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0)]))),
    min_size=1, max_size=12))
def test_array_sup_norm_matches_list_norm(pairs):
    """The array sup norm of global_error gives the list norm's float.hex
    over random nodes and exact values, with NaN, infinite and zero exact
    values among them and values where np.abs differs from abs, and raises
    the same ValueError when every exact value is zero."""
    phis = [phi for phi, _ in pairs]
    refs = [ref for _, ref in pairs]
    try:
        expect = reference._error_norm(phis, refs, "sup").hex()
    except ValueError as exc:
        expect = str(exc)
    try:
        got = reference._sup_norm(np.array(phis),
                                  np.array(refs, dtype=complex), np).hex()
    except ValueError as exc:
        got = str(exc)
    assert got == expect


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["airy-mixed", "pcf-rival", "long-cc"])
def test_global_error_same_bits_without_numpy(monkeypatch, name):
    """global_error under "sup" gives the same float.hex with numpy, where
    it is one array pass, and with numpy unimportable, where it is the list
    norm, on the seed-0 trajectory of each benchmark workload."""
    w = _bench_workloads()[name]
    problem = w.make_problem()
    traj = integrate(problem, w.config(w.h0_factors(0)[0]))
    got = {}
    for numpy in (np, None):
        with monkeypatch.context() as m:
            m.setitem(sys.modules, "numpy", numpy)
            got[numpy] = global_error(traj, problem, "sup").hex()
    assert got[np] == got[None]


@pytest.mark.parametrize("numpy", [np, None], ids=["numpy", "without_numpy"])
def test_verification_batch_takes_no_full_state_route(monkeypatch, numpy):
    """On the seed-0 long-cc trajectory, whose nodes above the seam take
    the asymptotic expansion, both norms of global_error and the batch
    exact_solution keep their bits with airy_asymptotic forbidden, with
    numpy and without: the batch answers those nodes from the value-only
    kernel and forms no w'. Mirrors test_global_error_reads_no_derivative
    on the table side."""
    w = _bench_workloads()["long-cc"]
    problem = w.make_problem()
    traj = integrate(problem, w.config(w.h0_factors(0)[0]))
    xs = [s.x for s in traj.states]
    assert problem.epsilon == 1.0
    assert sum(x > AIRY_VALUE_SWITCH for x in xs) == 22

    def results():
        return (global_error(traj, problem, "sup").hex(),
                global_error(traj, problem, "l2rel").hex(),
                _bits(*exact_solution(problem, xs)))

    def forbidden(t):
        raise AssertionError(f"full-state route at t={t}")

    with monkeypatch.context() as m:
        m.setitem(sys.modules, "numpy", numpy)
        expect = results()
        m.setattr(reference, "airy_asymptotic", forbidden)
        assert results() == expect


@pytest.mark.parametrize("name", ["airy-mixed", "pcf-rival"])
def test_global_error_reads_only_the_columns(monkeypatch, name):
    """On the seed-0 trajectory of each workload, both norms of
    global_error, with numpy and without, keep their bits with
    Trajectory.records and .states replaced by properties that raise: x
    and phi come from the trajectory's columns, and no per-step record or
    state is rebuilt. They equal, in float.hex, global_error of the list of
    the trajectory's states, which takes the same adapter into columns.
    Mirrors test_verification_batch_takes_no_full_state_route."""
    w = _bench_workloads()[name]
    problem = w.make_problem()
    traj = integrate(problem, w.config(w.h0_factors(0)[0]))
    states = traj.states

    def results(nodes):
        return [global_error(nodes, problem, norm).hex()
                for norm in ("sup", "l2rel")]

    def forbidden(self):
        raise AssertionError("per-step view built")

    for numpy in (np, None):
        with monkeypatch.context() as m:
            m.setitem(sys.modules, "numpy", numpy)
            expect = results(traj)
            assert results(states) == expect
            m.setattr(Trajectory, "records", property(forbidden))
            m.setattr(Trajectory, "states", property(forbidden))
            assert results(traj) == expect


@pytest.mark.parametrize("name", ["airy-mixed", "pcf-rival", "long-cc"])
def test_reference_within_bound_at_workload_nodes(name):
    """At every seed-0 node of each benchmark workload that a continuation
    table answers, the batch value is within the plain-pass bound of the
    full-state query's w on each real lane. The tables are the ones the
    providers read: the Airy table at -x (epsilon 1), and a PCF table
    seeded as make_pcf_problem seeds its own, at z_scale * (1 - x)."""
    w = _bench_workloads()[name]
    problem = w.make_problem()
    xs = [s.x for s in integrate(problem, w.config(1.0)).states]
    if name == "pcf-rival":
        nu = -1.0 / (math.sqrt(8.0) * problem.epsilon)
        z_scale = 2.0 ** 0.25 / math.sqrt(problem.epsilon)
        table = _ContinuationTable([nu, 0.0, 0.25], 0.0,
                                   pcf_origin_values(nu))
        ys = [z_scale * (1.0 - x) for x in xs]
    else:
        assert problem.epsilon == 1.0
        table = reference._AIRY_TABLE
        ys = [-x for x in xs if x <= AIRY_VALUE_SWITCH]
    assert len(ys) == {"airy-mixed": 856, "pcf-rival": 1394,
                       "long-cc": 36}[name]
    _assert_table_bound(table, ys, table.values_at(ys))


@pytest.mark.parametrize("numpy", [np, None], ids=["numpy", "without_numpy"])
def test_exact_solution_returns_python_complex(monkeypatch, airy1, pcf6,
                                               numpy):
    """exact_solution answers a list of Python complex, on both Airy routes
    and on PCF, though the providers answer in arrays with numpy. Its
    values are the provider's numpy-free batch in float.hex: on the Airy
    asymptotic route the bits of the full exact(x), on the tables the
    plain Horner pass, within 1e-14 of the full exact(x) at these
    points."""
    cases = ((airy1, [0.5, 30.0, 60.0]), (pcf6, [0.3, 1.0, 1.7]))
    with monkeypatch.context() as m:
        m.setitem(sys.modules, "numpy", None)
        lists = [p.exact.phis(xs) for p, xs in cases]
    monkeypatch.setitem(sys.modules, "numpy", numpy)
    for (p, xs), expect in zip(cases, lists):
        refs = exact_solution(p, xs)
        assert type(refs) is list
        assert all(type(r) is complex for r in refs)
        assert _bits(*refs) == _bits(*expect)
        full = [p.exact(x).phi for x in xs]
        for r, f in zip(refs, full):
            assert abs(r - f) <= 1e-14 * abs(f)
    assert _bits(lists[0][2]) == _bits(airy1.exact(60.0).phi)


@pytest.mark.parametrize("numpy", [np, None], ids=["numpy", "without_numpy"])
def test_global_error_failed_batch_names_first_failing_point(
        monkeypatch, airy1, numpy):
    """Where the batch fails, both norms fall back to single full-state
    queries and raise the error of the first point that fails alone."""
    monkeypatch.setitem(sys.modules, "numpy", numpy)

    def exact(x):
        if x > 2.0:
            raise ValueError(f"no reference at x={x!r}")
        return airy1.exact(x)

    def phis(xs):
        raise OverflowError("batch fails")

    exact.phis = phis
    p = dataclasses.replace(airy1, exact=exact)
    states = [airy1.exact(x) for x in (0.5, 2.5, 1.0, 3.0)]
    for norm in ("sup", "l2rel"):
        with pytest.raises(ValueError, match=r"^no reference at x=2\.5$"):
            global_error(states, p, norm)
    assert global_error(states[:1], p, "sup") == 0.0


def test_queries_return_the_horner_head(monkeypatch):
    """state_at answers the head of each hop's double-double pair: the low
    part is never read. values_at, with numpy and without, runs no
    compensated pass at all, so its answers keep their bits when that low
    part reads nan. The pass ends in a two-sum, so for every finite head the sum of
    the pair gives the head's bits, and no head is -0.0 (a sum of two terms
    is -0.0 only if both are), over series with zeros of both signs and
    parts near the float range's edges. A non-finite head is returned as it
    is: where the last renormalization overflows, the head reads inf and
    the sum nan."""
    parts = [0.0, -0.0, 1.0, -2.5, 5e-324, -1e-300, 1e300, -1e-160]
    for hi in ([a, b] for a in parts for b in parts):
        for lo in ([0.0, -0.0], [1e-17, -5e-324]):
            for h in (0.0, -0.0, 0.5, -1.0, 1e-300, -5e-324):
                vh, vl = _dd_horner(hi, lo, h)
                assert math.copysign(1.0, vh) > 0.0 or vh != 0.0, (hi, h)
                if math.isfinite(vh):
                    assert (vh + vl).hex() == vh.hex(), (hi, lo, h)
    vh, vl = _dd_horner([sys.float_info.max], [2e292], 0.0)
    assert vh == math.inf and math.isnan(vh + vl)

    q, seed, (lo, hi) = TABLES["pcf"]
    table = _ContinuationTable(q, 0.0, seed)
    xs = [lo, -1.3, 0.0, 2.2, hi]
    expect = [_bits(*table.state_at(x)) for x in xs]
    plain = [_bits(w) for w in table.values_at(xs)]
    kernel = reference._dd_horner
    monkeypatch.setattr(reference, "_dd_horner",
                        lambda *a: (kernel(*a)[0], math.nan))
    assert [_bits(*table.state_at(x)) for x in xs] == expect
    for numpy in (np, None):
        with monkeypatch.context() as m:
            m.setitem(sys.modules, "numpy", numpy)
            assert [_bits(w) for w in table.values_at(xs)] == plain
