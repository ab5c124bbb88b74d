"""Problem construction: coefficient towers, benchmark data, JSON loading."""

import copy
import json
import math
import pickle
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wkbmarch import (CoefficientField, SolverConfig, SolverError,
                      WaveState, integrate, make_airy_problem,
                      make_pcf_problem, make_polynomial_problem,
                      problem_from_json, reference)
from wkbmarch.wkb_core import eval_bk


def fd_derivative(f, x, h):
    """Richardson-extrapolated central difference (independent oracle)."""
    d1 = (f(x + h) - f(x - h)) / (2 * h)
    d2 = (f(x + h / 2) - f(x - h / 2)) / h
    return (4 * d2 - d1) / 3


# ---------------------------------------------------------------------------
# coefficient fields
# ---------------------------------------------------------------------------

def test_polynomial_tower_exact():
    fld = CoefficientField([2.0, -1.0, 3.0])  # 2 - x + 3x^2
    assert fld.jet(2.0) == (12.0, 11.0, 6.0, 0.0, 0.0, 0.0)


def test_polynomial_tower_matches_finite_differences():
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(6)
    fld = CoefficientField(coeffs)
    for x in rng.uniform(-3.0, 3.0, 100):
        for order in range(1, 6):
            fd = fd_derivative(lambda y: fld.jet(y)[order - 1], float(x), 1e-3)
            exact = fld.jet(float(x))[order]
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-7)


def test_empty_coefficients_rejected():
    with pytest.raises(ValueError):
        CoefficientField([])


def test_derivative_order_limit():
    # The tower stops at a^(5).
    fld = CoefficientField([1.0, 1.0])
    assert len(fld.jet(0.5)) == 6


@settings(deadline=None, derandomize=True, max_examples=60)
@given(coeffs=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
       x=st.floats(-10.0, 10.0))
def test_field_value_is_the_jet_head(coeffs, x):
    # The field's value is the first entry of its jet, bit for bit.
    fld = CoefficientField(coeffs)
    assert fld(x) == fld.jet(x)[0]


@pytest.mark.parametrize("coeffs", [
    [0.3, -1.0, 2.5, -0.0], [0.0, 0.0, 0.0, 0.0, 0.0, 1e308],
    [1.0 / (k + 1) for k in range(250)]])
def test_field_and_poly_problem_round_trip(coeffs):
    # A field reduces to its coefficients, so a pickled or copied field,
    # and a poly problem holding one, evaluate with the same bits.
    spec = {"type": "poly", "epsilon": 0.1, "domain": [0.0, 1.0],
            "coeffs": coeffs, "initial": [1.0, 0.0, 0.0, 1.0]}
    problem = problem_from_json(spec)
    fields = [problem.field, pickle.loads(pickle.dumps(problem.field)),
              copy.deepcopy(problem.field), copy.copy(problem.field)]
    for other in (pickle.loads(pickle.dumps(problem)),
                  copy.deepcopy(problem)):
        assert (other.epsilon, other.x_start, other.x_end, other.initial) \
            == (problem.epsilon, problem.x_start, problem.x_end,
                problem.initial)
        fields.append(other.field)
    assert len({id(f) for f in fields}) == len(fields)
    for x in (0.0, -0.0, 0.37, -1.5, 3.0, math.inf, math.nan):
        want = [v.hex() for v in problem.field.jet(x)]
        for fld in fields:
            assert [v.hex() for v in fld.jet(x)] == want
            assert fld(x).hex() == want[0]


def test_airy_field_is_linear():
    p = make_airy_problem(0.37)
    assert p.field.jet(13.7) == (13.7, 1.0, 0.0, 0.0, 0.0, 0.0)


def test_poly_reproduces_benchmarks():
    airy_like = CoefficientField([0.0, 1.0])
    pcf_like = CoefficientField([0.0, 1.0, -0.5])
    for x in (0.3, 1.4, 5.0):
        assert airy_like.jet(x) == make_airy_problem(1.0).field.jet(x)
    for x in (0.3, 1.4, 1.9):
        assert pcf_like.jet(x) == make_pcf_problem(0.5).field.jet(x)


def test_constant_field_b_vanishes():
    p = make_polynomial_problem([1.0], 1.0, (0.0, 1.0))
    assert eval_bk(p, 0.5).b == 0.0


# ---------------------------------------------------------------------------
# Airy benchmark
# ---------------------------------------------------------------------------

def test_airy_initial_data_at_origin():
    # Ai(0) + i Bi(0) and, in the scaled-derivative convention,
    # eps phi'(0) = -eps^(1/3) (Ai'(0) + i Bi'(0)), against mpmath.
    ai, bi = mpmath.airyai(0), mpmath.airybi(0)
    aip, bip = mpmath.airyai(0, 1), mpmath.airybi(0, 1)
    for eps in (1.0, 0.25):
        p = make_airy_problem(eps, x_start=0.0, x_end=50.0)
        expect_scaled = -complex(aip, bip) * eps ** (1 / 3)
        assert p.initial.phi == pytest.approx(complex(ai, bi), rel=1e-15)
        assert eps * p.initial.dphi == pytest.approx(expect_scaled, rel=1e-15)


def test_airy_b_at_one():
    # Independent oracle: Richardson finite differences of a^(-1/4).
    p = make_airy_problem(1.0)

    def quarter(x):
        return x ** -0.25

    second = fd_derivative(lambda x: fd_derivative(quarter, x, 1e-3), 1.0, 1e-3)
    oracle = -second / (2.0 * 1.0 ** 0.25)
    assert oracle == pytest.approx(-0.15625, rel=1e-6)
    assert eval_bk(p, 1.0).b == pytest.approx(-5.0 / 32.0, rel=1e-12)


def test_airy_phase_antiderivative_consistency():
    # F' must equal sqrt(a) - eps^2 b at sampled points.
    eps = 0.7
    p = make_airy_problem(eps)
    for x in (0.5, 1.0, 3.0, 20.0):
        fd = fd_derivative(p.phase_antiderivative, x, 1e-4 * max(1.0, x))
        target = math.sqrt(x) - eps * eps * (-(5.0 / 32.0) * x ** -2.5)
        assert fd == pytest.approx(target, rel=1e-10)


def test_initial_state_satisfies_equation():
    """phi'' from sixth-order differences must equal -a phi / eps^2."""
    for p in (make_airy_problem(1.0), make_pcf_problem(2.0 ** -6)):
        x = p.x_start + 0.4 * (p.x_end - p.x_start)
        h = 3e-4
        stencil = [p.exact(x + k * h).phi for k in (-3, -2, -1, 0, 1, 2, 3)]
        d2 = (2 * stencil[0] - 27 * stencil[1] + 270 * stencil[2]
              - 490 * stencil[3] + 270 * stencil[4] - 27 * stencil[5]
              + 2 * stencil[6]) / (180 * h * h)
        target = -p.field.jet(x)[0] * stencil[3] / p.epsilon ** 2
        assert abs(d2 - target) / abs(target) < 1e-8


# ---------------------------------------------------------------------------
# PCF benchmark
# ---------------------------------------------------------------------------

def test_pcf_parameter_values():
    eps = 2.0 ** -6
    p = make_pcf_problem(eps)
    # nu = -1/(sqrt(8) eps) evaluated directly.
    nu = -1.0 / (math.sqrt(8.0) * eps)
    assert nu == pytest.approx(-22.62741699796952, rel=1e-15)
    # z(1) = 0 for every eps: phi(1) = kappa U(nu, 0) is the center value.
    z_scale = 2.0 ** 0.25 / math.sqrt(eps)
    assert z_scale * (1.0 - 1.0) == 0.0
    assert p.field.jet(1.0)[0] == pytest.approx(0.5)
    assert p.field.jet(1.0)[1] == pytest.approx(0.0)


def test_pcf_b_at_center():
    p = make_pcf_problem(2.0 ** -6)

    def quarter(x):
        return (-x * x / 2 + x) ** -0.25

    second = fd_derivative(lambda x: fd_derivative(quarter, x, 1e-3), 1.0, 1e-3)
    oracle = -second / (2.0 * 0.5 ** 0.25)
    assert oracle == pytest.approx(-math.sqrt(2.0) / 4.0, rel=1e-6)
    assert eval_bk(p, 1.0).b == pytest.approx(-math.sqrt(2.0) / 4.0, rel=1e-12)


def test_pcf_phase_antiderivative_consistency():
    eps = 2.0 ** -6
    p = make_pcf_problem(eps)

    def b(x):
        a = -x * x / 2 + x
        return -(5 / 32) * a ** -2.5 * (1 - x) ** 2 + (1 / 8) * a ** -1.5 * (-1.0)

    for x in (0.3, 1.0, 1.7):
        fd = fd_derivative(p.phase_antiderivative, x, 1e-4)
        target = math.sqrt(-x * x / 2 + x) - eps * eps * b(x)
        assert fd == pytest.approx(target, rel=1e-10)


def test_pcf_domain_validation():
    with pytest.raises(ValueError):
        make_pcf_problem(0.1, x_start=-0.5, x_end=1.0)
    with pytest.raises(ValueError):
        make_pcf_problem(0.1, x_start=0.5, x_end=2.5)


@pytest.mark.parametrize("eps", [1.2e-3, 1e-3, 1e-4, 1e-17])
def test_pcf_origin_overflow_is_value_error(eps):
    # Below eps of about 1.23e-3 U(nu, 0) or its continuation overflows.
    # Below about 4e-17 |nu| passes 2^53, where every float is an integer:
    # both origin values read a gamma pole and vanish instead.
    with pytest.raises(ValueError, match=f"epsilon={eps!r}"):
        make_pcf_problem(eps)


# The edges of the epsilon range, where epsilon * epsilon is the least
# subnormal and the largest finite float.
EPS_LOW, EPS_HIGH = 1.5717277847026288e-162, 1.3407807929942596e154


@pytest.mark.parametrize("eps", [
    math.nan, math.inf, -0.5, 0.0,
    1e300, 1e160, math.nextafter(EPS_HIGH, math.inf),
    1e-165, 1e-300, math.nextafter(EPS_LOW, 0.0)])
def test_non_finite_epsilon_is_value_error(eps):
    # The polynomial factory's default initial data divides by epsilon, so
    # it checks epsilon first, as the others do. The steps divide by
    # epsilon^2, so an epsilon whose square overflows or underflows to 0
    # is refused too.
    for make in (make_airy_problem, make_pcf_problem,
                 lambda e: make_polynomial_problem([1.0], e, (0.0, 1.0))):
        with pytest.raises(ValueError, match=re.escape(f"epsilon={eps!r}")):
            make(eps)


# Reference values at a few nodes, pinned to their float reprs: any change
# to the continuation that loses double-double precision moves them. Test
# ids name the node only, so a re-pin keeps them.
AIRY_PINNED = [
    (0.1, 0.3808486681201215+0.5699990430029548j,
     0.2569581123236462-0.4512133622934612j),
    (1.7, 0.3886070373963288-0.2962026576104957j,
     -0.4461245546360751-0.4790613384734478j),
    (7.3, 0.3357703705151473+0.07087411376989647j,
     0.18009580448329368-0.9099842704363245j),
    (23.9, -0.035347643155885275-0.25270599728356946j,
     -1.2350640508438833+0.17545140078651814j),
    (49.5, 0.09875396351033584+0.1883884114801694j,
     1.3249329151788827-0.6957480645144921j),
]
PCF_PINNED = [
    (0.01, -2.3173806110822506-0.47016624442725746j,
     -23.947853070235926-4.858706457749405j),
    (0.37, 0.87487157790888+0.1775000110790896j,
     71.44390899839438+14.495035567459318j),
    (1.0, 1.9209286091224202+0.3897313137276041j,
     -17.63722590576196-3.5783626679928724j),
    (1.42, 2.010416855669191+0.40788730959555364j,
     18.45950425876282+3.745192200981713j),
    (1.99, -0.8970895178251554-0.18200774076293605j,
     38.51032117590484+7.813240946426483j),
]


@pytest.mark.parametrize("x, phi, dphi", AIRY_PINNED,
                         ids=[str(row[0]) for row in AIRY_PINNED])
def test_airy_exact_pinned(airy1, x, phi, dphi):
    s = airy1.exact(x)
    assert (repr(s.phi), repr(s.dphi)) == (repr(phi), repr(dphi))


@pytest.mark.parametrize("x, phi, dphi", PCF_PINNED,
                         ids=[str(row[0]) for row in PCF_PINNED])
def test_pcf_exact_pinned(pcf6, x, phi, dphi):
    s = pcf6.exact(x)
    assert (repr(s.phi), repr(s.dphi)) == (repr(phi), repr(dphi))


# ---------------------------------------------------------------------------
# general problems and JSON
# ---------------------------------------------------------------------------

def test_problem_invariants():
    with pytest.raises(ValueError):
        make_airy_problem(-1.0)
    with pytest.raises(ValueError):
        make_polynomial_problem([1.0], 1.0, (2.0, 1.0))


def test_initial_state_must_sit_at_x_start():
    # A state elsewhere would be gauged and stepped as if it sat at x_start.
    with pytest.raises(ValueError, match="x_start"):
        make_polynomial_problem([1.0, 0.5], 0.05, (0.0, 2.0),
                                initial=WaveState(5.0, 1.0 + 0.0j, 0.0j))


@pytest.mark.parametrize("tau", [math.nan, math.inf, 0.0, -1e-12])
def test_tau_guard_must_be_finite_and_positive(tau):
    # A NaN guard would compare false and switch every tau guard off.
    with pytest.raises(ValueError, match="tau_guard"):
        make_polynomial_problem([1.0, -1.0], 0.05, (0.0, 2.0), tau_guard=tau)
    with pytest.raises(ValueError, match="tau_guard"):
        problem_from_json(json.dumps({"type": "poly", "epsilon": 0.05,
                                      "coeffs": [1, -1], "domain": [0, 2],
                                      "tau_guard": tau}))


def test_poly_default_initial_is_right_traveling():
    p = make_polynomial_problem([4.0], 0.5, (0.0, 1.0))
    assert p.initial.phi == 1.0
    assert 0.5 * p.initial.dphi == pytest.approx(-2.0j)


@pytest.mark.parametrize("eps", [EPS_LOW, 1e-160, 1e150, EPS_HIGH])
@pytest.mark.parametrize("method", ["wkb+rkf45", "rkwkbmod", "rkf45"])
def test_epsilon_range_edges_run(eps, method):
    # Inside the range every method either marches or ends in SolverError.
    p = make_polynomial_problem([1.0], eps, (0.0, 1.0))
    try:
        traj = integrate(p, SolverConfig(tol=1e-6, h0=0.1, method=method,
                                         phase="cc"))
    except SolverError:
        return
    assert traj.final_state.x == 1.0


def test_finite_overflowing_coefficients_are_allowed():
    p = make_polynomial_problem([1e308, 1e308], 1.0, (0.0, 10.0))
    assert p.field(1.0) == math.inf


def test_airy_reference_overflow_is_a_value_error(airy1):
    # At eps = 1e-300 the initial state would sit at t = 0.1 eps^(-2/3),
    # where the asymptotic series overflows; the epsilon range now refuses
    # that eps first, with the same error naming it. From t of about 1e200
    # up the phase overflows first, in the Dekker splits; that names the
    # point, in a single query and in a batch.
    with pytest.raises(ValueError, match="epsilon=1e-300"):
        make_airy_problem(1e-300)
    for x in (1e205, 1e300):
        message = re.escape(
            f"Airy reference overflows at x={x!r}, epsilon=1.0")
        with pytest.raises(ValueError, match=message):
            make_airy_problem(1.0, x, 2.0 * x)
        with pytest.raises(ValueError, match=message):
            reference.exact_solution(airy1, [1.0, 70.0, x, 3.0 * x])


def test_poly_default_needs_positive_a():
    with pytest.raises(ValueError):
        make_polynomial_problem([-1.0], 1.0, (0.0, 1.0))


def test_problem_from_json_variants():
    airy = problem_from_json({"type": "airy", "epsilon": 0.5})
    assert airy.label == "airy" and airy.epsilon == 0.5
    pcf = problem_from_json(json.dumps({"type": "pcf", "epsilon": 0.125,
                                        "domain": [0.1, 1.9]}))
    assert pcf.x_start == 0.1 and pcf.x_end == 1.9
    poly = problem_from_json({"type": "poly", "epsilon": 1.0,
                              "coeffs": [0, 1, -0.5], "domain": [0.1, 1.9],
                              "initial": [1, 0, 0, -1]})
    assert poly.initial.dphi == -1j
    with pytest.raises(ValueError):
        problem_from_json({"type": "poly", "epsilon": 1.0, "domain": [0, 1]})
    with pytest.raises(ValueError):
        problem_from_json({"type": "spam"})


@pytest.mark.parametrize("spec,match", [
    ([{"type": "airy"}], "object"),
    ("null", "object"),
    ({"epsilon": 0.5}, "unknown problem type"),
    ({"type": ["airy"]}, "unknown problem type"),
    ({"type": "airy", "domain": None}, "domain must be 2 numbers"),
    ({"type": "airy", "eps": 0.01}, "take no key eps"),
    ({"type": "airy", "tau_guard": 1e-12}, "take no key tau_guard"),
    ({"type": "pcf", "coeffs": [1.0]}, "take no key coeffs"),
    ({"type": "airy", "domain": [0.1]}, "domain must be 2 numbers"),
    ({"type": "airy", "domain": 5}, "domain must be 2 numbers"),
    ({"type": "airy", "domain": [0.1, "50"]}, "domain must be a number"),
    ({"type": "airy", "epsilon": None}, "epsilon must be a number"),
    ({"type": "airy", "epsilon": True}, "epsilon must be a number"),
    ({"type": "airy", "epsilon": 10 ** 400}, "epsilon must be a number"),
    ({"type": "poly", "coeffs": [], "domain": [0, 1]}, "coeffs"),
    ({"type": "poly", "coeffs": [1, None], "domain": [0, 1]}, "coeffs"),
    ({"type": "poly", "coeffs": [1], "domain": [0, 1], "initial": None},
     "initial must be 4 numbers"),
    ({"type": "poly", "coeffs": [1], "domain": [0, 1],
      "initial": [1, 0, 0]}, "initial must be 4 numbers"),
    ({"type": "poly", "coeffs": [1], "domain": [0, 1], "tau_guard": "1"},
     "tau_guard must be a number"),
    ({"type": "poly", "coeffs": [1, math.nan], "domain": [0, 1]},
     "coeffs must be finite"),
    ({"type": "poly", "coeffs": [-math.inf], "domain": [0, 1],
      "initial": [1, 0, 0, 0]}, "coeffs must be finite"),
    ({"type": "poly", "coeffs": [1], "domain": [0, 1],
      "initial": [math.inf, 0, 0, 0]}, "initial state must be finite"),
    ({"type": "poly", "coeffs": [1], "domain": [0, 1],
      "initial": [1, 0, 0, math.nan]}, "initial state must be finite"),
    # Finite parts whose modulus passes the largest float.
    ({"type": "poly", "coeffs": [0], "domain": [0, 1],
      "initial": [1.3e308, 1.3e308, 0, 0]}, "finite modulus"),
    ({"type": "poly", "coeffs": [0], "domain": [0, 1],
      "initial": [0, 0, -1.3e308, 1.3e308]}, "finite modulus"),
])
def test_problem_from_json_rejects_malformed_specs(spec, match):
    with pytest.raises(ValueError, match=match):
        problem_from_json(spec)


def test_problem_from_json_defaults_match_factories():
    # Omitted epsilon and domain fall back to the factories' own defaults.
    for kind, maker in (("airy", make_airy_problem),
                        ("pcf", make_pcf_problem)):
        got, want = problem_from_json({"type": kind}), maker(1.0)
        assert (got.epsilon, got.x_start, got.x_end, got.initial) == \
            (want.epsilon, want.x_start, want.x_end, want.initial)
