"""Phase increments, Clenshaw-Curtis quadrature, the per-step phase."""

import dataclasses
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.integrate as si
from hypothesis import given, settings, strategies as st

import wkbmarch
from wkbmarch import (PhaseProvider, WaveState, WKBInadmissibleError,
                      clenshaw_curtis, make_airy_problem, make_pcf_problem,
                      make_polynomial_problem)
from wkbmarch.phase import _cc_nodes_weights
from wkbmarch.wkb_core import (assemble_step_matrices, b_jet, eval_bk,
                               phase_rates)

# Closed-form pieces for the linear benchmark, written out independently of
# the package internals.
AIRY_S_01_TO_1 = (2.0 / 3.0) * (1.0 - 0.1 ** 1.5) - (5.0 / 48.0) * (1.0 - 0.1 ** -1.5)


def airy_integrand(y, eps=1.0):
    return math.sqrt(y) - eps * eps * (-(5.0 / 32.0) * y ** -2.5)


def batch(f):
    """The scalar integrand f in the rule's batch convention."""
    return lambda xs: [f(x) for x in xs]


# ---------------------------------------------------------------------------
# Clenshaw-Curtis
# ---------------------------------------------------------------------------

def test_cc_linear_exact():
    val = clenshaw_curtis(lambda xs: xs, 0.0, 1.0, 15)
    assert val == pytest.approx(0.5, abs=1e-15)


def test_cc_sine():
    val = clenshaw_curtis(batch(math.sin), 0.0, math.pi, 15)
    assert val == pytest.approx(2.0, abs=1e-13)


def test_cc_airy_phase_integrand():
    exact = (2.0 / 3.0) * (2.0 ** 1.5 - 1.0) - (5.0 / 48.0) * (2.0 ** -1.5 - 1.0)
    val = clenshaw_curtis(batch(airy_integrand), 1.0, 2.0, 15)
    assert val == pytest.approx(exact, rel=1e-12)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.integers(min_value=0, max_value=13),
       st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.1, max_value=3.0))
def test_cc_polynomial_exactness(degree, a, width):
    # Exact for degree <= nodes - 1 (14 here).
    rng = np.random.default_rng(degree + 17)
    coeffs = rng.uniform(-1.0, 1.0, degree + 1)
    poly = np.polynomial.Polynomial(coeffs)
    anti = poly.integ()
    b = a + width
    val = clenshaw_curtis(poly, a, b, 15)
    scale = max(1.0, abs(anti(b) - anti(a)))
    assert abs(val - (anti(b) - anti(a))) < 1e-12 * scale


def test_cc_rule_mirror_symmetric():
    # x_j = -x_(n-j) and w_j = w_(n-j) bit for bit, for every rule size.
    for n in range(1, 31):
        xs, ws = _cc_nodes_weights(n)
        assert len(xs) == len(ws) == n + 1
        for j in range(n + 1):
            assert xs[j] == -xs[n - j]
            assert ws[j] == ws[n - j]


@pytest.mark.parametrize("a, b", [(1e-20, 1.0), (0.1, 0.3), (-2.5, 7.0)])
def test_cc_end_nodes_are_the_interval_ends(a, b):
    # mid -/+ half rounds to 0.0 instead of a = 1e-20, and 0.1 + 0.2 * 1
    # overshoots b = 0.3; the rule must sample a and b themselves. The
    # integrand is called once per rule, on all nodes from b down to a.
    calls = []

    def record(xs):
        calls.append(list(xs))
        return [1.0] * len(xs)

    assert clenshaw_curtis(record, a, b) == pytest.approx(b - a)
    assert len(calls) == 1
    seen = calls[0]
    assert len(seen) == 15
    assert (seen[0], seen[-1]) == (b, a)
    assert (min(seen), max(seen)) == (a, b)


def test_cc_increment_stays_inside_admissible_interval():
    # a = x is above the guard on all of [1e-20, 1], so the cc increment
    # must not sample a(0.0).
    p = make_polynomial_problem([0.0, 1.0], 1.0, (1e-20, 1.0),
                                tau_guard=1e-300)
    assert math.isfinite(PhaseProvider(p, "cc").increment(1e-20, 1.0))


def test_cc_rejects_bad_input():
    with pytest.raises(ValueError):
        clenshaw_curtis(lambda xs: xs, 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        clenshaw_curtis(batch(lambda x: math.inf), 0.0, 1.0, 5)


def test_cc_overflowing_sum_of_finite_values_is_returned():
    # Finite values whose weighted sum overflows: the rule returns the
    # non-finite sum and raises nothing.
    assert clenshaw_curtis(batch(lambda x: 1e308), 0.0, 1.0) == math.inf
    assert clenshaw_curtis(batch(lambda x: -1e308), 0.0, 1.0) == -math.inf


@pytest.mark.parametrize("n", [5, 15])
def test_cc_names_first_non_finite_node(n):
    # An inf at one interior node and a nan at a later one: the error names
    # the node of the inf, the first in the order [b, ..., a].
    calls = []

    def values(xs):
        calls.append(list(xs))
        out = [1.0] * len(xs)
        out[1], out[-2] = math.inf, math.nan
        return out

    with pytest.raises(ValueError) as info:
        clenshaw_curtis(values, 0.0, 1.0, n)
    assert str(info.value) == f"non-finite integrand at x={calls[0][1]}"
    assert len(calls) == 1


@pytest.mark.parametrize("size", [14, 16])
def test_cc_rejects_wrong_length_values(size):
    with pytest.raises(ValueError):
        clenshaw_curtis(lambda xs: [1.0] * size, 0.0, 1.0, 15)


# ---------------------------------------------------------------------------
# increments
# ---------------------------------------------------------------------------

def test_increment_empty_interval(airy1):
    prov = PhaseProvider(airy1, "exact")
    assert prov.increment(0.7, 0.7) == 0.0


def test_airy_increment_closed_form(airy1):
    prov = PhaseProvider(airy1, "exact")
    s = prov.increment(0.1, 1.0)
    # Independent oracle: adaptive quadrature of the integrand.
    oracle, _ = si.quad(airy_integrand, 0.1, 1.0, epsabs=1e-13, epsrel=1e-13)
    assert s == pytest.approx(oracle, rel=1e-12)
    assert s == pytest.approx(AIRY_S_01_TO_1, rel=1e-14)
    assert s == pytest.approx(3.835457378274285, rel=1e-12)


def test_constant_coefficient_increment():
    p = make_polynomial_problem([4.0], 0.37, (0.0, 1.0))
    prov = PhaseProvider(p, "cc")
    assert prov.increment(0.0, 1.0) == pytest.approx(2.0, rel=1e-14)


def test_quadrature_mode_matches_exact(airy1):
    pe = PhaseProvider(airy1, "exact")
    pc = PhaseProvider(airy1, "cc")
    for x0, x1 in ((1.0, 2.0), (3.0, 4.5), (10.0, 15.0)):
        assert pc.increment(x0, x1) == pytest.approx(pe.increment(x0, x1), rel=1e-12)


def test_quadrature_converges_geometrically(airy1):
    pe = PhaseProvider(airy1, "exact")
    exact = pe.increment(0.5, 2.0)
    errs = []
    for n in (5, 7, 9, 11):
        s = clenshaw_curtis(lambda ys: phase_rates(airy1, ys), 0.5, 2.0, n)
        errs.append(abs(s - exact) / abs(exact))
    for coarse, fine in zip(errs, errs[1:]):
        assert fine <= 0.5 * coarse or fine < 1e-14


def test_cc_non_finite_integrand_is_inadmissible():
    # a = 1e308 (1 + x) overflows to inf on [1, 2]: the candidate is
    # inadmissible there, not the whole run.
    p = make_polynomial_problem([1e308, 1e308], 1.0, (0.0, 10.0))
    with pytest.raises(WKBInadmissibleError):
        PhaseProvider(p, "cc").increment(1.0, 2.0)


def test_guard_violation_signals_inadmissible():
    # a(x) = x dips below the tau guard at quadrature nodes left of zero.
    p = make_polynomial_problem([0.0, 1.0], 1.0, (-1.0, 1.0),
                                initial=WaveState(-1.0, 1.0 + 0.0j, 0.0j))
    prov = PhaseProvider(p, "cc")
    with pytest.raises(WKBInadmissibleError):
        prov.increment(-0.5, 0.5)


def closed_form_b(p, x):
    a, a1, a2 = p.field.jet(x)[:3]
    return -(5.0 / 32.0) * a ** -2.5 * a1 * a1 + 0.125 * a ** -1.5 * a2


def test_integrand_b_matches_jet_pass():
    # The b of the cc integrand, the head of the jet pass, agrees with
    # b = -(5/32) a'^2 a^(-5/2) + (1/8) a'' a^(-3/2) in closed form.
    quartic = make_polynomial_problem([2.0, -1.0, 0.5, 0.3, -0.05], 0.1,
                                      (0.0, 3.0))
    cases = ((make_airy_problem(1.0), (0.1, 1.0, 7.5, 49.0)),
             (make_pcf_problem(2.0 ** -6), (0.01, 0.5, 1.0, 1.99)),
             (quartic, (0.0, 0.8, 1.7, 2.9)))
    for p, xs in cases:
        for x in xs:
            got = b_jet(p, x, 3)[2][0]
            assert got == pytest.approx(closed_form_b(p, x), rel=1e-14)


def test_exact_mode_requires_antiderivative():
    p = make_polynomial_problem([1.0], 1.0, (0.0, 1.0))
    with pytest.raises(ValueError):
        PhaseProvider(p, "exact")


def increment_outcome(provider, x0, x1):
    """The increment's bits, or its error's message."""
    try:
        return provider.increment(x0, x1).hex()
    except WKBInadmissibleError as exc:
        return str(exc)


def counted_phase(problem, calls):
    """`problem` with its closed-form phase appending each x to `calls`."""
    F = problem.phase_antiderivative

    def counted(x):
        calls.append(x)
        return F(x)
    return dataclasses.replace(problem, phase_antiderivative=counted)


# Interval sequences as a march makes them: accepted steps, each from the
# last one's end; a rejected trial and its retry from the same x0; and a
# step where the closed form raises (x^1.5 overflows on Airy, and the PCF
# form is undefined at x = 2), then its retry and one more step.
MEMO_MARCHES = {
    "airy": (lambda: make_airy_problem(2.0 ** -3),
             [(0.1, 0.4), (0.4, 1.3), (0.4, 0.8), (0.8, 1e301),
              (0.8, 1.5), (1.5, 3.0)]),
    "pcf": (lambda: make_pcf_problem(2.0 ** -6),
            [(0.01, 0.5), (0.5, 1.7), (0.5, 1.2), (1.2, 2.0), (1.2, 1.9),
             (1.9, 1.95)]),
}


@pytest.mark.parametrize("case", sorted(MEMO_MARCHES))
def test_exact_memo_gives_fresh_provider_bits(case):
    # One provider over the whole sequence gives, interval by interval, the
    # bits or the error of a fresh provider, also after the raising call.
    # It evaluates the closed form once per interval, plus once more on the
    # first and on the retry after the rejected trial.
    make, intervals = MEMO_MARCHES[case]
    calls = []
    p = counted_phase(make(), calls)
    prov = PhaseProvider(p, "exact")
    got = [increment_outcome(prov, x0, x1) for x0, x1 in intervals]
    assert len(calls) == len(intervals) + 2
    want = [increment_outcome(PhaseProvider(p, "exact"), x0, x1)
            for x0, x1 in intervals]
    assert got == want
    assert any(w.startswith("closed-form phase undefined") for w in want)


def test_exact_memo_keeps_the_sign_of_zero():
    # F = 0 x is a zero of either sign at x = +-0.0, which compare equal: a
    # memo read at one for the other would flip the increment's sign of
    # zero, so a zero x0 is always evaluated.
    p = dataclasses.replace(make_airy_problem(1.0),
                            phase_antiderivative=lambda x: 0.0 * x)
    intervals = [(-1.0, 0.0), (-0.0, -1.0), (-1.0, -0.0), (0.0, -1.0)]
    prov = PhaseProvider(p, "exact")
    got = [increment_outcome(prov, x0, x1) for x0, x1 in intervals]
    assert got == [increment_outcome(PhaseProvider(p, "exact"), x0, x1)
                   for x0, x1 in intervals]


def test_exact_memo_shared_by_threads_gives_fresh_bits():
    """Four threads marching one provider from staggered starts, with a
    short switch interval, each see a fresh provider's bits at every step:
    no reader pairs one call's x with another call's F."""
    p = make_pcf_problem(2.0 ** -6)
    xs = [0.01 + 0.009 * k for k in range(200)]
    intervals = list(zip(xs, xs[1:]))
    want = [increment_outcome(PhaseProvider(p, "exact"), *iv)
            for iv in intervals]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            prov = PhaseProvider(p, "exact")
            got = [None] * 4

            def run(t):
                order = intervals[50 * t:] + intervals[:50 * t]
                out = {iv: increment_outcome(prov, *iv) for iv in order}
                got[t] = [out[iv] for iv in intervals]

            threads = [threading.Thread(target=run, args=(t,))
                       for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert got == [want] * 4
    finally:
        sys.setswitchinterval(old)


# ---------------------------------------------------------------------------
# additivity and the per-step phase
# ---------------------------------------------------------------------------

def test_additivity_quadrature_polynomial():
    # Constant a makes the integrand a degree-zero polynomial, so the rule
    # is exact and additivity holds to rounding.
    p = make_polynomial_problem([9.0], 1.0, (0.0, 4.0))
    prov = PhaseProvider(p, "cc")
    total = prov.increment(0.0, 4.0)
    assert total == pytest.approx(12.0, rel=1e-14)
    parts = prov.increment(0.0, 1.5) + prov.increment(1.5, 4.0)
    assert parts == pytest.approx(total, rel=1e-14)


def test_reduced_exponential_argument(airy1):
    # A step from 0.1 reaches 1.0 with the phase increment over [0.1, 1]
    # divided by eps, reduced modulo 2*pi.
    prov = PhaseProvider(airy1, "exact")
    arg = assemble_step_matrices(airy1, prov, eval_bk(airy1, 0.1),
                                 eval_bk(airy1, 1.0))[3]
    expect = AIRY_S_01_TO_1
    expect -= 2.0 * math.pi * round(expect / (2.0 * math.pi))
    assert arg == pytest.approx(expect, abs=1e-12)


def test_pcf_provider_modes_agree():
    p = make_pcf_problem(2.0 ** -6)
    pe = PhaseProvider(p, "exact")
    pc = PhaseProvider(p, "cc")
    for x0, x1 in ((0.3, 0.5), (0.9, 1.2), (1.5, 1.8)):
        assert pc.increment(x0, x1) == pytest.approx(pe.increment(x0, x1),
                                                     rel=1e-11)


def test_package_runs_without_numpy():
    # The package has no runtime dependency: with numpy unimportable, a
    # cc-phase Airy solve (the quadrature was its last numpy user) works.
    code = (
        "import sys; sys.modules['numpy'] = None\n"
        "import wkbmarch\n"
        "p = wkbmarch.make_airy_problem(1.0, 0.1, 100.0)\n"
        "cfg = wkbmarch.SolverConfig(tol=1e-6, h0=0.5, phase='cc')\n"
        "t = wkbmarch.integrate(p, cfg)\n"
        "print(wkbmarch.global_error(t, p, 'l2rel') < 1e-4)\n")
    root = os.path.dirname(os.path.dirname(wkbmarch.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (root, env.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "True"
