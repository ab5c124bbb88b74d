"""The written-out trial kernels against their generic forms, bit for bit.

The reference implementations here are the generic truncated-Taylor-jet
recursions (Cauchy products and quotients over lists of any order), a
Fehlberg step that loops over its tableau, a basis-fit step that evaluates
both ends' bases and solves both fits of each order inside its loop, and a
`from_Z` that forms its rotation exp(i theta1) itself from the step's phase
theta1. `b_jet`, `eval_bk`, `wkb_basis`, `rkwkb_step`, `rkf45_step` and the
WKB step pair unroll or share the same arithmetic in the same order, so
every result must carry the same IEEE bits, signed zeros included, and
every input must raise in both or in neither; the one exception is a
non-finite Fehlberg stage, where the tableau step raises and `rkf45_step`
returns a pair whose difference is not finite. The pair kernels return four
bare complex scalars (phi and phi' of the low member, then of the high
one), and the oracles return the same four. `b_jet` is checked at both
orders it is called at: order 3 against the generic order-3 jets, and
order 2 against the generic order-2 jets with the phase jet cut to
order 1.

`integrate` scores its candidates in one pass per trial, with the rule
written out where each pair's scalars land. It must give the same records,
bit for bit, as the driver it replaced (`generic_integrate`), which built
one `WaveState` per member and one `Candidate` record per candidate, scored
them through `estimate_error` and `proposal_factor`, and chose in a second
selection pass.

The coefficient field's compiled `value`, `heads` and `jet` are the plain
Horner loop over its derivative tower written out, so they must give the
bits of that loop (`loop_jet`) too, non-finite entries and points included.

The per-trial records are slotted dataclasses, and `integrate` builds one
`WaveState` and one `StepRecord` per accepted step; tests here keep both.
"""

import cmath
import importlib.util
import math
import sys
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wkbmarch import (CoefficientField, PhaseProvider, Problem, SolverConfig,
                      StepRecord, Trajectory, WaveState, control, integrate,
                      make_polynomial_problem)
from wkbmarch.control import (CANDIDATES, MAX_REJECTIONS, METHODS, ORDER_K,
                              TAG_RKF45, THETA_MIN, estimate_error,
                              proposal_factor)
from wkbmarch.rk45 import rkf45_step
from wkbmarch.rkwkb import (DEGENERATE_DENOM, BasisEndpoint, WKBBasis,
                            rkwkb_step, wkb_basis)
from wkbmarch.state import SolverError, WKBInadmissibleError
from wkbmarch.wkb_core import (PHASE_DERIV_GUARD, SQRT2, Endpoint,
                               assemble_step_matrices, b_jet, eval_bk, from_U,
                               from_Z, phase_rates, to_U, to_Z, wkb_step_pair)

FACTORIALS = tuple(float(math.factorial(j)) for j in range(6))
WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


# ---------------------------------------------------------------------------
# The Horner loop over the derivative tower, as the field's compiled
# evaluators write it out.
# ---------------------------------------------------------------------------

def horner(poly, x):
    """The plain Horner loop over ascending coefficients, from 0.0."""
    acc = 0.0
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def loop_jet(coeffs, x):
    """(a, a', ..., a^(5)) at x: the tower differentiated as lists, each
    entry j * c_j (which may overflow to inf), then one loop per entry."""
    tower = [[float(c) for c in coeffs]]
    for _ in range(5):
        prev = tower[-1]
        tower.append([j * prev[j] for j in range(1, len(prev))])
    return tuple(horner(poly, x) for poly in tower)


# ---------------------------------------------------------------------------
# Generic jets: lists c[0..n] with c[j] = f^(j)(x)/j!, truncated at order n.
# ---------------------------------------------------------------------------

def jet_mul(u, v, n):
    out = []
    for k in range(n + 1):
        acc = 0.0
        for j in range(k + 1):
            acc += u[j] * v[k - j]
        out.append(acc)
    return out


def jet_div(u, v, n):
    out = [u[0] / v[0]]
    for k in range(1, n + 1):
        acc = 0.0
        for j in range(1, k + 1):
            acc += v[j] * out[k - j]
        out.append((u[k] - acc) / v[0])
    return out


def jet_sqrt(u, n):
    out = [math.sqrt(u[0])]
    for k in range(1, n + 1):
        acc = 0.0
        for j in range(1, k):
            acc += out[j] * out[k - j]
        out.append((u[k] - acc) / (2.0 * out[0]))
    return out


def jet_deriv(u, n):
    return [u[j + 1] * (j + 1) for j in range(n + 1)]


def generic_b_jet(problem, x, order):
    tower = problem.field.jet(x)[:order + 3]
    a0 = tower[0]
    if a0 < problem.tau_guard or a0 * a0 * math.sqrt(a0) == 0.0:
        raise WKBInadmissibleError("below tau guard")
    n = order
    a = [tower[k] / FACTORIALS[k] for k in range(n + 3)]
    a1 = jet_deriv(a, n + 1)
    a2 = jet_deriv(a1, n)
    s = jet_sqrt(a, n)
    a_s = jet_mul(a, s, n)
    a2_s = jet_mul(jet_mul(a, a, n), s, n)
    term1 = jet_div(jet_mul(a1, a1, n), a2_s, n)
    term2 = jet_div(a2, a_s, n)
    b = [-(5.0 / 32.0) * t1 + 0.125 * t2 for t1, t2 in zip(term1, term2)]
    eps2 = problem.epsilon * problem.epsilon
    phase = [sk - eps2 * bk for sk, bk in zip(s, b)]
    if not PHASE_DERIV_GUARD * s[0] <= phase[0] < math.inf:
        raise WKBInadmissibleError("phase derivative")
    return a[:n + 1], s, b, phase


def generic_basis_jet(problem, x):
    """`generic_b_jet` at order 2 with the phase jet cut to order 1: what
    `b_jet` gives the basis fit at order 2."""
    a, s, b, phase = generic_b_jet(problem, x, 2)
    return a, s, b, phase[:2]


def generic_eval_bk(problem, x):
    a, _, bj, phase = generic_b_jet(problem, x, 3)
    two_phase = [2.0 * p for p in phase]
    b0 = jet_div(bj, two_phase, 3)
    b1 = jet_div(jet_deriv(b0, 2), two_phase, 2)
    b2 = jet_div(jet_deriv(b1, 1), two_phase, 1)
    b3 = jet_div(jet_deriv(b2, 0), two_phase, 0)
    shift = 0.25 * a[1] * a[0] ** -1.25
    if not all(map(math.isfinite, (shift, bj[0], b0[0], b1[0], b2[0],
                                   b3[0]))):
        raise WKBInadmissibleError("non-finite record entry")
    return Endpoint(x, a[0] ** 0.25, shift, bj[0], b0[0], b1[0], b2[0],
                    b3[0])


@dataclass
class GenericBasis:
    """A basis pair without its phase factor, as the basis-fit scheme kept
    it before its fits were precomputed: amp, L+-' and L+-''."""

    amp: float
    lp_plus: complex
    lp_minus: complex
    lpp_plus: complex
    lpp_minus: complex

    def at(self, osc):
        """(f, f', f'') as (plus, minus) pairs with osc = exp(i theta)."""
        f_plus = self.amp * osc
        f_minus = self.amp / osc
        return ((f_plus, f_minus),
                (self.lp_plus * f_plus, self.lp_minus * f_minus),
                ((self.lp_plus * self.lp_plus + self.lpp_plus) * f_plus,
                 (self.lp_minus * self.lp_minus + self.lpp_minus) * f_minus))


def fit_denominator(g, h):
    """h+ g- - h- g+ for (plus, minus) pairs g and h."""
    gp, gm = g
    hp, hm = h
    return hp * gm - hm * gp


def generic_fit_pair(v0, v1, g, h):
    """(c+, c-) with c+ (g+, h+) + c- (g-, h-) = (v0, v1)."""
    gp, gm = g
    hp, hm = h
    denom = fit_denominator(g, h)
    if abs(denom) < DEGENERATE_DENOM:
        raise WKBInadmissibleError("degenerate basis fit denominator")
    return (v1 * gm - v0 * hm) / denom, -(v1 * gp - v0 * hp) / denom


def generic_bases(problem, x):
    """a(x) and the two basis orders at x as GenericBasis records."""
    eps = problem.epsilon
    a, s, bj, (ph1, ph2, _) = generic_b_jet(problem, x, 2)
    a1 = a[1]
    a2 = 2.0 * a[2]
    amp1 = -0.25 * a1 / a[0]
    amp2 = -0.25 * (a2 / a[0] - (a1 / a[0]) ** 2)
    eps2 = eps * eps
    amp = a[0] ** -0.25

    def basis(corr, c1, c2):
        f = GenericBasis(amp * corr,
                         amp1 + c1 + 1j * ph1 / eps,
                         amp1 + c1 - 1j * ph1 / eps,
                         amp2 + c2 + 1j * ph2 / eps,
                         amp2 + c2 - 1j * ph2 / eps)
        if not (math.isfinite(f.amp) and cmath.isfinite(f.lp_plus)
                and cmath.isfinite(f.lpp_plus)):
            raise WKBInadmissibleError("non-finite record entry")
        return f

    p3 = jet_div(bj, [2.0 * sk for sk in s], 2)
    try:
        corr = math.exp(eps2 * p3[0])
    except OverflowError as exc:
        raise WKBInadmissibleError("order-3 basis factor") from exc
    return a[0], (basis(1.0, 0.0, 0.0),
                  basis(corr, eps2 * p3[1], eps2 * 2.0 * p3[2]))


def generic_wkb_basis(problem, x):
    """`wkb_basis` from the generic bases: each record's left-end fit is
    the basis at osc = 1 with the denominators of its two fits."""
    a0, pair = generic_bases(problem, x)
    records = []
    for b in pair:
        f, df, d2f = b.at(1.0)
        records.append(WKBBasis(b.amp, b.lp_plus, b.lp_minus, *df, *d2f,
                                fit_denominator(f, df),
                                fit_denominator(df, d2f)))
    return BasisEndpoint(x, a0, tuple(records))


def generic_rkwkb_step(problem, provider, x0, x1, state):
    """The basis-fit step from x0 to x1 with both ends' bases evaluated
    and both 2x2 fits solved inside the step, one order after the other."""
    a0, left = generic_bases(problem, x0)
    _, right = generic_bases(problem, x1)
    theta1 = math.fmod(provider.increment(x0, x1) / problem.epsilon, math.tau)
    osc1 = cmath.exp(1j * theta1)
    ddphi = -a0 * state.phi / problem.epsilon ** 2
    out = []
    for basis0, basis1 in zip(left, right):
        f0, df0, d2f0 = basis0.at(1.0)
        gamma_p, gamma_m = generic_fit_pair(state.phi, state.dphi, f0, df0)
        delta_p, delta_m = generic_fit_pair(state.dphi, ddphi, df0, d2f0)
        f1, df1, _ = basis1.at(osc1)
        phi_next = gamma_p * f1[0] + gamma_m * f1[1]
        dphi_next = delta_p * df1[0] + delta_m * df1[1]
        out += complex(phi_next), complex(dphi_next)
    return tuple(out)


def package_rkwkb_step(problem, provider, x0, x1, state):
    """`rkwkb_step` between the records `wkb_basis` builds at x0 and x1."""
    return rkwkb_step(problem, provider, wkb_basis(problem, x0),
                      wkb_basis(problem, x1), state)


# Fehlberg 4(5) tableau, looped over.
C = (0.0, 1.0 / 4.0, 3.0 / 8.0, 12.0 / 13.0, 1.0, 1.0 / 2.0)
A = (
    (),
    (1.0 / 4.0,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -1.0 / 5.0, 0.0)
B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0,
      -9.0 / 50.0, 2.0 / 55.0)


def tableau_rkf45_step(problem, state, h):
    inv_eps2 = 1.0 / problem.epsilon ** 2
    x0, phi0, dphi0 = state.x, state.phi, state.dphi
    k_phi, k_dphi = [], []
    for i in range(6):
        phi, dphi = phi0, dphi0
        for j, aij in enumerate(A[i]):
            phi += h * aij * k_phi[j]
            dphi += h * aij * k_dphi[j]
        xi = x0 + C[i] * h
        ddphi = -problem.field.jet(xi)[0] * phi * inv_eps2
        if not (cmath.isfinite(dphi) and cmath.isfinite(ddphi)):
            raise SolverError("non-finite right-hand side")
        k_phi.append(dphi)
        k_dphi.append(ddphi)

    def combine(weights):
        return (
            complex(phi0 + h * sum(b * k for b, k in zip(weights, k_phi))),
            complex(dphi0 + h * sum(b * k for b, k in zip(weights, k_dphi))))

    return combine(B4) + combine(B5)


def reference_from_Z(problem, end, z, theta1, _):
    """`from_Z` with its rotation formed here from the step's phase, not
    taken from the step pair."""
    rot = cmath.exp(1j * theta1)
    w1 = rot * z[0]
    w2 = z[1] / rot
    return from_U(problem, end,
                  ((-1j * w1 + w2) / SQRT2, (w1 - 1j * w2) / SQRT2))


def package_from_Z(problem, end, z, _, rot):
    """`from_Z` with the rotation the step pair returns."""
    return from_Z(problem, end, z, rot)


def wkb_march(problem, h, convert):
    """Two transform step pairs from x_start, each from Z formed at its own
    start as in `control._pair`; every member is taken back to
    (phi, phi') by `convert`, given the step's phase theta1 as
    `assemble_step_matrices` returns it and the pair's rotation, and the
    next step starts from the second-order member."""
    provider = PhaseProvider(problem, "cc")
    x = problem.x_start
    left = eval_bk(problem, x)
    state = problem.initial
    out = []
    for x1 in (x + h, x + 2.0 * h):
        right = eval_bk(problem, x1)
        theta1 = assemble_step_matrices(problem, provider, left, right)[3]
        *pair, rot = wkb_step_pair(problem, provider, left, right,
                                   to_Z(to_U(problem, left, state)))
        members = [convert(problem, right, zk, theta1, rot) for zk in pair]
        out += members
        left, state = right, WaveState(x1, *members[1])
    return out


# ---------------------------------------------------------------------------
# The property
# ---------------------------------------------------------------------------

def bits(value):
    """Every float in `value` as float.hex, real and imaginary parts apart,
    so -0.0 and 0.0 differ."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    if is_dataclass(value):
        return tuple(bits(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, (list, tuple)):
        return type(value).__name__, tuple(bits(v) for v in value)
    return value


def outcome(fn, *args):
    try:
        return bits(fn(*args))
    except (WKBInadmissibleError, SolverError, ArithmeticError) as exc:
        return type(exc).__name__


coefficient = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0))
# Zero states and zero x make -0.0 products; the largest states overflow
# the right-hand side, which the tableau step rejects and `rkf45_step`
# leaves to the controller's screen.
complex_state = st.one_of(
    st.sampled_from([0j, complex(-0.0, 0.0), complex(0.0, -0.0),
                     complex(1e300, -1e300)]),
    st.complex_numbers(max_magnitude=1e300, allow_nan=False,
                       allow_infinity=False))


@settings(deadline=None, derandomize=True, max_examples=300)
@given(coeffs=st.integers(1, 5).flatmap(
           lambda d: st.lists(coefficient, min_size=d + 1, max_size=d + 1)),
       x=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0)),
       eps=st.floats(2.0 ** -10, 1.0),
       phi=complex_state, dphi=complex_state,
       h=st.floats(1e-6, 2.0))
# At x = -0.0 these coefficients give jets with -0.0 entries, where a sum
# that drops its 0.0 seed changes the sign of a zero.
@example(coeffs=[1.0, -0.0, -1.0, -0.0], x=-0.0, eps=0.5, phi=0j, dphi=0j,
         h=0.5)
# A non-finite stage where `rkf45_step` returns three finite members and a
# NaN phi'_5.
@example(coeffs=[0.0, -1.0], x=-3.0, eps=2.0 ** -5, phi=0j,
         dphi=complex(1e300, -1e300), h=1.0)
def test_kernels_match_generic_forms_bit_for_bit(coeffs, x, eps, phi, dphi,
                                                 h):
    p = make_polynomial_problem(coeffs, eps, (x, x + 10.0),
                                initial=WaveState(x, phi, dphi))
    assume(p.field(x) > 0.0)
    assert outcome(b_jet, p, x, 3) == outcome(generic_b_jet, p, x, 3)
    assert outcome(b_jet, p, x, 2) == outcome(generic_basis_jet, p, x)
    assert outcome(eval_bk, p, x) == outcome(generic_eval_bk, p, x)
    assert outcome(wkb_basis, p, x) == outcome(generic_wkb_basis, p, x)
    want = outcome(tableau_rkf45_step, p, p.initial, h)
    if want == "SolverError":
        # `rkf45_step` leaves a non-finite stage to the controller's
        # screen: its member difference is not finite.
        phi4, dphi4, phi5, dphi5 = rkf45_step(p, p.initial, h)
        assert not (abs(phi4 - phi5) < math.inf
                    and abs(dphi4 - dphi5) < math.inf)
    else:
        assert outcome(rkf45_step, p, p.initial, h) == want
    assert outcome(wkb_march, p, h, package_from_Z) == outcome(
        wkb_march, p, h, reference_from_Z)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(coeffs=st.integers(1, 5).flatmap(
           lambda d: st.lists(coefficient, min_size=d + 1, max_size=d + 1)),
       x=st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0)),
       eps=st.floats(2.0 ** -10, 1.0),
       phi=complex_state, dphi=complex_state,
       h=st.floats(1e-6, 2.0))
# a = 4 from (1, 0): the (f, f') fit is degenerate at eps = 1e31 and the
# (f', f'') fit at eps = 1e29.
@example(coeffs=[4.0], x=0.0, eps=1e31, phi=1 + 0j, dphi=0j, h=0.5)
@example(coeffs=[4.0], x=0.0, eps=1e29, phi=1 + 0j, dphi=0j, h=0.5)
@example(coeffs=[1.0, -0.0, -1.0, -0.0], x=-0.0, eps=0.5, phi=0j, dphi=0j,
         h=0.5)
def test_rkwkb_step_matches_generic_form_bit_for_bit(coeffs, x, eps, phi,
                                                      dphi, h):
    # The written-out step reads the left record's precomputed fits; the
    # generic form evaluates both bases and solves both fits per order.
    p = make_polynomial_problem(coeffs, eps, (x, x + 10.0),
                                initial=WaveState(x, phi, dphi))
    assume(p.field(x) > 0.0)
    provider = PhaseProvider(p, "cc")
    assert outcome(package_rkwkb_step, p, provider, x, x + h,
                   p.initial) == outcome(generic_rkwkb_step, p, provider, x,
                                         x + h, p.initial)


def rates_one_by_one(problem, xs):
    """The cc integrand at each x of xs, as the head of b_jet's phase jet;
    the first inadmissible x raises b_jet's error."""
    return [b_jet(problem, x, 3)[3][0] for x in xs]


def rates_outcome(fn, *args):
    try:
        return bits(fn(*args))
    except WKBInadmissibleError as exc:
        return str(exc)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(coeffs=st.integers(1, 5).flatmap(
           lambda d: st.lists(coefficient, min_size=d + 1, max_size=d + 1)),
       xs=st.lists(st.one_of(st.sampled_from([0.0, -0.0]),
                             st.floats(-3.0, 3.0)), min_size=1, max_size=15),
       eps=st.floats(2.0 ** -10, 1.0),
       tau=st.sampled_from([1e-12, 1e-300]))
# -0.0 nodes; a negative a; a = 1e-130 whose a^(5/2) underflows to 0 above
# the tau guard; and a'^2 / a^(5/2) overflowing, so b is not finite.
@example(coeffs=[1.0, -0.0, -1.0, -0.0], xs=[-0.0, 0.0], eps=0.5,
         tau=1e-12)
@example(coeffs=[0.5, -1.0], xs=[0.1, 2.0, 0.2], eps=0.5, tau=1e-12)
@example(coeffs=[1e-130, 0.0, 1.0], xs=[1.0, 0.0, 2.0], eps=1.0,
         tau=1e-300)
@example(coeffs=[1e-100, 1e200], xs=[0.0, 1.0], eps=1.0, tau=1e-300)
def test_phase_rates_match_b_jet_bit_for_bit(coeffs, xs, eps, tau):
    # The cc integrand's one pass repeats b_jet's order-0 head over all
    # nodes: the same bits at every node, and the same error, naming the
    # same first failing node.
    p = make_polynomial_problem(coeffs, eps, (0.0, 1.0),
                                initial=WaveState(0.0, 1j, 0j), tau_guard=tau)
    assert rates_outcome(phase_rates, p, xs) == rates_outcome(
        rates_one_by_one, p, xs)


# Signed zeros, subnormals and +-1e308, whose derivatives overflow the tower.
SPECIAL_COEFFICIENTS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e308, -1e308)


def coefficient_list(n, rng):
    """n ascending coefficients, about a third of them special."""
    return [rng.choice(SPECIAL_COEFFICIENTS) if rng.random() < 0.3
            else rng.uniform(-4.0, 4.0) * 10.0 ** rng.randint(-8, 8)
            for _ in range(n)]


@settings(deadline=None, derandomize=True, max_examples=200)
@given(coeffs=st.one_of(
           st.lists(st.one_of(st.sampled_from(SPECIAL_COEFFICIENTS),
                              st.floats(allow_nan=False,
                                        allow_infinity=False)),
                    min_size=1, max_size=12),
           st.builds(coefficient_list, st.integers(1, 1000),
                     st.randoms(use_true_random=False))),
       x=st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf,
                                    math.nan]),
                   st.floats(-2.0, 2.0),
                   st.floats(allow_nan=False, allow_infinity=False)))
# 201 coefficients nest past the parser's 200 parentheses in one
# expression; the last 1e308 makes a tower whose entries overflow to inf,
# which repr writes as a name.
@example(coeffs=[1.0] * 201, x=0.5)
@example(coeffs=[(-1.0) ** k / (k + 1) for k in range(1000)], x=-0.75)
@example(coeffs=[0.0, 0.0, 0.0, 0.0, 0.0, 1e308], x=2.0)
@example(coeffs=[0.0, 0.0, 0.0, 0.0, 0.0, -1e308], x=-0.0)
@example(coeffs=[1.0, -0.0, -1.0, -0.0], x=-0.0)
def test_field_evaluators_match_horner_loop_bit_for_bit(coeffs, x):
    # The compiled value, heads and jet are the plain Horner loop over the
    # tower, written out: the same bits, signed zeros, inf and nan included.
    fld = CoefficientField(coeffs)
    want = loop_jet(coeffs, x)
    assert bits(fld.jet(x)) == bits(want)
    assert bits(fld.heads(x)) == bits(want[:3])
    assert bits(fld(x)) == bits(fld.value(x)) == bits(want[0])


# ---------------------------------------------------------------------------
# The driver with candidate records and a second selection pass
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Candidate:
    """One method's scored trial result (state is None when rejected
    as inadmissible or non-finite)."""

    method: str
    accepted: bool
    theta: float
    est: float
    state: object


def rejected(method):
    return Candidate(method, False, THETA_MIN, math.inf, None)


def score(method, y_low, y_high, config, k):
    """The paper's rule; a non-finite estimate scores as rejected."""
    est = estimate_error(y_low, y_high)
    if not math.isfinite(est):
        return rejected(method)
    tol = config.atol + config.tol * max(abs(y_high.phi), abs(y_high.dphi))
    return Candidate(method, est <= tol, proposal_factor(est, tol, k), est,
                     y_high)


def select(candidates):
    """(theta, index): the largest accepted theta, or (largest theta,
    None) when none is accepted."""
    best_idx = None
    best_theta = -1.0
    for i, c in enumerate(candidates):
        if c.accepted and c.theta > best_theta:
            best_idx, best_theta = i, c.theta
    if best_idx is not None:
        return best_theta, best_idx
    return max(c.theta for c in candidates), None


def candidate(tag, problem, provider, state, h, left, right, config):
    if tag != TAG_RKF45 and (left is None or right is None):
        return rejected(tag)
    try:
        pair = control._pair(tag, problem, provider, state, h, left, right)
    except (WKBInadmissibleError, SolverError):
        return rejected(tag)
    # Each member as the state the kernels used to build: at x + h, with
    # complex parts.
    y_low, y_high = (WaveState(state.x + h, complex(phi), complex(dphi))
                     for phi, dphi in (pair[:2], pair[2:]))
    return score(tag, y_low, y_high, config, ORDER_K[tag])


def generic_integrate(problem, config):
    provider = None if config.method == "rkf45" else PhaseProvider(
        problem, config.phase)
    build = control._builder(CANDIDATES[config.method][0])
    x = problem.x_start
    state = problem.initial
    left = control._endpoint(build, problem, x)
    h_trial = config.h0
    traj = Trajectory()
    consecutive = 0
    while x < problem.x_end:
        clamped = h_trial >= problem.x_end - x
        h = problem.x_end - x if clamped else h_trial
        if h <= 1e-14 * abs(x):
            raise SolverError(f"step size underflow at x={x} (h={h})")
        x1 = problem.x_end if clamped else x + h
        right = control._endpoint(build, problem, x1)
        candidates = [candidate(tag, problem, provider, state, h, left,
                                right, config)
                      for tag in CANDIDATES[config.method]]
        theta, choice = select(candidates)
        if choice is not None:
            cand = candidates[choice]
            state = cand.state
            if state.x != x1:
                state = WaveState(x1, state.phi, state.dphi)
            x = x1
            left = right
            traj.records.append(StepRecord(
                index=len(traj.records), x=x, h=h, method=cand.method,
                est=cand.est, theta=theta, state=state))
            consecutive = 0
        else:
            traj.rejected += 1
            consecutive += 1
            if consecutive > MAX_REJECTIONS:
                raise SolverError(
                    f"{consecutive} consecutive rejections at x={x}")
        h_trial = theta * h
    return traj


def run_outcome(driver, problem, config):
    """float.hex of every StepRecord field and the rejected count, or the
    name of the error raised."""
    try:
        traj = driver(problem, config)
    except (SolverError, ValueError, ArithmeticError) as exc:
        return type(exc).__name__
    return traj.rejected, bits(traj.records)


def linear_phase(c0, c1, eps):
    """The closed-form phase of a = c0 + c1 x: int sqrt(a) - eps^2 b with
    b = -(5/32) c1^2 a^(-5/2), as the Airy problem's at c0 = 0, c1 = 1."""
    def phase_F(x):
        a = c0 + c1 * x
        return (2.0 / (3.0 * c1)) * a ** 1.5 - (5.0 * eps * eps / 48.0) * c1 \
            * a ** -1.5
    return phase_F


@settings(deadline=None, derandomize=True, max_examples=30)
@given(coeffs=st.tuples(st.floats(-1.0, 4.0), st.lists(
           st.floats(-2.0, 2.0), min_size=1, max_size=3)).map(
           lambda c: [c[0], *c[1]]),
       x0=st.floats(0.0, 1.0), length=st.floats(0.25, 2.0),
       eps_exp=st.floats(-2.0, 0.0), tol_exp=st.floats(-8.0, -3.0),
       h0=st.floats(1e-3, 2.0),
       phi=st.complex_numbers(max_magnitude=2.0),
       dphi=st.complex_numbers(max_magnitude=2.0))
# A turning point inside; a zero state (||y|| = 0 in every trial); no
# record at x_start; the rival's near-turning quadratic, with a missing
# record and inadmissible steps; a = 1e308, whose RKF45 steps all overflow
# until the rejection limit.
@example(coeffs=[-0.5, 1.0], x0=0.0, length=1.0, eps_exp=-0.25, tol_exp=-6.0,
         h0=0.5, phi=1 + 0j, dphi=-1j)
@example(coeffs=[1.0, 1.0], x0=0.0, length=1.0, eps_exp=-0.25, tol_exp=-6.0,
         h0=0.5, phi=0j, dphi=0j)
@example(coeffs=[0.0, 1.0], x0=0.0, length=2.0, eps_exp=0.0, tol_exp=-6.0,
         h0=0.5, phi=1 + 0j, dphi=0j)
@example(coeffs=[1e-10, 0.0, 1.0], x0=-1.0, length=2.0, eps_exp=0.0,
         tol_exp=-6.0, h0=1.0, phi=1 + 0j, dphi=-1e-5j)
@example(coeffs=[1e308, 0.0], x0=0.0, length=1.0, eps_exp=0.0,
         tol_exp=-6.0, h0=0.1, phi=1 + 0j, dphi=0j)
def test_integrate_matches_generic_driver_bit_for_bit(coeffs, x0, length,
                                                       eps_exp, tol_exp, h0,
                                                       phi, dphi):
    # A linear field carries its closed-form phase, so that both phase
    # modes run; on the others the exact mode fails alike in both.
    eps = 10.0 ** eps_exp
    initial = WaveState(x0, phi, dphi)
    if len(coeffs) == 2 and coeffs[1] != 0.0:
        problem = Problem(epsilon=eps, field=CoefficientField(coeffs),
                          x_start=x0, x_end=x0 + length, initial=initial,
                          phase_antiderivative=linear_phase(*coeffs, eps))
    else:
        problem = make_polynomial_problem(coeffs, eps, (x0, x0 + length),
                                          initial=initial)
    for method in METHODS:
        for phase in ("exact", "cc"):
            config = SolverConfig(tol=10.0 ** tol_exp, h0=h0, method=method,
                                  phase=phase)
            assert run_outcome(integrate, problem, config) == run_outcome(
                generic_integrate, problem, config)


# ---------------------------------------------------------------------------
# Slotted records
# ---------------------------------------------------------------------------

STATE = WaveState(0.0, 1j, 0j)


@pytest.mark.parametrize("record", [
    Endpoint(0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    BasisEndpoint(0.0, 1.0, ()),
    WKBBasis(1.0, 1j, -1j, 1j, -1j, -1 + 0j, -1 + 0j, -2j, -2j),
    STATE,
    StepRecord(0, 0.0, 0.1, "WKB", 0.0, 1.0, STATE),
], ids=lambda r: type(r).__name__)
def test_trial_records_are_slotted(record):
    # A record built per trial or per step has no instance dict; a
    # frozen=True would make every construction several times dearer.
    assert "__slots__" in vars(type(record))
    assert not hasattr(record, "__dict__")
    assert not type(record).__dataclass_params__.frozen


def test_each_scheme_record_holds_only_its_own_fields():
    # The transform record has no basis, and the basis-fit record has no
    # U factors and no b_k coefficients.
    assert [f.name for f in fields(Endpoint)] == [
        "x", "root4", "shift", "b", "b0", "b1", "b2", "b3"]
    assert [f.name for f in fields(BasisEndpoint)] == ["x", "a", "basis"]


def load_workloads(monkeypatch):
    """The bench's workload table, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclass looks its own module up while the class is made.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["airy-mixed", "pcf-rival", "long-cc"])
def test_integrate_builds_one_state_and_record_per_accepted_step(
        monkeypatch, name):
    # The pair kernels hand back bare scalars: a trial builds no state per
    # candidate member, and a rejected trial builds neither record.
    workload = load_workloads(monkeypatch)[name]
    problem = workload.make_problem()
    config = workload.config(workload.h0_factors(0)[0])
    built = {WaveState: 0, StepRecord: 0}
    for cls in built:
        def counted(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    traj = integrate(problem, config)
    assert traj.rejected > 0
    assert built == {WaveState: traj.accepted, StepRecord: traj.accepted}
