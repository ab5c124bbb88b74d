"""Problem definitions for eps^2 phi'' + a(x) phi = 0.

A Problem bundles the polynomial coefficient field a(x) with its derivative
tower up to order five, the semiclassical parameter, the integration
interval, initial data in the plain-derivative convention, and optional
closed-form hooks (phase antiderivative, exact solution) used by the
benchmarks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import reference
from .state import ContinuationError, WaveState

# b_3 in the marching scheme chains three derivatives onto b(x), which
# already holds a''; anything deeper than a^(5) is never needed.
MAX_DERIVATIVE_ORDER = 5


def _check_epsilon(epsilon: float) -> None:
    # The steps divide by epsilon^2, so its square must be finite and
    # nonzero too: epsilon from about 1.6e-162 to 1.3e154.
    if not (0.0 < epsilon < math.inf and 0.0 < epsilon * epsilon < math.inf):
        raise ValueError(
            f"epsilon must be finite and positive, with a finite nonzero "
            f"square (about 1.6e-162 to 1.3e154), got epsilon={epsilon!r}")


class CoefficientField:
    """Polynomial coefficient a(x), from its ascending coefficients.

    The derivative tower up to a^(5) is differentiated exactly, once, here,
    and kept in Horner order (highest power first); empty or non-finite
    coefficients raise ValueError. The read-only `horner_heads` is
    (a, a', a'') in that order and layout: the first three polynomials
    that jet runs.
    """

    def __init__(self, coeffs: Sequence[float]):
        if len(coeffs) == 0:
            raise ValueError("empty coefficient list")
        tower = [[float(c) for c in coeffs]]
        if not all(map(math.isfinite, tower[0])):
            raise ValueError(f"coeffs must be finite, got {tower[0]!r}")
        for _ in range(MAX_DERIVATIVE_ORDER):
            prev = tower[-1]
            tower.append([j * prev[j] for j in range(1, len(prev))])
        self._horner = tuple(tuple(reversed(poly)) for poly in tower)
        self.horner_heads = self._horner[:3]

    def jet(self, x: float) -> tuple[float, ...]:
        """(a(x), a'(x), ..., a^(5)(x))."""
        out = []
        for poly in self._horner:
            acc = 0.0
            for c in poly:
                acc = acc * x + c
            out.append(acc)
        return tuple(out)

    def __call__(self, x: float) -> float:
        acc = 0.0
        for c in self.horner_heads[0]:
            acc = acc * x + c
        return acc


@dataclass(frozen=True)
class Problem:
    """Immutable description of one initial value problem."""

    epsilon: float
    field: CoefficientField
    x_start: float
    x_end: float
    initial: WaveState
    tau_guard: float = 1e-12
    # Optional closed-form antiderivative of sqrt(a) - eps^2 b.
    phase_antiderivative: Optional[Callable[[float], float]] = None
    # Optional exact-solution provider x -> WaveState. A provider may also
    # answer exact.phis(xs), phi alone at every x of xs in one batch query,
    # as a list or a numpy complex array, as the benchmarks' providers do
    # from tables that answer in plain values. A batch value need not have
    # the bits of exact(x).phi: the benchmarks' batches read the tables'
    # plain Horner pass, exact(x) the compensated one (see
    # reference._ContinuationTable). reference.exact_solution and
    # global_error use phis where present, and query any other provider or
    # failed batch pointwise, naming the first failure.
    exact: Optional[Callable[[float], WaveState]] = None
    label: str = ""

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if not -math.inf < self.x_start < self.x_end < math.inf:
            raise ValueError("need finite x_start < x_end")
        if self.initial.x != self.x_start:
            raise ValueError(f"initial state at x={self.initial.x!r}, "
                             f"not at x_start={self.x_start!r}")
        # The controller's tolerance takes the modulus of each member, so
        # finite parts whose modulus passes the largest float are refused.
        try:
            finite = (abs(self.initial.phi) < math.inf
                      and abs(self.initial.dphi) < math.inf)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"initial state must be finite, with a finite "
                             f"modulus, got {self.initial!r}")
        if not 0.0 < self.tau_guard < math.inf:
            raise ValueError("tau_guard must be finite and positive")


# ---------------------------------------------------------------------------
# Airy benchmark: a(x) = x
# ---------------------------------------------------------------------------

def _airy_exact_provider(epsilon: float) -> Callable[[float], WaveState]:
    scale = epsilon ** (-2.0 / 3.0)

    def exact(x: float) -> WaveState:
        try:
            w, dw = reference.airy_pair(x * scale)
        except ArithmeticError:  # the asymptotic series overflows
            raise ValueError(f"Airy reference overflows at x={x!r}, "
                             f"epsilon={epsilon!r}") from None
        return WaveState(x, w, -scale * dw)

    def phis(xs):
        np = reference._numpy() if len(xs) else None
        if np is None:
            return reference.airy_values([x * scale for x in xs])
        return reference.airy_values(np.asarray(xs, dtype=float) * scale)

    exact.phis = phis
    return exact


def make_airy_problem(epsilon: float, x_start: float = 0.1,
                      x_end: float = 50.0) -> Problem:
    """Linear-coefficient benchmark with the turning point at x = 0.

    Initial data is the exact solution Ai(-x/eps^(2/3)) + i Bi(-x/eps^(2/3))
    evaluated at x_start. The closed-form phase antiderivative
    (2/3) x^(3/2) - (5 eps^2 / 48) x^(-3/2) is attached for exact-phase runs.
    """
    _check_epsilon(epsilon)
    eps2 = epsilon * epsilon

    def phase_F(x: float) -> float:
        return (2.0 / 3.0) * x ** 1.5 - (5.0 * eps2 / 48.0) * x ** -1.5

    exact = _airy_exact_provider(epsilon)
    return Problem(
        epsilon=epsilon,
        field=CoefficientField([0.0, 1.0]),
        x_start=x_start,
        x_end=x_end,
        initial=exact(x_start),
        phase_antiderivative=phase_F,
        exact=exact,
        label="airy",
    )


# ---------------------------------------------------------------------------
# Parabolic cylinder benchmark: a(x) = -x^2/2 + x on (0, 2)
# ---------------------------------------------------------------------------

def _pcf_phase_antiderivative(epsilon: float) -> Callable[[float], float]:
    # With u = x - 1: a = (1 - u^2)/2, so
    #   int sqrt(a) dx = (u sqrt(1-u^2) + asin u) / (2 sqrt(2)),
    #   int b dx = -(5 sqrt(2)/24) u^3 (1-u^2)^(-3/2) - (sqrt(2)/4) u (1-u^2)^(-1/2).
    eps2 = epsilon * epsilon
    c1 = 5.0 * math.sqrt(2.0) / 24.0
    c2 = math.sqrt(2.0) / 4.0

    def phase_F(x: float) -> float:
        u = x - 1.0
        s = 1.0 - u * u
        if s <= 0.0:
            raise ValueError("phase antiderivative only defined inside (0, 2)")
        root = math.sqrt(s)
        lead = (u * root + math.asin(u)) / (2.0 * math.sqrt(2.0))
        corr = c1 * u ** 3 / root ** 3 + c2 * u / root
        return lead + eps2 * corr

    return phase_F


def make_pcf_problem(epsilon: float, x_start: float = 0.01,
                     x_end: float = 1.99) -> Problem:
    """Quadratic-coefficient benchmark with turning points at x = 0 and 2.

    The exact solution is kappa * U(nu, z(x)) with nu = -1/(sqrt(8) eps) and
    z(x) = 2^(1/4) (1 - x)/sqrt(eps); its derivative follows from the chain
    rule, phi' = -kappa 2^(1/4) eps^(-1/2) U'(nu, z). Values come from a
    checkpointed continuation of w'' = (z^2/4 + nu) w built once here.
    """
    _check_epsilon(epsilon)
    if not 0.0 < x_start < x_end < 2.0:
        raise ValueError("domain must sit strictly inside (0, 2)")
    nu = -1.0 / (math.sqrt(8.0) * epsilon)
    z_scale = 2.0 ** 0.25 / math.sqrt(epsilon)

    try:
        u0, du0 = reference.pcf_origin_values(nu)
        # Past |nu| = 2^53 (epsilon below about 4e-17) nu reads as a gamma
        # pole, both origin values are 0, and this divides by zero.
        kappa = 2.0 / complex(u0, -math.sqrt(epsilon) * 2.0 ** 0.75 * du0)
    except ArithmeticError:
        # U(nu, 0) overflows below epsilon of about 1.18e-3; its
        # continuation already does below about 1.23e-3 (see exact).
        raise ValueError(
            f"PCF origin values overflow or vanish for epsilon={epsilon!r} "
            f"(nu={nu!r})") from None
    table = reference._ContinuationTable(
        [nu, 0.0, 0.25], 0.0, (u0, du0))
    # phi = kappa * U as two real products, one per part, in the full-state
    # query and in both batch forms, so the two batch forms give the same
    # bits and all three round kappa * U alike: numpy has no complex
    # product that rounds as CPython's does.
    kr, ki = kappa.real, kappa.imag

    def overflows(x: float) -> ValueError:
        # Double-double splits overflow once U passes about 1e300.
        return ValueError(f"PCF reference overflows at x={x!r}, "
                          f"epsilon={epsilon!r}")

    def exact(x: float) -> WaveState:
        try:
            u, du = table.state_at(z_scale * (1.0 - x))
        except ContinuationError:  # a non-finite series fails to certify
            raise overflows(x) from None
        if not (math.isfinite(u) and math.isfinite(du)):
            raise overflows(x)
        return WaveState(x, complex(kr * u, ki * u), -kappa * z_scale * du)

    def phis(xs):
        np = reference._numpy() if len(xs) else None
        if np is None:
            us = table.values_at([z_scale * (1.0 - x) for x in xs])
            if not all(map(math.isfinite, us)):
                raise OverflowError("PCF reference overflows")
            return [complex(kr * u, ki * u) for u in us]
        u = table.values_at(z_scale * (1.0 - np.asarray(xs, dtype=float)))
        if not np.isfinite(u).all():
            raise OverflowError("PCF reference overflows")
        phi = np.empty(len(u), dtype=complex)
        np.multiply(kr, u, out=phi.real)
        np.multiply(ki, u, out=phi.imag)
        return phi

    exact.phis = phis

    return Problem(
        epsilon=epsilon,
        field=CoefficientField([0.0, 1.0, -0.5]),
        x_start=x_start,
        x_end=x_end,
        initial=exact(x_start),
        phase_antiderivative=_pcf_phase_antiderivative(epsilon),
        exact=exact,
        label="pcf",
    )


# ---------------------------------------------------------------------------
# General polynomial problems
# ---------------------------------------------------------------------------

def make_polynomial_problem(coeffs: Sequence[float], epsilon: float,
                            domain: tuple[float, float],
                            initial: Optional[WaveState] = None,
                            tau_guard: float = 1e-12) -> Problem:
    """Problem with a polynomial coefficient function.

    When no initial state is given, the right-traveling scattering data
    phi = 1, eps phi' = -i sqrt(a(x_start)) is used; that requires
    a(x_start) > 0.
    """
    _check_epsilon(epsilon)
    fld = CoefficientField(coeffs)
    x_start, x_end = float(domain[0]), float(domain[1])
    if initial is None:
        a0 = fld(x_start)
        if a0 <= 0.0:
            raise ValueError(
                "default initial data needs a(x_start) > 0; pass `initial`")
        initial = WaveState(x_start, 1.0 + 0.0j,
                            -1j * math.sqrt(a0) / epsilon)
    return Problem(
        epsilon=epsilon,
        field=fld,
        x_start=x_start,
        x_end=x_end,
        initial=initial,
        tau_guard=tau_guard,
        label="poly",
    )


# Keys each spec type takes; any other key is an error, not ignored.
_SPEC_KEYS = {
    "airy": {"type", "epsilon", "domain"},
    "pcf": {"type", "epsilon", "domain"},
    "poly": {"type", "epsilon", "domain", "coeffs", "initial", "tau_guard"},
}


def _number(value, name: str) -> float:
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def _numbers(value, name: str, count: int = 0) -> list[float]:
    """A list of numbers, of exactly `count` entries when count > 0."""
    if (not isinstance(value, (list, tuple)) or not value
            or (count and len(value) != count)):
        size = f"{count} numbers" if count else "a non-empty list of numbers"
        raise ValueError(f"{name} must be {size}, got {value!r}")
    return [_number(v, name) for v in value]


def problem_from_json(spec) -> Problem:
    """Build a problem from a JSON object or string.

    Schema: {"type": "airy"|"pcf"|"poly", "epsilon": number,
             "domain": [a, b], "coeffs": [..], "initial": [re_phi, im_phi,
             re_dphi, im_dphi], "tau_guard": number}. coeffs, initial and
    tau_guard are "poly" keys only; epsilon defaults to 1, and domain to
    the benchmark's own interval for "airy" and "pcf". A spec that is not
    an object, an unknown type, a key its type does not take, or a value
    of the wrong shape raises ValueError.
    """
    if isinstance(spec, str):
        spec = json.loads(spec)
    if not isinstance(spec, dict):
        raise ValueError(f"problem spec must be an object, got {spec!r}")
    kind = spec.get("type")
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise ValueError(f"unknown problem type {kind!r}")
    extra = sorted(set(spec) - _SPEC_KEYS[kind])
    if extra:
        raise ValueError(f"{kind} problems take no key {', '.join(extra)}")
    epsilon = _number(spec.get("epsilon", 1.0), "epsilon")
    domain = _numbers(spec["domain"], "domain", 2) if "domain" in spec \
        else None
    if kind != "poly":
        maker = make_airy_problem if kind == "airy" else make_pcf_problem
        return maker(epsilon) if domain is None else maker(epsilon, *domain)
    coeffs = _numbers(spec.get("coeffs"), "coeffs")
    if domain is None:
        raise ValueError("poly problems need a domain")
    initial = None
    if "initial" in spec:
        re_p, im_p, re_d, im_d = _numbers(spec["initial"], "initial", 4)
        initial = WaveState(domain[0], complex(re_p, im_p),
                            complex(re_d, im_d))
    return make_polynomial_problem(
        coeffs, epsilon, domain, initial=initial,
        tau_guard=_number(spec.get("tau_guard", 1e-12), "tau_guard"))
