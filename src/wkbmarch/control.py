"""Adaptive step-size control, method switching, and the marching driver.

Each trial step evaluates an embedded pair per active method: the transform
marching orders one and two (h-orders, exponent k = 1), the basis-fit
procedure at WKB orders two and three (also k = 1), or Fehlberg 4(5)
(k = 4). A step is accepted when the pair difference stays below the
blended tolerance ATol + RTol * ||Y||_inf with ATol = eta * Tol and
RTol = Tol (error per step). The proposal factor

    theta = clamp(0.5, 2, 0.9 * (tolerance / est)^(1/(k+1)))

both resizes the step and arbitrates between methods: among accepted
candidates the larger theta wins; if none is accepted the trial is redone
with the shrunken step. A candidate whose transforms are inadmissible
(turning-point guards) scores as rejected with theta 0.5, which is what
pushes the march onto the Runge-Kutta branch near turning points. A pair
with a non-finite member or estimate scores the same way, so a NaN or Inf
is never accepted and never enlarges the step.

The "original" rival controller differs deliberately: relative tolerance
only, switching by the smaller relative estimate, and no ratio clamps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

from .phase import PhaseProvider
from .rk45 import rkf45_step
from .rkwkb import rkwkb_step
from .state import SolverError, WaveState, WKBInadmissibleError
from .wkb_core import from_Z, to_U, to_Z, wkb_step_pair

METHODS = ("wkb+rkf45", "rkwkbmod", "rkwkb", "rkf45")

# Tag strings recorded per accepted step.
TAG_WKB = "WKB"
TAG_RKWKB = "RKWKB"
TAG_RKF45 = "RKF45"


@dataclass
class SolverConfig:
    """Controller parameters for one run."""

    tol: float
    h0: float
    method: str = "wkb+rkf45"
    eta: float = 1e-2
    theta_min: float = 0.5
    theta_max: float = 2.0
    safety: float = 0.9
    phase: str = "auto"
    cc_nodes: int = 15
    max_rejections: int = 25

    def __post_init__(self):
        if self.tol <= 0.0 or self.eta <= 0.0 or self.h0 <= 0.0:
            raise ValueError("tol, eta and h0 must be positive")
        if not 0.0 < self.theta_min < 1.0 < self.theta_max:
            raise ValueError("need 0 < theta_min < 1 < theta_max")
        if not 0.0 < self.safety < 1.0:
            raise ValueError("safety factor must sit in (0, 1)")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.phase not in ("auto", "exact", "cc"):
            raise ValueError(f"unknown phase mode {self.phase!r}")

    def phase_mode(self, problem) -> str:
        """Concrete phase mode: auto picks the closed form when present."""
        if self.phase != "auto":
            return self.phase
        return "exact" if problem.phase_antiderivative is not None else "cc"

    @property
    def atol(self) -> float:
        return self.eta * self.tol

    @property
    def rtol(self) -> float:
        return self.tol


@dataclass(frozen=True)
class StepRecord:
    """One accepted step: landing point, size, method tag, controller data."""

    index: int
    x: float
    h: float
    method: str
    est: float
    theta: float
    state: WaveState


@dataclass
class Trajectory:
    """Accepted steps of one run plus bookkeeping counters."""

    records: list[StepRecord] = field(default_factory=list)
    rejected: int = 0
    initial: Optional[WaveState] = None

    @property
    def accepted(self) -> int:
        return len(self.records)

    @property
    def states(self) -> list[WaveState]:
        return [r.state for r in self.records]

    @property
    def final_state(self) -> WaveState:
        return self.records[-1].state

    def method_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.records:
            counts[r.method] = counts.get(r.method, 0) + 1
        return counts


# ---------------------------------------------------------------------------
# Pair scoring
# ---------------------------------------------------------------------------

def estimate_error(y_low: WaveState, y_high: WaveState) -> float:
    """Local truncation estimate: sup norm of the pair difference."""
    if y_low.x != y_high.x:
        raise ValueError("estimator needs both results at the same point")
    return max(abs(y_low.phi - y_high.phi), abs(y_low.dphi - y_high.dphi))


def proposal_factor(est: float, y_norm: float, config: SolverConfig,
                    k: int) -> float:
    """Clamped elementary-controller factor for a pair of orders (k, k+1)."""
    if not est >= 0.0:
        raise ValueError("estimate must be non-negative")
    if est == 0.0:
        return config.theta_max
    tol = config.atol + config.rtol * y_norm
    theta = config.safety * (tol / est) ** (1.0 / (k + 1))
    return max(config.theta_min, min(config.theta_max, theta))


@dataclass(frozen=True)
class Candidate:
    """One method's scored trial result (state is None when rejected
    as inadmissible or non-finite)."""

    method: str
    accepted: bool
    theta: float
    est: float
    state: Optional[WaveState]
    rel_est: float = math.inf


def select_method(candidates) -> tuple[float, Optional[int]]:
    """Largest-theta arbitration over scored candidates.

    Returns (Theta, index of the chosen candidate) with index None when no
    candidate was accepted (the caller retries with the shrunken step).
    """
    best_idx = None
    best_theta = -1.0
    for i, c in enumerate(candidates):
        if c.accepted and c.theta > best_theta:
            best_idx, best_theta = i, c.theta
    if best_idx is not None:
        return best_theta, best_idx
    return max(c.theta for c in candidates), None


# ---------------------------------------------------------------------------
# Candidate evaluation
# ---------------------------------------------------------------------------

def _finite(y: WaveState) -> bool:
    return cmath.isfinite(y.phi) and cmath.isfinite(y.dphi)


def _score(method: str, y_low: WaveState, y_high: WaveState,
           config: SolverConfig, k: int) -> Candidate:
    """Score a pair; a non-finite member or estimate scores as rejected."""
    est = estimate_error(y_low, y_high)
    if not (math.isfinite(est) and _finite(y_low) and _finite(y_high)):
        return _rejected(method)
    y_norm = y_high.sup_norm()
    accepted = est <= config.atol + config.rtol * y_norm
    theta = proposal_factor(est, y_norm, config, k)
    rel = est / y_norm if y_norm > 0.0 else math.inf
    return Candidate(method, accepted, theta, est, y_high, rel)


def _rejected(method: str) -> Candidate:
    return Candidate(method, False, 0.5, math.inf, None)


def _wkb_candidate(problem, provider, zn, x1, config) -> Candidate:
    try:
        z1, z2 = wkb_step_pair(zn, x1, problem, provider)
        y_low = from_Z(problem, provider, z1)
        y_high = from_Z(problem, provider, z2)
    except WKBInadmissibleError:
        return _rejected(TAG_WKB)
    return _score(TAG_WKB, y_low, y_high, config, k=1)


def _rkwkb_candidate(problem, provider, state, h, config) -> Candidate:
    try:
        y_low, y_high = rkwkb_step(problem, provider, state, h)
    except WKBInadmissibleError:
        return _rejected(TAG_RKWKB)
    return _score(TAG_RKWKB, y_low, y_high, config, k=1)


def _rkf45_candidate(problem, state, h, config) -> Candidate:
    try:
        pair = rkf45_step(problem, state, h)
    except SolverError:
        return _rejected(TAG_RKF45)
    return _score(TAG_RKF45, pair.y4, pair.y5, config, k=4)


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

def _original_rescore(cand: Candidate, config: SolverConfig) -> Candidate:
    """Rescore a candidate under the original rival controller: relative
    tolerance only, square-root exponent, no ratio clamps."""
    if cand.state is None:
        return cand
    y_norm = cand.state.sup_norm()
    tol = config.rtol * y_norm
    accepted = cand.est <= tol
    if cand.est == 0.0:
        theta = 10.0
    else:
        theta = config.safety * (tol / cand.est) ** 0.5
    return Candidate(cand.method, accepted, theta, cand.est, cand.state,
                     cand.rel_est)


def _select_original(candidates) -> tuple[float, Optional[int]]:
    viable = [i for i, c in enumerate(candidates) if c.state is not None]
    if not viable:
        return 0.5, None
    best = min(viable, key=lambda i: candidates[i].rel_est)
    cand = candidates[best]
    return cand.theta, (best if cand.accepted else None)


def integrate(problem, config: SolverConfig) -> Trajectory:
    """March from x_start to x_end under the configured controller.

    Raises SolverError after `max_rejections` consecutive rejected trials
    or when the trial step underflows.
    """
    use_wkb = config.method in ("wkb+rkf45", "rkwkbmod", "rkwkb")
    provider = None
    if use_wkb:
        provider = PhaseProvider(problem, mode=config.phase_mode(problem),
                                 nodes=config.cc_nodes)
        _anchor_provider(provider, problem.x_start)
    x = problem.x_start
    state = problem.initial
    span = problem.x_end - problem.x_start
    h_floor = 1e-14 * span
    h_trial = config.h0
    traj = Trajectory(initial=problem.initial)
    consecutive = 0
    zn = None
    while x < problem.x_end:
        clamped = h_trial >= problem.x_end - x
        h = problem.x_end - x if clamped else h_trial
        if h <= h_floor:
            raise SolverError(f"step size underflow at x={x} (h={h})")
        x1 = problem.x_end if clamped else x + h

        candidates = []
        if config.method in ("wkb+rkf45",):
            if zn is None:
                zn = _make_z(problem, provider, state)
            cand = (_wkb_candidate(problem, provider, zn, x1, config)
                    if zn is not None else _rejected(TAG_WKB))
            candidates.append(cand)
        elif config.method in ("rkwkbmod", "rkwkb"):
            candidates.append(
                _rkwkb_candidate(problem, provider, state, h, config))
        candidates.append(_rkf45_candidate(problem, state, h, config))

        if config.method == "rkwkb":
            candidates = [_original_rescore(c, config) for c in candidates]
            theta, choice = _select_original(candidates)
        else:
            theta, choice = select_method(candidates)

        if choice is not None:
            cand = candidates[choice]
            state = cand.state
            x = x1
            if provider is not None:
                _anchor_provider(provider, x)
            traj.records.append(StepRecord(
                index=len(traj.records), x=x, h=h, method=cand.method,
                est=cand.est, theta=theta, state=state))
            consecutive = 0
            zn = None
        else:
            traj.rejected += 1
            consecutive += 1
            if consecutive > config.max_rejections:
                raise SolverError(
                    f"{consecutive} consecutive rejections at x={x}")
        h_trial = theta * h
    return traj


def _make_z(problem, provider, state):
    """Z-state at the current node, or None when the transform is barred."""
    try:
        return to_Z(provider, to_U(problem, state), state.x)
    except WKBInadmissibleError:
        return None


def _anchor_provider(provider, x_new):
    """Advance the phase anchor, re-gauging when the increment cannot be
    evaluated (for instance after crossing a region with a <= 0)."""
    if provider.anchor == x_new:
        return
    try:
        provider.advance(x_new)
    except WKBInadmissibleError:
        provider.rebase(x_new)


# ---------------------------------------------------------------------------
# Fixed-grid marching (controller disabled)
# ---------------------------------------------------------------------------

def march_fixed_grid(problem, xs, order: int = 2, phase: str = "exact",
                     cc_nodes: int = 15) -> list[WaveState]:
    """Propagate the transform scheme of the given h-order over a fixed
    grid starting at problem.x_start (= xs[0]); used for convergence-order
    measurements."""
    xs = list(map(float, xs))
    if xs[0] != problem.x_start:
        raise ValueError("grid must start at problem.x_start")
    provider = PhaseProvider(problem, mode=phase, nodes=cc_nodes)
    z = to_Z(provider, to_U(problem, problem.initial), xs[0])
    out = []
    for x1 in xs[1:]:
        z1, z2 = wkb_step_pair(z, x1, problem, provider)
        z = z1 if order == 1 else z2
        out.append(from_Z(problem, provider, z))
        provider.advance(x1)
    return out


# ---------------------------------------------------------------------------
# Estimator studies
# ---------------------------------------------------------------------------

def _exact_restart_pair(problem, method: str, x0: float, h: float,
                        phase: str, cc_nodes: int):
    """Both pair members over [x0, x0+h], restarted from the exact solution."""
    y_start = problem.exact(x0)
    provider = PhaseProvider(problem, mode=phase, nodes=cc_nodes)
    provider.rebase(x0)
    if method == TAG_WKB:
        zn = to_Z(provider, to_U(problem, y_start), x0)
        z1, z2 = wkb_step_pair(zn, x0 + h, problem, provider)
        return (from_Z(problem, provider, z1), from_Z(problem, provider, z2))
    if method == TAG_RKWKB:
        return rkwkb_step(problem, provider, y_start, h)
    pair = rkf45_step(problem, y_start, h)
    return pair.y4, pair.y5


def estimator_study(problem, config: SolverConfig):
    """Estimate-versus-truth audit of the oscillatory steps of one run.

    For each accepted non-RKF45 step the pair is recomputed from the exact
    solution at the step start; the true local truncation error is the
    lower-order member's defect against the exact solution at the landing
    point. Returns rows (x, h, method, est, lte, deviation) where deviation
    is |est - lte| / lte. Needs an exact-solution provider.
    """
    if problem.exact is None:
        raise ValueError("estimator study needs an exact solution")
    traj = integrate(problem, config)
    rows = []
    x_prev = problem.x_start
    for rec in traj.records:
        if rec.method != TAG_RKF45:
            y_low, y_high = _exact_restart_pair(
                problem, rec.method, x_prev, rec.x - x_prev,
                config.phase_mode(problem), config.cc_nodes)
            est = estimate_error(y_low, y_high)
            lte = estimate_error(y_low, problem.exact(rec.x))
            dev = abs(est - lte) / lte if lte > 0.0 else math.inf
            rows.append((x_prev, rec.x - x_prev, rec.method, est, lte, dev))
        x_prev = rec.x
    return rows


def estimator_h_sweep(problem, x0: float, h_values, method: str = TAG_WKB,
                      phase: str = "exact", cc_nodes: int = 15):
    """Single-step estimator audit from a fixed start as h varies.

    Returns rows (h, est, lte, deviation); the step restarts at the exact
    solution for every h.
    """
    if problem.exact is None:
        raise ValueError("estimator sweep needs an exact solution")
    rows = []
    for h in h_values:
        y_low, y_high = _exact_restart_pair(problem, method, x0, float(h),
                                            phase, cc_nodes)
        est = estimate_error(y_low, y_high)
        lte = estimate_error(y_low, problem.exact(x0 + float(h)))
        dev = abs(est - lte) / lte if lte > 0.0 else math.inf
        rows.append((float(h), est, lte, dev))
    return rows
