"""Adaptive step-size control, method switching, and the marching driver.

Each trial step evaluates one embedded pair (low, high) per candidate of
the method (`CANDIDATES`): the transform marching orders one and two
(h-orders, exponent k = 1), the basis-fit procedure at WKB orders two and
three (also k = 1), or Fehlberg 4(5) (k = 4). Every pair is scored by one
rule: a step is accepted when the pair difference stays below the blended
tolerance ATol + RTol * ||Y||_inf with ATol = ETA * Tol and RTol = Tol
(error per step). The proposal factor

    theta = clamp(THETA_MIN, THETA_MAX, SAFETY * (tolerance / est)^(1/(k+1)))

both resizes the step and arbitrates between methods: among accepted
candidates the larger theta wins; if none is accepted the trial is redone
with the shrunken step, at most MAX_REJECTIONS times in a row. A candidate
whose transforms are inadmissible (turning-point guards) scores as rejected
with theta THETA_MIN, which is what pushes the march onto the Runge-Kutta
branch near turning points. A pair with a non-finite member or estimate
scores the same way, so a NaN or Inf is never accepted and never enlarges
the step. The controller constants are the paper's fixed values.

The "original" rival controller differs deliberately: relative tolerance
only, switching by the smaller relative estimate, and no ratio clamps.

The run owns one endpoint record per grid point (`_endpoint`): the left
one is kept across rejected trials, and each trial's right one becomes
the next left one when the step is accepted. A point where a guard trips
gets no record, and a step from or to it is rejected as inadmissible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from . import rkwkb, wkb_core
from .phase import PhaseProvider
from .rk45 import rkf45_step
from .rkwkb import rkwkb_step
from .state import SolverError, WaveState, WKBInadmissibleError
from .wkb_core import Endpoint, from_Z, to_U, to_Z, wkb_step_pair

# Tag strings recorded per accepted step.
TAG_WKB = "WKB"
TAG_RKWKB = "RKWKB"
TAG_RKF45 = "RKF45"

# Candidate tags of each method, in arbitration order.
CANDIDATES = {
    "wkb+rkf45": (TAG_WKB, TAG_RKF45),
    "rkwkbmod": (TAG_RKWKB, TAG_RKF45),
    "rkwkb": (TAG_RKWKB, TAG_RKF45),
    "rkf45": (TAG_RKF45,),
}
METHODS = tuple(CANDIDATES)

# Controller exponent k of each tag's pair of orders (k, k+1).
ORDER_K = {TAG_WKB: 1, TAG_RKWKB: 1, TAG_RKF45: 4}

ETA = 1e-2           # ATol = ETA * Tol
THETA_MIN = 0.5      # proposal-factor clamps
THETA_MAX = 2.0
SAFETY = 0.9
MAX_REJECTIONS = 25  # consecutive rejected trials before SolverError


@dataclass
class SolverConfig:
    """Controller parameters for one run."""

    tol: float
    h0: float
    method: str = "wkb+rkf45"
    phase: str = "auto"

    def __post_init__(self):
        if not (0.0 < self.tol < math.inf and 0.0 < self.h0 < math.inf):
            raise ValueError("tol and h0 must be finite and positive")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.phase not in ("auto", "exact", "cc"):
            raise ValueError(f"unknown phase mode {self.phase!r}")

    @property
    def atol(self) -> float:
        return ETA * self.tol


@dataclass(slots=True)
class StepRecord:
    """One accepted step: landing point, size, method tag, controller data.
    A plain slotted record like `WaveState`: not written to, not hashable."""

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
    d_phi = abs(y_low.phi - y_high.phi)
    d_dphi = abs(y_low.dphi - y_high.dphi)
    if math.isnan(d_phi) or math.isnan(d_dphi):
        return math.nan
    return max(d_phi, d_dphi)


def proposal_factor(est: float, tol: float, k: int) -> float:
    """Clamped elementary-controller factor for a pair of orders (k, k+1),
    given the pair's tolerance ATol + RTol * ||y||."""
    if not est >= 0.0:
        raise ValueError("estimate must be non-negative")
    if est == 0.0:
        return THETA_MAX
    theta = SAFETY * (tol / est) ** (1.0 / (k + 1))
    return max(THETA_MIN, min(THETA_MAX, theta))


@dataclass(slots=True)
class Candidate:
    """One method's scored trial result (state is None when rejected
    as inadmissible or non-finite)."""

    method: str
    accepted: bool
    theta: float
    est: float
    state: Optional[WaveState]


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

def _score(method: str, y_low: WaveState, y_high: WaveState,
           config: SolverConfig, k: int) -> Candidate:
    """Score a pair; a non-finite member or estimate scores as rejected.

    A non-finite member always makes the estimate non-finite (Inf or NaN),
    so checking the estimate covers both.
    """
    est = estimate_error(y_low, y_high)
    if not math.isfinite(est):
        return _rejected(method)
    tol = config.atol + config.tol * y_high.sup_norm()
    return Candidate(method, est <= tol, proposal_factor(est, tol, k), est,
                     y_high)


def _score_original(method: str, y_low: WaveState, y_high: WaveState,
                    config: SolverConfig, k: int) -> Candidate:
    """`_score` under the original rival controller: relative tolerance
    only, square-root exponent whatever k, no ratio clamps."""
    est = estimate_error(y_low, y_high)
    if not math.isfinite(est):
        return _rejected(method)
    tol = config.tol * y_high.sup_norm()
    theta = SAFETY * (tol / est) ** 0.5 if est != 0.0 else 10.0
    return Candidate(method, est <= tol, theta, est, y_high)


def _rejected(method: str) -> Candidate:
    return Candidate(method, False, THETA_MIN, math.inf, None)


def _record(problem, tag: str, x: float) -> Optional[Endpoint]:
    """The record at x of what method `tag` reads there (None for RKF45).
    `eval_bk` and `wkb_basis` are looked up in their modules, where a
    profiler that wraps them sees the calls."""
    if tag == TAG_RKF45:
        return None
    if tag == TAG_WKB:
        return wkb_core.eval_bk(problem, x)
    return rkwkb.wkb_basis(problem, x)


def _endpoint(problem, tag: str, x: float) -> Optional[Endpoint]:
    """`_record`, or None where a guard trips at x."""
    try:
        return _record(problem, tag, x)
    except WKBInadmissibleError:
        return None


def _pair(tag: str, problem, provider, state: WaveState, h: float, left,
          right) -> tuple[WaveState, WaveState]:
    """The (low, high) members of one method's embedded pair from `state`:
    the oscillatory schemes step from record `left` to `right`, RKF45 by h."""
    if tag == TAG_WKB:
        zn = to_Z(to_U(problem, left, state))
        z_low, z_high = wkb_step_pair(problem, provider, left, right, zn)
        return from_Z(problem, right, z_low), from_Z(problem, right, z_high)
    if tag == TAG_RKWKB:
        return rkwkb_step(problem, provider, left, right, state)
    return rkf45_step(problem, state, h)


def _candidate(tag: str, problem, provider, state: WaveState, h: float,
               left, right, config: SolverConfig, score) -> Candidate:
    """Score one method's pair with `score`; an inadmissible or failed
    step, or an oscillatory step without a record at either end, is
    rejected."""
    if tag != TAG_RKF45 and (left is None or right is None):
        return _rejected(tag)
    try:
        y_low, y_high = _pair(tag, problem, provider, state, h, left, right)
    except (WKBInadmissibleError, SolverError):
        return _rejected(tag)
    return score(tag, y_low, y_high, config, ORDER_K[tag])


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

def _select_original(candidates) -> tuple[float, Optional[int]]:
    """(theta, index) of the candidate with a state and the least relative
    estimate est / ||y|| (inf at ||y|| = 0); index None if it was rejected."""
    rel = {i: c.est / n if (n := c.state.sup_norm()) > 0.0 else math.inf
           for i, c in enumerate(candidates) if c.state is not None}
    if not rel:
        return 0.5, None
    best = min(rel, key=rel.get)
    cand = candidates[best]
    return cand.theta, (best if cand.accepted else None)


def integrate(problem, config: SolverConfig) -> Trajectory:
    """March from x_start to x_end under the configured controller.

    Raises SolverError after MAX_REJECTIONS consecutive rejected trials
    or when the trial step falls to 1e-14 |x|.
    """
    provider = None if config.method == "rkf45" else PhaseProvider(
        problem, config.phase)
    lead = CANDIDATES[config.method][0]  # the tag whose records are kept
    score, select = ((_score_original, _select_original)
                     if config.method == "rkwkb" else (_score, select_method))
    x = problem.x_start
    state = problem.initial
    left = _endpoint(problem, lead, x)
    h_trial = config.h0
    traj = Trajectory()
    consecutive = 0
    while x < problem.x_end:
        clamped = h_trial >= problem.x_end - x
        h = problem.x_end - x if clamped else h_trial
        # A floor relative to x holds on intervals of any length, and any h
        # above it advances x, whose ulp is at most 2.3e-16 |x|.
        if h <= 1e-14 * abs(x):
            raise SolverError(f"step size underflow at x={x} (h={h})")
        x1 = problem.x_end if clamped else x + h
        right = _endpoint(problem, lead, x1)

        candidates = [_candidate(tag, problem, provider, state, h, left,
                                 right, config, score)
                      for tag in CANDIDATES[config.method]]
        theta, choice = select(candidates)

        if choice is not None:
            cand = candidates[choice]
            state = cand.state
            if state.x != x1:  # RKF45 lands at x + h, off a clamped x_end
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


# ---------------------------------------------------------------------------
# Fixed-grid marching (controller disabled)
# ---------------------------------------------------------------------------

def march_fixed_grid(problem, xs, order: int = 2,
                     phase: str = "exact") -> list[WaveState]:
    """Propagate the transform scheme of the given h-order (1 or 2) over a
    fixed grid starting at problem.x_start (= xs[0]); used for
    convergence-order measurements. Each step is integrate's WKB pair
    (`_pair`) from the previous state. Raises ValueError for a grid that
    does not increase strictly, and where the scheme is inadmissible at a
    grid point or on a step."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, not {order!r}")
    xs = list(map(float, xs))
    if not xs or xs[0] != problem.x_start:
        raise ValueError("grid must start at problem.x_start")
    for x0, x1 in zip(xs, xs[1:]):
        if not x0 < x1:
            raise ValueError(f"grid must increase strictly, got {x1} "
                             f"after {x0}")
    provider = PhaseProvider(problem, phase)
    ends = []
    for x in xs:
        try:
            ends.append(wkb_core.eval_bk(problem, x))
        except WKBInadmissibleError as exc:
            raise ValueError(f"{TAG_WKB} is inadmissible at grid point "
                             f"x={x}: {exc}") from exc
    out = [problem.initial]
    for left, right in zip(ends, ends[1:]):
        try:
            pair = _pair(TAG_WKB, problem, provider, out[-1],
                         right.x - left.x, left, right)
        except WKBInadmissibleError as exc:
            raise ValueError(f"{TAG_WKB} step [{left.x}, {right.x}] is "
                             f"inadmissible: {exc}") from exc
        out.append(pair[order - 1])
    return out[1:]


# ---------------------------------------------------------------------------
# Estimator studies
# ---------------------------------------------------------------------------

def _audit(problem, tag: str, x0: float, h: float,
           phase: str) -> tuple[float, float, float]:
    """(est, lte, deviation) of one pair over [x0, x0+h] restarted from the
    exact solution: lte is the lower member's defect against the exact
    solution at x0 + h, and deviation is |est - lte| / lte. Raises
    ValueError where the pair is inadmissible on the step."""
    provider = PhaseProvider(problem, phase)
    try:
        y_low, y_high = _pair(tag, problem, provider, problem.exact(x0), h,
                              _record(problem, tag, x0),
                              _record(problem, tag, x0 + h))
    except WKBInadmissibleError as exc:
        raise ValueError(f"{tag} step [{x0}, {x0 + h}] is inadmissible: "
                         f"{exc}") from exc
    est = estimate_error(y_low, y_high)
    lte = estimate_error(y_low, problem.exact(x0 + h))
    return est, lte, abs(est - lte) / lte if lte > 0.0 else math.inf


def estimator_study(problem, config: SolverConfig):
    """Estimate-versus-truth audit of the oscillatory steps of one run.

    For each accepted non-RKF45 step the pair is recomputed from the exact
    solution at the step start (`_audit`). Returns rows (x, h, method, est,
    lte, deviation). Needs an exact-solution provider.
    """
    if problem.exact is None:
        raise ValueError("estimator study needs an exact solution")
    traj = integrate(problem, config)
    rows = []
    x_prev = problem.x_start
    for rec in traj.records:
        if rec.method != TAG_RKF45:
            h = rec.x - x_prev
            rows.append((x_prev, h, rec.method, *_audit(
                problem, rec.method, x_prev, h, config.phase)))
        x_prev = rec.x
    return rows


def estimator_h_sweep(problem, x0: float, h_values, method: str = TAG_WKB,
                      phase: str = "exact"):
    """Single-step estimator audit from a fixed start as h varies.

    Returns rows (h, est, lte, deviation); the step restarts at the exact
    solution for every h.
    """
    if method not in ORDER_K:
        raise ValueError(f"unknown method tag {method!r}")
    if problem.exact is None:
        raise ValueError("estimator sweep needs an exact solution")
    return [(float(h), *_audit(problem, method, x0, float(h), phase))
            for h in h_values]
