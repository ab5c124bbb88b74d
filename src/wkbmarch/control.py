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
candidates the larger theta wins, a tie going to the earlier candidate; if
none is accepted the trial is redone with the step shrunk by the largest
theta, at most MAX_REJECTIONS times in a row. A candidate accepted at
THETA_MAX cannot be beaten, since a later one could at best tie, so the
trial stops there and runs no later candidate's pair. A candidate whose
transforms are inadmissible (turning-point guards) scores as rejected
with theta THETA_MIN, which is what pushes the march onto the Runge-Kutta
branch near turning points. A pair with a non-finite member or estimate
scores the same way, so a NaN or Inf is never accepted and never enlarges
the step. The controller constants are the paper's fixed values.

Every pair kernel returns four bare complex scalars, phi and phi' of the
low member and then of the high one. `integrate` scores them where they
land, with the rule written out, keeps only the running winner, and builds
one `WaveState` per accepted step, which the next trial reads, and one
packed row of the `Trajectory` table; `estimate_error` and
`proposal_factor` are the rule's reference form, which the estimator
audits use.

The run owns one record per grid point (`_endpoint`, from the builder it
chooses once): the flat `wkb_core.Endpoint` of the transform scheme, or
the `rkwkb.BasisEndpoint` of the basis-fit one. The left record is kept
across rejected trials, and each trial's right one becomes the next left
one when the step is accepted. A point where a guard trips gets no
record, and a step from or to it is rejected as inadmissible. A WKB
candidate carries Z as two complex scalars and the step's one rotation.
"""

from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass

from . import rkwkb, wkb_core
from .phase import PhaseProvider
from .rk45 import rkf45_step
from .rkwkb import rkwkb_step
from .state import SolverError, WaveState, WKBInadmissibleError
from .wkb_core import from_Z, to_U, to_Z, wkb_step_pair

# Tag strings recorded per accepted step.
TAG_WKB = "WKB"
TAG_RKWKB = "RKWKB"
TAG_RKF45 = "RKF45"

# Candidate tags of each method, in arbitration order.
CANDIDATES = {
    "wkb+rkf45": (TAG_WKB, TAG_RKF45),
    "rkwkbmod": (TAG_RKWKB, TAG_RKF45),
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


# One accepted step is one row of `Trajectory.table`: x, h, est, theta and
# the real and imaginary parts of phi and phi', in that order.
ROW = struct.Struct("8d")
_WIDTH = 8


class Trajectory:
    """Accepted steps of one run, by column, plus the rejected count.

    `append` packs one step as one row of eight floats (see ROW) into
    `rows` and its method tag into `methods`. `table` is the rows as one
    flat float array, each column a stride of it, and `xs` and `phis` slice
    the x column and the phi parts out as float arrays, with no per-step
    Python. `records`, `states`, `final_state` and `method_counts()` are
    read-only views built from the columns on each access, with the bits
    that were appended (-0.0 and NaN parts included); writing to them
    changes nothing.

    The rows stay separate bytes objects until `table` is first read, which
    joins them in one pass: inside `integrate`, packing a row into a list
    costs about what building a `StepRecord` did, and writing it into one
    growing array about 40% more.
    """

    __slots__ = ("rows", "methods", "rejected")

    def __init__(self):
        # Packed rows in step order: one bytes object per accepted step, or
        # fewer, longer ones once `table` has joined them.
        self.rows: list[bytes] = []
        self.methods: list[str] = []
        self.rejected = 0

    def append(self, x: float, h: float, method: str, est: float,
               theta: float, phi: complex, dphi: complex) -> None:
        """Record one accepted step; `integrate` writes this out."""
        self.rows.append(ROW.pack(x, h, est, theta, phi.real, phi.imag,
                                  dphi.real, dphi.imag))
        self.methods.append(method)

    @property
    def table(self) -> array:
        """Every accepted step as one row of ROW, in one float array."""
        rows = self.rows
        if len(rows) > 1:
            rows[:] = [b"".join(rows)]
        return array("d", rows[0] if rows else b"")

    @property
    def accepted(self) -> int:
        return len(self.methods)

    @property
    def xs(self) -> array:
        """The x of every accepted step."""
        return self.table[0::_WIDTH]

    @property
    def phis(self) -> array:
        """Real and imaginary parts of every accepted phi, interleaved: the
        buffer of a complex array."""
        t = self.table
        out = array("d", bytes(16 * len(self.methods)))
        out[0::2] = t[4::_WIDTH]
        out[1::2] = t[5::_WIDTH]
        return out

    @property
    def states(self) -> list[WaveState]:
        t = self.table
        return list(map(WaveState, t[0::_WIDTH],
                        map(complex, t[4::_WIDTH], t[5::_WIDTH]),
                        map(complex, t[6::_WIDTH], t[7::_WIDTH])))

    @property
    def records(self) -> list[StepRecord]:
        t = self.table
        return list(map(StepRecord, range(len(self.methods)), t[0::_WIDTH],
                        t[1::_WIDTH], self.methods, t[2::_WIDTH],
                        t[3::_WIDTH], self.states))

    @property
    def final_state(self) -> WaveState:
        if not self.methods:
            raise IndexError("no accepted step")
        x, _, _, _, re, im, d_re, d_im = ROW.unpack(self.rows[-1][-ROW.size:])
        return WaveState(x, complex(re, im), complex(d_re, d_im))

    def method_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for method in self.methods:
            counts[method] = counts.get(method, 0) + 1
        return counts


# ---------------------------------------------------------------------------
# Pair scoring
# ---------------------------------------------------------------------------

def estimate_error(y_low: WaveState, y_high: WaveState) -> float:
    """Local truncation estimate: sup norm of the pair difference; inf
    where the modulus of a difference passes the largest float."""
    if y_low.x != y_high.x:
        raise ValueError("estimator needs both results at the same point")
    try:
        d_phi = abs(y_low.phi - y_high.phi)
        d_dphi = abs(y_low.dphi - y_high.dphi)
    except OverflowError:
        return math.inf
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


# ---------------------------------------------------------------------------
# Records and pairs
# ---------------------------------------------------------------------------

def _builder(tag: str):
    """`build(problem, x)`, the record at x of what method `tag` reads there
    (None for RKF45). `eval_bk` and `wkb_basis` are looked up in their
    modules when the builder is chosen, where a profiler that wraps them
    sees the calls."""
    if tag == TAG_WKB:
        return wkb_core.eval_bk
    if tag == TAG_RKWKB:
        return rkwkb.wkb_basis
    return lambda problem, x: None


def _endpoint(build, problem, x: float):
    """`build(problem, x)`, or None where a guard trips at x."""
    try:
        return build(problem, x)
    except WKBInadmissibleError:
        return None


def _pair(tag: str, problem, provider, state: WaveState, h: float, left,
          right) -> tuple[complex, complex, complex, complex]:
    """(phi_low, dphi_low, phi_high, dphi_high) of one method's pair from
    `state`: oscillatory schemes step from `left` to `right`, RKF45 by h."""
    if tag == TAG_WKB:
        z_low, z_high, rot = wkb_step_pair(problem, provider, left, right,
                                           to_Z(to_U(problem, left, state)))
        return (from_Z(problem, right, z_low, rot)
                + from_Z(problem, right, z_high, rot))
    if tag == TAG_RKWKB:
        return rkwkb_step(problem, provider, left, right, state)
    return rkf45_step(problem, state, h)


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

def integrate(problem, config: SolverConfig) -> Trajectory:
    """March from x_start to x_end under the error-per-step controller,
    with the configured method's candidates.

    A candidate without a record at either end, whose step is
    inadmissible, whose estimate is not finite (which every non-finite
    member makes it), or whose member or difference has a modulus past the
    largest float is not scored: it counts as rejected with theta
    THETA_MIN, and its state is never kept. This screen is the one
    non-finite check of a pair; `rkf45_step` leaves its stages to it.
    A candidate accepted at THETA_MAX ends the trial's candidate loop.

    Raises SolverError after MAX_REJECTIONS consecutive rejected trials
    or when the trial step falls to 1e-14 |x|.
    """
    provider = None if config.method == "rkf45" else PhaseProvider(
        problem, config.phase)
    tags = CANDIDATES[config.method]
    build = _builder(tags[0])  # the first tag's records are kept
    cands = [(tag, 1.0 / (ORDER_K[tag] + 1)) for tag in tags]  # 1/(k+1)
    atol, rtol, inf = config.atol, config.tol, math.inf
    x, x_end = problem.x_start, problem.x_end
    state = problem.initial
    left = _endpoint(build, problem, x)
    h_trial = config.h0
    traj = Trajectory()
    # Trajectory.append written out: one packed row and one tag per step.
    store, tags, pack = traj.rows.append, traj.methods.append, ROW.pack
    consecutive = 0
    while x < x_end:
        clamped = h_trial >= x_end - x
        h = x_end - x if clamped else h_trial
        # A floor relative to x holds on intervals of any length, and any h
        # above it advances x, whose ulp is at most 2.3e-16 |x|.
        if h <= 1e-14 * abs(x):
            raise SolverError(f"step size underflow at x={x} (h={h})")
        x1 = x_end if clamped else x + h
        right = _endpoint(build, problem, x1)

        # The running winner's high member, tag, estimate, theta and
        # verdict; with none scored, the step shrinks by THETA_MIN.
        theta = THETA_MIN
        accepted = False
        for tag, power in cands:
            if tag != TAG_RKF45 and (left is None or right is None):
                continue
            try:
                phi_low, dphi_low, phi, dphi = _pair(
                    tag, problem, provider, state, h, left, right)
            except WKBInadmissibleError:
                continue
            # `estimate_error`, the blended tolerance and `proposal_factor`;
            # a NaN or Inf in either member leaves the difference non-finite,
            # and a modulus past the largest float is screened the same way.
            try:
                d_phi, d_dphi = abs(phi_low - phi), abs(dphi_low - dphi)
                a_phi, a_dphi = abs(phi), abs(dphi)
            except OverflowError:
                continue
            if not (d_phi < inf and d_dphi < inf):
                continue
            est = d_dphi if d_dphi > d_phi else d_phi
            tol = atol + rtol * (a_dphi if a_dphi > a_phi else a_phi)
            th = SAFETY * (tol / est) ** power if est else THETA_MAX
            th = ((th if th > THETA_MIN else THETA_MIN) if th < THETA_MAX
                  else THETA_MAX)
            ok = est <= tol
            # An accepted candidate beats a rejected one, then the larger
            # theta wins; a tie keeps the earlier tag.
            if not (ok > accepted or ok == accepted and th > theta):
                continue
            phi_won, dphi_won, tag_won, est_won = phi, dphi, tag, est
            theta, accepted = th, ok
            # Accepted at the clamp: a later candidate can at best tie, and
            # a tie keeps this one, so no later pair is run.
            if ok and th == THETA_MAX:
                break

        if accepted:
            x = x1
            phi_won, dphi_won = complex(phi_won), complex(dphi_won)
            state = WaveState(x, phi_won, dphi_won)
            left = right
            store(pack(x, h, est_won, theta, phi_won.real, phi_won.imag,
                       dphi_won.real, dphi_won.imag))
            tags(tag_won)
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
        out.append(WaveState(right.x, *pair[2 * order - 2:2 * order]))
    return out[1:]


# ---------------------------------------------------------------------------
# Estimator studies
# ---------------------------------------------------------------------------

def _audit(problem, tag: str, x0: float, h: float,
           phase: str) -> tuple[float, float, float]:
    """(est, lte, deviation) of one pair over [x0, x0+h] restarted from the
    exact solution: lte is the lower member's defect against the exact
    solution at x0 + h, and deviation is |est - lte| / lte. Raises
    ValueError where the pair is inadmissible on the step or, as
    `integrate` screens it, its estimate is not finite."""
    provider = PhaseProvider(problem, phase)
    build = _builder(tag)
    step = f"{tag} step [{x0}, {x0 + h}]"
    try:
        pair = _pair(tag, problem, provider, problem.exact(x0), h,
                     build(problem, x0), build(problem, x0 + h))
    except WKBInadmissibleError as exc:
        raise ValueError(f"{step} is inadmissible: {exc}") from exc
    y_low = WaveState(x0 + h, *pair[:2])
    est = estimate_error(y_low, WaveState(x0 + h, *pair[2:]))
    if not est < math.inf:
        raise ValueError(f"{step} is inadmissible: non-finite estimate")
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
    solution for every h. Raises ValueError, before any step, for an h
    that is not finite and positive.
    """
    if method not in ORDER_K:
        raise ValueError(f"unknown method tag {method!r}")
    if problem.exact is None:
        raise ValueError("estimator sweep needs an exact solution")
    hs = [float(h) for h in h_values]
    for h in hs:
        if not 0.0 < h < math.inf:
            raise ValueError(f"step size must be finite and positive, got "
                             f"h={h!r}")
    return [(h, *_audit(problem, method, x0, h, phase)) for h in hs]
