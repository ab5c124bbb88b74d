"""Controller arithmetic, switching, and the adaptive driver."""

import cmath
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wkbmarch import (CoefficientField, PhaseProvider, Problem, SolverConfig,
                      SolverError, WaveState, control, estimator_h_sweep,
                      estimator_study, global_error, integrate,
                      make_airy_problem, make_pcf_problem,
                      make_polynomial_problem, march_fixed_grid, rkwkb,
                      wkb_core)
from wkbmarch.control import (CANDIDATES, METHODS, ORDER_K, THETA_MIN,
                              estimate_error, proposal_factor)
from wkbmarch.rk45 import rkf45_step


def cfg(**kw):
    base = dict(tol=1e-6, h0=0.5, method="wkb+rkf45")
    base.update(kw)
    return SolverConfig(**base)


# ---------------------------------------------------------------------------
# estimate_error / proposal_factor
# ---------------------------------------------------------------------------

def test_estimate_identical_states():
    a = WaveState(1.0, 0.3 + 0.4j, -1.0j)
    assert estimate_error(a, a) == 0.0


def test_estimate_complex_modulus():
    a = WaveState(1.0, 3.0 + 4.0j, 0.0j)
    b = WaveState(1.0, 0.0j, 0.0j)
    assert estimate_error(a, b) == 5.0


@pytest.mark.parametrize("slot", ["phi", "dphi"])
def test_estimate_propagates_nan(slot):
    # A NaN difference in either component makes the estimate NaN, never 0.
    good = WaveState(1.0, 0j, 0j)
    bad = WaveState(1.0, math.nan if slot == "phi" else 0j,
                    math.nan if slot == "dphi" else 0j)
    assert math.isnan(estimate_error(good, bad))
    assert math.isnan(estimate_error(bad, good))


def test_estimate_requires_same_point():
    with pytest.raises(ValueError):
        estimate_error(WaveState(1.0, 0j, 0j), WaveState(2.0, 0j, 0j))


def test_proposal_factor_unit_ratio():
    c = cfg(tol=1e-6)
    # est equal to the blended tolerance leaves only the safety factor.
    tol = c.atol + c.tol * 2.0
    assert proposal_factor(tol, tol, 1) == pytest.approx(0.9)


def test_proposal_factor_clamps():
    c = cfg(tol=1e-6)
    tol = c.atol + c.tol * 1.0
    assert proposal_factor(0.0, tol, 1) == 2.0
    assert proposal_factor(1e6 * tol, tol, 1) == 0.5


def test_proposal_factor_rejects_nan():
    with pytest.raises(ValueError):
        proposal_factor(math.nan, 1.0, 1)


# ---------------------------------------------------------------------------
# Arbitration, driven through integrate with designed pairs
# ---------------------------------------------------------------------------

# The methods with two candidates: an oscillatory one (WKB or RKWKB) first
# and RKF45 second.
RULES = ("wkb+rkf45", "rkwkbmod")
ONE = (1.0 + 0j, 0j)  # (phi, phi') of a high member whose sup norm is 1
H0 = 0.25


def designed_run(monkeypatch, method, first, calls=None):
    """integrate on Airy eps 1 over [1, 2] from h = H0, with `control._pair`
    stubbed. In the first trial, the pair of each tag in `first` is the
    (low, high) pair of (phi, phi') values given there, returned as the
    four scalars (phi_low, dphi_low, phi_high, dphi_high); every other
    pair is (ONE, ONE), whose estimate is 0. Airy has records at every
    grid point of [1, 2], so the first candidate's pair runs in every
    trial and a trial begins with it; a later candidate's pair runs unless
    an earlier one was accepted at THETA_MAX. `calls`, if given, receives
    the tag of every pair run."""
    calls = [] if calls is None else calls
    head = CANDIDATES[method][0]

    def pair(tag, problem, provider, state, h, left, right):
        calls.append(tag)
        low, high = (first.get(tag, (ONE, ONE)) if calls.count(head) == 1
                     else (ONE, ONE))
        return (*low, *high)

    monkeypatch.setattr(control, "_pair", pair)
    return integrate(make_airy_problem(1.0, 1.0, 2.0),
                     cfg(h0=H0, method=method))


def finite_records(traj):
    return all(cmath.isfinite(r.state.phi) and cmath.isfinite(r.state.dphi)
               for r in traj.records)


def first_trial_outcome(traj):
    """(rejected, tag, est, theta, h of the next trial) of the first trial:
    its record's fields if it was accepted, None for them if not."""
    if traj.rejected:
        return True, None, None, None, traj.records[0].h
    rec = traj.records[0]
    return False, rec.method, rec.est, rec.theta, traj.records[1].h


def off_by(d):
    """A (low, high) pair about the norm-1 high member ONE, d apart."""
    return (1.0 + d + 0j, 0j), ONE


def scored(tag, d):
    """(est, theta) the controller gives `off_by(d)` for `tag`."""
    est = estimate_error(*(WaveState(1.0, *v) for v in off_by(d)))
    c = cfg()
    return est, proposal_factor(est, c.atol + c.tol, ORDER_K[tag])


@pytest.mark.parametrize("bad", [complex(math.inf, 0.0),
                                 complex(math.nan, 0.0),
                                 complex(0.0, -math.inf),
                                 complex(1.3e308, 1.3e308)])
@pytest.mark.parametrize("member", ["low", "high"])
def test_non_finite_pair_scores_as_rejected(monkeypatch, bad, member):
    # A non-finite member, or one whose finite parts have a modulus past
    # the largest float, is never accepted and never enlarges the step:
    # under either oscillatory candidate it scores like an inadmissible
    # candidate (rejected, theta 0.5), and its state never lands in a record.
    good, broken = (0.3 + 0.4j, -1.0j), (bad, -1.0j)
    pair = (broken, good) if member == "low" else (good, broken)
    for method in RULES:
        tags = CANDIDATES[method]
        traj = designed_run(monkeypatch, method, dict.fromkeys(tags, pair))
        assert traj.rejected == 1
        assert traj.records[0].h == THETA_MIN * H0
        assert finite_records(traj)
        for i, tag in enumerate(tags):
            other = tags[1 - i]
            traj = designed_run(monkeypatch, method, {tag: pair})
            assert traj.rejected == 0
            assert traj.records[0].method == other
            assert traj.records[0].est == 0.0
            assert finite_records(traj)


def test_overflowing_estimate_scores_as_rejected(monkeypatch):
    # Finite members whose difference overflows: to an Inf part, or with
    # finite parts to a modulus past the largest float. The estimate is Inf.
    for big in (((1.5e308 + 0j, 0j), (-1.5e308 + 0j, 0j)),
                ((0.65e308 + 0.65e308j, 0j), (-0.65e308 - 0.65e308j, 0j))):
        for method in RULES:
            tags = CANDIDATES[method]
            traj = designed_run(monkeypatch, method,
                                dict.fromkeys(tags, big))
            assert traj.rejected == 1
            assert traj.records[0].h == THETA_MIN * H0
            assert all(max(abs(r.state.phi), abs(r.state.dphi)) < 1e308
                       for r in traj.records)
        traj = designed_run(monkeypatch, "rkf45", {"RKF45": big})
        assert traj.rejected == 1
        assert traj.records[0].h == THETA_MIN * H0


def test_arbitration_case_table(monkeypatch):
    # The paper's rule, with the two candidates' offsets as multiples of
    # the tolerance ATol + RTol * 1 of a norm-1 high member.
    c = cfg()
    tol = c.atol + c.tol
    cases = [
        # The largest accepted theta wins, first or second.
        ({"WKB": 0.5, "RKF45": 0.5}, "WKB"),
        ({"WKB": 0.9, "RKF45": 0.125}, "RKF45"),
        # A rejected candidate loses to an accepted one after it.
        ({"WKB": 2.0, "RKF45": 0.9}, "RKF45"),
        # None accepted: the largest theta shrinks the step.
        ({"WKB": 2.0, "RKF45": 4.0}, None),
        ({"WKB": 1.5, "RKF45": 4.0}, None),
    ]
    for ratios, winner in cases:
        first = {tag: off_by(r * tol) for tag, r in ratios.items()}
        scores = {tag: scored(tag, r * tol) for tag, r in ratios.items()}
        traj = designed_run(monkeypatch, "wkb+rkf45", first)
        rejected, tag, est, theta, h_next = first_trial_outcome(traj)
        if winner is None:
            largest = max(th for _, th in scores.values())
            assert (rejected, h_next) == (True, largest * H0)
        else:
            assert not rejected and tag == winner
            assert (est, theta) == scores[winner]
            assert h_next == theta * H0
        assert traj.rejected == rejected


def test_tie_goes_to_the_earlier_tag(monkeypatch):
    # Both exact: a tie, won by the oscillatory candidate.
    for method in RULES:
        traj = designed_run(monkeypatch, method, {})
        rejected, tag, est, theta, h_next = first_trial_outcome(traj)
        assert (rejected, tag, est) == (False, CANDIDATES[method][0], 0.0)
        assert theta == 2.0
        assert h_next == min(theta * H0, 0.75)
    # Both at the THETA_MAX clamp: the earlier tag keeps the step although
    # RKF45's estimate is smaller.
    tol = cfg().atol + cfg().tol
    first = {"WKB": off_by(tol / 100), "RKF45": (ONE, ONE)}
    traj = designed_run(monkeypatch, "wkb+rkf45", first)
    assert first_trial_outcome(traj) == (False, "WKB",
                                         *scored("WKB", tol / 100), 2.0 * H0)


@pytest.mark.parametrize("method", RULES)
def test_clamped_winner_ends_the_trial(monkeypatch, method):
    # A first candidate accepted at THETA_MAX cannot be beaten, so the
    # second candidate's pair is not run; accepted below the clamp or
    # rejected, it leaves the second pair to run. Every later trial is
    # exact under both, so RKF45 runs at most in the first trial.
    osc, rk = CANDIDATES[method]
    tol = cfg().atol + cfg().tol
    for d, runs in ((0.0, False), (tol / 100, False), (tol / 2, True),
                    (2.0 * tol, True)):
        calls = []
        traj = designed_run(monkeypatch, method, {osc: off_by(d)}, calls)
        assert calls.count(rk) == runs
        assert calls[:1 + runs] == [osc, rk][:1 + runs]
        assert len(calls) == traj.accepted + traj.rejected + runs


def test_estimate_of_an_overflowing_difference_is_inf():
    big = complex(1.3e308, 1.3e308)
    for a, b in ((big, 0j), (big / 2, -big / 2)):
        assert estimate_error(WaveState(1.0, a, 0j),
                              WaveState(1.0, b, 0j)) == math.inf
        assert estimate_error(WaveState(1.0, 0j, a),
                              WaveState(1.0, 0j, b)) == math.inf


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=-1.0, h0=0.5)
    for tol, h0 in ((math.nan, 0.5), (1e-6, math.nan), (math.inf, 0.5),
                    (1e-6, math.inf)):
        with pytest.raises(ValueError):
            SolverConfig(tol=tol, h0=h0)
    with pytest.raises(ValueError):
        SolverConfig(tol=1e-6, h0=0.5, method="euler")
    # `rkwkb`, the rival under its original relative-error controller, is
    # not a method.
    with pytest.raises(ValueError):
        SolverConfig(tol=1e-6, h0=0.5, method="rkwkb")
    with pytest.raises(ValueError):
        SolverConfig(tol=1e-6, h0=0.5, phase="spectral")


# ---------------------------------------------------------------------------
# driver behavior
# ---------------------------------------------------------------------------

def test_trajectory_monotone_and_clamped(airy_runs):
    traj = airy_runs[1e-6]
    xs = [r.x for r in traj.records]
    assert all(b > a for a, b in zip(xs, xs[1:]))
    assert xs[-1] == 50.0


def test_clamped_rkf45_step_lands_on_x_end():
    # x + (x_end - x) rounds an ulp off x_end on some intervals; the state
    # of a clamped step must sit at its record's x = x_end all the same.
    rng = random.Random(1)
    domains = [(0.7060103544449752, 6.558643728767454)]
    for _ in range(300):
        x0 = rng.uniform(0.0, 5.0)
        domains.append((x0, x0 + rng.uniform(0.1, 10.0)))
    for domain in domains:
        p = make_polynomial_problem([1e-6], 1.0, domain)
        traj = integrate(p, cfg(tol=1e-6, h0=100.0, method="rkf45"))
        assert all(r.x == r.state.x for r in traj.records)
        assert traj.final_state.x == domain[1]


def test_eps_acceptance_inequality(airy_runs):
    c = cfg(tol=1e-6)
    for rec in airy_runs[1e-6].records:
        blend = c.atol + c.tol * max(abs(rec.state.phi), abs(rec.state.dphi))
        assert rec.est <= blend * (1.0 + 1e-12)


def test_consecutive_ratio_clamps(airy_runs):
    # The final step is clamped to land on x_end and is excluded.
    records = airy_runs[1e-5].records
    hs = [r.h for r in records[:-1]]
    for a, b in zip(hs, hs[1:]):
        assert 0.5 - 1e-12 <= b / a <= 2.0 + 1e-12


def test_method_tags_monotone_on_airy(airy_runs):
    # Runge-Kutta prefix near the turning point, transform steps after.
    tags = [r.method for r in airy_runs[1e-6].records]
    switch = tags.index("WKB")
    assert all(t == "RKF45" for t in tags[:switch])
    assert all(t == "WKB" for t in tags[switch:])


def test_constant_coefficient_exactness():
    p = make_polynomial_problem([1.0], 0.01, (0.0, 20.0))
    traj = integrate(p, cfg(tol=1e-8, h0=0.1))
    wkb_est = [r.est for r in traj.records if r.method == "WKB"]
    assert wkb_est and max(wkb_est) <= 1e-13
    # Doubling limit: step sizes grow by exactly the clamp factor.
    hs = [r.h for r in traj.records[1:-1]]
    assert all(b == pytest.approx(2.0 * a) for a, b in zip(hs, hs[1:]))


def test_deterministic_repetition(airy1):
    a = integrate(airy1, cfg(tol=1e-6))
    b = integrate(airy1, cfg(tol=1e-6))
    assert [r.x for r in a.records] == [r.x for r in b.records]
    assert [r.state.phi for r in a.records] == [r.state.phi for r in b.records]


def test_max_rejections_raises():
    # a = 1e308 overflows phi'' within every step, so every trial fails.
    huge_field = CoefficientField([1e308])
    p = Problem(epsilon=1.0, field=huge_field, x_start=0.0, x_end=1.0,
                initial=WaveState(0.0, 1.0 + 0.0j, 0.0j))
    with pytest.raises(SolverError, match="rejections"):
        integrate(p, cfg(tol=1e-6, h0=0.1, method="rkf45"))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
       x0=st.floats(-1.0, 0.95), frac=st.floats(0.0, 1.0),
       eps=st.floats(0.05, 1.0), log_tol=st.floats(-6.0, -2.0),
       log_h0=st.floats(-3.0, 0.0),
       start=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       method=st.sampled_from(METHODS))
def test_every_run_is_finite_or_raises(coeffs, x0, frac, eps, log_tol,
                                       log_h0, start, method):
    # Random polynomial problems on domains that may cross turning points:
    # a run either reaches x_end with finite states or raises SolverError
    # or ValueError.
    x1 = min(1.0, x0 + 0.05 + frac * (0.95 - x0))
    p = make_polynomial_problem(
        coeffs, eps, (x0, x1),
        initial=WaveState(x0, complex(*start[:2]), complex(*start[2:])))
    try:
        traj = integrate(p, SolverConfig(tol=10.0 ** log_tol,
                                         h0=10.0 ** log_h0, method=method))
    except (SolverError, ValueError):
        return
    assert traj.final_state.x == x1
    assert all(cmath.isfinite(s.phi) and cmath.isfinite(s.dphi)
               for s in traj.states)


def test_run_starting_at_turning_point():
    # x_start = 0 makes the closed-form phase singular at the start, so the
    # first steps are RKF45; each WKB step gauges the phase at its own start
    # point, never at x_start, and the run finishes on oscillatory steps.
    p = make_airy_problem(1.0, 0.0, 20.0)
    traj = integrate(p, cfg(tol=1e-5))
    assert traj.final_state.x == 20.0
    counts = traj.method_counts()
    assert counts.get("RKF45", 0) > 0 and counts.get("WKB", 0) > 0
    assert global_error(traj, p, "sup") < 1e-3


@pytest.mark.parametrize("module,name,problem,config", [
    (wkb_core, "eval_bk", lambda: make_airy_problem(1.0, 0.1, 50.0),
     SolverConfig(tol=1e-9, h0=0.5, method="wkb+rkf45", phase="exact")),
    (rkwkb, "wkb_basis", lambda: make_pcf_problem(2.0 ** -6, 0.01, 1.99),
     SolverConfig(tol=1e-9, h0=0.05, method="rkwkbmod", phase="exact")),
], ids=["wkb", "rkwkb"])
def test_each_grid_point_is_evaluated_once(monkeypatch, module, name,
                                           problem, config):
    # integrate keeps the left endpoint record across rejected trials and
    # promotes the accepted right one, so every x is built at most once.
    seen = []
    original = getattr(module, name)

    def counted(problem, x, *args):
        seen.append(x)
        return original(problem, x, *args)

    monkeypatch.setattr(module, name, counted)
    traj = integrate(problem(), config)
    assert traj.rejected > 0
    assert len(set(seen)) == len(seen)
    assert len(seen) <= traj.accepted + traj.rejected + 1


def test_airy_global_error_band(airy_runs):
    # At Tol = 1e-6 the whole run stays below 1e-5 in sup relative error.
    assert global_error(airy_runs[1e-6],
                        make_airy_problem(1.0), "sup") <= 1e-5


@pytest.mark.parametrize("runs, key, problem, accepted, rejected, methods, "
                         "err_sup", [
    ("airy_runs", 1e-9, "airy1", 856, 4, {"RKF45": 464, "WKB": 392},
     1.1162038173103225e-08),
    ("pcf_runs", ("rkwkbmod", 1e-9), "pcf6", 1394, 73,
     {"RKF45": 1367, "RKWKB": 27}, 1.407389287339393e-06),
    ("long_run_cc", None, "airy_long", 58, 1, {"RKF45": 18, "WKB": 40},
     6.884807356939087e-05),
])
def test_benchmark_configurations_pinned(request, runs, key, problem,
                                         accepted, rejected, methods,
                                         err_sup):
    # The benchmark's airy-mixed, pcf-rival and long-cc settings at their
    # unperturbed h0, pinned exactly: a change to the step kernels that
    # moves a trajectory, or to the reference layer that moves err_sup,
    # shows here.
    traj = request.getfixturevalue(runs)
    if key is not None:
        traj = traj[key]
    assert (traj.accepted, traj.rejected) == (accepted, rejected)
    assert traj.method_counts() == methods
    assert global_error(traj, request.getfixturevalue(problem),
                        "sup") == err_sup


def test_long_interval_rival_step_count(airy_long):
    traj = integrate(airy_long, cfg(tol=1e-5, method="rkwkbmod"))
    assert abs(traj.accepted - 91) <= 0.5 * 91


def test_wronskian_drift_bounded(airy1, airy_runs):
    # Im(conj(phi) eps phi') is conserved by the exact flow.
    traj = airy_runs[1e-5]
    w0 = (airy1.initial.phi.conjugate() * airy1.initial.dphi).imag
    drift = max(abs((s.phi.conjugate() * s.dphi).imag - w0) / abs(w0)
                for s in traj.states)
    assert drift <= 100.0 * 1e-5


def test_global_error_tracks_tolerance(airy1):
    # EPS control: log-log slope of global error vs Tol in [0.4, 1.1].
    tols = np.geomspace(1e-3, 1e-9, 7)
    errs = []
    for t in tols:
        traj = integrate(airy1, cfg(tol=float(t)))
        errs.append(global_error(traj, airy1, "l2rel"))
    slope = np.polyfit(np.log10(tols), np.log10(errs), 1)[0]
    assert 0.4 <= slope <= 1.1


def test_phase_mode_resolution(airy1):
    p_poly = make_polynomial_problem([1.0], 1.0, (0.0, 1.0))
    assert PhaseProvider(airy1, "auto").mode == "exact"
    assert PhaseProvider(p_poly, "auto").mode == "cc"


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("phase", ["exact", "cc"])
def test_march_fixed_grid_steps_through_pair(order, phase):
    # The fixed-grid march takes integrate's one WKB step: a hand loop of
    # control._pair from each previous state gives the same bits.
    p = make_airy_problem(1.0, 1.0, 2.0)
    xs = [1.0 + j / 8 for j in range(9)]
    provider = PhaseProvider(p, phase)
    state, left, want = p.initial, wkb_core.eval_bk(p, xs[0]), []
    for x1 in xs[1:]:
        right = wkb_core.eval_bk(p, x1)
        pair = control._pair(control.TAG_WKB, p, provider, state,
                             x1 - left.x, left, right)
        state = WaveState(x1, *pair[2 * order - 2:2 * order])
        want.append(state)
        left = right

    def bits(states):
        return [(s.x.hex(), s.phi.real.hex(), s.phi.imag.hex(),
                 s.dphi.real.hex(), s.dphi.imag.hex()) for s in states]

    assert bits(march_fixed_grid(p, xs, order, phase)) == bits(want)


@pytest.mark.parametrize("order", [0, 3])
def test_march_fixed_grid_rejects_other_orders(order):
    p = make_airy_problem(1.0, 1.0, 2.0)
    with pytest.raises(ValueError, match="order"):
        march_fixed_grid(p, [1.0, 1.5, 2.0], order)


@pytest.mark.parametrize("coeffs, xs, where", [
    ([1.0, -1.0], [0.0, 0.5, 1.0, 1.5], "grid point x=1.0"),
    ([1.0, -2.0, 1.0], [0.0, 0.5, 1.5], r"step \[0.5, 1.5\]"),
])
def test_march_fixed_grid_names_an_inadmissible_point(coeffs, xs, where):
    # a vanishes at x = 1: on the grid, or at the middle cc node of a step.
    p = make_polynomial_problem(coeffs, 0.1, (0.0, 2.0))
    with pytest.raises(ValueError, match=f"{where}.*below tau guard"):
        march_fixed_grid(p, xs, phase="cc")


@pytest.mark.parametrize("xs, message", [
    ([1.0, 1.5, 1.25], "increase strictly, got 1.25 after 1.5"),
    ([1.0, 1.5, 1.5], "increase strictly"),
    ([1.0, math.nan, 2.0], "increase strictly"),
    ([], "start at problem.x_start"),
])
def test_march_fixed_grid_rejects_a_bad_grid(xs, message):
    p = make_airy_problem(1.0, 1.0, 2.0)
    with pytest.raises(ValueError, match=message):
        march_fixed_grid(p, xs)


# ---------------------------------------------------------------------------
# estimator studies
# ---------------------------------------------------------------------------

def test_estimator_study_rows(airy1):
    rows = estimator_study(airy1, cfg(tol=1e-5))
    assert rows, "expected oscillatory steps in the run"
    for x0, h, method, est, lte, dev in rows:
        assert method == "WKB" and h > 0.0 and est > 0.0
        assert dev < 0.5


def test_estimator_h_sweep_converges(airy1):
    hs = np.geomspace(1.0, 1e-3, 13)
    rows = estimator_h_sweep(airy1, 10.0, hs, "WKB")
    devs = [r[3] for r in rows]
    assert devs[0] < 0.5
    assert min(devs[-4:]) < 1e-2


@pytest.mark.parametrize("tag", ["wkb+rkf45", "bogus"])
def test_estimator_h_sweep_rejects_unknown_tag(airy1, tag):
    # Only candidate tags name a pair; a method name is not one.
    with pytest.raises(ValueError):
        estimator_h_sweep(airy1, 10.0, [0.5], tag)


@pytest.mark.parametrize("tag", ["WKB", "RKWKB", "RKF45"])
@pytest.mark.parametrize("h", [-0.1, 0.0, math.nan, math.inf])
def test_estimator_h_sweep_rejects_bad_step_before_any_step(airy1,
                                                           monkeypatch, tag,
                                                           h):
    # A zero, backward or non-finite h is one ValueError naming it, for
    # every tag, raised before the sweep audits any step, a good one first
    # included.
    def no_audit(*_):
        raise AssertionError("a step was audited before h was checked")

    monkeypatch.setattr(control, "_audit", no_audit)
    with pytest.raises(ValueError, match=re.escape(f"h={h!r}")):
        estimator_h_sweep(airy1, 10.0, [0.5, h], tag)


def test_estimator_h_sweep_names_an_overflowing_rkf45_step(airy1):
    # From x0 = 10 a step of 1e60 overflows every Fehlberg stage: the pair
    # is not finite, which the audit screens as integrate does.
    with pytest.raises(ValueError, match=re.escape(
            "RKF45 step [10.0, 1e+60] is inadmissible: non-finite")):
        estimator_h_sweep(airy1, 10.0, [1e60], "RKF45")


@pytest.mark.parametrize("tag", ["WKB", "RKWKB", "RKF45"])
@pytest.mark.parametrize("bad", [complex(math.inf, 0.0),
                                 complex(0.0, math.nan),
                                 complex(1.3e308, 1.3e308)])
def test_audit_screens_every_tag(airy1, monkeypatch, tag, bad):
    # A non-finite member, or a difference whose modulus passes the
    # largest float, makes the estimate non-finite under any tag.
    monkeypatch.setattr(control, "_pair", lambda *_: (bad, 0j, 1.0, 0j))
    with pytest.raises(ValueError, match=re.escape(
            f"{tag} step [10.0, 10.5] is inadmissible: non-finite")):
        estimator_h_sweep(airy1, 10.0, [0.5], tag)


def stiff_rk():
    """a = 1 at eps 1e-60: every Fehlberg stage overflows, so each RKF45
    pair comes back with a non-finite difference."""
    return make_polynomial_problem([1.0], 1e-60, (0.0, 10.0))


def spy_rkf45(monkeypatch):
    """The RKF45 pairs `integrate` runs, in a list."""
    pairs = []

    def spy(*args):
        pairs.append(rkf45_step(*args))
        return pairs[-1]

    monkeypatch.setattr(control, "rkf45_step", spy)
    return pairs


def non_finite(pair):
    phi4, dphi4, phi5, dphi5 = pair
    return not (abs(phi4 - phi5) < math.inf and abs(dphi4 - dphi5) < math.inf)


@pytest.mark.parametrize("method", ["wkb+rkf45", "rkwkbmod"])
def test_non_finite_rkf45_candidates_never_win(monkeypatch, method):
    # The oscillatory candidate is exact on the stiff problem and accepted
    # at THETA_MAX, which ends each trial before RKF45. With its low member
    # moved off by half the tolerance it is accepted below the clamp, RKF45
    # runs in every trial, and its non-finite pair never wins.
    pairs = spy_rkf45(monkeypatch)
    real_pair = control._pair
    c = cfg(tol=1e-6, h0=1.0, method=method, phase="cc")

    def pair(tag, problem, provider, state, h, left, right):
        out = real_pair(tag, problem, provider, state, h, left, right)
        if tag == "RKF45":
            return out
        _, _, phi, dphi = out
        tol = c.atol + c.tol * max(abs(phi), abs(dphi))
        return phi + 0.5 * tol, dphi, phi, dphi

    monkeypatch.setattr(control, "_pair", pair)
    traj = integrate(stiff_rk(), c)
    assert traj.rejected == 0
    assert all(r.theta < 2.0 for r in traj.records)
    assert "RKF45" not in traj.method_counts()
    assert len(pairs) == traj.accepted
    assert all(map(non_finite, pairs))
    # Unperturbed, every trial ends at its clamped oscillatory winner.
    pairs.clear()
    monkeypatch.setattr(control, "_pair", real_pair)
    traj = integrate(stiff_rk(), c)
    assert (traj.accepted, traj.rejected) == (4, 0)
    assert "RKF45" not in traj.method_counts()
    assert pairs == []


def test_non_finite_rkf45_pairs_end_an_rkf45_run(monkeypatch):
    # Alone, RKF45's non-finite pairs are rejected until the limit.
    pairs = spy_rkf45(monkeypatch)
    with pytest.raises(SolverError, match="26 consecutive rejections"):
        integrate(stiff_rk(), cfg(tol=1e-6, h0=1.0, method="rkf45"))
    assert len(pairs) == 26
    assert all(map(non_finite, pairs))


def test_estimator_study_needs_exact():
    p = make_polynomial_problem([1.0], 1.0, (0.0, 1.0))
    with pytest.raises(ValueError):
        estimator_study(p, cfg())
