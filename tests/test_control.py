"""Controller arithmetic, switching, and the adaptive driver."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wkbmarch import (CoefficientField, PhaseProvider, Problem, SolverConfig,
                      SolverError, WaveState, control, estimator_h_sweep,
                      estimator_study, global_error, integrate,
                      make_airy_problem, make_pcf_problem,
                      make_polynomial_problem, march_fixed_grid, rkwkb,
                      wkb_core)
from wkbmarch.control import (METHODS, Candidate, _rejected, _score,
                              _score_original, estimate_error,
                              proposal_factor, select_method)


def cfg(**kw):
    base = dict(tol=1e-6, h0=0.5, method="wkb+rkf45")
    base.update(kw)
    return SolverConfig(**base)


# ---------------------------------------------------------------------------
# estimate_error / proposal_factor / select_method
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


# The paper's rule and the original rival controller's rule.
SCORERS = (_score, _score_original)


@pytest.mark.parametrize("bad", [complex(math.inf, 0.0),
                                 complex(math.nan, 0.0),
                                 complex(0.0, -math.inf)])
@pytest.mark.parametrize("member", ["low", "high"])
def test_non_finite_pair_scores_as_rejected(bad, member):
    # A non-finite member is never accepted and never enlarges the step:
    # under either rule it scores like an inadmissible candidate
    # (rejected, theta 0.5).
    good = WaveState(1.0, 0.3 + 0.4j, -1.0j)
    broken = WaveState(1.0, bad, -1.0j)
    y_low, y_high = (broken, good) if member == "low" else (good, broken)
    for score in SCORERS:
        cand = score("M", y_low, y_high, cfg(), k=1)
        assert cand == _rejected("M")
        assert not cand.accepted and cand.theta == 0.5 and cand.state is None


def test_overflowing_estimate_scores_as_rejected():
    big = WaveState(1.0, 1.5e308 + 0j, 0j)
    for score in SCORERS:
        cand = score("M", big, WaveState(1.0, -1.5e308 + 0j, 0j), cfg(), k=4)
        assert cand == _rejected("M")


def test_select_method_case_table():
    mk = lambda acc, th: Candidate("M", acc, th, 1.0, WaveState(0, 0j, 0j))
    theta, idx = select_method([mk(True, 1.2), mk(True, 0.8)])
    assert (theta, idx) == (1.2, 0)
    theta, idx = select_method([mk(False, 0.7), mk(True, 0.9)])
    assert (theta, idx) == (0.9, 1)
    theta, idx = select_method([mk(False, 0.5), mk(False, 0.6)])
    assert theta == 0.6 and idx is None


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=-1.0, h0=0.5)
    for tol, h0 in ((math.nan, 0.5), (1e-6, math.nan), (math.inf, 0.5),
                    (1e-6, math.inf)):
        with pytest.raises(ValueError):
            SolverConfig(tol=tol, h0=h0)
    with pytest.raises(ValueError):
        SolverConfig(tol=1e-6, h0=0.5, method="euler")
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
        blend = c.atol + c.tol * rec.state.sup_norm()
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
     1.1162038175994653e-08),
    ("pcf_runs", ("rkwkbmod", 1e-9), "pcf6", 1394, 73,
     {"RKF45": 1367, "RKWKB": 27}, 1.407389485190491e-06),
    ("long_run_cc", None, "airy_long", 58, 1, {"RKF45": 18, "WKB": 40},
     6.884807356939087e-05),
])
def test_benchmark_configurations_pinned(request, runs, key, problem,
                                         accepted, rejected, methods,
                                         err_sup):
    # The benchmark's airy-mixed, pcf-rival and long-cc settings at their
    # unperturbed h0, pinned exactly: a change to the step kernels that
    # moves a trajectory shows here.
    traj = request.getfixturevalue(runs)
    if key is not None:
        traj = traj[key]
    assert (traj.accepted, traj.rejected) == (accepted, rejected)
    assert traj.method_counts() == methods
    assert global_error(traj, request.getfixturevalue(problem),
                        "sup") == pytest.approx(err_sup, rel=1e-12)


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


def test_rkwkb_original_mode_runs(airy1):
    traj = integrate(airy1, cfg(tol=1e-6, method="rkwkb"))
    assert traj.final_state.x == 50.0
    assert global_error(traj, airy1, "sup") < 1e-4
    # Unclamped controller: ratios outside [0.5, 2] do occur.
    hs = [r.h for r in traj.records[:-1]]
    ratios = [b / a for a, b in zip(hs, hs[1:])]
    assert max(ratios) > 2.0 or min(ratios) < 0.5


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
        state = control._pair(control.TAG_WKB, p, provider, state,
                              x1 - left.x, left, right)[order - 1]
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


def test_estimator_study_needs_exact():
    p = make_polynomial_problem([1.0], 1.0, (0.0, 1.0))
    with pytest.raises(ValueError):
        estimator_study(p, cfg())
