"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Expensive trajectories come from session fixtures in conftest.py.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from wkbmarch import (PhaseProvider, SolverConfig, WaveState, airy_pair,
                      clenshaw_curtis, global_error, integrate,
                      make_airy_problem, make_polynomial_problem,
                      march_fixed_grid, estimator_h_sweep, estimator_study)
from wkbmarch.reference import airy_origin_values, asymptotic_coeffs
from wkbmarch.wkb_core import eval_bk, from_Z, to_U, to_Z

from test_reference import taylor_continuation

EPS_MACH = 2.220446049250313e-16


def report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


def within_half(value, target):
    return abs(value - target) <= 0.5 * target


# ---------------------------------------------------------------------------
# 1. Step-count reproduction on the linear benchmark
# ---------------------------------------------------------------------------

def test_criterion_1_airy_step_counts(airy_runs, rkwkb_runs):
    targets_main = {1e-3: 12, 1e-6: 77, 1e-9: 856}
    targets_rival = {1e-3: 16, 1e-6: 171, 1e-9: 2352}
    for tol, target in targets_main.items():
        got = airy_runs[tol].accepted
        assert within_half(got, target), (tol, got, target)
    for tol, target in targets_rival.items():
        got = rkwkb_runs[tol].accepted
        assert within_half(got, target), (tol, got, target)
        assert airy_runs[tol].accepted < got
    counts = {t: airy_runs[t].accepted for t in targets_main}
    counts_r = {t: rkwkb_runs[t].accepted for t in targets_rival}
    report(1, f"step counts {counts} vs 12/77/856 and {counts_r} vs "
              f"16/171/2352, main method strictly cheaper")


# ---------------------------------------------------------------------------
# 2. Long-interval run
# ---------------------------------------------------------------------------

def test_criterion_2_long_interval(long_run, airy_long):
    """Linear benchmark on [0.1, 1e8] at Tol=1e-5.

    Known red, in two asserts. With this controller (Fehlberg pair, EPS
    acceptance, safety 0.9, eta 1e-2, propagated 5th-order member) the
    error committed across the pre-oscillatory segment plateaus near 4e-5:
    the sup error over x <= 1e6 reads 4.07e-5 against the 1e-5 bound, and
    beyond 1e6 the worst ratio of error to 10 eps x^1.5 reads about 12.7
    against 1, because the plateau still sits above that floor at the nodes
    near x = 1.2e6, 2.5e6 and 4.9e6. Only the step count (58 <= 80) passes.
    The rival method plateaus near 6e-5 on the same interval.
    """
    assert long_run.accepted <= 80
    worst_low = 0.0
    worst_ratio = 0.0
    for s in long_run.states:
        ex = airy_long.exact(s.x)
        rel = abs(s.phi - ex.phi) / abs(ex.phi)
        if s.x <= 1e6:
            worst_low = max(worst_low, rel)
        else:
            floor = 10.0 * EPS_MACH * s.x ** 1.5
            worst_ratio = max(worst_ratio, rel / floor)
    print(f"\n  measured: steps {long_run.accepted}, sup(x<=1e6) "
          f"{worst_low:.3e}, worst err/(10*floor) beyond {worst_ratio:.2f}")
    assert worst_low <= 1e-5, f"sup relative error {worst_low:.3e} > 1e-5"
    assert worst_ratio <= 1.0, f"error exceeds 10x precision floor by {worst_ratio:.2f}"
    report(2, f"{long_run.accepted} steps <= 80, sup {worst_low:.2e} <= 1e-5, "
              f"floor ratio {worst_ratio:.2f} <= 1")


# ---------------------------------------------------------------------------
# 3. Step-count reproduction on the quadratic benchmark
# ---------------------------------------------------------------------------

def test_criterion_3_pcf_step_counts(pcf_runs):
    targets = {("wkb+rkf45", 1e-3): 21, ("wkb+rkf45", 1e-6): 166,
               ("wkb+rkf45", 1e-9): 1287, ("rkwkbmod", 1e-3): 26,
               ("rkwkbmod", 1e-6): 326, ("rkwkbmod", 1e-9): 1543}
    for key, target in targets.items():
        got = pcf_runs[key].accepted
        assert within_half(got, target), (key, got, target)
    # Runge-Kutta adjacent to both turning points, transform steps between.
    # At the tightest tolerance the step size falls below the wavelength and
    # the controller legitimately mixes methods in a transition zone, so the
    # pattern check asks for pure RK rims and a WKB majority in the middle.
    for tol in (1e-3, 1e-6, 1e-9):
        traj = pcf_runs["wkb+rkf45", tol]
        tags = [r.method for r in traj.records]
        assert tags[0] == "RKF45" and tags[-1] == "RKF45"
        wkb_x = [r.x for r in traj.records if r.method == "WKB"]
        assert wkb_x and 0.01 < min(wkb_x) and max(wkb_x) < 1.99
        central = [r.method for r in traj.records if 0.8 <= r.x <= 1.2]
        frac = central.count("WKB") / len(central)
        assert frac >= 0.5, (tol, frac)
    counts = {k: pcf_runs[k].accepted for k in targets}
    report(3, f"step counts {counts} within half of 21/166/1287 and "
              f"26/326/1543; RKF45 rims, WKB filling")


# ---------------------------------------------------------------------------
# 4. Estimator fidelity
# ---------------------------------------------------------------------------

def test_criterion_4_estimator_fidelity(airy1):
    cfg = SolverConfig(tol=1e-5, h0=0.5, method="wkb+rkf45")
    rows = estimator_study(airy1, cfg)
    worst = max(r[5] for r in rows)
    assert worst < 0.5
    hs = np.geomspace(0.5, 1e-3, 12)
    sweep = estimator_h_sweep(airy1, 10.0, hs, "WKB")
    devs = [r[3] for r in sweep]
    assert min(devs[-4:]) < 1e-2
    sweep_rival = estimator_h_sweep(airy1, 10.0, hs, "RKWKB")
    assert max(r[3] for r in sweep_rival) < 1.0
    report(4, f"run deviations <= {worst:.3f} < 0.5; h-sweep deviation "
              f"falls to {min(devs):.2e}; rival stays below 1")


# ---------------------------------------------------------------------------
# 5. Fixed-grid convergence orders
# ---------------------------------------------------------------------------

def test_criterion_5_fixed_grid_orders():
    p = make_airy_problem(0.5, 1.0, 2.0)
    rates = {}
    for order in (1, 2):
        errs = []
        for n in (8, 16, 32, 64):
            out = march_fixed_grid(p, np.linspace(1.0, 2.0, n + 1), order)
            errs.append(max(abs(s.phi - p.exact(s.x).phi) for s in out))
        rates[order] = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(0.8 <= r <= 1.3 for r in rates[1]), rates[1]
    assert all(1.8 <= r <= 2.4 for r in rates[2]), rates[2]
    report(5, f"observed orders {['%.2f' % r for r in rates[1]]} (first) and "
              f"{['%.2f' % r for r in rates[2]]} (second)")


# ---------------------------------------------------------------------------
# 6. Epsilon behavior at fixed tolerance
# ---------------------------------------------------------------------------

def test_criterion_6_epsilon_behavior():
    errs_w = []
    for eps in (1e-1, 1e-2, 1e-3):
        p = make_airy_problem(eps)
        traj = integrate(p, SolverConfig(tol=1e-6, h0=0.5, method="wkb+rkf45"))
        errs_w.append(global_error(traj, p, "l2rel"))
    assert errs_w[0] >= errs_w[1] >= errs_w[2], errs_w
    errs_rk = []
    for eps in (1.0, 0.1):
        p = make_airy_problem(eps)
        traj = integrate(p, SolverConfig(tol=1e-6, h0=0.5, method="rkf45"))
        errs_rk.append(global_error(traj, p, "l2rel"))
    growth = errs_rk[1] / errs_rk[0]
    assert 5.0 <= growth <= 20.0, growth
    report(6, f"transform errors non-increasing {['%.1e' % e for e in errs_w]}; "
              f"plain RK error grows x{growth:.1f} for eps 1 -> 0.1")


# ---------------------------------------------------------------------------
# 7. Controller and switching properties
# ---------------------------------------------------------------------------

def test_criterion_7_controller_properties(airy_runs):
    cfg = SolverConfig(tol=1e-5, h0=0.5)
    traj = airy_runs[1e-5]
    for rec in traj.records:
        blend = cfg.atol + cfg.tol * max(abs(rec.state.phi),
                                         abs(rec.state.dphi))
        assert rec.est <= blend * (1.0 + 1e-12)
    hs = [r.h for r in traj.records[:-1]]  # final step clamps onto x_end
    ratios = [b / a for a, b in zip(hs, hs[1:])]
    assert all(0.5 - 1e-12 <= r <= 2.0 + 1e-12 for r in ratios)
    pc = make_polynomial_problem([1.0], 0.01, (0.0, 20.0))
    const_traj = integrate(pc, SolverConfig(tol=1e-8, h0=0.1))
    assert max(r.est for r in const_traj.records if r.method == "WKB") <= 1e-13
    report(7, f"EPS inequality holds on {traj.accepted} steps; ratios in "
              f"[{min(ratios):.2f}, {max(ratios):.2f}]; constant-coefficient "
              f"estimates at rounding level")


# ---------------------------------------------------------------------------
# 8. Special functions
# ---------------------------------------------------------------------------

def test_criterion_8_special_functions(pcf6):
    # Hybrid evaluator against an independent continuation march (different
    # series length, resumed point to point along the grid).
    w, dw = airy_origin_values()
    prev_t = 0.0
    worst = 0.0
    for t in np.geomspace(0.1, 2000.0, 100):
        w, dw = taylor_continuation([0.0, 1.0], -prev_t, w, dw, -float(t),
                                    terms=40)
        prev_t = float(t)
        hw, hdw = airy_pair(prev_t)
        worst = max(worst,
                    abs(hw.real - w.real) / abs(w.real),
                    abs(hw.imag - w.imag) / abs(w.imag),
                    abs(hdw.real - dw.real) / abs(dw.real),
                    abs(hdw.imag - dw.imag) / abs(dw.imag))
    assert worst <= 1e-9, worst

    def wronskian(w, dw):
        return w.real * dw.imag - dw.real * w.imag

    wronskian_err = max(abs(wronskian(*airy_pair(float(t))) * math.pi - 1.0)
                        for t in np.geomspace(0.1, 2000.0, 50))
    assert wronskian_err <= 1e-10

    u1, v1 = asymptotic_coeffs(1)
    assert u1 == pytest.approx(5.0 / 72.0, rel=1e-15)
    assert v1 == pytest.approx(-7.0 / 72.0, rel=1e-15)

    # Equation residual of the quadratic benchmark's reference values.
    h = 3e-4
    for x in (0.5, 1.0, 1.5):
        stencil = [pcf6.exact(x + k * h).phi for k in range(-3, 4)]
        d2 = (2 * stencil[0] - 27 * stencil[1] + 270 * stencil[2]
              - 490 * stencil[3] + 270 * stencil[4] - 27 * stencil[5]
              + 2 * stencil[6]) / (180 * h * h)
        target = -pcf6.field.jet(x)[0] * stencil[3] / pcf6.epsilon ** 2
        assert abs(d2 - target) / abs(target) <= 1e-10
    report(8, f"hybrid vs continuation oracle {worst:.1e} <= 1e-9 on 100 "
              f"points; Wronskian {wronskian_err:.1e} <= 1e-10; u1, v1 exact; "
              f"quadratic-benchmark residual <= 1e-10")


# ---------------------------------------------------------------------------
# 9. Phase quadrature
# ---------------------------------------------------------------------------

def test_criterion_9_phase_quadrature(long_run, long_run_cc, airy_long):
    exact_prov = PhaseProvider(airy_long, "exact")
    worst = 0.0
    x_prev = airy_long.x_start
    for rec in long_run.records:
        if rec.method == "WKB" and rec.x <= 1e6:
            s_exact = exact_prov.increment(x_prev, rec.x)
            eps2 = airy_long.epsilon ** 2
            s_cc = clenshaw_curtis(
                lambda ys: [math.sqrt(y) - eps2 * (-(5.0 / 32.0) * y ** -2.5)
                            for y in ys],
                x_prev, rec.x, 15)
            worst = max(worst, abs(s_cc - s_exact) / abs(s_exact))
        x_prev = rec.x
    assert worst <= 1e-12, worst

    def sup_below(traj, cut=1e6):
        vals = []
        for r in traj.records:
            if r.x <= cut:
                ex = airy_long.exact(r.x)
                vals.append(abs(r.state.phi - ex.phi) / abs(ex.phi))
        return max(vals)

    e_exact = sup_below(long_run)
    e_cc = sup_below(long_run_cc)
    factor = max(e_cc / e_exact, e_exact / e_cc)
    assert factor < 2.0, factor
    report(9, f"15-node quadrature matches the closed form to {worst:.1e} on "
              f"accepted oscillatory intervals; numerical-phase run within "
              f"x{factor:.3f} of the exact-phase run up to 1e6")


# ---------------------------------------------------------------------------
# 10. Transforms and gauge
# ---------------------------------------------------------------------------

def test_criterion_10_transforms_and_gauge(airy1, airy_runs):
    rng = np.random.default_rng(11)
    worst_rt = 0.0
    worst_norm = 0.0
    for _ in range(50):
        x = float(rng.uniform(0.3, 45.0))
        u1 = complex(*rng.standard_normal(2))
        u2 = complex(*rng.standard_normal(2))
        z = to_Z((u1, u2))
        end = eval_bk(airy1, x)
        phi, dphi = from_Z(airy1, end, z, 1 + 0j)
        back = to_U(airy1, end, WaveState(x, phi, dphi))
        scale = math.hypot(abs(u1), abs(u2))
        worst_rt = max(worst_rt,
                       max(abs(back[0] - u1), abs(back[1] - u2)) / scale)
        worst_norm = max(worst_norm,
                         abs(math.hypot(abs(z[0]), abs(z[1])) - scale) / scale)
    assert worst_rt <= 1e-14
    assert worst_norm <= 1e-13

    # The march does not depend on where the phase is referenced: shifting
    # the antiderivative by a constant leaves it unchanged.
    p = make_airy_problem(1.0, 1.0, 2.0)
    F = p.phase_antiderivative
    shifted = dataclasses.replace(p, phase_antiderivative=lambda x: F(x) + 1e3)
    xs = np.linspace(1.0, 2.0, 9)
    shift = max(max(abs(a.phi - b.phi) / abs(a.phi),
                    abs(a.dphi - b.dphi) / abs(a.dphi))
                for a, b in zip(march_fixed_grid(p, xs),
                                march_fixed_grid(shifted, xs)))
    assert shift <= 1e-12

    traj = airy_runs[1e-5]
    w0 = (airy1.initial.phi.conjugate() * airy1.initial.dphi).imag
    drift = max(abs((s.phi.conjugate() * s.dphi).imag - w0) / abs(w0)
                for s in traj.states)
    assert drift <= 100.0 * 1e-5
    report(10, f"round trips {worst_rt:.1e} <= 1e-14, norms {worst_norm:.1e} "
               f"<= 1e-13, phase-reference shift {shift:.1e} <= 1e-12, "
               f"invariant drift {drift:.1e} <= 1e-3")


# ---------------------------------------------------------------------------
# CPU-time trend (ordinal only; absolute timings are machine-dependent)
# ---------------------------------------------------------------------------

def test_cpu_trend_ordinal():
    def timed(eps, method, tol=1e-6):
        p = make_airy_problem(eps)
        t0 = time.perf_counter()
        traj = integrate(p, SolverConfig(tol=tol, h0=0.5, method=method))
        return time.perf_counter() - t0, traj.accepted

    t_rk_1, n_rk_1 = timed(1.0, "rkf45")
    t_rk_01, n_rk_01 = timed(0.1, "rkf45")
    assert t_rk_01 > t_rk_1
    assert n_rk_01 > 5 * n_rk_1
    # The hybrid's cost must not grow as eps shrinks (it actually falls,
    # since coarse oscillatory steps take over sooner).
    steps_w = {eps: timed(eps, "wkb+rkf45")[1] for eps in (1.0, 1e-2, 1e-4)}
    assert steps_w[1e-2] <= steps_w[1.0]
    assert steps_w[1e-4] <= steps_w[1.0]
    report("cpu", f"plain RK cost grows with 1/eps (steps {n_rk_1} -> "
                  f"{n_rk_01}); hybrid step counts {steps_w} do not grow")
