"""Command-line surface: file schemas, determinism, exit codes."""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wkbmarch import cli, reference
from wkbmarch.cli import build_parser, main
from wkbmarch.control import METHODS


def run_cli(args):
    return main(args)


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


STEP_HEADER = ["step_index", "x", "h", "method", "accepted", "est", "theta",
               "re_phi", "im_phi", "re_dphi", "im_dphi",
               "ref_re", "ref_im", "rel_err"]


def test_solve_airy_row_count(tmp_path):
    out = tmp_path / "run"
    code = run_cli(["solve", "--problem", "airy", "--eps", "1",
                    "--tol", "1e-6", "--interval", "0.1,50", "--h0", "0.5",
                    "--method", "wkb+rkf45", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "steps.csv")
    assert header == STEP_HEADER
    # Row count equals the accepted-step count for this benchmark setup.
    assert abs(len(rows) - 77) <= 0.5 * 77
    assert all(r[4] == "1" for r in rows)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["counters"]["accepted"] == len(rows)
    assert manifest["error_summary"]["sup_rel"] < 1e-4


def test_solve_constant_poly_wkb_exact(tmp_path):
    out = tmp_path / "poly"
    code = run_cli(["solve", "--problem", "poly:1", "--eps", "0.01",
                    "--tol", "1e-8", "--interval", "0,20", "--h0", "0.1",
                    "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "steps.csv")
    # No exact solution: reference columns absent.
    assert header == STEP_HEADER[:11]
    for row in rows:
        if row[3] == "WKB":
            assert float(row[5]) <= 1e-13


def test_solve_deterministic_bytes(tmp_path):
    args = ["solve", "--problem", "airy", "--tol", "1e-4", "--out", None]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        args[-1] = str(out)
        assert run_cli(list(args)) == 0
        outs.append((out / "steps.csv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("problem, eps, method",
                         [("airy", "1", "wkb+rkf45"),
                          ("pcf", "0.015625", "rkwkbmod")])
def test_solve_reference_columns_read_no_derivative(tmp_path, monkeypatch,
                                                    problem, eps, method):
    """Once the solve is done, the derivative series is forbidden: the
    reference columns and the error summary still come out, equal to the
    values recomputed from the full exact(x). Growth forms each
    checkpoint's derivative series, so the reference table is grown over
    the interval before that."""
    solve, deriv_coeffs = cli.integrate, reference._dd_deriv_coeffs
    solved = []

    def solve_then_forbid(problem, config):
        traj = solve(problem, config)
        problem.exact(problem.x_start)
        problem.exact(problem.x_end)
        solved.append(traj)
        return traj

    def guarded(*args):
        assert not solved, "derivative series evaluated"
        return deriv_coeffs(*args)

    monkeypatch.setattr(cli, "integrate", solve_then_forbid)
    monkeypatch.setattr(reference, "_dd_deriv_coeffs", guarded)
    out = tmp_path / problem
    assert run_cli(["solve", "--problem", problem, "--eps", eps,
                    "--tol", "1e-6", "--method", method,
                    "--out", str(out)]) == 0
    monkeypatch.undo()
    header, rows = read_csv(out / "steps.csv")
    assert header == STEP_HEADER and len(rows) == solved[0].accepted
    exact = cli._build_problem(problem, float(eps), None).exact
    for row in rows:
        ref = exact(float(row[1])).phi
        phi = complex(float(row[7]), float(row[8]))
        assert row[11:] == [cli._fmt(ref.real), cli._fmt(ref.imag),
                            cli._fmt(abs(phi - ref) / abs(ref))]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["error_summary"]["sup_rel"] == max(
        float(row[13]) for row in rows)


@pytest.mark.parametrize("args", [
    ["--problem", "airy", "--eps", "1", "--interval", "0.1,200"],
    ["--problem", "pcf", "--eps", "0.015625", "--method", "rkwkbmod",
     "--tol", "1e-6"],
], ids=["airy-seam", "pcf-rkwkbmod"])
def test_reference_columns_same_bits_without_numpy(tmp_path, monkeypatch,
                                                   args):
    """The steps.csv reference columns and both error norms have the same
    bits whether numpy runs the verification batch or cannot be imported.
    The Airy run puts nodes on both sides of the seam at t = x = 50, so
    its batch takes the table and the asymptotic route."""
    horner_rows, batches = reference._dd_horner_rows, []

    def counted(*call):
        batches.append(call)
        return horner_rows(*call)

    monkeypatch.setattr(reference, "_dd_horner_rows", counted)
    runs = []
    for numpy in (np, None):
        out = tmp_path / ("numpy" if numpy else "without_numpy")
        with monkeypatch.context() as m:
            m.setitem(sys.modules, "numpy", numpy)
            assert run_cli(["solve", *args, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        runs.append(((out / "steps.csv").read_bytes(),
                     {k: v.hex() for k, v in
                      manifest["error_summary"].items()},
                     len(batches)))
    (with_np, norms, calls), (without_np, norms_without, calls_after) = runs
    assert calls > 0 and calls_after == calls
    assert with_np == without_np
    assert norms == norms_without and set(norms) == {"sup_rel", "l2_rel"}
    if args[1] == "airy":
        xs = [float(line.split(",")[1])
              for line in with_np.decode().splitlines()[1:]]
        assert 0 < sum(x > 50.0 for x in xs) < len(xs)


def test_solve_phase_flag(tmp_path):
    out = tmp_path / "cc"
    code = run_cli(["solve", "--problem", "airy", "--tol", "1e-5",
                    "--phase", "cc", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["phase"] == "cc"
    assert manifest["config"]["cc_nodes"] == 15
    # The node count is a constant, not part of the flag.
    with pytest.raises(SystemExit):
        build_parser().parse_args(["solve", "--problem", "airy",
                                   "--phase", "cc:15"])


def test_solve_floats_have_full_precision(tmp_path):
    out = tmp_path / "prec"
    run_cli(["solve", "--problem", "airy", "--tol", "1e-4", "--out", str(out)])
    _, rows = read_csv(out / "steps.csv")
    x = float(rows[-1][1])
    assert rows[-1][1] == format(x, ".17g")


def test_sweep_schema_and_order(tmp_path):
    out = tmp_path / "sweep"
    code = run_cli(["sweep", "--problem", "airy", "--eps-list", "1",
                    "--tol-range", "1e-6,1e-3", "--tol-points", "3",
                    "--methods", "wkb+rkf45,rkf45", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "sweep.csv")
    assert header == ["method", "problem", "epsilon", "tol", "steps",
                      "rejected", "l2rel", "sup_rel", "wall_clock_s"]
    assert len(rows) == 6
    methods = [r[0] for r in rows]
    assert methods == sorted(methods)
    # Error shrinks with the tolerance within each method block.
    by_method = {}
    for r in rows:
        by_method.setdefault(r[0], []).append((float(r[3]), float(r[6])))
    for pairs in by_method.values():
        pairs.sort()
        assert pairs[0][1] < pairs[-1][1]


@pytest.mark.parametrize("args", [
    ["solve", "--problem", "pcf", "--eps", "0.015625", "--tol", "1e-6"],
    ["solve", "--problem", "airy", "--eps", "1", "--tol", "1e-6",
     "--interval", "0.1,50", "--h0", "0.5"],
    ["sweep", "--problem", "airy", "--eps-list", "1,0.01",
     "--tol-range", "1e-6,1e-3", "--tol-points", "2",
     "--methods", "wkb+rkf45,rkf45"],
], ids=["solve-pcf", "solve-airy", "sweep-airy"])
def test_one_exact_batch_per_run(tmp_path, monkeypatch, args):
    """solve and sweep read the exact solution once per run, in one
    exact_solution batch over its accepted nodes, and form the reference
    columns and both norms from it. The written norms equal, in every
    digit, those of global_error, which makes its own batch."""
    batches, runs = [], []
    exact_solution, solve = reference.exact_solution, cli.integrate

    def counted(problem, xs):
        batches.append(list(xs))
        return exact_solution(problem, xs)

    def kept(problem, config):
        traj = solve(problem, config)
        runs.append((traj, problem))
        return traj

    monkeypatch.setattr(reference, "exact_solution", counted)
    monkeypatch.setattr(cli, "integrate", kept)
    out = tmp_path / "run"
    assert run_cli(args + ["--out", str(out)]) == 0
    monkeypatch.undo()
    assert batches == [[s.x for s in traj.states] for traj, _ in runs]
    norms = [{norm: reference.global_error(traj, problem, norm)
              for norm in ("sup", "l2rel")} for traj, problem in runs]
    if args[0] == "solve":
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["error_summary"] == {"sup_rel": norms[0]["sup"],
                                             "l2_rel": norms[0]["l2rel"]}
        _, rows = read_csv(out / "steps.csv")
        assert [row[11:13] for row in rows] == [
            [cli._fmt(ref.real), cli._fmt(ref.imag)]
            for ref in exact_solution(runs[0][1], batches[0])]
    else:
        _, rows = read_csv(out / "sweep.csv")
        assert len(rows) == len(runs) == 8
        assert sorted(row[6:8] for row in rows) == sorted(
            [cli._fmt(n["l2rel"]), cli._fmt(n["sup"])] for n in norms)


def test_estimator_study_outputs(tmp_path):
    out = tmp_path / "study"
    code = run_cli(["estimator-study", "--problem", "airy", "--tol", "1e-5",
                    "--x0", "10", "--h-sweep", "1e-2,1,5", "--out", str(out)])
    assert code == 0
    header, rows = read_csv(out / "study.csv")
    assert header == ["x", "h", "method", "est", "true_lte", "deviation"]
    assert all(float(r[5]) < 0.5 for r in rows)
    header, rows = read_csv(out / "hsweep.csv")
    assert header == ["h", "est", "true_lte", "deviation"]
    assert len(rows) == 5


def test_bad_flags_exit_two(tmp_path, capsys):
    assert run_cli(["solve", "--problem", "bogus",
                    "--out", str(tmp_path)]) == 2
    assert run_cli(["solve", "--problem", "poly:1,0",  # needs interval
                    "--out", str(tmp_path)]) == 2
    with pytest.raises(SystemExit) as exc:
        run_cli(["solve"])  # missing required --problem
    assert exc.value.code == 2
    capsys.readouterr()


# At 1e-17, past |nu| = 2^53, both origin values vanish at a gamma pole.
@pytest.mark.parametrize("eps", ["1.2e-3", "1e-3", "1e-4", "1e-17"])
def test_pcf_origin_overflow_exits_two(tmp_path, capsys, eps):
    code = run_cli(["solve", "--problem", "pcf", "--eps", eps,
                    "--out", str(tmp_path / "run")])
    assert code == 2
    assert "overflow" in capsys.readouterr().err


@pytest.mark.parametrize("flag,value", [("--eps", "nan"), ("--eps", "inf"),
                                        ("--tol", "nan"), ("--h0", "nan"),
                                        ("--interval", "0.1,inf")])
def test_non_finite_input_exits_two(tmp_path, capsys, flag, value):
    args = {"--eps": "1", "--tol": "1e-6", "--h0": "0.5",
            "--interval": "0.1,50", flag: value}
    code = run_cli(["solve", "--problem", "airy",
                    *(item for pair in args.items() for item in pair),
                    "--out", str(tmp_path / "run")])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("tau", ["NaN", "Infinity", "1e-12"])
def test_tau_guard_from_json(tmp_path, capsys, tau):
    # a = 1 - x has a turning point at x = 1: the guard hands the run over
    # to RKF45 there, and a guard that is not finite and positive exits 2.
    spec = tmp_path / "problem.json"
    spec.write_text('{"type": "poly", "epsilon": 0.05, "coeffs": [1, -1], '
                    f'"domain": [0, 2], "tau_guard": {tau}}}')
    code = run_cli(["solve", "--problem", f"json:{spec}",
                    "--out", str(tmp_path / "run")])
    if tau == "1e-12":
        assert code == 0
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert set(manifest["counters"]["methods"]) == {"WKB", "RKF45"}
    else:
        assert code == 2
        assert "tau_guard" in capsys.readouterr().err


def test_rival_near_minimum_of_a_exits_cleanly(tmp_path):
    # At the minimum of a = 1e-10 + x^2 the order-3 basis factor
    # exp(eps^2 b / (2 sqrt(a))) overflows; the rival candidate is rejected
    # as inadmissible and the run ends with a documented exit code.
    code = run_cli(["solve", "--problem", "poly:1e-10,0,1", "--eps", "1",
                    "--tol", "1e-6", "--interval=-1,1", "--h0", "1",
                    "--method", "rkwkbmod", "--out", str(tmp_path / "run")])
    assert code in (0, 2, 3)


@pytest.mark.parametrize("phase", ["auto", "cc"])
@pytest.mark.parametrize("method", METHODS)
def test_underflowing_a_exits_cleanly(tmp_path, method, phase):
    # At a = x = 1e-200, above a tau guard of 1e-300, a^(5/2) underflows
    # to 0; the WKB candidates are inadmissible there and RKF45 carries on.
    spec = tmp_path / "problem.json"
    spec.write_text('{"type": "poly", "coeffs": [0, 1], '
                    '"domain": [1e-200, 1], "initial": [1, 0, 0, 0], '
                    '"tau_guard": 1e-300}')
    code = run_cli(["solve", "--problem", f"json:{spec}", "--method", method,
                    "--phase", phase, "--out", str(tmp_path / "run")])
    assert code == 0


def test_solver_failure_exit_three(tmp_path, monkeypatch):
    from wkbmarch import cli as cli_mod
    from wkbmarch.state import SolverError

    def boom(problem, config):
        raise SolverError("injected")

    monkeypatch.setattr(cli_mod, "integrate", boom)
    code = run_cli(["solve", "--problem", "airy", "--out", str(tmp_path)])
    assert code == 3


def test_json_problem_input(tmp_path):
    spec = {"type": "poly", "epsilon": 0.5, "coeffs": [4.0],
            "domain": [0.0, 3.0]}
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "run"
    code = run_cli(["solve", "--problem", f"json:{path}", "--tol", "1e-6",
                    "--h0", "0.2", "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["problem"]["epsilon"] == 0.5


def test_json_sweep_solves_at_each_listed_eps(tmp_path):
    # --eps-list overrides the file's epsilon, as --eps does for solve.
    from wkbmarch import SolverConfig, integrate, problem_from_json

    spec = {"type": "poly", "epsilon": 0.5, "coeffs": [1, 0.5],
            "domain": [0, 2]}
    path = tmp_path / "prob.json"
    path.write_text(json.dumps(spec))
    out = tmp_path / "sweep"
    code = run_cli(["sweep", "--problem", f"json:{path}",
                    "--eps-list", "1,0.1", "--tol-range", "1e-6,1e-5",
                    "--tol-points", "1", "--methods", "rkf45",
                    "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out / "sweep.csv")
    assert [float(r[2]) for r in rows] == [1.0, 0.1]
    for row in rows:
        problem = problem_from_json({**spec, "epsilon": float(row[2])})
        traj = integrate(problem, SolverConfig(tol=1e-6, h0=0.1,
                                               method="rkf45"))
        assert int(row[4]) == traj.accepted
    assert rows[0][4] != rows[1][4]


@pytest.mark.parametrize("text", [
    '{"type": "poly", "coeffs": [1], "domain": [0]}',
    '{"type": "poly", "coeffs": [1], "domain": 5}',
    '{"type": "airy", "epsilon": null}',
    '[{"type": "airy"}]',
    '{"type": "poly", "coeffs": [1], "domain": [0, 1], "initial": null}',
    '{"type": "airy", "eps": 0.01}',
    '{"type": "airy", "tau_guard": 1e-12}',
    '{"type": "airy"',
])
def test_malformed_json_spec_exits_two(tmp_path, capsys, text):
    path = tmp_path / "prob.json"
    path.write_text(text)
    code = run_cli(["solve", "--problem", f"json:{path}",
                    "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("args,match", [
    (["--problem", "poly:1,nan", "--interval", "0,1"], "coeffs"),
    (["--problem", "poly:inf", "--interval", "0,1"], "coeffs"),
    (["--problem", "json:{path}"], "initial"),
    (["--problem", "airy", "--eps", "1e-300"], "epsilon=1e-300"),
    (["--problem", "airy", "--interval", "1e205,1e206"], "x=1e+205,"),
    (["--problem", "airy", "--interval", "1e300,1e301"], "x=1e+300,"),
    (["--problem", "poly:1", "--interval", "0,1", "--eps", "0"],
     "epsilon must be finite and positive"),
    # An epsilon whose square overflows or underflows to 0, which the
    # steps divide by.
    (["--problem", "airy", "--eps", "1e300"], "epsilon=1e+300"),
    (["--problem", "pcf", "--eps", "1e300"], "epsilon=1e+300"),
    (["--problem", "poly:1", "--interval", "0,1", "--eps", "1e160"],
     "epsilon=1e+160"),
    (["--problem", "poly:1,0,1", "--interval", "0,1", "--eps", "1e-165"],
     "epsilon=1e-165"),
])
def test_non_finite_problem_exits_two(tmp_path, capsys, args, match):
    path = tmp_path / "prob.json"
    path.write_text('{"type": "poly", "coeffs": [1], "domain": [0, 1], '
                    '"initial": [Infinity, 0, 0, 0]}')
    args = [a.format(path=path) for a in args]
    assert run_cli(["solve", *args, "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err


@pytest.mark.parametrize("method", METHODS)
def test_overflowing_initial_modulus_exits_two(tmp_path, capsys, method):
    # Finite parts whose modulus passes the largest float, which the
    # controller's tolerance takes: a spec error, not a crash in the run.
    path = tmp_path / "prob.json"
    path.write_text('{"type": "poly", "coeffs": [0], "domain": [0, 1], '
                    '"initial": [1.3e308, 1.3e308, 0, 0]}')
    code = run_cli(["solve", "--problem", f"json:{path}", "--tol", "1e-6",
                    "--method", method, "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite modulus" in err
    assert not (tmp_path / "run").exists()


def test_non_finite_cc_integrand_is_a_solver_failure(tmp_path, capsys):
    # a = 1e308 (1 + x) overflows: every candidate is rejected, none ends
    # the run with a spec error.
    code = run_cli(["solve", "--problem", "poly:1e308,1e308",
                    "--interval", "0,10", "--out", str(tmp_path / "run")])
    assert code == 3
    assert "26 consecutive rejections" in capsys.readouterr().err


_POLY_COEFFS = ("nan", "inf", "-inf", "1e308", "-1e308", "0", "1", "-1",
                "0.5", "3")


@settings(deadline=None, derandomize=True, max_examples=40)
@given(coeffs=st.lists(st.sampled_from(_POLY_COEFFS), min_size=1,
                       max_size=3),
       interval=st.sampled_from(("0,1", "-1,1", "0.5,2")),
       method=st.sampled_from(METHODS),
       phase=st.sampled_from(("auto", "cc")))
def test_cli_exit_code_property(tmp_path_factory, coeffs, interval, method,
                                phase):
    # Any poly spec, non-finite or overflowing coefficients included, ends
    # in exit 0, 2 or 3 and never in an exception.
    out = tmp_path_factory.mktemp("run")
    code = run_cli(["solve", "--problem", "poly:" + ",".join(coeffs),
                    f"--interval={interval}", "--method", method,
                    "--phase", phase, "--tol", "1e-4", "--out", str(out)])
    assert code in (0, 2, 3)


def test_step_floor_follows_the_position(tmp_path):
    # The step floor is 1e-14 |x|, not 1e-14 of the interval, which on
    # [0.1, 1e15] would lie above h0 and end the run before its first trial.
    out = tmp_path / "run"
    assert run_cli(["solve", "--problem", "airy", "--interval", "0.1,1e15",
                    "--tol", "1e-5", "--out", str(out)]) == 0
    counters = json.loads((out / "manifest.json").read_text())["counters"]
    assert (counters["accepted"], counters["rejected"]) == (81, 1)


def test_eps_and_interval_override_json_spec(tmp_path):
    path = tmp_path / "prob.json"
    path.write_text('{"type": "airy", "epsilon": 0.5, "domain": [0.1, 50]}')
    out = tmp_path / "run"
    assert run_cli(["solve", "--problem", f"json:{path}", "--eps", "1",
                    "--interval", "1,5", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["problem"]["epsilon"] == 1.0
    assert manifest["problem"]["domain"] == [1.0, 5.0]


def test_estimator_study_audits_the_methods_lead_pair(tmp_path):
    from wkbmarch import estimator_h_sweep, make_airy_problem

    out = tmp_path / "study"
    code = run_cli(["estimator-study", "--problem", "airy", "--tol", "1e-5",
                    "--method", "rkf45", "--x0", "10",
                    "--h-sweep", "1e-2,1,3", "--out", str(out)])
    assert code == 0
    _, rows = read_csv(out / "hsweep.csv")
    want = estimator_h_sweep(make_airy_problem(1.0), 10.0, [1.0, 0.1, 0.01],
                             "RKF45")
    assert rows == [[format(v, ".17g") for v in row] for row in want]


def test_overflowing_rkf45_sweep_step_exits_two(tmp_path, capsys,
                                                monkeypatch):
    # A sweep step over which every Fehlberg stage overflows is an
    # inadmissible step, named and reported before the run.
    from wkbmarch import cli as cli_mod

    def no_solve(*_):
        raise AssertionError("a solve ran before the sweep failed")

    monkeypatch.setattr(cli_mod, "estimator_study", no_solve)
    code = run_cli(["estimator-study", "--problem", "airy", "--method",
                    "rkf45", "--h-sweep", "1e150,1e150,1",
                    "--out", str(tmp_path / "run")])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: RKF45 step [10.0, 1e+150] is inadmissible: non-finite")


@pytest.mark.parametrize("args", [
    ["estimator-study", "--problem", "airy", "--h-sweep=-1,1,3"],
    ["estimator-study", "--problem", "airy", "--h-sweep", "0,1,3"],
    ["estimator-study", "--problem", "airy", "--h-sweep", "1e-2,inf,3"],
    ["estimator-study", "--problem", "airy", "--h-sweep", "1e-2,1,0"],
    ["sweep", "--problem", "airy", "--eps-list", "1", "--tol-points", "0"],
    ["sweep", "--problem", "airy", "--eps-list", "1",
     "--tol-range=-1e-3,1e-3"],
    ["sweep", "--problem", "airy", "--eps-list", "1",
     "--methods", "rkf45,euler"],
    # `rkwkb`, the rival under its original relative-error controller, is
    # not a method.
    ["sweep", "--problem", "airy", "--eps-list", "1",
     "--methods", "rkwkbmod,rkwkb"],
    # Sweep steps from or to a point where the WKB step is inadmissible.
    ["estimator-study", "--problem", "airy", "--x0", "0"],
    ["estimator-study", "--problem", "pcf", "--x0", "1.995",
     "--h-sweep", "1e-3,1e-2,3"],
    # A zero epsilon, which the polynomial's default initial data divides
    # by.
    ["sweep", "--problem", "poly:1", "--interval", "0,1", "--eps-list", "0"],
])
def test_bad_sweep_flags_exit_two_before_solving(tmp_path, capsys,
                                                 monkeypatch, args):
    from wkbmarch import cli as cli_mod

    def no_solve(*_):
        raise AssertionError("a solve ran before the flags were checked")

    monkeypatch.setattr(cli_mod, "integrate", no_solve)
    monkeypatch.setattr(cli_mod, "estimator_study", no_solve)
    assert run_cli([*args, "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_readme_command_lines_parse():
    # Every `wkbmarch ...` example in the README's "Command line" section
    # (backslash continuations joined) is accepted by the parser.
    import re
    import shlex
    from pathlib import Path

    from wkbmarch.cli import build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    commands = [shlex.split(block.replace("\\\n", " "))
                for block in re.findall(r"```\n(wkbmarch .*?)```", section,
                                        re.S)]
    assert len(commands) >= 3
    parser = build_parser()
    for argv in commands:
        assert argv[0] == "wkbmarch"
        parser.parse_args(argv[1:])


def test_readme_imports_run():
    # Every `from wkbmarch... import ...` line in the README imports, so a
    # deleted or renamed name cannot survive in the docs.
    import re
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = re.findall(r"from wkbmarch[\w.]* import \w+(?:, \w+)*", readme)
    assert len(lines) >= 4
    for line in lines:
        exec(line, {})


def test_readme_public_api_matches_all():
    # The names listed in the README's "Public API" section are exactly
    # the package's __all__, each listed once.
    import re
    from pathlib import Path

    import wkbmarch

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Public API", 1)[1]
    bullets = section[section.index("\n- "):].split("\n\n", 1)[0]
    names = re.findall(r"`(\w+)`", bullets)
    assert sorted(names) == sorted(wkbmarch.__all__)
    assert len(wkbmarch.__all__) == len(set(wkbmarch.__all__))
