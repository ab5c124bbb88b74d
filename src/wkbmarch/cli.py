"""Command-line harness: single runs, parameter sweeps, estimator audits.

Every command writes plot-ready CSV plus a JSON manifest describing the run.
Floats are printed with 17 significant digits so replaying a manifest
reproduces the CSV byte for byte (the solver itself is deterministic).

Exit codes: 0 success, 2 bad flags, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from . import reference
from .control import (ETA, SolverConfig, estimator_h_sweep, estimator_study,
                      integrate)
from .problem import make_airy_problem, make_pcf_problem, \
    make_polynomial_problem, problem_from_json
from .state import SolverError

_BENCH_DEFAULTS = {
    "airy": {"interval": (0.1, 50.0), "h0": 0.5},
    "pcf": {"interval": (0.01, 1.99), "h0": 0.05},
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("interval must be 'a,b'")
    a, b = float(parts[0]), float(parts[1])
    if not a < b:
        raise argparse.ArgumentTypeError("interval needs a < b")
    return a, b


def _parse_phase(text: str) -> tuple[str, int]:
    if text == "exact":
        return "exact", 15
    if text == "auto":
        return "auto", 15
    if text.startswith("cc"):
        nodes = 15
        if ":" in text:
            nodes = int(text.split(":", 1)[1])
        return "cc", nodes
    raise argparse.ArgumentTypeError("phase must be exact, auto or cc[:N]")


class SystemExit2(SystemExit):
    """Flag-level failure: prints the message and carries exit code 2."""

    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def _build_problem(args):
    spec = args.problem
    if spec in ("airy", "pcf"):
        defaults = _BENCH_DEFAULTS[spec]
        interval = args.interval or defaults["interval"]
        maker = make_airy_problem if spec == "airy" else make_pcf_problem
        return maker(args.eps, interval[0], interval[1]), defaults["h0"]
    if spec.startswith("poly:"):
        coeffs = [float(c) for c in spec[len("poly:"):].split(",")]
        if args.interval is None:
            raise SystemExit2("poly problems need --interval")
        return make_polynomial_problem(coeffs, args.eps, args.interval), 0.1
    if spec.startswith("json:"):
        payload = Path(spec[len("json:"):]).read_text()
        return problem_from_json(payload), 0.1
    raise SystemExit2(f"unknown problem {spec!r}")


def _problem_manifest(args, problem) -> dict:
    return {
        "spec": args.problem,
        "epsilon": problem.epsilon,
        "domain": [problem.x_start, problem.x_end],
        "label": problem.label,
        "has_exact": problem.exact is not None,
    }


def _config_manifest(config: SolverConfig) -> dict:
    return {
        "tol": config.tol,
        "h0": config.h0,
        "method": config.method,
        "eta": ETA,
        "phase": config.phase,
        "cc_nodes": config.cc_nodes,
    }


def _trajectory_rows(traj, problem):
    has_exact = problem.exact is not None
    rows = []
    for rec in traj.records:
        row = [rec.index, rec.x, rec.h, rec.method, 1,
               rec.est, rec.theta, rec.state.phi.real, rec.state.phi.imag,
               rec.state.dphi.real, rec.state.dphi.imag]
        if has_exact:
            ex = problem.exact(rec.x)
            rel = abs(rec.state.phi - ex.phi) / abs(ex.phi) \
                if ex.phi != 0 else math.inf
            row += [ex.phi.real, ex.phi.imag, rel]
        rows.append(row)
    header = ["step_index", "x", "h", "method", "accepted", "est", "theta",
              "re_phi", "im_phi", "re_dphi", "im_dphi"]
    if has_exact:
        header += ["ref_re", "ref_im", "rel_err"]
    return header, rows


def cmd_solve(args) -> int:
    problem, default_h0 = _build_problem(args)
    config = SolverConfig(
        tol=args.tol, h0=args.h0 if args.h0 is not None else default_h0,
        method=args.method, phase=args.phase[0], cc_nodes=args.phase[1])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    traj = integrate(problem, config)
    elapsed = time.perf_counter() - started
    header, rows = _trajectory_rows(traj, problem)
    _write_csv(out / "steps.csv", header, rows)
    manifest = {
        "command": "solve",
        "problem": _problem_manifest(args, problem),
        "config": _config_manifest(config),
        "outputs": {"steps_csv": str(out / "steps.csv")},
        "wall_clock_s": elapsed,
        "counters": {
            "accepted": traj.accepted,
            "rejected": traj.rejected,
            "methods": traj.method_counts(),
        },
        "final": {
            "x": traj.final_state.x,
            "re_phi": traj.final_state.phi.real,
            "im_phi": traj.final_state.phi.imag,
            "re_dphi": traj.final_state.dphi.real,
            "im_dphi": traj.final_state.dphi.imag,
        },
    }
    if problem.exact is not None:
        manifest["error_summary"] = {
            "sup_rel": reference.global_error(traj, problem, "sup"),
            "l2_rel": reference.global_error(traj, problem, "l2rel"),
        }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"accepted {traj.accepted} steps "
          f"({', '.join(f'{k}: {v}' for k, v in sorted(traj.method_counts().items()))}), "
          f"rejected {traj.rejected}; wrote {out / 'steps.csv'}")
    return 0


def cmd_sweep(args) -> int:
    methods = args.methods.split(",")
    eps_list = [float(v) for v in args.eps_list.split(",")]
    lo, hi = args.tol_range
    tols = [lo * (hi / lo) ** (i / (args.tol_points - 1))
            for i in range(args.tol_points)] if args.tol_points > 1 else [lo]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for method in methods:
        for eps in eps_list:
            for tol in tols:
                ns = argparse.Namespace(problem=args.problem, eps=eps,
                                        interval=args.interval)
                problem, default_h0 = _build_problem(ns)
                config = SolverConfig(
                    tol=tol, h0=args.h0 if args.h0 is not None else default_h0,
                    method=method, phase=args.phase[0],
                    cc_nodes=args.phase[1])
                started = time.perf_counter()
                traj = integrate(problem, config)
                elapsed = time.perf_counter() - started
                if problem.exact is not None:
                    l2 = reference.global_error(traj, problem, "l2rel")
                    sup = reference.global_error(traj, problem, "sup")
                else:
                    l2 = sup = math.nan
                rows.append([method, args.problem, eps, tol, traj.accepted,
                             traj.rejected, l2, sup, elapsed])
    rows.sort(key=lambda r: (r[0], -r[2], r[3]))
    header = ["method", "problem", "epsilon", "tol", "steps", "rejected",
              "l2rel", "sup_rel", "wall_clock_s"]
    _write_csv(out / "sweep.csv", header, rows)
    manifest = {
        "command": "sweep",
        "problem_spec": args.problem,
        "methods": methods,
        "eps_list": eps_list,
        "tols": tols,
        "outputs": {"sweep_csv": str(out / "sweep.csv")},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(rows)} sweep rows to {out / 'sweep.csv'}")
    return 0


def cmd_estimator_study(args) -> int:
    problem, default_h0 = _build_problem(args)
    if problem.exact is None:
        raise SystemExit2("estimator study needs a benchmark problem")
    config = SolverConfig(
        tol=args.tol, h0=args.h0 if args.h0 is not None else default_h0,
        method=args.method, phase=args.phase[0], cc_nodes=args.phase[1])
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = estimator_study(problem, config)
    _write_csv(out / "study.csv",
               ["x", "h", "method", "est", "true_lte", "deviation"], rows)
    lo, hi, n = args.h_sweep
    hs = [hi * (lo / hi) ** (i / (n - 1)) for i in range(int(n))] \
        if n > 1 else [hi]
    method_tag = "RKWKB" if config.method in ("rkwkbmod", "rkwkb") else "WKB"
    sweep_rows = estimator_h_sweep(problem, args.x0, hs, method_tag,
                                   config.phase_mode(problem),
                                   config.cc_nodes)
    _write_csv(out / "hsweep.csv",
               ["h", "est", "true_lte", "deviation"], sweep_rows)
    manifest = {
        "command": "estimator-study",
        "problem": _problem_manifest(args, problem),
        "config": _config_manifest(config),
        "x0": args.x0,
        "outputs": {"study_csv": str(out / "study.csv"),
                    "hsweep_csv": str(out / "hsweep.csv")},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"wrote {len(rows)} study rows and {len(sweep_rows)} sweep rows "
          f"to {out}")
    return 0


def _parse_h_sweep(text: str) -> tuple[float, float, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("h-sweep must be 'hmin,hmax,points'")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _add_common(sub) -> None:
    sub.add_argument("--problem", required=True,
                     help="airy | pcf | poly:<c0,c1,..> | json:<file>")
    sub.add_argument("--eps", type=float, default=1.0)
    sub.add_argument("--tol", type=float, default=1e-6)
    sub.add_argument("--interval", type=_parse_interval, default=None)
    sub.add_argument("--h0", type=float, default=None)
    sub.add_argument("--method", default="wkb+rkf45",
                     choices=["wkb+rkf45", "rkwkbmod", "rkwkb", "rkf45"])
    sub.add_argument("--phase", type=_parse_phase, default=("auto", 15),
                     help="exact | auto | cc[:N]")
    sub.add_argument("--out", default="out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wkbmarch",
        description="Adaptive WKB marching solver for eps^2 phi'' + a(x) phi = 0")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="one adaptive run -> steps.csv")
    _add_common(solve)
    solve.set_defaults(func=cmd_solve)

    sweep = subs.add_parser("sweep", help="(method, eps, tol) grid -> sweep.csv")
    sweep.add_argument("--problem", required=True)
    sweep.add_argument("--eps-list", required=True,
                       help="comma-separated epsilon values")
    sweep.add_argument("--tol-range", type=_parse_interval,
                       default=(1e-9, 1e-3))
    sweep.add_argument("--tol-points", type=int, default=10)
    sweep.add_argument("--methods", default="wkb+rkf45")
    sweep.add_argument("--interval", type=_parse_interval, default=None)
    sweep.add_argument("--h0", type=float, default=None)
    sweep.add_argument("--phase", type=_parse_phase, default=("auto", 15))
    sweep.add_argument("--out", default="out")
    sweep.set_defaults(func=cmd_sweep)

    study = subs.add_parser("estimator-study",
                            help="estimate-vs-truth audit -> study.csv")
    _add_common(study)
    study.add_argument("--x0", type=float, default=10.0,
                       help="start of the single-step h sweep")
    study.add_argument("--h-sweep", type=_parse_h_sweep,
                       default=(1e-3, 1.0, 13),
                       help="hmin,hmax,points for the single-step sweep")
    study.set_defaults(func=cmd_estimator_study)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        return int(exc.code)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
