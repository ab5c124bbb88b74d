"""Command-line harness: single runs, parameter sweeps, estimator audits.

Every command writes plot-ready CSV plus a JSON manifest describing the run.
Floats are printed with 17 significant digits so replaying a manifest
reproduces the CSV byte for byte (the solver itself is deterministic).

Exit codes: 0 success, 2 bad flags or problem spec, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from . import reference
from .control import (CANDIDATES, ETA, METHODS, SolverConfig,
                      estimator_h_sweep, estimator_study, integrate)
from .phase import CC_NODES
from .problem import problem_from_json
from .state import SolverError

# First trial step per --problem name; the factories own the intervals.
_H0 = {"airy": 0.5, "pcf": 0.05}


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row)
                                  for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _parse_interval(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("interval must be 'a,b'")
    a, b = float(parts[0]), float(parts[1])
    if not a < b:
        raise argparse.ArgumentTypeError("interval needs a < b")
    return a, b


def _geometric(start: float, stop: float, n: int, name: str) -> list[float]:
    """n points from start to stop in geometric progression."""
    if not (0.0 < start < math.inf and 0.0 < stop < math.inf and n >= 1):
        raise ValueError(f"{name}: need finite bounds > 0 and >= 1 point")
    return [start * (stop / start) ** (i / (n - 1))
            for i in range(n)] if n > 1 else [start]


def _build_problem(name: str, eps, interval):
    """--problem as a spec, with --eps/--interval overriding epsilon/domain."""
    if name in ("airy", "pcf"):
        spec = {"type": name}
    elif name.startswith("poly:"):
        spec = {"type": "poly",
                "coeffs": [float(c) for c in name[len("poly:"):].split(",")]}
    elif name.startswith("json:"):
        spec = json.loads(Path(name[len("json:"):]).read_text())
    else:
        raise ValueError(f"unknown problem {name!r}")
    if isinstance(spec, dict):
        overrides = {"epsilon": eps, "domain": interval}
        spec.update({k: v for k, v in overrides.items() if v is not None})
    return problem_from_json(spec)


def _config(args, method: str, tol: float) -> SolverConfig:
    h0 = args.h0 if args.h0 is not None else _H0.get(args.problem, 0.1)
    return SolverConfig(tol=tol, h0=h0, method=method, phase=args.phase)


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
        "cc_nodes": CC_NODES,
    }


def _exact_values(traj, problem):
    """The exact phi at every accepted node, in one batch, or None for a
    problem without an exact solution; the steps.csv reference columns and
    both error norms are formed from it."""
    if problem.exact is None:
        return None
    return reference.exact_solution(problem, traj.xs)


def _trajectory_rows(traj, refs):
    has_exact = refs is not None
    records = traj.records  # a view, built on each access
    rows = []
    for rec, ref in zip(records,
                        refs if has_exact else [None] * len(records)):
        row = [rec.index, rec.x, rec.h, rec.method, 1,
               rec.est, rec.theta, rec.state.phi.real, rec.state.phi.imag,
               rec.state.dphi.real, rec.state.dphi.imag]
        if has_exact:
            rel = abs(rec.state.phi - ref) / abs(ref) if ref != 0 \
                else math.inf
            row += [ref.real, ref.imag, rel]
        rows.append(row)
    header = ["step_index", "x", "h", "method", "accepted", "est", "theta",
              "re_phi", "im_phi", "re_dphi", "im_dphi"]
    if has_exact:
        header += ["ref_re", "ref_im", "rel_err"]
    return header, rows


def cmd_solve(args) -> int:
    problem = _build_problem(args.problem, args.eps, args.interval)
    config = _config(args, args.method, args.tol)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    traj = integrate(problem, config)
    elapsed = time.perf_counter() - started
    refs = _exact_values(traj, problem)
    header, rows = _trajectory_rows(traj, refs)
    _write_csv(out / "steps.csv", header, rows)
    final = traj.final_state
    manifest = {
        "command": "solve",
        "problem": _problem_manifest(args, problem),
        "config": _config_manifest(config),
        "outputs": {"steps_csv": str(out / "steps.csv")},
        "wall_clock_s": elapsed,
        "counters": {"accepted": traj.accepted, "rejected": traj.rejected,
                     "methods": traj.method_counts()},
        "final": {"x": final.x, "re_phi": final.phi.real,
                  "im_phi": final.phi.imag, "re_dphi": final.dphi.real,
                  "im_dphi": final.dphi.imag},
    }
    if refs is not None:
        phis = reference._complexes(traj.phis)
        manifest["error_summary"] = {
            "sup_rel": reference._error_norm(phis, refs, "sup"),
            "l2_rel": reference._error_norm(phis, refs, "l2rel"),
        }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(f"accepted {traj.accepted} steps "
          f"({', '.join(f'{k}: {v}' for k, v in sorted(traj.method_counts().items()))}), "
          f"rejected {traj.rejected}; wrote {out / 'steps.csv'}")
    return 0


def cmd_sweep(args) -> int:
    methods = args.methods.split(",")
    eps_list = [float(v) for v in args.eps_list.split(",")]
    tols = _geometric(*args.tol_range, args.tol_points, "tol-range")
    # Every flag is checked before the first solve; one problem per eps.
    configs = [[_config(args, method, tol) for tol in tols]
               for method in methods]
    problems = [(eps, _build_problem(args.problem, eps, args.interval))
                for eps in eps_list]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for method_configs in configs:
        for eps, problem in problems:
            for config in method_configs:
                started = time.perf_counter()
                traj = integrate(problem, config)
                elapsed = time.perf_counter() - started
                refs = _exact_values(traj, problem)
                if refs is not None:
                    phis = reference._complexes(traj.phis)
                    l2 = reference._error_norm(phis, refs, "l2rel")
                    sup = reference._error_norm(phis, refs, "sup")
                else:
                    l2 = sup = math.nan
                rows.append([config.method, args.problem, eps, config.tol,
                             traj.accepted, traj.rejected, l2, sup, elapsed])
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
    problem = _build_problem(args.problem, args.eps, args.interval)
    config = _config(args, args.method, args.tol)
    lo, hi, n = args.h_sweep
    hs = _geometric(hi, lo, n, "h-sweep")
    # The sweep's single steps run first: a bad --x0 fails before the solve.
    sweep_rows = estimator_h_sweep(problem, args.x0, hs,
                                   CANDIDATES[config.method][0], config.phase)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = estimator_study(problem, config)
    _write_csv(out / "study.csv",
               ["x", "h", "method", "est", "true_lte", "deviation"], rows)
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


def _add_shared(sub) -> None:
    sub.add_argument("--problem", required=True,
                     help="airy | pcf | poly:<c0,c1,..> | json:<file>")
    sub.add_argument("--interval", type=_parse_interval, default=None,
                     help="a,b: overrides the problem's domain; write "
                     "a negative a as --interval=-1,1")
    sub.add_argument("--h0", type=float, default=None)
    sub.add_argument("--phase", default="auto",
                     choices=("auto", "exact", "cc"))
    sub.add_argument("--out", default="out")


def _add_single_run(sub) -> None:
    _add_shared(sub)
    sub.add_argument("--eps", type=float, default=None,
                     help="overrides the problem's epsilon")
    sub.add_argument("--tol", type=float, default=1e-6)
    sub.add_argument("--method", default="wkb+rkf45", choices=METHODS)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wkbmarch",
        description="Adaptive WKB marching solver for eps^2 phi'' + a(x) phi = 0")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="one adaptive run -> steps.csv")
    _add_single_run(solve)
    solve.set_defaults(func=cmd_solve)

    sweep = subs.add_parser("sweep", help="(method, eps, tol) grid -> sweep.csv")
    _add_shared(sweep)
    sweep.add_argument("--eps-list", required=True,
                       help="comma-separated epsilon values")
    sweep.add_argument("--tol-range", type=_parse_interval,
                       default=(1e-9, 1e-3))
    sweep.add_argument("--tol-points", type=int, default=10)
    sweep.add_argument("--methods", default="wkb+rkf45",
                       help="comma-separated, from " + ", ".join(METHODS))
    sweep.set_defaults(func=cmd_sweep)

    study = subs.add_parser("estimator-study",
                            help="estimate-vs-truth audit -> study.csv")
    _add_single_run(study)
    study.add_argument("--x0", type=float, default=10.0,
                       help="start of the single-step h sweep")
    study.add_argument("--h-sweep", type=_parse_h_sweep,
                       default=(1e-3, 1.0, 13),
                       help="hmin,hmax,points for the single-step sweep")
    study.set_defaults(func=cmd_estimator_study)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
