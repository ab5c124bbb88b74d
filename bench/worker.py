"""One workload in one fresh interpreter; started by run.py, not by hand.

The worker imports the package, builds the problem and runs one untimed
warm-up op (which fills the reference checkpoint tables), then prints
READY. With --mode setup it stops there. Otherwise it runs ops in a closed
loop with one client, cycling over the seed's h0 variants, until
--seconds have passed and every variant has run once, and prints one JSON
line with the op samples (--mode measure) or, with every second op
traced, the layer metrics (--mode trace).

One op is one `integrate` call followed by one `global_error(..., "sup")`
call on its trajectory.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from calibrate import Calibration
from tracing import GLOBAL_ERROR, INTEGRATE, OP, Tracer, layer_metrics
from workloads import WORKLOADS


@dataclass
class OpResult:
    """Outcome of one op; `error` is None when the op is counted correct.

    `solve_at` and `verify_at` are the perf_counter readings at which the
    two stages started; a `*_scale` turns its stage's seconds into
    reference seconds (see calibrate).
    """

    solve_s: float
    verify_s: float
    trials: int = 0
    err_sup: float = math.nan
    error: Optional[str] = None
    trajectory: object = None
    solve_at: float = 0.0
    verify_at: Optional[float] = None
    solve_scale: float = 1.0
    verify_scale: float = 1.0

    def op_s(self) -> float:
        """Reference seconds of both stages."""
        return (self.solve_s * self.solve_scale
                + self.verify_s * self.verify_scale)


def _finite(traj) -> bool:
    return all(cmath.isfinite(r.state.phi) and cmath.isfinite(r.state.dphi)
               for r in traj.records)


def run_op(problem, config, ceiling: float, solve, verify,
           call=None, between=None) -> OpResult:
    """Run and check one op.

    The op fails when it raises SolverError, ValueError or
    ContinuationError, when any accepted state is not finite, or when its
    sup error is not finite or lies above `ceiling`. `call(name, fn, *args)`
    runs each stage; the traced run passes a span recorder. `between()`,
    if given, runs untimed after the solve and before the verify.
    """
    from wkbmarch import ContinuationError, SolverError
    if call is None:
        def call(name, fn, *args):
            return fn(*args)
    t0 = time.perf_counter()
    try:
        traj = call(INTEGRATE, solve, problem, config)
    except (SolverError, ValueError) as exc:
        return OpResult(time.perf_counter() - t0, 0.0, solve_at=t0,
                        error=f"{type(exc).__name__}: {exc}")
    solve_s = time.perf_counter() - t0
    trials = traj.accepted + traj.rejected
    if not _finite(traj):
        return OpResult(solve_s, 0.0, trials, solve_at=t0,
                        error="non-finite state")
    if between is not None:
        between()
    t1 = time.perf_counter()
    try:
        err = call(GLOBAL_ERROR, verify, traj, problem, "sup")
    except (ValueError, ContinuationError) as exc:
        return OpResult(solve_s, time.perf_counter() - t1, trials,
                        solve_at=t0, verify_at=t1,
                        error=f"{type(exc).__name__}: {exc}")
    result = OpResult(solve_s, time.perf_counter() - t1, trials, err,
                      trajectory=traj, solve_at=t0, verify_at=t1)
    if not err <= ceiling:
        result.error = f"err_sup {err!r} above ceiling {ceiling!r}"
    return result


class Loop:
    """Closed loop over the variants; checks that repeats agree exactly.

    A calibration kernel runs before and after each stage of an op and
    sets the stage's scale.
    """

    def __init__(self, workload, seed: int):
        import wkbmarch
        self.workload = workload
        self.problem = workload.make_problem()
        self.configs = [workload.config(f) for f in workload.h0_factors(seed)]
        self.solve = wkbmarch.integrate
        self.verify = wkbmarch.global_error
        self.first: dict[int, tuple[int, float]] = {}

    def op(self, k: int, call=None, between=None) -> OpResult:
        res = run_op(self.problem, self.configs[k], self.workload.ceiling,
                     self.solve, self.verify, call, between)
        if res.error is None:
            seen = self.first.setdefault(k, (res.trials, res.err_sup))
            if seen != (res.trials, res.err_sup):
                res.error = (f"variant {k} gave {res.trials} trials, err "
                             f"{res.err_sup!r}; first run gave {seen}")
        return res

    def run(self, seconds: float):
        """Ops until `seconds` passed and every variant ran once.

        Returns the results and the calibration samples.
        """
        results = []
        cal = Calibration()
        cal.sample()
        t0 = time.perf_counter()
        while (time.perf_counter() - t0 < seconds
               or len(results) < len(self.configs)):
            res = self.op(len(results) % len(self.configs),
                          between=cal.sample)
            res.trajectory = None
            results.append(res)
            cal.sample()
        _set_scales(results, cal)
        return results, cal

    def run_traced(self, seconds: float, tracer):
        """Pairs of ops on one variant, the first untraced and the second
        traced, until `seconds` passed; alternating cancels drift in the
        machine's speed out of the tracing overhead.

        Returns the untraced and the traced results.
        """
        plain, traced = [], []
        cal = Calibration()
        cal.sample()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds or not traced:
            k = len(plain) % len(self.configs)
            plain.append(self.op(k, between=cal.sample))
            cal.sample()
            uninstall = tracer.install()
            try:
                tracer.op += 1
                traced.append(tracer.span(OP, self.op, k, tracer.span))
            finally:
                uninstall()
            cal.sample()
        _set_scales(plain + traced, cal)
        return plain, traced

    def variant_errors(self) -> list[float]:
        return [err for _, err in self.first.values()]


def _set_scales(results, cal) -> None:
    for r in results:
        r.solve_scale = cal.scale(r.solve_at, r.solve_at + r.solve_s)
        r.verify_scale = (r.solve_scale if r.verify_at is None else
                          cal.scale(r.verify_at, r.verify_at + r.verify_s))


def _summary(results) -> dict:
    """Counts, and the op timings in reference seconds (see calibrate)."""
    ok = [r for r in results if r.error is None]
    return {
        "attempted": len(results),
        "failed": len(results) - len(ok),
        "op_s": [r.op_s() for r in results],
        "solve_s": [r.solve_s * r.solve_scale for r in ok],
        "verify_s": [r.verify_s * r.verify_scale for r in ok],
        "raw_solve_s": [r.solve_s for r in ok],
        "raw_verify_s": [r.verify_s for r in ok],
        "solve_at": [r.solve_at for r in ok],
        "verify_at": [r.verify_at for r in ok],
        "trials": [r.trials for r in ok],
        "errors": sorted({r.error for r in results if r.error is not None}),
    }


def _layer_times_scaled(layers: dict, scale: float) -> dict:
    return {name: value * scale if name.endswith(("_s", "_us")) else value
            for name, value in layers.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"),
                    required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    src = Path(__file__).resolve().parents[1] / "src"
    import numpy
    import wkbmarch
    if src not in Path(wkbmarch.__file__).resolve().parents:
        print(f"wkbmarch imported from {wkbmarch.__file__}, not {src}",
              file=sys.stderr)
        return 2
    loop = Loop(WORKLOADS[args.workload], args.seed)
    warm = loop.op(0)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    out = {"numpy": numpy.__version__, "warmup_error": warm.error}
    if args.mode == "measure":
        results, cal = loop.run(args.seconds)
        out.update(_summary(results))
        out["variant_err_sup"] = loop.variant_errors()
        out["kernel_at"] = cal.times
        out["kernel_s"] = cal.values
    else:
        tracer = Tracer()
        plain, traced = loop.run_traced(args.seconds, tracer)
        if args.spans is not None:
            tracer.write(args.spans)
        out.update(_summary(plain + traced))
        plain_rate = sum(r.error is None for r in plain) / sum(
            r.solve_s + r.verify_s for r in plain)
        traced_rate = sum(r.error is None for r in traced) / sum(
            r.solve_s + r.verify_s for r in traced)
        layers = layer_metrics(
            tracer.spans, [r.trajectory for r in traced if r.error is None],
            tracer.airy_continued)
        out["layers"] = _layer_times_scaled(
            layers, statistics.median(r.solve_scale for r in traced))
        out["layers"]["trace.overhead_frac"] = (
            1.0 - traced_rate / plain_rate if plain_rate else 0.0)
        out["spans"] = len(tracer.spans)
    out["peak_rss_mib"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
