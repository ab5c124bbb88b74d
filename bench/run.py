"""Benchmark of wkbmarch: time to a checked solution, end to end and per layer.

    python3 bench/run.py --workload airy-mixed --seed 0 --seconds 30 --trace 0

Run from the repository root. Each workload runs in fresh interpreters
(bench/worker.py) with BLAS and OpenMP threads set to 1 and the package
imported from ./src, so no process-global cache (the Airy checkpoint
table) carries over between workloads or runs.

--trace 0 starts SETUP_SAMPLES workers, one after the other, and times
each from process start to READY (import, problem construction, one
warm-up op); then one more worker measures ops for --seconds. --trace 1
starts one worker that alternates untraced ops with ops that record a span
around every call into each layer, and reports the layer metrics.

Times are in reference seconds (see calibrate.py). The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. The run's details (machine, versions, samples) go to
bench/out/. See workloads.py for the workloads.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import NOMINAL_S, kernel_s
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_SAMPLES = 5
# A worker gets ready in about 1 to 3 s. Past --seconds a measuring worker
# still finishes the op that crosses the deadline and, on a slow machine,
# the ops that run every variant once. With --seconds 30 these limits end
# a run with a hung worker within 130 s.
SETUP_TIMEOUT_S = 20.0
RUN_TIMEOUT_SLACK_S = 60.0

# Modules whose source lines are reported; __init__.py counts toward the
# package total only.
MODULES = ("cli", "control", "phase", "problem", "reference", "rk45",
           "rkwkb", "state", "wkb_core")

UNITS = {
    "setup_s": "s", "solve_s": "s", "solve_s_tail": "s", "verify_s": "s",
    "ops_per_s": "1/s", "err_sup": "rel", "peak_rss_mib": "MiB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", "_frac")):
        return "frac"
    if name.endswith("_per_trial"):
        return "calls/trial"
    if name.endswith(("trials", "_calls")):
        return "count/op"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def start_worker(args, mode: str, extra=()):
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode, *extra]
    return subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, text=True)


def finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def ready_worker(args, mode: str, extra=()):
    """Start a worker; returns it and the seconds until its READY line."""
    t0 = time.perf_counter()
    proc = start_worker(args, mode, extra)
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        line = (proc.stdout.readline() if sel.select(SETUP_TIMEOUT_S)
                else "(timed out)")
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready: {line!r}")
    return proc, ready


def setup_time(args) -> float:
    """Reference seconds from a setup worker's start to its READY line,
    scaled by calibrations taken just before the start and just after the
    worker has exited."""
    before = kernel_s()
    proc, ready = ready_worker(args, "setup")
    finish(proc, SETUP_TIMEOUT_S)
    return ready * NOMINAL_S / (0.5 * (before + kernel_s()))


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, rank, count); with ten samples or fewer the rank is 1.
    """
    ordered = sorted(samples)
    rank = max(1, len(ordered) - 10)
    return ordered[rank - 1], rank, len(ordered)


def src_sizes() -> dict:
    sizes = {}
    total = 0
    for path in sorted((SRC / "wkbmarch").glob("*.py")):
        lines = len(path.read_text().splitlines())
        total += lines
        if path.stem in MODULES:
            sizes[f"{path.stem}.src_lines"] = lines
    for module in MODULES:
        sizes.setdefault(f"{module}.src_lines", 0)
    sizes["package.src_lines"] = total
    init = ast.parse((SRC / "wkbmarch" / "__init__.py").read_text())
    names = [node.value for node in init.body if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == "__all__"
                     for t in node.targets)]
    sizes["package.public_names"] = len(ast.literal_eval(names[-1]))
    return sizes


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(numpy_version: str) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "commit": git_commit(),
    }


def measure(args):
    """Untraced run: end-to-end metrics."""
    setups = [setup_time(args) for _ in range(SETUP_SAMPLES)]
    proc, _ = ready_worker(args, "measure")
    report = json.loads(
        finish(proc, args.seconds + RUN_TIMEOUT_SLACK_S).splitlines()[-1])
    solve = report["solve_s"]
    ok = len(solve)
    metrics = {}
    if ok:
        value, rank, count = tail(solve)
        metrics = {
            "setup_s": statistics.median(setups),
            "solve_s": statistics.median(solve),
            "solve_s_tail": value,
            "verify_s": statistics.median(report["verify_s"]),
            "ops_per_s": (ok / report["attempted"]
                          / statistics.median(report["op_s"])),
            "err_sup": statistics.median(report["variant_err_sup"]),
            "peak_rss_mib": report["peak_rss_mib"],
        }
        report["solve_s_tail_rank"] = f"{rank} of {count}"
    report["setup_samples_s"] = setups
    return report, {k: (v, UNITS[k]) for k, v in metrics.items()}


def trace(args):
    """Traced run: per-layer metrics."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
    proc, _ = ready_worker(args, "trace", ("--spans", str(spans)))
    report = json.loads(
        finish(proc, args.seconds + RUN_TIMEOUT_SLACK_S).splitlines()[-1])
    layers = dict(report.pop("layers"))
    layers.update(src_sizes())
    return report, {k: (v, layer_unit(k)) for k, v in layers.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "wkbmarch" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2

    try:
        report, metrics = (trace if args.trace else measure)(args)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = report["attempted"]
    failed = report["failed"]
    report.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  h0_factors=WORKLOADS[args.workload].h0_factors(args.seed),
                  machine=machine(report.pop("numpy")),
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")

    m = report["machine"]
    print(f"# {args.workload} seed {args.seed}: python {m['python']}, "
          f"numpy {m['numpy']}, nproc {m['nproc']}, {m['cpu']}, "
          f"commit {m['commit']}")
    if "solve_s_tail_rank" in report:
        print(f"# solve_s_tail is sample {report['solve_s_tail_rank']} "
              f"in ascending order")
    print(f"# failed_frac {failed / attempted:.6g} ({failed} of "
          f"{attempted}); details in {path.relative_to(ROOT)}")
    for err in report["errors"]:
        print(f"# failure: {err}")
    finite = all(math.isfinite(v) for v, _ in metrics.values())
    correct = (failed == 0 and report["warmup_error"] is None
               and bool(metrics) and finite)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
