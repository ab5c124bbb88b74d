"""Paired in-process A/B timing of this checkout against another one.

    python3 tools/abtime.py --against DIR            # this checkout vs DIR
    python3 tools/abtime.py --against DIR --rounds 60 --out ab.json

Both packages are loaded into one process, each under its own module
objects: `<root>/src` first, then, with every `wkbmarch*` entry dropped from
`sys.modules`, `<DIR>/src`. Each round times every row once per side, and
the side that runs first alternates from round to round. A row's ratio in
one round is this checkout's time over DIR's, so a ratio below 1 means this
checkout was faster. Per row the script prints the median ratio over the
rounds, the rounds this checkout won and the best time per side; `--out`
writes the same with every raw ratio and time as JSON.

Rows. The workload table is `<root>/bench/workloads.py`; nothing is written
under either tree.
* `<workload>/integrate`: one `integrate` of the workload's seed-0 setting.
* `<workload>/global_error`: `global_error(..., "sup")` over that side's own
  trajectory of the same setting.
* `<workload>/global_error_without_numpy`: the same with
  `sys.modules["numpy"]` set to None for the call and restored after it,
  so the batch and the norm take their numpy-free paths.
* `<workload>/exact_batch`: the provider's batch `problem.exact.phis(xs)`
  at the nodes of that trajectory, as the sup norm receives it (a complex
  array with numpy, where the provider answers in arrays), without the
  conversion to a list that `exact_solution` adds.
* `<workload>/exact_solution`: `reference.exact_solution` at the nodes of
  that same trajectory, the batch lookup that `global_error` makes, without
  the norm.
* `<workload>/exact_solution_without_numpy`: the same batch with
  `sys.modules["numpy"]` set to None for the call and restored after it,
  so the reference layer takes its numpy-free path.
* `airy-mixed/horner_batch` and `pcf-rival/horner_batch`: the batch
  Horner kernel alone, on the coefficient rows and hops that this
  exact_solution batch hands it (complex Airy rows, real PCF rows). Each
  side times the kernel it calls: the plain pass `reference._horner_rows`
  where it exists, else the compensated `_dd_horner_rows`, else
  `_dd_horner` on numpy arrays in a checkout that has no batch kernel of
  its own. So the pair compares the two kernels.
* `airy-mixed/exact_state` and `pcf-rival/exact_state`: one full-state
  query `problem.exact(x)` of the workload's problem, at x = 10 on Airy
  and x = 1.3 on PCF: a value and a derivative Horner hop over the
  continuation table.
* Per-call kernels, on the `airy-mixed` problem (Airy eps 1, exact phase)
  and the `pcf-rival` one (PCF eps 2^-6, exact phase):
  `eval_bk` at x = 10; the WKB `control._pair` over [10, 10.25];
  `rkf45_step` from x = 2 by 0.05; `wkb_basis` at x = 1 and `rkwkb_step`
  over [1, 1.001] on PCF, the basis-fit kernels of `rkwkbmod`.
* `cc_increment`: `PhaseProvider(<long-cc problem>, "cc").increment` over
  the last step of that side's seed-0 `long-cc` trajectory, one
  Clenshaw-Curtis rule.
Each sample repeats its call as often as this checkout needs for about
SAMPLE_S seconds (the same count on both sides) and keeps the mean per
call.
Every row is warmed once per side before the first round, so table growth
in the reference layer is not timed. The cyclic garbage collector is off
while a sample runs, as in `timeit`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SAMPLE_S = 0.02  # long enough that timer resolution and jitter are small
# Workload -> the point of its exact_state row.
EXACT_STATE_AT = {"airy-mixed": 10.0, "pcf-rival": 1.3}


def load(root: Path) -> dict:
    """Import `<root>/src/wkbmarch` afresh; its modules by name."""
    for name in [n for n in sys.modules if n.split(".")[0] == "wkbmarch"]:
        del sys.modules[name]
    sys.path.insert(0, str(root / "src"))
    try:
        importlib.import_module("wkbmarch")
        for sub in ("control", "reference", "rk45", "rkwkb", "wkb_core"):
            importlib.import_module(f"wkbmarch.{sub}")
    finally:
        sys.path.remove(str(root / "src"))
    mods = {n: m for n, m in sys.modules.items()
            if n.split(".")[0] == "wkbmarch"}
    if not Path(mods["wkbmarch"].__file__).resolve().is_relative_to(
            root.resolve()):
        raise SystemExit(f"wkbmarch did not load from {root}")
    return mods


def activate(mods: dict) -> None:
    """Point `sys.modules` at one side's package, for imports made inside
    its functions and for the workload table's factories."""
    sys.modules.update(mods)


def horner_batch(reference, problem, xs):
    """A zero-argument call of the side's batch Horner kernel on the
    arguments that one exact_solution batch at xs hands it."""
    name = next(n for n in ("_horner_rows", "_dd_horner_rows", "_dd_horner")
                if hasattr(reference, n))
    kernel, calls = getattr(reference, name), []

    def record(*args):
        calls.append(args)
        return kernel(*args)

    setattr(reference, name, record)
    try:
        reference.exact_solution(problem, xs)
    finally:
        setattr(reference, name, kernel)
    # Table growth calls _dd_horner with one float hop; the batch's first
    # call with no float argument is the kernel's entry.
    args = next(a for a in calls
                if not any(isinstance(x, float) for x in a))
    return lambda: kernel(*args)


def without_numpy(fn):
    """`fn` as a call that runs with numpy unimportable."""
    def call():
        saved = sys.modules.get("numpy")
        sys.modules["numpy"] = None
        try:
            return fn()
        finally:
            if saved is None:
                del sys.modules["numpy"]
            else:
                sys.modules["numpy"] = saved
    return call


def rows_for(mods: dict, workloads) -> dict:
    """Each row's zero-argument callable on one side's package."""
    activate(mods)
    pkg, control = mods["wkbmarch"], mods["wkbmarch.control"]
    reference = mods["wkbmarch.reference"]
    wkb_core, rkwkb = mods["wkbmarch.wkb_core"], mods["wkbmarch.rkwkb"]
    rk45, WaveState = mods["wkbmarch.rk45"], pkg.WaveState
    rows, runs = {}, {}
    for name, w in workloads.items():
        problem, config = w.make_problem(), w.config(w.h0_factors(0)[0])
        traj = pkg.integrate(problem, config)
        runs[name] = problem, traj
        rows[f"{name}/integrate"] = (
            lambda p=problem, c=config: pkg.integrate(p, c))
        rows[f"{name}/global_error"] = (
            lambda t=traj, p=problem: pkg.global_error(t, p, "sup"))
        rows[f"{name}/global_error_without_numpy"] = without_numpy(
            rows[f"{name}/global_error"])
        xs = [s.x for s in traj.states]
        rows[f"{name}/exact_batch"] = lambda p=problem, xs=xs: p.exact.phis(xs)
        rows[f"{name}/exact_solution"] = (
            lambda p=problem, xs=xs: reference.exact_solution(p, xs))
        rows[f"{name}/exact_solution_without_numpy"] = without_numpy(
            rows[f"{name}/exact_solution"])
        if name in EXACT_STATE_AT:
            rows[f"{name}/horner_batch"] = horner_batch(reference, problem,
                                                        xs)
            rows[f"{name}/exact_state"] = (
                lambda p=problem, x=EXACT_STATE_AT[name]: p.exact(x))
    airy = workloads["airy-mixed"].make_problem()
    pcf = workloads["pcf-rival"].make_problem()
    airy_phase = pkg.PhaseProvider(airy, "exact")
    pcf_phase = pkg.PhaseProvider(pcf, "exact")
    state = WaveState(10.0, 1.0 + 0.5j, -0.3 + 2.0j)
    left, right = wkb_core.eval_bk(airy, 10.0), wkb_core.eval_bk(airy, 10.25)
    rk_state = WaveState(2.0, 1.0 + 0.5j, -0.3 + 2.0j)
    b_state = WaveState(1.0, 1.0 + 0.5j, -0.3 + 2.0j)
    b_left, b_right = rkwkb.wkb_basis(pcf, 1.0), rkwkb.wkb_basis(pcf, 1.001)
    rows["eval_bk"] = lambda: wkb_core.eval_bk(airy, 10.0)
    rows["wkb_pair"] = lambda: control._pair(
        control.TAG_WKB, airy, airy_phase, state, 0.25, left, right)
    rows["rkf45_step"] = lambda: rk45.rkf45_step(airy, rk_state, 0.05)
    rows["wkb_basis"] = lambda: rkwkb.wkb_basis(pcf, 1.0)
    rows["rkwkb_step"] = lambda: rkwkb.rkwkb_step(pcf, pcf_phase, b_left,
                                                  b_right, b_state)
    long_cc, traj = runs["long-cc"]
    cc_phase = pkg.PhaseProvider(long_cc, "cc")
    x0, x1 = traj.records[-2].x, traj.records[-1].x
    rows["cc_increment"] = lambda: cc_phase.increment(x0, x1)
    return rows


def sample(fn, repeat: int) -> float:
    """Mean seconds per call over `repeat` calls, collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(repeat):
            fn()
        return (time.perf_counter() - start) / repeat
    finally:
        if enabled:
            gc.enable()


def commit(root: Path):
    """HEAD of a git work tree, with "+changes" when its files differ from
    HEAD; None for a tree without .git, such as a `git archive` export."""
    if not (root / ".git").exists():
        return None

    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args],
                              capture_output=True, text=True).stdout.strip()
    head = git("rev-parse", "HEAD") or None
    if head and git("status", "--porcelain", "--untracked-files=no"):
        head += "+changes"
    return head


def versions() -> dict:
    try:
        import numpy
        np_version = numpy.__version__
    except ImportError:
        np_version = None
    return {"python": platform.python_version(), "numpy": np_version,
            "machine": platform.machine(),
            "processor": platform.processor() or None}


def run(root: Path, against: Path, rounds: int) -> dict:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(root / "bench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(root / "bench"))
    mine_mods = load(root)
    mine = rows_for(mine_mods, WORKLOADS)
    theirs_mods = load(against)
    theirs = rows_for(theirs_mods, WORKLOADS)
    sides = ((mine_mods, mine), (theirs_mods, theirs))
    repeats = {}
    for name in mine:
        for mods, rows in sides:  # warm both sides
            activate(mods)
            rows[name]()
        activate(mine_mods)
        once = sample(mine[name], 1)
        repeats[name] = max(1, math.ceil(SAMPLE_S / max(once, 1e-9)))
    times = {name: ([], []) for name in mine}
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for name in mine:
            for side in order:
                mods, rows = sides[side]
                activate(mods)
                times[name][side].append(sample(rows[name], repeats[name]))
    result = {}
    for name, (t_mine, t_theirs) in times.items():
        ratios = [a / b for a, b in zip(t_mine, t_theirs)]
        result[name] = {
            "repeat": repeats[name],
            "median_ratio": statistics.median(ratios),
            "rounds_won": sum(q < 1.0 for q in ratios),
            "rounds": len(ratios),
            "best_us": {"this": 1e6 * min(t_mine),
                        "against": 1e6 * min(t_theirs)},
            "ratios": ratios,
            "us": {"this": [1e6 * t for t in t_mine],
                   "against": [1e6 * t for t in t_theirs]}}
    return {"commits": {"this": commit(root), "against": commit(against)},
            "versions": versions(), "rounds": rounds, "sample_s": SAMPLE_S,
            "rows": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--against", type=Path, required=True,
                        help="checkout to time this one against")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout taken as this one (default: here)")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON result to this file")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be positive")
    out = run(args.root.resolve(), args.against.resolve(), args.rounds)
    print(f"{'row':40} {'ratio':>7} {'won':>7} {'best this':>11} "
          f"{'best against':>13}  (us per call)")
    for name, row in out["rows"].items():
        print(f"{name:40} {row['median_ratio']:7.3f} "
              f"{row['rounds_won']:>3}/{row['rounds']:<3} "
              f"{row['best_us']['this']:11.1f} "
              f"{row['best_us']['against']:13.1f}")
    if args.out is not None:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
