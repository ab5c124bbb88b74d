"""Paired bench runs of this checkout against another one, from fresh copies.

    python3 tools/benchpairs.py --against DIR --workload airy-mixed \
        --pairs 10 --first-seed 401 --seconds 4 --out pairs.json
    python3 tools/benchpairs.py ... --abtime run1.json --abtime run2.json

Pair k runs `bench/run.py --workload W --seed <first-seed + k> --seconds S`
once on each side, each time in a fresh copy of that side's tree made for
that run alone (bench/run.py's `verify_s` follows the directory a run is
in, so a fixed copy can read about 10% off for either side). The side
that runs first alternates, DIR first in pair 0. A copy holds the side's
files without `.git`, caches and `bench/out`, in a temporary directory,
and is deleted after its run.

Per workload and end-to-end metric of `<root>/BENCHMARK.json` the output
lists every pair (DIR's value, then this checkout's) and a summary: the
median of each side, the change of the medians, DIR's interquartile range
as a fraction of its median, the pairs this checkout won (strictly better
in the metric's direction), and `resolved`: won in at least 9 of 10 pairs
and a median gap larger than DIR's interquartile range. It also records
the ops that failed and the largest relative move of `err_sup` in a pair.

`--abtime FILE` (repeatable) adds the per-row median ratio, rounds won and
best times of `tools/abtime.py --out FILE` runs, so that one JSON file
holds a change's paired measurements. Nothing is written under either
tree.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                              ".pytest_cache", "out", "*.pyc")


def bench_once(tree: Path, workdir: Path, workload: str, seed: int,
               seconds: float) -> dict:
    """The last stdout line of one bench run in a fresh copy of tree."""
    copy = Path(tempfile.mkdtemp(dir=workdir)) / "tree"
    shutil.copytree(tree, copy, ignore=SKIP)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds)],
            cwd=copy, capture_output=True, text=True)
    finally:
        shutil.rmtree(copy.parent)
    if proc.returncode != 0:
        raise SystemExit(f"bench run failed in {tree}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(pairs, better: dict) -> dict:
    out = {}
    for name, direction in better.items():
        theirs = [p[name][0] for p in pairs]
        mine = [p[name][1] for p in pairs]
        med_t, med_m = statistics.median(theirs), statistics.median(mine)
        q1, q3 = quartiles(theirs)
        sign = 1.0 if direction == "lower" else -1.0
        won = sum(sign * (m - t) < 0 for t, m in zip(theirs, mine))
        out[name] = {
            "median_against": med_t, "median_this": med_m,
            "change": med_m / med_t - 1.0 if med_t else None,
            "iqr_frac_against": (q3 - q1) / med_t if med_t else None,
            "pairs_won": won, "pairs": len(pairs),
            "resolved": (won >= 0.9 * len(pairs)
                         and abs(med_m - med_t) > q3 - q1)}
    return out


def run_pairs(root: Path, against: Path, workload: str, pairs: int,
              first_seed: int, seconds: float, workdir: Path,
              better: dict) -> dict:
    rows, first, failed = [], [], []
    for k in range(pairs):
        seed = first_seed + k
        order = (("against", against), ("this", root))
        if k % 2:
            order = order[::-1]
        first.append(order[0][0])
        got = {side: bench_once(tree, workdir, workload, seed, seconds)
               for side, tree in order}
        rows.append({name: [got["against"]["metrics"][name]["value"],
                            got["this"]["metrics"][name]["value"]]
                     for name in better})
        failed.append([got["against"]["failed"], got["this"]["failed"]])
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{n} {a:.4g} -> {b:.4g}" for n, (a, b) in rows[-1].items()),
            file=sys.stderr)
    err_moves = [abs(m / t - 1.0) if t else abs(m - t)
                 for t, m in (r["err_sup"] for r in rows)]
    return {"seeds": list(range(first_seed, first_seed + pairs)),
            "first": first, "failed_ops": failed,
            "err_sup_max_rel_move": max(err_moves),
            "pairs": rows, "summary": summarize(rows, better)}


def abtime_summary(path: Path) -> dict:
    data = json.loads(path.read_text())
    return {"commits": data["commits"], "rounds": data["rounds"],
            "rows": {name: {"median_ratio": row["median_ratio"],
                            "rounds_won": row["rounds_won"],
                            "best_us_this": row["best_us"]["this"],
                            "best_us_against": row["best_us"]["against"]}
                     for name, row in data["rows"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--against", type=Path, required=True,
                    help="tree to pair this checkout with")
    ap.add_argument("--workload", action="append", default=[],
                    help="workload to run (repeatable)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("--abtime", type=Path, action="append", default=[],
                    help="a tools/abtime.py --out file to summarize")
    ap.add_argument("--description", default="")
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for the quartiles")
    root, against = ROOT, args.against.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    result = {"description": args.description,
              "machine": {"python": platform.python_version(),
                          "machine": platform.machine(),
                          "processor": platform.processor() or None},
              "bench_pairs": {"how": (
                  f"python3 bench/run.py --workload <w> --seed <s> "
                  f"--seconds {args.seconds:g}, each run in a fresh copy "
                  f"of its side; values are [against, this]"),
                  "workloads": {}},
              "abtime": {f"run{k + 1}": abtime_summary(path)
                         for k, path in enumerate(args.abtime)}}
    with tempfile.TemporaryDirectory() as workdir:
        for workload in args.workload:
            result["bench_pairs"]["workloads"][workload] = run_pairs(
                root, against, workload, args.pairs, args.first_seed,
                args.seconds, Path(workdir), better)
    text = json.dumps(result, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
