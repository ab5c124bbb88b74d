"""Every end-to-end and per-layer metric of every workload, in one table.

    python3 bench/report.py --seed 0 --seconds 20

Runs bench/run.py once untraced and once traced per workload, from the
repository root, and prints one row per metric with its unit and one
column per workload. End-to-end rows come from the untraced runs only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=BENCH.parent, stdout=subprocess.PIPE,
                         text=True, check=True).stdout.splitlines()
    for line in out[:-1]:
        print(line)
    return json.loads(out[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    names = list(WORKLOADS)
    results = {(w, t): run(w, args.seed, args.seconds, t)
               for w in names for t in (0, 1)}
    print()
    print(f"{'metric':34s} {'unit':12s}" + "".join(f"{w:>14s}" for w in names))
    for trace in (0, 1):
        print("# end to end" if trace == 0 else "# per layer (traced run)")
        for metric, entry in results[names[0], trace]["metrics"].items():
            row = [results[w, trace]["metrics"][metric]["value"]
                   for w in names]
            print(f"{metric:34s} {entry['unit']:12s}"
                  + "".join(f"{v:14.6g}" for v in row))
    print("# checks, untraced and traced run")
    for key in ("attempted", "failed", "correct"):
        print(f"{key:34s} {'':12s}" + "".join(
            f"{results[w, 0][key]!s:>7s}{results[w, 1][key]!s:>7s}"
            for w in names))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
