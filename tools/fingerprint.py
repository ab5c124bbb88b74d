"""Bit fingerprints of the solver's trajectories, to check bit identity.

    python3 tools/fingerprint.py                      # this checkout
    python3 tools/fingerprint.py --root DIR           # another checkout
    python3 tools/fingerprint.py --against DIR        # compare with DIR

The package is imported from `<root>/src` and the workload table from
`<root>/bench/workloads.py`; nothing is written under either. Output is
one JSON object:

* `integrate`: for each key, a sha256 (first 16 hex digits) over float.hex
  of every StepRecord field (index, x, h, method, est, theta, state.x,
  state.phi, state.dphi) and the rejected count, over the runs the key
  names:
  - `<workload>/<seed>`: every h0 variant of seeds 0-2 on `airy-mixed` and
    `pcf-rival`, and on `long-cc` the seed-0 variant and every 16th
    variant of seeds 1-2;
  - `<problem>/<method>/<phase>`: Airy eps 1 on [0.1, 50] and PCF eps 2^-6
    on [0.01, 1.99] at Tol 1e-6, under every method and both phase modes.
  A run that raises `SolverError` hashes the error's name.
* `verify`: for each `<workload>/<seed>` key above, over its runs, the
  float.hex of `global_error` under `sup` and under `l2rel`, and a sha256
  (first 16 hex digits) over float.hex of the exact phi at every accepted
  node, read through `reference.exact_solution` as `global_error` reads
  it: one batch call per run.
* `reference`: the full-state exact solution `problem.exact(x)` of Airy
  eps 1 at fixed points on both routes (t <= 50 and t > 50, up to 1e8)
  and of PCF eps 2^-6 at fixed points of [0.01, 1.99]; each point as
  float.hex of (phi, phi').
* `march`: `march_fixed_grid` on Airy eps 1 over 9 equally spaced points
  of [1, 2], orders 1 and 2, both phase modes; each node as float.hex of
  (x, phi, phi').

`--against DIR` runs the same on DIR in a fresh interpreter and prints,
per key, whether the two agree; for the march, the number of nodes that
moved and the largest relative move |d phi| / |phi| and |d phi'| / |phi'|.
It exits 1 when an `integrate`, a `verify` or a `reference` fingerprint
differs or a `march` node moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2)
LONG_STRIDE = 16
METHODS = ("wkb+rkf45", "rkwkbmod", "rkwkb", "rkf45")
PHASES = ("exact", "cc")
# Points of the `reference` key: Airy eps 1 (t = x) on both sides of the
# seam at t = 50, and PCF eps 2^-6 inside its interval.
AIRY_POINTS = (0.0, 0.1, 1.0, 17.3, 49.99, 50.0, 50.00000000000001, 50.1,
               123.456, 1e3, 1e5, 1e6, 12345678.9, 1e8)
PCF_POINTS = (0.01, 0.2, 0.5, 0.999, 1.0, 1.37, 1.8, 1.99)


def _digest(runs) -> str:
    h = hashlib.sha256()
    for run in runs:
        h.update(("\n".join(run) + "\n;\n").encode())
    return h.hexdigest()[:16]


def collect(root: Path) -> dict:
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    from workloads import WORKLOADS
    from wkbmarch import (SolverConfig, SolverError, global_error,
                          integrate, make_airy_problem, make_pcf_problem,
                          march_fixed_grid, reference)

    def solve(problem, config):
        """The trajectory, or the name of the SolverError raised."""
        try:
            return integrate(problem, config)
        except SolverError as exc:
            return type(exc).__name__

    def lines(traj) -> list[str]:
        if isinstance(traj, str):
            return [traj]
        out = [str(traj.rejected)]
        for r in traj.records:
            s = r.state
            out += [str(r.index), r.x.hex(), r.h.hex(), r.method,
                    r.est.hex(), r.theta.hex(), s.x.hex(), s.phi.real.hex(),
                    s.phi.imag.hex(), s.dphi.real.hex(), s.dphi.imag.hex()]
        return out

    def run(problem, config) -> list[str]:
        return lines(solve(problem, config))

    def verify(problem, trajs) -> dict:
        checks = {"sup": [], "l2rel": []}
        phis = []
        for traj in trajs:
            if isinstance(traj, str):
                phis.append([traj])
                continue
            for norm, values in checks.items():
                values.append(global_error(traj, problem, norm).hex())
            phis.append([part.hex() for phi in reference.exact_solution(
                problem, [s.x for s in traj.states])
                for part in (phi.real, phi.imag)])
        checks["phi"] = _digest(phis)
        return checks

    prints = {}
    verified = {}
    for name, w in WORKLOADS.items():
        problem = w.make_problem()
        for seed in SEEDS:
            factors = w.h0_factors(seed)
            if name == "long-cc" and seed:
                factors = factors[::LONG_STRIDE]
            trajs = [solve(problem, w.config(f)) for f in factors]
            prints[f"{name}/{seed}"] = _digest(map(lines, trajs))
            verified[f"{name}/{seed}"] = verify(problem, trajs)
    problems = {"airy": (make_airy_problem(1.0, 0.1, 50.0), 0.5),
                "pcf": (make_pcf_problem(2.0 ** -6, 0.01, 1.99), 0.05)}
    for label, (problem, h0) in problems.items():
        for method in METHODS:
            for phase in PHASES:
                config = SolverConfig(tol=1e-6, h0=h0, method=method,
                                      phase=phase)
                prints[f"{label}/{method}/{phase}"] = _digest(
                    [run(problem, config)])

    def states(problem, xs) -> list[list[str]]:
        out = []
        for x in xs:
            s = problem.exact(x)
            out.append([s.phi.real.hex(), s.phi.imag.hex(),
                        s.dphi.real.hex(), s.dphi.imag.hex()])
        return out

    reference_states = {
        "airy": states(make_airy_problem(1.0, 0.1, 1e8), AIRY_POINTS),
        "pcf": states(problems["pcf"][0], PCF_POINTS)}

    airy = make_airy_problem(1.0, 1.0, 2.0)
    xs = [1.0 + j / 8 for j in range(9)]
    march = {}
    for order in (1, 2):
        for phase in PHASES:
            march[f"airy/order{order}/{phase}"] = [
                [s.x.hex(), s.phi.real.hex(), s.phi.imag.hex(),
                 s.dphi.real.hex(), s.dphi.imag.hex()]
                for s in march_fixed_grid(airy, xs, order, phase)]
    return {"integrate": prints, "verify": verified,
            "reference": reference_states, "march": march}


def _complex(re_hex: str, im_hex: str) -> complex:
    return complex(float.fromhex(re_hex), float.fromhex(im_hex))


def compare(mine: dict, theirs: dict) -> int:
    differs = 0
    for key, value in mine["integrate"].items():
        same = theirs["integrate"].get(key) == value
        differs += not same
        print(f"integrate {key}: {'same' if same else 'DIFFERS'}")
    for key, value in mine["verify"].items():
        same = theirs["verify"].get(key) == value
        differs += not same
        print(f"verify {key}: {'same' if same else 'DIFFERS'}")
    for key, value in mine["reference"].items():
        same = theirs["reference"].get(key) == value
        differs += not same
        print(f"reference {key}: {'same' if same else 'DIFFERS'}")
    for key, nodes in mine["march"].items():
        moved, rel_phi, rel_dphi = 0, 0.0, 0.0
        for a, b in zip(nodes, theirs["march"][key]):
            moved += a != b
            pa, pb = _complex(*a[1:3]), _complex(*b[1:3])
            da, db = _complex(*a[3:5]), _complex(*b[3:5])
            rel_phi = max(rel_phi, abs(pa - pb) / abs(pb))
            rel_dphi = max(rel_dphi, abs(da - db) / abs(db))
        differs += moved
        print(f"march {key}: {moved} of {len(nodes)} nodes moved, "
              f"max rel move phi {rel_phi:.2e}, phi' {rel_dphi:.2e}")
    return 1 if differs else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout to fingerprint (default: this one)")
    parser.add_argument("--against", type=Path, default=None,
                        help="checkout to compare the fingerprints with")
    args = parser.parse_args(argv)
    mine = collect(args.root.resolve())
    if args.against is None:
        print(json.dumps(mine, indent=1))
        return 0
    theirs = json.loads(subprocess.run(
        [sys.executable, __file__, "--root", str(args.against.resolve())],
        check=True, capture_output=True, text=True).stdout)
    return compare(mine, theirs)


if __name__ == "__main__":
    sys.exit(main())
