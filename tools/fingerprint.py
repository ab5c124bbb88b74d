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
  - `edge/<case>/<method>/<phase>`: the rejection branches no key above
    reaches, a grid point without a record and an inadmissible step, at
    Tol 1e-6 under every method and both phase modes:
    `airy-origin`, Airy eps 1 on [0, 10] from h0 0.5, with no record at
    x = 0; `near-turning`, a = 1e-10 + x^2 on [-1, 1], eps 1, h0 1, the
    CLI's `poly:1e-10,0,1` run (one grid point without a record, x = 0;
    `near-turning/rkwkbmod/cc` is the key that reaches the
    inadmissible-step branch, with 2 inadmissible RKWKB trials, 10
    accepted and 5 rejected); `tiny-start`, a = x on [1e-200, 1] with
    tau_guard 1e-300, initial (1, 0) and h0 0.5, with Airy's closed-form
    phase (a start point without a record: under both oscillatory
    methods, 5 accepted and 2 rejected trials, all RKF45); `stiff-rk`,
    a = 1 on [0, 10] at eps 1e-60 from h0 1, the CLI's `poly:1` run, where
    the RKF45 stages overflow and every RKF45 pair is non-finite (with the
    cc phase, `wkb+rkf45` and `rkwkbmod` take 4 accepted and 0 rejected
    trials, none of them won by RKF45, and `rkf45` ends in `SolverError`).
  A run that raises `SolverError` or `ValueError` hashes the error's
  name; `near-turning` and `stiff-rk` have no closed-form phase, so their
  exact-phase runs raise `ValueError`, but for `rkf45`, which reads no
  phase.
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
* `estimator`: a sha256 (first 16 hex digits) over float.hex of every
  float of the rows (strings as they are), or the name of the error
  raised, for
  - `hsweep/<tag>/<phase>`: `estimator_h_sweep` on Airy eps 1 from
    x0 = 10 over 13 geometric h in [1e-3, 1], for the tags `WKB`, `RKWKB`
    and `RKF45` in both phase modes;
  - `study/<method>/<phase>`: `estimator_study` on Airy eps 1 on
    [0.1, 50] at Tol 1e-6 from h0 0.5, for `wkb+rkf45` and `rkwkbmod` in
    both phase modes.
  Both restart single steps from the exact solution through
  `control._pair`, as `integrate` steps.

`--against DIR` runs the same on DIR in a fresh interpreter and prints,
per key, whether the two agree; for the march, the number of nodes that
moved and the largest relative move |d phi| / |phi| and |d phi'| / |phi'|.
It exits 1 when an `integrate`, a `verify`, a `reference` or an
`estimator` fingerprint differs or a `march` node moved.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1, 2)
LONG_STRIDE = 16
METHODS = ("wkb+rkf45", "rkwkbmod", "rkf45")
PHASES = ("exact", "cc")
# Single-step sizes of the `estimator` h sweep: 13 geometric in [1e-3, 1].
SWEEP_H = tuple(10.0 ** (j / 4 - 3) for j in range(13))
SWEEP_TAGS = ("WKB", "RKWKB", "RKF45")
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
    from wkbmarch import (SolverConfig, SolverError, WaveState,
                          estimator_h_sweep, estimator_study, global_error,
                          integrate, make_airy_problem, make_pcf_problem,
                          make_polynomial_problem, march_fixed_grid,
                          reference)

    def solve(problem, config):
        """The trajectory, or the name of the error raised."""
        try:
            return integrate(problem, config)
        except (SolverError, ValueError) as exc:
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
    tiny = make_airy_problem(1.0, 1e-200, 1.0)
    edges = {
        "edge/airy-origin": (make_airy_problem(1.0, 0.0, 10.0), 0.5),
        "edge/near-turning": (make_polynomial_problem(
            [1e-10, 0.0, 1.0], 1.0, (-1.0, 1.0)), 1.0),
        "edge/tiny-start": (dataclasses.replace(
            tiny, initial=WaveState(tiny.x_start, 1.0 + 0j, 0j),
            tau_guard=1e-300), 0.5),
        "edge/stiff-rk": (make_polynomial_problem(
            [1.0], 1e-60, (0.0, 10.0)), 1.0)}
    for label, (problem, h0) in {**problems, **edges}.items():
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

    def audit(fn, *args) -> str:
        """The digest of fn's rows, or the name of the error raised."""
        try:
            rows = fn(*args)
        except (SolverError, ValueError) as exc:
            return type(exc).__name__
        return _digest([v.hex() if isinstance(v, float) else v
                        for v in row] for row in rows)

    estimator = {}
    for phase in PHASES:
        for tag in SWEEP_TAGS:
            estimator[f"hsweep/{tag}/{phase}"] = audit(
                estimator_h_sweep, problems["airy"][0], 10.0, SWEEP_H, tag,
                phase)
        # An rkf45 run has no oscillatory step to audit.
        for method in ("wkb+rkf45", "rkwkbmod"):
            estimator[f"study/{method}/{phase}"] = audit(
                estimator_study, problems["airy"][0],
                SolverConfig(tol=1e-6, h0=0.5, method=method, phase=phase))
    return {"integrate": prints, "verify": verified,
            "reference": reference_states, "march": march,
            "estimator": estimator}


def _complex(re_hex: str, im_hex: str) -> complex:
    return complex(float.fromhex(re_hex), float.fromhex(im_hex))


def compare(mine: dict, theirs: dict) -> int:
    differs = 0
    for kind in ("integrate", "verify", "reference", "estimator"):
        for key, value in mine[kind].items():
            same = theirs[kind].get(key) == value
            differs += not same
            print(f"{kind} {key}: {'same' if same else 'DIFFERS'}")
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
