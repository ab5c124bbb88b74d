"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that names keep to [A-Za-z0-9_.-], that a non-finite trajectory and an op
raising SolverError count as failed, and that traced spans nest inside
their parents with no negative self time.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import OP, Tracer, self_times  # noqa: E402
from worker import _summary, run_op  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _emitted(trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", "long-cc",
           "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         check=True, timeout=170).stdout
    return json.loads(out.splitlines()[-1])


class MetricsEmitted(unittest.TestCase):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def check(self, trace: int, section: str):
        result = _emitted(trace)
        self.assertTrue(result["correct"])
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        declared = {m["name"]: m["unit"] for m in self.spec[section]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(emitted, declared)
        for name, entry in result["metrics"].items():
            self.assertTrue(math.isfinite(entry["value"]), name)

    def test_end_to_end(self):
        self.check(0, "end_to_end")

    def test_per_layer(self):
        self.check(1, "per_layer")

    def test_names(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for section in ("end_to_end", "per_layer"):
            names += [m["name"] for m in self.spec[section]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
            self.assertEqual(NAME.fullmatch(name).group(), name)


class _Traj:
    """Stand-in trajectory: accepted records with the given phi values."""

    def __init__(self, *phis):
        self.records = [SimpleNamespace(state=SimpleNamespace(phi=p, dphi=0j))
                        for p in phis]
        self.accepted = len(phis)
        self.rejected = 0


class FailureCounting(unittest.TestCase):
    def op(self, solve, err=1e-9):
        return run_op(None, None, 1e-6, solve, lambda *a: err)

    def test_counts(self):
        from wkbmarch import SolverError

        def raises(problem, config):
            raise SolverError("too many rejections")

        results = [
            self.op(lambda p, c: _Traj(1 + 0j, complex(math.nan, 0.0))),
            self.op(raises),
            self.op(lambda p, c: _Traj(1 + 0j), err=1e-3),
            self.op(lambda p, c: _Traj(1 + 0j)),
        ]
        self.assertIn("non-finite", results[0].error)
        self.assertIn("SolverError", results[1].error)
        self.assertIn("ceiling", results[2].error)
        self.assertIsNone(results[3].error)
        summary = _summary(results)
        self.assertEqual((summary["attempted"], summary["failed"]), (4, 3))
        self.assertEqual(len(summary["solve_s"]), 1)


class SpanNesting(unittest.TestCase):
    def test_traced_op(self):
        import wkbmarch
        problem = wkbmarch.make_airy_problem(1.0, 0.1, 20.0)
        config = wkbmarch.SolverConfig(tol=1e-6, h0=0.5, phase="cc")
        tracer = Tracer()
        uninstall = tracer.install()
        try:
            tracer.op = 0
            res = tracer.span(OP, run_op, problem, config, 1e-3,
                              wkbmarch.integrate, wkbmarch.global_error,
                              tracer.span)
        finally:
            uninstall()
        self.assertIsNone(res.error)
        self.assertIs(wkbmarch.control.rkf45_step, wkbmarch.rk45.rkf45_step)
        spans = tracer.spans
        names = {s[0] for s in spans}
        self.assertTrue({"control.integrate", "wkb_core.assemble_step_matrices",
                         "phase.clenshaw_curtis", "problem.jet",
                         "reference.airy_pair"} <= names)
        self.assertEqual(spans[0][3], -1)
        for name, start, end, parent, op in spans:
            self.assertLessEqual(start, end)
            self.assertEqual(op, 0)
            if parent >= 0:
                _, p_start, p_end, _, _ = spans[parent]
                self.assertLessEqual(p_start, start, name)
                self.assertLessEqual(end, p_end, name)
        self.assertGreaterEqual(min(self_times(spans)), 0.0)


if __name__ == "__main__":
    unittest.main()
