"""Spans around the calls into each layer, recorded from outside the package.

`Tracer.install` replaces the public entry points of each module at the
place where their callers look them up (a module global or a class
attribute) with a wrapper that records one span per call, and returns a
function that puts the originals back. Spans stay in memory as tuples
(name, start, end, parent, op) and are written out once, at the end of a
run. A span's parent is the innermost span open when it started; the
benchmark's own op span is the root of each op.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import time
from collections import defaultdict

# (module, owner inside the module or None, attribute, span name). Where a
# caller imported a function by name, that caller's module is patched too.
TRACE_POINTS = (
    ("control", None, "wkb_step_pair", "wkb_core.wkb_step_pair"),
    ("control", None, "rkf45_step", "rk45.rkf45_step"),
    ("control", None, "rkwkb_step", "rkwkb.rkwkb_step"),
    ("control", None, "to_U", "wkb_core.to_U"),
    ("control", None, "to_Z", "wkb_core.to_Z"),
    ("control", None, "from_Z", "wkb_core.from_Z"),
    ("wkb_core", None, "assemble_step_matrices",
     "wkb_core.assemble_step_matrices"),
    ("wkb_core", None, "b_jet", "wkb_core.b_jet"),
    ("wkb_core", None, "eval_bk", "wkb_core.eval_bk"),
    ("wkb_core", None, "from_U", "wkb_core.from_U"),
    ("rkwkb", None, "b_jet", "wkb_core.b_jet"),
    ("rkwkb", None, "wkb_basis", "rkwkb.wkb_basis"),
    ("phase", "PhaseProvider", "increment", "phase.increment"),
    ("phase", None, "clenshaw_curtis", "phase.clenshaw_curtis"),
    ("problem", "CoefficientField", "jet", "problem.jet"),
    ("reference", None, "exact_solution", "reference.exact_solution"),
    ("reference", None, "airy_pair", "reference.airy_pair"),
)

OP = "bench.op"
INTEGRATE = "control.integrate"
GLOBAL_ERROR = "reference.global_error"
TRANSFORMS = frozenset(("wkb_core.to_U", "wkb_core.to_Z", "wkb_core.from_Z",
                        "wkb_core.from_U"))


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.airy_continued = 0
        self._stack: list[int] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def wrap(self, fn, name: str):
        span = self.span

        def traced(*args, **kwargs):
            return span(name, fn, *args, **kwargs)

        return traced

    def install(self):
        """Patch every trace point; returns the function that undoes it."""
        undo = []
        for module, owner, attr, name in TRACE_POINTS:
            target = importlib.import_module(f"wkbmarch.{module}")
            if owner is not None:
                target = getattr(target, owner)
            original = getattr(target, attr)
            if name == "reference.airy_pair":
                traced = self.wrap(self._count_continued(original), name)
            else:
                traced = self.wrap(original, name)
            setattr(target, attr, traced)
            undo.append((target, attr, original))

        def uninstall():
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)
        return uninstall

    def _count_continued(self, airy_pair):
        from wkbmarch.reference import AIRY_VALUE_SWITCH

        def counted(t, *args, **kwargs):
            if t <= AIRY_VALUE_SWITCH:
                self.airy_continued += 1
            return airy_pair(t, *args, **kwargs)
        return counted

    def write(self, path) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start", "end", "parent", "op"))
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                out.writerow((i, name, repr(start), repr(end), parent, op))


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another inside it (one thread), so
    the time they cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i]
            for i, (name, start, end, parent, op) in enumerate(spans)]


def layer_metrics(spans, trajectories, airy_continued: int) -> dict:
    """Layer metrics over the traced ops, per op, per trial or per call.

    `trajectories` holds the trajectory of each traced op that completed;
    its accepted and rejected steps are the trials.
    """
    ops = max(1, sum(1 for s in spans if s[0] == OP))
    trials = sum(t.accepted + t.rejected for t in trajectories)
    accepted = sum(t.accepted for t in trajectories)
    oscillatory = sum(sum(n for m, n in t.method_counts().items()
                          if m != "RKF45") for t in trajectories)
    per_trial = 1.0 / trials if trials else 0.0

    selft = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    outer_transform = 0.0
    integrate_self = 0.0
    for i, (name, start, end, parent, op) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        if name in TRANSFORMS and (parent < 0
                                   or spans[parent][0] not in TRANSFORMS):
            outer_transform += end - start
        if name == INTEGRATE:
            integrate_self += selft[i]

    def mean_us(name):
        return 1e6 * total[name] / calls[name] if calls[name] else 0.0

    airy_calls = calls["reference.airy_pair"]
    return {
        "control.trials": trials / ops,
        "control.accept_ratio": accepted / trials if trials else 0.0,
        "control.trial_us": 1e6 * total[INTEGRATE] * per_trial,
        "control.wkb_share": oscillatory / accepted if accepted else 0.0,
        "control.self_s": integrate_self / ops,
        "problem.jet_calls_per_trial": calls["problem.jet"] * per_trial,
        "problem.jet_s": total["problem.jet"] / ops,
        "wkb_core.step_pair_us": mean_us("wkb_core.wkb_step_pair"),
        "wkb_core.assemble_us": mean_us("wkb_core.assemble_step_matrices"),
        "wkb_core.b_jet_calls_per_trial": calls["wkb_core.b_jet"] * per_trial,
        "wkb_core.eval_bk_us": mean_us("wkb_core.eval_bk"),
        "wkb_core.transform_s": outer_transform / ops,
        "rk45.step_calls": calls["rk45.rkf45_step"] / ops,
        "rk45.step_us": mean_us("rk45.rkf45_step"),
        "rkwkb.step_us": mean_us("rkwkb.rkwkb_step"),
        "rkwkb.basis_calls_per_trial": calls["rkwkb.wkb_basis"] * per_trial,
        "rkwkb.basis_s": total["rkwkb.wkb_basis"] / ops,
        "phase.increment_calls_per_trial": calls["phase.increment"] * per_trial,
        "phase.increment_s": total["phase.increment"] / ops,
        "phase.cc_calls": calls["phase.clenshaw_curtis"] / ops,
        "phase.cc_s": total["phase.clenshaw_curtis"] / ops,
        "reference.exact_calls": calls["reference.exact_solution"] / ops,
        "reference.exact_us": mean_us("reference.exact_solution"),
        "reference.continued_share":
            airy_continued / airy_calls if airy_calls else 0.0,
        "reference.global_error_s": total[GLOBAL_ERROR] / ops,
    }
