"""tools/abtime.py times two checkouts side by side in one process.

An A/A run of this checkout against itself must load the package twice,
under separate module objects, time every row on both sides and report a
positive ratio per round. The run swaps `wkbmarch*` entries of
`sys.modules` and imports the bench's workload table and calibration
kernel, so the test puts back the modules the session had.
"""

import importlib.util
import sys
import types
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "abtime.py"
ROWS = {f"{w}/{kind}" for w in ("airy-mixed", "pcf-rival", "long-cc")
        for kind in ("integrate", "global_error", "global_error_cold",
                     "global_error_without_numpy", "exact_batch",
                     "exact_solution", "exact_solution_without_numpy")} | {
    "airy-mixed/horner_batch", "pcf-rival/horner_batch",
    "airy-mixed/exact_state", "pcf-rival/exact_state",
    "long-cc/asymptotic_values", "airy_asymptotic",
    "eval_bk", "wkb_pair", "rkf45_step", "wkb_basis", "rkwkb_step",
    "field_jet", "cc_increment", "phase_rates"}
# Top-level modules that a run imports or swaps in sys.modules.
SWAPPED = ("wkbmarch", "workloads", "calibrate")


def load_tool():
    spec = importlib.util.spec_from_file_location("abtime", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_aa_run_times_every_row_on_separate_packages(monkeypatch):
    abtime = load_tool()
    root = TOOL.parents[1]
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.setattr(abtime, "SAMPLE_S", 1e-3)
    saved = {n: m for n, m in sys.modules.items()
             if n.split(".")[0] in SWAPPED}
    try:
        first = abtime.load(root)
        second = abtime.load(root)
        assert first["wkbmarch.control"] is not second["wkbmarch.control"]
        out = abtime.run(root, root, rounds=2)
    finally:
        for name in [n for n in sys.modules
                     if n.split(".")[0] in SWAPPED]:
            del sys.modules[name]
        sys.modules.update(saved)
    assert set(out["rows"]) == ROWS
    for row in out["rows"].values():
        assert row["rounds"] == len(row["ratios"]) == 2
        assert all(q > 0.0 for q in row["ratios"])
        assert 0 <= row["rounds_won"] <= 2


def test_horner_batch_times_the_kernel_each_side_calls():
    """The horner_batch row replays the batch kernel that the side's
    exact_solution calls, with that call's arguments: here the plain pass
    _horner_rows, which answers the Airy batch itself; in a checkout that
    has only the compensated _dd_horner_rows, that kernel."""
    abtime = load_tool()
    from wkbmarch import make_airy_problem, reference
    problem = make_airy_problem(1.0, 0.1, 50.0)
    xs = [0.1 + 0.37 * k for k in range(100)]
    got = abtime.horner_batch(reference, problem, xs)()
    assert got.tolist() == problem.exact.phis(xs).tolist()

    calls = []
    parent = types.SimpleNamespace()

    def dd_rows(*args):
        calls.append(args)

    def exact_solution(problem, xs):
        parent._dd_horner_rows("hi", "lo", xs, None)

    parent._dd_horner_rows, parent.exact_solution = dd_rows, exact_solution
    replay = abtime.horner_batch(parent, problem, (0.5, 1.5))
    assert parent._dd_horner_rows is dd_rows
    replay()
    assert calls == [("hi", "lo", (0.5, 1.5), None)] * 2
