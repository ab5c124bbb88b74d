"""tools/error_modes.py splits the criterion-2 run's error into its modes.

At each accepted node the error is alpha w + beta conj(w), with w the exact
complex Airy solution; the split must give back the error of phi and of
phi' to rounding, and the relative error must lie between |alpha| - |beta|
and |alpha| + |beta|.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "error_modes.py"
ULP = 2.0 ** -52


def load_tool():
    spec = importlib.util.spec_from_file_location("error_modes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_split_rebuilds_the_criterion_2_error(long_run, airy_long):
    modes = load_tool().error_modes(airy_long, long_run)
    assert len(modes) == long_run.accepted
    for rec, alpha, beta, w in modes:
        ex = airy_long.exact(rec.x)
        assert ex.phi == w
        scale = abs(alpha) + abs(beta)
        for got, exact, wk in ((rec.state.phi, ex.phi, w),
                               (rec.state.dphi, ex.dphi, ex.dphi)):
            rebuilt = alpha * wk + beta * wk.conjugate()
            assert abs(rebuilt - (got - exact)) <= 8 * ULP * scale * abs(wk)
        rel = abs(rec.state.phi - w) / abs(w)
        slack = 8 * ULP * scale
        assert abs(alpha) - abs(beta) - slack <= rel <= scale + slack
