"""The benchmark tracer must find every name it patches in the package.

`bench/tracing.py` wraps layer entry points by name at their lookup sites;
a refactor that removes or renames one of them, or routes a stepper around
the lookup site so that its span is never recorded, fails here.
"""

import importlib.util
from pathlib import Path

from wkbmarch import (SolverConfig, integrate, make_airy_problem,
                      make_pcf_problem)

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lookup_sites(tracing):
    sites = []
    for module, owner, attr, _ in tracing.TRACE_POINTS:
        target = importlib.import_module(f"wkbmarch.{module}")
        if owner is not None:
            target = getattr(target, owner)
        sites.append((target, attr))
    return sites


def test_tracer_installs_and_uninstalls():
    tracing = load_tracing()
    sites = lookup_sites(tracing)
    originals = [getattr(target, attr) for target, attr in sites]
    tracer = tracing.Tracer()
    uninstall = tracer.install()
    try:
        for (target, attr), original in zip(sites, originals):
            assert getattr(target, attr) is not original
        p = make_pcf_problem(2.0 ** -6, 0.9, 1.1)
        integrate(p, SolverConfig(tol=1e-6, h0=0.05, method="rkwkbmod"))
        # Runge-Kutta near the turning point, then transform steps.
        airy = make_airy_problem(1.0, 0.1, 10.0)
        traj = integrate(airy, SolverConfig(tol=1e-6, h0=0.5,
                                            method="wkb+rkf45",
                                            phase="exact"))
        assert set(traj.method_counts()) == {"RKF45", "WKB"}
        integrate(airy, SolverConfig(tol=1e-6, h0=0.5, phase="cc"))
    finally:
        uninstall()
    for (target, attr), original in zip(sites, originals):
        assert getattr(target, attr) is original
    names = {span[0] for span in tracer.spans}
    expected = {name for *_, name in tracing.TRACE_POINTS
                if not name.startswith("reference.")}
    assert expected - names == set()
