"""Shared fixtures; expensive benchmark runs are computed once per session."""

import pytest

from wkbmarch import SolverConfig, integrate, make_airy_problem, \
    make_pcf_problem


@pytest.fixture(scope="session")
def airy1():
    return make_airy_problem(1.0)


@pytest.fixture(scope="session")
def airy_long():
    return make_airy_problem(1.0, 0.1, 1e8)


@pytest.fixture(scope="session")
def pcf6():
    return make_pcf_problem(2.0 ** -6)


@pytest.fixture(scope="session")
def airy_runs(airy1):
    """WKB+RKF45 trajectories on the linear benchmark per tolerance."""
    out = {}
    for tol in (1e-3, 1e-5, 1e-6, 1e-9):
        cfg = SolverConfig(tol=tol, h0=0.5, method="wkb+rkf45")
        out[tol] = integrate(airy1, cfg)
    return out


@pytest.fixture(scope="session")
def rkwkb_runs(airy1):
    out = {}
    for tol in (1e-3, 1e-6, 1e-9):
        cfg = SolverConfig(tol=tol, h0=0.5, method="rkwkbmod")
        out[tol] = integrate(airy1, cfg)
    return out


@pytest.fixture(scope="session")
def pcf_runs(pcf6):
    out = {}
    for method in ("wkb+rkf45", "rkwkbmod"):
        for tol in (1e-3, 1e-6, 1e-9):
            cfg = SolverConfig(tol=tol, h0=0.05, method=method)
            out[method, tol] = integrate(pcf6, cfg)
    return out


@pytest.fixture(scope="session")
def long_run(airy_long):
    cfg = SolverConfig(tol=1e-5, h0=0.5, method="wkb+rkf45", phase="exact")
    return integrate(airy_long, cfg)


@pytest.fixture(scope="session")
def long_run_cc(airy_long):
    cfg = SolverConfig(tol=1e-5, h0=0.5, method="wkb+rkf45", phase="cc")
    return integrate(airy_long, cfg)
