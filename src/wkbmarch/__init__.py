"""Adaptive WKB marching solver for eps^2 phi'' + a(x) phi = 0.

In the highly oscillatory regime the second-order marching scheme advances
the transformed, oscillation-free system on steps far coarser than the
wavelength; near turning points an embedded Fehlberg 4(5) pair takes over.
A shared error-per-step controller sizes the steps and arbitrates between
the two methods. The rival basis-fit stepping procedure (two WKB orders)
is included for comparison, and a self-contained special-function layer
supplies reference solutions for the two analytic benchmarks. Only the
user API is exported here; internals are imported from their submodules.
"""

from .control import (SolverConfig, StepRecord, Trajectory, estimator_h_sweep,
                      estimator_study, integrate, march_fixed_grid)
from .phase import PhaseProvider, clenshaw_curtis
from .problem import (CoefficientField, Problem, make_airy_problem,
                      make_pcf_problem, make_polynomial_problem,
                      problem_from_json)
from .reference import airy_pair, global_error
from .state import ContinuationError, SolverError, WaveState, \
    WKBInadmissibleError

__version__ = "0.1.0"

__all__ = [
    "CoefficientField", "ContinuationError", "PhaseProvider", "Problem",
    "SolverConfig", "SolverError", "StepRecord", "Trajectory",
    "WKBInadmissibleError", "WaveState", "airy_pair", "clenshaw_curtis",
    "estimator_h_sweep", "estimator_study", "global_error", "integrate",
    "make_airy_problem", "make_pcf_problem", "make_polynomial_problem",
    "march_fixed_grid", "problem_from_json",
]
