"""Adaptive WKB marching solver for eps^2 phi'' + a(x) phi = 0.

In the highly oscillatory regime the second-order marching scheme advances
the transformed, oscillation-free system on steps far coarser than the
wavelength; near turning points an embedded Fehlberg 4(5) pair takes over.
A shared error-per-step controller sizes the steps and arbitrates between
the two methods. The rival basis-fit stepping procedure (two WKB orders)
is included for comparison, and a self-contained special-function layer
supplies reference solutions for the two analytic benchmarks.
"""

from .control import (SolverConfig, StepRecord, Trajectory, estimate_error,
                      estimator_h_sweep, estimator_study, integrate,
                      march_fixed_grid, proposal_factor, select_method)
from .phase import PhaseProvider, clenshaw_curtis
from .problem import (CoefficientField, Problem, make_airy_problem,
                      make_pcf_problem, make_polynomial_problem,
                      polynomial_field, problem_from_json)
from .reference import (AiryQuad, airy_asymptotic, airy_pair,
                        asymptotic_coeffs, exact_solution, gamma_fn,
                        global_error, pcf_U, taylor_continuation)
from .rk45 import rkf45_step
from .rkwkb import WKBBasis, rkwkb_step, wkb_basis
from .state import ContinuationError, SolverError, WaveState, \
    WKBInadmissibleError
from .wkb_core import (Endpoint, ZState, eval_bk, from_U, from_Z, osc_kernels,
                       to_U, to_Z, wkb_step_pair)

__version__ = "0.1.0"

__all__ = [
    "AiryQuad", "CoefficientField", "ContinuationError", "Endpoint",
    "PhaseProvider", "Problem", "SolverConfig", "SolverError",
    "StepRecord", "Trajectory", "WKBBasis", "WKBInadmissibleError",
    "WaveState", "ZState", "airy_asymptotic", "airy_pair",
    "asymptotic_coeffs", "clenshaw_curtis", "estimate_error",
    "estimator_h_sweep", "estimator_study", "eval_bk", "exact_solution",
    "from_U", "from_Z", "gamma_fn", "global_error", "integrate",
    "make_airy_problem", "make_pcf_problem", "make_polynomial_problem",
    "march_fixed_grid", "osc_kernels", "pcf_U", "polynomial_field",
    "problem_from_json", "proposal_factor", "rkf45_step", "rkwkb_step",
    "select_method", "taylor_continuation", "to_U", "to_Z",
    "wkb_basis", "wkb_step_pair",
]
