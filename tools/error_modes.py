"""Split an Airy run's global error into amplitude, phase and second mode.

    python3 tools/error_modes.py

At every accepted node the error (phi - w, phi' - w') is written as
alpha (w, w') + beta (conj w, conj w'), where w is the exact complex Airy
solution the problem's full-state provider gives (Ai + i Bi type, so |w|
has no zeros) and conj w is the second solution. Re alpha is the relative
amplitude error, Im alpha the phase error, and beta the part along the
second mode; the relative error |phi - w| / |w| lies between
|alpha| - |beta| and |alpha| + |beta| and swings between the two as the
modes dephase. The run is the acceptance suite's criterion-2 run: eps 1 on
[0.1, 1e8], Tol 1e-5, h0 0.5, wkb+rkf45, exact phase.

The package is imported from `src/` of this checkout. Prints one line per
accepted node: x, method, Re alpha, Im alpha, |beta| and the relative error.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The criterion-2 run of tests/test_acceptance.py.
EPSILON, INTERVAL = 1.0, (0.1, 1e8)
CONFIG = dict(tol=1e-5, h0=0.5, method="wkb+rkf45", phase="exact")


def error_modes(problem, traj) -> list[tuple]:
    """(record, alpha, beta, w) at every accepted node of `traj`.

    Solves [[w, conj w], [w', conj w']] (alpha, beta) = (e, e') by Cramer's
    rule; the determinant is the Wronskian of w and conj w, which is
    constant and nonzero.
    """
    out = []
    for rec in traj.records:
        ex = problem.exact(rec.x)
        w, dw = ex.phi, ex.dphi
        e, de = rec.state.phi - w, rec.state.dphi - dw
        det = w * dw.conjugate() - dw * w.conjugate()
        alpha = (e * dw.conjugate() - de * w.conjugate()) / det
        beta = (w * de - dw * e) / det
        out.append((rec, alpha, beta, w))
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from wkbmarch import SolverConfig, integrate, make_airy_problem

    problem = make_airy_problem(EPSILON, *INTERVAL)
    traj = integrate(problem, SolverConfig(**CONFIG))
    print(f"{'x':>12} {'method':>6} {'Re alpha':>11} {'Im alpha':>11} "
          f"{'|beta|':>10} {'rel err':>10}")
    for rec, alpha, beta, w in error_modes(problem, traj):
        rel = abs(rec.state.phi - w) / abs(w)
        print(f"{rec.x:12.6g} {rec.method:>6} {alpha.real:11.3e} "
              f"{alpha.imag:11.3e} {abs(beta):10.3e} {rel:10.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
