"""Solution state and shared error types.

The solver tracks the wave function and its plain derivative as a complex
pair (phi, phi') attached to a position x. Several formulas are stated in
the scaled convention (phi, eps*phi'); conversions between the two are kept
explicit to avoid silent scale bugs.
"""

from __future__ import annotations

from dataclasses import dataclass


class WKBInadmissibleError(Exception):
    """Raised when a WKB quantity is requested where the method breaks down.

    Typically a(x) below the problem's tau guard, or a phase/denominator
    guard violation. The step controller converts this into a rejected
    candidate; it never aborts a run.
    """


class SolverError(Exception):
    """Unrecoverable integration failure (rejection limit, step underflow)."""


class ContinuationError(Exception):
    """Taylor continuation refused to certify its result."""


@dataclass(frozen=True)
class WaveState:
    """Wave function sample: position, phi and the plain derivative phi'."""

    x: float
    phi: complex
    dphi: complex

    @classmethod
    def from_scaled(cls, x: float, phi: complex, eps_dphi: complex,
                    epsilon: float) -> "WaveState":
        """Build a state from the (phi, eps*phi') convention."""
        return cls(x, phi, eps_dphi / epsilon)

    def scaled_dphi(self, epsilon: float) -> complex:
        """Derivative in the eps*phi' convention."""
        return epsilon * self.dphi

    def sup_norm(self) -> float:
        return max(abs(self.phi), abs(self.dphi))
