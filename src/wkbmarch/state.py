"""Solution state and shared error types.

The solver tracks the wave function and its plain derivative as a complex
pair (phi, phi') attached to a position x.
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
    """A run that cannot go on, raised only by `integrate`: at the rejection
    limit or the step floor. No pair kernel raises it; a non-finite pair is
    a rejected candidate, not a failed run."""


class ContinuationError(Exception):
    """Taylor continuation refused to certify its result."""


@dataclass(slots=True)
class WaveState:
    """Wave function sample: position, phi and the plain derivative phi'.

    A plain slotted record: the solver never writes to one it has made,
    and it is not hashable."""

    x: float
    phi: complex
    dphi: complex
