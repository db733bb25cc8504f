"""Exception taxonomy for the dispersive-nphoton package.

Every error deliberately raised by this package derives from
:class:`DispersiveNphotonError`, so callers can catch one base class.
Plain :class:`ValueError` / :class:`TypeError` are reserved for misuse of a
function's own signature (wrong shapes, wrong enum literals, empty
selections) rather than for physically or numerically meaningful failures.
"""

from __future__ import annotations


class DispersiveNphotonError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DispersiveNphotonError):
    """A system description is malformed or inconsistent.

    Raised for bad JSON configuration payloads, invalid topology strings,
    couplings that reference missing subsystems, stabilizer settings that are
    unsupported for the requested topology, and similar declarative problems.
    """


class TruncationError(DispersiveNphotonError):
    """A requested construction cannot be represented at the given truncation.

    Raised when a coupling order is not strictly below the oscillator
    truncation dimension, or when a coherent state would place non-negligible
    weight outside the retained Fock levels.
    """


class ResonanceError(DispersiveNphotonError):
    """A closed-form dispersive quantity is undefined or invalid here.

    Raised when a detuning denominator vanishes, when ``n * omega_o`` is lost
    in the rounding of the qubit frequency (so the detuning and the sum
    frequency coincide), or when a perturbative expansion parameter is not
    small enough for the requested regime-tagged output to be meaningful.
    """


class CapacityError(DispersiveNphotonError):
    """A dense or composite construction would exceed configured size limits."""


class SolverError(DispersiveNphotonError):
    """Base class for iterative-solver failures."""


class IterationLimitError(SolverError):
    """An iterative eigensolver hit its iteration budget before converging.

    Attributes:
        partial: Best available partial result at the moment of failure
            (a ``SpectrumResult`` when the solver got far enough to form
            Ritz values, otherwise ``None``).
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial


class PropagationError(SolverError):
    """Time propagation failed (for example, step size underflow)."""
