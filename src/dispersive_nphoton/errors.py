"""Exception taxonomy for the dispersive-nphoton package.

Every error deliberately raised by this package derives from
:class:`DispersiveNphotonError`, so callers can catch one base class.  An
invalid input of any kind (a bad argument, shape, enum literal, empty
selection or configuration) is a :class:`ConfigError`, which is also a
:class:`ValueError`.  Two private checks in :mod:`.eigensolve` mirror
``scipy.linalg`` and stay plain ``ValueError``: ``_lapack_check``'s illegal
LAPACK argument and ``_tridiagonal_eigh``'s non-finite entry.  They report a
defect of the package, not an input.

:func:`_real` and :func:`_integer` are the package's one rule for numeric
arguments: a finite real number, and an integer or a whole real number.
Booleans, strings and fractions are refused as a :class:`ConfigError`.
"""

from __future__ import annotations

import math
import numbers


class DispersiveNphotonError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(DispersiveNphotonError, ValueError):
    """An input is invalid: every argument check of the package raises this.

    Raised for bad JSON configuration payloads, invalid topology strings,
    couplings that reference missing subsystems, unsupported stabilizer
    settings, and every out-of-domain argument (a negative coupling, a
    non-finite amplitude, ``k < 1``, an unknown regime, mismatched layouts).
    It is also a :class:`ValueError`, so callers that catch that still do.
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
    frequency coincide), when a perturbative expansion parameter is not
    small enough for the requested regime-tagged output to be meaningful, or
    when a closed-form value or a Hamiltonian entry is beyond the float
    range.
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


# ---------------------------------------------------------------------------
# Argument rules
# ---------------------------------------------------------------------------


def _real(what: str, value) -> float:
    """``float(value)`` for a finite real number, else :class:`ConfigError`
    naming ``what`` (strings and booleans are not numbers here)."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return value


def _integer(what: str, value) -> int:
    """``int(value)`` for an integer or a whole real number (``3.0`` is 3),
    else :class:`ConfigError` naming ``what``: booleans, strings and
    fractional numbers are refused."""
    if not isinstance(value, bool):
        if isinstance(value, numbers.Integral):
            return int(value)
        if isinstance(value, numbers.Real) and float(value).is_integer():
            return int(value)
    raise ConfigError(f"{what} must be an integer, got {value!r}")
