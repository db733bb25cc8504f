"""Exception taxonomy for the dispersive-nphoton package.

Every error deliberately raised by this package derives from
:class:`DispersiveNphotonError`, so callers can catch one base class.  An
invalid input of any kind (a bad argument, shape, enum literal, empty
selection or configuration) is a :class:`ConfigError`, which is also a
:class:`ValueError`.  Two private checks in :mod:`.eigensolve` mirror
``scipy.linalg`` and stay plain ``ValueError``: ``_lapack_check``'s illegal
LAPACK argument and ``_tridiagonal_eigh``'s non-finite entry.  They report a
defect of the package, not an input.

:func:`_integer`, :func:`_real` and :func:`_complex` are the package's one
rule for numeric arguments: an integer or a whole real number, a finite real
number, and a finite complex number, each within the optional bounds given.
Booleans, strings, fractions and values out of bounds are refused as a
:class:`ConfigError` naming the argument.
"""

from __future__ import annotations

import cmath
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


def _bound(what: str, value, lo, hi, above=-math.inf):
    """``value`` if ``lo <= value <= hi`` and ``value > above``, else
    :class:`ConfigError` naming ``what`` and the bound."""
    if lo <= value <= hi and value > above:
        return value
    if hi < math.inf:
        rule = f"lie in [{lo}, {hi}]"
    else:
        rule = f"be > {above}" if above > -math.inf else f"be >= {lo}"
    raise ConfigError(f"{what} must {rule}, got {value!r}")


def _number(what: str, value, kind, convert):
    """``convert(value)`` for a finite number of the ABC ``kind``, else
    :class:`ConfigError` (strings and booleans are not numbers here)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    try:
        value = convert(value)
    except OverflowError:  # an integer beyond the float range
        value = convert(math.inf)
    if not cmath.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return value


def _real(what: str, value, lo=-math.inf, hi=math.inf, above=-math.inf) -> float:
    """``float(value)`` for a finite real number within the bounds."""
    return _bound(what, _number(what, value, numbers.Real, float), lo, hi, above)


def _complex(what: str, value) -> complex:
    """``complex(value)`` for a finite number."""
    return _number(what, value, numbers.Number, complex)


def _integer(what: str, value, lo=-math.inf, hi=math.inf) -> int:
    """``int(value)`` for an integer or a whole real number (``3.0`` is 3)
    within the bounds; booleans and fractional numbers are refused."""
    if not isinstance(value, bool) and (
        isinstance(value, numbers.Integral)
        or (isinstance(value, numbers.Real) and float(value).is_integer())
    ):
        return _bound(what, int(value), lo, hi)
    raise ConfigError(f"{what} must be an integer, got {value!r}")
