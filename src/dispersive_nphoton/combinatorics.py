"""Exact integer coefficient tables for ladder-operator normal ordering.

Everything here is exact integer arithmetic (Python bignums; no floats and
no overflow).  The central objects are the signed Stirling numbers of the
first kind and the Stirling numbers of the second kind, from which the
package derives:

* the normal-ordered expansion of ``a^n a†^n`` as a polynomial in the
  number operator ``N``,
* the commutator/anticommutator coefficient polynomials ``C+`` and ``C-``
  that govern every n-photon dispersive expression in this package:
  with ``X- = [a^n, a†^n]`` and ``X+ = {a^n, a†^n}`` one has, on states far
  from the truncation edge,

  ``[a^n, a†^n]  = sum_{k=0}^{n-1} Cminus(n, k) N^k``  and
  ``{a^n, a†^n}  = sum_{k=0}^{n}   Cplus(n, k)  N^k``,

  where ``Cplusminus(n, k) = (-1)^(n+k) s1(n+1, k+1) +- s1(n, k)``.

Conventions: ``s1`` is *signed* (``x(x-1)...(x-n+1) = sum_k s1(n,k) x^k``),
``s2`` is the ordinary (non-negative) second kind, and all out-of-range or
fractional ``(n, k)`` queries raise :class:`.errors.ConfigError` rather than
returning 0 or truncating.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ConfigError, _integer


# ---------------------------------------------------------------------------
# Stirling numbers
# ---------------------------------------------------------------------------


# The rows 0, 1, ... of each triangle built so far, each held once.  A row
# is added only after the one before it, so the keys are always 0..len - 1;
# two threads that build one row store one of two equal tuples.
_S1_ROWS = {0: (1,)}
_S2_ROWS = {0: (1,)}


def _row(rows: dict, n: int, weight) -> tuple[int, ...]:
    """Row ``n`` of the triangle ``rows`` whose entry ``(m + 1, k)`` is
    entry ``(m, k - 1)`` plus ``weight(m, k)`` times entry ``(m, k)``."""
    for m in range(len(rows) - 1, n):
        prev = rows[m] + (0,)
        row = ((prev[k - 1] if k else 0) + weight(m, k) * prev[k] for k in range(m + 2))
        rows.setdefault(m + 1, tuple(row))
    return rows[n]


def _s1_row(n: int) -> tuple[int, ...]:
    """Row ``n`` of the signed Stirling numbers of the first kind."""
    return _row(_S1_ROWS, n, lambda m, k: -m)


def _s2_row(n: int) -> tuple[int, ...]:
    """Row ``n`` of the Stirling numbers of the second kind."""
    return _row(_S2_ROWS, n, lambda m, k: k)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind ``s2(n, k)`` (non-negative).

    Satisfies ``s2(n+1, k) = k s2(n, k) + s2(n, k-1)`` with ``s2(0, 0) = 1``;
    expands number-operator powers as ``N^k = sum_l s2(k, l) a†^l a^l``.

    Raises:
        ConfigError: Unless ``0 <= k <= n``.
    """
    n = _integer("stirling2 n", n, 0)
    return _s2_row(n)[_integer("stirling2 k", k, 0, n)]


# ---------------------------------------------------------------------------
# Normal-ordering polynomials
# ---------------------------------------------------------------------------


def normal_order_aadag(n: int) -> tuple[int, ...]:
    """Coefficients of ``a^n a†^n`` as a polynomial in ``N``.

    Returns:
        Tuple ``c`` of length ``n + 1`` with
        ``a^n a†^n = sum_k c[k] N^k`` exactly on every Fock state that is at
        least ``n`` levels below the truncation edge
        (``c[k] = (-1)^(n+k) s1(n+1, k+1)``).
    """
    n = _integer("normal_order_aadag n", n, 0)
    row = _s1_row(n + 1)
    return tuple((-1) ** (n + k) * row[k + 1] for k in range(n + 1))


def c_coeff(n: int, k: int, sign: str) -> int:
    """Commutator/anticommutator polynomial coefficient ``C+-(n, k)``.

    ``C+-(n, k) = (-1)^(n+k) s1(n+1, k+1) +- s1(n, k)``, so that on states
    far from the truncation edge::

        {a^n, a†^n} = sum_{k=0}^{n}   c_coeff(n, k, "plus")  N^k
        [a^n, a†^n] = sum_{k=0}^{n-1} c_coeff(n, k, "minus") N^k

    (the ``k = n`` minus-coefficient is identically zero).

    Args:
        n: Multiphoton order, ``n >= 1``.
        k: Polynomial degree, ``0 <= k <= n``.
        sign: ``"plus"`` or ``"minus"``.

    Raises:
        ConfigError: For an unknown sign or out-of-range ``(n, k)``.
    """
    if sign not in ("plus", "minus"):
        raise ConfigError(f"sign must be 'plus' or 'minus', got {sign!r}")
    n = _integer("c_coeff n", n, 1)
    k = _integer("c_coeff k", k, 0, n)
    first = (-1) ** (n + k) * _s1_row(n + 1)[k + 1]
    second = _s1_row(n)[k]
    return first + second if sign == "plus" else first - second


@lru_cache(maxsize=None, typed=True)
def commutator_poly(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both ladder-polynomial coefficient rows for order ``n``.

    Returns:
        ``(cplus, cminus)`` where ``cplus`` has length ``n + 1`` (degrees
        ``0..n`` of the anticommutator polynomial) and ``cminus`` has length
        ``n`` (degrees ``0..n-1`` of the commutator polynomial; its exact
        zero at degree ``n`` is trimmed).
    """
    n = _integer("commutator_poly n", n, 1)
    cplus = tuple(c_coeff(n, k, "plus") for k in range(n + 1))
    cminus = tuple(c_coeff(n, k, "minus") for k in range(n))
    return cplus, cminus


def eval_int_poly(coeffs, x: int) -> int:
    """Exact integer evaluation of ``sum_k coeffs[k] x^k`` (Horner form);
    ``x`` and every coefficient follow the integer rule of :mod:`.errors`."""
    coeffs = [_integer("eval_int_poly coefficient", c) for c in coeffs]
    return _horner(coeffs, _integer("eval_int_poly x", x))


def _horner(coeffs, x: int) -> int:
    """``sum_k coeffs[k] x^k`` of Python integers, in Horner form."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc
