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
``s2`` is the ordinary (non-negative) second kind, and all out-of-range
``(n, k)`` queries raise :class:`ValueError` rather than returning 0.
"""

from __future__ import annotations

from functools import lru_cache


# ---------------------------------------------------------------------------
# Stirling numbers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _s1_rows(n_max: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n_max of signed Stirling numbers of the first kind."""
    rows = [(1,)]
    for n in range(n_max):
        prev = rows[n]
        row = []
        for k in range(n + 2):
            left = prev[k - 1] if 1 <= k <= n + 1 else 0
            right = prev[k] if k <= n else 0
            row.append(left - n * right)
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def _s2_rows(n_max: int) -> tuple[tuple[int, ...], ...]:
    """Rows 0..n_max of Stirling numbers of the second kind."""
    rows = [(1,)]
    for n in range(n_max):
        prev = rows[n]
        row = []
        for k in range(n + 2):
            left = prev[k - 1] if 1 <= k <= n + 1 else 0
            right = prev[k] if k <= n else 0
            row.append(k * right + left)
        rows.append(tuple(row))
    return tuple(rows)


def _check_range(n: int, k: int, what: str) -> tuple[int, int]:
    n = int(n)
    k = int(k)
    if n < 0 or not 0 <= k <= n:
        raise ValueError(f"{what} index (n={n}, k={k}) out of range")
    return n, k


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind ``s2(n, k)`` (non-negative).

    Satisfies ``s2(n+1, k) = k s2(n, k) + s2(n, k-1)`` with ``s2(0, 0) = 1``;
    expands number-operator powers as ``N^k = sum_l s2(k, l) a†^l a^l``.

    Raises:
        ValueError: Unless ``0 <= k <= n``.
    """
    n, k = _check_range(n, k, "stirling2")
    return _s2_rows(n)[n][k]


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
    n = int(n)
    if n < 0:
        raise ValueError("normal_order_aadag requires n >= 0")
    row = _s1_rows(n + 1)[n + 1]
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
        ValueError: For an unknown sign or out-of-range ``(n, k)``.
    """
    if sign not in ("plus", "minus"):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    n = int(n)
    if n < 1:
        raise ValueError("c_coeff requires n >= 1")
    _check_range(n, k, "c_coeff")
    rows = _s1_rows(n + 1)
    first = (-1) ** (n + k) * rows[n + 1][k + 1]
    second = rows[n][k]
    return first + second if sign == "plus" else first - second


@lru_cache(maxsize=None)
def commutator_poly(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Both ladder-polynomial coefficient rows for order ``n``.

    Returns:
        ``(cplus, cminus)`` where ``cplus`` has length ``n + 1`` (degrees
        ``0..n`` of the anticommutator polynomial) and ``cminus`` has length
        ``n`` (degrees ``0..n-1`` of the commutator polynomial; its exact
        zero at degree ``n`` is trimmed).
    """
    n = int(n)
    if n < 1:
        raise ValueError("commutator_poly requires n >= 1")
    cplus = tuple(c_coeff(n, k, "plus") for k in range(n + 1))
    cminus = tuple(c_coeff(n, k, "minus") for k in range(n))
    return cplus, cminus


def eval_int_poly(coeffs, x: int) -> int:
    """Exact integer evaluation of ``sum_k coeffs[k] x^k`` (Horner form)."""
    x = int(x)
    acc = 0
    for c in reversed(tuple(coeffs)):
        acc = acc * x + int(c)
    return acc
