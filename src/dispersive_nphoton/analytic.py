"""Closed-form spectra and effective parameters for n-photon couplings.

This module is pure scalar arithmetic on top of :mod:`.combinatorics`; it
never builds matrices.  It alone states the effective Hamiltonian's
coefficients (the regime rule :meth:`DispersiveParams._strengths` and the
polynomials :func:`_number_polys`); :mod:`.models` assembles operators from
them in :func:`dispersive_level`'s operation order, so closed-form levels
and assembled dispersive Hamiltonians agree bit-for-bit.

Physical setup and reduced units
--------------------------------
A qubit of frequency ``omega_q`` exchanges ``n`` oscillator quanta at a time
with an oscillator of frequency ``omega_o`` (all frequencies in units of
``omega_o = 1`` unless stated otherwise).  The two fundamental frequency
mismatches are::

    delta = omega_q - n * omega_o      (rotating / co-rotating detuning)
    sigma = omega_q + n * omega_o      (counter-rotating sum frequency)

Second-order perturbation theory in the coupling ``g`` produces dispersive
shift strengths ``chi = g**2 / delta`` and ``xi = g**2 / sigma``, and the
level structure is polynomial in the photon number with exact integer
coefficient rows ``C+`` and ``C-`` (see :func:`.combinatorics.c_coeff`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .combinatorics import _horner, commutator_poly, stirling2
from .errors import ConfigError, ResonanceError, _integer, _real

REGIMES = ("rwa", "nonrwa")
#: Largest coupling order whose photon-number polynomials have a float
#: value: ``Cplus(n, 0) = n!`` exceeds the float range from ``n = 171`` on.
MAX_FLOAT_ORDER = 170
_DENOMINATORS = {"delta": "detuning delta", "sigma": "sum frequency sigma"}


def _check_regime(regime: str) -> str:
    if regime not in REGIMES:
        raise ConfigError(f"regime must be one of {REGIMES}, got {regime!r}")
    return regime


# ---------------------------------------------------------------------------
# Parameter bundle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DispersiveParams:
    """Scalar parameters of one qubit/oscillator n-photon coupling.

    Attributes:
        n: Number of quanta exchanged per coupling event (``n >= 1``).
        g: Coupling strength (``g >= 0``).
        delta: Detuning ``omega_q - n * omega_o``.
        sigma: Sum frequency ``omega_q + n * omega_o``.

    ``n`` must be an integer and ``g``, ``delta`` and ``sigma`` finite
    numbers, by the rule of :mod:`.errors` (``ConfigError`` otherwise).
    """

    n: int
    g: float
    delta: float
    sigma: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", _integer("coupling order n", self.n, 1))
        object.__setattr__(self, "g", _real("coupling strength g", self.g, 0))
        object.__setattr__(self, "delta", _real("detuning delta", self.delta))
        object.__setattr__(self, "sigma", _real("sum frequency sigma", self.sigma))
        if self.sigma <= self.delta:
            raise ConfigError(
                "sigma must exceed delta (oscillator frequency must be positive)"
            )

    @classmethod
    def from_frequencies(
        cls, omega_q: float, n: int, g: float, omega_o: float = 1.0
    ) -> "DispersiveParams":
        """Build from bare frequencies instead of detunings.

        Raises:
            ResonanceError: If ``n * omega_o`` is lost in the rounding of
                ``omega_q``, so that ``delta`` and ``sigma`` coincide.
        """
        omega_q = _real("qubit frequency omega_q", omega_q)
        omega_o = _real("oscillator frequency omega_o", omega_o, above=0)
        shift = _integer("coupling order n", n, 1) * omega_o
        if omega_q - shift == omega_q + shift:
            raise ResonanceError(
                f"n * omega_o = {shift!r} is lost in the rounding of "
                f"omega_q = {omega_q!r}: delta and sigma coincide"
            )
        return cls(n=n, g=g, delta=omega_q - shift, sigma=omega_q + shift)

    # -- derived frequencies -------------------------------------------------

    @property
    def omega_o(self) -> float:
        """Oscillator frequency recovered from (delta, sigma)."""
        return (self.sigma - self.delta) / (2 * self.n)

    @property
    def omega_q(self) -> float:
        """Qubit frequency recovered from (delta, sigma)."""
        return (self.sigma + self.delta) / 2

    # -- perturbative strengths ----------------------------------------------

    def _quotient(self, power: int, den: str) -> float:
        """``g**power / den`` for ``den`` ``"delta"`` or ``"sigma"``: the one
        place where the dispersive quantities below are checked.

        Raises:
            ResonanceError: If the denominator vanishes or the quotient is
                beyond the float range.
        """
        d = getattr(self, den)
        if d == 0.0:
            raise ResonanceError(
                f"{_DENOMINATORS[den]} vanishes; dispersive quantities are undefined"
            )
        try:
            q = self.g**power / d
        except OverflowError:
            q = math.inf
        if math.isinf(q):
            num = "g" if power == 1 else f"g**{power}"
            raise ResonanceError(
                f"g = {self.g!r} is too large: {num} / {den} is beyond the float range"
            )
        return q

    @property
    def chi(self) -> float:
        """Dispersive shift strength ``g**2 / delta`` (see :meth:`_quotient`)."""
        return self._quotient(2, "delta")

    @property
    def xi(self) -> float:
        """Counter-rotating shift strength ``g**2 / sigma`` (see
        :meth:`_quotient`)."""
        return self._quotient(2, "sigma")

    def _strengths(self, regime: str) -> tuple[float, float]:
        """``(chi, xi)`` of ``regime``: ``xi`` is evaluated only under
        ``"nonrwa"`` and is 0 under ``"rwa"``, where ``sigma = 0`` is allowed."""
        _check_regime(regime)
        return self.chi, (self.xi if regime == "nonrwa" else 0.0)

    @property
    def lam(self) -> float:
        """Small parameter ``g / delta`` of the rotating expansion."""
        return self._quotient(1, "delta")

    @property
    def lam_bar(self) -> float:
        """Small parameter ``g / sigma`` of the counter-rotating expansion."""
        return self._quotient(1, "sigma")

    # -- validity ------------------------------------------------------------

    def require_dispersive(self, regime: str) -> None:
        """Check the perturbative expansion underlying a tagged output.

        Args:
            regime: ``"rwa"`` (rotating terms only) or ``"nonrwa"``
                (rotating and counter-rotating terms).

        Raises:
            ResonanceError: If a required denominator vanishes or the
                corresponding expansion parameter has modulus >= 1.
        """
        _check_regime(regime)
        if abs(self.lam) >= 1.0:
            raise ResonanceError(
                f"|g/delta| = {abs(self.lam):.3g} >= 1; dispersive expansion invalid"
            )
        if regime == "nonrwa" and abs(self.lam_bar) >= 1.0:
            raise ResonanceError(
                f"|g/sigma| = {abs(self.lam_bar):.3g} >= 1; "
                "counter-rotating expansion invalid"
            )


# ---------------------------------------------------------------------------
# Level formulas
# ---------------------------------------------------------------------------


def _finite(value: float, what: str) -> float:
    """``value``, refused as ``ResonanceError`` beyond the float range."""
    if not math.isfinite(value):
        raise ResonanceError(f"{what} is beyond the float range")
    return value


def _cross_strengths(
    pl: DispersiveParams, pm: DispersiveParams, regime: str
) -> tuple[float, float]:
    """Exchange strengths ``(chi_x, xi_x)`` of two couplings.

    Raises:
        ResonanceError: Where either coupling's own strengths
            (:meth:`DispersiveParams._strengths`) are refused, or an exchange
            strength is beyond the float range.
    """
    pl._strengths(regime)
    pm._strengths(regime)
    chi_x = pl.g * pm.g * (1.0 / pl.delta + 1.0 / pm.delta)
    if regime == "nonrwa":
        xi_x = pl.g * pm.g * (1.0 / pl.sigma + 1.0 / pm.sigma)
    else:
        xi_x = 0.0
    return _finite(chi_x, "exchange strength"), _finite(xi_x, "exchange strength")


@lru_cache(maxsize=None)
def _number_polys(n: int) -> tuple[tuple[int, ...], ...]:
    """Rows ``(P+, P-, Px)`` of the order-``n`` photon-number polynomials:
    cross-Kerr ``P+ = Cplus``, self-Kerr ``P- = Cminus`` without its constant
    ``Cminus(n, 0) = n!`` and exchange ``Px = Cminus`` from degree 0.  The
    dropped constant is not zero: it is the offset ``n! (chi - xi) / 2``,
    the same for every level.

    Raises:
        ResonanceError: Above :data:`MAX_FLOAT_ORDER`, before any table is
            built: every float consumer evaluates ``P+``, whose values
            (``P+(j) >= n!``) are then beyond the float range.
    """
    if n > MAX_FLOAT_ORDER:
        raise ResonanceError(
            f"photon-number polynomials of order n = {n} are beyond the float "
            f"range (n! > 1.8e308 for n > {MAX_FLOAT_ORDER})"
        )
    cplus, cminus = commutator_poly(n)
    return cplus, (0,) + cminus[1:], cminus


def _poly_value(coeffs, j: int) -> float:
    """``sum_k coeffs[k] j^k``, exact until one final rounding.

    Raises:
        ResonanceError: If the value is beyond the float range.
    """
    try:
        return float(_horner(coeffs, j))
    except OverflowError:
        raise ResonanceError(
            f"photon-number polynomial of degree {len(coeffs) - 1} is beyond "
            f"the float range at j = {j}"
        ) from None


def dispersive_level(
    params: DispersiveParams, qubit: str, j: int, regime: str = "nonrwa"
) -> float:
    """Second-order dispersive energy of the level labelled ``|qubit, j>``.

    The level is polynomial in the photon number ``j``::

        E(qubit, j) = omega_o j
                      + (chi - xi)/2 * sum_{k=1}^{n-1} Cminus(n,k) j^k
                      +- [ (chi + xi)/2 * sum_{k=0}^{n} Cplus(n,k) j^k
                           + omega_q / 2 ]

    with ``+`` for ``qubit = "e"`` and ``-`` for ``"g"``; in the ``"rwa"``
    regime ``xi`` is set to zero.  The photon-number polynomials are
    accumulated in exact integer arithmetic before the single float multiply,
    so the value is reproducible bit-for-bit.

    Args:
        params: Coupling parameters.
        qubit: ``"e"`` or ``"g"``.
        j: Photon number (an integer ``>= 0``).
        regime: ``"rwa"`` or ``"nonrwa"``.

    Raises:
        ResonanceError: If a required denominator vanishes, ``g**2`` or a
            photon-number polynomial is beyond the float range.
    """
    if qubit not in ("e", "g"):
        raise ConfigError(f"qubit must be 'e' or 'g', got {qubit!r}")
    j = _integer("photon number j", j, 0)
    chi, xi = params._strengths(regime)
    plus, minus, _ = _number_polys(params.n)
    p_plus = _poly_value(plus, j)
    p_minus = _poly_value(minus, j)

    sign = 1.0 if qubit == "e" else -1.0
    return (
        params.omega_o * j
        + 0.5 * (chi - xi) * p_minus
        + sign * (0.5 * (chi + xi) * p_plus + 0.5 * params.omega_q)
    )


def njc_doublet(params: DispersiveParams, l: int) -> tuple[float, float]:
    """Exact excited-manifold doublet of the rotating n-photon model.

    For every ``l >= 0`` the rotating (number-conserving) model couples only
    ``|e, l>`` and ``|g, l + n>``; the resulting two eigenvalues are::

        E+-(l) = (l + n/2) omega_o
                 +- sqrt( g**2 (l+n)!/l!  +  delta**2 / 4 )

    The factorial ratio is accumulated multiplicatively to avoid overflow.

    Args:
        params: Coupling parameters.
        l: Lower Fock index of the doublet (an integer ``>= 0``).

    Returns:
        ``(E_plus, E_minus)`` with ``E_plus >= E_minus``.

    Raises:
        ResonanceError: If the square root is beyond the float range.
    """
    l = _integer("doublet index l", l, 0)
    n = params.n
    ratio = 1.0
    for i in range(1, n + 1):
        ratio *= l + i
    center = (l + 0.5 * n) * params.omega_o
    try:
        root = math.sqrt(params.g**2 * ratio + 0.25 * params.delta**2)
    except OverflowError:
        root = math.inf
    root = _finite(root, f"doublet l = {l} at g = {params.g!r}")
    return center + root, center - root


def critical_photon_number(n: int, g: float, delta: float) -> float:
    """Photon number at which the dispersive expansion breaks down.

    For ``n = 1`` this is the familiar ``delta**2 / (4 g**2)``; for
    ``n >= 2`` the leading scaling is ``(|delta| / g)**(2 / n)``.  A value
    beyond the float range is returned as ``inf``, as for ``g = 0``.

    Args:
        n: Coupling order (an integer ``>= 1``).
        g: Coupling strength (finite, ``g >= 0``; ``g = 0`` returns ``inf``).
        delta: Detuning (finite).

    Raises:
        ConfigError: For an ``n`` that is not an integer ``>= 1``, a ``g``
            that is not a finite number ``>= 0`` or a ``delta`` that is not a
            finite number.
    """
    n = _integer("coupling order n", n, 1)
    g = _real("coupling strength g", g, 0)
    delta = _real("detuning delta", delta)
    if g == 0.0:
        return math.inf
    if n == 1:
        try:
            return (delta / (2.0 * g)) ** 2
        except OverflowError:
            return math.inf
    return (abs(delta) / g) ** (2.0 / n)


# ---------------------------------------------------------------------------
# Coherent-state averages
# ---------------------------------------------------------------------------


def _number_moment(k: int, alpha_abs: float) -> float:
    """Coherent-state expectation ``<N^k>`` at amplitude ``|alpha|``, from
    the normally ordered moments ``<a†^l a^l> = |alpha|**(2 l)``.

    Raises:
        ConfigError: If a power of ``|alpha|`` overflows.
    """
    total = 0.0
    for l in range(k + 1):
        try:
            m = alpha_abs ** (2 * l)
        except OverflowError:
            raise ConfigError(
                f"alpha_abs = {alpha_abs!r} is too large: |alpha|**{2 * l} "
                "overflows"
            ) from None
        total += stirling2(k, l) * m
    return total


def _moment_poly(coeffs, alpha_abs: float) -> float:
    """Coherent-state average ``sum_k coeffs[k] <N^k>``, summed in order of
    rising ``k``.

    Raises:
        ResonanceError: If a coefficient is beyond the float range.
        ConfigError: If the average is, though each coefficient is not.
    """
    acc = 0.0
    try:
        for k, c in enumerate(coeffs):
            acc += c * _number_moment(k, alpha_abs)
    except OverflowError:
        raise ResonanceError(
            f"photon-number polynomial coefficient of degree {k} is beyond "
            "the float range"
        ) from None
    if not math.isfinite(acc):
        raise ConfigError(
            f"alpha_abs = {alpha_abs!r} is too large: the photon-number average "
            "is beyond the float range"
        )
    return acc


def dressed_qubit_frequency(
    params: DispersiveParams, alpha_abs: float, regime: str = "rwa"
) -> float:
    """Qubit frequency dressed by a coherent oscillator population.

    Averages the qubit-conditional level splitting over a coherent state of
    amplitude ``|alpha|`` (mean photon number ``|alpha|**2``)::

        omega_bar = omega_q + shift * sum_{k=0}^{n} Cplus(n,k) <N^k>

    where ``shift = chi`` in the ``"rwa"`` regime and ``chi + xi`` otherwise.
    At ``alpha = 0`` this reduces to the vacuum-dressed ``omega_q + shift n!``.

    Args:
        params: Coupling parameters.
        alpha_abs: Coherent amplitude modulus (finite, ``>= 0``).
        regime: ``"rwa"`` or ``"nonrwa"``.

    Raises:
        ConfigError: For a negative or non-finite ``alpha_abs``, or one whose
            powers or photon-number average overflow.
        ResonanceError: Outside the dispersive regime (see
            :meth:`DispersiveParams.require_dispersive`), or where ``g**2``, a
            polynomial coefficient or the result is beyond the float range.
    """
    alpha_abs = _real("alpha_abs", alpha_abs, 0)
    params.require_dispersive(regime)
    chi, xi = params._strengths(regime)
    average = _moment_poly(_number_polys(params.n)[0], alpha_abs)
    return _finite(params.omega_q + (chi + xi) * average, "dressed frequency")


def effective_two_qubit_params(spec, alpha_abs: float) -> tuple[float, float, float]:
    """Effective flip-flop model parameters for two dispersively coupled qubits.

    Two qubits sharing one oscillator prepared near a coherent state of
    amplitude ``|alpha|`` behave as two dressed qubits exchanging excitations
    at an effective rate.  Returns ``(omega_bar_1, omega_bar_2, g_bar)``
    where each ``omega_bar_l`` is :func:`dressed_qubit_frequency` of qubit
    ``l`` and::

        g_bar = chi_x * sum_k Px(n,k) <N^k>,  chi_x = g1 g2 (1/delta_1 + 1/delta_2)

    with the exchange polynomial ``Px`` of :func:`_number_polys`.  ``g_bar``
    is the resonant exchange splitting, not the coefficient of ``s+_1 s-_2 +
    h.c.``: it is twice the ``<eg,j|H|ge,j>`` element of
    :func:`.models.two_qubit_block` and of the ``dispersive`` model, whose
    exchange carries ``chi_x / 2``.

    Args:
        spec: A :class:`.models.SystemSpec` of two qubits sharing one
            oscillator.
        alpha_abs: Coherent amplitude modulus.

    Raises:
        ConfigError: If ``spec`` does not hold exactly two qubits, the qubit
            orders differ, or ``alpha_abs`` is negative, non-finite or too
            large (see :func:`dressed_qubit_frequency`).
        ResonanceError: If a detuning vanishes or an expansion parameter is
            not small.
    """
    if len(spec.qubits) != 2:
        raise ConfigError(
            "effective_two_qubit_params requires exactly two qubits sharing "
            "one oscillator"
        )
    p1 = spec.qubit_params(0)
    p2 = spec.qubit_params(1)
    if p1.n != p2.n:
        raise ConfigError("both qubits must share the same coupling order n")
    p1.require_dispersive("rwa")
    p2.require_dispersive("rwa")

    alpha_abs = _real("alpha_abs", alpha_abs, 0)
    w1 = dressed_qubit_frequency(p1, alpha_abs)
    w2 = dressed_qubit_frequency(p2, alpha_abs)

    chi_x, _ = _cross_strengths(p1, p2, "rwa")
    return w1, w2, chi_x * _moment_poly(_number_polys(p1.n)[2], alpha_abs)
