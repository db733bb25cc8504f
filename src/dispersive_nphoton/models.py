"""System descriptions and Hamiltonian builders for n-photon couplings.

A :class:`SystemSpec` declaratively describes one of three topologies:

* ``"single"``     — one qubit, one oscillator;
* ``"multiqubit"`` — several qubits sharing one oscillator;
* ``"multimode"``  — one qubit coupled to several oscillators, each through
  its own exchange order.

From a spec, :func:`build_model` assembles any of the models offered for
its topology (``MODELS_BY_TOPOLOGY``) as a sparse Hamiltonian on the
corresponding :class:`.fockspace.HilbertLayout` (qubits first, then
oscillators).  Every model is one dense diagonal plus a list of terms
``(coefficient, {layout slot: local factor})`` built over one normalized
coupling list.  Each term's ``(row, col, value)`` entries come from index
arithmetic on the layout's occupation vectors, in NumPy; the list is summed
once into the canonical NumPy CSR arrays of a
:class:`.fockspace.SparseOperator` and certified Hermitian once.  SciPy is
not imported; the operator's ``entries`` is a SciPy view built lazily on
first access.
:func:`charge_operator` is the conserved charge of the rotating models and
:func:`two_qubit_block` the closed-form fixed-photon-number block of the
two-qubit effective model.

All frequencies are in units of the (first) oscillator frequency unless the
spec says otherwise.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .analytic import (
    DispersiveParams,
    _cross_strengths,
    _number_polys,
    _poly_value,
    dispersive_level,
)
from .errors import ConfigError, ResonanceError, TruncationError, _integer, _real
from .fockspace import HilbertLayout, SparseOperator, qubit_oscillator_layout

TOPOLOGIES = ("single", "multiqubit", "multimode")
STABILIZER_FORMS = ("number_power", "full_position_power")

#: Models :func:`build_model` accepts for each topology.
MODELS_BY_TOPOLOGY = {
    "single": ("nR", "nJC", "full_nR", "dispersive"),
    "multiqubit": ("nDicke", "nTC", "dispersive"),
    "multimode": ("mmr", "mmjc", "dispersive"),
}
#: Every model name, in the order of ``MODELS_BY_TOPOLOGY``.
ALL_MODELS = tuple(dict.fromkeys(m for ms in MODELS_BY_TOPOLOGY.values() for m in ms))

#: Single-topology models whose unstabilized levels
#: :func:`.analytic.dispersive_level` describes.
CLOSED_FORM_MODELS = ("nR", "nJC", "dispersive")

#: Sweep variables: ``g`` (every coupling strength), ``g<i>`` (strength of
#: qubit or coupling ``i``, in ASCII digits) and ``eta`` (stabilizer strength).
_SWEEP_VARIABLE = re.compile(r"g([0-9]*)|eta")

#: Interaction kind of every exact model; ``dispersive`` is the other path.
_EXACT_KINDS = {
    **dict.fromkeys(("nR", "nDicke", "mmr"), "ladder"),
    **dict.fromkeys(("nJC", "nTC", "mmjc"), "rotating"),
    "full_nR": "position",
}


# ---------------------------------------------------------------------------
# Declarative system description
# ---------------------------------------------------------------------------


def _entry(spec_cls, entry, what: str, **defaults) -> dict:
    """Keyword arguments of ``spec_cls`` from the config object ``entry``,
    over ``defaults``; :class:`ConfigError` unless every key is a field,
    none is ``null`` and every field without a default is given."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{what} entry must be an object, got {entry!r}")
    fields = dataclasses.fields(spec_cls)
    unknown = set(entry) - {f.name for f in fields}
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    for key, value in entry.items():
        if value is None:
            raise ConfigError(f"{what} key {key!r} must not be null")
    kwargs = {**defaults, **entry}
    for f in fields:
        if f.default is dataclasses.MISSING and f.name not in kwargs:
            raise ConfigError(f"missing required {what} key {f.name!r}")
    return kwargs


@dataclass(frozen=True)
class QubitSpec:
    """One qubit and (for single/multiqubit topologies) its coupling.

    Attributes:
        omega_q: Qubit frequency.
        n: Quanta exchanged per coupling event (ignored for multimode
            topologies, where couplings carry their own order).
        g: Coupling strength.
    """

    omega_q: float
    n: int = 1
    g: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega_q", _real("qubit frequency", self.omega_q))
        object.__setattr__(self, "n", _integer("qubit coupling order n", self.n, 1))
        object.__setattr__(self, "g", _real("qubit coupling strength g", self.g, 0))


@dataclass(frozen=True)
class OscillatorSpec:
    """One bosonic mode.

    Attributes:
        omega: Mode frequency (positive; reduced units set the first mode
            to 1).
        trunc: Number of retained Fock levels (>= 2).
    """

    omega: float
    trunc: int

    def __post_init__(self) -> None:
        omega = _real("oscillator frequency", self.omega, above=0)
        object.__setattr__(self, "omega", omega)
        trunc = _integer("oscillator truncation", self.trunc, 2)
        object.__setattr__(self, "trunc", trunc)


@dataclass(frozen=True)
class CouplingSpec:
    """Qubit-oscillator coupling entry (multimode topologies only).

    Attributes:
        qubit: Index of the coupled qubit.
        oscillator: Index of the coupled oscillator.
        n: Exchange order for this mode.
        g: Coupling strength for this mode.
    """

    qubit: int
    oscillator: int
    n: int
    g: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubit", _integer("coupling qubit", self.qubit))
        object.__setattr__(
            self, "oscillator", _integer("coupling oscillator", self.oscillator)
        )
        object.__setattr__(self, "n", _integer("coupling order n", self.n, 1))
        object.__setattr__(self, "g", _real("coupling strength g", self.g, 0))


@dataclass(frozen=True)
class StabilizerSpec:
    """Spectral stabilizer added to an exact model.

    Attributes:
        form: ``"number_power"`` adds ``eta * g * a†^m a^m`` (default
            ``m = floor(n/2) + 1``, the smallest power that dominates the
            interaction at large photon number); ``"full_position_power"``
            adds ``eta * g * (a + a†)^m`` and requires an explicit even
            ``m > n``.
        eta: Dimensionless stabilizer strength (>= 0).
        m: Power override (see ``form``).
    """

    form: str
    eta: float
    m: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "form", str(self.form))
        object.__setattr__(self, "eta", _real("stabilizer strength eta", self.eta, 0))
        if self.m is not None:
            object.__setattr__(self, "m", _integer("stabilizer power m", self.m, 1))
        if self.form not in STABILIZER_FORMS:
            raise ConfigError(
                f"stabilizer form must be one of {STABILIZER_FORMS}, "
                f"got {self.form!r}"
            )

    def power(self, n: int) -> int:
        """Effective power ``m`` for interaction order ``n``."""
        if self.m is not None:
            return self.m
        if self.form == "number_power":
            return _integer("coupling order n", n, 1) // 2 + 1
        raise ConfigError(
            "full_position_power stabilizer requires an explicit even power m"
        )


@dataclass(frozen=True)
class SystemSpec:
    """Complete declarative description of a model instance."""

    topology: str
    qubits: tuple[QubitSpec, ...]
    oscillators: tuple[OscillatorSpec, ...]
    couplings: tuple[CouplingSpec, ...] = ()
    stabilizer: Optional[StabilizerSpec] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubits", tuple(self.qubits))
        object.__setattr__(self, "oscillators", tuple(self.oscillators))
        object.__setattr__(self, "couplings", tuple(self.couplings))
        if self.topology not in TOPOLOGIES:
            raise ConfigError(
                f"topology must be one of {TOPOLOGIES}, got {self.topology!r}"
            )
        if not self.qubits:
            raise ConfigError("at least one qubit is required")
        if not self.oscillators:
            raise ConfigError("at least one oscillator is required")

        if self.topology == "single":
            if len(self.qubits) != 1 or len(self.oscillators) != 1:
                raise ConfigError(
                    "single topology requires exactly one qubit and one oscillator"
                )
        elif self.topology == "multiqubit":
            if len(self.oscillators) != 1:
                raise ConfigError(
                    "multiqubit topology requires exactly one shared oscillator"
                )
        else:  # multimode
            if len(self.qubits) != 1:
                raise ConfigError("multimode topology requires exactly one qubit")
            if not self.couplings:
                raise ConfigError(
                    "multimode topology requires explicit couplings"
                )

        if self.topology in ("single", "multiqubit"):
            if self.couplings:
                raise ConfigError(
                    "couplings are implied by the qubit entries for "
                    f"{self.topology!r} topologies; leave the list empty"
                )
        else:
            seen, modes = set(), len(self.oscillators)
            for c in self.couplings:
                _integer("coupling qubit", c.qubit, 0, len(self.qubits) - 1)
                _integer("coupling oscillator", c.oscillator, 0, modes - 1)
                if c.oscillator in seen:
                    raise ConfigError(
                        f"oscillator {c.oscillator} has more than one coupling"
                    )
                seen.add(c.oscillator)

        if self.stabilizer is not None:
            if not (
                self.topology == "single"
                or (self.topology == "multiqubit" and len(self.qubits) == 1)
            ):
                raise ConfigError(
                    "a stabilizer is supported only when a single qubit defines "
                    "the coupling scale (single topology, or multiqubit with "
                    "one qubit)"
                )
            n = self.qubits[0].n
            m = self.stabilizer.power(n)
            if self.stabilizer.form == "full_position_power":
                if m % 2 != 0 or m <= n:
                    raise ConfigError(
                        "full_position_power stabilizer requires an even power "
                        f"m > n (got m={m}, n={n})"
                    )

    # -- structural helpers ---------------------------------------------------

    def layout(self) -> HilbertLayout:
        """Hilbert layout with qubits first, then oscillators."""
        return qubit_oscillator_layout(
            len(self.qubits), [o.trunc for o in self.oscillators]
        )

    def common_n(self) -> int:
        """Shared exchange order of all qubits (multiqubit topologies).

        Raises:
            ConfigError: If the qubits do not share one order.
        """
        orders = {q.n for q in self.qubits}
        if len(orders) != 1:
            raise ConfigError(
                "this operation requires every qubit to share one exchange "
                f"order; found {sorted(orders)}"
            )
        return self.qubits[0].n

    def qubit_params(self, index: int = 0) -> DispersiveParams:
        """Dispersive parameters of qubit ``index`` against oscillator 0."""
        q = self.qubits[_integer("qubit index", index, 0, len(self.qubits) - 1)]
        return DispersiveParams.from_frequencies(
            q.omega_q, q.n, q.g, self.oscillators[0].omega
        )

    # -- serialization ---------------------------------------------------------

    @classmethod
    def from_dict(cls, payload: dict) -> "SystemSpec":
        """Parse the JSON configuration schema.

        The fields of the spec dataclasses are the schema, and their
        constructors convert and check every value::

            {
              "topology": "single" | "multiqubit" | "multimode",
              "qubits": [QubitSpec fields, ...],
              "oscillators": [OscillatorSpec fields, ...],  # omega defaults to 1
              "couplings": [CouplingSpec fields, ...],      # multimode only
              "stabilizer": StabilizerSpec fields           # optional
            }

        Raises:
            ConfigError: On an entry that is not an object, a list field that
                is not a list, unknown keys, missing keys without a default,
                ``null`` values, or a value its field refuses (integer fields
                refuse booleans and fractional numbers).
        """
        top = _entry(cls, payload, "configuration")
        for key, spec_cls, defaults in (
            ("qubits", QubitSpec, {}),
            ("oscillators", OscillatorSpec, {"omega": 1.0}),
            ("couplings", CouplingSpec, {}),
        ):
            items = top.get(key, [])
            if not isinstance(items, list):
                raise ConfigError(f"configuration key {key!r} must be a list")
            top[key] = tuple(
                spec_cls(**_entry(spec_cls, item, key[:-1], **defaults))
                for item in items
            )
        if "stabilizer" in top:
            stab = _entry(StabilizerSpec, top["stabilizer"], "stabilizer")
            top["stabilizer"] = StabilizerSpec(**stab)
        return cls(**top)

    def to_dict(self) -> dict:
        """Plain-dict form that round-trips through :meth:`from_dict`:
        the dataclass fields, without empty ``couplings``, an absent
        ``stabilizer`` or an absent stabilizer power ``m``."""
        return dataclasses.asdict(
            self,
            dict_factory=lambda items: {
                key: list(value) if isinstance(value, tuple) else value
                for key, value in items
                if value is not None and value != ()
            },
        )

    @classmethod
    def from_json(cls, text: str) -> "SystemSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"configuration is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def from_json_file(cls, path) -> "SystemSpec":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read configuration file {path}: {exc}") from exc
        return cls.from_json(text)


def _sweep_index(var: str) -> Optional[int]:
    """``i`` of the sweep variable ``g<i>`` (see ``_SWEEP_VARIABLE``), None
    for ``g`` and ``eta``.

    Raises:
        ConfigError: For any other variable.
    """
    match = isinstance(var, str) and _SWEEP_VARIABLE.fullmatch(var)
    if not match:
        raise ConfigError(
            f"unknown sweep variable {var!r}; expected 'g', 'g<i>', or 'eta'"
        )
    return int(match[1]) if match[1] else None


def with_swept(spec: SystemSpec, var: str, value: float) -> SystemSpec:
    """Copy of ``spec`` with the sweep variable ``var`` (see
    ``_SWEEP_VARIABLE``) set to ``value``, which the replaced spec field
    checks.

    Raises:
        ConfigError: For an unknown variable, a missing target or a value
            the field refuses.
    """
    idx = _sweep_index(var)
    if var == "eta":
        if spec.stabilizer is None:
            raise ConfigError("sweep variable 'eta' requires a stabilizer")
        return dataclasses.replace(
            spec, stabilizer=dataclasses.replace(spec.stabilizer, eta=value)
        )
    if var == "g":
        qubits = tuple(dataclasses.replace(q, g=value) for q in spec.qubits)
        couplings = tuple(
            dataclasses.replace(c, g=value) for c in spec.couplings
        )
        return dataclasses.replace(spec, qubits=qubits, couplings=couplings)
    field = "couplings" if spec.topology == "multimode" else "qubits"
    entries = list(getattr(spec, field))
    if idx >= len(entries):
        raise ConfigError(f"sweep variable {var!r}: no {field[:-1]} {idx}")
    entries[idx] = dataclasses.replace(entries[idx], g=value)
    return dataclasses.replace(spec, **{field: tuple(entries)})


# ---------------------------------------------------------------------------
# Term-list assembly
# ---------------------------------------------------------------------------


def _require_topology(spec: SystemSpec, *allowed: str) -> None:
    if spec.topology not in allowed:
        raise ConfigError(
            f"this builder requires topology in {allowed}, "
            f"got {spec.topology!r}"
        )


def _couplings(spec: SystemSpec) -> list[tuple[int, int, int, float]]:
    """``(qubit slot, oscillator slot, n, g)`` of every coupling, checked
    against the truncation; multimode couplings are ordered by oscillator."""
    nq = len(spec.qubits)
    if spec.topology == "multimode":
        couplings = sorted(spec.couplings, key=lambda c: c.oscillator)
        entries = [(c.qubit, nq + c.oscillator, c.n, c.g) for c in couplings]
    else:
        entries = [(l, nq, q.n, q.g) for l, q in enumerate(spec.qubits)]
    for _, k, n, _ in entries:
        trunc = spec.oscillators[k - nq].trunc
        if n >= trunc:
            raise TruncationError(
                f"exchange order n={n} must be strictly below the truncation "
                f"dimension {trunc}"
            )
    return entries


def _number_poly(coeffs: Sequence[int], trunc: int) -> np.ndarray:
    """:func:`.analytic._poly_value` of ``coeffs`` at every ``j < trunc``."""
    return np.array([_poly_value(coeffs, j) for j in range(trunc)])


# A local factor is the operator of one layout slot as a tuple of diagonals
# ``(d, x)``: ``x[m] = <m|op|m + d>``, zero where ``m + d`` leaves the slot.
# Qubits are ordered (|e>, |g>).
_PLUS = ((1, np.array([1.0, 0.0])),)
_MINUS = ((-1, np.array([0.0, 1.0])),)
_Z = ((0, np.array([1.0, -1.0])),)


def _dagger(factor: tuple) -> tuple:
    """Adjoint of a real local factor."""
    return tuple((-d, np.roll(x, d)) for d, x in factor)


def _lower(dim: int, n: int) -> tuple:
    """``a^n``: ``<m|a^n|m+n> = sqrt(m+1) sqrt(m+2) ... sqrt(m+n)``, multiplied
    left to right as :func:`.fockspace.op_pow` multiplies it."""
    x = np.zeros(dim)
    m = np.arange(max(dim - n, 0), dtype=float)
    x[: m.size] = np.sqrt(m + 1.0)
    for i in range(2, n + 1):
        x[: m.size] *= np.sqrt(m + i)
    return ((n, x),)


def _number_power(dim: int, n: int) -> tuple:
    """``a†^n a^n``: the squares of the entries of :func:`_lower`."""
    x = np.roll(_lower(dim, n)[0][1], n)
    return ((0, x * x),)


def _position_power(dim: int, n: int) -> tuple:
    """``(a + a†)^n`` as :func:`.fockspace.op_pow` forms it: the products
    ``((X X) X) ...``, each entry summed over the inner index in ascending
    order, then symmetrized as ``(P + P†) / 2``."""
    m = np.arange(dim)
    root = np.sqrt(np.arange(dim + 1.0))  # <k-1|X|k> = sqrt(k), <k+1|X|k> = sqrt(k+1)

    def column(d, values):
        """``values`` at the rows ``m`` whose column ``m + d`` exists, else 0."""
        return np.where((m + d >= 0) & (m + d < dim), values, 0.0)

    power = {0: np.ones(dim)}
    for p in range(1, n + 1):
        power = {
            d: column(
                d,
                power.get(d - 1, 0.0) * root[np.clip(m + d, 0, dim)]
                + power.get(d + 1, 0.0) * root[np.clip(m + d + 1, 0, dim)],
            )
            for d in range(-p, p + 1, 2)
        }
    # <m + d|P|m>, the mirror entry of <m|P|m + d>.
    mirror = {d: column(d, power[-d][np.clip(m + d, 0, dim - 1)]) for d in power}
    return tuple((d, 0.5 * (x + mirror[d])) for d, x in power.items())


def _assemble(
    layout: HilbertLayout, diag: np.ndarray, terms: list
) -> SparseOperator:
    """Sum a dense diagonal and the terms ``(coefficient, {layout slot:
    local factor})``, in list order, into one certified operator.

    Each term's entries come from the occupation vectors: every choice of
    one diagonal per slot moves each basis state by its offsets, and the
    entry is the product of the slot values in layout order (as SciPy's
    ``kron`` forms it in :func:`.fockspace.embed`), times the coefficient.

    Raises:
        ResonanceError: If an entry is beyond the float range (such as
            ``sqrt(m + 1) ... sqrt(m + n)`` of ``a^n`` near ``n = 300``).
    """
    occ = layout.occupation_vectors()
    dims = np.array(layout.dims)
    states = np.arange(layout.total_dim)
    rows, cols, values = [states], [states], [diag]
    for coef, factors in terms:
        slots = sorted(factors)
        for diagonals in itertools.product(*(factors[s] for s in slots)):
            target = occ.copy()
            target[:, slots] += [d for d, _ in diagonals]
            inside = np.all((target >= 0) & (target < dims), axis=1)
            value = np.ones(np.count_nonzero(inside))
            for s, (_, x) in zip(slots, diagonals):
                value = value * x[occ[inside, s]]
            rows.append(states[inside])
            cols.append(np.ravel_multi_index(target[inside].T, layout.dims))
            values.append(coef * value)
    op = SparseOperator.from_coo(
        layout, np.concatenate(rows), np.concatenate(cols), np.concatenate(values)
    )
    bad = np.count_nonzero(~np.isfinite(op.data))
    if bad:
        raise ResonanceError(
            f"{bad} of {op.nnz} Hamiltonian entries are beyond the float range"
        )
    return op


def _exchange(coef: float, rotating: bool, ops: dict, fixed: dict) -> list:
    """Terms ``coef (prod A + prod A†)`` if ``rotating``, else
    ``coef prod (A + A†)``, over the factors ``ops``; ``fixed`` multiplies
    either form."""
    if rotating:
        daggers = {slot: _dagger(op) for slot, op in ops.items()}
        return [(coef, {**fixed, **ops}), (coef, {**fixed, **daggers})]
    return [(coef, {**fixed, **{s: op + _dagger(op) for s, op in ops.items()}})]


def _exact_model(spec: SystemSpec, kind: str) -> SparseOperator:
    """Exact model with a ``"ladder"``, ``"rotating"`` or ``"position"``
    interaction on every coupling, plus the configured stabilizer."""
    stab = spec.stabilizer
    if kind == "position" and stab is not None and stab.form != "full_position_power":
        raise ConfigError(
            "the position-power model supports only full_position_power "
            "stabilizers"
        )
    layout = spec.layout()
    nq = len(spec.qubits)
    occ = layout.occupation_vectors()
    splittings = [
        (0.5 * q.omega_q, 1.0 - 2.0 * occ[:, l]) for l, q in enumerate(spec.qubits)
    ]
    energies = [(o.omega, occ[:, nq + k]) for k, o in enumerate(spec.oscillators)]
    # The summation order is part of the output: any other order moves
    # entries of multimode models by roundoff.
    diag = sum(c * v for c, v in energies[:1] + splittings + energies[1:])

    terms = []
    for l, k, n, g in _couplings(spec):
        dim = layout.dims[k]
        if kind == "position":
            terms.append((g, {l: _PLUS + _MINUS, k: _position_power(dim, n)}))
        else:
            ops = {l: _PLUS, k: _lower(dim, n)}
            terms += _exchange(g, kind == "rotating", ops, {})
    if stab is not None:
        q = spec.qubits[0]
        m = stab.power(q.n)
        trunc = spec.oscillators[0].trunc
        if stab.form == "number_power":
            local = _number_power(trunc, m)
        else:
            local = _position_power(trunc, m)
        terms.append((stab.eta * q.g, {nq: local}))
    return _assemble(layout, diag, terms)


def _dispersive_model(
    spec: SystemSpec, regime: str, include_squeezing: bool = True
) -> SparseOperator:
    """Second-order effective model of every coupling and coupling pair."""
    spec.common_n()  # qubits that share a mode must share its exchange order
    rotating = regime == "rwa"
    layout = spec.layout()
    dims = layout.dims
    couplings = _couplings(spec)
    nq = len(spec.qubits)
    omega_q = {l: q.omega_q for l, q in enumerate(spec.qubits)}
    omega = {nq + k: o.omega for k, o in enumerate(spec.oscillators)}
    params = [
        DispersiveParams.from_frequencies(omega_q[l], n, g, omega[k])
        for l, k, n, g in couplings
    ]
    # Like dispersive_level, take each frequency back from (delta, sigma) of
    # its first coupling, so one coupling reproduces that level bit for bit.
    for (l, k, _, _), p in reversed(list(zip(couplings, params))):
        omega_q[l], omega[k] = p.omega_q, p.omega_o

    occ = layout.occupation_vectors()
    diag = sum(w * occ[:, k] for k, w in omega.items())
    shift = dict.fromkeys(omega_q, 0.0)
    terms = []
    for (l, k, n, _), p in zip(couplings, params):
        chi, xi = p._strengths(regime)
        plus, minus, _ = _number_polys(n)
        j = occ[:, k]
        diag = diag + 0.5 * (chi - xi) * _number_poly(minus, dims[k])[j]
        shift[l] = shift[l] + 0.5 * (chi + xi) * _number_poly(plus, dims[k])[j]
        if not rotating and include_squeezing:
            ops = {k: _lower(dims[k], 2 * n)}
            terms += _exchange(0.5 * (chi + xi), False, ops, {l: _Z})
    for l, w in omega_q.items():
        diag = diag + (1.0 - 2.0 * occ[:, l]) * (shift[l] + 0.5 * w)

    for i, ((li, ki, ni, _), pi) in enumerate(zip(couplings, params)):
        for (lj, kj, nj, _), pj in zip(couplings[:i], params[:i]):
            chi_x, xi_x = _cross_strengths(pi, pj, regime)
            if ki == kj:  # qubit exchange times P_cross(N) of the shared mode
                p_cross = _number_poly(_number_polys(ni)[2], dims[ki])
                ops = {li: _PLUS, lj: _MINUS}
                terms += _exchange(
                    0.5 * (chi_x - xi_x), rotating, ops, {ki: ((0, p_cross),)}
                )
            else:  # the topologies leave a shared qubit: mode exchange
                ops = {ki: _lower(dims[ki], ni), kj: _dagger(_lower(dims[kj], nj))}
                terms += _exchange(0.5 * (chi_x + xi_x), rotating, ops, {li: _Z})
    return _assemble(layout, diag, terms)


# ---------------------------------------------------------------------------
# Public builders
# ---------------------------------------------------------------------------


def build_model(
    spec: SystemSpec,
    model: str,
    regime: str = "nonrwa",
    squeezing: bool = True,
) -> SparseOperator:
    """Hamiltonian ``model`` of the system ``spec``.

    Every model carries the bare part ``sum_k omega_k N_k + sum_l (omega_q,l
    / 2) sigma_z^l`` and, per coupling (qubit ``l``, mode ``k``, order ``n``,
    strength ``g``), one interaction term::

        topology     model       interaction per coupling
        single       nR          g sigma_x (a†^n + a^n)
                     nJC         g (sigma_+ a^n + sigma_- a†^n)
                     full_nR     g sigma_x (a + a†)^n
        multiqubit   nDicke      g_l sigma_x^l (a†^n + a^n)
                     nTC         g_l (sigma_+^l a^n + sigma_-^l a†^n)
        multimode    mmr         g_k sigma_x (a_k†^n_k + a_k^n_k)
                     mmjc        g_k (sigma_+ a_k^n_k + sigma_- a_k†^n_k)
        any          dispersive  second-order effective model (below)

    The exact models add the configured stabilizer, ``eta g a†^m a^m`` or
    ``eta g (a + a†)^m``.  ``nJC`` and ``nTC`` conserve ``N + n |e><e|``
    (see :func:`charge_operator`), so the ``nJC`` spectrum splits into an
    uncoupled ladder ``|g, j < n>`` plus two-level doublets.  ``full_nR``
    holds every multiphoton process up to order ``n`` and takes only the
    ``full_position_power`` stabilizer (even ``m > n``), which restores a
    bounded-below continuum limit.  With one qubit or one mode,
    ``nDicke``/``mmr`` reduce entrywise to ``nR`` and ``nTC``/``mmjc`` to
    ``nJC``.

    The ``dispersive`` model has no stabilizer term: it ignores
    ``spec.stabilizer`` and builds the same matrix with or without one.  It
    holds, per coupling, the diagonal of
    :func:`.analytic.dispersive_level`, evaluated in its operation order so
    the two agree bit for bit; in the ``"nonrwa"`` regime with ``squeezing``
    it adds ``(chi + xi)/2 sigma_z (a†^(2n) + a^(2n))``.  Each pair of
    couplings ``l``, ``m`` adds an exchange through the shared mode
    (multiqubit: qubits ``l``, ``m``) or the shared qubit (multimode: modes
    ``l``, ``m``)::

        multiqubit rwa:     (chi_x / 2)         (s+_l s-_m + s-_l s+_m) P(N)
        multiqubit nonrwa:  ((chi_x - xi_x)/2)  sigma_x^l sigma_x^m     P(N)
        multimode rwa:      (chi_x / 2)         sigma_z (a_l†^n_l a_m^n_m + h.c.)
        multimode nonrwa:   ((chi_x + xi_x)/2)  sigma_z (a_l^n_l + a_l†^n_l)
                                                        (a_m^n_m + a_m†^n_m)

    with ``P(N) = sum_{k=0}^{n-1} Cminus(n,k) N^k`` from ``k = 0``, so the
    vacuum ``N = 0`` keeps its exchange ``Cminus(n,0) = n!``,
    ``chi_x = g_l g_m (1/delta_l + 1/delta_m)`` and ``xi_x`` likewise with
    sum frequencies.  Qubits sharing a mode must share
    its order ``n``; their exchange vanishes for ``delta_l = -delta_m``.

    Args:
        spec: System description.
        model: One of ``MODELS_BY_TOPOLOGY[spec.topology]``.
        regime: ``"rwa"`` or ``"nonrwa"`` (``dispersive`` only).
        squeezing: Keep the nonrwa squeezing-like term (``dispersive`` only).

    Raises:
        ConfigError: For a model the topology does not offer, qubits of
            different orders on a shared mode (``dispersive``), or a
            stabilizer of the wrong form (``full_nR``).
        TruncationError: If any ``n >= trunc``.
        ResonanceError: If a Hamiltonian entry is beyond the float range,
            or (``dispersive``) a detuning denominator vanishes, or ``g**2``
            or a photon-number polynomial is beyond the float range.
        ConfigError: For an unknown regime (``dispersive``).
    """
    allowed = MODELS_BY_TOPOLOGY[spec.topology]
    if model not in allowed:
        raise ConfigError(
            f"model {model!r} is not available for topology "
            f"{spec.topology!r}; choose from {allowed}"
        )
    # An overflow is refused by _assemble, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        if model == "dispersive":
            return _dispersive_model(spec, regime, squeezing)
        return _exact_model(spec, _EXACT_KINDS[model])


def charge_operator(spec: SystemSpec) -> SparseOperator:
    """Conserved charge ``N + n sum_l |e><e|_l`` of the rotating models.

    Commutes exactly with the ``nJC`` (single topology) and ``nTC``
    (multiqubit topology with a shared order) models of :func:`build_model`.
    """
    _require_topology(spec, "single", "multiqubit")
    n = spec.common_n()
    layout = spec.layout()
    nq = len(spec.qubits)
    occ = layout.occupation_vectors()
    return _assemble(layout, occ[:, nq] + float(n) * (occ[:, :nq] == 0).sum(axis=1), [])


def two_qubit_block(j: int, spec: SystemSpec, regime: str = "nonrwa") -> np.ndarray:
    """Closed-form 4x4 block of the two-qubit effective model at photon number j.

    Basis ordering ``{|ee>, |eg>, |ge>, |gg>} (x) |j>``; the entry of
    ``|q1 q2>`` is two :func:`.analytic.dispersive_level` values sharing
    ``omega_o j``.  Because every term of the multiqubit ``dispersive`` model
    except the squeezing-like one conserves photon number (and the squeezing
    term moves ``2n`` quanta, having no elements inside a fixed-``j``
    sector), the eigenvalues of this block coincide with those of the
    projected full model.

    Returns:
        Real symmetric ``(4, 4)`` array.

    Raises:
        ConfigError: Unless ``spec`` holds exactly two qubits of equal order.
        ResonanceError: If any detuning denominator vanishes, or ``g**2`` or
            a photon-number polynomial is beyond the float range.
        ConfigError: For a ``j`` that is not an integer ``>= 0``, or an
            unknown regime.
    """
    _require_topology(spec, "multiqubit")
    if len(spec.qubits) != 2:
        raise ConfigError("two_qubit_block requires exactly two qubits")
    n = spec.common_n()
    j = _integer("photon number j", j)
    p1, p2 = spec.qubit_params(0), spec.qubit_params(1)
    e1 = {q: dispersive_level(p1, q, j, regime) for q in "eg"}
    e2 = {q: dispersive_level(p2, q, j, regime) for q in "eg"}
    w = spec.oscillators[0].omega * j
    block = np.diag([e1[a] + e2[b] - w for a, b in ("ee", "eg", "ge", "gg")])
    chi_x, xi_x = _cross_strengths(p1, p2, regime)
    exch = 0.5 * (chi_x - xi_x) * _poly_value(_number_polys(n)[2], j)
    block[1, 2] = block[2, 1] = exch
    if regime == "nonrwa":
        block[0, 3] = block[3, 0] = exch
    return block
