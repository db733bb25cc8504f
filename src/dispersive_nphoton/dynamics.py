"""State preparation, time evolution, reduced states, and fidelity.

The propagator (:func:`propagator`, applied once by :func:`evolve`)
decomposes the operator once into its connected blocks.  Blocks are taken
smallest first while their eigenvectors fit in ``DENSE_LIMIT**2`` entries,
and each of them is propagated exactly through the block solver's
eigenpairs.  Every other block runs a shifted Krylov-Lanczos matrix
exponential on its own sub-matrix, held as NumPy CSR arrays and multiplied
by the kernel of :mod:`.fockspace` (no ``scipy.sparse``).  It builds a
fresh Lanczos subspace per substep and halves the step until the
a-posteriori error estimate clears the local tolerance; a run that would
take more than :data:`MAX_SUBSTEPS` substeps is refused.  No
renormalization is ever applied — norm drift is a diagnostic of propagator
quality, not something to hide.

Initial states come from :func:`basis_state`, :func:`superposition`,
:func:`coherent_state`, :func:`tensor_state`, or the named presets of
:func:`preset_state`.  Reduced density matrices come from
:func:`partial_trace` and are compared with the Uhlmann fidelity
(:func:`fidelity`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .eigensolve import (
    DENSE_LIMIT,
    _block_eigh,
    _blocks,
    _lanczos_run,
    _submatrix,
    _tridiagonal_eigh,
)
from .errors import (
    ConfigError,
    PropagationError,
    TruncationError,
    _complex,
    _integer,
    _real,
)
from .fockspace import HilbertLayout, SparseOperator, _csr_one_norm

#: Presets understood by :func:`preset_state`.
STATE_PRESETS = ("bell", "plus_coherent_1", "plus_coherent_2")

#: Most substeps that one Krylov propagation of a block may take.  A run is
#: refused as soon as the substeps taken plus the rest of the time at the
#: current step would pass it: a small ``krylov_dim`` can need a number of
#: substeps that grows with ``t`` without bound.  The largest count in the
#: tests, demos and CI is 4096 (``krylov_dim`` 4).
MAX_SUBSTEPS = 100_000


# ---------------------------------------------------------------------------
# Pure states
# ---------------------------------------------------------------------------


@dataclass
class StateVector:
    """Normalized pure state on a :class:`.fockspace.HilbertLayout`.

    Attributes:
        layout: Composite space of the amplitudes.
        amplitudes: Complex amplitudes in the composite basis (row-major
            ordering of :meth:`HilbertLayout.basis_index`).
    """

    layout: HilbertLayout
    amplitudes: np.ndarray
    norm_tol: float = 1e-12

    def __post_init__(self) -> None:
        self.norm_tol = _real("norm_tol", self.norm_tol, 0)
        amps = np.asarray(self.amplitudes, dtype=np.complex128).copy()
        if amps.shape != (self.layout.total_dim,):
            raise ConfigError(
                f"amplitude shape {amps.shape} does not match layout "
                f"dimension {self.layout.total_dim}"
            )
        nrm = float(np.linalg.norm(amps))
        if not abs(nrm - 1.0) <= self.norm_tol:
            raise ConfigError(
                f"state norm {nrm!r} deviates from 1 by more than {self.norm_tol}"
            )
        self.amplitudes = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def mean_photon_number(self) -> float:
        """Expectation of the total oscillator number operator."""
        nvec = self.layout.oscillator_number_diagonal()
        return float(nvec @ (np.abs(self.amplitudes) ** 2))


def basis_state(layout: HilbertLayout, occupations: Sequence[int]) -> StateVector:
    """Product basis state ``|occupations>`` (qubits: ``0 = e``, ``1 = g``)."""
    amps = np.zeros(layout.total_dim, dtype=np.complex128)
    amps[layout.basis_index(occupations)] = 1.0
    return StateVector(layout, amps)


def superposition(
    layout: HilbertLayout, terms: Sequence[tuple[complex, Sequence[int]]]
) -> StateVector:
    """Normalized superposition of product basis states.

    Args:
        layout: Composite layout.
        terms: Pairs ``(coefficient, occupations)``; coefficients are
            normalized after summing (duplicate occupations add).

    Raises:
        ConfigError: If the summed amplitudes vanish.
    """
    amps = np.zeros(layout.total_dim, dtype=np.complex128)
    for coeff, occs in terms:
        amps[layout.basis_index(occs)] += _complex("superposition coefficient", coeff)
    nrm = np.linalg.norm(amps)
    if nrm == 0.0:
        raise ConfigError("superposition terms cancel to the zero vector")
    return StateVector(layout, amps / nrm)


def coherent_state(alpha: complex, trunc: int) -> StateVector:
    """Truncated coherent state ``|alpha>`` on a single oscillator.

    The truncation must comfortably contain the photon-number distribution:
    ``(|alpha| + 3)**2 <= trunc`` is required, and the truncated tail mass
    must stay below 1e-10; the retained amplitudes are then renormalized.

    Raises:
        ConfigError: If ``alpha`` is not a finite number or ``trunc`` not an
            integer.
        TruncationError: If the guard or the tail-mass bound fails.
    """
    trunc = _integer("coherent state truncation", trunc)
    alpha = _complex("coherent amplitude", alpha)
    mod = abs(alpha)
    if (mod + 3.0) ** 2 > trunc:
        raise TruncationError(
            f"coherent amplitude |alpha|={mod:.3g} needs at least "
            f"{math.ceil((mod + 3.0) ** 2)} Fock levels, got {trunc}"
        )
    vacuum = math.exp(-0.5 * mod * mod)
    if vacuum < np.finfo(float).tiny:
        # The vacuum amplitude underflows (|alpha| > 37.6): take every
        # amplitude alpha**j exp(-|alpha|**2 / 2) / sqrt(j!) from its logarithm.
        j = np.arange(trunc)
        log_fact = np.array([math.lgamma(m + 1.0) for m in range(trunc)])
        log_mod = j * math.log(mod) - 0.5 * mod * mod - 0.5 * log_fact
        amps = np.exp(log_mod + 1j * np.angle(alpha) * j)
    else:
        amps = np.zeros(trunc, dtype=np.complex128)
        amps[0] = vacuum
        for j in range(1, trunc):
            amps[j] = amps[j - 1] * alpha / math.sqrt(j)
    tail = 1.0 - float(np.sum(np.abs(amps) ** 2))
    if tail > 1e-10:
        raise TruncationError(
            f"coherent state leaves tail mass {tail:.3g} above 1e-10 "
            f"outside {trunc} Fock levels"
        )
    amps /= np.linalg.norm(amps)
    layout = HilbertLayout((("oscillator", trunc),))
    return StateVector(layout, amps)


def tensor_state(*states: StateVector) -> StateVector:
    """Tensor product of states; layouts concatenate in argument order."""
    if not states:
        raise ConfigError("tensor_state requires at least one state")
    amps = states[0].amplitudes
    subs = states[0].layout.subsystems
    for s in states[1:]:
        amps = np.kron(amps, s.amplitudes)
        subs = subs + s.layout.subsystems
    return StateVector(HilbertLayout(subs), amps)


def preset_state(name: str, layout: HilbertLayout) -> StateVector:
    """Named initial states used by the dynamics experiments.

    * ``"bell"``: ``(|g, 2> + |e, 0>) / sqrt(2)`` — a qubit-oscillator
      entangled pair within one rotating-model doublet.
    * ``"plus_coherent_1"`` / ``"plus_coherent_2"``: qubit superposition
      ``(|e> + |g>)/sqrt(2)`` times a coherent state with mean photon
      number 1 or 2.

    Args:
        name: One of :data:`STATE_PRESETS`.
        layout: Target layout; must be one qubit followed by one oscillator.
    """
    if name not in STATE_PRESETS:
        raise ConfigError(f"unknown preset {name!r}; expected one of {STATE_PRESETS}")
    if (
        layout.n_subsystems != 2
        or layout.qubit_indices != (0,)
        or layout.oscillator_indices != (1,)
    ):
        raise ConfigError("presets require a (qubit, oscillator) layout")
    trunc = layout.dims[1]
    if name == "bell":
        if trunc < 3:
            raise ConfigError("the bell preset requires at least 3 Fock levels")
        return superposition(layout, [(1.0, (1, 2)), (1.0, (0, 0))])
    nbar = 1.0 if name == "plus_coherent_1" else 2.0
    qubit_layout = HilbertLayout((("qubit", 2),))
    plus = StateVector(
        qubit_layout, np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2.0)
    )
    return tensor_state(plus, coherent_state(math.sqrt(nbar), trunc))


def expectation(op: SparseOperator, state: StateVector) -> complex:
    """Expectation value ``<psi| A |psi>``."""
    if op.layout != state.layout:
        raise ConfigError("operator and state live on different layouts")
    return complex(np.vdot(state.amplitudes, op.apply(state.amplitudes)))


# ---------------------------------------------------------------------------
# Time evolution
# ---------------------------------------------------------------------------


def evolve(
    h: SparseOperator,
    psi0: StateVector,
    t: float,
    krylov_dim: int = 30,
    local_tol: float = 1e-10,
) -> StateVector:
    """Propagate ``|psi(t)> = exp(-i H t) |psi(0)>``.

    The blocks of ``h`` are taken smallest first while their eigenvectors,
    ``sum s_b**2`` entries, fit in ``DENSE_LIMIT**2``: the size of the
    ``(dim, dim)`` matrix that :func:`.eigensolve.eigh_dense` may return,
    checked on the block sizes before anything is allocated.  Each of them
    is propagated exactly, ``V exp(-i E t) V^H psi_b``, from the eigenpairs
    of the block solver (batched, chain or LAPACK).  Every other block runs
    a shifted Krylov-Lanczos exponential on its own sub-matrix: the mean of
    its diagonal is subtracted (restoring its phase exactly at the end),
    each substep builds a fresh ``krylov_dim``-dimensional basis by the one
    Lanczos recursion that :func:`.eigensolve.eigs_lowest` also runs (full
    reorthogonalization), and the step is halved until the a-posteriori
    estimate ``|dt| * beta_m * |u_m(dt)|`` falls below ``local_tol``; only
    a breakdown before step ``krylov_dim`` skips the estimate.  The result
    is never renormalized; its norm drift is a propagation diagnostic.
    Each call decomposes ``h`` anew; a run of many steps builds
    :func:`propagator` once and chains its ``step``.

    Args:
        h: Certified-Hermitian generator.
        psi0: Initial state on the same layout.
        t: Total evolution time (may be negative or zero).
        krylov_dim: Lanczos subspace size per substep (``>= 2``; capped at
            the block size).
        local_tol: Per-substep error budget (finite and positive).

    Raises:
        ConfigError: On a non-Hermitian generator, a mismatched layout, a
            non-finite ``t``, ``krylov_dim < 2`` or a ``local_tol`` that is
            not finite and positive.
        PropagationError: If adaptive halving underflows the step size, or
            a block would need more than :data:`MAX_SUBSTEPS` substeps.
    """
    return propagator(h, krylov_dim, local_tol)(psi0, t)


def propagator(h: SparseOperator, krylov_dim: int, local_tol: float):
    """``step(state, t) = exp(-i h t) state``, with ``h`` decomposed here, once,
    by the rule of :func:`evolve`, whose arguments are all checked here."""
    if not h.hermitian:
        raise ConfigError("propagator requires a certified-hermitian generator")
    krylov_dim = _integer("krylov_dim", krylov_dim, 2)
    local_tol = _real("local_tol", local_tol, above=0)
    mat, members, starts = _blocks(h)
    sizes = np.diff(starts)
    by_size = np.argsort(sizes, kind="stable")
    exact = np.zeros(len(sizes), dtype=bool)
    exact[by_size] = np.cumsum(sizes[by_size] ** 2) <= DENSE_LIMIT**2
    held = members[np.repeat(exact, sizes)]
    bounds = np.append(0, np.cumsum(sizes[exact]))
    parts, _ = _block_eigh(mat, held, bounds, h.total_dim, "dense")
    rest = [members[starts[b] : starts[b + 1]] for b in np.flatnonzero(~exact)]
    # Cast to complex once here, not by csr_matvec in every Krylov product.
    rest = [(idx, _submatrix(mat, idx, np.complex128)) for idx in rest]

    def step(state: StateVector, t: float) -> StateVector:
        if state.layout != h.layout:
            raise ConfigError("generator and state live on different layouts")
        t = _real("evolution time t", t)
        if t == 0.0:
            return StateVector(h.layout, state.amplitudes, norm_tol=1e-8)
        psi = np.zeros_like(state.amplitudes)
        for rows, energies, vecs in parts:
            coeffs = np.einsum("bij,bi->bj", vecs.conj(), state.amplitudes[rows])
            coeffs *= np.exp(-1j * energies * t)
            psi[rows] = np.einsum("bij,bj->bi", vecs, coeffs)
        for idx, sub in rest:
            if state.amplitudes[idx].any():
                psi[idx] = _krylov_evolve(
                    sub, state.amplitudes[idx], t, krylov_dim, local_tol
                )
        return StateVector(h.layout, psi, norm_tol=1e-8)

    return step


def _krylov_evolve(mat, psi, t, krylov_dim, local_tol):
    """``exp(-i mat t) psi`` by adaptive Krylov substeps (see :func:`evolve`)."""
    dim = mat.shape[0]
    krylov_dim = min(krylov_dim, dim)
    theta = float(np.real(mat.diagonal()).mean())
    floor = 1e-14 * _csr_one_norm(mat.indices, mat.data)

    sign = 1.0 if t >= 0 else -1.0
    remaining = abs(t)
    dt_next = remaining
    min_step = abs(t) * 1e-15
    substeps = 0

    while remaining > 0.0:
        nrm = float(np.linalg.norm(psi))
        basis = np.empty((dim, krylov_dim), dtype=np.complex128)
        basis[:, 0] = psi / nrm
        alphas, betas = [], []
        _lanczos_run(mat, basis, alphas, betas, krylov_dim, floor, theta)
        m = len(alphas)
        # A breakdown before the last step means psi spans an exact invariant
        # subspace: the subspace exponential is exact for any step size.
        invariant = m < krylov_dim
        evals, evecs = _tridiagonal_eigh(alphas, betas)
        first_row = evecs[0, :].conj()

        dt = min(remaining, dt_next)
        while True:
            u = evecs @ (np.exp(-1j * sign * dt * evals) * first_row)
            err = 0.0 if invariant else abs(dt) * betas[-1] * abs(u[m - 1])
            if err <= local_tol:
                break
            dt *= 0.5
            if dt < min_step:
                raise PropagationError(
                    f"step size underflow at t_remaining={remaining:.6g} "
                    f"(local_tol={local_tol:g})"
                )
        psi = basis[:, :m] @ (nrm * u)
        remaining -= dt
        substeps += 1
        needed = substeps + remaining / dt
        if needed > MAX_SUBSTEPS:
            raise PropagationError(
                f"substep budget exceeded at t_remaining={remaining:.6g}: about "
                f"{needed:.3g} substeps needed, limit {MAX_SUBSTEPS} (a larger "
                f"krylov_dim or local_tol needs fewer)"
            )
        if invariant:
            dt_next = remaining if remaining > 0 else dt
        else:
            dt_next = dt * (2.0 if err <= 0.125 * local_tol else 1.0)

    return psi * np.exp(-1j * theta * t)


# ---------------------------------------------------------------------------
# Density matrices
# ---------------------------------------------------------------------------


@dataclass
class DensityMatrix:
    """Validated density matrix on a :class:`.fockspace.HilbertLayout`.

    Construction checks Hermiticity, unit trace, and (apart from numerical
    dust down to -1e-10) positive semidefiniteness.
    """

    layout: HilbertLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.asarray(self.matrix, dtype=np.complex128).copy()
        dim = self.layout.total_dim
        if mat.shape != (dim, dim):
            raise ConfigError(
                f"matrix shape {mat.shape} does not match layout dimension {dim}"
            )
        if not np.abs(mat - mat.conj().T).max() <= 1e-10:
            raise ConfigError("density matrix is not Hermitian within 1e-10")
        trace = complex(np.trace(mat))
        if not abs(trace - 1.0) <= 1e-8:
            raise ConfigError(f"density matrix trace {trace!r} is not 1")
        if not np.linalg.eigvalsh(mat).min() >= -1e-10:
            raise ConfigError("density matrix has an eigenvalue below -1e-10")
        self.matrix = mat

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        amps = state.amplitudes
        rho = np.outer(amps, amps.conj())
        # Compensate any propagator norm drift (diagnostic, not hidden in the
        # state itself) so the projector has exactly unit trace.
        return cls(state.layout, rho / np.real(np.trace(rho)))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


def partial_trace(
    obj: Union[StateVector, DensityMatrix], keep: Sequence[int]
) -> DensityMatrix:
    """Reduced density matrix over the kept subsystems.

    Args:
        obj: Pure state or density matrix.
        keep: Indices of subsystems to keep (order-insensitive; the reduced
            layout preserves the original subsystem order).

    Raises:
        ConfigError: If ``obj`` is not a state or density matrix, or ``keep``
            is empty or indexes outside the layout.
    """
    if not isinstance(obj, (StateVector, DensityMatrix)):
        raise ConfigError("partial_trace expects a StateVector or DensityMatrix")
    layout = obj.layout
    last = layout.n_subsystems - 1
    keep = sorted({_integer("kept subsystem index", i, 0, last) for i in keep})
    if not keep:
        raise ConfigError("keep must select at least one subsystem")
    traced = [i for i in range(layout.n_subsystems) if i not in keep]
    kept_layout = HilbertLayout(tuple(layout.subsystems[i] for i in keep))
    dim_keep = kept_layout.total_dim

    if isinstance(obj, StateVector):
        tensor = obj.amplitudes.reshape(layout.dims)
        tensor = np.transpose(tensor, axes=keep + traced)
        flat = tensor.reshape(dim_keep, -1)
        rho = flat @ flat.conj().T
        # Compensate any propagator norm drift so the reduced state passes
        # exact-trace validation.
        rho = rho / np.real(np.trace(rho))
        return DensityMatrix(kept_layout, rho)

    tensor = obj.matrix.reshape(layout.dims + layout.dims)
    for axis in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=axis, axis2=axis + tensor.ndim // 2)
    rho = tensor.reshape(dim_keep, dim_keep)
    rho = rho / np.real(np.trace(rho))
    return DensityMatrix(kept_layout, rho)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity ``(Tr sqrt(sqrt(rho) sigma sqrt(rho)))**2`` in [0, 1]."""
    if rho.layout.dims != sigma.layout.dims:
        raise ConfigError("density matrices live on different dimensions")
    w, u = np.linalg.eigh(rho.matrix)
    sqrt_rho = (u * np.sqrt(_drop_roundoff(w))) @ u.conj().T
    ev = np.linalg.eigvalsh(sqrt_rho @ sigma.matrix @ sqrt_rho)
    value = float(np.sqrt(_drop_roundoff(ev)).sum() ** 2)
    return min(max(value, 0.0), 1.0)


def _drop_roundoff(w: np.ndarray) -> np.ndarray:
    """Eigenvalues ``w`` of a PSD matrix with those below ``d eps max(w)`` set
    to 0: a square root would turn each ~1e-16 of roundoff into ~1e-8."""
    return np.where(w > len(w) * np.finfo(float).eps * w.max(), w, 0.0)
