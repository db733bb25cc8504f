"""Eigensolvers and spectral bookkeeping for sparse Hermitian operators.

Provides a dense reference path (:func:`eigh_dense`), a deterministic
Lanczos path with full reorthogonalization for the lowest part of large
spectra (:func:`eigs_lowest`, whose Lanczos step the Krylov propagator
shares), the ``--method`` dispatch between them (:func:`solve_lowest`), and
the bookkeeping used by spectral sweeps: labeling eigenstates by dominant
bare basis state (:func:`label_by_overlap`), discarding truncation-band
artifacts by mean photon number (:func:`filter_by_mean_photon`), and
following levels through a parameter sweep by state overlap
(:func:`track_levels`).

Determinism: every routine here is free of randomness — the Lanczos start
vector is the normalized all-ones vector and breakdown restarts inject
canonical basis vectors in index order — so repeated runs give bit-identical
results.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .errors import CapacityError, IterationLimitError
from .fockspace import HilbertLayout, SparseOperator

#: Largest dimension accepted by the dense path.
DENSE_LIMIT = 4096


# ---------------------------------------------------------------------------
# Result container
# ---------------------------------------------------------------------------


@dataclass
class SpectrumResult:
    """Eigenvalues (ascending) and optional companions from one solve.

    Attributes:
        energies: Ascending eigenvalues, shape ``(k,)``.
        states: Orthonormal eigenvector columns, shape ``(dim, k)``, or
            ``None`` when vectors were not requested.
        layout: Hilbert layout of the operator that was diagonalized.
        mean_photons: Total-photon-number expectation per eigenstate
            (present whenever states are).
        labels: Per-eigenstate ``(qubit_config, fock_tuple, overlap)``
            entries once :func:`label_by_overlap` has run, else ``None``.
    """

    energies: np.ndarray
    states: Optional[np.ndarray]
    layout: HilbertLayout
    mean_photons: Optional[np.ndarray] = None
    labels: Optional[list] = None

    @property
    def k(self) -> int:
        return len(self.energies)

    def energy_of(self, config: str, fock) -> float:
        """Energy of the eigenstate labelled ``(config, fock)``.

        Raises:
            KeyError: If the result is unlabeled or the label is absent.
        """
        if self.labels is None:
            raise KeyError("result has no labels; run label_by_overlap first")
        fock = tuple(int(f) for f in fock)
        for i, entry in enumerate(self.labels):
            if entry is not None and entry[0] == config and entry[1] == fock:
                return float(self.energies[i])
        raise KeyError(f"no eigenstate labelled ({config!r}, {fock})")


def _mean_photons(layout: HilbertLayout, states: np.ndarray) -> np.ndarray:
    nvec = layout.oscillator_number_diagonal()
    return (nvec[:, None] * np.abs(states) ** 2).sum(axis=0)


def _real_csr_if_possible(op: SparseOperator):
    """Return (matrix, is_real); real symmetric inputs use a float64 path."""
    mat = op.entries
    if mat.data.size == 0 or np.all(mat.data.imag == 0.0):
        real = sp.csr_matrix(
            (mat.data.real.copy(), mat.indices.copy(), mat.indptr.copy()),
            shape=mat.shape,
        )
        return real, True
    return mat, False


# ---------------------------------------------------------------------------
# Dense reference solver
# ---------------------------------------------------------------------------


def eigh_dense(
    h: SparseOperator,
    want_states: bool = True,
    dense_limit: int = DENSE_LIMIT,
) -> SpectrumResult:
    """Full dense spectrum of a certified-Hermitian operator.

    Args:
        h: Operator whose ``hermitian`` flag must be True.
        want_states: Also return eigenvectors (and mean photon numbers).
        dense_limit: Largest dimension to densify.

    Raises:
        ValueError: If the operator is not certified Hermitian.
        CapacityError: If the dimension exceeds ``dense_limit`` (use
            :func:`eigs_lowest` instead).
    """
    if not h.hermitian:
        raise ValueError("eigh_dense requires a certified-hermitian operator")
    dim = h.total_dim
    if dim > dense_limit:
        raise CapacityError(
            f"dimension {dim} exceeds the dense limit {dense_limit}; "
            "use eigs_lowest for the low end of the spectrum"
        )
    mat, _ = _real_csr_if_possible(h)
    dense = mat.toarray()
    if want_states:
        energies, states = np.linalg.eigh(dense)
        states = np.ascontiguousarray(states)
        return SpectrumResult(
            energies=energies,
            states=states,
            layout=h.layout,
            mean_photons=_mean_photons(h.layout, states),
        )
    energies = np.linalg.eigvalsh(dense)
    return SpectrumResult(energies=energies, states=None, layout=h.layout)


# ---------------------------------------------------------------------------
# Lanczos solver
# ---------------------------------------------------------------------------


def _reorthogonalize(block: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Project the orthonormal columns of ``block`` out of ``w``, twice."""
    for _ in range(2):
        w = w - block @ (block.conj().T @ w)
    return w


def _lanczos_step(mat, basis, alphas, betas, shift=0.0):
    """Lanczos step on ``mat - shift`` from column ``len(alphas)`` of ``basis``.

    Appends alpha and returns the fully reorthogonalized residual and its
    norm; the caller appends beta (zero marks a restart) and goes on.
    """
    m = len(alphas)
    v = basis[:, m]
    w = mat @ v - shift * v
    alphas.append(float(np.real(np.vdot(v, w))))
    w = w - alphas[-1] * v
    if m > 0 and betas[m - 1] != 0.0:
        w = w - betas[m - 1] * basis[:, m - 1]
    w = _reorthogonalize(basis[:, : m + 1], w)
    return w, float(np.linalg.norm(w))


def _tridiagonal_eigh(alphas, betas, k: Optional[int] = None):
    """Lowest ``min(k, m)`` eigenpairs of the Lanczos ``T``; all when k is None."""
    a = np.asarray(alphas, dtype=float)
    b = np.asarray(betas[: len(a) - 1], dtype=float)
    # The full (stevd) and by-index (stebz) drivers differ in the last bits.
    idx = {} if k is None else dict(select="i", select_range=(0, min(k, len(a)) - 1))
    return scipy.linalg.eigh_tridiagonal(a, b, **idx)


def eigs_lowest(
    h: SparseOperator,
    k: int,
    tol: float = 1e-10,
    max_iters: Optional[int] = None,
) -> SpectrumResult:
    """Lowest ``k`` eigenpairs by Lanczos with full reorthogonalization.

    Deterministic: the start vector is the normalized all-ones vector; on
    an exact invariant-subspace breakdown the iteration restarts with the
    first canonical basis vector having a non-negligible component outside
    the converged subspace.  Convergence requires every requested Ritz
    residual ``|beta_m s_{m,i}|`` to fall below ``tol * ||H||_1``.

    Args:
        h: Certified-Hermitian operator.
        k: Number of lowest eigenpairs.
        tol: Relative residual tolerance.
        max_iters: Iteration budget; default ``min(dim, max(30 k, 2500))``
            (deep spectra of stabilized unbounded models need on the order
            of ``sqrt(spectral_width / gap)`` iterations).

    Raises:
        ValueError: If the operator is not certified Hermitian or ``k`` is
            out of range.
        IterationLimitError: If the budget is exhausted; the exception's
            ``partial`` attribute carries the best available result.
    """
    if not h.hermitian:
        raise ValueError("eigs_lowest requires a certified-hermitian operator")
    dim = h.total_dim
    k = int(k)
    if not 1 <= k <= dim:
        raise ValueError(f"k={k} out of range for dimension {dim}")
    if max_iters is None:
        max_iters = min(dim, max(30 * k, 2500))
    max_iters = max(int(max_iters), 1)

    mat, is_real = _real_csr_if_possible(h)
    dtype = np.float64 if is_real else np.complex128
    norm1 = h.one_norm()
    if norm1 == 0.0:
        states = np.zeros((dim, k), dtype=dtype)
        states[np.arange(k), np.arange(k)] = 1.0
        return SpectrumResult(
            energies=np.zeros(k),
            states=states,
            layout=h.layout,
            mean_photons=_mean_photons(h.layout, states),
        )
    resid_floor = tol * norm1
    breakdown_floor = 1e-14 * norm1

    # Basis storage grows geometrically up to max_iters + 1 columns.
    capacity = min(max_iters + 1, max(2 * k + 16, 64))
    basis = np.empty((dim, capacity), dtype=dtype)
    basis[:, 0] = 1.0 / np.sqrt(dim)
    alphas: list[float] = []
    betas: list[float] = []  # betas[i] links v_i and v_{i+1}
    next_restart_index = 0

    def _ensure_capacity(cols: int) -> None:
        nonlocal basis, capacity
        if cols <= capacity:
            return
        capacity = min(max_iters + 1, max(cols, 2 * capacity))
        grown = np.empty((dim, capacity), dtype=dtype)
        grown[:, : basis.shape[1]] = basis
        basis = grown

    def _next_start(cols: int) -> Optional[np.ndarray]:
        nonlocal next_restart_index
        while next_restart_index < dim:
            e = np.zeros(dim, dtype=dtype)
            e[next_restart_index] = 1.0
            next_restart_index += 1
            e = _reorthogonalize(basis[:, :cols], e)
            nrm = np.linalg.norm(e)
            if nrm > 1e-8:
                return e / nrm
        return None

    def _result() -> SpectrumResult:
        vals, small = _tridiagonal_eigh(alphas, betas, k)
        states = basis[:, : len(alphas)] @ small.astype(dtype)
        states /= np.linalg.norm(states, axis=0, keepdims=True)
        return SpectrumResult(
            energies=vals,
            states=states,
            layout=h.layout,
            mean_photons=_mean_photons(h.layout, states),
        )

    next_check = min(max_iters, max(k + 2, 20))
    m = 0
    while m < max_iters:
        w, beta = _lanczos_step(mat, basis, alphas, betas)
        m += 1

        exhausted_space = m >= dim
        broke_down = beta <= breakdown_floor
        if broke_down:
            # Exact invariant subspace: decouple and restart deterministically.
            beta = 0.0
            if not exhausted_space and m < max_iters:
                start = _next_start(m)
                if start is None:
                    exhausted_space = True
                else:
                    _ensure_capacity(m + 1)
                    basis[:, m] = start
        elif not exhausted_space and m < max_iters:
            _ensure_capacity(m + 1)
            basis[:, m] = w / beta
        betas.append(beta)

        if exhausted_space:
            # The Krylov recursion closed over the whole space, so the
            # tridiagonal matrix is an exact representation.
            return _result()

        if m >= next_check and m >= k and not broke_down:
            _, small = _tridiagonal_eigh(alphas, betas, k)
            residuals = abs(betas[m - 1]) * np.abs(small[m - 1, :])
            if np.all(residuals <= resid_floor):
                return _result()
            next_check = min(max_iters, m + max(20, m // 5))

    partial = _result()
    raise IterationLimitError(
        f"Lanczos did not converge within {max_iters} iterations "
        f"(k={k}, dim={dim}, tol={tol:g})",
        partial=partial,
    )


def solve_lowest(
    h: SparseOperator,
    k: int,
    method: str = "auto",
    max_iters: Optional[int] = None,
) -> SpectrumResult:
    """Lowest ``min(k, dim)`` eigenpairs by ``"dense"``, ``"lanczos"`` or
    ``"auto"`` (dense up to :data:`DENSE_LIMIT` states, Lanczos above).

    Raises:
        ValueError: If ``k < 1`` or the method is unknown.
    """
    if method not in ("auto", "dense", "lanczos"):
        raise ValueError(f"unknown eigensolver method {method!r}")
    if int(k) < 1:
        raise ValueError(f"k={k} must be at least 1")
    dim = h.total_dim
    k = min(int(k), dim)
    if method == "dense" or (method == "auto" and dim <= DENSE_LIMIT):
        full = eigh_dense(h)
        # Copies, so the result does not keep the dim x dim matrix alive.
        return SpectrumResult(
            energies=full.energies[:k].copy(),
            states=np.ascontiguousarray(full.states[:, :k]),
            layout=full.layout,
            mean_photons=full.mean_photons[:k].copy(),
        )
    return eigs_lowest(h, k, max_iters=max_iters)


# ---------------------------------------------------------------------------
# Labeling, filtering, tracking
# ---------------------------------------------------------------------------


def label_by_overlap(result: SpectrumResult) -> SpectrumResult:
    """Attach bare-basis labels to eigenstates by greedy maximum overlap.

    All (bare state, eigenstate) overlap weights are visited in descending
    order; a pair is labelled when neither side is taken yet, so each bare
    label is used at most once.  Exact ties break deterministically toward
    the lower bare index and lower eigenindex (a degenerate pair is labelled
    in ascending order on both sides).

    Returns:
        A copy of ``result`` with ``labels[i] = (config, fock, overlap)``.

    Raises:
        ValueError: If the result has no eigenvectors.
    """
    if result.states is None:
        raise ValueError("label_by_overlap requires eigenvectors")
    weights = np.abs(result.states) ** 2  # (dim, k)
    dim, k = weights.shape
    order = np.argsort(-weights, axis=None, kind="stable")
    labels: list = [None] * k
    used_bare = np.zeros(dim, dtype=bool)
    remaining = k
    for flat in order:
        bare, eig = divmod(int(flat), k)
        if labels[eig] is None and not used_bare[bare]:
            config, fock = result.layout.label_of(bare)
            labels[eig] = (config, fock, float(weights[bare, eig]))
            used_bare[bare] = True
            remaining -= 1
            if remaining == 0:
                break
    return dataclasses.replace(result, labels=labels)


def filter_by_mean_photon(
    result: SpectrumResult, nbar_max: float
) -> SpectrumResult:
    """Keep eigenstates with total mean photon number below ``nbar_max``.

    Order is preserved.  Useful for discarding truncation-band artifacts
    from unbounded-model spectra.

    Raises:
        ValueError: If the result lacks mean photon numbers (solve with
            eigenvectors first).
    """
    if result.mean_photons is None:
        raise ValueError(
            "filter_by_mean_photon requires mean photon numbers "
            "(solve with eigenvectors)"
        )
    mask = result.mean_photons < float(nbar_max)
    labels = None
    if result.labels is not None:
        labels = [lab for lab, keep in zip(result.labels, mask) if keep]
    return SpectrumResult(
        energies=result.energies[mask],
        states=None if result.states is None else result.states[:, mask],
        layout=result.layout,
        mean_photons=result.mean_photons[mask],
        labels=labels,
    )


@dataclass
class LevelCurve:
    """One energy level followed through a parameter sweep.

    Attributes:
        label: Seed label ``(config, fock)`` from the first grid point
            (``None`` when the seed result was unlabeled).
        indices: Eigenindex at each grid point (``None`` once terminated).
        energies: Level energy per grid point (``nan`` once terminated).
        overlaps: Consecutive-point squared overlap used for each connection
            (1.0 at the seed point).
        terminated: True if the curve lost continuity before the last point.
        terminated_at: Grid index of the first point the curve could not
            reach, when terminated.
    """

    label: Optional[tuple]
    indices: list
    energies: np.ndarray
    overlaps: list
    terminated: bool
    terminated_at: Optional[int]


def track_levels(
    results: Sequence[SpectrumResult], continuity_floor: float = 0.5
) -> list[LevelCurve]:
    """Follow each level of ``results[0]`` across a sweep by state overlap.

    Consecutive grid points are connected by greedy assignment on the
    squared overlap matrix of their eigenvector blocks; a curve whose best
    available connection falls below ``continuity_floor`` is terminated and
    flagged (levels typically lose identity where truncation artifacts dive
    through the physical spectrum).

    Args:
        results: Spectra (with eigenvectors, on one layout) along the sweep.
        continuity_floor: Minimum squared overlap to keep following a level.

    Raises:
        ValueError: On empty input, missing eigenvectors, or mixed layouts.
    """
    results = list(results)
    if not results:
        raise ValueError("track_levels requires at least one result")
    layout = results[0].layout
    for r in results:
        if r.states is None:
            raise ValueError("track_levels requires eigenvectors at every point")
        if r.layout != layout:
            raise ValueError("track_levels requires a shared layout")

    n_points = len(results)
    seed = results[0]
    curves = []
    for i in range(seed.k):
        label = None
        if seed.labels is not None and seed.labels[i] is not None:
            label = (seed.labels[i][0], seed.labels[i][1])
        energies = np.full(n_points, np.nan)
        energies[0] = seed.energies[i]
        curves.append(
            LevelCurve(
                label=label,
                indices=[i] + [None] * (n_points - 1),
                energies=energies,
                overlaps=[1.0] + [None] * (n_points - 1),
                terminated=False,
                terminated_at=None,
            )
        )

    for t in range(n_points - 1):
        left = results[t]
        right = results[t + 1]
        overlap = np.abs(left.states.conj().T @ right.states) ** 2
        alive = [c for c in curves if not c.terminated]
        if not alive:
            break
        rows = {c.indices[t]: c for c in alive}
        taken_cols = np.zeros(right.k, dtype=bool)
        pending = set(rows)
        order = np.argsort(-overlap, axis=None, kind="stable")
        for flat in order:
            row, col = divmod(int(flat), right.k)
            if row not in pending or taken_cols[col]:
                continue
            curve = rows[row]
            w = float(overlap[row, col])
            pending.discard(row)
            if w < continuity_floor:
                curve.terminated = True
                curve.terminated_at = t + 1
            else:
                taken_cols[col] = True
                curve.indices[t + 1] = col
                curve.energies[t + 1] = right.energies[col]
                curve.overlaps[t + 1] = w
            if not pending:
                break
        for row in pending:
            curve = rows[row]
            curve.terminated = True
            curve.terminated_at = t + 1
    return curves
