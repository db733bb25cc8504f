"""Eigensolvers and spectral bookkeeping for sparse Hermitian operators.

Every solver here works block by block: the connected components of the
operator's sparsity pattern (:func:`_blocks`) are decoupled blocks, so each
is solved on its own and the lowest levels of all blocks are merged.  The
blocks are the models' conserved parities (Z_2, Z_4 and the like) found
from the matrix alone.  The merge keeps the lowest ``k`` by a stable sort on
(energy, the block's lowest basis index, index within the block), so exact
degeneracies across blocks come out in a fixed order.

One function, :func:`_block_eigh`, picks each block's solver by the rule
stated there (batched, chain, dense LAPACK or Lanczos) and hands on each
group of equal-size blocks as one record: basis rows, energies, vectors.
:func:`eigh_dense`, :func:`eigs_lowest` and the ``--method`` dispatch
:func:`solve_lowest` are each one pass of it; the exact propagator shares
it.  The Lanczos solver and the Krylov propagator run one Lanczos
recursion, :func:`_lanczos_run`, on a block held as NumPy CSR arrays
(:class:`.fockspace._CSR`).  Every LAPACK call goes through :func:`_lapack`
and every product through :mod:`.fockspace`: no solve imports
``scipy.linalg`` or ``scipy.sparse``.  Also here is
the bookkeeping of sweeps: labeling eigenstates by dominant bare basis
state (:func:`label_by_overlap`), discarding truncation-band artifacts by mean
photon number (:func:`filter_by_mean_photon`), and following levels
through a parameter sweep by state overlap (:func:`track_levels`); both of
these overlap matchings are one greedy assignment, :func:`_greedy_pairs`.

Determinism: each block's Lanczos start and restarts are draws of its own
``numpy.random.default_rng(0)``, so its bits depend on that block alone.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import CapacityError, ConfigError, IterationLimitError, _integer, _real
from .fockspace import (
    _CSR,
    HilbertLayout,
    SparseOperator,
    _csr_one_norm,
    _csr_rows,
    _extension,
)

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
        fock = tuple(_integer("Fock occupation", f, 0) for f in fock)
        for i, entry in enumerate(self.labels):
            if entry is not None and entry[0] == config and entry[1] == fock:
                return float(self.energies[i])
        raise KeyError(f"no eigenstate labelled ({config!r}, {fock})")


# ---------------------------------------------------------------------------
# Blocks and the merge of per-block spectra
# ---------------------------------------------------------------------------

#: Blocks of at most this many states are diagonalized together in one
#: batched ``numpy.linalg.eigh`` call; larger ones one at a time.
_BATCH_MAX = 64


def _blocks(op):
    """CSR arrays of ``op`` and the connected blocks of its sparsity pattern.

    ``op`` is a :class:`.fockspace.SparseOperator`, or anything whose
    ``entries`` is a SciPy CSR matrix.  Returns ``(mat, members, starts)``:
    ``mat`` is a :class:`_CSR`, float64 when every entry is real (real
    symmetric inputs take a float64 path), and block ``b`` is the ascending
    basis indices ``members[starts[b]:starts[b + 1]]``.  Blocks are numbered
    by their lowest basis index.  Every stored entry links its row and
    column, an explicit zero included.

    The blocks are labelled by hook and shortcut, after Shiloach and Vishkin
    (J. Algorithms 3, 57, 1982): each round hooks every root onto the
    smallest root across an edge, then jumps every state to its root, until
    no edge joins two roots.  A root never hooks onto a larger index, so
    each block ends up labelled by its lowest state.
    """
    csr = op if isinstance(op, SparseOperator) else op.entries
    data = csr.data
    if data.size == 0 or np.all(data.imag == 0.0):
        data = data.real.copy()
    mat = _CSR(csr.indptr, csr.indices, data)
    dim = len(mat.indptr) - 1
    root = np.arange(dim)
    rows, cols = mat.rows, mat.indices
    while True:
        a, b = root[rows], root[cols]
        cross = a != b
        if not cross.any():
            break
        # Edges inside one block stay inside it: drop them for good.
        rows, cols, a, b = rows[cross], cols[cross], a[cross], b[cross]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root = jumped
    members = np.argsort(root, kind="stable")
    lowest = np.flatnonzero(root == np.arange(dim))
    starts = np.searchsorted(root[members], np.append(lowest, dim))
    return mat, members, starts


def _entries(mat: _CSR, idx: np.ndarray):
    """Stored entries of the rows ``idx`` of ``mat``, in storage order:
    ``(indptr, r, c, v)`` with ``indptr`` their row pointer and ``r`` the
    position of the entry's row in ``idx``."""
    first = mat.indptr[idx]
    indptr = np.append(0, np.cumsum(mat.indptr[idx + 1] - first))
    r = _csr_rows(indptr)
    at = np.arange(indptr[-1]) + (first - indptr[:-1])[r]
    return indptr, r, mat.indices[at], mat.data[at]


def _submatrix(mat: _CSR, idx: np.ndarray, dtype=None) -> _CSR:
    """The block of ``mat`` with ascending basis indices ``idx``, its data
    cast to ``dtype`` when given."""
    indptr, _, c, v = _entries(mat, idx)
    return _CSR(indptr, np.searchsorted(idx, c), np.asarray(v, dtype))


def _chain(r, c, v, s):
    """The connected block of ``s`` states with stored entries ``(r, c, v)``
    (rows ascending, positions in the block) as a chain, or None.

    The block is a chain (a path) iff it has 2(s - 1) off-diagonal entries
    and no state has more than two.  Returns ``(order, diagonal,
    off_diagonal)``: the states from one end to the other, and the
    tridiagonal matrix in that order.  The walk starts at the far end from
    the state that ``numpy.argsort`` of the int32 degrees puts first, as
    SciPy's reverse Cuthill-McKee ordering does: the direction of a chain
    shows in the last bits of its eigenpairs.
    """
    off = r != c
    rows, cols = r[off], c[off]
    if len(rows) != 2 * (s - 1):
        return None
    degree = np.bincount(rows, minlength=s)
    if degree.max() > 2:
        return None
    # Each state's two neighbours XORed (at an end, its one neighbour and
    # itself): the walk goes on to the one it did not come from.
    first = np.cumsum(degree) - degree
    other = np.where(degree == 2, cols[first + degree - 1], np.arange(s))
    link = (cols[first] ^ other).tolist()
    seed = int(np.argsort(degree.astype(np.int32))[0])
    walk = [seed, link[seed] ^ seed]
    for _ in range(s - 2):
        walk.append(link[walk[-1]] ^ walk[-2])
    order = np.array(walk[::-1])
    at = np.empty(s, dtype=np.intp)
    at[order] = np.arange(s)
    diagonal = np.zeros(s)
    diagonal[at[r[~off]]] = v[~off]
    up = at[cols] == at[rows] + 1
    off_diagonal = np.empty(s - 1)
    off_diagonal[at[rows[up]]] = v[off][up]
    return order, diagonal, off_diagonal


def _merge_lowest(h, parts, k, dtype, want_states=True):
    """Lowest ``k`` of the per-block eigenpairs, scattered to the full basis.

    Each part is the record ``(rows, energies, vectors)`` of a group of
    blocks of one size ``s`` (see :func:`_block_eigh`): ``rows`` has shape
    ``(blocks, s)``, ``energies`` ``(blocks, c)`` and ``vectors`` (or
    ``None``) ``(blocks, s, c)``.  Ties break by a stable sort on (energy,
    block's lowest basis index ``rows[:, 0]``, index within the block).
    """
    energies = np.concatenate([e.ravel() for _, e, _ in parts])
    lowest = np.concatenate([np.repeat(rows[:, 0], e.shape[1]) for rows, e, _ in parts])
    index = np.concatenate(
        [np.tile(np.arange(e.shape[1]), len(rows)) for rows, e, _ in parts]
    )
    order = np.lexsort((index, lowest, energies))[:k]
    if not want_states:
        return SpectrumResult(energies=energies[order], states=None, layout=h.layout)
    states = np.zeros((h.total_dim, len(order)), dtype=dtype)
    nvec = h.layout.oscillator_number_diagonal()
    offset = 0
    for rows, e, vectors in parts:
        cols = np.flatnonzero((order >= offset) & (order < offset + e.size))
        local, j = np.divmod(order[cols] - offset, e.shape[1])
        states[rows[local], cols[:, None]] = vectors[local, :, j]
        offset += e.size
    return SpectrumResult(
        energies=energies[order],
        states=states,
        layout=h.layout,
        mean_photons=(nvec[:, None] * np.abs(states) ** 2).sum(axis=0),
    )


# ---------------------------------------------------------------------------
# Block solver
# ---------------------------------------------------------------------------


def _block_eigh(
    mat, members, starts, k, method, want_states=True, tol=1e-10, max_iters=None
):
    """Lowest ``min(k, s)`` eigenpairs of every block of ``mat`` by ``method``
    (of a chain, its levels among the lowest ``k`` of all chains).

    Returns ``(parts, failed)``.  Each part is the record ``(rows,
    energies, vectors)`` of a group of blocks of ``s`` states: ``rows[b]``
    holds block ``b``'s ascending basis indices, ``energies[b]`` its lowest
    energies and ``vectors[b]`` (``None`` without states) their ``(s, c)``
    columns.  A chain is a group of its own, and has no record when it
    keeps no level.  ``failed`` holds ``(lowest basis index, size, budget, steps
    taken)`` of each block whose Lanczos run did not converge.  The
    per-block solver rule is stated here alone.  The size groups are walked once; each block
    takes the first solver that fits:

    - up to ``_BATCH_MAX`` states: ``numpy.linalg.eigh``, batched per size;
    - a real chain of any size (as every n-photon Rabi parity block is;
      see :func:`_chain`): walked into its diagonal and off-diagonal, with
      no matrix copy, and solved once the walk is done, with every other
      chain, by :func:`_chain_eigh`: one ``dstebz`` bisection for the
      lowest ``k`` of all chains, or ``dstevd`` per chain when ``k``
      covers every chain state;
    - up to :data:`DENSE_LIMIT` states: :func:`_lowest_eigh` for the
      lowest ``k`` pairs, or ``numpy.linalg.eigh`` for all of them (the
      subset driver loses orthogonality on full spectra);
    - above: :func:`_lanczos` under ``"auto"``, ``CapacityError`` under
      ``"dense"``.

    Under ``"lanczos"`` every block above one state runs :func:`_lanczos`,
    ``max_iters`` iterations each, by default ``min(s, max(30 min(k, s),
    2500))`` (deep spectra of stabilized unbounded models need on the order
    of ``sqrt(spectral_width / gap)`` iterations).  Memory beyond the
    largest dense block is O(dim k).
    """
    sizes = np.diff(starts)
    # The position of every state in its block.
    local = np.zeros(len(mat.indptr) - 1, dtype=np.intp)
    local[members] = np.arange(len(members)) - np.repeat(starts[:-1], sizes)
    real = not np.iscomplexobj(mat.data)
    parts, failed, chains = [], [], []
    # Ascending sizes without np.unique, which imports numpy.ma.
    for s in np.flatnonzero(np.bincount(sizes)):
        keep = min(k, s)
        ids = np.flatnonzero(sizes == s)
        batched = s == 1 or (s <= _BATCH_MAX and method != "lanczos")
        for group in [ids] if batched else np.split(ids, len(ids)):
            # The group's basis indices, a row per block: row r of its
            # entries is rows.flat[r], row r % s of block r // s.
            rows = members[starts[group, None] + np.arange(s)]
            indptr, r, c, v = _entries(mat, rows.ravel())
            chain = None
            if not batched and method != "lanczos" and real:
                chain = _chain(r, local[c], v, s)
            if chain is not None:
                chains.append((rows, *chain))
                continue
            if not batched and (method == "lanczos" or s > DENSE_LIMIT):
                if method == "dense":
                    raise CapacityError(
                        f"block of {s} states is not a chain and exceeds the dense "
                        f"limit {DENSE_LIMIT}; use eigs_lowest for its lowest levels"
                    )
                budget = max_iters or int(min(s, max(30 * keep, 2500)))
                # The block's own entries: local[c] is each column's position.
                sub = _CSR(indptr, local[c], v)
                vals, vecs, converged, steps = _lanczos(sub, keep, tol, budget)
                if not converged:
                    failed.append((rows[0, 0], s, budget, steps))
            else:
                stack = np.zeros((len(group), s, s), dtype=mat.data.dtype)
                stack[r // s, r % s, local[c]] = v
                if s <= _BATCH_MAX or keep == s:
                    vals, vecs = (
                        np.linalg.eigh(stack)
                        if want_states
                        else (np.linalg.eigvalsh(stack), None)
                    )
                else:
                    vals, vecs = _lowest_eigh(stack[0], keep, want_states)
            # Stacked by block: a solver of one block gives one block's pairs.
            vals = vals.reshape(len(group), -1)[:, :keep]
            if vecs is not None:
                vecs = vecs.reshape(len(group), s, -1)[:, :, :keep]
            parts.append((rows, vals, vecs))
    if chains:
        parts += _chain_eigh(chains, k, want_states)
    return parts, failed


def _chain_eigh(chains, k, want_states):
    """Records ``(rows, energies, vectors)`` of the lowest ``k`` pairs over
    all ``chains``, one per chain that keeps a level.  Each chain is
    ``(rows, order, diagonal, off_diagonal)``: its record's basis rows and
    its tridiagonal form from :func:`_chain`.

    When ``k`` covers every chain state, each chain gets its full spectrum
    from ``dstevd`` (a joint solve would hold an S x S matrix).  Otherwise
    the chains go end to end, with exact zero couplings between them, into
    one tridiagonal of S states, whose lowest ``k`` come from one ``dstebz``
    call (its Sturm counts run over every chain, so no chain's level is
    missed), and their vectors from ``dstein`` per chain: see
    :func:`_tridiagonal_eigh`.  Memory stays O(S + dim k).
    """
    # dstebz drops the surplus of values tied at the k-th from the first
    # chains: in descending order of lowest basis index, a tie at the cut
    # keeps the lower chain, as the merge's tie rule does.
    chains.sort(key=lambda chain: -chain[0][0, 0])
    ends = np.cumsum([len(diagonal) for _, _, diagonal, _ in chains])
    if k >= ends[-1]:
        solved = []
        for _, _, diagonal, off_diagonal in chains:
            out = _tridiagonal_eigh(diagonal, off_diagonal, None, not want_states)
            solved.append(out if want_states else (out, None))
    else:
        diagonal = np.concatenate([d for _, _, d, _ in chains])
        off_diagonal = np.concatenate([np.append(e, 0.0) for _, _, _, e in chains])
        solved = _tridiagonal_eigh(diagonal, off_diagonal, k, not want_states, ends)
    records = []
    for (rows, order, _, _), (vals, vecs) in zip(chains, solved):
        if len(vals):
            if vecs is not None:
                # Back from the walk's order to the block's.
                vecs = vecs[np.argsort(order)][None]
            records.append((rows, vals[None], vecs))
    return records


def _solve_blocks(h, k, method, want_states=True, tol=1e-10, max_iters=None):
    """Lowest ``k`` eigenpairs of ``h``: :func:`_block_eigh`, then
    :func:`_merge_lowest`; a Lanczos block that did not converge raises
    ``IterationLimitError``, naming the first one's cause, with the merged
    result as ``partial``.  Every public solver comes here, so this alone
    refuses (``ConfigError``) an operator that is not certified Hermitian,
    a ``tol`` that is not finite and positive and ``max_iters < 1``."""
    if not h.hermitian:
        raise ConfigError("the eigensolvers require a certified-hermitian operator")
    tol = _real("tol", tol, above=0)
    if max_iters is not None:
        max_iters = _integer("max_iters", max_iters, 1)
    mat, members, starts = _blocks(h)
    parts, failed = _block_eigh(
        mat, members, starts, k, method, want_states, tol, max_iters
    )
    result = _merge_lowest(h, parts, k, mat.data.dtype, want_states)
    if failed:
        _, size, budget, steps = min(failed)
        cause = f"did not converge within {budget} iterations"
        if steps < budget:
            cause = f"lost a restart draw after {steps} of {budget} iterations"
        raise IterationLimitError(
            f"Lanczos {cause} in {len(failed)} of {len(starts) - 1} blocks "
            f"(first: {size} states; k={k}, dim={h.total_dim}, tol={tol:g})",
            partial=result,
        )
    return result


def eigh_dense(h: SparseOperator, want_states: bool = True) -> SpectrumResult:
    """Full spectrum of a certified-Hermitian operator, exact per block.

    Args:
        h: Operator whose ``hermitian`` flag must be True.
        want_states: Also return eigenvectors (and mean photon numbers).

    Raises:
        ConfigError: If the operator is not certified Hermitian.
        CapacityError: If the dimension exceeds :data:`DENSE_LIMIT` (use
            :func:`eigs_lowest` instead).
    """
    dim = h.total_dim
    if dim > DENSE_LIMIT:
        raise CapacityError(
            f"dimension {dim} exceeds the dense limit {DENSE_LIMIT}; "
            "use eigs_lowest for the low end of the spectrum"
        )
    return _solve_blocks(h, dim, "dense", want_states)


# ---------------------------------------------------------------------------
# Lanczos solver
# ---------------------------------------------------------------------------


def _reorthogonalize(block: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Project the orthonormal columns of ``block`` out of ``w``, twice."""
    for _ in range(2):
        w = w - block @ (w.conj() @ block).conj()
    return w


def _lanczos_run(mat, basis, alphas, betas, steps, floor, shift):
    """Extend the Lanczos recursion on ``mat - shift`` held in ``basis``,
    ``alphas`` and ``betas`` by at least one step, until it has ``steps``
    steps or breaks down (beta <= ``floor``).  Each beta is appended as it
    is; every step but the last stores its normalized residual as the next
    column of ``basis`` (``steps`` columns), and a zero ``betas[m - 1]``
    marks column ``m`` as a restart.  Each residual is fully
    reorthogonalized.  Returns the last residual."""
    while True:
        m = len(alphas)
        v = basis[:, m]
        w = mat @ v - shift * v
        alphas.append(float(np.real(np.vdot(v, w))))
        w = w - alphas[-1] * v
        if m > 0 and betas[m - 1] != 0.0:
            w = w - betas[m - 1] * basis[:, m - 1]
        w = _reorthogonalize(basis[:, : m + 1], w)
        betas.append(float(np.linalg.norm(w)))
        if m + 1 >= steps or betas[-1] <= floor:
            return w
        basis[:, m + 1] = w / betas[-1]


def _lapack():
    """SciPy's compiled LAPACK wrappers, the module ``scipy.linalg._flapack``,
    loaded from its file (see :func:`.fockspace._extension`) so that a later
    ``import scipy.linalg`` shares it; the public ``scipy.linalg.lapack``
    serves where the file is not found."""
    return _extension("scipy.linalg._flapack", "linalg", "scipy.linalg.lapack")


def _lapack_check(info: int, driver: str, failed: str = "did not converge") -> None:
    """Raise as ``scipy.linalg`` does on the ``info`` of a LAPACK call."""
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal {driver}")
    if info > 0:
        raise np.linalg.LinAlgError(f"{driver} {failed} (LAPACK info={info})")


def _lowest_eigh(a: np.ndarray, k: int, want_states: bool):
    """Lowest ``k`` eigenpairs ``(w, v)`` of the Hermitian float64 or
    complex128 matrix ``a``, which is overwritten; ``v`` is None without
    states.  ``dsyevr`` or ``zheevr`` is called as ``scipy.linalg.eigh(a,
    subset_by_index=(0, k - 1), overwrite_a=True)`` calls it: its bits."""
    lapack = _lapack()
    driver = "zheevr" if np.iscomplexobj(a) else "dsyevr"
    *work, info = getattr(lapack, driver + "_lwork")(a.shape[0], lower=True)
    _lapack_check(info, driver + "_lwork")
    # Vectors, range "I", lower, vl, vu, il, iu, abstol, workspace sizes.
    w, v, m, _, info = getattr(lapack, driver)(
        a, int(want_states), "I", True, 0.0, 1.0, 1, k, 0.0,
        *(int(size.real) for size in work), overwrite_a=True
    )
    _lapack_check(info, driver)
    return w[:m], v[:, :m] if want_states else None


def _tridiagonal_eigh(
    alphas, betas, k: Optional[int] = None, eigvals_only: bool = False, ends=None
):
    """Lowest ``min(k, m)`` eigenpairs of the symmetric tridiagonal ``T``
    with diagonal ``alphas`` and off-diagonal ``betas``; all when k is None,
    eigenvalues only when ``eigvals_only``.

    The drivers and their order are those of ``scipy.linalg.eigh_tridiagonal``,
    so the results are its bits: ``dstevd`` for all pairs; for the lowest
    ``k``, ``dstebz`` by index, then ``dstein`` for the vectors (the two
    give different last bits).  Raises ``ValueError`` on a value that is not
    finite and ``numpy.linalg.LinAlgError`` when LAPACK fails.

    ``ends`` (lowest ``k`` only) are the ascending end positions of the
    pieces that exact zero couplings cut ``T`` into.  ``dstebz`` splits at
    every such zero, so its one call finds the lowest ``k`` of all pieces,
    and the pairs come back as one ``(w, v)`` per piece, ascending by a
    stable sort: ``v`` (``None`` without states) from a ``dstein`` call on
    that piece alone, as a solve of the piece by itself calls it.  Where
    values tie at the ``k``-th, ``dstebz`` drops the surplus from the first
    pieces.
    """
    a = np.asarray(alphas, dtype=float)
    b = np.asarray(betas[: len(a) - 1], dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    if len(a) == 1:
        w = a.copy()
        return w if eigvals_only else (w, np.ones((1, 1)))
    lapack = _lapack()
    if k is None:
        w, v, info = lapack.dstevd(a, b, compute_v=not eigvals_only)
        _lapack_check(info, "stevd (eigh_tridiagonal)")
        return w if eigvals_only else (w, v)
    # Eigenvalues 1 to min(k, m) (range 2, Fortran indices) at the default
    # tolerance; with vectors in block order, as dstein takes them.
    m, w, iblock, isplit, info = lapack.dstebz(
        a, b, 2, 0.0, 1.0, 1, min(k, len(a)), 0.0, "E" if eigvals_only else "B"
    )
    _lapack_check(info, "stebz (eigh_tridiagonal)")
    w = w[:m]
    if ends is not None:
        return _split_pieces(lapack, a, b, w, iblock[:m], isplit, ends, eigvals_only)
    if eigvals_only:
        return w
    v, info = lapack.dstein(a, b, w, iblock, isplit)
    _lapack_check(info, "stein (eigh_tridiagonal)", "eigenvectors failed to converge")
    order = np.argsort(w)
    return w[order], v[:, order]


def _split_pieces(lapack, a, b, w, iblock, isplit, ends, eigvals_only):
    """The ``(w, v)`` of every piece of ``T`` that ends at ``ends`` (see
    :func:`_tridiagonal_eigh`), from the lowest values ``w`` of ``dstebz``,
    in its block order, and its blocks ``iblock`` and ``isplit`` (Fortran
    numbering)."""
    # The last row of every dstebz block, up to the last row of T.
    last = isplit[: np.argmax(isplit == len(a)) + 1]
    piece = np.searchsorted(ends, last[iblock - 1] - 1, side="right")
    pieces, start = [], 0
    for p, end in enumerate(ends):
        at = piece == p
        v = None
        if not eigvals_only and at.any():
            # The piece's iblock and isplit: its blocks renumbered from 1,
            # padded to its size.
            blocks = np.zeros((2, end - start), dtype=isplit.dtype)
            blocks[0, : np.count_nonzero(at)] = iblock[at] - np.sum(last <= start)
            mine = last[(last > start) & (last <= end)] - start
            blocks[1, : len(mine)] = mine
            v, info = lapack.dstein(a[start:end], b[start : end - 1], w[at], *blocks)
            _lapack_check(info, "stein", "eigenvectors failed to converge")
        order = np.argsort(w[at], kind="stable")
        pieces.append((w[at][order], None if v is None else v[:, order]))
        start = end
    return pieces


def _lanczos(mat, k: int, tol: float, max_iters: int):
    """Lowest ``k`` Ritz pairs of the Hermitian CSR matrix ``mat``, one
    connected block of at least two states (so it has a nonzero entry).

    Runs :func:`_lanczos_run` from one convergence check to the next.  An
    exact breakdown restarts it from the next draw, and the restarted run
    steps at least once before a check (its zero beta would pass any).

    Returns ``(energies, states, converged, steps)``; ``converged`` is
    False, and the pairs the best available, when the budget runs out or a
    restart draw is lost in the basis (short of ``dim`` steps: lost
    orthogonality).
    """
    dim = mat.shape[0]
    norm1 = _csr_one_norm(mat.indices, mat.data)
    floor = 1e-14 * norm1
    basis = np.empty((dim, min(max_iters + 1, max(2 * k + 16, 64))), dtype=mat.dtype)
    alphas, betas = [], []  # betas[i] links v_i and v_{i+1}
    rng = np.random.default_rng(0)  # numpy.random loads here, not at start-up

    def _draw():
        # The next Gaussian vector, orthogonalized against the basis and
        # normalized; None when it keeps no more than 1e-8 of its norm.
        e = rng.standard_normal(dim)
        w = _reorthogonalize(basis[:, : len(alphas)], e)
        nrm = np.linalg.norm(w)
        return w / nrm if nrm > 1e-8 * np.linalg.norm(e) else None

    def _result(converged: bool):
        vals, small = _tridiagonal_eigh(alphas, betas, k)
        states = basis[:, : len(alphas)] @ small.astype(mat.dtype)
        states /= np.linalg.norm(states, axis=0, keepdims=True)
        return vals, states, converged, len(alphas)

    basis[:, 0] = _draw()
    next_check = min(max_iters, max(k + 2, 20))
    while True:
        steps = min(next_check, dim)
        # Room for the column after the run, which takes at least one step
        # (also after a restart on a check point): the basis doubles as
        # needed, up to max_iters + 1 columns.
        while basis.shape[1] <= max(steps, len(alphas) + 1):
            grow = min(max_iters + 1, 2 * basis.shape[1]) - basis.shape[1]
            basis = np.pad(basis, ((0, 0), (0, grow)))
        w = _lanczos_run(mat, basis, alphas, betas, steps, floor, 0.0)
        m = len(alphas)
        if m >= dim:  # the recursion spans the space: T is exact
            return _result(True)
        if betas[-1] <= floor:
            # Exact invariant subspace: decouple and restart from a new draw.
            betas[-1] = 0.0
            start = None if m >= max_iters else _draw()
            if start is None:
                return _result(False)
        else:
            # Converged once every requested Ritz residual |beta_m s_mi| is
            # within tol of the 1-norm.
            small = _tridiagonal_eigh(alphas, betas, k)[1][-1]
            done = m >= k and bool(np.all(betas[-1] * np.abs(small) <= tol * norm1))
            if done or m >= max_iters:
                return _result(done)
            next_check = min(max_iters, m + max(20, m // 5))
            start = w / betas[-1]
        basis[:, m] = start


def eigs_lowest(
    h: SparseOperator,
    k: int,
    tol: float = 1e-10,
    max_iters: Optional[int] = None,
) -> SpectrumResult:
    """Lowest ``k`` eigenpairs by Lanczos with full reorthogonalization.

    Every block above one state runs Lanczos for its lowest ``min(k, s)``
    pairs, chain or not (the ``"lanczos"`` rule of :func:`_block_eigh`).
    Each block's start and restarts are draws of its own
    ``numpy.random.default_rng(0)``, so its bits depend on that block alone.
    Convergence requires every requested Ritz residual ``|beta_m s_{m,i}|``
    to fall below ``tol`` times the block's 1-norm.

    Args:
        h: Certified-Hermitian operator.
        k: Number of lowest eigenpairs.
        tol: Relative residual tolerance (finite and positive).
        max_iters: Iteration budget of each block (``>= 1``); the default
            is that of :func:`_block_eigh`.  No other public entry sets it.

    Raises:
        ConfigError: If the operator is not certified Hermitian, ``k`` is
            out of range, ``tol`` is not finite and positive, or
            ``max_iters < 1``.
        IterationLimitError: If a block does not converge; the
            exception's ``partial`` attribute carries the best available
            result, merged over all blocks.
    """
    k = _integer("k", k, 1, h.total_dim)
    return _solve_blocks(h, k, "lanczos", tol=tol, max_iters=max_iters)


def solve_lowest(h: SparseOperator, k: int, method: str = "auto") -> SpectrumResult:
    """Lowest ``min(k, dim)`` eigenpairs by ``"dense"``, ``"lanczos"`` or
    ``"auto"``.

    The method is applied block by block, by the rule of
    :func:`_block_eigh`: ``"auto"`` is that rule, ``"dense"`` raises where
    it would run Lanczos, and ``"lanczos"`` runs Lanczos on every block
    above one state, as :func:`eigs_lowest` does at its default budget.

    Raises:
        ConfigError: If ``k < 1``, the method is unknown or the operator
            is not certified Hermitian.
        CapacityError: If ``"dense"`` meets a block that the rule sends
            to Lanczos.
        IterationLimitError: If a Lanczos block does not converge (see
            :func:`eigs_lowest`).
    """
    if method not in ("auto", "dense", "lanczos"):
        raise ConfigError(f"unknown eigensolver method {method!r}")
    k = min(_integer("k", k, 1), h.total_dim)
    return _solve_blocks(h, k, method)


# ---------------------------------------------------------------------------
# Labeling, filtering, tracking
# ---------------------------------------------------------------------------


def _greedy_pairs(weights: np.ndarray) -> list[tuple[int, int]]:
    """Greedy assignment on the matrix ``weights``: the ``(row, col)`` pairs
    whose row and column are both still free when visited, in descending
    order of weight with ties in row-major order, until every row or every
    column is taken."""
    n_cols = weights.shape[1]
    rows, cols, pairs = set(), set(), []
    for flat in np.argsort(-weights, axis=None, kind="stable"):
        row, col = divmod(int(flat), n_cols)
        if row not in rows and col not in cols:
            rows.add(row)
            cols.add(col)
            pairs.append((row, col))
            if len(pairs) == min(weights.shape):
                break
    return pairs


def label_by_overlap(result: SpectrumResult) -> SpectrumResult:
    """Attach bare-basis labels to eigenstates by greedy maximum overlap.

    The (bare state, eigenstate) pairs are those of :func:`_greedy_pairs`
    on the weights rounded to 1e-10, so each bare label is used at most once
    and ties which roundoff breaks still count as ties; they go to the lower
    bare index and lower eigenindex (a degenerate pair is labelled in
    ascending order on both sides).  The label keeps the unrounded weight.

    Returns:
        A copy of ``result`` with ``labels[i] = (config, fock, overlap)``.

    Raises:
        ConfigError: If the result has no eigenvectors.
    """
    if result.states is None:
        raise ConfigError("label_by_overlap requires eigenvectors")
    weights = np.abs(result.states) ** 2  # (dim, k)
    labels: list = [None] * weights.shape[1]
    for bare, eig in _greedy_pairs(np.round(weights, 10)):
        config, fock = result.layout.label_of(bare)
        labels[eig] = (config, fock, float(weights[bare, eig]))
    return dataclasses.replace(result, labels=labels)


def filter_by_mean_photon(
    result: SpectrumResult, nbar_max: float
) -> SpectrumResult:
    """Keep eigenstates with total mean photon number below ``nbar_max``.

    Order is preserved.  Useful for discarding truncation-band artifacts
    from unbounded-model spectra.

    Raises:
        ConfigError: If the result lacks mean photon numbers (solve with
            eigenvectors first) or ``nbar_max`` is not a finite number.
    """
    if result.mean_photons is None:
        raise ConfigError(
            "filter_by_mean_photon requires mean photon numbers "
            "(solve with eigenvectors)"
        )
    mask = result.mean_photons < _real("nbar_max", nbar_max)
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
        continuity_floor: Minimum squared overlap to keep following a level,
            in [0, 1].

    Raises:
        ConfigError: On empty input, missing eigenvectors, mixed layouts, or
            a floor outside [0, 1].
    """
    continuity_floor = _real("continuity_floor", continuity_floor, 0, 1)
    results = list(results)
    if not results:
        raise ConfigError("track_levels requires at least one result")
    layout = results[0].layout
    for r in results:
        if r.states is None:
            raise ConfigError("track_levels requires eigenvectors at every point")
        if r.layout != layout:
            raise ConfigError("track_levels requires a shared layout")

    seed, unreached = results[0], [None] * (len(results) - 1)
    curves = [
        LevelCurve(
            label=None if entry is None else (entry[0], entry[1]),
            indices=[i] + unreached,
            energies=np.append(seed.energies[i], np.full(len(unreached), np.nan)),
            overlaps=[1.0] + unreached,
            terminated=False,
            terminated_at=None,
        )
        for i, entry in enumerate(seed.labels or [None] * seed.k)
    ]

    for t in range(len(results) - 1):
        alive = [c for c in curves if not c.terminated]
        if not alive:
            break
        # Rows in ascending order, so that ties break as on the full matrix.
        alive.sort(key=lambda c: c.indices[t])
        right = results[t + 1]
        overlap = np.abs(results[t].states.conj().T @ right.states) ** 2
        weights = overlap[[c.indices[t] for c in alive]]
        # The pairs come in descending order, so a pair below the floor never
        # takes a column that a pair above it could have had.
        reached = dict(_greedy_pairs(weights))
        for row, curve in enumerate(alive):
            col = reached.get(row)
            if col is None or weights[row, col] < continuity_floor:
                curve.terminated = True
                curve.terminated_at = t + 1
            else:
                curve.indices[t + 1] = col
                curve.energies[t + 1] = right.energies[col]
                curve.overlaps[t + 1] = float(weights[row, col])
    return curves
