"""Sparse operator toolkit on truncated qubit/oscillator Hilbert spaces.

This module provides the numerical substrate for everything else in the
package: a declarative description of a composite Hilbert space
(:class:`HilbertLayout`), an immutable canonical sparse operator wrapper
(:class:`SparseOperator`), single-subsystem ladder/Pauli constructors, and
the tensor-product machinery (:func:`embed`, :func:`op_pow`)
used to place operators inside a composite space.

Conventions
-----------
* Oscillators are truncated to ``dim`` Fock levels ``|0>, ..., |dim-1>``;
  the annihilation operator acts as ``<j-1| a |j> = sqrt(j)``.
* Qubits are two-dimensional with basis index ``0 = |e>`` (excited) and
  ``1 = |g>`` (ground), so ``pauli("z") = diag(+1, -1)`` and
  ``pauli("plus") = |e><g|``.
* Composite basis indices are row-major over the subsystem tuple, with the
  first subsystem varying slowest.  Callers conventionally order qubits
  before oscillators.
* Canonical storage is CSR held as NumPy arrays (``indptr``, ``indices``,
  ``data``) with sorted indices, summed duplicates, and exact zeros purged;
  the arrays are frozen after canonicalization.  The ``hermitian`` flag
  certifies *exact* conjugate symmetry of the stored entries (no
  tolerance), because downstream eigensolvers rely on it.  Both are
  computed in NumPy.
* Every sparse product in the package runs on CSR arrays in NumPy, with
  one kernel each: :func:`_csr_rows` (the row of every stored entry),
  :class:`_CSR` (``A @ v``, each row summed in storage order, as SciPy's
  ``csr_matvec`` does) and :func:`_csr_one_norm` (the largest absolute
  column sum).  :meth:`SparseOperator.apply` and the Lanczos and Krylov
  blocks of the solvers use them.
* ``SparseOperator.entries`` is a SciPy ``csr_matrix`` view of the frozen
  arrays, built lazily on first access.  The operator algebra (``+``,
  ``@``, :meth:`SparseOperator.dagger`, :func:`embed`, :func:`op_pow`)
  works through it, so it imports SciPy.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError

QUBIT = "qubit"
OSCILLATOR = "oscillator"
_KINDS = (QUBIT, OSCILLATOR)

#: Hard cap on composite dimensions, guarding index overflow long before
#: any allocation is attempted.
MAX_TOTAL_DIM = 2**40


# ---------------------------------------------------------------------------
# Hilbert space layout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HilbertLayout:
    """Ordered description of a composite Hilbert space.

    Attributes:
        subsystems: Tuple of ``(kind, dim)`` pairs, where ``kind`` is
            ``"qubit"`` (``dim`` must be 2) or ``"oscillator"``
            (``dim >= 2`` Fock levels retained).
    """

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        subs = tuple((str(kind), int(dim)) for kind, dim in self.subsystems)
        if not subs:
            raise ValueError("layout must contain at least one subsystem")
        for kind, dim in subs:
            if kind not in _KINDS:
                raise ValueError(f"unknown subsystem kind {kind!r}")
            if kind == QUBIT and dim != 2:
                raise ValueError("qubit subsystems must have dimension 2")
            if kind == OSCILLATOR and dim < 2:
                raise ValueError("oscillator truncation dimension must be >= 2")
        total = math.prod(dim for _, dim in subs)
        if total > MAX_TOTAL_DIM:
            raise CapacityError(
                f"composite dimension {total} exceeds the supported maximum "
                f"{MAX_TOTAL_DIM}"
            )
        object.__setattr__(self, "subsystems", subs)

    # -- structural queries -------------------------------------------------

    @property
    def dims(self) -> tuple[int, ...]:
        """Per-subsystem dimensions, in layout order."""
        return tuple(dim for _, dim in self.subsystems)

    @property
    def total_dim(self) -> int:
        """Dimension of the composite space."""
        return math.prod(self.dims)

    @property
    def n_subsystems(self) -> int:
        return len(self.subsystems)

    @property
    def qubit_indices(self) -> tuple[int, ...]:
        """Positions of qubit subsystems within the layout."""
        return tuple(i for i, (k, _) in enumerate(self.subsystems) if k == QUBIT)

    @property
    def oscillator_indices(self) -> tuple[int, ...]:
        """Positions of oscillator subsystems within the layout."""
        return tuple(
            i for i, (k, _) in enumerate(self.subsystems) if k == OSCILLATOR
        )

    # -- index arithmetic ---------------------------------------------------

    def basis_index(self, occupations: Sequence[int]) -> int:
        """Row-major composite index of a product basis state.

        Args:
            occupations: One basis index per subsystem, in layout order
                (for qubits ``0 = |e>``, ``1 = |g>``).

        Returns:
            Integer index into the composite basis.
        """
        if len(occupations) != self.n_subsystems:
            raise ValueError(
                f"expected {self.n_subsystems} occupation numbers, "
                f"got {len(occupations)}"
            )
        index = 0
        for occ, (kind, dim) in zip(occupations, self.subsystems):
            occ = int(occ)
            if not 0 <= occ < dim:
                raise ValueError(
                    f"occupation {occ} out of range for {kind} of dimension {dim}"
                )
            index = index * dim + occ
        return index

    def basis_occupations(self, index: int) -> tuple[int, ...]:
        """Inverse of :meth:`basis_index`."""
        index = int(index)
        if not 0 <= index < self.total_dim:
            raise ValueError(f"basis index {index} out of range")
        occs = []
        for _, dim in reversed(self.subsystems):
            occs.append(index % dim)
            index //= dim
        return tuple(reversed(occs))

    def label_of(self, index: int) -> tuple[str, tuple[int, ...]]:
        """Human-readable label ``(qubit_config, fock_tuple)`` of a basis state.

        The qubit configuration string lists one character per qubit in
        layout order (``"e"`` or ``"g"``); the Fock tuple lists oscillator
        occupations in layout order.
        """
        occs = self.basis_occupations(index)
        config = "".join(
            "e" if occs[i] == 0 else "g" for i in self.qubit_indices
        )
        fock = tuple(occs[i] for i in self.oscillator_indices)
        return config, fock

    def occupation_vectors(self) -> np.ndarray:
        """Array of shape ``(total_dim, n_subsystems)`` of basis occupations."""
        grids = np.indices(self.dims).reshape(self.n_subsystems, -1)
        return grids.T

    def oscillator_number_diagonal(self) -> np.ndarray:
        """Diagonal of the total oscillator number operator, as a float array."""
        occs = self.occupation_vectors()
        osc = self.oscillator_indices
        if not osc:
            return np.zeros(self.total_dim)
        return occs[:, list(osc)].sum(axis=1).astype(float)


def qubit_oscillator_layout(n_qubits: int, truncs: Sequence[int]) -> HilbertLayout:
    """Standard layout with ``n_qubits`` qubits followed by oscillators.

    Args:
        n_qubits: Number of qubit subsystems (placed first).
        truncs: Truncation dimension of each oscillator, in order.
    """
    subs = tuple((QUBIT, 2) for _ in range(int(n_qubits))) + tuple(
        (OSCILLATOR, int(t)) for t in truncs
    )
    return HilbertLayout(subs)


# ---------------------------------------------------------------------------
# Sparse operator wrapper
# ---------------------------------------------------------------------------


def _canonical_csr(dim: int, rows, cols, values):
    """Canonical CSR arrays ``(indptr, indices, data)`` of the entries
    ``(rows, cols, values)`` of a ``(dim, dim)`` matrix.

    Canonical form: complex128 data, duplicate entries summed in the order
    given (left to right), exact zeros purged, entries sorted by row and then
    column, arrays frozen.  Only *exact* zeros are removed; no
    tolerance-based dropping ever happens here.  The index dtype is int32
    when it holds every index, as in SciPy.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.complex128)
    if rows.size and (
        min(rows.min(), cols.min()) < 0 or max(rows.max(), cols.max()) >= dim
    ):
        raise ValueError(f"entry index out of range for dimension {dim}")
    # A stable sort: duplicates keep the order given, and np.add.at sums
    # them in that order.
    order = np.lexsort((cols, rows))
    rows, cols, values = rows[order], cols[order], values[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    data = values[first]
    np.add.at(data, np.cumsum(first)[~first] - 1, values[~first])
    keep = data != 0
    rows, cols, data = rows[first][keep], cols[first][keep], data[keep]
    index = np.int32 if max(dim, data.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(dim + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
    arrays = (indptr, cols.astype(index), data)
    for array in arrays:
        array.setflags(write=False)
    return arrays


def _csr_rows(indptr) -> np.ndarray:
    """Row index of every stored entry of the CSR row pointer ``indptr``."""
    return np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))


def _csr_one_norm(indices, data) -> float:
    """Induced 1-norm (largest absolute column sum) of the CSR matrix with
    column ``indices`` and ``data``; each column is summed in storage order,
    as ``abs(A).sum(axis=0)`` of SciPy does."""
    if data.size == 0:
        return 0.0
    return float(np.bincount(indices, weights=np.abs(data)).max())


class _CSR:
    """A square matrix held as NumPy CSR arrays, with the row of every
    stored entry, and the part of the matrix protocol that the Lanczos and
    Krylov kernels use: ``shape``, ``dtype``, ``@`` on a vector and
    :meth:`diagonal`."""

    def __init__(self, indptr, indices, data) -> None:
        self.indptr, self.indices, self.data = indptr, indices, data
        self.rows = _csr_rows(indptr)
        self.shape = (len(indptr) - 1,) * 2
        self.dtype = data.dtype

    @functools.cached_property
    def _jagged(self):
        """Jagged diagonals of the matrix (Saad, *Iterative Methods for
        Sparse Linear Systems*, 2nd ed., §3.4), built on the first product.

        The rows go longest first (a stable sort), and diagonal ``j`` holds
        the ``j``-th stored entry of each row that has one: a prefix of that
        order.  Returns ``(rank, passes, cols, parts)``: the place of each
        row in the order; per diagonal, the slices of its rows and of its
        entries; the entries' columns; and their values as parts that sum to
        them, the values alone or, when complex, their real and imaginary
        parts.  NumPy's complex multiply may fuse its two products (FMA); a
        part with a zero real or imaginary part multiplies exactly, and the
        sum of the two rounds as SciPy's complex product does.
        """
        lengths = np.diff(self.indptr)
        order = np.argsort(-lengths, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        # The number of rows longer than j, for j = 0, 1, ...
        longer = np.cumsum(np.bincount(lengths)[::-1])[::-1][1:]
        starts = np.append(0, np.cumsum(longer))
        at = np.empty(len(self.data), dtype=np.intp)
        within = np.arange(len(self.data)) - self.indptr[self.rows]
        at[starts[within] + rank[self.rows]] = np.arange(len(self.data))
        bounds = starts.tolist()
        passes = [(slice(0, b - a), slice(a, b)) for a, b in zip(bounds, bounds[1:])]
        vals = self.data[at]
        parts = [vals]
        if np.iscomplexobj(vals):
            parts = [vals.real + 0j, 1j * vals.imag]
        return rank, passes, self.indices[at], parts

    def __matmul__(self, vector: np.ndarray) -> np.ndarray:
        """``A @ v`` with the bits of SciPy's ``csr_matvec``: each row is
        summed from zero in storage order, one jagged diagonal at a time.
        It takes one NumPy pass per entry of the longest row."""
        rank, passes, cols, parts = self._jagged
        # A contiguous copy first: a column of a Lanczos basis is strided.
        x = np.ascontiguousarray(vector)[cols]
        products = parts[0] * x
        for part in parts[1:]:
            products += part * x
        out = np.zeros(len(vector), dtype=products.dtype)
        for head, diagonal in passes:
            view = out[head]
            view += products[diagonal]
        return out[rank]

    def diagonal(self) -> np.ndarray:
        on = self.rows == self.indices
        out = np.zeros(self.shape[0], dtype=self.dtype)
        out[self.rows[on]] = self.data[on]
        return out


def _is_exactly_hermitian(indptr, indices, data) -> bool:
    """Exact (tolerance-free) conjugate-symmetry test of canonical CSR
    arrays: the conjugate transpose, sorted, must reproduce them bit for bit
    up to the sign of zero.  An entry that is not finite fails: no solver
    gives a spectrum of such a matrix."""
    rows = _csr_rows(indptr)
    order = np.lexsort((rows, indices))
    return bool(
        np.isfinite(data).all()
        and np.array_equal(indices[order], rows)
        and np.array_equal(rows[order], indices)
        and np.array_equal(data[order].conj(), data)
    )


class SparseOperator:
    """Immutable canonical sparse operator on a :class:`HilbertLayout`.

    The operator is stored as frozen canonical CSR arrays (see
    :func:`_canonical_csr`).  Canonicalization, the Hermiticity certificate
    and the queries run in NumPy; only :attr:`entries` and the operator
    algebra import SciPy.

    Attributes:
        layout: The composite space the operator acts on.
        indptr, indices, data: Canonical CSR arrays of the
            ``(total_dim, total_dim)`` matrix.
        hermitian: True iff the stored entries are *exactly* conjugate
            symmetric (certified at construction, never assumed).
        entries: The same matrix as a SciPy ``csr_matrix`` sharing the frozen
            arrays, built (and SciPy imported) on first access.
    """

    def __init__(self, layout: HilbertLayout, entries) -> None:
        """Wrap ``entries``: a SciPy sparse matrix or a dense array."""
        dim = layout.total_dim
        sparse = hasattr(entries, "tocoo")
        if not sparse:
            entries = np.asarray(entries, dtype=np.complex128)
        if entries.shape != (dim, dim):
            raise ValueError(
                f"matrix shape {entries.shape} does not match layout dimension {dim}"
            )
        if sparse:
            coo = entries.tocoo()
            rows, cols, values = coo.row, coo.col, coo.data
        else:
            rows, cols = np.nonzero(entries)
            values = entries[rows, cols]
        self._store(layout, rows, cols, values)

    def _store(self, layout: HilbertLayout, rows, cols, values) -> None:
        self.layout = layout
        self.indptr, self.indices, self.data = _canonical_csr(
            layout.total_dim, rows, cols, values
        )
        self.hermitian = _is_exactly_hermitian(self.indptr, self.indices, self.data)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_dense(cls, layout: HilbertLayout, array) -> "SparseOperator":
        """Wrap a dense array (exact zeros are purged in canonical storage)."""
        return cls(layout, array)

    @classmethod
    def from_coo(
        cls, layout: HilbertLayout, rows, cols, values
    ) -> "SparseOperator":
        """Operator with the entries ``(rows, cols, values)``; duplicates are
        summed in the order given."""
        op = cls.__new__(cls)
        op._store(layout, rows, cols, values)
        return op

    # -- basic queries ------------------------------------------------------

    @functools.cached_property
    def entries(self):
        """SciPy CSR view of the operator, sharing the frozen arrays."""
        import scipy.sparse as sp

        dim = self.total_dim
        return sp.csr_matrix((self.data, self.indices, self.indptr), shape=(dim, dim))

    @property
    def total_dim(self) -> int:
        return self.layout.total_dim

    @property
    def nnz(self) -> int:
        """Number of stored (structurally nonzero) entries."""
        return self.data.size

    def toarray(self) -> np.ndarray:
        """Dense copy of the operator."""
        out = np.zeros((self.total_dim, self.total_dim), dtype=np.complex128)
        out[_csr_rows(self.indptr), self.indices] = self.data
        return out

    def diagonal(self) -> np.ndarray:
        return _CSR(self.indptr, self.indices, self.data).diagonal()

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """Matrix-vector product ``A @ v`` (see :class:`_CSR`)."""
        v = np.asarray(vector)
        if v.shape != (self.total_dim,):
            raise ValueError(
                f"vector of shape {v.shape} does not match dimension "
                f"{self.total_dim}"
            )
        return _CSR(self.indptr, self.indices, self.data) @ v

    def one_norm(self) -> float:
        """Induced 1-norm (maximum absolute column sum)."""
        return _csr_one_norm(self.indices, self.data)

    # -- algebra ------------------------------------------------------------

    def _require_same_layout(self, other: "SparseOperator") -> None:
        if self.layout != other.layout:
            raise ValueError("operators act on different layouts")

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        if not isinstance(other, SparseOperator):
            return NotImplemented
        self._require_same_layout(other)
        return SparseOperator(self.layout, self.entries + other.entries)

    def __sub__(self, other: "SparseOperator") -> "SparseOperator":
        if not isinstance(other, SparseOperator):
            return NotImplemented
        self._require_same_layout(other)
        return SparseOperator(self.layout, self.entries - other.entries)

    def __mul__(self, scalar) -> "SparseOperator":
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return SparseOperator(self.layout, self.entries * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "SparseOperator":
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        return SparseOperator(self.layout, self.entries / scalar)

    def __neg__(self) -> "SparseOperator":
        return SparseOperator(self.layout, -self.entries)

    def __matmul__(self, other: "SparseOperator") -> "SparseOperator":
        if not isinstance(other, SparseOperator):
            return NotImplemented
        self._require_same_layout(other)
        return SparseOperator(self.layout, self.entries @ other.entries)

    def dagger(self) -> "SparseOperator":
        """Hermitian adjoint."""
        return SparseOperator(self.layout, self.entries.conj().T.tocsr())

    def commutator(self, other: "SparseOperator") -> "SparseOperator":
        """``[self, other] = self @ other - other @ self``."""
        self._require_same_layout(other)
        return SparseOperator(
            self.layout, self.entries @ other.entries - other.entries @ self.entries
        )

    def max_abs(self) -> float:
        """Largest absolute entry (0 for an empty operator)."""
        if self.nnz == 0:
            return 0.0
        return float(np.abs(self.data).max())


# ---------------------------------------------------------------------------
# Single-subsystem constructors
# ---------------------------------------------------------------------------


def _oscillator_layout(dim: int) -> HilbertLayout:
    return HilbertLayout(((OSCILLATOR, int(dim)),))


def _qubit_layout() -> HilbertLayout:
    return HilbertLayout(((QUBIT, 2),))


def destroy(dim: int) -> SparseOperator:
    """Truncated annihilation operator with ``<j-1| a |j> = sqrt(j)``.

    Args:
        dim: Number of retained Fock levels (must be at least 2).
    """
    dim = int(dim)
    if dim < 2:
        raise ValueError("oscillator truncation dimension must be >= 2")
    j = np.arange(1, dim)
    return SparseOperator.from_coo(_oscillator_layout(dim), j - 1, j, np.sqrt(j))


def create(dim: int) -> SparseOperator:
    """Truncated creation operator (adjoint of :func:`destroy`)."""
    return destroy(dim).dagger()


def number(dim: int) -> SparseOperator:
    """Number operator ``diag(0, 1, ..., dim-1)``."""
    dim = int(dim)
    if dim < 2:
        raise ValueError("oscillator truncation dimension must be >= 2")
    j = np.arange(dim)
    return SparseOperator.from_coo(_oscillator_layout(dim), j, j, j)


def identity(dim: int, kind: str = OSCILLATOR) -> SparseOperator:
    """Identity operator on a single subsystem of the given kind."""
    return _identity(HilbertLayout(((kind, int(dim)),)))


def _identity(layout: HilbertLayout) -> SparseOperator:
    j = np.arange(layout.total_dim)
    return SparseOperator.from_coo(layout, j, j, np.ones(j.size))


def position(dim: int) -> SparseOperator:
    """Dimensionless position-like operator ``a + a^dagger``."""
    return destroy(dim) + create(dim)


_PAULI_MATRICES = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=np.complex128),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128),
    "plus": np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128),
    "minus": np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.complex128),
}


def pauli(which: str) -> SparseOperator:
    """Qubit operator in the ``(|e>, |g>)`` basis.

    ``"z" = diag(+1, -1)`` (excited state has eigenvalue +1),
    ``"plus" = |e><g|`` raises ``|g>`` to ``|e>``, and ``"minus"`` is its
    adjoint; ``"x"``/``"y"`` are the standard flip operators.

    Args:
        which: One of ``"x"``, ``"y"``, ``"z"``, ``"plus"``, ``"minus"``.
    """
    try:
        mat = _PAULI_MATRICES[which]
    except KeyError:
        raise ValueError(
            f"unknown qubit operator {which!r}; expected one of "
            f"{sorted(_PAULI_MATRICES)}"
        ) from None
    return SparseOperator.from_dense(_qubit_layout(), mat)


# ---------------------------------------------------------------------------
# Composite-space machinery
# ---------------------------------------------------------------------------


def op_pow(a: SparseOperator, exponent: int) -> SparseOperator:
    """Non-negative integer operator power; ``exponent = 0`` gives identity.

    A power of an exactly Hermitian operator is Hermitian in exact
    arithmetic, but chained floating-point products associate the triple
    products of the two triangles differently (an ulp-level mismatch from
    the third power on), so such a result is re-symmetrized to keep the
    Hermiticity certificate.
    """
    exponent = int(exponent)
    if exponent < 0:
        raise ValueError("operator power requires a non-negative exponent")
    if exponent == 0:
        return _identity(a.layout)
    result = a
    for _ in range(exponent - 1):
        result = result @ a
    if a.hermitian and not result.hermitian:
        result = 0.5 * (result + result.dagger())
    return result


def embed(
    layout: HilbertLayout,
    factors: Iterable[tuple[int, SparseOperator]],
) -> SparseOperator:
    """Tensor single-subsystem operators into a composite layout.

    Args:
        layout: Target composite layout.
        factors: Pairs ``(subsystem_index, operator)``; every unmentioned
            subsystem receives an identity factor.  An empty iterable yields
            the identity on the full layout.

    Raises:
        ValueError: On a duplicated subsystem index, an index out of range,
            a multi-subsystem factor, or a factor whose kind/dimension does
            not match the layout slot.
    """
    import scipy.sparse as sp

    factor_map: dict[int, SparseOperator] = {}
    for index, op in factors:
        index = int(index)
        if not 0 <= index < layout.n_subsystems:
            raise ValueError(f"subsystem index {index} out of range")
        if index in factor_map:
            raise ValueError(f"subsystem index {index} appears more than once")
        if not isinstance(op, SparseOperator):
            raise ValueError("embed factors must be SparseOperator instances")
        if op.layout.n_subsystems != 1:
            raise ValueError("embed factors must act on a single subsystem")
        if op.layout.subsystems[0] != layout.subsystems[index]:
            raise ValueError(
                f"factor {op.layout.subsystems[0]} does not match layout slot "
                f"{layout.subsystems[index]} at index {index}"
            )
        factor_map[index] = op

    acc = sp.identity(1, format="csr", dtype=np.complex128)
    for i, (_, dim) in enumerate(layout.subsystems):
        if i in factor_map:
            block = factor_map[i].entries
        else:
            block = sp.identity(dim, format="csr", dtype=np.complex128)
        acc = sp.kron(acc, block, format="csr")
    return SparseOperator(layout, acc)


def guard_band_mask(
    layout: HilbertLayout, order: int, band: int = 2
) -> np.ndarray:
    """Boolean mask of basis states unaffected by truncation edge artifacts.

    A basis state passes the mask iff every oscillator occupation ``j``
    satisfies ``j < dim - order * band``.  Operator identities that move up
    to ``order`` quanta per application (applied up to ``band`` times) are
    exact on the masked block of a truncated matrix.

    Args:
        layout: Composite layout.
        order: Number of quanta moved per operator application.
        band: Number of nested applications to protect against (default 2).
    """
    order = int(order)
    band = int(band)
    if order < 0 or band < 0:
        raise ValueError("order and band must be non-negative")
    occs = layout.occupation_vectors()
    mask = np.ones(layout.total_dim, dtype=bool)
    for i in layout.oscillator_indices:
        dim = layout.dims[i]
        mask &= occs[:, i] < dim - order * band
    return mask
