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
* Every sparse kernel in the package runs on these CSR arrays, one kernel
  each: :func:`_csr_rows` (the row of every stored entry) and
  :func:`_csr_one_norm` (the largest absolute column sum) in NumPy, and the
  product ``A @ v`` of :class:`_CSR`, SciPy's compiled ``csr_matvec``.
* One rule for SciPy: solves load ``scipy.linalg._flapack`` and products
  ``_sparsetools``, each from its file by :func:`_extension`; only
  ``SparseOperator.entries`` (a ``csr_matrix`` view of the frozen arrays,
  built on first access) and the operator algebra that works through it
  (``+``, ``@``, :meth:`SparseOperator.dagger`, :func:`embed`,
  :func:`op_pow`) import ``scipy.sparse``.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, ConfigError, _complex, _integer

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
        subs = []
        for kind, dim in self.subsystems:
            if kind not in _KINDS:
                raise ConfigError(f"unknown subsystem kind {kind!r}")
            dim = _integer(f"{kind} dimension", dim, 2)
            if kind == QUBIT and dim != 2:
                raise ConfigError("qubit subsystems must have dimension 2")
            subs.append((str(kind), dim))
        subs = tuple(subs)
        if not subs:
            raise ConfigError("layout must contain at least one subsystem")
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
            raise ConfigError(
                f"expected {self.n_subsystems} occupation numbers, "
                f"got {len(occupations)}"
            )
        index = 0
        for occ, (kind, dim) in zip(occupations, self.subsystems):
            index = index * dim + _integer(f"{kind} occupation", occ, 0, dim - 1)
        return index

    def basis_occupations(self, index: int) -> tuple[int, ...]:
        """Inverse of :meth:`basis_index`."""
        index = _integer("basis index", index, 0, self.total_dim - 1)
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
    qubits = ((QUBIT, 2),) * _integer("number of qubits", n_qubits, 0)
    return HilbertLayout(qubits + tuple((OSCILLATOR, t) for t in truncs))


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
        raise ConfigError(f"entry index out of range for dimension {dim}")
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


def _extension(name: str, folder: str, fallback: str):
    """The SciPy extension ``scipy/<folder>/<stem>``, registered as the
    module ``name`` whose last component is ``stem``.

    The extension is loaded from its file, which skips the import of its
    SciPy package (``scipy.linalg`` or ``scipy.sparse``), and is registered
    under ``name``, so that later calls, and any import of that name, share
    it.  Where the file is not found, the module ``fallback`` serves.
    """
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    stem = name.rpartition(".")[2]
    path = os.path.join(os.path.dirname(scipy.__file__), folder, stem)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(path + suffix):
            spec = importlib.util.spec_from_file_location(name, path + suffix)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            return module
    return importlib.import_module(fallback)


def _sparsetools():
    """SciPy's compiled sparse kernels, ``scipy.sparse._sparsetools``,
    registered as this package's ``_sparsetools``: a run that multiplies
    loads no ``scipy.sparse`` module."""
    return _extension(
        __name__.rpartition(".")[0] + "._sparsetools",
        "sparse",
        "scipy.sparse._sparsetools",
    )


class _CSR:
    """A square matrix held as NumPy CSR arrays, with the row of every
    stored entry, and the part of the matrix protocol that the Lanczos and
    Krylov kernels use: ``shape``, ``dtype``, ``@`` on a vector (SciPy's
    compiled ``csr_matvec``) and :meth:`diagonal`."""

    def __init__(self, indptr, indices, data) -> None:
        self.indptr, self.indices, self.data = indptr, indices, data
        self.rows = _csr_rows(indptr)
        self.shape = (len(indptr) - 1,) * 2
        self.dtype = data.dtype

    def __matmul__(self, vector: np.ndarray) -> np.ndarray:
        """``A @ v`` by SciPy's compiled ``csr_matvec``, called as
        ``scipy.sparse`` calls it: each row summed from zero in storage
        order, into an output of the two operands' common dtype.  The
        compiled loop reads ``v`` unchecked, so its shape is checked here."""
        if vector.shape != self.shape[1:]:
            raise ConfigError(
                f"vector of shape {vector.shape} does not match dimension "
                f"{self.shape[1]}"
            )
        out = np.zeros(self.shape[0], np.result_type(self.dtype, vector))
        _sparsetools().csr_matvec(
            *self.shape, self.indptr, self.indices, self.data, vector, out
        )
        return out

    def diagonal(self) -> np.ndarray:
        on = self.rows == self.indices
        out = np.zeros(self.shape[0], dtype=self.dtype)
        out[self.rows[on]] = self.data[on]
        return out


def _is_exactly_hermitian(csr: _CSR) -> bool:
    """Exact (tolerance-free) conjugate-symmetry test of a canonical CSR
    matrix: the conjugate transpose, sorted, must reproduce it bit for bit
    up to the sign of zero.  An entry that is not finite fails: no solver
    gives a spectrum of such a matrix."""
    order = np.lexsort((csr.rows, csr.indices))
    return bool(
        np.isfinite(csr.data).all()
        and np.array_equal(csr.indices[order], csr.rows)
        and np.array_equal(csr.rows[order], csr.indices)
        and np.array_equal(csr.data[order].conj(), csr.data)
    )


class SparseOperator:
    """Immutable canonical sparse operator on a :class:`HilbertLayout`.

    The operator is stored as frozen canonical CSR arrays (see
    :func:`_canonical_csr`) and one :class:`_CSR` view of them, which the
    Hermiticity certificate and the queries read.  Canonicalization, the
    certificate and the queries run in NumPy, and :meth:`apply` in SciPy's
    compiled ``csr_matvec``; only :attr:`entries` and the operator algebra
    import ``scipy.sparse``.

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
            raise ConfigError(
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
        self._csr = _CSR(self.indptr, self.indices, self.data)
        self.hermitian = _is_exactly_hermitian(self._csr)

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
        out[self._csr.rows, self.indices] = self.data
        return out

    def diagonal(self) -> np.ndarray:
        return self._csr.diagonal()

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """Matrix-vector product ``A @ v`` (see :class:`_CSR`)."""
        return self._csr @ np.asarray(vector)

    def one_norm(self) -> float:
        """Induced 1-norm (maximum absolute column sum)."""
        return _csr_one_norm(self.indices, self.data)

    # -- algebra ------------------------------------------------------------

    def _require_same_layout(self, other: "SparseOperator") -> None:
        if self.layout != other.layout:
            raise ConfigError("operators act on different layouts")

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
        _complex("operator factor", scalar)
        return SparseOperator(self.layout, self.entries * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "SparseOperator":
        if not isinstance(scalar, numbers.Number):
            return NotImplemented
        if _complex("operator divisor", scalar) == 0:
            raise ConfigError(f"operator divisor must be nonzero, got {scalar!r}")
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


def destroy(dim: int) -> SparseOperator:
    """Truncated annihilation operator with ``<j-1| a |j> = sqrt(j)``.

    Args:
        dim: Number of retained Fock levels (must be at least 2).
    """
    layout = HilbertLayout(((OSCILLATOR, dim),))
    j = np.arange(1, layout.total_dim)
    return SparseOperator.from_coo(layout, j - 1, j, np.sqrt(j))


def create(dim: int) -> SparseOperator:
    """Truncated creation operator (adjoint of :func:`destroy`)."""
    return destroy(dim).dagger()


def number(dim: int) -> SparseOperator:
    """Number operator ``diag(0, 1, ..., dim-1)``."""
    layout = HilbertLayout(((OSCILLATOR, dim),))
    j = np.arange(layout.total_dim)
    return SparseOperator.from_coo(layout, j, j, j)


def identity(dim: int, kind: str = OSCILLATOR) -> SparseOperator:
    """Identity operator on a single subsystem of the given kind."""
    return _identity(HilbertLayout(((kind, dim),)))


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
        raise ConfigError(
            f"unknown qubit operator {which!r}; expected one of "
            f"{sorted(_PAULI_MATRICES)}"
        ) from None
    return SparseOperator.from_dense(HilbertLayout(((QUBIT, 2),)), mat)


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
    exponent = _integer("operator power exponent", exponent, 0)
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
        ConfigError: On a duplicated subsystem index, an index out of range,
            a multi-subsystem factor, or a factor whose kind/dimension does
            not match the layout slot.
    """
    import scipy.sparse as sp

    factor_map: dict[int, SparseOperator] = {}
    for index, op in factors:
        index = _integer("subsystem index", index, 0, layout.n_subsystems - 1)
        if index in factor_map:
            raise ConfigError(f"subsystem index {index} appears more than once")
        if not isinstance(op, SparseOperator):
            raise ConfigError("embed factors must be SparseOperator instances")
        if op.layout.n_subsystems != 1:
            raise ConfigError("embed factors must act on a single subsystem")
        if op.layout.subsystems[0] != layout.subsystems[index]:
            raise ConfigError(
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
    order = _integer("guard band order", order, 0)
    band = _integer("guard band band", band, 0)
    occs = layout.occupation_vectors()
    mask = np.ones(layout.total_dim, dtype=bool)
    for i in layout.oscillator_indices:
        dim = layout.dims[i]
        mask &= occs[:, i] < dim - order * band
    return mask
