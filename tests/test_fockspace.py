"""Composite Hilbert-space layouts and canonical sparse operators."""

import importlib.machinery
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dispersive_nphoton import fockspace
from dispersive_nphoton.errors import CapacityError, ConfigError
from dispersive_nphoton.fockspace import (
    HilbertLayout,
    SparseOperator,
    create,
    destroy,
    embed,
    guard_band_mask,
    identity,
    number,
    op_pow,
    pauli,
    position,
    qubit_oscillator_layout,
)
from test_eigensolve import _same_bits


@pytest.fixture
def layout_1q1o():
    return qubit_oscillator_layout(1, (4,))


class TestHilbertLayout:
    def test_row_major_indexing_qubit_before_oscillator(self, layout_1q1o):
        # Index = qubit * 4 + fock; excited qubit occupies occupation 0.
        assert layout_1q1o.total_dim == 8
        assert layout_1q1o.basis_index((0, 2)) == 2
        assert layout_1q1o.basis_index((1, 2)) == 6
        assert layout_1q1o.basis_occupations(6) == (1, 2)

    def test_labels(self, layout_1q1o):
        assert layout_1q1o.label_of(2) == ("e", (2,))
        assert layout_1q1o.label_of(6) == ("g", (2,))

    def test_two_qubits_two_oscillators_order(self):
        layout = qubit_oscillator_layout(2, (3, 5))
        # Slowest index first: q0, q1, osc0, osc1.
        assert layout.dims == (2, 2, 3, 5)
        assert layout.basis_index((1, 0, 2, 4)) == ((1 * 2 + 0) * 3 + 2) * 5 + 4
        assert layout.label_of(layout.basis_index((1, 0, 2, 4))) == ("ge", (2, 4))

    def test_validation(self):
        with pytest.raises(ValueError):
            HilbertLayout((("qubit", 3),))
        with pytest.raises(ValueError):
            HilbertLayout((("oscillator", 1),))
        with pytest.raises(ValueError):
            HilbertLayout((("spin", 2),))

    def test_capacity_guard(self):
        huge = ("oscillator", 2**21)
        with pytest.raises(CapacityError):
            HilbertLayout((huge, huge))

    def test_oscillator_number_diagonal(self):
        layout = qubit_oscillator_layout(1, (3,))
        np.testing.assert_array_equal(
            layout.oscillator_number_diagonal(), [0, 1, 2, 0, 1, 2]
        )


class TestLadderOperators:
    def test_destroy_matrix_elements(self):
        a = destroy(5)
        dense = a.toarray()
        for j in range(1, 5):
            assert dense[j - 1, j] == pytest.approx(np.sqrt(j))
        assert np.count_nonzero(dense) == 4

    def test_create_is_dagger(self):
        assert (create(5) - destroy(5).dagger()).nnz == 0

    def test_number_diagonal(self):
        np.testing.assert_array_equal(number(6).diagonal().real, np.arange(6))

    def test_canonical_commutator_inside_guard_band(self):
        dim = 12
        a = destroy(dim)
        comm = a.commutator(create(dim))
        mask = guard_band_mask(a.layout, order=1)
        delta = comm.toarray() - np.eye(dim)
        inside = np.ix_(np.nonzero(mask)[0], np.nonzero(mask)[0])
        assert np.abs(delta[inside]).max() < 1e-14  # sqrt(j) roundoff only
        # The truncation corrupts exactly the top diagonal entry.
        assert delta[dim - 1, dim - 1] == pytest.approx(-dim)

    def test_position(self):
        x = position(4)
        expected = (destroy(4) + create(4)).toarray()
        np.testing.assert_allclose(x.toarray(), expected)
        assert x.hermitian


class TestPauli:
    def test_sigma_z_diagonal_excited_first(self):
        np.testing.assert_array_equal(pauli("z").toarray(), np.diag([1.0, -1.0]))

    def test_sigma_plus_maps_ground_to_excited(self):
        # sigma_+ = |e><g| with |e> at index 0.
        expected = np.zeros((2, 2))
        expected[0, 1] = 1.0
        np.testing.assert_array_equal(pauli("plus").toarray(), expected)

    def test_algebra(self):
        sx, sy, sz = pauli("x"), pauli("y"), pauli("z")
        np.testing.assert_allclose(
            sx.commutator(sy).toarray(), 2j * sz.toarray()
        )
        assert (pauli("plus") - (sx + 1j * sy) / 2).max_abs() == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            pauli("w")


class TestOperatorAlgebra:
    def test_canonicalization_purges_exact_zeros_only(self):
        dim = 4
        a = destroy(dim)
        diff = a - a
        assert diff.nnz == 0
        tiny = a * 1e-300
        assert tiny.nnz == a.nnz  # small but nonzero entries survive

    def test_hermitian_flag_is_exact(self):
        n = number(5)
        assert n.hermitian
        assert not destroy(5).hermitian
        assert (destroy(5) + create(5)).hermitian

    def test_matmul_and_apply_agree(self):
        a = destroy(6)
        m = a @ a.dagger()
        vec = np.arange(6, dtype=np.complex128)
        np.testing.assert_allclose(m.apply(vec), m.toarray() @ vec)

    def test_one_norm_and_max_abs(self):
        a = destroy(4)
        assert a.max_abs() == pytest.approx(np.sqrt(3))
        assert a.one_norm() == pytest.approx(np.sqrt(3))

    def test_scalar_operations(self):
        a = destroy(3)
        np.testing.assert_allclose((2 * a / 4).toarray(), 0.5 * a.toarray())
        np.testing.assert_allclose((-a).toarray(), -a.toarray())

    @pytest.mark.parametrize(
        "scalar", [np.float64(0.5), np.int64(2), np.complex128(1j), 3, 0.25j]
    )
    def test_scalars_of_any_number_type(self, scalar):
        a = number(3)
        np.testing.assert_array_equal((a * scalar).toarray(), a.toarray() * scalar)
        np.testing.assert_array_equal((scalar * a).toarray(), a.toarray() * scalar)
        np.testing.assert_array_equal((a / scalar).toarray(), a.toarray() / scalar)

    @pytest.mark.parametrize(
        "scalar", [float("nan"), float("inf"), complex(0, float("nan")), True, False]
    )
    def test_scalar_outside_the_number_rule(self, scalar):
        a = number(3)
        for scale in (lambda: a * scalar, lambda: scalar * a, lambda: a / scalar):
            with pytest.raises(ConfigError, match="operator (factor|divisor)"):
                scale()

    @pytest.mark.parametrize("zero", [0, 0.0, np.float64(0.0), 0j])
    def test_division_by_zero(self, zero):
        with pytest.raises(ConfigError, match="divisor must be nonzero"):
            number(3) / zero

    def test_layout_mismatch_raises(self):
        with pytest.raises(ValueError):
            destroy(3) + destroy(4)

    def test_from_dense_round_trip(self):
        rng = np.random.default_rng(11)
        dense = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        layout = HilbertLayout((("oscillator", 4),))
        op = SparseOperator.from_dense(layout, dense)
        np.testing.assert_allclose(op.toarray(), dense)


class TestComposition:
    def test_kron_matches_numpy(self):
        sz = pauli("z")
        n = number(3)
        layout = qubit_oscillator_layout(1, (3,))
        np.testing.assert_allclose(
            embed(layout, [(0, sz), (1, n)]).toarray(),
            np.kron(sz.toarray(), n.toarray()),
        )

    def test_embed_places_factors(self):
        layout = qubit_oscillator_layout(1, (3,))
        op = embed(layout, [(0, pauli("z")), (1, number(3))])
        np.testing.assert_allclose(
            op.toarray(), np.kron(np.diag([1.0, -1.0]), np.diag([0.0, 1.0, 2.0]))
        )

    def test_embed_defaults_to_identity(self):
        layout = qubit_oscillator_layout(1, (3,))
        op = embed(layout, [(1, number(3))])
        np.testing.assert_allclose(
            op.toarray(), np.kron(np.eye(2), np.diag([0.0, 1.0, 2.0]))
        )
        full_identity = embed(layout, [])
        np.testing.assert_array_equal(full_identity.toarray(), np.eye(6))

    def test_embed_validation(self):
        layout = qubit_oscillator_layout(1, (3,))
        with pytest.raises(ValueError):
            embed(layout, [(0, number(3))])  # kind mismatch on the qubit slot
        with pytest.raises(ValueError):
            embed(layout, [(2, number(3))])

    def test_op_pow(self):
        a = destroy(6)
        assert (op_pow(a, 0) - identity(6)).nnz == 0
        np.testing.assert_allclose(
            op_pow(a, 3).toarray(),
            a.toarray() @ a.toarray() @ a.toarray(),
        )

    def test_zeros(self):
        layout = qubit_oscillator_layout(1, (3,))
        zero = SparseOperator.from_dense(layout, np.zeros((6, 6)))
        assert zero.nnz == 0 and zero.hermitian


class TestGuardBand:
    def test_mask_shape_and_content(self):
        layout = qubit_oscillator_layout(1, (10,))
        mask = guard_band_mask(layout, order=2)  # band defaults to 2
        # Kept Fock levels: j < 10 - 2*2 = 6, for both qubit settings.
        expected = np.array([j < 6 for _ in range(2) for j in range(10)])
        np.testing.assert_array_equal(mask, expected)

    def test_multi_oscillator_mask(self):
        layout = qubit_oscillator_layout(0, (4, 5))
        mask = guard_band_mask(layout, order=1, band=1)
        for idx in range(layout.total_dim):
            j0, j1 = layout.basis_occupations(idx)
            assert mask[idx] == (j0 < 3 and j1 < 4)


class TestCanonicalArrays:
    """Canonical CSR arrays, built and certified in NumPy."""

    LAYOUT = HilbertLayout((("oscillator", 3),))

    def op(self, entries):
        """Operator from ``{(row, col): value}``, in insertion order."""
        rows, cols = zip(*entries) if entries else ((), ())
        return SparseOperator.from_coo(self.LAYOUT, rows, cols, list(entries.values()))

    def test_certificate_accepts_exact_conjugate_symmetry(self):
        assert self.op({(0, 1): 1 + 2j, (1, 0): 1 - 2j, (2, 2): -0.5}).hermitian

    @pytest.mark.parametrize(
        "entries",
        [
            {(0, 0): np.nan},
            {(0, 1): np.nan, (1, 0): np.nan},
            {(0, 1): 1.0, (1, 0): np.nextafter(1.0, 2.0)},
            {(0, 1): 1 + 2j, (1, 0): 1 + 2j},
            {(1, 1): 1j},
            {(0, 2): 1.0},
            # Conjugate symmetric bit for bit, but beyond the float range.
            {(0, 0): np.inf},
            {(0, 1): np.inf, (1, 0): np.inf},
            {(0, 1): complex(1.0, np.inf), (1, 0): complex(1.0, -np.inf)},
        ],
        ids=[
            "nan-diagonal", "nan-pair", "one-ulp", "unconjugated",
            "imaginary-diagonal", "one-sided",
            "inf-diagonal", "inf-pair", "inf-imaginary-pair",
        ],
    )
    def test_certificate_refuses(self, entries):
        assert not self.op(entries).hermitian

    def test_explicit_zeros_are_purged(self):
        import scipy.sparse as sp

        stored = sp.csr_matrix(
            (np.array([0.0, 2.0, 0.0]), np.array([1, 1, 2]), np.array([0, 1, 2, 3])),
            shape=(3, 3),
        )
        assert stored.nnz == 3
        op = SparseOperator(self.LAYOUT, stored)
        assert op.nnz == 1 and op.hermitian
        # A stored zero and a duplicate pair that cancels.
        op = SparseOperator.from_coo(
            self.LAYOUT, [0, 2, 0], [1, 0, 1], [1.5, 0.0, -1.5]
        )
        assert op.nnz == 0

    def test_duplicates_sum_in_the_order_given(self):
        # (1e16 - 1e16) + 1 = 1, but (1e16 + 1) - 1e16 = 0 in floating point.
        rows, cols = [0, 0, 0], [2, 2, 2]
        kept = SparseOperator.from_coo(self.LAYOUT, rows, cols, [1e16, -1e16, 1.0])
        lost = SparseOperator.from_coo(self.LAYOUT, rows, cols, [1e16, 1.0, -1e16])
        assert kept.toarray()[0, 2] == 1.0
        assert lost.nnz == 0

    def test_sorted_rows_and_columns(self):
        op = self.op({(2, 0): 1.0, (0, 2): 2.0, (0, 0): 3.0, (1, 1): 4.0})
        np.testing.assert_array_equal(op.indptr, [0, 2, 3, 4])
        np.testing.assert_array_equal(op.indices, [0, 2, 1, 0])
        np.testing.assert_array_equal(op.data, [3.0, 2.0, 4.0, 1.0])
        assert op.data.dtype == np.complex128

    def test_arrays_are_read_only(self):
        op = destroy(4) + create(4)
        for array in (op.indptr, op.indices, op.data):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_entries_is_a_read_only_view_of_the_arrays(self):
        op = destroy(5) @ create(5) + number(5)
        mat = op.entries
        assert mat is op.entries  # built once
        np.testing.assert_array_equal(mat.toarray(), op.toarray())
        for name in ("indptr", "indices", "data"):
            view, array = getattr(mat, name), getattr(op, name)
            np.testing.assert_array_equal(view, array)
            assert np.shares_memory(view, array)
            assert not view.flags.writeable

    def test_queries_read_the_arrays(self):
        rng = np.random.default_rng(3)
        dense = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        dense[0, 1] = 0.0
        op = SparseOperator.from_dense(self.LAYOUT, dense)
        vec = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert op.nnz == 8
        np.testing.assert_array_equal(op.toarray(), dense)
        np.testing.assert_array_equal(op.diagonal(), np.diag(dense))
        np.testing.assert_allclose(op.apply(vec), dense @ vec, rtol=1e-14)
        one_norm = np.abs(dense).sum(axis=0).max()
        assert op.one_norm() == pytest.approx(one_norm, rel=1e-15)
        assert op.max_abs() == np.abs(dense).max()

    def test_queries_share_one_csr_view(self, monkeypatch):
        # The operator's one CSR view is built with it: the queries never
        # rebuild it.
        op = destroy(5) @ create(5) + number(5)
        built = []
        real = fockspace._CSR
        monkeypatch.setattr(fockspace, "_CSR", lambda *a: built.append(a) or real(*a))
        vec = np.arange(5.0)
        first = op.apply(vec)
        for _ in range(2):
            np.testing.assert_array_equal(op.apply(vec), first)
            op.diagonal()
            op.toarray()
        assert built == []


class TestRefusals:
    """Every refusal of the module, each with the error it raises."""

    LAYOUT = HilbertLayout((("oscillator", 3),))

    def test_empty_layout(self):
        with pytest.raises(ValueError, match="at least one subsystem"):
            HilbertLayout(())

    def test_basis_index_and_occupations(self, layout_1q1o):
        with pytest.raises(ValueError, match="expected 2 occupation numbers, got 1"):
            layout_1q1o.basis_index((0,))
        match = r"oscillator occupation must lie in \[0, 3\], got 4"
        with pytest.raises(ValueError, match=match):
            layout_1q1o.basis_index((0, 4))
        match = r"qubit occupation must lie in \[0, 1\], got -1"
        with pytest.raises(ValueError, match=match):
            layout_1q1o.basis_index((-1, 0))
        for index in (-1, 8):
            match = rf"basis index must lie in \[0, 7\], got {index}"
            with pytest.raises(ValueError, match=match):
                layout_1q1o.basis_occupations(index)

    def test_entry_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range for dimension 3"):
            SparseOperator.from_coo(self.LAYOUT, [0, 3], [0, 0], [1.0, 1.0])
        with pytest.raises(ValueError, match="out of range for dimension 3"):
            SparseOperator.from_coo(self.LAYOUT, [0], [-1], [1.0])

    def test_array_of_wrong_shape(self):
        with pytest.raises(ValueError, match=r"shape \(2, 2\) does not match"):
            SparseOperator(self.LAYOUT, np.eye(2))

    def test_apply_to_vector_of_wrong_shape(self):
        op = number(3)
        for vec in (np.ones(4), np.ones((3, 1))):
            with pytest.raises(ValueError, match="does not match dimension 3"):
                op.apply(vec)

    @pytest.mark.parametrize(
        "combine",
        [
            lambda op: op + 1,
            lambda op: 1 + op,
            lambda op: op - 1,
            lambda op: 1 - op,
            lambda op: op * None,
            lambda op: None * op,
            lambda op: op / "2",
            lambda op: op @ 1,
            lambda op: 1 @ op,
        ],
        ids=["add", "radd", "sub", "rsub", "mul", "rmul", "div", "matmul", "rmatmul"],
    )
    def test_algebra_with_a_non_operator(self, combine):
        with pytest.raises(TypeError):
            combine(number(3))

    @pytest.mark.parametrize("make", [destroy, number])
    def test_single_level_oscillator(self, make):
        with pytest.raises(ValueError, match=">= 2"):
            make(1)

    def test_negative_power(self):
        with pytest.raises(ValueError, match="exponent must be >= 0, got -1"):
            op_pow(destroy(3), -1)

    def test_embed_refusals(self):
        layout = qubit_oscillator_layout(1, (3,))
        with pytest.raises(ValueError, match="appears more than once"):
            embed(layout, [(1, number(3)), (1, destroy(3))])
        with pytest.raises(ValueError, match="must be SparseOperator"):
            embed(layout, [(1, np.eye(3))])
        pair = embed(layout, [(0, pauli("z"))])
        with pytest.raises(ValueError, match="single subsystem"):
            embed(layout, [(1, pair)])

    @pytest.mark.parametrize("order, band", [(-1, 2), (1, -1)])
    def test_guard_band_negative_order(self, order, band):
        with pytest.raises(ValueError, match="must be >= 0, got -1"):
            guard_band_mask(qubit_oscillator_layout(1, (5,)), order, band)


def test_qubit_only_layout_has_no_photons():
    layout = qubit_oscillator_layout(2, ())
    diagonal = layout.oscillator_number_diagonal()
    assert diagonal.dtype == float
    np.testing.assert_array_equal(diagonal, np.zeros(4))


def test_empty_operator_norms():
    zero = SparseOperator.from_coo(HilbertLayout((("oscillator", 3),)), [], [], [])
    assert zero.nnz == 0
    assert zero.one_norm() == 0.0 and zero.max_abs() == 0.0


#: Builds one operator with a long row and multiplies it; then checks the
#: loaded modules (``{check}``).  Run in a fresh interpreter.
_PRODUCT_PROBE = """
import sys
import numpy as np
from dispersive_nphoton.fockspace import SparseOperator, qubit_oscillator_layout
dim = 300
dense = np.eye(dim) + 1j * np.eye(dim, k=1)
dense[0, :] = dense[:, 0] = np.arange(1.0, dim + 1)
op = SparseOperator(qubit_oscillator_layout(0, (dim,)), dense)
v = np.cos(np.arange(dim)) + 1j * np.sin(np.arange(dim))
mine = op.apply(v)
{check}
print("ok")
"""


class TestCompiledProduct:
    """``_CSR @ v`` is SciPy's compiled ``csr_matvec``, loaded from its file
    under this package's name: SciPy's bits at any row length, and no
    ``scipy.sparse`` module in the run."""

    @staticmethod
    def _arrow(dim, complex_data):
        """An arrow block: row 0 stores every column, as column 0 every row."""
        rng = np.random.default_rng(dim)
        dense = np.diag(rng.normal(size=dim))
        dense[0, :] = dense[:, 0] = rng.normal(size=dim)
        if complex_data:
            dense = dense + 1j * np.diag(rng.normal(size=dim - 1), k=1)
        return dense

    @pytest.mark.parametrize("vector", ["real", "complex"])
    @pytest.mark.parametrize("data", ["real", "complex"])
    def test_arrow_block_has_scipy_bits(self, data, vector):
        import scipy.sparse as sp

        dim = 1500
        ref = sp.csr_matrix(self._arrow(dim, data == "complex"))
        assert np.diff(ref.indptr).max() == dim
        mat = fockspace._CSR(ref.indptr, ref.indices, ref.data)
        rng = np.random.default_rng(7)
        v = rng.normal(size=dim)
        if vector == "complex":
            v = v + 1j * rng.normal(size=dim)
        assert _same_bits(mat @ v, ref @ v)
        op = SparseOperator(qubit_oscillator_layout(0, (dim,)), ref)
        assert _same_bits(op.apply(v), op.entries @ v)

    @pytest.mark.parametrize(
        "v",
        [np.arange(-3, 9), (np.arange(12.0) - 2.5j).astype(np.complex64)],
        ids=["int64", "complex64"],
    )
    def test_output_dtype_follows_scipy(self, v):
        op = destroy(12) @ create(12) + position(12) * 0.3j
        got = op.apply(v)
        assert got.dtype == np.complex128
        assert _same_bits(got, op.entries @ v)

    def test_refuses_vector_of_wrong_shape(self):
        # The compiled loop would read past the end of a short vector.
        mat = (destroy(2000) + create(2000))._csr
        for vec in (np.ones(3), np.ones(2001), np.ones((2000, 1))):
            with pytest.raises(ValueError, match="does not match dimension 2000"):
                mat @ vec

    def _probe(self, check):
        """Runs :data:`_PRODUCT_PROBE` with ``check`` in a fresh interpreter."""
        src = str(Path(fockspace.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _PRODUCT_PROBE.format(check=check)],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_product_loads_no_sparse_module(self):
        check = (
            "loaded = [m for m in sys.modules if m.startswith('scipy.sparse')]\n"
            "assert loaded == [], loaded\n"
            "assert 'dispersive_nphoton._sparsetools' in sys.modules"
        )
        assert self._probe(check) == "ok\n"

    def test_agrees_with_scipy_loaded_after_it(self):
        # The extension, loaded first under this package's name, then again
        # by scipy.sparse under its own: both give the same bits.
        check = (
            "import scipy.sparse\n"
            "from scipy.sparse import _sparsetools\n"
            "from dispersive_nphoton import fockspace\n"
            "assert fockspace._sparsetools() is not _sparsetools\n"
            "ref = (op.entries @ v).view(np.uint8)\n"
            "assert np.array_equal(mine.view(np.uint8), ref)\n"
            "assert np.array_equal(op.apply(v).view(np.uint8), ref)"
        )
        assert self._probe(check) == "ok\n"

    def test_falls_back_to_scipy_sparse(self, monkeypatch):
        # Without the extension's file, scipy.sparse's own module serves.
        import scipy.sparse as sp
        from scipy.sparse import _sparsetools

        ref = sp.csr_matrix(self._arrow(1200, True))
        v = np.linspace(-1.0, 1.0, 1200) * (1 - 2j)
        want = ref @ v
        private = fockspace.__name__.rpartition(".")[0] + "._sparsetools"
        monkeypatch.delitem(sys.modules, private, raising=False)
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
        calls = []
        real = _sparsetools.csr_matvec
        monkeypatch.setattr(
            _sparsetools, "csr_matvec", lambda *a: calls.append(1) or real(*a)
        )
        assert fockspace._sparsetools() is _sparsetools
        mat = fockspace._CSR(ref.indptr, ref.indices, ref.data)
        assert _same_bits(mat @ v, want)
        assert calls == [1]
        assert private not in sys.modules
