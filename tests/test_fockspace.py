"""Composite Hilbert-space layouts and canonical sparse operators."""

import numpy as np
import pytest

from dispersive_nphoton.errors import CapacityError
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
