"""Dense/Lanczos solvers, labeling, photon filtering, and level tracking."""

import importlib.machinery
import inspect
import pickle
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee
from test_models import ALL_BUILDERS, pair, two_mode

from dispersive_nphoton import eigensolve
from dispersive_nphoton.analytic import (
    DispersiveParams,
    critical_photon_number,
    dispersive_level,
)
from dispersive_nphoton.combinatorics import stirling2
from dispersive_nphoton.dynamics import coherent_state, propagator
from dispersive_nphoton.eigensolve import (
    DENSE_LIMIT,
    LevelCurve,
    SpectrumResult,
    eigh_dense,
    eigs_lowest,
    filter_by_mean_photon,
    label_by_overlap,
    solve_lowest,
    track_levels,
)
from dispersive_nphoton.errors import (
    CapacityError,
    ConfigError,
    DispersiveNphotonError,
    IterationLimitError,
    PropagationError,
    ResonanceError,
    SolverError,
    TruncationError,
)
from dispersive_nphoton.fockspace import (
    _CSR,
    HilbertLayout,
    SparseOperator,
    _csr_one_norm,
    destroy,
    embed,
    number,
    pauli,
    qubit_oscillator_layout,
)
from dispersive_nphoton.models import (
    MODELS_BY_TOPOLOGY,
    OscillatorSpec,
    QubitSpec,
    StabilizerSpec,
    SystemSpec,
    build_model,
)


def single(omega_q=2.5, n=2, g=0.02, trunc=30, stabilizer=None):
    return SystemSpec(
        topology="single",
        qubits=(QubitSpec(omega_q=omega_q, n=n, g=g),),
        oscillators=(OscillatorSpec(omega=1.0, trunc=trunc),),
        stabilizer=stabilizer,
    )


def identical_pair(trunc=300):
    return SystemSpec(
        topology="multiqubit",
        qubits=(QubitSpec(omega_q=8.0, n=2, g=0.02),) * 2,
        oscillators=(OscillatorSpec(omega=1.0, trunc=trunc),),
    )


def residuals(h, result):
    dense = h.toarray()
    return np.linalg.norm(
        dense @ result.states - result.states * result.energies, axis=0
    )


class TestDense:
    def test_spectrum_properties(self):
        h = build_model(single(trunc=24), "nR")
        res = eigh_dense(h)
        assert res.k == 48
        assert np.all(np.diff(res.energies) >= 0)
        scale = max(1.0, np.max(np.abs(res.energies)))
        assert residuals(h, res).max() <= 1e-12 * scale
        gram = res.states.conj().T @ res.states
        assert np.max(np.abs(gram - np.eye(48))) <= 1e-12
        assert res.mean_photons is not None
        assert np.all(res.mean_photons >= -1e-12)

    def test_energies_only(self):
        res = eigh_dense(build_model(single(trunc=10), "nR"), want_states=False)
        assert res.states is None and res.mean_photons is None
        with pytest.raises(ValueError):
            label_by_overlap(res)

    def test_requires_certified_hermitian(self):
        layout = HilbertLayout((("qubit", 2),))
        lop = SparseOperator.from_dense(layout, [[0.0, 1.0], [0.0, 0.0]])
        assert not lop.hermitian
        with pytest.raises(ValueError):
            eigh_dense(lop)
        with pytest.raises(ValueError):
            eigs_lowest(lop, 1)

    def test_dense_limit(self):
        h = build_model(single(trunc=2049), "nR")  # dim 4098, blocks of ~1025
        with pytest.raises(CapacityError):
            eigh_dense(h)
        assert DENSE_LIMIT == 4096


class TestLanczos:
    def test_matches_dense_reference(self):
        h = build_model(single(omega_q=3.1, n=3, g=0.05, trunc=80), "nR")
        dense = eigh_dense(h, want_states=False)
        low = eigs_lowest(h, 10)
        scale = max(1.0, abs(dense.energies[0]))
        assert np.max(np.abs(low.energies - dense.energies[:10])) <= 1e-9 * scale
        assert residuals(h, low).max() <= 1e-8 * max(1.0, h.one_norm())

    @staticmethod
    def _spy_runs(monkeypatch):
        """Record ``(steps asked, steps taken, broke down)`` of every call of
        :func:`eigensolve._lanczos_run`."""
        runs, real = [], eigensolve._lanczos_run

        def spy(mat, basis, alphas, betas, steps, floor, shift):
            w = real(mat, basis, alphas, betas, steps, floor, shift)
            runs.append((steps, len(alphas), betas[-1] <= floor))
            return w

        monkeypatch.setattr(eigensolve, "_lanczos_run", spy)
        return runs

    @staticmethod
    def _first_draw(monkeypatch, start):
        """Make ``start`` the first draw of every block's generator; the
        later draws are those of ``default_rng(0)``."""
        real = np.random.default_rng

        def default_rng(seed):
            gen, first = real(seed), [np.asarray(start, dtype=float)]

            def standard_normal(n):
                return first.pop() if first else gen.standard_normal(n)

            return SimpleNamespace(standard_normal=standard_normal)

        monkeypatch.setattr(np.random, "default_rng", default_rng)

    def test_breakdown_restart_finds_other_invariant_subspace(self, monkeypatch):
        # sigma_x (x) 1: four blocks of two states.  The all-ones start of
        # each is an exact +1 eigenvector, so the first Krylov step breaks
        # down having seen only half the block; the restart must still reach
        # the -1 branch.
        layout = qubit_oscillator_layout(1, [4])
        h = embed(layout, [(0, pauli("x"))])
        self._first_draw(monkeypatch, np.ones(2))
        runs = self._spy_runs(monkeypatch)
        res = eigs_lowest(h, 2)
        np.testing.assert_allclose(res.energies, [-1.0, -1.0], atol=1e-12)
        assert runs[0::2] == [(2, 1, True)] * 4

    def test_degenerate_diagonal_via_restarts(self, monkeypatch):
        # One connected block, the 6-cycle with hopping -1: its levels -2,
        # -1, -1, 1, 1, 2 hold two degenerate pairs, so one start spans at
        # most 4 of them.  The recursion breaks down at step 4, and the
        # restart finds the second copy of -1.
        full = -(np.roll(np.eye(6), 1, axis=1) + np.roll(np.eye(6), -1, axis=1))
        h = SparseOperator.from_dense(qubit_oscillator_layout(1, [3]), full)
        runs = self._spy_runs(monkeypatch)
        res = eigs_lowest(h, 4)
        np.testing.assert_allclose(res.energies, [-2, -1, -1, 1], atol=1e-12)
        assert runs[0][1:] == (4, True)

    @staticmethod
    def _paired_path(pairs):
        # Pairs (2j, 2j + 1), each linked by 3.0; each half carries the same
        # path with unequal hoppings and there is no diagonal, so both rows of
        # a pair sum in the same order.  From the all-ones start the
        # recursion stays exactly symmetric under the swap of the halves, and
        # it breaks down at step ``pairs``.
        dim = 2 * pairs
        full = np.zeros((dim, dim))
        for j in range(pairs - 1):
            for a in (2 * j, 2 * j + 1):
                full[a, a + 2] = full[a + 2, a] = 1.0 + 0.1 * j
        for a in range(0, dim, 2):
            full[a, a + 1] = full[a + 1, a] = 3.0
        h = SparseOperator.from_dense(qubit_oscillator_layout(0, (dim,)), full)
        basis = np.empty((dim, pairs), dtype=complex)
        basis[:, 0] = 1.0 / np.sqrt(dim)
        alphas, betas = [], []
        eigensolve._lanczos_run(h.entries, basis, alphas, betas, pairs, 0.0, 0.0)
        assert len(alphas) == pairs
        assert min(betas[:-1]) > 0.1 and betas[-1] <= 1e-30
        return h, full

    def test_exact_breakdown_on_first_check(self, monkeypatch):
        # From the all-ones start the breakdown falls on step 20, the first
        # convergence check.  The restarted recursion has beta = 0 there;
        # checked at once, it would pass.
        h, full = self._paired_path(20)
        self._first_draw(monkeypatch, np.ones(40))
        runs = self._spy_runs(monkeypatch)
        res = eigs_lowest(h, 3)
        want = np.linalg.eigvalsh(full)[:3]
        assert np.max(np.abs(res.energies - want)) <= 1e-12
        assert runs[0] == (20, 20, True)

    def test_exact_breakdown_on_check_at_full_basis(self, monkeypatch):
        # At k = 27 the basis starts with 2k + 16 = 70 columns and the checks
        # fall at steps 29, 49 and 69, so from the all-ones start the
        # breakdown on step 69 restarts in the last column.  The restarted
        # recursion takes one step before its check, and the column after
        # that step needs a larger basis.
        h, full = self._paired_path(69)
        self._first_draw(monkeypatch, np.ones(138))
        runs = self._spy_runs(monkeypatch)
        res = eigs_lowest(h, 27)
        want = np.linalg.eigvalsh(full)[:27]
        assert np.max(np.abs(res.energies - want)) <= 1e-12
        assert runs[:3] == [(29, 29, False), (49, 49, False), (69, 69, True)]

    def test_iteration_limit_carries_partial(self):
        h = build_model(single(trunc=100), "nR")
        with pytest.raises(IterationLimitError) as exc_info:
            eigs_lowest(h, 6, max_iters=5)
        partial = exc_info.value.partial
        assert isinstance(partial, SpectrumResult)
        assert 1 <= partial.k <= 6

    #: A star of four states, a centre and three leaves: its levels are
    #: -sqrt(3), 0, 0 and sqrt(3).  Any one start spans at most three Krylov
    #: directions, one of them in the degenerate level 0, so the recursion
    #: breaks down at step 3 with one 0 missed.
    STAR = [[0.0, 1.0, 1.0, 1.0], [1.0, 0, 0, 0], [1.0, 0, 0, 0], [1.0, 0, 0, 0]]

    def test_breakdown_at_the_budget(self, monkeypatch):
        h = SparseOperator.from_dense(HilbertLayout((("oscillator", 4),)), self.STAR)
        runs = self._spy_runs(monkeypatch)
        with pytest.raises(IterationLimitError, match="within 3 iterations") as info:
            eigs_lowest(h, 3, max_iters=3)
        assert runs == [(3, 3, True)]
        partial = info.value.partial
        root3 = np.sqrt(3.0)
        np.testing.assert_allclose(partial.energies, [-root3, 0, root3], atol=1e-14)
        res = eigs_lowest(h, 3, max_iters=4)  # restarts and finds the other 0
        np.testing.assert_allclose(res.energies, [-root3, 0, 0], atol=1e-14)
        assert residuals(h, res).max() <= 1e-14

    def test_failed_restart_draw_is_not_converged(self, monkeypatch):
        # From the all-ones start the recursion spans the plane of -sqrt(3)
        # and sqrt(3) and breaks down at step 2.  The restart draw
        # (0, 1, 1, 1) lies in that plane and keeps none of its norm.  Two
        # steps fall short of the block's four states, so the run must not
        # report success.
        h = SparseOperator.from_dense(HilbertLayout((("oscillator", 4),)), self.STAR)
        draws = [np.array([0.0, 1, 1, 1]), np.ones(4)]
        monkeypatch.setattr(
            np.random,
            "default_rng",
            lambda seed: SimpleNamespace(standard_normal=lambda n: draws.pop()),
        )
        runs = self._spy_runs(monkeypatch)
        message = r"Lanczos lost a restart draw after 2 of 4 iterations in 1 of 1 "
        with pytest.raises(IterationLimitError, match=message) as info:
            eigs_lowest(h, 3)
        assert runs == [(4, 2, True)] and not draws
        root3 = np.sqrt(3.0)
        np.testing.assert_allclose(info.value.partial.energies, [-root3, root3])

    @pytest.mark.parametrize("method", ["lanczos", "auto"])
    def test_identical_qubits_dicke(self, monkeypatch, method):
        # The swap of two identical qubits commutes with nDicke, so a start
        # symmetric under it would never reach the antisymmetric levels.
        h = build_model(identical_pair(), "nDicke")
        dense = solve_lowest(h, 12, "dense")
        # Swap parity <psi|P|psi> of each level: some are antisymmetric.
        states = dense.states.reshape(2, 2, -1, 12)
        parity = np.einsum("abmk,bamk->k", states.conj(), states).real
        assert np.any(parity < -0.5)
        monkeypatch.setattr(eigensolve, "DENSE_LIMIT", 100)
        calls, lanczos = [], eigensolve._lanczos
        monkeypatch.setattr(
            eigensolve, "_lanczos", lambda *a: calls.append(1) or lanczos(*a)
        )
        res = solve_lowest(h, 12, method)
        assert calls
        assert np.max(np.abs(res.energies - dense.energies)) <= 1e-12

    def test_block_bits_do_not_depend_on_other_blocks(self, monkeypatch):
        # Each block draws from its own generator: the 90-state block gives
        # the same bits after the 20-state block as alone.
        h, small, _ = TestPerBlockPolicy._mixed_blocks()
        large = np.setdiff1d(np.arange(110), small)
        alone = SparseOperator.from_dense(
            qubit_oscillator_layout(0, (90,)), h.toarray()[np.ix_(large, large)]
        )
        runs, lanczos = [], eigensolve._lanczos

        def spy(mat, *args):
            runs.append((mat.shape[0], lanczos(mat, *args)))
            return runs[-1][1]

        monkeypatch.setattr(eigensolve, "_lanczos", spy)
        eigs_lowest(h, 6)
        eigs_lowest(alone, 6)
        assert [size for size, _ in runs] == [20, 90, 90]
        (vals, states, converged, _), (vals_alone, states_alone, *_) = (
            out for _, out in runs[1:]
        )
        assert converged
        assert np.array_equal(vals, vals_alone)
        assert np.array_equal(states, states_alone)

    @pytest.mark.xfail(
        strict=True,
        reason="an exact degeneracy inside one connected block: one start "
        "vector sees one copy of each level",
    )
    def test_degeneracy_inside_one_block(self):
        # The path of 10 states times the triangle of hopping 3: dim 30, 20
        # distinct levels, each of the 10 lowest doubly degenerate.  The run
        # converges on one copy of each before any breakdown.
        path = np.diag(np.ones(9), 1) + np.diag(np.ones(9), -1)
        triangle = 3.0 * (np.ones((3, 3)) - np.eye(3))
        full = np.kron(path, np.eye(3)) + np.kron(np.eye(10), triangle)
        h = SparseOperator.from_dense(HilbertLayout((("oscillator", 30),)), full)
        want = np.linalg.eigvalsh(full)[:3]
        assert np.max(np.abs(eigs_lowest(h, 3).energies - want)) <= 1e-9

    def test_zero_operator(self):
        layout = qubit_oscillator_layout(1, [5])
        res = eigs_lowest(SparseOperator.from_dense(layout, np.zeros((10, 10))), 3)
        np.testing.assert_array_equal(res.energies, np.zeros(3))
        assert res.states.shape == (10, 3)

    def test_k_range_validation(self):
        h = build_model(single(trunc=8), "nR")
        with pytest.raises(ValueError):
            eigs_lowest(h, 0)
        with pytest.raises(ValueError):
            eigs_lowest(h, 17)

    @pytest.mark.parametrize("max_iters", [0, -5])
    def test_rejects_max_iters_below_one(self, max_iters):
        h = build_model(single(trunc=100), "nR")
        with pytest.raises(ValueError, match="max_iters"):
            eigs_lowest(h, 6, max_iters=max_iters)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-10])
    def test_rejects_tol_not_finite_positive(self, tol):
        h = build_model(single(trunc=100), "nR")
        with pytest.raises(ValueError, match="tol"):
            eigs_lowest(h, 6, tol=tol)

    def test_bit_identical_reruns(self):
        h = build_model(
            single(
                omega_q=3.1,
                n=3,
                g=0.01,
                trunc=150,
                stabilizer=StabilizerSpec("number_power", 0.02),
            ),
            "nR",
        )
        a = eigs_lowest(h, 5)
        b = eigs_lowest(h, 5)
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.states, b.states)


class TestSolveLowest:
    @pytest.mark.parametrize("k", [1, 6, 40])
    def test_pair_count_and_methods_agree(self, k):
        h = build_model(single(omega_q=3.1, n=3, g=0.05, trunc=16), "nR")
        dense = solve_lowest(h, k, "dense")
        lanczos = solve_lowest(h, k, "lanczos")
        want = min(k, h.total_dim)
        for res in (dense, lanczos):
            assert res.k == want
            assert res.states.shape == (h.total_dim, want)
            assert res.mean_photons.shape == (want,)
        assert np.max(np.abs(dense.energies - lanczos.energies)) <= 1e-9
        auto = solve_lowest(h, k)
        assert np.array_equal(auto.energies, dense.energies)

    @pytest.mark.parametrize("method", ["auto", "dense", "lanczos"])
    @pytest.mark.parametrize("k", [0, -3])
    def test_rejects_k_below_one(self, method, k):
        h = build_model(single(trunc=8), "nR")
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            solve_lowest(h, k, method)

    @pytest.mark.parametrize("method", ["auto", "dense", "lanczos"])
    @pytest.mark.parametrize("max_iters", [0, -5])
    def test_rejects_max_iters_below_one(self, method, max_iters):
        # The budget is no parameter of solve_lowest; _solve_blocks, which
        # eigs_lowest sets it through, refuses it below one by any method.
        assert list(inspect.signature(solve_lowest).parameters) == ["h", "k", "method"]
        h = build_model(single(trunc=100), "nR")
        with pytest.raises(ValueError, match="max_iters"):
            eigensolve._solve_blocks(h, 6, method, max_iters=max_iters)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown"):
            solve_lowest(build_model(single(trunc=8), "nR"), 2, "arnoldi")

    @pytest.mark.parametrize("method", ["auto", "dense", "lanczos"])
    def test_rejects_uncertified_operator(self, method):
        layout = HilbertLayout((("qubit", 2),))
        lop = SparseOperator.from_dense(layout, [[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="certified-hermitian"):
            solve_lowest(lop, 1, method)

    @pytest.mark.parametrize("method", ["auto", "dense"])
    def test_dense_path_returns_owned_arrays(self, method):
        # A view would keep the whole dim x dim eigenvector matrix alive.
        h = build_model(single(trunc=300), "nR")
        res = solve_lowest(h, 4, method)
        assert res.states.shape == (600, 4)
        for array in (res.energies, res.states, res.mean_photons):
            assert array.base is None
        assert res.states.flags.c_contiguous


class TestDegeneracyAcrossBlocks:
    """Exact degeneracies between blocks, which one Lanczos run missed."""

    SOLVERS = [
        ("auto", lambda h, k: solve_lowest(h, k, "auto")),
        ("dense", lambda h, k: solve_lowest(h, k, "dense")),
        ("lanczos", lambda h, k: solve_lowest(h, k, "lanczos")),
        ("eigs_lowest", eigs_lowest),
    ]

    @pytest.mark.parametrize("name, solve", SOLVERS, ids=[s[0] for s in SOLVERS])
    def test_uncoupled_ladder(self, name, solve):
        # g = 0: |e,m> and |g,m+2> share the energy m + 1.
        h = build_model(single(omega_q=2.0, n=1, g=0.0, trunc=300), "nR")
        res = solve(h, 10)
        np.testing.assert_allclose(
            res.energies, [-1, 0, 1, 1, 2, 2, 3, 3, 4, 4], atol=1e-12
        )

    @pytest.mark.parametrize("name, solve", SOLVERS, ids=[s[0] for s in SOLVERS])
    def test_identical_qubits(self, name, solve):
        h = build_model(identical_pair(), "nTC")
        want = eigh_dense(h, want_states=False).energies[:10]
        assert np.max(np.abs(solve(h, 10).energies - want)) <= 1e-9

    @pytest.mark.parametrize("name, solve", SOLVERS, ids=[s[0] for s in SOLVERS])
    def test_ties_go_to_the_block_with_the_lowest_index(self, name, solve):
        # Blocks {0, 3} and {1, 2} carry the same 2 x 2 matrix, so each level
        # is doubly degenerate.  The block holding index 0 comes first,
        # although its highest index is the larger of the two.
        full = np.zeros((4, 4))
        for pair in ([0, 3], [1, 2]):
            full[np.ix_(pair, pair)] = [[0.5, 0.25], [0.25, -1.0]]
        h = SparseOperator.from_dense(HilbertLayout((("oscillator", 4),)), full)
        res = solve(h, 4)
        np.testing.assert_array_equal(res.energies[0::2], res.energies[1::2])
        assert np.all(res.states[[1, 2]][:, 0::2] == 0)
        assert np.all(res.states[[0, 3]][:, 1::2] == 0)


def _block_labels(h):
    """Block of each basis index: components of the nonzero pattern."""
    return connected_components(h.entries != 0, directed=False)[1]


#: Every builder input, plus one with blocks above the batched size (2 x 100).
BLOCK_INPUTS = ALL_BUILDERS + [
    lambda: build_model(single(omega_q=3.1, n=3, g=0.05, trunc=100), "full_nR")
]


class TestBlockSolver:
    @pytest.mark.parametrize("method", ["auto", "dense"])
    @pytest.mark.parametrize("k", [5, None])
    @pytest.mark.parametrize("make", BLOCK_INPUTS)
    def test_exact_block_properties(self, make, k, method):
        h = make()
        dim = h.total_dim
        k = dim if k is None else k
        res = solve_lowest(h, k, method)
        hmat = h.toarray()
        want = np.linalg.eigvalsh(hmat)[:k]
        assert res.k == k
        assert np.all(
            np.abs(res.energies - want) <= 1e-12 * np.maximum(1.0, np.abs(want))
        )
        scale = max(1.0, float(np.abs(res.energies).max()))
        assert residuals(h, res).max() <= 1e-12 * scale
        gram = res.states.conj().T @ res.states
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-12
        labels = _block_labels(h)
        for column in res.states.T:
            assert len(set(labels[np.flatnonzero(column)])) == 1
        again = solve_lowest(h, k, method)
        assert np.array_equal(res.energies, again.energies)
        assert np.array_equal(res.states, again.states)
        for array in (res.energies, res.states, res.mean_photons):
            assert array.base is None
        assert res.states.flags.c_contiguous

    @pytest.mark.parametrize("method", ["auto", "lanczos"])
    @pytest.mark.parametrize("make", BLOCK_INPUTS)
    def test_records_carry_their_basis_rows(self, make, method):
        # Each record's rows are its blocks' basis indices: the eigenpairs
        # hold on the sub-matrix that those rows cut out.
        h = make()
        mat, members, starts = eigensolve._blocks(h)
        parts, failed = eigensolve._block_eigh(mat, members, starts, 5, method)
        assert failed == []
        dense, seen = h.toarray(), []
        for rows, energies, vectors in parts:
            assert vectors.shape == rows.shape + energies.shape[1:]
            for row, e, v in zip(rows, energies, vectors):
                seen.append(row.tolist())
                resid = dense[np.ix_(row, row)] @ v - v * e
                assert np.abs(resid).max() <= 1e-8 * max(1.0, h.one_norm())
        blocks = [members[a:b].tolist() for a, b in zip(starts[:-1], starts[1:])]
        assert sorted(seen) == sorted(blocks)

    def test_failures_record_the_lowest_basis_index(self):
        # Blocks {0, 1} and {2, 3}: one Lanczos step converges in neither.
        pair = [[0.0, 1.0], [1.0, 2.0]]
        full = scipy.linalg.block_diag(pair, pair)
        h = SparseOperator.from_dense(HilbertLayout((("oscillator", 4),)), full)
        mat, members, starts = eigensolve._blocks(h)
        _, failed = eigensolve._block_eigh(
            mat, members, starts, 1, "lanczos", max_iters=1
        )
        assert failed == [(0, 2, 1, 1), (2, 2, 1, 1)]

    @pytest.mark.parametrize("method", ["lanczos", "auto", "dense"])
    def test_two_identical_blocks(self, method):
        # Two copies of one random Hermitian block on interleaved indices:
        # every level is exactly doubly degenerate, and each pair is
        # ordered by block (the copy holding index 0 first).
        rng = np.random.default_rng(7)
        s = 90
        a = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
        a = a + a.conj().T
        full = sp.block_diag([a, a]).toarray()
        perm = np.argsort(np.r_[np.arange(s) * 2, np.arange(s) * 2 + 1])
        full = full[np.ix_(perm, perm)]
        layout = qubit_oscillator_layout(0, (2 * s,))
        h = SparseOperator.from_dense(layout, full)
        assert h.hermitian
        k = 12
        res = solve_lowest(h, k, method)
        np.testing.assert_array_equal(res.energies[0::2], res.energies[1::2])
        want = np.linalg.eigvalsh(a)[: k // 2]
        assert np.max(np.abs(res.energies[0::2] - want)) <= 1e-9 * s
        assert np.all(res.states[1::2, 0::2] == 0)  # first copy: even indices
        assert np.all(res.states[0::2, 1::2] == 0)
        np.testing.assert_array_equal(res.states[0::2, 0::2], res.states[1::2, 1::2])
        assert residuals(h, res).max() <= 1e-8 * h.one_norm()


def _csgraph_blocks(mat):
    """``(members, starts)`` of the stored-entry pattern, by SciPy's
    ``connected_components``: the oracle of :func:`eigensolve._blocks`."""
    pattern = sp.csr_matrix(
        (np.ones(mat.nnz), mat.indices, mat.indptr), shape=mat.shape
    )
    n_blocks, labels = connected_components(pattern, directed=False)
    members = np.argsort(labels, kind="stable")
    return members, np.searchsorted(labels[members], np.arange(n_blocks + 1))


def _assert_blocks_match(mat):
    """``_blocks`` on a raw CSR matrix (stored zeros and all) agrees with
    the oracle exactly, dtype of the indices aside."""
    _, members, starts = eigensolve._blocks(SimpleNamespace(entries=mat.tocsr()))
    want_members, want_starts = _csgraph_blocks(mat.tocsr())
    np.testing.assert_array_equal(members, want_members)
    np.testing.assert_array_equal(starts, want_starts)


def _random_pattern(rng, dim, per_row):
    """About ``per_row`` random entries per row, anywhere in the matrix."""
    nnz = int(per_row * dim)
    rows, cols = rng.integers(0, dim, size=(2, nnz))
    return sp.csr_matrix((rng.normal(size=nnz), (rows, cols)), shape=(dim, dim))


def _scrambled_chain(dim, seed):
    """A path through all ``dim`` states in a random order."""
    perm = np.random.default_rng(seed).permutation(dim)
    rows = np.r_[perm[:-1], perm[1:]]
    cols = np.r_[perm[1:], perm[:-1]]
    return sp.csr_matrix((np.ones(2 * dim - 2), (rows, cols)), shape=(dim, dim))


class TestBlockFinder:
    """:func:`eigensolve._blocks` labels states exactly as SciPy's
    ``connected_components`` of the stored-entry pattern does."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_symmetric_patterns(self, seed):
        rng = np.random.default_rng(seed)
        mat = _random_pattern(rng, int(rng.integers(2, 400)), rng.uniform(0.1, 1.5))
        _assert_blocks_match(mat + mat.T)

    @pytest.mark.parametrize("seed", range(4))
    def test_one_sided_entries_link_both_ways(self, seed):
        rng = np.random.default_rng(100 + seed)
        _assert_blocks_match(_random_pattern(rng, 300, 1.5))

    def test_stored_zeros_empty_rows_and_isolated_states(self):
        # 0-3 linked only through a stored zero, 5 an isolated state with a
        # diagonal entry, 6 an empty row, 4-7 a pair in the middle.
        rows = np.array([0, 3, 5, 4, 7, 1, 2])
        cols = np.array([3, 0, 5, 7, 4, 2, 1])
        data = np.array([0.0, 0.0, 2.0, 1.0, 1.0, 0.5, 0.5])
        mat = sp.csr_matrix((data, (rows, cols)), shape=(8, 8))
        assert mat.nnz == 7  # the zeros are stored
        _assert_blocks_match(mat)
        _, members, starts = eigensolve._blocks(SimpleNamespace(entries=mat))
        blocks = [members[a:b].tolist() for a, b in zip(starts[:-1], starts[1:])]
        assert blocks == [[0, 3], [1, 2], [4, 7], [5], [6]]

    @pytest.mark.parametrize(
        "mat",
        [
            sp.csr_matrix((1, 1)),
            sp.csr_matrix(np.array([[1.5]])),
            sp.csr_matrix((40, 40)),
            sp.csr_matrix(np.array([[0, 1j, 0], [-1j, 0, 0], [0, 0, 2.0]])),
        ],
        ids=["dim-1-empty", "dim-1", "all-zero", "complex"],
    )
    def test_degenerate_and_complex_inputs(self, mat):
        _assert_blocks_match(mat)

    def test_scrambled_chain(self):
        _assert_blocks_match(_scrambled_chain(20000, seed=3))

    @pytest.mark.parametrize(
        "topology, model",
        [(t, m) for t, models in MODELS_BY_TOPOLOGY.items() for m in models],
    )
    @pytest.mark.parametrize("regime", ["nonrwa", "rwa"])
    def test_every_model(self, topology, model, regime):
        spec = {
            "single": single(trunc=12),
            "multiqubit": pair(trunc=8),
            "multimode": two_mode(trunc=5),
        }[topology]
        _assert_blocks_match(build_model(spec, model, regime).entries)


def _stabilized_n3(trunc=2100):
    """The benchmark's stabilized n=3 ``nR``: 6 chain blocks of trunc/3."""
    stab = StabilizerSpec(form="number_power", eta=0.02)
    return build_model(
        single(omega_q=3.1, n=3, g=0.0175, trunc=trunc, stabilizer=stab), "nR"
    )


def _per_block_eigvalsh(h):
    """Ascending eigenvalues of ``h``, one dense solve per block."""
    labels = _block_labels(h)
    mat = h.entries.tocsr()
    return np.sort(
        np.concatenate(
            [
                np.linalg.eigvalsh(mat[idx][:, idx].toarray())
                for idx in (np.flatnonzero(labels == b) for b in np.unique(labels))
            ]
        )
    )


def _forbid_dense_drivers(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense eigensolver called")

    monkeypatch.setattr(scipy.linalg, "eigh", refuse)
    monkeypatch.setattr(eigensolve, "_lowest_eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)


class TestChainBlocks:
    """Blocks that are chains (tridiagonal in reverse Cuthill-McKee order,
    as every ``nR`` parity block is) take the tridiagonal solver."""

    @pytest.mark.parametrize("method", ["auto", "dense"])
    def test_stabilized_n3_lowest(self, method):
        h = _stabilized_n3()
        k = 8
        res = solve_lowest(h, k, method)
        want = _per_block_eigvalsh(h)[:k]
        assert res.k == k
        assert np.all(
            np.abs(res.energies - want) <= 1e-12 * np.maximum(1.0, np.abs(want))
        )
        scale = max(1.0, float(np.abs(res.energies).max()))
        resid = h.entries @ res.states - res.states * res.energies
        assert np.linalg.norm(resid, axis=0).max() <= 1e-12 * scale
        gram = res.states.conj().T @ res.states
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-12 * scale
        labels = _block_labels(h)
        for column in res.states.T:
            assert len(set(labels[np.flatnonzero(column)])) == 1
        again = solve_lowest(h, k, method)
        assert np.array_equal(res.energies, again.energies)
        assert np.array_equal(res.states, again.states)
        for array in (res.energies, res.states, res.mean_photons):
            assert array.base is None
        assert res.states.flags.c_contiguous

    @pytest.mark.parametrize("want_states", [True, False])
    def test_full_spectrum_of_two_chains(self, want_states):
        h = build_model(single(omega_q=2.0, n=1, g=0.05, trunc=400), "nR")
        assert sorted(np.bincount(_block_labels(h))) == [400, 400]
        res = eigh_dense(h, want_states=want_states)
        want = np.linalg.eigvalsh(h.toarray())
        assert np.all(
            np.abs(res.energies - want) <= 1e-12 * np.maximum(1.0, np.abs(want))
        )
        if want_states:
            scale = max(1.0, float(np.abs(res.energies).max()))
            assert residuals(h, res).max() <= 1e-12 * scale
            gram = res.states.conj().T @ res.states
            assert np.max(np.abs(gram - np.eye(h.total_dim))) <= 1e-12
        else:
            assert res.states is None

    @pytest.mark.parametrize("k", [5, None])
    def test_chains_need_no_dense_driver(self, monkeypatch, k):
        # omega_q = 2 puts an exact zero on the diagonal (the state |g,1>).
        h = build_model(single(omega_q=2.0, n=1, g=0.05, trunc=400), "nR")
        want = _per_block_eigvalsh(h)
        k = h.total_dim if k is None else k
        _forbid_dense_drivers(monkeypatch)
        res = solve_lowest(h, k, "dense")
        assert np.max(np.abs(res.energies - want[:k])) <= 1e-12 * np.abs(want).max()
        stabilized = solve_lowest(_stabilized_n3(trunc=300), 8, "auto")
        assert stabilized.k == 8
        assert eigh_dense(h, want_states=False).k == h.total_dim

    def test_wider_band_takes_dense_driver(self, monkeypatch):
        h = build_model(single(omega_q=3.1, n=3, g=0.05, trunc=100), "full_nR")
        assert sorted(np.bincount(_block_labels(h))) == [100, 100]
        calls = []
        eigh = eigensolve._lowest_eigh

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(eigensolve, "_lowest_eigh", spy)
        res = solve_lowest(h, 5, "dense")
        assert calls == [(100, 100), (100, 100)]
        want = np.linalg.eigvalsh(h.toarray())[:5]
        assert np.max(np.abs(res.energies - want)) <= 1e-12 * np.abs(want).max()


def _nR_chains(n, trunc):
    """``nR`` at ``trunc``: 2n chain blocks, of unequal sizes unless 2n
    divides ``2 trunc``."""
    return build_model(single(omega_q=n + 0.5, n=n, g=0.05, trunc=trunc), "nR")


def _per_chain_lowest(h, k):
    """Lowest ``k`` pairs of ``h``, whose blocks are chains or single
    states, with every block solved on its own, by
    ``_tridiagonal_eigh`` for its lowest ``min(k, s)``, and merged by
    (energy, lowest basis index, index within the chain): the solve of each
    chain before chains were solved together."""
    mat, members, starts = eigensolve._blocks(h)
    energies, lowest, index, columns = [], [], [], []
    for a, b in zip(starts[:-1], starts[1:]):
        idx = members[a:b]
        sub = eigensolve._submatrix(mat, idx)
        order, diagonal, off_diagonal = (
            ([0], sub.diagonal(), []) if b - a == 1 else _chain_of(sub)
        )
        w, v = eigensolve._tridiagonal_eigh(diagonal, off_diagonal, min(k, b - a))
        states = np.zeros((h.total_dim, len(w)))
        states[idx[order]] = v
        energies.append(w)
        lowest.append(np.full(len(w), idx[0]))
        index.append(np.arange(len(w)))
        columns.append(states)
    energies, lowest, index = map(np.concatenate, (energies, lowest, index))
    keep = np.lexsort((index, lowest, energies))[:k]
    return energies[keep], np.hstack(columns)[:, keep]


class TestJointChains:
    """Below every chain state, the chains' lowest ``k`` come from one
    ``dstebz`` call on all chains end to end; full spectra stay per chain."""

    @staticmethod
    def _ulp_norm(h):
        return np.finfo(float).eps * h.one_norm()

    @pytest.mark.parametrize("k", [1, 5, 9, 170, 500])
    @pytest.mark.parametrize("n, trunc", [(2, 301), (3, 302)])
    def test_matches_per_chain_solves(self, n, trunc, k):
        # Chains of 150/151 (n=2) and 100/101 states (n=3): k=5 and 9 span
        # several chains, 170 and 500 exceed one chain but not the total.
        h = _nR_chains(n, trunc)
        sizes = np.bincount(_block_labels(h))
        assert len(sizes) == 2 * n and len(set(sizes)) == 2
        assert k < h.total_dim
        res = solve_lowest(h, k)
        want, want_states = _per_chain_lowest(h, k)
        assert np.abs(res.energies - want).max() <= 4 * self._ulp_norm(h)
        labels = _block_labels(h)
        chain_of = [labels[np.flatnonzero(column)[0]] for column in res.states.T]
        assert chain_of == [
            labels[np.flatnonzero(column)[0]] for column in want_states.T
        ]
        if k > 1:
            assert len(set(chain_of)) > 1
        # Each state matches its per-chain counterpart up to sign.
        signs = np.sign(np.sum(res.states * want_states, axis=0))
        assert np.abs(res.states - want_states * signs).max() <= 1e-10

    @pytest.mark.parametrize("k", [1, 5, 170])
    def test_energies_without_states(self, k):
        h = _nR_chains(3, 302)
        with_states = solve_lowest(h, k)
        mat, members, starts = eigensolve._blocks(h)
        parts, failed = eigensolve._block_eigh(
            mat, members, starts, k, "auto", want_states=False
        )
        assert failed == [] and all(vectors is None for _, _, vectors in parts)
        result = eigensolve._merge_lowest(h, parts, k, mat.data.dtype, False)
        assert result.states is None and result.mean_photons is None
        assert np.array_equal(result.energies, with_states.energies)

    @pytest.mark.parametrize("k", [1, 6, 40, 170])
    @pytest.mark.parametrize("n, trunc", [(2, 301), (3, 302)])
    def test_residuals_and_orthonormality(self, n, trunc, k):
        # At criterion 8's bounds for exact solvers.
        h = _nR_chains(n, trunc)
        res = solve_lowest(h, k)
        scale = max(1.0, float(np.abs(res.energies).max()))
        resid = h.toarray() @ res.states - res.states * res.energies
        assert np.abs(resid).max() / scale <= 1e-12
        gram = res.states.T @ res.states
        assert np.abs(gram - np.eye(k)).max() <= 1e-12

    def test_chains_without_kept_levels_drop_out(self):
        h = _nR_chains(3, 302)
        mat, members, starts = eigensolve._blocks(h)
        parts, _ = eigensolve._block_eigh(mat, members, starts, 2, "auto")
        assert sum(energies.size for _, energies, _ in parts) == 2
        assert len(parts) <= 2
        for rows, energies, vectors in parts:
            assert rows.shape[0] == energies.shape[0] == vectors.shape[0] == 1
            assert vectors.shape[1:] == (rows.shape[1], energies.shape[1])

    def test_one_bisection_for_all_chains(self, monkeypatch):
        h = _nR_chains(3, 302)
        calls = self._count_drivers(monkeypatch)
        solve_lowest(h, 8)
        assert calls["dstebz"] == 1 and calls["dstevd"] == 0
        # One dstein per chain that keeps a level.
        assert 1 <= calls["dstein"] <= 6

    @pytest.mark.parametrize("want_states", [True, False])
    def test_full_spectra_stay_per_chain(self, monkeypatch, want_states):
        h = _nR_chains(2, 301)
        calls = self._count_drivers(monkeypatch)
        res = eigh_dense(h, want_states=want_states)
        assert calls == {"dstevd": 4, "dstebz": 0, "dstein": 0}
        calls.update(dstevd=0)
        assert solve_lowest(h, h.total_dim).k == res.k == h.total_dim
        assert calls == {"dstevd": 4, "dstebz": 0, "dstein": 0}

    @staticmethod
    def _count_drivers(monkeypatch):
        """Count the tridiagonal LAPACK calls of every later solve."""
        lapack = eigensolve._lapack()
        calls = dict.fromkeys(("dstevd", "dstebz", "dstein"), 0)

        def counted(name):
            def call(*args, **kwargs):
                calls[name] += 1
                return getattr(lapack, name)(*args, **kwargs)

            return call

        proxy = SimpleNamespace(**{name: counted(name) for name in calls})
        monkeypatch.setattr(eigensolve, "_lapack", lambda: proxy)
        return calls

    @pytest.mark.parametrize("k", [1, 2, 7, 40, 199])
    @pytest.mark.parametrize("gap", [0, 37])
    def test_tied_chains_at_two_offsets(self, gap, k):
        # One tridiagonal placed twice, at rows 10.. and 110 + gap..: every
        # level ties across the copies.  Each tied pair has the same energy
        # bits and the same state bits on its copy's rows, the lower copy
        # first; a cut through a pair keeps the lower copy, as the merge of
        # per-chain solves keeps it.
        rng = np.random.default_rng(5)
        s = 100
        t = np.diag(rng.normal(size=s))
        t += np.diag(off := rng.normal(size=s - 1), 1) + np.diag(off, -1)
        dim = 2 * s + 50
        lower, upper = np.arange(s) + 10, np.arange(s) + 10 + s + gap
        full = np.diag(100.0 + np.arange(dim))
        full[np.ix_(lower, lower)] = t
        full[np.ix_(upper, upper)] = t
        h = SparseOperator.from_dense(HilbertLayout((("oscillator", dim),)), full)
        res = solve_lowest(h, k)
        first, second = res.states[:, 0::2], res.states[:, 1::2]
        pairs = second.shape[1]
        assert np.array_equal(res.energies[0::2][:pairs], res.energies[1::2])
        assert np.array_equal(first[lower][:, :pairs], second[upper])
        assert not first[upper].any() and not second[lower].any()
        want, want_states = _per_chain_lowest(h, k)
        assert np.abs(res.energies - want).max() <= 4 * self._ulp_norm(h)
        signs = np.sign(np.sum(res.states * want_states, axis=0))
        assert np.abs(res.states - want_states * signs).max() <= 1e-10


def _chain_of(sub):
    """:func:`eigensolve._chain` of a connected block given as sorted CSR."""
    rows = np.repeat(np.arange(sub.shape[0]), np.diff(sub.indptr))
    return eigensolve._chain(rows, sub.indices, sub.data, sub.shape[0])


def _block_matrices(h):
    """SciPy CSR matrix of every block of ``h``, in block order."""
    mat, members, starts = eigensolve._blocks(h)
    blocks = [
        eigensolve._submatrix(mat, members[a:b])
        for a, b in zip(starts[:-1], starts[1:])
    ]
    return [
        sp.csr_matrix((sub.data, sub.indices, sub.indptr), shape=sub.shape)
        for sub in blocks
    ]


def _random_path(seed, dim):
    """Real symmetric CSR path through ``dim`` states in a random order, with
    random links and a random diagonal, about 30% of it exactly zero."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dim)
    links = rng.uniform(0.5, 2.0, dim - 1) * rng.choice([-1.0, 1.0], dim - 1)
    diagonal = rng.normal(size=dim) * (rng.random(dim) >= 0.3)
    dense = np.diag(diagonal)
    dense[perm[:-1], perm[1:]] = links
    dense[perm[1:], perm[:-1]] = links
    return sp.csr_matrix(dense)


class TestChainOrder:
    """:func:`eigensolve._chain` orders a chain as SciPy's reverse
    Cuthill-McKee ordering of its strict upper triangle does: the direction
    of a chain shows in the last bits of its eigenpairs."""

    @staticmethod
    def _assert_rcm_order(sub):
        chain = _chain_of(sub)
        assert chain is not None
        order = reverse_cuthill_mckee(sp.triu(sub, 1, format="csr"))
        assert np.array_equal(chain[0], order)
        permuted = sub[order][:, order]
        assert np.array_equal(chain[1], permuted.diagonal())
        assert np.array_equal(chain[2], permuted.diagonal(1))

    @pytest.mark.parametrize("stabilized", [False, True], ids=["bare", "stabilized"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_nR_block(self, n, stabilized):
        stab = StabilizerSpec(form="number_power", eta=0.02) if stabilized else None
        spec = single(omega_q=n + 0.1, n=n, g=0.03, trunc=240, stabilizer=stab)
        blocks = _block_matrices(build_model(spec, "nR"))
        assert len(blocks) == 2 * n
        for sub in blocks:
            self._assert_rcm_order(sub)

    @pytest.mark.parametrize("seed", range(16))
    def test_shuffled_random_paths(self, seed):
        dim = int(np.random.default_rng(seed).integers(2, 400))
        self._assert_rcm_order(_random_path(seed, dim))

    @pytest.mark.parametrize("shape", ["ring", "degree-3", "chord"])
    def test_non_chains_take_dense_driver(self, monkeypatch, shape):
        # 100 states in a random order: a closed ring; a path whose last
        # state hangs off the middle (s - 1 links, one state of degree 3);
        # a path plus one chord.
        dim = 100
        perm = np.random.default_rng(5).permutation(dim)
        ends = [(perm[i], perm[i + 1]) for i in range(dim - 1)]
        if shape == "ring":
            ends.append((perm[-1], perm[0]))
        elif shape == "degree-3":
            ends[-1] = (perm[50], perm[-1])
        else:
            ends.append((perm[10], perm[40]))
        dense = np.diag(np.linspace(-1.0, 1.0, dim))
        for i, (a, b) in enumerate(ends):
            dense[a, b] = dense[b, a] = 0.3 + 0.01 * i
        h = SparseOperator.from_dense(HilbertLayout((("oscillator", dim),)), dense)
        assert _chain_of(_block_matrices(h)[0]) is None
        calls = []
        eigh = eigensolve._lowest_eigh

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(eigensolve, "_lowest_eigh", spy)
        res = solve_lowest(h, 5, "auto")
        assert calls == [(dim, dim)]
        want = np.linalg.eigvalsh(dense)[:5]
        assert np.max(np.abs(res.energies - want)) <= 1e-12 * np.abs(want).max()


def _same_bits(a, b):
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))


class TestSparseKernels:
    """The NumPy CSR kernels give SciPy's bits on every model: each row of
    a product and each column of the 1-norm is summed in storage order.
    This keeps the CLI output unchanged."""

    @staticmethod
    def _vectors(dim, seed):
        rng = np.random.default_rng(seed)
        real = rng.normal(size=dim)
        return real, real + 1j * rng.normal(size=dim)

    @pytest.mark.parametrize("make", ALL_BUILDERS)
    def test_operator(self, make):
        h = make()
        for v in self._vectors(h.total_dim, h.nnz):
            assert _same_bits(h.apply(v), h.entries @ v)
        assert h.one_norm() == float(abs(h.entries).sum(axis=0).max())

    def test_complex_entries(self):
        # NumPy's complex multiply may fuse its two products (FMA); the
        # product rounds each part as SciPy's does.
        rng = np.random.default_rng(8)
        dense = rng.normal(size=(300, 300)) + 1j * rng.normal(size=(300, 300))
        dense *= rng.random((300, 300)) < 0.05
        op = SparseOperator.from_dense(qubit_oscillator_layout(0, (300,)), dense)
        for v in self._vectors(300, 1):
            assert _same_bits(op.apply(v), op.entries @ v)
        assert op.one_norm() == float(abs(op.entries).sum(axis=0).max())

    @pytest.mark.parametrize("trunc", [300, 2100])
    def test_stabilized_n3_blocks(self, trunc):
        h = _stabilized_n3(trunc)
        mat, members, starts = eigensolve._blocks(h)
        refs = _block_matrices(h)
        assert len(refs) == 6
        for a, b, ref in zip(starts[:-1], starts[1:], refs):
            sub = eigensolve._submatrix(mat, members[a:b])
            for v in self._vectors(b - a, a):
                assert _same_bits(sub @ v, ref @ v)
                # A column of a Lanczos basis is a strided vector.
                basis = np.zeros((b - a, 5), dtype=v.dtype)
                basis[:, 3] = v
                assert _same_bits(sub @ basis[:, 3], ref @ v)
            assert _same_bits(sub.diagonal(), ref.diagonal())
            norm = float(abs(ref).sum(axis=0).max())
            assert _csr_one_norm(sub.indices, sub.data) == norm

    @staticmethod
    def _pattern(shape, dim, rng):
        """Nonzero pattern of an arrow matrix (row 0 holds every column, as
        column 0 holds every row) or of a random matrix whose every third
        row is empty."""
        if shape == "arrow":
            mask = np.eye(dim, dtype=bool)
            mask[0, :] = mask[:, 0] = True
        else:
            mask = rng.random((dim, dim)) < 0.05
            mask[::3] = False
        return mask

    @pytest.mark.parametrize("vector", ["real", "complex"])
    @pytest.mark.parametrize("data", ["real", "complex"])
    @pytest.mark.parametrize("shape", ["arrow", "empty-rows"])
    def test_product_bits(self, shape, data, vector):
        dim = 400
        rng = np.random.default_rng(21)
        dense = rng.normal(size=(dim, dim))
        if data == "complex":
            dense = dense + 1j * rng.normal(size=(dim, dim))
        ref = sp.csr_matrix(dense * self._pattern(shape, dim, rng))
        assert ref.dtype == dense.dtype and ref.has_sorted_indices
        mat = _CSR(ref.indptr, ref.indices, ref.data)
        v = self._vectors(dim, 4)[vector == "complex"]
        want = ref @ v
        assert _same_bits(mat @ v, want)
        basis = np.zeros((dim, 3), dtype=v.dtype)
        basis[:, 1] = v
        assert _same_bits(mat @ basis[:, 1], want)
        if data == "complex":
            op = SparseOperator(qubit_oscillator_layout(0, (dim,)), ref)
            assert _same_bits(op.apply(v), op.entries @ v)


class TestTridiagonalDrivers:
    """``_tridiagonal_eigh`` calls LAPACK as ``scipy.linalg.eigh_tridiagonal``
    does and returns its bits: ``dstevd`` for all pairs, ``dstebz`` and
    ``dstein`` for the lowest ``k``."""

    @staticmethod
    def _assert_same_bits(a, b, k, eigvals_only):
        got = eigensolve._tridiagonal_eigh(a, b, k, eigvals_only)
        select = {}
        if k is not None:
            select = dict(select="i", select_range=(0, min(k, len(a)) - 1))
        want = scipy.linalg.eigh_tridiagonal(a, b, eigvals_only, **select)
        if eigvals_only:
            got, want = [got], [want]
        for x, y in zip(got, want, strict=True):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("eigvals_only", [False, True])
    @pytest.mark.parametrize("k", [None, 1, 7, 500])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_chains(self, seed, k, eigvals_only):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 300))
        a = rng.normal(size=m)
        b = rng.normal(size=m - 1)
        # Near-degenerate pairs in the middle of the chain.
        b[m // 2 :] *= 1e-9
        self._assert_same_bits(a, b, k, eigvals_only)

    @pytest.mark.parametrize("eigvals_only", [False, True])
    @pytest.mark.parametrize("k", [None, 1])
    def test_one_state(self, k, eigvals_only):
        self._assert_same_bits(np.array([-0.75]), np.array([]), k, eigvals_only)

    @pytest.mark.parametrize("eigvals_only", [False, True])
    @pytest.mark.parametrize("k", [None, 8])
    def test_model_chains(self, k, eigvals_only):
        for sub in _block_matrices(_stabilized_n3(trunc=300)):
            _, diagonal, off_diagonal = _chain_of(sub)
            self._assert_same_bits(diagonal, off_diagonal, k, eigvals_only)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_values_not_finite(self, bad):
        a, b = np.ones(5), np.ones(4)
        a[2] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            eigensolve._tridiagonal_eigh(a, b)
        b[1] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            eigensolve._tridiagonal_eigh(np.ones(5), b, 2)

    def test_lapack_info_is_checked(self):
        eigensolve._lapack_check(0, "stevd")
        with pytest.raises(ValueError, match="argument 3 of internal stevd"):
            eigensolve._lapack_check(-3, "stevd")
        with pytest.raises(np.linalg.LinAlgError, match=r"did not converge \(LAPACK info=1"):
            eigensolve._lapack_check(1, "stebz")
        with pytest.raises(np.linalg.LinAlgError, match="stein vectors failed"):
            eigensolve._lapack_check(2, "stein", "vectors failed")

    def test_falls_back_to_public_lapack(self, monkeypatch):
        # Without the extension's file, the public module serves.
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
        assert eigensolve._lapack() is scipy.linalg.lapack
        rng = np.random.default_rng(3)
        self._assert_same_bits(rng.normal(size=90), rng.normal(size=89), 4, False)


class TestSubsetDriver:
    """``_lowest_eigh`` calls ``dsyevr`` or ``zheevr`` as
    ``scipy.linalg.eigh(subset_by_index=...)`` does and returns its bits."""

    @staticmethod
    def _assert_same_bits(a, k, want_states):
        got = eigensolve._lowest_eigh(a.copy(), k, want_states)
        want = scipy.linalg.eigh(
            a.copy(),
            eigvals_only=not want_states,
            subset_by_index=(0, k - 1),
            overwrite_a=True,
        )
        if not want_states:
            assert got[1] is None
            got, want = got[:1], [want]
        for x, y in zip(got, want, strict=True):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("want_states", [True, False])
    @pytest.mark.parametrize("k", [1, 6, 40])
    @pytest.mark.parametrize("s", [65, 100, 300])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_random_hermitian(self, kind, s, k, want_states):
        rng = np.random.default_rng(s + k)
        a = rng.normal(size=(s, s))
        if kind == "complex":
            a = a + 1j * rng.normal(size=(s, s))
        self._assert_same_bits(a + a.conj().T, k, want_states)

    @pytest.mark.parametrize("want_states", [True, False])
    def test_exact_degenerate_pairs(self, want_states):
        # Two copies of one random matrix: every level is exactly doubled.
        rng = np.random.default_rng(7)
        b = rng.normal(size=(40, 40))
        a = scipy.linalg.block_diag(b + b.T, b + b.T)
        w = eigensolve._lowest_eigh(a.copy(), 10, False)[0]
        assert np.max(np.abs(w[::2] - w[1::2])) <= 1e-12 * np.abs(w).max()
        self._assert_same_bits(a, 10, want_states)

    @pytest.mark.parametrize("model", ["nDicke", "mmr"])
    def test_model_blocks(self, model):
        # Non-chain blocks of 100 (nDicke) and 72 (mmr) states.
        h = build_model(
            pair(100) if model == "nDicke" else two_mode(trunc=12), model
        )
        for sub in _block_matrices(h):
            assert sub.shape[0] > eigensolve._BATCH_MAX
            assert _chain_of(sub) is None
            self._assert_same_bits(sub.toarray(), 6, True)

    def test_falls_back_to_public_lapack(self, monkeypatch):
        # Without the extension's file, the public module serves the dense
        # solve, with the same bits.
        h = build_model(pair(100), "nDicke")
        want = solve_lowest(h, 6, "auto")
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
        assert eigensolve._lapack() is scipy.linalg.lapack
        got = solve_lowest(h, 6, "auto")
        for x, y in ((got.energies, want.energies), (got.states, want.states)):
            assert np.array_equal(x, y)


class TestPerBlockPolicy:
    """Each block takes its own solver: a block above the dense limit sends
    only itself to Lanczos, and chains above it need no Lanczos at all."""

    @pytest.mark.parametrize("method", ["auto", "dense"])
    def test_chains_above_dense_limit(self, monkeypatch, method):
        def refuse(*args, **kwargs):
            raise AssertionError("Lanczos called")

        h = build_model(single(omega_q=3.1, n=1, g=0.01, trunc=4200), "nR")
        assert sorted(np.bincount(_block_labels(h))) == [4200, 4200]
        assert 4200 > DENSE_LIMIT
        monkeypatch.setattr(eigensolve, "_lanczos", refuse)
        k = 8
        res = solve_lowest(h, k, method)
        small = build_model(single(omega_q=3.1, n=1, g=0.01, trunc=400), "nR")
        want = np.linalg.eigvalsh(small.toarray())[:k]
        assert np.max(np.abs(res.energies - want)) <= 1e-10
        scale = max(1.0, float(np.abs(res.energies).max()))
        resid = h.entries @ res.states - res.states * res.energies
        assert np.linalg.norm(resid, axis=0).max() <= 1e-12 * scale
        gram = res.states.conj().T @ res.states
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-12 * scale

    @staticmethod
    def _mixed_blocks():
        """A random complex 90-state block, holding index 0, and a random
        20-state block on every fifth index from 1: the operator, the
        20-state block's indices and that block."""
        rng = np.random.default_rng(11)
        a = rng.normal(size=(90, 90)) + 1j * rng.normal(size=(90, 90))
        a = a + a.conj().T
        b = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        b = b + b.conj().T
        small = np.arange(20) * 5 + 1
        large = np.setdiff1d(np.arange(110), small)
        full = np.zeros((110, 110), dtype=complex)
        full[np.ix_(large, large)] = a
        full[np.ix_(small, small)] = b
        h = SparseOperator.from_dense(qubit_oscillator_layout(0, (110,)), full)
        assert h.hermitian
        return h, small, b

    def test_only_the_large_block_runs_lanczos(self, monkeypatch):
        h, _, _ = self._mixed_blocks()
        monkeypatch.setattr(eigensolve, "DENSE_LIMIT", 64)
        calls = []
        lanczos = eigensolve._lanczos

        def spy(mat, *args):
            calls.append(mat.shape[0])
            return lanczos(mat, *args)

        monkeypatch.setattr(eigensolve, "_lanczos", spy)
        k = 12
        res = solve_lowest(h, k, "auto")
        assert calls == [90]
        want = np.linalg.eigvalsh(h.toarray())[:k]
        assert np.max(np.abs(res.energies - want)) <= 1e-9
        with pytest.raises(CapacityError):
            solve_lowest(h, k, "dense")

    def test_iteration_limit_keeps_exact_small_block(self, monkeypatch):
        h, small, b = self._mixed_blocks()
        monkeypatch.setattr(eigensolve, "DENSE_LIMIT", 64)
        pattern = r"1 of 2 blocks \(first: 90 states"
        with pytest.raises(IterationLimitError, match=pattern) as exc_info:
            eigensolve._solve_blocks(h, 12, "auto", max_iters=3)
        partial = exc_info.value.partial
        # Three Ritz values from the 90-state block; the rest is the
        # 20-state block, solved exactly.
        on_small = np.abs(partial.states[small]).sum(axis=0) > 0
        assert on_small.sum() >= 9
        want = np.linalg.eigvalsh(b)[: on_small.sum()]
        error = np.abs(partial.energies[on_small] - want)
        assert error.max() <= 1e-12 * np.abs(want).max()


class TestLabeling:
    def test_diagonal_model_labels_exactly(self):
        spec = single(trunc=12)
        res = label_by_overlap(
            eigh_dense(build_model(spec, "dispersive", "rwa", squeezing=False))
        )
        p = spec.qubit_params()
        for config, fock, overlap in res.labels:
            assert overlap == pytest.approx(1.0)
            j = fock[0]
            assert res.energy_of(config, fock) == pytest.approx(
                dispersive_level(p, config, j, "rwa"), abs=1e-13
            )

    def test_weakly_coupled_labels_have_high_overlap(self):
        res = label_by_overlap(eigh_dense(build_model(single(g=0.02, trunc=20), "nR")))
        # Every label is unambiguous; low-lying states are nearly bare (mixing
        # grows with the Fock index as g sqrt(j (j-1)) approaches the detuning).
        assert all(entry[2] > 0.5 for entry in res.labels)
        assert all(entry[2] > 0.98 for entry in res.labels[:8])
        assert {entry[0] for entry in res.labels} == {"e", "g"}

    def test_exact_tie_breaks_toward_lower_indices(self):
        layout = qubit_oscillator_layout(1, [2])
        s = 1.0 / np.sqrt(2.0)
        states = np.zeros((4, 2))
        states[0, 0] = s  # |e,0>
        states[2, 0] = s  # |g,0>
        states[0, 1] = s
        states[2, 1] = -s
        res = SpectrumResult(
            energies=np.array([0.0, 1.0]), states=states, layout=layout
        )
        labels = label_by_overlap(res).labels
        assert labels[0] == ("e", (0,), pytest.approx(0.5))
        assert labels[1] == ("g", (0,), pytest.approx(0.5))

    @pytest.mark.parametrize("delta", [1e-13, -1e-13])
    def test_roundoff_tie_keeps_lower_bare_label(self, delta):
        # The dark state (|eg,0> - |ge,0>)/sqrt(2) of two identical qubits
        # weighs 0.5 on both bare states up to roundoff (0.5 + 9e-13 on ge
        # here); roundoff must not pick its label.
        h = build_model(identical_pair(trunc=60), "nTC")
        res = eigh_dense(h)
        eg, ge = (res.layout.basis_index(occ) for occ in [(0, 1, 0), (1, 0, 0)])
        weights = np.abs(res.states) ** 2
        dark = np.argmax(np.minimum(weights[eg], weights[ge]))
        assert weights[eg, dark] == pytest.approx(0.5, abs=1e-11)
        state = res.states[:, dark].copy()
        state[eg] += delta
        one = SpectrumResult(
            energies=res.energies[dark : dark + 1],
            states=state[:, None],
            layout=res.layout,
        )
        assert label_by_overlap(one).labels[0][:2] == ("eg", (0,))

    def test_energy_of_key_errors(self):
        res = eigh_dense(build_model(single(trunc=8), "nR"))
        with pytest.raises(KeyError):
            res.energy_of("e", (0,))  # unlabeled
        labeled = label_by_overlap(res)
        with pytest.raises(KeyError):
            labeled.energy_of("e", (99,))


class TestFiltering:
    def _result(self):
        layout = qubit_oscillator_layout(1, [3])
        states = np.eye(6)[:, :3]
        return SpectrumResult(
            energies=np.array([0.0, 1.0, 2.0]),
            states=states,
            layout=layout,
            mean_photons=np.array([0.5, 20.0, 19.999]),
            labels=[("e", (0,), 1.0), ("e", (1,), 1.0), ("e", (2,), 1.0)],
        )

    def test_threshold_is_strict(self):
        kept = filter_by_mean_photon(self._result(), 20.0)
        np.testing.assert_array_equal(kept.energies, [0.0, 2.0])
        np.testing.assert_array_equal(kept.mean_photons, [0.5, 19.999])
        assert [lab[1] for lab in kept.labels] == [(0,), (2,)]
        assert kept.states.shape == (6, 2)

    def test_requires_mean_photons(self):
        res = self._result()
        res.mean_photons = None
        with pytest.raises(ValueError):
            filter_by_mean_photon(res, 10.0)


def _point(layout, energies, states, labels=None):
    return SpectrumResult(
        energies=np.asarray(energies, dtype=float),
        states=np.asarray(states, dtype=float),
        layout=layout,
        labels=labels,
    )


class TestTracking:
    layout = HilbertLayout((("qubit", 2),))

    def test_follows_levels_through_an_index_swap(self):
        eye = np.eye(2)
        swap = eye[:, ::-1]
        pts = [
            _point(self.layout, [0.0, 1.0], eye, labels=[("e", (), 1.0), ("g", (), 1.0)]),
            _point(self.layout, [0.1, 1.1], eye),
            _point(self.layout, [0.2, 1.2], swap),
        ]
        curves = track_levels(pts)
        assert curves[0].label == ("e", ())
        assert curves[0].indices == [0, 0, 1]
        np.testing.assert_allclose(curves[0].energies, [0.0, 0.1, 1.2])
        assert curves[1].indices == [1, 1, 0]
        np.testing.assert_allclose(curves[1].energies, [1.0, 1.1, 0.2])
        assert not curves[0].terminated and not curves[1].terminated
        assert curves[0].overlaps == [1.0, 1.0, 1.0]

    def test_termination_below_continuity_floor(self):
        eye = np.eye(2)
        s = 1.0 / np.sqrt(2.0)
        mixed = np.array([[s, s], [s, -s]])
        pts = [
            _point(self.layout, [0.0, 1.0], eye),
            _point(self.layout, [0.1, 1.1], mixed),
        ]
        curves = track_levels(pts, continuity_floor=0.6)
        for curve in curves:
            assert curve.terminated
            assert curve.terminated_at == 1
            assert curve.indices[1] is None
            assert np.isnan(curve.energies[1])
        # Exactly at the floor the connection is kept (termination is strict <).
        curves = track_levels(pts, continuity_floor=s * s)
        assert not any(c.terminated for c in curves)

    @pytest.mark.parametrize("floor", [2.0, -0.1, float("nan")])
    def test_floor_outside_unit_interval_rejected(self, floor):
        eye = np.eye(2)
        pts = [_point(self.layout, [0.0, 1.0], eye)] * 2
        with pytest.raises(ValueError, match="continuity_floor"):
            track_levels(pts, continuity_floor=floor)

    def test_unlabeled_seed_gives_none_labels(self):
        eye = np.eye(2)
        pts = [_point(self.layout, [0.0, 1.0], eye)] * 2
        curves = track_levels(pts)
        assert all(c.label is None for c in curves)
        assert all(isinstance(c, LevelCurve) for c in curves)

    def test_validation(self):
        with pytest.raises(ValueError):
            track_levels([])
        eye = np.eye(2)
        good = _point(self.layout, [0.0, 1.0], eye)
        bad = SpectrumResult(
            energies=np.array([0.0, 1.0]), states=None, layout=self.layout
        )
        with pytest.raises(ValueError):
            track_levels([good, bad])
        other = _point(qubit_oscillator_layout(1, [2]), np.zeros(4), np.eye(4))
        with pytest.raises(ValueError):
            track_levels([good, other])

    def test_real_sweep_keeps_weakly_coupled_levels(self):
        specs = [single(g=g, trunc=20) for g in (0.0, 0.05, 0.1)]
        pts = [label_by_overlap(eigh_dense(build_model(s, "nJC"))) for s in specs]
        curves = track_levels(pts)
        tracked = {c.label: c for c in curves}
        ground = tracked[("g", (0,))]
        assert not ground.terminated
        # |g,0> is uncoupled in the rotating model: energy stays -omega_q/2.
        np.testing.assert_allclose(ground.energies, -1.25, atol=1e-12)


def _reference_labels(result):
    """Labels by a walk over every (bare, eigen) pair in descending order."""
    weights = np.abs(result.states) ** 2
    dim, k = weights.shape
    order = np.argsort(-np.round(weights, 10), axis=None, kind="stable")
    labels = [None] * k
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
    return labels


def _reference_curves(results, floor):
    """Curves by a walk over the full overlap matrix of each step: a pair
    below the floor ends its row's curve without taking the column."""
    n_points, seed = len(results), results[0]
    curves = [
        SimpleNamespace(
            label=None if seed.labels is None else seed.labels[i][:2],
            indices=[i] + [None] * (n_points - 1),
            energies=np.append(seed.energies[i], np.full(n_points - 1, np.nan)),
            overlaps=[1.0] + [None] * (n_points - 1),
            terminated=False,
            terminated_at=None,
        )
        for i in range(seed.k)
    ]
    for t in range(n_points - 1):
        right = results[t + 1]
        overlap = np.abs(results[t].states.conj().T @ right.states) ** 2
        rows = {c.indices[t]: c for c in curves if not c.terminated}
        taken = np.zeros(right.k, dtype=bool)
        pending = set(rows)
        for flat in np.argsort(-overlap, axis=None, kind="stable"):
            row, col = divmod(int(flat), right.k)
            if row not in pending or taken[col]:
                continue
            pending.discard(row)
            w = float(overlap[row, col])
            if w < floor:
                rows[row].terminated, rows[row].terminated_at = True, t + 1
            else:
                taken[col] = True
                rows[row].indices[t + 1] = col
                rows[row].energies[t + 1] = right.energies[col]
                rows[row].overlaps[t + 1] = w
        for row in pending:
            rows[row].terminated, rows[row].terminated_at = True, t + 1
    return curves


def _tied_columns(rng, dim, k):
    """``k`` orthonormal columns: a permutation, the same with disjoint pairs
    rotated by 45 degrees (weights of exactly 0.5), or a random rotation."""
    kind = rng.integers(3)
    if kind == 2:
        return np.linalg.qr(rng.normal(size=(dim, dim)))[0][:, :k]
    q = np.eye(dim)[:, rng.permutation(dim)]
    if kind == 1:
        s = np.sqrt(0.5)
        for a in range(0, dim - 1, 2):
            q[:, a : a + 2] = q[:, a : a + 2] @ np.array([[s, s], [s, -s]])
    return q[:, :k]


class TestGreedyAgainstReference:
    """Labeling and tracking agree exactly with a per-pair reference walk on
    random sweeps with exact ties, points with fewer levels than live
    curves, and floors at which curves die part way."""

    layout = qubit_oscillator_layout(1, [4])

    def _sweep(self, seed):
        rng = np.random.default_rng(seed)
        dim = self.layout.total_dim
        points = []
        for t in range(6):
            k = dim if t == 0 else int(rng.integers(1, dim + 1))
            points.append(
                SpectrumResult(
                    energies=np.sort(rng.normal(size=k)),
                    states=_tied_columns(rng, dim, k),
                    layout=self.layout,
                )
            )
        points[0] = label_by_overlap(points[0])
        return points

    @pytest.mark.parametrize("seed", range(40))
    def test_labels(self, seed):
        for point in self._sweep(seed):
            assert label_by_overlap(point).labels == _reference_labels(point)

    def test_curves(self):
        dead_part_way = short_points = 0
        for seed in range(40):
            points = self._sweep(seed)
            short_points += any(p.k < q.k for p, q in zip(points[1:], points))
            for floor in (0.0, 0.5, 0.9):
                got = track_levels(points, continuity_floor=floor)
                want = _reference_curves(points, floor)
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert a.label == b.label
                    assert a.indices == b.indices
                    assert a.overlaps == b.overlaps
                    np.testing.assert_array_equal(a.energies, b.energies)
                    assert (a.terminated, a.terminated_at) == (
                        b.terminated,
                        b.terminated_at,
                    )
                    dead_part_way += bool(a.terminated and a.terminated_at > 1)
        assert dead_part_way > 0 and short_points > 0


class TestErrorTaxonomy:
    def test_hierarchy(self):
        for exc in (
            ConfigError,
            SolverError,
            TruncationError,
            ResonanceError,
            CapacityError,
        ):
            assert issubclass(exc, DispersiveNphotonError)
        assert issubclass(IterationLimitError, SolverError)
        assert issubclass(PropagationError, SolverError)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: destroy(1), "oscillator dimension must be >= 2, got 1"),
            (lambda: HilbertLayout(()), "layout must contain at least one subsystem"),
            (lambda: stirling2(-1, 0), "stirling2 n must be >= 0, got -1"),
            (
                lambda: critical_photon_number(0, 0.1, 1.0),
                "coupling order n must be >= 1, got 0",
            ),
            (
                lambda: DispersiveParams.from_frequencies(2.5, 2, -0.1),
                "coupling strength g must be >= 0, got -0.1",
            ),
            (
                lambda: coherent_state(float("nan"), 10),
                "coherent amplitude must be finite, got (nan+0j)",
            ),
            (lambda: propagator(number(4), 1, 1e-10), "krylov_dim must be >= 2, got 1"),
            (lambda: solve_lowest(number(4), 0), "k must be >= 1, got 0"),
            (lambda: track_levels([]), "track_levels requires at least one result"),
        ],
        ids=[
            "fockspace-destroy",
            "fockspace-layout",
            "combinatorics",
            "analytic-critical",
            "analytic-params",
            "dynamics-coherent",
            "dynamics-propagator",
            "eigensolve-solve",
            "eigensolve-track",
        ],
    )
    def test_bad_argument_is_config_error_and_value_error(self, call, message):
        with pytest.raises(ConfigError) as info:
            call()
        assert isinstance(info.value, ValueError)
        assert str(info.value) == message

    def test_config_error_pickles(self):
        # Sweep workers send exceptions back through the process pool.
        exc = pickle.loads(pickle.dumps(ConfigError("bad --sweep")))
        assert type(exc) is ConfigError
        assert isinstance(exc, ValueError)
        assert exc.args == ("bad --sweep",)
