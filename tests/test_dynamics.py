"""States, propagation, reduced density matrices, and fidelity."""

import math
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from test_models import ALL_BUILDERS

from dispersive_nphoton import dynamics
from dispersive_nphoton.analytic import dispersive_level
from dispersive_nphoton.dynamics import (
    STATE_PRESETS,
    DensityMatrix,
    StateVector,
    basis_state,
    coherent_state,
    evolve,
    expectation,
    fidelity,
    partial_trace,
    preset_state,
    superposition,
    tensor_state,
)
from dispersive_nphoton.eigensolve import _BATCH_MAX, _blocks
from dispersive_nphoton.errors import PropagationError, TruncationError
from dispersive_nphoton.fockspace import (
    HilbertLayout,
    SparseOperator,
    embed,
    number,
    qubit_oscillator_layout,
)
from dispersive_nphoton.models import (
    OscillatorSpec,
    QubitSpec,
    SystemSpec,
    build_model,
)

QUBIT = HilbertLayout((("qubit", 2),))


def single(omega_q=2.5, n=2, g=0.02, trunc=20):
    return SystemSpec(
        topology="single",
        qubits=(QubitSpec(omega_q=omega_q, n=n, g=g),),
        oscillators=(OscillatorSpec(omega=1.0, trunc=trunc),),
    )


def largest_block(h):
    return int(np.diff(_blocks(h)[2]).max())


def spread_state(layout):
    """Deterministic state with support on every basis state."""
    j = np.arange(layout.total_dim)
    amps = (1.0 + j % 3) * np.exp(0.7j * j)
    return StateVector(layout, amps / np.linalg.norm(amps))


def krylov(h, psi, t, krylov_dim=30, local_tol=1e-10):
    """The Krylov propagator of :func:`evolve`, whatever the block sizes."""
    amps = psi.amplitudes
    return dynamics._krylov_evolve(h.entries, amps, t, krylov_dim, local_tol)


BLOCK_PATH_BUILDERS = [
    make for make in ALL_BUILDERS if largest_block(make()) <= _BATCH_MAX
] + [lambda: build_model(single(n=2, trunc=200), "nJC")]


class TestStates:
    def test_state_vector_validation(self):
        layout = qubit_oscillator_layout(1, [3])
        with pytest.raises(ValueError):
            StateVector(layout, np.zeros(5))
        with pytest.raises(ValueError):
            StateVector(layout, np.full(6, 0.7))

    def test_basis_state(self):
        layout = qubit_oscillator_layout(1, [4])
        psi = basis_state(layout, (1, 2))
        assert psi.norm() == pytest.approx(1.0)
        assert psi.amplitudes[1 * 4 + 2] == 1.0
        assert psi.mean_photon_number() == pytest.approx(2.0)

    def test_superposition(self):
        layout = qubit_oscillator_layout(1, [4])
        psi = superposition(layout, [(1.0, (0, 0)), (1.0, (1, 2)), (1.0, (1, 2))])
        # Duplicate occupations add before normalization: weights 1 and 2.
        assert abs(psi.amplitudes[0]) ** 2 == pytest.approx(0.2)
        assert abs(psi.amplitudes[6]) ** 2 == pytest.approx(0.8)
        with pytest.raises(ValueError):
            superposition(layout, [(1.0, (0, 0)), (-1.0, (0, 0))])

    def test_coherent_state_moments(self):
        alpha = 1.2
        psi = coherent_state(alpha, 30)
        assert psi.norm() == pytest.approx(1.0)
        assert psi.mean_photon_number() == pytest.approx(alpha**2, abs=1e-8)
        # Successive amplitude ratio alpha / sqrt(j).
        ratio = psi.amplitudes[3] / psi.amplitudes[2]
        assert ratio == pytest.approx(alpha / math.sqrt(3), rel=1e-12)

    def test_coherent_state_truncation_guard(self):
        with pytest.raises(TruncationError):
            coherent_state(2.0, 24)  # (2 + 3)**2 = 25 > 24

    @pytest.mark.parametrize("alpha, trunc", [(39, 1814), (50, 3000), (40j, 1900)])
    def test_coherent_state_beyond_vacuum_underflow(self, alpha, trunc):
        # exp(-|alpha|**2 / 2) is below the smallest normal float here.
        psi = coherent_state(alpha, trunc)
        nbar = abs(alpha) ** 2
        assert psi.norm() == pytest.approx(1.0, abs=1e-14)
        assert psi.mean_photon_number() == pytest.approx(nbar, rel=1e-9)
        # Logarithms near j log|alpha| ~ 2e4 carry absolute errors ~ 1e-11.
        j = int(nbar)
        ratio = psi.amplitudes[j + 1] / psi.amplitudes[j]
        assert ratio == pytest.approx(alpha / math.sqrt(j + 1), rel=1e-10)

    def test_coherent_state_tail_refusal(self):
        # The guard holds, (30 + 3)**2 = 1089, but the tail mass is 5.8e-10.
        with pytest.raises(TruncationError, match="tail mass 5.77e-10"):
            coherent_state(30, 1089)

    def test_tensor_state(self):
        plus = StateVector(QUBIT, np.array([1.0, 1.0]) / math.sqrt(2))
        osc = coherent_state(0.5, 16)
        joint = tensor_state(plus, osc)
        assert joint.layout.dims == (2, 16)
        np.testing.assert_allclose(
            joint.amplitudes, np.kron(plus.amplitudes, osc.amplitudes)
        )
        with pytest.raises(ValueError):
            tensor_state()

    def test_presets(self):
        layout = qubit_oscillator_layout(1, [12])
        bell = preset_state("bell", layout)
        s = 1.0 / math.sqrt(2.0)
        assert bell.amplitudes[0 * 12 + 0] == pytest.approx(s)  # |e, 0>
        assert bell.amplitudes[1 * 12 + 2] == pytest.approx(s)  # |g, 2>
        # Coherent presets need room for the photon distribution tail.
        wide = qubit_oscillator_layout(1, [25])
        two = preset_state("plus_coherent_2", wide)
        assert two.mean_photon_number() == pytest.approx(2.0, abs=1e-8)
        with pytest.raises(TruncationError):
            preset_state("plus_coherent_2", layout)
        assert STATE_PRESETS == ("bell", "plus_coherent_1", "plus_coherent_2")

    def test_preset_validation(self):
        layout = qubit_oscillator_layout(1, [12])
        with pytest.raises(ValueError):
            preset_state("bogus", layout)
        with pytest.raises(ValueError):
            preset_state("bell", HilbertLayout((("oscillator", 12),)))
        with pytest.raises(ValueError):
            preset_state("bell", qubit_oscillator_layout(1, [2]))

    def test_expectation(self):
        layout = qubit_oscillator_layout(1, [5])
        psi = basis_state(layout, (0, 3))
        nop = embed(layout, [(1, number(5))])
        assert expectation(nop, psi) == pytest.approx(3.0)
        with pytest.raises(ValueError):
            expectation(number(5), psi)


class TestEvolve:
    def test_resonant_exchange_cycle(self):
        # First-order resonant rotating model: |e,0> <-> |g,1> with matrix
        # element g, so population fully transfers at t = pi/(2g) and
        # returns at t = pi/g.
        g = 0.05
        spec = single(omega_q=1.0, n=1, g=g, trunc=16)
        h = build_model(spec, "nJC")
        layout = spec.layout()
        psi0 = basis_state(layout, (0, 0))
        half = evolve(h, psi0, math.pi / (2 * g))
        assert abs(half.amplitudes[1 * 16 + 1]) ** 2 == pytest.approx(
            1.0, abs=1e-10
        )
        full = evolve(h, psi0, math.pi / g)
        assert abs(full.amplitudes[0 * 16 + 0]) ** 2 == pytest.approx(
            1.0, abs=1e-10
        )
        quarter = evolve(h, psi0, math.pi / (4 * g))
        assert abs(quarter.amplitudes[0 * 16 + 0]) ** 2 == pytest.approx(
            0.5, abs=1e-10
        )

    def test_krylov_matches_dense(self):
        spec = single(omega_q=2.5, n=2, g=0.1, trunc=24)
        h = build_model(spec, "nR")
        psi0 = preset_state("bell", spec.layout())
        t = 7.5
        exact = evolve(h, psi0, t)
        approx = krylov(h, psi0, t)
        assert np.max(np.abs(exact.amplitudes - approx)) <= 1e-9
        assert abs(np.linalg.norm(approx) - 1.0) <= 1e-9

    def test_diagonal_generator_pure_phases(self):
        # Forces the Krylov path onto an exactly invariant one-dimensional
        # subspace: the returned amplitude must be the exact level phase.
        spec = single(trunc=40)
        h = build_model(spec, "dispersive", "rwa", squeezing=False)
        layout = spec.layout()
        p = spec.qubit_params()
        t = 3.25
        psi = krylov(h, basis_state(layout, (0, 5)), t)
        expected = np.exp(-1j * dispersive_level(p, "e", 5, "rwa") * t)
        assert psi[5] == pytest.approx(expected, abs=1e-12)
        assert np.max(np.abs(np.delete(psi, 5))) == 0.0

    def test_breakdown_on_last_step_keeps_error_estimate(self, monkeypatch):
        # A path of 40 states whose link 19-20 (5e-15) is below the breakdown
        # floor (1e-14 times the 1-norm 2): from |0> the recursion breaks
        # down on step 20, the last one allowed.  That is no invariant
        # subspace: the error estimate, dt * 5e-15 * |u_20|, must still halve
        # the step, where a one-step run would drop the leak past the link.
        hops = np.ones(39)
        hops[19] = 5e-15
        mat = scipy.sparse.diags([hops, hops], [-1, 1], format="csr").astype(complex)
        psi = np.eye(40, dtype=complex)[0]
        runs = []
        real = dynamics._lanczos_run
        monkeypatch.setattr(
            dynamics, "_lanczos_run", lambda *args: runs.append(1) or real(*args)
        )
        t = 1e4
        got = dynamics._krylov_evolve(mat, psi, t, 20, 1e-12)
        assert len(runs) > 1
        exact = scipy.linalg.expm(-1j * t * mat.toarray())[:, 0]
        assert np.max(np.abs(got - exact)) <= 1e-11
        assert np.max(np.abs(got[20:])) > 0.0

    def test_time_reversal(self):
        spec = single(g=0.15, trunc=36)
        h = build_model(spec, "nR")
        psi0 = preset_state("plus_coherent_1", spec.layout())
        there = StateVector(h.layout, krylov(h, psi0, 4.0), norm_tol=1e-8)
        back = krylov(h, there, -4.0)
        assert abs(np.vdot(psi0.amplitudes, back)) == pytest.approx(1.0, abs=1e-9)

    def test_zero_time_is_identity(self):
        spec = single(trunc=8)
        psi0 = basis_state(spec.layout(), (1, 3))
        out = evolve(build_model(spec, "nR"), psi0, 0.0)
        np.testing.assert_array_equal(out.amplitudes, psi0.amplitudes)

    def test_validation(self):
        spec = single(trunc=8)
        h = build_model(spec, "nR")
        psi = basis_state(qubit_oscillator_layout(1, [9]), (0, 0))
        with pytest.raises(ValueError):
            evolve(h, psi, 1.0)
        non_herm = SparseOperator.from_dense(
            spec.layout(), np.triu(np.ones((16, 16)))
        )
        with pytest.raises(ValueError):
            evolve(non_herm, basis_state(spec.layout(), (0, 0)), 1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        spec = single(trunc=8)
        psi0 = basis_state(spec.layout(), (0, 0))
        with pytest.raises(ValueError, match="evolution time t must be finite"):
            evolve(build_model(spec, "nR"), psi0, t)

    @pytest.mark.parametrize("krylov_dim", [1, 0, -3])
    def test_krylov_dim_below_two_rejected(self, krylov_dim):
        spec = single(g=0.15, trunc=40)
        psi0 = basis_state(spec.layout(), (0, 0))
        with pytest.raises(ValueError, match="krylov_dim"):
            evolve(build_model(spec, "nR"), psi0, 1.0, krylov_dim=krylov_dim)

    @pytest.mark.parametrize("local_tol", [math.nan, math.inf, 0.0, -1.0])
    def test_local_tol_not_finite_positive_rejected(self, local_tol):
        spec = single(g=0.15, trunc=40)
        psi0 = basis_state(spec.layout(), (0, 0))
        with pytest.raises(ValueError, match="local_tol"):
            evolve(build_model(spec, "nR"), psi0, 1.0, local_tol=local_tol)

    @pytest.mark.parametrize("krylov_dim", [30, 4])
    def test_krylov_bit_identical_reruns(self, krylov_dim):
        spec = single(g=0.15, trunc=40)
        h = build_model(spec, "nR")
        psi0 = preset_state("plus_coherent_1", spec.layout())
        a = krylov(h, psi0, 6.0, krylov_dim=krylov_dim)
        b = krylov(h, psi0, 6.0, krylov_dim=krylov_dim)
        assert np.array_equal(a, b)

    def test_step_underflow_raises(self):
        spec = single(g=0.3, trunc=40)
        h = build_model(spec, "nR")
        psi0 = basis_state(spec.layout(), (0, 0))
        with pytest.raises(PropagationError):
            krylov(h, psi0, 1.0, krylov_dim=3, local_tol=0.0)


class TestPropagatorChecks:
    """propagator, behind evolve and the dynamics command, checks its own
    arguments before it decomposes anything."""

    @pytest.fixture(autouse=True)
    def no_decomposition(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("_blocks ran before the arguments were checked")

        monkeypatch.setattr(dynamics, "_blocks", fail)

    def test_uncertified_generator_refused(self):
        layout = single(trunc=8).layout()
        non_herm = SparseOperator.from_dense(layout, np.triu(np.ones((16, 16))))
        assert not non_herm.hermitian
        with pytest.raises(ValueError, match="certified-hermitian"):
            dynamics.propagator(non_herm, 30, 1e-10)

    def test_krylov_dim_below_two_refused(self):
        h = build_model(single(trunc=8), "nR")
        with pytest.raises(ValueError, match="krylov_dim"):
            dynamics.propagator(h, 1, 1e-10)

    @pytest.mark.parametrize("local_tol", [0.0, math.nan])
    def test_local_tol_not_finite_positive_refused(self, local_tol):
        h = build_model(single(trunc=8), "nR")
        with pytest.raises(ValueError, match="local_tol"):
            dynamics.propagator(h, 30, local_tol)


class TestPropagatorStep:
    def test_state_on_another_layout_refused(self):
        step = dynamics.propagator(build_model(single(trunc=8), "nR"), 30, 1e-10)
        other = basis_state(single(trunc=9).layout(), (0, 0))
        with pytest.raises(ValueError, match="different layouts"):
            step(other, 1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf])
    def test_non_finite_time_refused(self, t):
        spec = single(trunc=8)
        step = dynamics.propagator(build_model(spec, "nR"), 30, 1e-10)
        with pytest.raises(ValueError, match="evolution time t must be finite"):
            step(basis_state(spec.layout(), (0, 0)), t)


class TestBlockPath:
    @pytest.fixture(autouse=True)
    def no_krylov(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the Krylov path ran")

        monkeypatch.setattr(dynamics, "_krylov_evolve", fail)

    @pytest.mark.parametrize("make", BLOCK_PATH_BUILDERS)
    def test_matches_expm(self, make):
        h = make()
        psi0 = spread_state(h.layout)
        t = 3.7
        expected = scipy.linalg.expm(-1j * t * h.toarray()) @ psi0.amplitudes
        psi = evolve(h, psi0, t)
        assert np.max(np.abs(psi.amplitudes - expected)) <= 1e-10

    @pytest.mark.parametrize(
        "model, regime", [("nR", "nonrwa"), ("nJC", "rwa"), ("dispersive", "nonrwa")]
    )
    def test_blocks_without_support_stay_zero(self, model, regime):
        spec = single(omega_q=8.0, n=2, trunc=60)
        h = build_model(spec, model, regime)
        psi0 = preset_state("bell", spec.layout())
        _, members, starts = _blocks(h)
        support = np.zeros(h.total_dim, dtype=bool)
        for b in range(len(starts) - 1):
            idx = members[starts[b] : starts[b + 1]]
            support[idx] = np.any(psi0.amplitudes[idx] != 0)
        assert 0 < support.sum() < h.total_dim
        psi = evolve(h, psi0, 50.0)
        assert np.all(psi.amplitudes[~support] == 0)
        assert np.all(psi.amplitudes[support] != 0)

    @pytest.mark.parametrize("model", ["nR", "dispersive"])
    def test_bit_identical_reruns(self, model):
        spec = single(omega_q=8.0, n=2, trunc=60)
        h = build_model(spec, model)
        psi0 = preset_state("plus_coherent_2", spec.layout())
        a = evolve(h, psi0, 99.0)
        b = evolve(h, psi0, 99.0)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    @pytest.mark.parametrize("model, trunc", [("nR", 400), ("full_nR", 200)])
    def test_large_blocks_match_expm_multiply(self, model, trunc):
        # Blocks of 200 states, a chain (nR) and a LAPACK block (full_nR),
        # are held exactly, so the Krylov path never runs.
        spec = single(n=2, trunc=trunc)
        h = build_model(spec, model)
        assert largest_block(h) == 200
        psi0 = preset_state("plus_coherent_2", spec.layout())
        t = 50.0
        expected = scipy.sparse.linalg.expm_multiply(
            -1j * t * h.entries, psi0.amplitudes
        )
        psi = evolve(h, psi0, t)
        assert np.max(np.abs(psi.amplitudes - expected)) <= 1e-10


@pytest.mark.parametrize("size, krylov_runs", [(64, False), (65, True)])
def test_path_follows_largest_block(monkeypatch, size, krylov_runs):
    # A block is propagated exactly while the eigenvectors held fit in
    # DENSE_LIMIT**2 entries, here 64**2: one chain of 64 states does.
    monkeypatch.setattr(dynamics, "DENSE_LIMIT", 64)
    layout = HilbertLayout((("oscillator", size),))
    hop = np.diag(np.ones(size - 1), 1)
    h = SparseOperator.from_dense(layout, hop + hop.T)
    assert largest_block(h) == size
    calls = []
    real = dynamics._krylov_evolve
    monkeypatch.setattr(
        dynamics, "_krylov_evolve", lambda *args: calls.append(args) or real(*args)
    )
    psi0 = basis_state(layout, (0,))
    psi = evolve(h, psi0, 2.0)
    assert bool(calls) == krylov_runs
    expected = scipy.linalg.expm(-2j * h.toarray()) @ psi0.amplitudes
    assert np.max(np.abs(psi.amplitudes - expected)) <= 1e-9


def test_only_blocks_over_the_budget_run_krylov(monkeypatch):
    # States 0-4 form a full block of 5 and states 5-7 a chain of 3.  With
    # DENSE_LIMIT at 5, the 25 eigenvector entries hold the smaller block
    # (9) but not both (34): the first block runs Krylov on its own, and
    # the block solver never sees it.
    monkeypatch.setattr(dynamics, "DENSE_LIMIT", 5)
    full = np.arange(25.0).reshape(5, 5) * (1.0 + 0.5j)
    dense = np.zeros((8, 8), dtype=np.complex128)
    dense[:5, :5] = (full + full.conj().T) / 20.0
    dense[5:, 5:] = np.diag([0.3, -0.2, 0.5]) + np.diag([1.0, 1.0], 1)
    dense[5:, 5:] += np.diag([1.0, 1.0], -1)
    layout = HilbertLayout((("oscillator", 8),))
    h = SparseOperator.from_dense(layout, dense)
    held, shapes = [], []
    real_eigh, real_krylov = dynamics._block_eigh, dynamics._krylov_evolve

    def block_eigh(mat, members, starts, *args):
        held.append(members[starts[0] : starts[-1]].tolist())
        return real_eigh(mat, members, starts, *args)

    def krylov_evolve(mat, *args):
        shapes.append(mat.shape)
        return real_krylov(mat, *args)

    monkeypatch.setattr(dynamics, "_block_eigh", block_eigh)
    monkeypatch.setattr(dynamics, "_krylov_evolve", krylov_evolve)
    psi0 = spread_state(layout)
    psi = evolve(h, psi0, 2.0)
    assert held == [[5, 6, 7]]
    assert shapes == [(5, 5)]
    expected = scipy.linalg.expm(-2j * dense) @ psi0.amplitudes
    assert np.max(np.abs(psi.amplitudes - expected)) <= 1e-9
    # A block without support stays zero and costs no Krylov run.
    psi = evolve(h, basis_state(layout, (6,)), 2.0)
    assert shapes == [(5, 5)]
    assert np.all(psi.amplitudes[:5] == 0)
    expected = scipy.linalg.expm(-2j * dense)[:, 6]
    assert np.max(np.abs(psi.amplitudes - expected)) <= 1e-12


class TestSubstepBudget:
    """A Krylov propagation that would take more than ``MAX_SUBSTEPS``
    substeps is refused as soon as its step size shows it."""

    def test_small_krylov_dim_refused_at_once(self, monkeypatch):
        # nR n=2 at trunc 60: blocks of 30 states, all on Krylov here.  At
        # krylov_dim 2 the step stays near 6e-6, so t = 100 would take
        # about 1.7e7 substeps (half an hour).
        monkeypatch.setattr(dynamics, "DENSE_LIMIT", 4)
        spec = single(trunc=60)
        h = build_model(spec, "nR")
        psi0 = preset_state("plus_coherent_2", spec.layout())
        start = time.perf_counter()
        with pytest.raises(PropagationError, match="substep budget exceeded"):
            evolve(h, psi0, 100.0, krylov_dim=2)
        assert time.perf_counter() - start < 1.0

    def test_limit_is_inclusive(self, monkeypatch):
        # This run takes 4096 substeps of one size: 4.1% of the default.
        spec = single(g=0.15, trunc=40)
        h = build_model(spec, "nR")
        psi0 = preset_state("plus_coherent_1", spec.layout())
        want = krylov(h, psi0, 6.0, krylov_dim=4)
        monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", 4096)
        assert np.array_equal(krylov(h, psi0, 6.0, krylov_dim=4), want)
        monkeypatch.setattr(dynamics, "MAX_SUBSTEPS", 4095)
        with pytest.raises(PropagationError, match="limit 4095"):
            krylov(h, psi0, 6.0, krylov_dim=4)


class TestDensityMatrices:
    def test_from_state_is_pure(self):
        rho = DensityMatrix.from_state(basis_state(QUBIT, (0,)))
        assert rho.purity() == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DensityMatrix(QUBIT, np.eye(3) / 3)
        with pytest.raises(ValueError):
            DensityMatrix(QUBIT, np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(ValueError):
            DensityMatrix(QUBIT, np.diag([0.7, 0.7]))
        with pytest.raises(ValueError):
            DensityMatrix(QUBIT, np.diag([1.5, -0.5]))

    def test_product_state_reduces_to_pure_marginals(self):
        layout = qubit_oscillator_layout(1, [16])
        psi = preset_state("plus_coherent_1", layout)
        qubit = partial_trace(psi, [0])
        osc = partial_trace(psi, [1])
        assert qubit.purity() == pytest.approx(1.0, abs=1e-12)
        assert osc.purity() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            qubit.matrix, np.full((2, 2), 0.5), atol=1e-12
        )

    def test_entangled_state_reduces_to_mixed_marginals(self):
        layout = qubit_oscillator_layout(1, [6])
        bell = preset_state("bell", layout)
        qubit = partial_trace(bell, [0])
        assert qubit.purity() == pytest.approx(0.5, abs=1e-12)
        np.testing.assert_allclose(qubit.matrix, np.eye(2) / 2, atol=1e-12)
        osc = partial_trace(bell, [1])
        diag = np.real(np.diag(osc.matrix))
        assert diag[0] == pytest.approx(0.5)
        assert diag[2] == pytest.approx(0.5)

    def test_density_matrix_input_path_agrees(self):
        layout = qubit_oscillator_layout(1, [6])
        bell = preset_state("bell", layout)
        via_state = partial_trace(bell, [0])
        via_rho = partial_trace(DensityMatrix.from_state(bell), [0])
        np.testing.assert_allclose(via_state.matrix, via_rho.matrix, atol=1e-14)

    def test_partial_trace_validation(self):
        layout = qubit_oscillator_layout(1, [6])
        bell = preset_state("bell", layout)
        with pytest.raises(ValueError):
            partial_trace(bell, [])
        with pytest.raises(ValueError):
            partial_trace(bell, [2])
        with pytest.raises(ValueError):
            partial_trace(np.eye(12), [0])


class TestFidelity:
    def test_pure_state_overlap(self):
        plus = StateVector(QUBIT, np.array([1.0, 1.0]) / math.sqrt(2))
        up = basis_state(QUBIT, (0,))
        f = fidelity(DensityMatrix.from_state(plus), DensityMatrix.from_state(up))
        assert f == pytest.approx(0.5, abs=1e-12)

    def test_identity_and_symmetry(self):
        plus = DensityMatrix.from_state(
            StateVector(QUBIT, np.array([1.0, 1.0]) / math.sqrt(2))
        )
        mixed = DensityMatrix(QUBIT, np.diag([0.75, 0.25]))
        assert fidelity(plus, plus) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(plus, mixed) == pytest.approx(
            fidelity(mixed, plus), abs=1e-12
        )
        assert 0.0 <= fidelity(plus, mixed) <= 1.0

    def test_maximally_mixed_against_pure(self):
        mixed = DensityMatrix(QUBIT, np.eye(2) / 2)
        up = DensityMatrix.from_state(basis_state(QUBIT, (0,)))
        assert fidelity(mixed, up) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("t", [5.0, 20.0, 50.0])
    def test_pure_reference_gives_expectation(self, t):
        # For a pure reference |psi><psi| the fidelity is <psi|sigma|psi>:
        # the roundoff eigenvalues of the rank-deficient matrices must not
        # reach the square roots.
        spec = single(n=2, trunc=200)
        psi0 = preset_state("plus_coherent_2", spec.layout())
        psi = evolve(build_model(spec, "nR"), psi0, t)
        for keep in ([0], [1]):
            pure = partial_trace(psi0, keep)
            sigma = partial_trace(psi, keep)
            expected = float(np.real(np.trace(pure.matrix @ sigma.matrix)))
            assert abs(fidelity(sigma, pure) - expected) <= 1e-14
            assert abs(fidelity(pure, sigma) - expected) <= 1e-14

    def test_dimension_mismatch(self):
        up = DensityMatrix.from_state(basis_state(QUBIT, (0,)))
        osc = DensityMatrix(
            HilbertLayout((("oscillator", 3),)), np.diag([1.0, 0.0, 0.0])
        )
        with pytest.raises(ValueError):
            fidelity(up, osc)


class TestDispersiveDynamicsSmoke:
    def test_diagonal_effective_model_freezes_reduced_states(self):
        # Under a photon-number-conserving diagonal model both marginals of
        # any initial state are stationary, so fidelity to t=0 stays 1.
        spec = single(omega_q=8.0, n=2, g=0.02, trunc=16)
        h = build_model(spec, "dispersive", "rwa", squeezing=False)
        layout = spec.layout()
        psi0 = preset_state("bell", layout)
        q0 = partial_trace(psi0, [0])
        psi = evolve(h, psi0, 125.0)
        assert fidelity(partial_trace(psi, [0]), q0) == pytest.approx(
            1.0, abs=1e-10
        )


NAN = float("nan")


class TestNonFiniteStatesRejected:
    @pytest.mark.parametrize(
        "amplitudes", [[NAN, 0.0], [1.0, NAN], [complex(NAN, 0.0), 0.0]]
    )
    def test_state_vector(self, amplitudes):
        with pytest.raises(ValueError):
            StateVector(QUBIT, amplitudes)

    @pytest.mark.parametrize(
        "alpha", [NAN, float("inf"), -float("inf"), complex(1.0, NAN)]
    )
    def test_coherent_state(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            coherent_state(alpha, 20)

    @pytest.mark.parametrize(
        "matrix",
        [[[NAN, 0.0], [0.0, 0.5]], [[0.5, 0.0], [0.0, NAN]], [[0.5, NAN], [NAN, 0.5]]],
    )
    def test_density_matrix(self, matrix):
        with pytest.raises(ValueError):
            DensityMatrix(QUBIT, np.array(matrix))
