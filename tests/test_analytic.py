"""Closed-form levels, doublets, critical photon numbers, dressed quantities.

The level formula drops a qubit- and photon-independent constant (the k = 0
term of the shared Kerr polynomial), so absolute levels carry a global
offset relative to bare-model numerics by convention.  Tests therefore pin
either formula values themselves or offset-free combinations (splittings and
level differences), the latter checked against second-order perturbation
theory evaluated by hand.
"""

import math

import numpy as np
import pytest

from dispersive_nphoton import analytic
from dispersive_nphoton.analytic import (
    MAX_FLOAT_ORDER,
    MOMENT_CONVENTIONS,
    REGIMES,
    DispersiveParams,
    critical_photon_number,
    dispersive_level,
    dressed_qubit_frequency,
    effective_two_qubit_params,
    njc_doublet,
)
from dispersive_nphoton.errors import ResonanceError
from dispersive_nphoton.models import (
    OscillatorSpec,
    QubitSpec,
    SystemSpec,
    build_model,
    two_qubit_block,
)
from dispersive_nphoton.eigensolve import eigh_dense, label_by_overlap


def params(omega_q, n, g):
    return DispersiveParams.from_frequencies(omega_q, n, g)


class TestDispersiveParams:
    def test_derived_frequencies_round_trip(self):
        p = params(2.5, 2, 0.02)
        assert p.delta == pytest.approx(0.5)
        assert p.sigma == pytest.approx(4.5)
        assert p.omega_q == pytest.approx(2.5)
        assert p.omega_o == pytest.approx(1.0)

    def test_strengths(self):
        p = params(2.5, 2, 0.02)
        assert p.chi == pytest.approx(0.0004 / 0.5)
        assert p.xi == pytest.approx(0.0004 / 4.5)
        assert p.lam == pytest.approx(0.04)
        assert p.lam_bar == pytest.approx(0.02 / 4.5)

    def test_resonance_raises(self):
        p = params(2.0, 2, 0.02)  # delta = 0
        with pytest.raises(ResonanceError):
            _ = p.chi

    def test_require_dispersive(self):
        params(2.5, 2, 0.02).require_dispersive("nonrwa")
        with pytest.raises(ResonanceError):
            params(2.1, 2, 0.2).require_dispersive("rwa")  # |g/delta| = 2

    def test_validation(self):
        with pytest.raises(ValueError):
            DispersiveParams(n=0, g=0.1, delta=1.0, sigma=3.0)
        with pytest.raises(ValueError):
            DispersiveParams(n=1, g=-0.1, delta=1.0, sigma=3.0)
        with pytest.raises(ValueError):
            DispersiveParams.from_frequencies(2.0, 1, 0.1, omega_o=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(bad):
    for kwargs in (
        dict(n=2, g=bad, delta=0.5, sigma=4.5),
        dict(n=2, g=0.02, delta=bad, sigma=4.5),
        dict(n=2, g=0.02, delta=0.5, sigma=bad),
    ):
        with pytest.raises(ValueError, match="must be finite"):
            DispersiveParams(**kwargs)
    with pytest.raises(ValueError, match="must be finite"):
        DispersiveParams.from_frequencies(bad, 2, 0.02)
    with pytest.raises(ValueError, match="finite"):
        critical_photon_number(2, bad, 0.5)


class TestDispersiveLevel:
    """Hand-evaluated polynomial values for n = 2 (rows [2,2,2] and [2,4])."""

    def test_rwa_hand_values(self):
        p = params(2.5, 2, 0.01)
        chi = p.chi
        # E(e,3) = 3 + (chi/2)*[4*3] + (chi/2)*[2+6+18] + omega_q/2
        assert dispersive_level(p, "e", 3, "rwa") == pytest.approx(
            3 + 6 * chi + 13 * chi + 1.25, rel=1e-15
        )
        # E(g,2) = 2 + (chi/2)*[4*2] - (chi/2)*[2+4+8] - omega_q/2
        assert dispersive_level(p, "g", 2, "rwa") == pytest.approx(
            2 + 4 * chi - 7 * chi - 1.25, rel=1e-15
        )

    def test_nonrwa_hand_values(self):
        p = params(2.5, 2, 0.01)
        chi, xi = p.chi, p.xi
        assert dispersive_level(p, "g", 3, "nonrwa") == pytest.approx(
            3 + 6 * (chi - xi) - 13 * (chi + xi) - 1.25, rel=1e-15
        )

    def test_splitting_matches_perturbation_theory(self):
        # E(e,j) - E(g,j) = omega_q + (chi+xi) * sum_k Cplus(n,k) j^k; the
        # shared offset cancels in the splitting.
        p = params(2.5, 2, 0.015)
        chi, xi = p.chi, p.xi
        for j, poly in ((0, 2), (1, 6), (2, 14), (3, 26)):
            split = dispersive_level(p, "e", j, "nonrwa") - dispersive_level(
                p, "g", j, "nonrwa"
            )
            assert split == pytest.approx(2.5 + (chi + xi) * poly, rel=1e-12)

    def test_rwa_differences_match_perturbation_theory(self):
        # Second-order shifts of the rotating n=2 model, derived by hand:
        # |g,0>, |g,1> are uncoupled; |g,2> shifts by -2 chi; |e,0> by +2 chi.
        p = params(2.5, 2, 0.01)
        chi = p.chi
        e_g0 = dispersive_level(p, "g", 0, "rwa")
        assert dispersive_level(p, "g", 1, "rwa") - e_g0 == pytest.approx(
            1.0, rel=1e-13
        )
        assert dispersive_level(p, "g", 2, "rwa") - e_g0 == pytest.approx(
            2.0 - 2 * chi, rel=1e-13
        )
        assert dispersive_level(p, "e", 0, "rwa") - e_g0 == pytest.approx(
            2.5 + 2 * chi, rel=1e-13
        )

    def test_nonrwa_differences_match_perturbation_theory(self):
        # |g,0> shifts by -2 xi (counter-rotating partner |e,2> at -Sigma);
        # |g,3> by -6 chi - 20 xi; both relative to the shared offset.
        p = params(2.5, 2, 0.01)
        chi, xi = p.chi, p.xi
        diff = dispersive_level(p, "g", 3, "nonrwa") - dispersive_level(
            p, "g", 0, "nonrwa"
        )
        assert diff == pytest.approx(3 - 6 * chi - 18 * xi, rel=1e-12)

    def test_rwa_matches_exact_doublet_expansion(self):
        # Offset-free comparison against the exact rotating-model doublet:
        # analytic(g,2) - analytic(g,0) vs exact(g,2) - exact(g,0).
        p = params(2.5, 2, 0.002)
        exact_g2 = njc_doublet(p, 0)[1]  # lower branch of {|e,0>, |g,2>}
        exact_g0 = -1.25  # uncoupled
        ana = dispersive_level(p, "g", 2, "rwa") - dispersive_level(
            p, "g", 0, "rwa"
        )
        assert ana - (exact_g2 - exact_g0) == pytest.approx(0.0, abs=1e-9)

    def test_input_validation(self):
        p = params(2.5, 2, 0.01)
        with pytest.raises(ValueError):
            dispersive_level(p, "x", 0, "rwa")
        with pytest.raises(ValueError):
            dispersive_level(p, "e", -1, "rwa")
        with pytest.raises(ValueError):
            dispersive_level(p, "e", 0, "bogus")


class TestLevelDifferenceConvergence:
    """The paper's cross-Kerr and self-Kerr polynomials are right to second
    order: the qubit transition ``E(e,j) - E(g,j) = omega_q + (chi+xi)
    P+(j)`` and the oscillator ladder ``E(g,j+1) - E(g,j)`` of
    :func:`dispersive_level` miss the exact levels by O(g^4), so halving g
    cuts the error sixteenfold (slope 4 on a log-log plot).  The absolute
    levels converge only as g^2: a constant shared by every level cancels
    in the differences."""

    @pytest.mark.parametrize("model, regime", [("nR", "nonrwa"), ("nJC", "rwa")])
    # Detuning omega_q - n omega_o is 1.1 to 1.3 in every case, so the
    # expansion parameter stays small at the levels compared.
    @pytest.mark.parametrize("n, omega_q", [(1, 2.3), (2, 3.1), (3, 4.3)])
    def test_differences_converge_as_g_to_the_fourth(self, n, omega_q, model, regime):
        def errors(g):
            spec = SystemSpec(
                topology="single",
                qubits=(QubitSpec(omega_q=omega_q, n=n, g=g),),
                oscillators=(OscillatorSpec(omega=1.0, trunc=24),),
            )
            result = label_by_overlap(eigh_dense(build_model(spec, model)))
            p = spec.qubit_params()

            def miss(q1, j1, q2, j2):
                exact = result.energy_of(q1, (j1,)) - result.energy_of(q2, (j2,))
                closed = dispersive_level(p, q1, j1, regime) - dispersive_level(
                    p, q2, j2, regime
                )
                return abs(exact - closed)

            transition = max(miss("e", j, "g", j) for j in range(4))
            ladder = max(miss("g", j + 1, "g", j) for j in range(3))
            return transition, ladder

        coarse, fine = errors(0.008), errors(0.004)
        for name, big, small in zip(("transition", "ladder"), coarse, fine):
            assert math.log2(big / small) >= 3.8, (name, big, small)


class TestDoublets:
    def test_frozen_reference_value(self):
        # n=2, l=0, g=0.1, omega_q=2.5: E = 1 +- sqrt(0.02 + 0.0625).
        p = params(2.5, 2, 0.1)
        up, down = njc_doublet(p, 0)
        assert up == pytest.approx(1.0 + math.sqrt(0.0825), rel=1e-15)
        assert down == pytest.approx(0.7127718676730985, rel=1e-15)
        assert up == pytest.approx(1.2872281323269015, rel=1e-15)

    def test_matches_dense_numerics(self):
        spec = SystemSpec(
            topology="single",
            qubits=(QubitSpec(omega_q=2.5, n=2, g=0.1),),
            oscillators=(OscillatorSpec(omega=1.0, trunc=40),),
        )
        result = label_by_overlap(eigh_dense(build_model(spec, "nJC")))
        p = spec.qubit_params()
        up, down = njc_doublet(p, 0)
        assert result.energy_of("e", (0,)) == pytest.approx(up, abs=1e-12)
        assert result.energy_of("g", (2,)) == pytest.approx(down, abs=1e-12)

    def test_zero_coupling_reduces_to_bare_levels(self):
        p = params(3.2, 3, 0.0)
        up, down = njc_doublet(p, 5)
        assert up == pytest.approx(5 + 1.5 + 0.1)  # |e,5>: 5 + n/2 + delta/2
        assert down == pytest.approx(5 + 1.5 - 0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            njc_doublet(params(2.5, 2, 0.1), -1)


class TestCriticalPhotonNumber:
    def test_single_photon_quadratic(self):
        assert critical_photon_number(1, 0.025, 0.5) == pytest.approx(100.0)

    def test_multiphoton_scaling(self):
        assert critical_photon_number(2, 0.02, 0.5) == pytest.approx(25.0)
        assert critical_photon_number(3, 0.01, -0.3) == pytest.approx(
            30.0 ** (2.0 / 3.0)
        )

    def test_zero_coupling_is_infinite(self):
        assert math.isinf(critical_photon_number(2, 0.0, 0.5))

    def test_beyond_float_range_is_infinite(self):
        # (delta / 2g)**2 for n = 1 and |delta| / g for n = 2 overflow.
        assert critical_photon_number(1, 1e-200, 1.0) == math.inf
        assert critical_photon_number(1, 1e-320, -1.0) == math.inf
        assert critical_photon_number(2, 1e-320, 1.0) == math.inf

    def test_validation(self):
        with pytest.raises(ValueError):
            critical_photon_number(0, 0.1, 0.5)
        with pytest.raises(ValueError):
            critical_photon_number(2, -0.1, 0.5)


class TestDressedFrequency:
    def test_vacuum_reduces_to_factorial_shift(self):
        # At |alpha| = 0 only the constant survives: omega_q + chi * n!.
        for n in (1, 2, 3):
            p = params(n + 0.5, n, 0.01)
            expected = p.omega_q + p.chi * math.factorial(n)
            assert dressed_qubit_frequency(p, 0.0) == pytest.approx(
                expected, rel=1e-13
            )

    def test_single_photon_coherent_moments(self):
        # n=1: omega_bar = omega_q + chi*(1 + 2<N>) with <N> = |alpha|^2.
        p = params(1.5, 1, 0.01)
        alpha = 1.3
        expected = p.omega_q + p.chi * (1 + 2 * alpha**2)
        assert dressed_qubit_frequency(p, alpha, "coherent_exact") == pytest.approx(
            expected, rel=1e-13
        )

    def test_conventions_differ_beyond_linear_order(self):
        p = params(2.5, 2, 0.01)
        exact = dressed_qubit_frequency(p, 1.5, "coherent_exact")
        literal = dressed_qubit_frequency(p, 1.5, "amplitude_literal")
        assert exact != literal

    def test_regimes(self):
        p = params(2.5, 2, 0.01)
        rwa = dressed_qubit_frequency(p, 1.0, "coherent_exact", "rwa")
        nonrwa = dressed_qubit_frequency(p, 1.0, "coherent_exact", "nonrwa")
        assert nonrwa != rwa

    @pytest.mark.parametrize(
        "alpha, convention",
        [(1e80, "coherent_exact"), (1e200, "amplitude_literal")],
    )
    @pytest.mark.parametrize("regime", REGIMES)
    def test_overflowing_moments_refused(self, alpha, convention, regime):
        # |alpha|**4 (resp. |alpha|**2) exceeds the float range.
        p = params(2.5, 2, 0.01)
        with pytest.raises(ValueError, match="too large"):
            dressed_qubit_frequency(p, alpha, convention, regime)

    def test_bad_convention(self):
        with pytest.raises(ValueError):
            dressed_qubit_frequency(params(2.5, 2, 0.01), 1.0, "bogus")


class TestEffectiveTwoQubit:
    @pytest.fixture
    def pair_spec(self):
        return SystemSpec(
            topology="multiqubit",
            qubits=(
                QubitSpec(omega_q=8.0, n=2, g=0.02),
                QubitSpec(omega_q=7.4, n=2, g=0.03),
            ),
            oscillators=(OscillatorSpec(omega=1.0, trunc=20),),
        )

    def test_hand_value_at_unit_amplitude(self, pair_spec):
        # chi_x = g1 g2 (1/delta_1 + 1/delta_2) = 0.0006*(1/6 + 1/5.4)
        # gbar  = chi_x * (Cminus(2,0) + Cminus(2,1)<N>) = chi_x * 6 at <N>=1.
        w1, w2, gbar = effective_two_qubit_params(pair_spec, 1.0)
        chi_x = 0.0006 * (1 / 6 + 1 / 5.4)
        assert gbar == pytest.approx(6 * chi_x, rel=1e-12)
        p1 = pair_spec.qubit_params(0)
        assert w1 == pytest.approx(
            dressed_qubit_frequency(p1, 1.0, "coherent_exact"), rel=1e-13
        )

    def test_vacuum_value_twice_cross_strength(self, pair_spec):
        _, _, gbar = effective_two_qubit_params(pair_spec, 0.0)
        chi_x = 0.0006 * (1 / 6 + 1 / 5.4)
        assert gbar == pytest.approx(2 * chi_x, rel=1e-12)

    def test_g_bar_is_twice_the_exchange_element(self, pair_spec):
        # g_bar is the splitting of |eg>, |ge> at resonance, so it is twice
        # the off-diagonal element, both in the 4x4 block and in the full
        # dispersive model (|eg, 0> and |ge, 0> are states trunc and 2 trunc).
        _, _, gbar = effective_two_qubit_params(pair_spec, 0.0)
        assert gbar == 2 * two_qubit_block(0, pair_spec, "rwa")[1, 2]
        h = build_model(pair_spec, "dispersive", "rwa").toarray()
        t = pair_spec.oscillators[0].trunc
        assert gbar == 2 * h[t, 2 * t]

    def test_overflowing_moments_refused(self, pair_spec):
        with pytest.raises(ValueError, match="too large"):
            effective_two_qubit_params(pair_spec, 1e80)

    def test_cross_k0_toggle_removes_constant(self, pair_spec):
        _, _, with_const = effective_two_qubit_params(pair_spec, 1.0, cross_k0=True)
        _, _, without = effective_two_qubit_params(pair_spec, 1.0, cross_k0=False)
        chi_x = 0.0006 * (1 / 6 + 1 / 5.4)
        assert with_const - without == pytest.approx(2 * chi_x, rel=1e-10)

    def test_opposite_detunings_cancel(self):
        spec = SystemSpec(
            topology="multiqubit",
            qubits=(
                QubitSpec(omega_q=2.5, n=2, g=0.02),
                QubitSpec(omega_q=1.5, n=2, g=0.03),
            ),
            oscillators=(OscillatorSpec(omega=1.0, trunc=20),),
        )
        _, _, gbar = effective_two_qubit_params(spec, 1.0)
        assert gbar == pytest.approx(0.0, abs=1e-18)


class TestRegimeRule:
    """rwa drops xi without evaluating it, so sigma = 0 is defined there."""

    def test_zero_sigma_defined_under_rwa_only(self):
        p = params(-2.0, 2, 0.02)  # omega_q = -n omega_o: sigma = 0
        assert p.sigma == 0.0
        for qubit in ("e", "g"):
            assert math.isfinite(dispersive_level(p, qubit, 3, "rwa"))
            with pytest.raises(ResonanceError, match="sigma vanishes"):
                dispersive_level(p, qubit, 3, "nonrwa")

    def test_zero_sigma_dispersive_model_under_rwa_only(self):
        spec = SystemSpec(
            topology="single",
            qubits=(QubitSpec(omega_q=-2.0, n=2, g=0.02),),
            oscillators=(OscillatorSpec(omega=1.0, trunc=8),),
        )
        assert build_model(spec, "dispersive", "rwa").hermitian
        with pytest.raises(ResonanceError, match="sigma vanishes"):
            build_model(spec, "dispersive", "nonrwa")

    def test_nonrwa_refuses_large_counter_rotating_parameter(self):
        # delta = -3.9, sigma = 0.1: |g/delta| = 0.13 but |g/sigma| = 5.
        p = params(-1.9, 2, 0.5)
        p.require_dispersive("rwa")
        with pytest.raises(ResonanceError, match="counter-rotating"):
            p.require_dispersive("nonrwa")


class TestBeyondFloatRange:
    """Closed forms whose inputs or polynomials leave the float range raise
    ResonanceError rather than OverflowError."""

    @pytest.mark.parametrize("regime", REGIMES)
    def test_huge_coupling_refused(self, regime):
        p = params(2.5, 2, 1e200)  # g**2 overflows
        with pytest.raises(ResonanceError, match=r"g\*\*2"):
            dispersive_level(p, "e", 0, regime)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_high_order_polynomial_refused(self, regime):
        p = params(300.5, 120, 1e-6)
        assert math.isfinite(dispersive_level(p, "g", 3, regime))
        with pytest.raises(ResonanceError, match="float range"):
            dispersive_level(p, "g", 1000, regime)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_huge_moment_coefficients_refused(self, regime):
        p = params(400.0, 200, 0.01)  # Cplus(200, 0) = 200! > 1.8e308
        with pytest.raises(ResonanceError, match="float range"):
            dressed_qubit_frequency(p, 1.0, "coherent_exact", regime)

    def test_huge_exchange_coefficients_refused(self):
        spec = SystemSpec(
            topology="multiqubit",
            qubits=(QubitSpec(400.0, 200, 0.01), QubitSpec(401.0, 200, 0.01)),
            oscillators=(OscillatorSpec(omega=1.0, trunc=202),),
        )
        with pytest.raises(ResonanceError, match="float range"):
            effective_two_qubit_params(spec, 1.0)


    def test_orders_above_float_range_refused_before_any_table(self, monkeypatch):
        def refuse(n):
            raise AssertionError(f"table of order {n} built")

        n = MAX_FLOAT_ORDER + 1
        assert float(math.factorial(MAX_FLOAT_ORDER)) < math.inf
        with pytest.raises(OverflowError):
            float(math.factorial(n))
        monkeypatch.setattr(analytic, "commutator_poly", refuse)
        for cross_k0 in (True, False):
            with pytest.raises(ResonanceError, match=f"n = {n} .*float range"):
                analytic._number_polys(n, cross_k0)

    @pytest.mark.parametrize("regime", ["rwa", "nonrwa"])
    def test_largest_float_order_coefficient_beyond_float_range(self, regime):
        # n = 170 passes the order check, but C+(170, 3) > 1.8e308.
        match = "photon-number polynomial coefficient of degree 3 is beyond"
        with pytest.raises(ResonanceError, match=match):
            dressed_qubit_frequency(params(400.0, 170, 0.001), 0.5, regime=regime)

    def test_largest_float_order_kept(self):
        plus, _, _ = analytic._number_polys(MAX_FLOAT_ORDER)
        assert plus[0] == math.factorial(MAX_FLOAT_ORDER)
        p = params(MAX_FLOAT_ORDER + 0.5, MAX_FLOAT_ORDER, 1e-160)
        assert math.isfinite(dispersive_level(p, "g", 0, "rwa"))


class TestGuardedQuotient:
    """chi, xi, lam and lam_bar share one check: a vanishing denominator or a
    quotient beyond the float range raises ResonanceError."""

    @pytest.mark.parametrize("name", ["chi", "xi"])
    def test_huge_coupling_refused(self, name):
        p = params(2.5, 2, 1e200)  # g**2 overflows
        with pytest.raises(ResonanceError, match=r"g\*\*2.*float range"):
            getattr(p, name)

    @pytest.mark.parametrize(
        "name, g, scale",
        [
            # g**2 = 1e200 is finite; dividing by delta = 1e-200 is not.
            ("chi", 1e100, 1e-200),
            ("xi", 1e100, 1e-200),
            # g = 1e10 is finite; dividing by delta = 1e-300 is not.
            ("lam", 1e10, 1e-300),
            ("lam_bar", 1e10, 1e-300),
        ],
    )
    def test_overflowing_division_refused(self, name, g, scale):
        p = DispersiveParams.from_frequencies(2 * scale, 1, g, omega_o=scale)
        with pytest.raises(ResonanceError, match="float range"):
            getattr(p, name)

    def test_tiny_frequency_spectrum_refused(self):
        spec = SystemSpec(
            topology="single",
            qubits=(QubitSpec(omega_q=2e-200, n=1, g=1e100),),
            oscillators=(OscillatorSpec(omega=1e-200, trunc=8),),
        )
        with pytest.raises(ResonanceError, match="float range"):
            build_model(spec, "dispersive")

    @pytest.mark.parametrize(
        "name, omega_q, match",
        [
            ("lam", 2.0, "delta vanishes"),
            ("lam_bar", -2.0, "sigma vanishes"),
            ("chi", 2.0, "delta vanishes"),
            ("xi", -2.0, "sigma vanishes"),
        ],
    )
    def test_vanishing_denominator_refused(self, name, omega_q, match):
        with pytest.raises(ResonanceError, match=match):
            getattr(params(omega_q, 2, 0.01), name)

    def test_huge_doublet_refused(self):
        with pytest.raises(ResonanceError, match="float range"):
            njc_doublet(params(2.5, 2, 1e200), 0)

    @pytest.mark.parametrize("regime", REGIMES)
    def test_cross_strengths_refuse_resonant_coupling(self, regime):
        from dispersive_nphoton.analytic import _cross_strengths

        with pytest.raises(ResonanceError, match="delta vanishes"):
            _cross_strengths(params(2.0, 2, 0.02), params(2.5, 2, 0.03), regime)
        with pytest.raises(ResonanceError, match="delta vanishes"):
            _cross_strengths(params(2.5, 2, 0.02), params(2.0, 2, 0.03), regime)

    def test_overflowing_exchange_strength_refused(self):
        # chi_1 = 1e296 and chi_2 = 1e307 are finite; g1 g2 / delta_1 = 1e309
        # is not.
        spec = SystemSpec(
            topology="multiqubit",
            qubits=(QubitSpec(2e-300, 1, 1e-2), QubitSpec(1e-285, 1, 1e11)),
            oscillators=(OscillatorSpec(omega=1e-300, trunc=4),),
        )
        with pytest.raises(ResonanceError, match="float range"):
            build_model(spec, "dispersive", "rwa")

    def test_cross_strengths_refuse_sigma_only_under_nonrwa(self):
        from dispersive_nphoton.analytic import _cross_strengths

        p1, p2 = params(-2.0, 2, 0.02), params(2.5, 2, 0.03)  # sigma_1 = 0
        assert math.isfinite(_cross_strengths(p1, p2, "rwa")[0])
        with pytest.raises(ResonanceError, match="sigma vanishes"):
            _cross_strengths(p1, p2, "nonrwa")


class TestOverflowingAverages:
    """An |alpha| whose moments are finite but whose photon-number average
    overflows is refused as too large, not returned as inf."""

    @pytest.mark.parametrize("regime", REGIMES)
    def test_dressed_frequency(self, regime):
        with pytest.raises(ValueError, match="too large"):
            dressed_qubit_frequency(params(2.5, 2, 0.01), 1.1e77, regime=regime)

    def test_effective_two_qubit(self):
        spec = SystemSpec(
            topology="multiqubit",
            qubits=(QubitSpec(8.0, 2, 0.02), QubitSpec(7.4, 2, 0.03)),
            oscillators=(OscillatorSpec(omega=1.0, trunc=20),),
        )
        with pytest.raises(ValueError, match="too large"):
            effective_two_qubit_params(spec, 1.1e77)

    def test_dressed_frequency_beyond_float_range(self):
        # chi ~ 1.1e148 and <N> = 1e200 are finite; their product is not.
        p = DispersiveParams.from_frequencies(1e150, 1, 1e149, omega_o=1e149)
        with pytest.raises(ResonanceError, match="float range"):
            dressed_qubit_frequency(p, 1e100)


class TestInputRefusals:
    def test_sigma_must_exceed_delta(self):
        with pytest.raises(ValueError, match="sigma must exceed delta"):
            DispersiveParams(n=1, g=0.1, delta=2.0, sigma=1.0)
        with pytest.raises(ValueError, match="sigma must exceed delta"):
            DispersiveParams(n=1, g=0.1, delta=2.0, sigma=2.0)

    def test_effective_two_qubit_needs_two_qubits(self):
        spec = SystemSpec(
            topology="multiqubit",
            qubits=(QubitSpec(8.0, 2, 0.02),) * 3,
            oscillators=(OscillatorSpec(omega=1.0, trunc=8),),
        )
        with pytest.raises(ValueError, match="exactly two qubits"):
            effective_two_qubit_params(spec, 1.0)


class TestEnums:
    def test_exported_literals(self):
        assert REGIMES == ("rwa", "nonrwa")
        assert MOMENT_CONVENTIONS == ("coherent_exact", "amplitude_literal")


@pytest.mark.parametrize(
    "omega_q, n, omega_o", [(1e20, 1, 1.0), (-1e20, 2, 1.0), (1.0, 1, 1e-17)]
)
def test_swamped_oscillator_frequency_is_a_resonance_error(omega_q, n, omega_o):
    # n * omega_o is lost in the rounding of omega_q: delta == sigma.
    with pytest.raises(ResonanceError, match="lost in the rounding"):
        DispersiveParams.from_frequencies(omega_q, n, 0.01, omega_o)
