"""System descriptions, serialization, and Hamiltonian builders."""

import json
import math

import numpy as np
import pytest
import scipy.linalg

from dispersive_nphoton import models
from dispersive_nphoton.analytic import (
    DispersiveParams,
    _cross_strengths,
    _number_polys,
    _poly_value,
    dispersive_level,
)
from dispersive_nphoton.errors import ConfigError, ResonanceError, TruncationError
from dispersive_nphoton.fockspace import (
    HilbertLayout,
    SparseOperator,
    destroy,
    embed,
    op_pow,
    pauli,
)
from dispersive_nphoton.models import (
    ALL_MODELS,
    MODELS_BY_TOPOLOGY,
    TOPOLOGIES,
    CouplingSpec,
    OscillatorSpec,
    QubitSpec,
    StabilizerSpec,
    SystemSpec,
    build_model,
    charge_operator,
    two_qubit_block,
    with_swept,
)


def single(omega_q=2.5, n=2, g=0.02, trunc=20, stabilizer=None):
    return SystemSpec(
        topology="single",
        qubits=(QubitSpec(omega_q=omega_q, n=n, g=g),),
        oscillators=(OscillatorSpec(omega=1.0, trunc=trunc),),
        stabilizer=stabilizer,
    )


def pair(trunc=16):
    return SystemSpec(
        topology="multiqubit",
        qubits=(
            QubitSpec(omega_q=8.0, n=2, g=0.02),
            QubitSpec(omega_q=7.4, n=2, g=0.03),
        ),
        oscillators=(OscillatorSpec(omega=1.0, trunc=trunc),),
    )


def two_mode(n2=2, trunc=8):
    return SystemSpec(
        topology="multimode",
        qubits=(QubitSpec(omega_q=3.0),),
        oscillators=(
            OscillatorSpec(omega=1.0, trunc=trunc),
            OscillatorSpec(omega=1.0, trunc=trunc),
        ),
        couplings=(
            CouplingSpec(qubit=0, oscillator=0, n=1, g=0.1),
            CouplingSpec(qubit=0, oscillator=1, n=n2, g=0.1),
        ),
    )


class TestSpecValidation:
    def test_topology_shape_rules(self):
        with pytest.raises(ConfigError):
            SystemSpec(
                topology="single",
                qubits=(QubitSpec(2.5), QubitSpec(2.5)),
                oscillators=(OscillatorSpec(1.0, 8),),
            )
        with pytest.raises(ConfigError):
            SystemSpec(
                topology="multiqubit",
                qubits=(QubitSpec(2.5),),
                oscillators=(OscillatorSpec(1.0, 8), OscillatorSpec(1.0, 8)),
            )
        with pytest.raises(ConfigError):
            SystemSpec(
                topology="multimode",
                qubits=(QubitSpec(2.5),),
                oscillators=(OscillatorSpec(1.0, 8),),
                couplings=(),
            )
        with pytest.raises(ConfigError):
            SystemSpec(
                topology="ring",
                qubits=(QubitSpec(2.5),),
                oscillators=(OscillatorSpec(1.0, 8),),
            )

    def test_component_bounds(self):
        with pytest.raises(ConfigError):
            QubitSpec(omega_q=2.5, n=0)
        with pytest.raises(ConfigError):
            QubitSpec(omega_q=2.5, g=-0.1)
        with pytest.raises(ConfigError):
            OscillatorSpec(omega=0.0, trunc=8)
        with pytest.raises(ConfigError):
            OscillatorSpec(omega=1.0, trunc=1)

    def test_couplings_forbidden_outside_multimode(self):
        with pytest.raises(ConfigError):
            SystemSpec(
                topology="single",
                qubits=(QubitSpec(2.5),),
                oscillators=(OscillatorSpec(1.0, 8),),
                couplings=(CouplingSpec(0, 0, 1, 0.1),),
            )

    def test_multimode_coupling_references(self):
        base = dict(
            topology="multimode",
            qubits=(QubitSpec(3.0),),
            oscillators=(OscillatorSpec(1.0, 8),),
        )
        with pytest.raises(ConfigError):
            SystemSpec(couplings=(CouplingSpec(1, 0, 1, 0.1),), **base)
        with pytest.raises(ConfigError):
            SystemSpec(couplings=(CouplingSpec(0, 1, 1, 0.1),), **base)
        with pytest.raises(ConfigError):  # two couplings on one mode
            SystemSpec(
                couplings=(CouplingSpec(0, 0, 1, 0.1), CouplingSpec(0, 0, 2, 0.1)),
                **base,
            )

    def test_stabilizer_form_rules(self):
        with pytest.raises(ConfigError):
            StabilizerSpec(form="bogus", eta=0.1)
        with pytest.raises(ConfigError):
            StabilizerSpec(form="number_power", eta=-0.1)
        # full_position_power needs an explicit even power m > n.
        with pytest.raises(ConfigError):
            single(n=2, stabilizer=StabilizerSpec("full_position_power", 0.1))
        with pytest.raises(ConfigError):
            single(n=2, stabilizer=StabilizerSpec("full_position_power", 0.1, m=3))
        with pytest.raises(ConfigError):
            single(n=2, stabilizer=StabilizerSpec("full_position_power", 0.1, m=2))
        single(n=2, stabilizer=StabilizerSpec("full_position_power", 0.1, m=4))

    def test_number_power_default_exponent(self):
        assert StabilizerSpec("number_power", 0.1).power(1) == 1
        assert StabilizerSpec("number_power", 0.1).power(3) == 2
        assert StabilizerSpec("number_power", 0.1).power(4) == 3
        assert StabilizerSpec("number_power", 0.1, m=5).power(4) == 5

    def test_stabilizer_requires_single_coupling_scale(self):
        with pytest.raises(ConfigError):
            SystemSpec(
                topology="multiqubit",
                qubits=(QubitSpec(8.0, 2, 0.02), QubitSpec(7.4, 2, 0.03)),
                oscillators=(OscillatorSpec(1.0, 8),),
                stabilizer=StabilizerSpec("number_power", 0.1),
            )

    def test_refusals_pinned_by_message(self):
        cases = [
            (lambda: CouplingSpec(0, 0, 0, 0.1), "coupling order n must be >= 1"),
            (lambda: CouplingSpec(0, 0, 1, -0.1), "strength g must be non-negative"),
            (lambda: StabilizerSpec("number_power", 0.1, m=0), "power m must be >= 1"),
            (
                lambda: SystemSpec("single", (), (OscillatorSpec(1.0, 8),)),
                "at least one qubit",
            ),
            (
                lambda: SystemSpec("single", (QubitSpec(2.5),), ()),
                "at least one oscillator",
            ),
            (
                lambda: SystemSpec(
                    "multimode",
                    (QubitSpec(2.5), QubitSpec(3.0)),
                    (OscillatorSpec(1.0, 8),),
                    (CouplingSpec(0, 0, 1, 0.1),),
                ),
                "multimode topology requires exactly one qubit",
            ),
            (lambda: with_swept(two_mode(), "g5", 0.1), "no coupling 5"),
        ]
        for make, message in cases:
            with pytest.raises(ConfigError, match=message):
                make()

    def test_common_n_mismatch(self):
        spec = SystemSpec(
            topology="multiqubit",
            qubits=(QubitSpec(8.0, 2, 0.02), QubitSpec(7.4, 3, 0.03)),
            oscillators=(OscillatorSpec(1.0, 10),),
        )
        with pytest.raises(ConfigError):
            spec.common_n()
        with pytest.raises(ConfigError):
            build_model(spec, "dispersive")


class TestSerialization:
    def test_round_trip(self):
        for spec in (
            single(stabilizer=StabilizerSpec("number_power", 0.02)),
            pair(),
            two_mode(),
        ):
            assert SystemSpec.from_dict(spec.to_dict()) == spec
            assert SystemSpec.from_json(json.dumps(spec.to_dict())) == spec

    def test_defaults(self):
        spec = SystemSpec.from_dict(
            {
                "topology": "single",
                "qubits": [{"omega_q": 2.5}],
                "oscillators": [{"trunc": 8}],
            }
        )
        assert spec.qubits[0].n == 1
        assert spec.qubits[0].g == 0.0
        assert spec.oscillators[0].omega == 1.0

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            SystemSpec.from_dict(
                {
                    "topology": "single",
                    "qubits": [{"omega_q": 2.5}],
                    "oscillators": [{"trunc": 8}],
                    "extra": 1,
                }
            )
        with pytest.raises(ConfigError):
            SystemSpec.from_dict(
                {
                    "topology": "single",
                    "qubits": [{"omega_q": 2.5, "colour": "red"}],
                    "oscillators": [{"trunc": 8}],
                }
            )

    def test_missing_required_key(self):
        with pytest.raises(ConfigError):
            SystemSpec.from_dict(
                {"topology": "single", "qubits": [{}], "oscillators": [{"trunc": 8}]}
            )

    def test_bad_json_text(self):
        with pytest.raises(ConfigError):
            SystemSpec.from_json("{not json")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            SystemSpec.from_json_file(tmp_path / "nope.json")

    @staticmethod
    def _payload(n=2, trunc=8, m=None, qubit=0, oscillator=0):
        stab = {"form": "number_power", "eta": 0.01}
        if m is not None:
            stab["m"] = m
        return [
            {
                "topology": "single",
                "qubits": [{"omega_q": 2.5, "n": n, "g": 0.01}],
                "oscillators": [{"trunc": trunc}],
                "stabilizer": stab,
            },
            {
                "topology": "multimode",
                "qubits": [{"omega_q": 2.5}],
                "oscillators": [{"trunc": trunc}],
                "couplings": [
                    {"qubit": qubit, "oscillator": oscillator, "n": n, "g": 0.1}
                ],
            },
        ]

    @pytest.mark.parametrize(
        "field",
        [
            {"n": 2.7},
            {"trunc": 120.9},
            {"m": 1.5},
            {"qubit": 0.5},
            {"oscillator": 0.5},
            {"n": True},
            {"m": True},
            {"qubit": False},
        ],
    )
    def test_non_integer_integer_fields_rejected(self, field):
        payloads = self._payload(**field)
        target = payloads[1] if {"qubit", "oscillator"} & set(field) else payloads[0]
        with pytest.raises(ConfigError):
            SystemSpec.from_dict(target)

    def test_integral_values_still_load(self):
        single_p, multi_p = self._payload(n=3, trunc=8.0, m=3)
        spec = SystemSpec.from_dict(single_p)
        assert (spec.qubits[0].n, spec.oscillators[0].trunc) == (3, 8)
        assert spec.stabilizer.m == 3
        assert SystemSpec.from_dict(multi_p).couplings[0].n == 3


class TestWithSwept:
    def test_global_g(self):
        out = with_swept(pair(), "g", 0.05)
        assert all(q.g == 0.05 for q in out.qubits)
        out = with_swept(two_mode(), "g", 0.2)
        assert all(c.g == 0.2 for c in out.couplings)

    def test_indexed_g(self):
        out = with_swept(pair(), "g1", 0.07)
        assert out.qubits[0].g == 0.02 and out.qubits[1].g == 0.07
        out = with_swept(two_mode(), "g0", 0.09)
        assert out.couplings[0].g == 0.09 and out.couplings[1].g == 0.1
        with pytest.raises(ConfigError):
            with_swept(pair(), "g7", 0.1)

    def test_eta(self):
        spec = single(stabilizer=StabilizerSpec("number_power", 0.01))
        assert with_swept(spec, "eta", 0.04).stabilizer.eta == 0.04
        with pytest.raises(ConfigError):
            with_swept(single(), "eta", 0.04)

    def test_unknown_variable(self):
        with pytest.raises(ConfigError):
            with_swept(single(), "omega", 1.0)


NAN, INF = float("nan"), float("inf")
STABILIZED = single(stabilizer=StabilizerSpec("number_power", 0.01))


class TestNonFiniteRejected:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: QubitSpec(omega_q=NAN),
            lambda: QubitSpec(omega_q=INF),
            lambda: QubitSpec(omega_q=2.5, g=NAN),
            lambda: QubitSpec(omega_q=2.5, g=INF),
            lambda: OscillatorSpec(omega=NAN, trunc=8),
            lambda: OscillatorSpec(omega=INF, trunc=8),
            lambda: CouplingSpec(qubit=0, oscillator=0, n=1, g=NAN),
            lambda: CouplingSpec(qubit=0, oscillator=0, n=1, g=INF),
            lambda: StabilizerSpec("number_power", eta=NAN),
            lambda: StabilizerSpec("number_power", eta=INF),
            lambda: with_swept(single(), "g", NAN),
            lambda: with_swept(pair(), "g1", INF),
            lambda: with_swept(two_mode(), "g0", NAN),
            lambda: with_swept(STABILIZED, "eta", INF),
            lambda: SystemSpec.from_json(
                '{"topology": "single", "qubits": [{"omega_q": 2.5, "g": NaN}],'
                ' "oscillators": [{"trunc": 8}]}'
            ),
            lambda: SystemSpec.from_json(
                '{"topology": "single", "qubits": [{"omega_q": 2.5}],'
                ' "oscillators": [{"omega": NaN, "trunc": 8}]}'
            ),
        ],
        ids=[
            "qubit-omega-nan",
            "qubit-omega-inf",
            "qubit-g-nan",
            "qubit-g-inf",
            "oscillator-omega-nan",
            "oscillator-omega-inf",
            "coupling-g-nan",
            "coupling-g-inf",
            "stabilizer-eta-nan",
            "stabilizer-eta-inf",
            "swept-g-nan",
            "swept-g1-inf",
            "swept-coupling-g0-nan",
            "swept-eta-inf",
            "json-g-nan",
            "json-omega-nan",
        ],
    )
    def test_config_error(self, make):
        with pytest.raises(ConfigError, match="must be finite"):
            make()


ALL_BUILDERS = [
    lambda: build_model(single(), "nR"),
    lambda: build_model(single(), "nJC"),
    lambda: build_model(single(n=3), "full_nR"),
    lambda: build_model(single(), "dispersive", "nonrwa"),
    lambda: build_model(single(), "dispersive", "rwa"),
    lambda: build_model(pair(trunc=10), "nDicke"),
    lambda: build_model(pair(trunc=10), "nTC"),
    lambda: build_model(pair(trunc=10), "dispersive"),
    lambda: build_model(pair(trunc=10), "dispersive", "rwa"),
    lambda: build_model(two_mode(), "mmr"),
    lambda: build_model(two_mode(), "mmjc"),
    lambda: build_model(two_mode(), "dispersive"),
    lambda: build_model(two_mode(), "dispersive", "rwa"),
    lambda: build_model(
        single(n=3, stabilizer=StabilizerSpec("number_power", 0.02)), "nR"
    ),
    lambda: build_model(
        single(n=3, stabilizer=StabilizerSpec("number_power", 0.02)), "nJC"
    ),
    lambda: build_model(
        single(n=3, stabilizer=StabilizerSpec("full_position_power", 0.02, m=4)),
        "full_nR",
    ),
    lambda: build_model(
        SystemSpec(
            topology="multiqubit",
            qubits=(QubitSpec(omega_q=3.1, n=3, g=0.05),),
            oscillators=(OscillatorSpec(omega=1.0, trunc=20),),
            stabilizer=StabilizerSpec("number_power", 0.02),
        ),
        "nDicke",
    ),
    lambda: build_model(pair(trunc=10), "dispersive", cross_k0=False),
    lambda: build_model(pair(trunc=10), "dispersive", squeezing=False),
    lambda: build_model(two_mode(), "dispersive", squeezing=False),
    lambda: build_model(
        single(n=2, stabilizer=StabilizerSpec("full_position_power", 0.02, m=4)),
        "nR",
    ),
    lambda: build_model(
        single(n=3, stabilizer=StabilizerSpec("number_power", 0.02)), "dispersive"
    ),
]


class TestBuilderBasics:
    @pytest.mark.parametrize("make", ALL_BUILDERS)
    def test_exactly_hermitian(self, make):
        h = make()
        assert h.hermitian
        assert (h - h.dagger()).max_abs() == 0.0

    def test_topology_guards(self):
        with pytest.raises(ConfigError):
            build_model(pair(), "nR")
        with pytest.raises(ConfigError):
            build_model(single(), "nDicke")
        with pytest.raises(ConfigError):
            build_model(single(), "mmr")
        with pytest.raises(ConfigError):
            build_model(two_mode(), "bogus")

    @pytest.mark.parametrize("model", ALL_MODELS + ("bogus",))
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_topology_guard_every_pair(self, topology, model):
        spec = {"single": single, "multiqubit": pair, "multimode": two_mode}[
            topology
        ]()
        if model in MODELS_BY_TOPOLOGY[topology]:
            assert build_model(spec, model).hermitian
        else:
            with pytest.raises(ConfigError, match=f"topology '{topology}'"):
                build_model(spec, model)

    @pytest.mark.filterwarnings("error")
    def test_entries_beyond_float_range_refused(self):
        # sqrt(m + 1) ... sqrt(m + 300) overflows for the lowest m.
        spec = single(omega_q=300.5, n=300, g=0.01, trunc=310)
        with pytest.raises(ResonanceError, match="36 of 660 .* float range"):
            build_model(spec, "nR")

    @pytest.mark.filterwarnings("error")
    def test_high_order_within_float_range_builds(self):
        h = build_model(single(omega_q=290.5, n=290, g=0.01, trunc=300), "nR")
        assert h.hermitian and np.isfinite(h.data).all()

    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError):
            build_model(single(), "dispersive", "bogus")
        with pytest.raises(ValueError):
            build_model(pair(), "dispersive", "bogus")
        with pytest.raises(ValueError):
            build_model(two_mode(), "dispersive", "bogus")
        with pytest.raises(ValueError):
            two_qubit_block(0, pair(), "bogus")

    def test_order_must_fit_truncation(self):
        with pytest.raises(TruncationError):
            build_model(single(n=5, trunc=4), "nR")
        with pytest.raises(TruncationError):
            build_model(single(n=5, trunc=4), "dispersive")

    def test_njc_charge_conservation_exact(self):
        for n in (1, 2, 3):
            spec = single(n=n, g=0.17, trunc=24)
            h = build_model(spec, "nJC")
            q = charge_operator(spec)
            assert h.commutator(q).max_abs() == 0.0

    def test_ntc_charge_conservation_exact(self):
        spec = pair(trunc=12)
        h = build_model(spec, "nTC")
        assert h.commutator(charge_operator(spec)).max_abs() == 0.0

    def test_nr_breaks_charge_conservation(self):
        spec = single(g=0.1)
        h = build_model(spec, "nR")
        assert h.commutator(charge_operator(spec)).max_abs() > 0.0


class TestSingleQubitStructure:
    def test_nr_matrix_elements(self):
        # <e, j+n | H | g, j> = g sqrt((j+1)...(j+n)) from sigma_x a†^n.
        spec = single(omega_q=2.5, n=2, g=0.3, trunc=8)
        h = build_model(spec, "nR").toarray()
        t = 8
        for j in range(4):
            elem = h[0 * t + j + 2, 1 * t + j]
            assert elem == pytest.approx(
                0.3 * math.sqrt((j + 1) * (j + 2)), rel=1e-15
            )
        # Diagonal: omega j +- omega_q/2.
        assert h[3, 3] == pytest.approx(3 + 1.25)
        assert h[t + 3, t + 3] == pytest.approx(3 - 1.25)

    def test_njc_has_no_counter_rotating_elements(self):
        spec = single(n=2, g=0.3, trunc=8)
        h = build_model(spec, "nJC").toarray()
        # sigma_+ a^n only: <e, j | H | g, j+n> nonzero, <e, j+n | H | g, j> zero.
        assert h[0 * 8 + 0, 1 * 8 + 2] != 0.0
        assert h[0 * 8 + 2, 1 * 8 + 0] == 0.0

    def test_full_nr_contains_all_parities(self):
        # (a + a†)^3 has both one- and three-quantum elements.
        spec = single(n=3, g=0.1, trunc=10)
        h = build_model(spec, "full_nR").toarray()
        assert h[0 * 10 + 1, 1 * 10 + 0] != 0.0  # one quantum
        assert h[0 * 10 + 3, 1 * 10 + 0] != 0.0  # three quanta

    def test_number_power_stabilizer_diagonal(self):
        # n=3 -> default m=2: adds eta g a†²a² = eta g j(j-1) on both branches.
        eta, g = 0.02, 0.05
        base = single(n=3, g=g, trunc=12)
        stab = single(
            n=3, g=g, trunc=12, stabilizer=StabilizerSpec("number_power", eta)
        )
        diff = (build_model(stab, "nR") - build_model(base, "nR")).toarray()
        expected = np.zeros((24, 24))
        for q in range(2):
            for j in range(12):
                expected[q * 12 + j, q * 12 + j] = eta * g * j * (j - 1)
        np.testing.assert_allclose(diff, expected, rtol=0, atol=1e-15)

    def test_position_power_stabilizer_even_spectrum_bounded(self):
        g = 0.1
        stab = single(
            n=3,
            g=g,
            trunc=40,
            stabilizer=StabilizerSpec("full_position_power", 0.05, m=4),
        )
        base = single(n=3, g=g, trunc=40)
        diff = build_model(stab, "full_nR") - build_model(base, "full_nR")
        # eta g (a + a†)^4: positive semidefinite up to truncation effects.
        evals = np.linalg.eigvalsh(diff.toarray())
        assert evals[0] > -1e-12

    def test_full_nr_rejects_number_power_stabilizer(self):
        spec = single(n=3, stabilizer=StabilizerSpec("number_power", 0.1))
        with pytest.raises(ConfigError):
            build_model(spec, "full_nR")

    def test_dispersive_diagonal_is_level_formula_bitwise(self):
        spec = single(omega_q=2.5, n=2, g=0.02, trunc=30)
        p = spec.qubit_params()
        for regime in ("rwa", "nonrwa"):
            h = build_model(spec, "dispersive", regime, squeezing=False)
            diag = h.diagonal().real
            assert h.nnz == 60  # purely diagonal
            for qubit_idx, qubit in enumerate(("e", "g")):
                for j in range(30):
                    assert (
                        diag[qubit_idx * 30 + j]
                        == dispersive_level(p, qubit, j, regime)
                    )

    def test_dispersive_squeezing_elements(self):
        # nonrwa adds (chi+xi)/2 sigma_z (a†^2n + a^2n): signed on e/g branches.
        spec = single(omega_q=2.5, n=1, g=0.05, trunc=10)
        p = spec.qubit_params()
        h = build_model(spec, "dispersive", "nonrwa", squeezing=True).toarray()
        coef = 0.5 * (p.chi + p.xi)
        assert h[0 * 10 + 2, 0 * 10 + 0] == pytest.approx(
            coef * math.sqrt(2), rel=1e-14
        )
        assert h[1 * 10 + 2, 1 * 10 + 0] == pytest.approx(
            -coef * math.sqrt(2), rel=1e-14
        )
        off = build_model(spec, "dispersive", "nonrwa", squeezing=False)
        assert off.nnz == 20

    @pytest.mark.parametrize("regime", ["rwa", "nonrwa"])
    def test_dispersive_beyond_float_range_refused(self, regime):
        with pytest.raises(ResonanceError, match=r"g\*\*2"):
            build_model(single(g=1e200), "dispersive", regime)
        spec = single(omega_q=300.5, n=120, g=1e-6, trunc=1200)
        with pytest.raises(ResonanceError, match="float range"):
            build_model(spec, "dispersive", regime)

    def test_dispersive_rwa_never_has_squeezing(self):
        spec = single(n=1, g=0.05, trunc=10)
        assert build_model(spec, "dispersive", "rwa", squeezing=True).nnz == 20


class TestReductions:
    def test_single_qubit_dicke_equals_nr_exactly(self):
        q = QubitSpec(omega_q=3.2, n=3, g=0.11)
        osc = OscillatorSpec(omega=1.0, trunc=18)
        multi = SystemSpec(topology="multiqubit", qubits=(q,), oscillators=(osc,))
        mono = SystemSpec(topology="single", qubits=(q,), oscillators=(osc,))
        assert (build_model(multi, "nDicke") - build_model(mono, "nR")).max_abs() == 0.0
        assert (build_model(multi, "nTC") - build_model(mono, "nJC")).max_abs() == 0.0

    def test_single_mode_multimode_equals_single_exactly(self):
        q = QubitSpec(omega_q=2.5, n=2, g=0.08)
        osc = OscillatorSpec(omega=1.0, trunc=16)
        mm = SystemSpec(
            topology="multimode",
            qubits=(QubitSpec(omega_q=2.5),),
            oscillators=(osc,),
            couplings=(CouplingSpec(0, 0, 2, 0.08),),
        )
        mono = SystemSpec(topology="single", qubits=(q,), oscillators=(osc,))
        assert (build_model(mm, "mmr") - build_model(mono, "nR")).max_abs() == 0.0
        assert (build_model(mm, "mmjc") - build_model(mono, "nJC")).max_abs() == 0.0

    def test_single_mode_multimode_dispersive_matches(self):
        q = QubitSpec(omega_q=2.5, n=2, g=0.08)
        osc = OscillatorSpec(omega=1.0, trunc=16)
        mm = SystemSpec(
            topology="multimode",
            qubits=(QubitSpec(omega_q=2.5),),
            oscillators=(osc,),
            couplings=(CouplingSpec(0, 0, 2, 0.08),),
        )
        mono = SystemSpec(topology="single", qubits=(q,), oscillators=(osc,))
        for regime in ("rwa", "nonrwa"):
            diff = build_model(mm, "dispersive", regime) - build_model(
                mono, "dispersive", regime
            )
            assert diff.max_abs() == 0.0

    def test_single_qubit_multiqubit_dispersive_matches(self):
        q = QubitSpec(omega_q=2.5, n=2, g=0.08)
        osc = OscillatorSpec(omega=1.0, trunc=16)
        multi = SystemSpec(topology="multiqubit", qubits=(q,), oscillators=(osc,))
        mono = SystemSpec(topology="single", qubits=(q,), oscillators=(osc,))
        for regime in ("rwa", "nonrwa"):
            diff = build_model(multi, "dispersive", regime) - build_model(
                mono, "dispersive", regime
            )
            assert diff.max_abs() == 0.0


class TestTwoQubitBlock:
    @pytest.mark.parametrize("regime", ["rwa", "nonrwa"])
    @pytest.mark.parametrize("cross_k0", [True, False])
    def test_matches_projected_full_model(self, regime, cross_k0):
        spec = pair(trunc=16)
        h = build_model(spec, "dispersive", regime, cross_k0=cross_k0).toarray()
        t = 16
        for j in (0, 3, 7):
            idx = [((q1 * 2 + q2) * t + j) for q1 in (0, 1) for q2 in (0, 1)]
            sector = h[np.ix_(idx, idx)].real
            block = two_qubit_block(j, spec, regime, cross_k0)
            got = np.linalg.eigvalsh(block)
            want = np.linalg.eigvalsh(sector)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_block_structure(self):
        block = two_qubit_block(2, pair(), "nonrwa")
        assert block.shape == (4, 4)
        np.testing.assert_array_equal(block, block.T)
        assert block[0, 3] == block[1, 2]  # same exchange strength both channels
        rwa = two_qubit_block(2, pair(), "rwa")
        assert rwa[0, 3] == 0.0  # no double-flip channel without
        # counter-rotating terms

    def test_opposite_detunings_kill_exchange(self):
        spec = SystemSpec(
            topology="multiqubit",
            qubits=(QubitSpec(2.5, 2, 0.02), QubitSpec(1.5, 2, 0.03)),
            oscillators=(OscillatorSpec(1.0, 10),),
        )
        block = two_qubit_block(4, spec, "rwa")
        assert block[1, 2] == 0.0

    @pytest.mark.parametrize("regime", ["rwa", "nonrwa"])
    def test_zero_detuning_raises_resonance_error(self, regime):
        # delta_1 = 0: the levels must refuse it before _cross_strengths
        # divides by it.
        spec = SystemSpec(
            topology="multiqubit",
            qubits=(QubitSpec(2.0, 2, 0.02), QubitSpec(7.4, 2, 0.03)),
            oscillators=(OscillatorSpec(1.0, 10),),
        )
        with pytest.raises(ResonanceError, match="delta vanishes"):
            two_qubit_block(2, spec, regime)

    def test_zero_sigma_defined_under_rwa_only(self):
        # omega_q = -n omega_o gives sigma_1 = 0, which only nonrwa needs.
        spec = SystemSpec(
            topology="multiqubit",
            qubits=(QubitSpec(-2.0, 2, 0.02), QubitSpec(7.4, 2, 0.03)),
            oscillators=(OscillatorSpec(1.0, 10),),
        )
        block = two_qubit_block(2, spec, "rwa")
        assert np.isfinite(block).all() and block[1, 2] != 0.0
        with pytest.raises(ResonanceError, match="sigma vanishes"):
            two_qubit_block(2, spec, "nonrwa")

    def test_validation(self):
        with pytest.raises(ConfigError):
            two_qubit_block(0, single())
        spec3 = SystemSpec(
            topology="multiqubit",
            qubits=(QubitSpec(8.0, 2, 0.02),) * 3,
            oscillators=(OscillatorSpec(1.0, 8),),
        )
        with pytest.raises(ConfigError):
            two_qubit_block(0, spec3)
        with pytest.raises(ValueError):
            two_qubit_block(-1, pair())


class TestMultimodeStructure:
    def test_rwa_cross_mode_hop_element(self):
        # <e; 1, 0 | H | e; 0, 2>: one quantum into mode 0, two out of mode 1,
        # strength chi_x/2 with sigma_z = +1 on the excited branch.
        spec = two_mode(n2=2, trunc=6)
        p0 = DispersiveParams.from_frequencies(3.0, 1, 0.1, 1.0)
        p1 = DispersiveParams.from_frequencies(3.0, 2, 0.1, 1.0)
        chi_x = 0.1 * 0.1 * (1 / p0.delta + 1 / p1.delta)
        h = build_model(spec, "dispersive", "rwa").toarray()
        t = 6
        row = (0 * t + 1) * t + 0  # |e; 1, 0>
        col = (0 * t + 0) * t + 2  # |e; 0, 2>
        assert h[row, col] == pytest.approx(
            0.5 * chi_x * math.sqrt(2), rel=1e-14
        )
        grow = (1 * t + 1) * t + 0  # |g; 1, 0>
        gcol = (1 * t + 0) * t + 2
        assert h[grow, gcol] == pytest.approx(
            -0.5 * chi_x * math.sqrt(2), rel=1e-14
        )

    def test_nonrwa_cross_term_adds_joint_raising(self):
        # (a0 + a0†)(a1^2 + a1†^2) includes <e; 1, 2 | ... | e; 0, 0>.
        spec = two_mode(n2=2, trunc=6)
        h_rwa = build_model(spec, "dispersive", "rwa").toarray()
        h_non = build_model(spec, "dispersive", "nonrwa").toarray()
        t = 6
        row = (0 * t + 1) * t + 2
        col = (0 * t + 0) * t + 0
        assert h_rwa[row, col] == 0.0
        assert h_non[row, col] != 0.0


class TestDirectConstructionStrict:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: QubitSpec(2.5, n=2.7),
            lambda: QubitSpec(2.5, n=True),
            lambda: OscillatorSpec(1.0, 8.5),
            lambda: CouplingSpec(0.5, 0, 1, 0.1),
            lambda: StabilizerSpec("number_power", 0.1, m=1.5),
        ],
        ids=["qubit-n-fraction", "qubit-n-bool", "trunc-fraction",
             "coupling-qubit-fraction", "stabilizer-m-fraction"],
    )
    def test_fractional_and_boolean_integers_rejected(self, make):
        with pytest.raises(ConfigError, match="must be an integer"):
            make()

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: QubitSpec("2.5"), "qubit frequency must be a number"),
            (lambda: QubitSpec(2.5, g=True), "coupling strength g must be a number"),
            (lambda: QubitSpec(2.5, n="3"), "coupling order n must be an integer"),
            (lambda: OscillatorSpec(True, 8), "oscillator frequency must be a number"),
            (lambda: OscillatorSpec(1.0, "8"), "truncation must be an integer"),
            (lambda: CouplingSpec(0, 0, 1, "0.1"), "strength g must be a number"),
            (lambda: StabilizerSpec("number_power", "0.1"), "eta must be a number"),
        ],
        ids=["omega_q-str", "g-bool", "n-str", "omega-bool", "trunc-str",
             "coupling-g-str", "eta-str"],
    )
    def test_strings_and_booleans_rejected_as_numbers(self, make, message):
        with pytest.raises(ConfigError, match=message):
            make()

    def test_integer_beyond_float_range_rejected(self):
        payload = json.loads(json.dumps(_SINGLE_PAYLOAD))
        payload["qubits"][0]["omega_q"] = 10**400
        with pytest.raises(ConfigError, match="qubit frequency must be finite"):
            SystemSpec.from_dict(payload)

    def test_numpy_scalars_load(self):
        spec = QubitSpec(np.float32(2.5), n=np.int64(2), g=np.float64(0.02))
        assert (spec.omega_q, spec.n, spec.g) == (2.5, 2, 0.02)
        assert type(spec.n) is int and type(spec.omega_q) is float
        assert OscillatorSpec(1, np.float64(8.0)).trunc == 8


class TestToDictLiteral:
    @pytest.mark.parametrize(
        "spec, expected",
        [
            (
                single(stabilizer=StabilizerSpec("number_power", 0.02, m=3)),
                {
                    "topology": "single",
                    "qubits": [{"omega_q": 2.5, "n": 2, "g": 0.02}],
                    "oscillators": [{"omega": 1.0, "trunc": 20}],
                    "stabilizer": {"form": "number_power", "eta": 0.02, "m": 3},
                },
            ),
            (
                single(stabilizer=StabilizerSpec("number_power", 0.02)),
                {
                    "topology": "single",
                    "qubits": [{"omega_q": 2.5, "n": 2, "g": 0.02}],
                    "oscillators": [{"omega": 1.0, "trunc": 20}],
                    "stabilizer": {"form": "number_power", "eta": 0.02},
                },
            ),
            (
                pair(),
                {
                    "topology": "multiqubit",
                    "qubits": [
                        {"omega_q": 8.0, "n": 2, "g": 0.02},
                        {"omega_q": 7.4, "n": 2, "g": 0.03},
                    ],
                    "oscillators": [{"omega": 1.0, "trunc": 16}],
                },
            ),
            (
                two_mode(),
                {
                    "topology": "multimode",
                    "qubits": [{"omega_q": 3.0, "n": 1, "g": 0.0}],
                    "oscillators": [
                        {"omega": 1.0, "trunc": 8},
                        {"omega": 1.0, "trunc": 8},
                    ],
                    "couplings": [
                        {"qubit": 0, "oscillator": 0, "n": 1, "g": 0.1},
                        {"qubit": 0, "oscillator": 1, "n": 2, "g": 0.1},
                    ],
                },
            ),
        ],
        ids=["stabilized-with-m", "stabilized-without-m", "two-qubit", "two-mode"],
    )
    def test_to_dict_pins_provenance_config(self, spec, expected):
        assert spec.to_dict() == expected
        # Equal dicts may still print differently (2 == 2.0).
        assert json.dumps(spec.to_dict(), sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )


_DELETE = object()
_SINGLE_PAYLOAD = {
    "topology": "single",
    "qubits": [{"omega_q": 2.5, "n": 2, "g": 0.01}],
    "oscillators": [{"omega": 1.0, "trunc": 8}],
    "stabilizer": {"form": "number_power", "eta": 0.01, "m": 2},
}
_MULTIMODE_PAYLOAD = {
    "topology": "multimode",
    "qubits": [{"omega_q": 2.5, "n": 1, "g": 0.0}],
    "oscillators": [{"omega": 1.0, "trunc": 8}],
    "couplings": [{"qubit": 0, "oscillator": 0, "n": 1, "g": 0.1}],
}
# (base payload, path to the edited key, new value or _DELETE)
_MALFORMED = [
    *[
        (_SINGLE_PAYLOAD, path, None)
        for path in [
            ("topology",),
            ("qubits",),
            ("oscillators",),
            ("stabilizer",),
            ("qubits", 0, "omega_q"),
            ("qubits", 0, "n"),
            ("qubits", 0, "g"),
            ("oscillators", 0, "omega"),
            ("oscillators", 0, "trunc"),
            ("stabilizer", "form"),
            ("stabilizer", "eta"),
            ("stabilizer", "m"),
        ]
    ],
    *[
        (_MULTIMODE_PAYLOAD, path, None)
        for path in [
            ("couplings",),
            ("couplings", 0, "qubit"),
            ("couplings", 0, "oscillator"),
            ("couplings", 0, "n"),
            ("couplings", 0, "g"),
        ]
    ],
    (_SINGLE_PAYLOAD, ("qubits",), {"omega_q": 2.5}),
    (_SINGLE_PAYLOAD, ("qubits",), 5),
    (_SINGLE_PAYLOAD, ("oscillators",), "trunc"),
    (_SINGLE_PAYLOAD, ("oscillators",), 8),
    (_MULTIMODE_PAYLOAD, ("couplings",), 5),
    (_MULTIMODE_PAYLOAD, ("couplings",), "qubit"),
    (_SINGLE_PAYLOAD, ("qubits", 0), 2.5),
    (_SINGLE_PAYLOAD, ("oscillators", 0), 8),
    (_MULTIMODE_PAYLOAD, ("couplings", 0), [0, 0, 1, 0.1]),
    (_SINGLE_PAYLOAD, ("stabilizer",), "number_power"),
    (_SINGLE_PAYLOAD, ("topology",), _DELETE),
    (_SINGLE_PAYLOAD, ("qubits",), _DELETE),
    (_SINGLE_PAYLOAD, ("oscillators",), _DELETE),
    (_SINGLE_PAYLOAD, ("qubits", 0, "omega_q"), _DELETE),
    (_SINGLE_PAYLOAD, ("oscillators", 0, "trunc"), _DELETE),
    (_SINGLE_PAYLOAD, ("stabilizer", "form"), _DELETE),
    (_SINGLE_PAYLOAD, ("stabilizer", "eta"), _DELETE),
    (_MULTIMODE_PAYLOAD, ("couplings", 0, "qubit"), _DELETE),
    (_MULTIMODE_PAYLOAD, ("couplings", 0, "oscillator"), _DELETE),
    (_MULTIMODE_PAYLOAD, ("couplings", 0, "n"), _DELETE),
    (_MULTIMODE_PAYLOAD, ("couplings", 0, "g"), _DELETE),
    *[
        (_SINGLE_PAYLOAD, path, value)
        for path, value in [
            (("qubits", 0, "omega_q"), "2.5"),
            (("qubits", 0, "g"), True),
            (("qubits", 0, "n"), "3"),
            (("oscillators", 0, "omega"), True),
            (("oscillators", 0, "trunc"), "8"),
            (("stabilizer", "eta"), "0.01"),
            (("stabilizer", "m"), "2"),
        ]
    ],
    (_MULTIMODE_PAYLOAD, ("couplings", 0, "qubit"), "0"),
    (_MULTIMODE_PAYLOAD, ("couplings", 0, "g"), True),
    (_SINGLE_PAYLOAD, ("extra",), 1),
    (_SINGLE_PAYLOAD, ("qubits", 0, "colour"), "red"),
    (_SINGLE_PAYLOAD, ("oscillators", 0, "kind"), "mode"),
    (_SINGLE_PAYLOAD, ("stabilizer", "power"), 2),
    (_MULTIMODE_PAYLOAD, ("couplings", 0, "phase"), 0.0),
]


def _malformed_id(case):
    _, path, value = case
    what = "missing" if value is _DELETE else json.dumps(value)
    return "/".join(map(str, path)) + "=" + what


class TestMalformedPayloads:
    def test_bases_load(self):
        SystemSpec.from_dict(_SINGLE_PAYLOAD)
        SystemSpec.from_dict(_MULTIMODE_PAYLOAD)

    @pytest.mark.parametrize(
        "base, path, value", _MALFORMED, ids=map(_malformed_id, _MALFORMED)
    )
    def test_config_error(self, base, path, value):
        payload = json.loads(json.dumps(base))
        *parents, last = path
        target = payload
        for key in parents:
            target = target[key]
        if value is _DELETE:
            del target[last]
        else:
            target[last] = value
        with pytest.raises(ConfigError):
            SystemSpec.from_dict(payload)

    def test_non_object_payload(self):
        with pytest.raises(ConfigError):
            SystemSpec.from_dict([_SINGLE_PAYLOAD])


def _public_terms(spec, model, regime="nonrwa", squeezing=True, cross_k0=True):
    """``(coefficient, operator)`` interaction terms of :func:`build_model`, in
    its order, each one formed by the public operator algebra (``destroy``,
    ``op_pow``, ``pauli``, ``embed``) from the model definitions of its
    docstring."""
    layout = spec.layout()
    dims, nq = layout.dims, len(spec.qubits)
    if spec.topology == "multimode":
        couplings = sorted(spec.couplings, key=lambda c: c.oscillator)
        couplings = [(c.qubit, nq + c.oscillator, c.n, c.g) for c in couplings]
    else:
        couplings = [(l, nq, q.n, q.g) for l, q in enumerate(spec.qubits)]
    x, z = pauli("x"), pauli("z")
    up, down = pauli("plus"), pauli("minus")

    def term(coef, factors):
        """``(coef, embed of {slot: operator})``."""
        return coef, embed(layout, factors.items())

    terms = []
    if model != "dispersive":
        for l, k, n, g in couplings:
            a = destroy(dims[k])
            an = op_pow(a, n)
            if model == "full_nR":
                terms.append(term(g, {l: x, k: op_pow(a + a.dagger(), n)}))
            elif model in ("nJC", "nTC", "mmjc"):
                terms.append(term(g, {l: up, k: an}))
                terms.append(term(g, {l: down, k: an.dagger()}))
            else:
                terms.append(term(g, {l: x, k: an + an.dagger()}))
        stab = spec.stabilizer
        if stab is not None:
            q = spec.qubits[0]
            a, m = destroy(dims[nq]), stab.power(q.n)
            if stab.form == "number_power":
                local = op_pow(a, m).dagger() @ op_pow(a, m)
            else:
                local = op_pow(a + a.dagger(), m)
            terms.append(term(stab.eta * q.g, {nq: local}))
        return terms

    params = [
        DispersiveParams.from_frequencies(
            spec.qubits[l].omega_q, n, g, spec.oscillators[k - nq].omega
        )
        for l, k, n, g in couplings
    ]
    for (l, k, n, _), p in zip(couplings, params):
        if regime == "nonrwa" and squeezing:
            chi, xi = p._strengths(regime)
            a2n = op_pow(destroy(dims[k]), 2 * n)
            terms.append(term(0.5 * (chi + xi), {l: z, k: a2n + a2n.dagger()}))
    for i, ((li, ki, ni, _), pi) in enumerate(zip(couplings, params)):
        for (lj, kj, nj, _), pj in zip(couplings[:i], params[:i]):
            chi_x, xi_x = _cross_strengths(pi, pj, regime)
            if ki == kj:
                coeffs = _number_polys(ni, cross_k0)[2]
                mode = HilbertLayout((layout.subsystems[ki],))
                p_cross = SparseOperator.from_dense(
                    mode, np.diag([_poly_value(coeffs, j) for j in range(dims[ki])])
                )
                coef = 0.5 * (chi_x - xi_x)
                if regime == "rwa":
                    terms.append(term(coef, {li: up, lj: down, ki: p_cross}))
                    terms.append(term(coef, {li: down, lj: up, ki: p_cross}))
                else:
                    terms.append(term(coef, {li: x, lj: x, ki: p_cross}))
            else:
                a = op_pow(destroy(dims[ki]), ni)
                b = op_pow(destroy(dims[kj]), nj).dagger()
                coef = 0.5 * (chi_x + xi_x)
                if regime == "rwa":
                    terms.append(term(coef, {li: z, ki: a, kj: b}))
                    terms.append(term(coef, {li: z, ki: a.dagger(), kj: b.dagger()}))
                else:
                    ops = {ki: a + a.dagger(), kj: b + b.dagger()}
                    terms.append(term(coef, {li: z, **ops}))
    return terms


def _bits(array):
    """The bytes of an array, with its dtype: equal only if bit for bit."""
    return array.dtype.str, array.shape, array.tobytes()


def _three_qubits():
    return SystemSpec(
        topology="multiqubit",
        qubits=tuple(
            QubitSpec(omega_q=5.0 + 0.37 * l, n=2, g=0.01 * (l + 1)) for l in range(3)
        ),
        oscillators=(OscillatorSpec(omega=1.0, trunc=14),),
    )


#: Models where three or more terms add into one entry (the squeezing terms
#: of three qubits on one mode), so that the summation order shows.
OVERLAPPING_BUILDERS = [
    lambda: build_model(_three_qubits(), "dispersive"),
    lambda: build_model(_three_qubits(), "dispersive", cross_k0=False),
]


class TestAssemblyBits:
    """The NumPy assembler reproduces, bit for bit, the sum of the public
    kron-built terms, added in :func:`build_model`'s order to its diagonal.
    No entry is moved by the summation order."""

    @pytest.mark.parametrize("make", ALL_BUILDERS + OVERLAPPING_BUILDERS)
    def test_matches_public_algebra(self, make, monkeypatch):
        calls, diagonals = [], []

        def recording_build(*args, **kwargs):
            calls.append((args, kwargs))
            return models.build_model(*args, **kwargs)

        def recording_assemble(layout, diag, terms):
            diagonals.append(diag)
            return assemble(layout, diag, terms)

        assemble = models._assemble
        # The builders call this module's build_model.
        monkeypatch.setitem(globals(), "build_model", recording_build)
        monkeypatch.setattr(models, "_assemble", recording_assemble)
        h = make()
        (args, kwargs), (diag,) = calls[0], diagonals
        layout = h.layout
        states = np.arange(layout.total_dim)
        want = SparseOperator.from_coo(layout, states, states, diag)
        for coef, op in _public_terms(*args, **kwargs):
            want = want + coef * op
        for name in ("indptr", "indices", "data"):
            assert _bits(getattr(h, name)) == _bits(getattr(want, name)), name


class TestSchriefferWolffOracle:
    """The off-diagonal terms of the ``dispersive`` model against the exact
    Schrieffer-Wolff rotation of the exact model (Bravyi, DiVincenzo & Loss,
    Ann. Phys. 326, 2793, 2011, section 3): ``U = sqrt((2 P0 - 1)(2 P - 1))``,
    with ``P0`` the projector onto the unperturbed subspace and ``P`` the
    spectral projector of the exact model matched to it.  ``U H U^dagger``
    commutes with ``P0``, and its elements agree with the second-order model
    up to fourth order in ``g``: the error falls as ``g**4`` (slope 4 on a
    log-log plot)."""

    @staticmethod
    def _rotated(h, p0):
        """``U H U^dagger`` of the dense Hermitian ``h`` for the diagonal
        projector ``p0`` (0/1 per basis state)."""
        energies, vectors = np.linalg.eigh(h)
        weights = p0 @ np.abs(vectors) ** 2
        assert np.all((weights >= 0.9) | (weights <= 0.1)), weights
        matched = vectors[:, weights >= 0.5]
        assert matched.shape[1] == p0.sum()
        reflect = 2.0 * matched @ matched.conj().T - np.eye(len(p0))
        u = scipy.linalg.sqrtm(np.diag(2.0 * p0 - 1.0) @ reflect)
        rotated = u @ (vectors * energies) @ vectors.conj().T @ u.conj().T
        # Block diagonal: P0 H Q0 vanishes up to roundoff.
        assert np.abs(rotated[np.ix_(p0 == 1, p0 == 0)]).max() < 1e-12
        return rotated

    def _slope(self, make, model, regime, p0_of, bra, ket):
        errors = []
        for g in (0.004, 0.008):
            spec = make(g)
            layout = spec.layout()
            i, j = layout.basis_index(bra), layout.basis_index(ket)
            p0 = p0_of(layout.occupation_vectors()).astype(float)
            rotated = self._rotated(build_model(spec, model).toarray(), p0)
            effective = build_model(spec, "dispersive", regime).toarray()[i, j]
            # The element is a second-order term: not zero, and matched up
            # to corrections of higher order.
            assert abs(effective) > 0
            errors.append(abs(rotated[i, j] - effective))
            assert errors[-1] < 1e-2 * abs(effective)
        return math.log2(errors[1] / errors[0])

    @pytest.mark.parametrize(
        "n, omega_q, trunc",
        [(1, 1.7, 30), (2, 3.0, 24), (3, 5.0, 16)],
        ids=["n1", "n2", "n3"],
    )
    def test_squeezing(self, n, omega_q, trunc):
        # <e, 2n+1| . |e, 1>: the qubit-conditional 2n-photon squeezing of nR.
        slope = self._slope(
            lambda g: single(omega_q=omega_q, n=n, g=g, trunc=trunc),
            "nR",
            "nonrwa",
            lambda occ: occ[:, 0] == 0,
            (0, 2 * n + 1),
            (0, 1),
        )
        assert slope >= 3.8

    def test_rwa_exchange(self):
        # <eg, 3| . |ge, 3>: the photon-number-dependent qubit-qubit exchange
        # of nTC, with P0 on the one-excitation qubit configurations.
        def make(g):
            return SystemSpec(
                topology="multiqubit",
                qubits=(
                    QubitSpec(omega_q=2.5, n=2, g=g),
                    QubitSpec(omega_q=2.8, n=2, g=g),
                ),
                oscillators=(OscillatorSpec(omega=1.0, trunc=16),),
            )

        slope = self._slope(
            make,
            "nTC",
            "rwa",
            lambda occ: occ[:, :2].sum(axis=1) == 1,
            (0, 1, 3),
            (1, 0, 3),
        )
        assert slope >= 3.8

    def test_nonrwa_exchange(self):
        # <eg, 3| . |ge, 3>: the qubit-qubit exchange of nDicke, counter-
        # rotating terms included.
        def make(g):
            return SystemSpec(
                topology="multiqubit",
                qubits=(
                    QubitSpec(omega_q=2.6, n=2, g=g),
                    QubitSpec(omega_q=3.0, n=2, g=g),
                ),
                oscillators=(OscillatorSpec(omega=1.0, trunc=16),),
            )

        slope = self._slope(
            make,
            "nDicke",
            "nonrwa",
            lambda occ: occ[:, :2].sum(axis=1) == 1,
            (0, 1, 3),
            (1, 0, 3),
        )
        assert slope >= 3.8

    @pytest.mark.parametrize("model, regime", [("mmjc", "rwa"), ("mmr", "nonrwa")])
    def test_mode_mode_exchange(self, model, regime):
        # <e; 1, 1| . |e; 0, 3>: the qubit-conditional exchange of one photon
        # of the first mode (n=1) with two of the second (n=2).
        def make(g):
            return SystemSpec(
                topology="multimode",
                qubits=(QubitSpec(omega_q=3.7),),
                oscillators=(
                    OscillatorSpec(omega=1.0, trunc=10),
                    OscillatorSpec(omega=1.3, trunc=10),
                ),
                couplings=(
                    CouplingSpec(qubit=0, oscillator=0, n=1, g=g),
                    CouplingSpec(qubit=0, oscillator=1, n=2, g=g),
                ),
            )

        slope = self._slope(
            make, model, regime, lambda occ: occ[:, 0] == 0, (0, 1, 1), (0, 0, 3)
        )
        assert slope >= 3.8
