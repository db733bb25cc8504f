"""One argument rule at every public entry, generated from the signatures.

The battery walks ``dispersive_nphoton.__all__`` (constructors and public
methods of its classes included) plus ``solve_lowest`` and ``propagator``
with ``inspect.signature``; the parameter annotations are the contract.
Every ``int`` parameter refuses ``True``, ``"2"`` and ``2.5``, and every
``float`` or ``complex`` parameter refuses ``True``, ``"x"`` and NaN, each
with :class:`ConfigError`; ``Optional[...]`` of either counts too.  Each
such parameter needs a base call in ``BASE`` (a call that succeeds) or an
entry, with its reason, in ``LEFT_OUT``.
"""

from __future__ import annotations

import inspect
import math
import typing

import pytest

import dispersive_nphoton as dn
from dispersive_nphoton import ConfigError
from dispersive_nphoton.cli import parse_sweep
from dispersive_nphoton.dynamics import propagator
from dispersive_nphoton.eigensolve import solve_lowest

LAYOUT = dn.qubit_oscillator_layout(1, (4,))
SPEC = dn.SystemSpec(
    "single", (dn.QubitSpec(2.5, 2, 0.02),), (dn.OscillatorSpec(1.0, 8),)
)
PAIR = dn.SystemSpec(
    "multiqubit",
    (dn.QubitSpec(2.5, 2, 0.01), dn.QubitSpec(2.8, 2, 0.02)),
    (dn.OscillatorSpec(1.0, 8),),
)
PARAMS = dn.DispersiveParams.from_frequencies(2.5, 2, 0.02)
H = dn.build_model(SPEC, "nR")
RESULT = dn.eigh_dense(H)
PSI = dn.basis_state(SPEC.layout(), (0, 0))
STABILIZER = dn.StabilizerSpec("number_power", 0.1)

#: A call that succeeds, per callable: ``(function, keyword arguments)``.
BASE = {
    "HilbertLayout.basis_occupations": (LAYOUT.basis_occupations, {"index": 3}),
    "HilbertLayout.label_of": (LAYOUT.label_of, {"index": 3}),
    "destroy": (dn.destroy, {"dim": 4}),
    "create": (dn.create, {"dim": 4}),
    "number": (dn.number, {"dim": 4}),
    "identity": (dn.identity, {"dim": 4}),
    "position": (dn.position, {"dim": 4}),
    "op_pow": (dn.op_pow, {"a": dn.destroy(4), "exponent": 2}),
    "guard_band_mask": (dn.guard_band_mask, {"layout": LAYOUT, "order": 1, "band": 1}),
    "qubit_oscillator_layout": (
        dn.qubit_oscillator_layout,
        {"n_qubits": 1, "truncs": (4,)},
    ),
    "stirling2": (dn.stirling2, {"n": 3, "k": 2}),
    "c_coeff": (dn.c_coeff, {"n": 3, "k": 1, "sign": "plus"}),
    "normal_order_aadag": (dn.normal_order_aadag, {"n": 3}),
    "commutator_poly": (dn.commutator_poly, {"n": 3}),
    "eval_int_poly": (dn.eval_int_poly, {"coeffs": (1, 2), "x": 3}),
    "DispersiveParams": (
        dn.DispersiveParams,
        {"n": 2, "g": 0.02, "delta": 0.5, "sigma": 4.5},
    ),
    "DispersiveParams.from_frequencies": (
        dn.DispersiveParams.from_frequencies,
        {"omega_q": 2.5, "n": 2, "g": 0.02, "omega_o": 1.0},
    ),
    "dispersive_level": (
        dn.dispersive_level,
        {"params": PARAMS, "qubit": "e", "j": 3},
    ),
    "njc_doublet": (dn.njc_doublet, {"params": PARAMS, "l": 3}),
    "critical_photon_number": (
        dn.critical_photon_number,
        {"n": 2, "g": 0.02, "delta": 0.5},
    ),
    "dressed_qubit_frequency": (
        dn.dressed_qubit_frequency,
        {"params": PARAMS, "alpha_abs": 1.0},
    ),
    "effective_two_qubit_params": (
        dn.effective_two_qubit_params,
        {"spec": PAIR, "alpha_abs": 1.0},
    ),
    "QubitSpec": (dn.QubitSpec, {"omega_q": 2.5, "n": 2, "g": 0.02}),
    "OscillatorSpec": (dn.OscillatorSpec, {"omega": 1.0, "trunc": 8}),
    "CouplingSpec": (
        dn.CouplingSpec,
        {"qubit": 0, "oscillator": 0, "n": 2, "g": 0.02},
    ),
    "StabilizerSpec": (
        dn.StabilizerSpec,
        {"form": "number_power", "eta": 0.1, "m": 2},
    ),
    "StabilizerSpec.power": (STABILIZER.power, {"n": 2}),
    "SystemSpec.qubit_params": (PAIR.qubit_params, {"index": 1}),
    "with_swept": (dn.with_swept, {"spec": SPEC, "var": "g", "value": 0.03}),
    "two_qubit_block": (dn.two_qubit_block, {"j": 3, "spec": PAIR}),
    "eigs_lowest": (dn.eigs_lowest, {"h": H, "k": 2, "tol": 1e-10, "max_iters": 50}),
    "solve_lowest": (solve_lowest, {"h": H, "k": 2, "max_iters": 50}),
    "filter_by_mean_photon": (
        dn.filter_by_mean_photon,
        {"result": RESULT, "nbar_max": 3.0},
    ),
    "track_levels": (
        dn.track_levels,
        {"results": [RESULT, RESULT], "continuity_floor": 0.5},
    ),
    "StateVector": (
        dn.StateVector,
        {"layout": PSI.layout, "amplitudes": PSI.amplitudes, "norm_tol": 1e-12},
    ),
    "coherent_state": (dn.coherent_state, {"alpha": 0.5 + 0.5j, "trunc": 30}),
    "evolve": (
        dn.evolve,
        {"h": H, "psi0": PSI, "t": 1.0, "krylov_dim": 4, "local_tol": 1e-10},
    ),
    "propagator": (propagator, {"h": H, "krylov_dim": 4, "local_tol": 1e-10}),
}

#: Numeric parameters the rule does not cover, each with its reason.
LEFT_OUT = {
    "LevelCurve.terminated_at": "a result record field, written by track_levels",
}

BAD = {
    int: [True, "2", 2.5],
    float: [True, "x", math.nan],
    complex: [True, "x", math.nan],
}


def _kind(annotation):
    """``int``, ``float`` or ``complex`` for such an annotation or an
    ``Optional`` of one; None otherwise."""
    if typing.get_origin(annotation) is typing.Union:
        args = [a for a in typing.get_args(annotation) if a is not type(None)]
        annotation = args[0] if len(args) == 1 else None
    return annotation if annotation in BAD else None


def _entries():
    """``(qualified name, function)`` of every public entry walked."""
    objects = {n: getattr(dn, n) for n in dn.__all__ if n != "__version__"}
    objects.update(solve_lowest=solve_lowest, propagator=propagator)
    for name, obj in objects.items():
        if not inspect.isclass(obj):
            yield name, obj
        elif not issubclass(obj, Exception):
            yield name, obj
            for attr, value in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(value, (classmethod, staticmethod)):
                    yield f"{name}.{attr}", getattr(obj, attr)
                elif inspect.isfunction(value):
                    yield f"{name}.{attr}", value


def _numeric_parameters():
    """``(qualified name, parameter, kind)`` of every numeric parameter."""
    found = []
    for name, func in _entries():
        signature = inspect.signature(func, eval_str=True)
        for param in signature.parameters.values():
            kind = _kind(param.annotation)
            if kind is not None:
                found.append((name, param.name, kind))
    return found


NUMERIC = _numeric_parameters()
COVERED = [p for p in NUMERIC if f"{p[0]}.{p[1]}" not in LEFT_OUT]
CASES = [
    pytest.param(name, param, bad, id=f"{name}.{param}-{bad!r}")
    for name, param, kind in COVERED
    for bad in BAD[kind]
]


def test_every_numeric_parameter_has_a_base_call_or_a_reason():
    assert len(NUMERIC) >= 60
    missing = [f"{n}.{p}" for n, p, _ in COVERED if n not in BASE]
    assert missing == []
    stale = [key for key in LEFT_OUT if key not in {f"{n}.{p}" for n, p, _ in NUMERIC}]
    assert stale == []


@pytest.mark.parametrize("name", sorted(BASE))
def test_base_call_succeeds(name):
    func, kwargs = BASE[name]
    func(**kwargs)


@pytest.mark.parametrize("name, param, bad", CASES)
def test_refused_with_config_error(name, param, bad):
    func, kwargs = BASE[name]
    with pytest.raises(ConfigError):
        func(**{**kwargs, param: bad})


#: The inputs that used to be read with a bare ``int()``/``float()``.
MOTIVATION_CASES = {
    "eigs_lowest-k-2.9": lambda: dn.eigs_lowest(H, 2.9),
    "layout-dim-3.9": lambda: dn.HilbertLayout((("oscillator", 3.9),)),
    "eval_int_poly-x-2.5": lambda: dn.eval_int_poly((1, 2), 2.5),
    "op_pow-exponent-2.7": lambda: dn.op_pow(dn.destroy(4), 2.7),
    "evolve-t-str": lambda: dn.evolve(H, PSI, "2"),
    "coherent_state-trunc-30.7": lambda: dn.coherent_state(0.5, 30.7),
    "from_frequencies-omega_q-str": lambda: dn.DispersiveParams.from_frequencies(
        "x", 2, 0.01
    ),
    "parse_sweep-superscript-two": lambda: parse_sweep("g²:0:0.1:2"),
    "parse_sweep-arabic-indic-zero": lambda: parse_sweep("g٠:0:0.1:2"),
    "with_swept-superscript-two": lambda: dn.with_swept(SPEC, "g²", 0.1),
}


@pytest.mark.parametrize("case", sorted(MOTIVATION_CASES))
def test_named_case_refused(case):
    with pytest.raises(ConfigError):
        MOTIVATION_CASES[case]()


def test_whole_reals_and_numpy_scalars_pass_unchanged():
    import numpy as np

    assert dn.destroy(np.int64(4)).layout == dn.destroy(4.0).layout
    assert dn.eval_int_poly((1, np.int64(2)), np.int64(3)) == 7
    assert dn.coherent_state(np.complex128(0.5), 30).amplitudes.tobytes() == (
        dn.coherent_state(0.5, 30.0).amplitudes.tobytes()
    )
