"""Multiphoton qubit-oscillator models on truncated Fock spaces.

A library (plus the ``dispersive-nphoton`` command line tool) for systems in
which a qubit exchanges ``n`` oscillator quanta at a time:

* exact sparse Hamiltonians for single-qubit, multiqubit, and multimode
  topologies, with and without counter-rotating terms (:mod:`.models`);
* exact integer normal-ordering combinatorics behind all of the effective
  descriptions (:mod:`.combinatorics`);
* closed-form second-order dispersive spectra, doublet energies, critical
  photon numbers, and coherent-state-dressed parameters (:mod:`.analytic`);
* deterministic dense/Lanczos eigensolvers with bare-state labeling,
  photon-number filtering, and sweep-continuation tracking
  (:mod:`.eigensolve`) — the workhorses for studying spectral instability
  of unbounded models and its stabilization;
* time evolution (exact per-block propagation of every block whose
  eigenvectors fit the dense budget, Krylov on each block beyond it),
  reduced states, and fidelity experiments comparing exact and
  dispersive dynamics (:mod:`.dynamics`).

All frequencies are expressed in units of the (first) oscillator frequency.
"""

from .analytic import (
    DispersiveParams,
    critical_photon_number,
    dispersive_level,
    dressed_qubit_frequency,
    effective_two_qubit_params,
    njc_doublet,
)
from .combinatorics import (
    c_coeff,
    commutator_poly,
    eval_int_poly,
    normal_order_aadag,
    stirling2,
)
from .dynamics import (
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
from .eigensolve import (
    LevelCurve,
    SpectrumResult,
    eigh_dense,
    eigs_lowest,
    filter_by_mean_photon,
    label_by_overlap,
    track_levels,
)
from .errors import (
    CapacityError,
    ConfigError,
    DispersiveNphotonError,
    IterationLimitError,
    PropagationError,
    ResonanceError,
    SolverError,
    TruncationError,
)
from .fockspace import (
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
from .models import (
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

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "DispersiveNphotonError",
    "ConfigError",
    "TruncationError",
    "ResonanceError",
    "CapacityError",
    "SolverError",
    "IterationLimitError",
    "PropagationError",
    # fockspace
    "HilbertLayout",
    "SparseOperator",
    "destroy",
    "create",
    "number",
    "identity",
    "position",
    "pauli",
    "op_pow",
    "embed",
    "guard_band_mask",
    "qubit_oscillator_layout",
    # combinatorics
    "stirling2",
    "c_coeff",
    "normal_order_aadag",
    "commutator_poly",
    "eval_int_poly",
    # analytic
    "DispersiveParams",
    "dispersive_level",
    "njc_doublet",
    "critical_photon_number",
    "dressed_qubit_frequency",
    "effective_two_qubit_params",
    # models
    "QubitSpec",
    "OscillatorSpec",
    "CouplingSpec",
    "StabilizerSpec",
    "SystemSpec",
    "with_swept",
    "build_model",
    "two_qubit_block",
    "charge_operator",
    # eigensolve
    "SpectrumResult",
    "LevelCurve",
    "eigh_dense",
    "eigs_lowest",
    "label_by_overlap",
    "filter_by_mean_photon",
    "track_levels",
    # dynamics
    "StateVector",
    "DensityMatrix",
    "basis_state",
    "superposition",
    "coherent_state",
    "tensor_state",
    "preset_state",
    "expectation",
    "evolve",
    "partial_trace",
    "fidelity",
]
