"""Benchmark workloads: seeded inputs, CLI invocations, oracles, traced passes.

Each workload turns a seed into CLI configs and arguments, checks every CLI
output against an oracle that does not use the code path under test, and
replays the same inputs serially through the package's public functions
with a span around each call (the traced pass).

Seeded ranges (the CLI sees only the generated configs and arguments):

* sweep: grid ``g = g_lo, g_lo + 0.0095, g_lo + 0.019`` with ``g_lo`` in
  [0.0075, 0.0085).  Lanczos iteration counts step with g (882, 1058 and 613
  at these points); each point stays on one step over the whole range.
* levels: grid ``g = 0 .. g_max`` with ``g_max`` in [0.29, 0.31);
* dynamics: ``t_end`` in [99, 104), 10 output steps.  The propagator's
  substep count is flat there; it halves where the output step drops below 9.5.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse.csgraph

from dispersive_nphoton.analytic import REGIMES, dispersive_level
from dispersive_nphoton.cli import build_model, parse_sweep
from dispersive_nphoton.dynamics import evolve, fidelity, partial_trace, preset_state
from dispersive_nphoton.eigensolve import (
    DENSE_LIMIT,
    eigh_dense,
    eigs_lowest,
    filter_by_mean_photon,
    label_by_overlap,
    track_levels,
)
from dispersive_nphoton.errors import ResonanceError, SolverError
from dispersive_nphoton.models import SystemSpec, with_swept

from tracing import Tracer

#: Absolute energy tolerance of the sweep oracle.  The Lanczos residual
#: target is 1e-10 relative to ||H||_1; observed errors stay below 5e-9.
SWEEP_TOL = 1e-7
#: Closed-form doublets are exact; the CSV carries 12 significant digits.
LEVELS_TOL = 1e-9
#: Krylov substeps each carry a 1e-10 local error target.
DYNAMICS_TOL = 1e-6
NORM_DRIFT_TOL = 1e-8


@dataclass(frozen=True)
class Invocation:
    """One CLI run: ``args[0]`` is the subcommand, ``ops`` its operations."""

    label: str
    config: dict
    args: tuple
    ops: int


def _read_rows(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# provenance:"):
        return []
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def _group_by_point(rows: list[dict]) -> list[list[dict]]:
    groups: list[list[dict]] = []
    for row in rows:
        if not groups or groups[-1][0]["sweep_value"] != row["sweep_value"]:
            groups.append([])
        groups[-1].append(row)
    return groups


def _is_flag_row(row: dict) -> bool:
    return row["qubit_config"] == "" and row["terminated"] == "1"


def _solve_lowest(tracer: Tracer, h, k: int):
    """The CLI's ``--method auto`` dispatch, one span per solver call."""
    dim = h.layout.total_dim
    k = min(k, dim)
    if dim <= DENSE_LIMIT:
        with tracer.span("eigensolve.dense"):
            full = eigh_dense(h)
        tracer.count("dense.kept", k)
        tracer.count("dense.computed", dim)
        return dataclasses.replace(
            full,
            energies=full.energies[:k],
            states=full.states[:, :k],
            mean_photons=full.mean_photons[:k],
        )
    with tracer.span("eigensolve.lanczos"):
        try:
            return eigs_lowest(h, k)
        except SolverError:
            tracer.count("eigensolve.lanczos_failures")
            return None


def _analytic_columns(tracer: Tracer, spec: SystemSpec, model: str, labels) -> None:
    """Closed-form columns the CLI fills for one grid point's labels."""
    if model not in ("nR", "nJC", "dispersive") or spec.stabilizer is not None:
        return
    params = spec.qubit_params(0)
    with tracer.span("analytic.level"):
        for config, fock in labels:
            for regime in REGIMES:
                try:
                    params.require_dispersive(regime)
                except ResonanceError:
                    continue
                dispersive_level(params, config, int(fock[0]), regime)
                tracer.count("analytic.level_calls")


class Workload:
    """Base: subclasses set ``invocations`` and implement the hooks."""

    name: str
    invocations: list[Invocation]
    #: Simulated time per pass (dynamics only).
    sim_time: float = 0.0

    def prepare(self) -> None:
        """Compute oracle values; runs before any timed region."""

    def check(self, inv: Invocation, text: str) -> int:
        """Number of failed operations in one CSV output."""
        raise NotImplementedError

    def traced_pass(self, tracer: Tracer) -> None:
        raise NotImplementedError

    def pool_variant(self) -> Optional[list[Invocation]]:
        """The same invocations on the CLI's worker pool, if it applies.

        Their output must be byte-identical to the workload's own.
        """
        return None


# ---------------------------------------------------------------------------
# Stabilized n=3 spectrum sweep (Lanczos path)
# ---------------------------------------------------------------------------


def _block_eigvalsh(h) -> np.ndarray:
    """All eigenvalues via ``numpy.linalg.eigvalsh`` on each decoupled block.

    The blocks are the connected components of the matrix's nonzero
    pattern, so their spectra together are exactly the matrix's spectrum.
    """
    mat = h.entries.tocsr()
    if not np.any(mat.data.imag):
        mat = mat.real.tocsr()
    n_blocks, labels = scipy.sparse.csgraph.connected_components(
        mat != 0, directed=False
    )
    order = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[order], np.arange(n_blocks + 1))
    values = []
    for b in range(n_blocks):
        idx = order[bounds[b] : bounds[b + 1]]
        values.append(np.linalg.eigvalsh(mat[idx][:, idx].toarray()))
    return np.sort(np.concatenate(values))


class SpectrumSweep(Workload):
    name = "sweep-serial"
    K = 8
    NBAR_MAX = 20.0

    #: Worker processes of the pool variant.
    POOL_THREADS = 2

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        g_lo = 0.0075 + 0.001 * rng.random()
        trunc, points = (40, 3) if smoke else (2100, 3)
        self.sweep = f"g:{g_lo:.6f}:{g_lo + 0.019:.6f}:{points}"
        self.config = {
            "topology": "single",
            "qubits": [{"omega_q": 3.1, "n": 3, "g": 0.0}],
            "oscillators": [{"omega": 1.0, "trunc": trunc}],
            "stabilizer": {"form": "number_power", "eta": 0.02},
        }
        self.invocations = [self._invocation(1)]
        self.expected: list[np.ndarray] = []

    def _invocation(self, threads: int) -> Invocation:
        _, values = parse_sweep(self.sweep)
        args = (
            "spectrum", "--model", "nR", "-k", str(self.K), "--sweep", self.sweep,
            "--nbar-max", f"{self.NBAR_MAX:g}", "--threads", str(threads),
        )
        return Invocation(f"threads={threads}", self.config, args, len(values))

    def pool_variant(self) -> Optional[list[Invocation]]:
        return [self._invocation(self.POOL_THREADS)]

    def _specs(self) -> list[SystemSpec]:
        base = SystemSpec.from_dict(self.config)
        _, values = parse_sweep(self.sweep)
        return [with_swept(base, "g", float(v)) for v in values]

    def prepare(self) -> None:
        self.expected = [
            _block_eigvalsh(build_model(spec, "nR"))[: self.K]
            for spec in self._specs()
        ]

    def check(self, inv: Invocation, text: str) -> int:
        groups = _group_by_point(_read_rows(text))
        failed = max(0, inv.ops - len(groups))
        for rows, expected in zip(groups, self.expected):
            ok = len(rows) == len(expected) and not any(map(_is_flag_row, rows))
            if ok:
                got = np.sort([float(r["e_numeric"]) for r in rows])
                ok = bool(np.all(np.abs(got - expected) <= SWEEP_TOL))
            failed += not ok
        return failed

    def traced_pass(self, tracer: Tracer) -> None:
        with tracer.span("cli.invocation"):
            for spec in self._specs():
                with tracer.span("models.build"):
                    h = build_model(spec, "nR")
                tracer.count("models.nnz", h.entries.nnz)
                result = _solve_lowest(tracer, h, self.K)
                if result is None:
                    continue
                with tracer.span("eigensolve.label"):
                    result = label_by_overlap(result)
                with tracer.span("eigensolve.filter"):
                    kept = filter_by_mean_photon(result, self.NBAR_MAX)
                tracer.count("filter.kept", kept.k)
                tracer.count("filter.computed", result.k)
                _analytic_columns(
                    tracer, spec, "nR", [lab[:2] for lab in result.labels]
                )


# ---------------------------------------------------------------------------
# Excitation-conserving doublet ladders (many small dense solves)
# ---------------------------------------------------------------------------


def _njc_level(omega_q: float, n: int, g: float, trunc: int, config: str, j: int) -> float:
    """Exact level of the rotating n-photon model, omega_o = 1.

    ``|e, l>`` and ``|g, l + n>`` form a doublet split by
    ``sqrt(g^2 (l+n)!/l! + delta^2/4)``; with ``delta > 0`` the upper branch
    is the one continuous with ``|e, l>``.  States without a partner inside
    the truncation are uncoupled.
    """
    l = j if config == "e" else j - n
    if l < 0 or l + n >= trunc:
        return j + (0.5 if config == "e" else -0.5) * omega_q
    delta = omega_q - n
    ratio = math.prod(range(l + 1, l + n + 1))
    root = math.sqrt(g * g * ratio + 0.25 * delta * delta)
    return l + 0.5 * n + (root if config == "e" else -root)


class LevelsDoublets(Workload):
    name = "levels-doublets"
    K = 40
    ORDERS = (1, 2, 3, 4)

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        g_max = 0.29 + 0.02 * rng.random()
        self.trunc, self.k, points = (30, 10, 5) if smoke else (120, self.K, 25)
        self.sweep = f"g:0:{g_max:.6f}:{points}"
        _, self.values = parse_sweep(self.sweep)
        self.invocations = [
            Invocation(
                f"n={n}",
                {
                    "topology": "single",
                    "qubits": [{"omega_q": n + 0.5, "n": n, "g": 0.0}],
                    "oscillators": [{"omega": 1.0, "trunc": self.trunc}],
                },
                ("levels", "--model", "nJC", "-k", str(self.k), "--sweep", self.sweep),
                points,
            )
            for n in self.ORDERS
        ]

    def check(self, inv: Invocation, text: str) -> int:
        qubit = inv.config["qubits"][0]
        groups = _group_by_point(_read_rows(text))
        failed = max(0, inv.ops - len(groups))
        for i, (rows, g) in enumerate(zip(groups, self.values)):
            # Curves end where their level leaves the lowest-k window; only
            # the seed point must have every curve alive.
            live = [r for r in rows if r["terminated"] == "0"]
            dead = [r for r in rows if r["terminated"] == "1"]
            ok = len(rows) == self.k and not any(map(_is_flag_row, rows))
            ok = ok and all(r["e_numeric"] == "" for r in dead)
            ok = ok and (i > 0 or len(live) == self.k)
            for r in live:
                want = _njc_level(
                    qubit["omega_q"], qubit["n"], float(g), self.trunc,
                    r["qubit_config"], int(r["fock_j"]),
                )
                ok = ok and abs(float(r["e_numeric"]) - want) <= LEVELS_TOL
            failed += not ok
        return failed

    def traced_pass(self, tracer: Tracer) -> None:
        for inv in self.invocations:
            base = SystemSpec.from_dict(inv.config)
            with tracer.span("cli.invocation"):
                results, specs = [], []
                for g in self.values:
                    spec = with_swept(base, "g", float(g))
                    with tracer.span("models.build"):
                        h = build_model(spec, "nJC")
                    tracer.count("models.nnz", h.entries.nnz)
                    result = _solve_lowest(tracer, h, self.k)
                    if result is None:
                        break
                    with tracer.span("eigensolve.label"):
                        results.append(label_by_overlap(result))
                    specs.append(spec)
                with tracer.span("eigensolve.track"):
                    curves = track_levels(results)
                for spec in specs:
                    _analytic_columns(tracer, spec, "nJC", [c.label for c in curves])


# ---------------------------------------------------------------------------
# Dispersive-dynamics fidelity (Krylov propagation)
# ---------------------------------------------------------------------------


def _reduced(psi: np.ndarray, trunc: int) -> tuple[np.ndarray, np.ndarray]:
    m = psi.reshape(2, trunc)
    return m @ m.conj().T, m.T @ m.conj()


def _fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    w, u = np.linalg.eigh(rho)
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    ev = np.clip(np.linalg.eigvalsh(root @ sigma @ root), 0.0, None)
    return float(np.sqrt(ev).sum() ** 2)


class DynamicsFidelity(Workload):
    name = "dynamics-fidelity"
    STATE = "plus_coherent_2"
    MODELS = ("nR", "dispersive")

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        t_end = 99.0 + 5.0 * rng.random()
        self.trunc, self.steps = (40, 4) if smoke else (60, 10)
        if smoke:
            t_end /= 20.0
        self.t_end = round(t_end, 4)
        self.config = {
            "topology": "single",
            "qubits": [{"omega_q": 2.5, "n": 2, "g": 0.02}],
            "oscillators": [{"omega": 1.0, "trunc": self.trunc}],
        }
        self.times = np.linspace(0.0, self.t_end, self.steps + 1)
        self.invocations = [
            Invocation(
                model,
                self.config,
                (
                    "dynamics", "--model", model, "--state", self.STATE,
                    "--t-end", repr(self.t_end), "--steps", str(self.steps),
                ),
                self.steps + 1,
            )
            for model in self.MODELS
        ]
        self.sim_time = self.t_end * len(self.MODELS)
        self.expected: dict[str, np.ndarray] = {}

    def prepare(self) -> None:
        """Dense spectral propagation to every output time."""
        spec = SystemSpec.from_dict(self.config)
        psi0 = preset_state(self.STATE, spec.layout()).amplitudes
        rq0, ro0 = _reduced(psi0, self.trunc)
        photons = np.tile(np.arange(self.trunc), 2)
        for model in self.MODELS:
            energies, vecs = np.linalg.eigh(build_model(spec, model).toarray())
            c0 = vecs.conj().T @ psi0
            rows = []
            for t in self.times:
                psi = vecs @ (np.exp(-1j * energies * t) * c0)
                rq, ro = _reduced(psi, self.trunc)
                rows.append(
                    (t, _fidelity(rq, rq0), _fidelity(ro, ro0),
                     float(photons @ np.abs(psi) ** 2))
                )
            self.expected[model] = np.array(rows)

    def check(self, inv: Invocation, text: str) -> int:
        rows = _read_rows(text)
        expected = self.expected[inv.label]
        failed = max(0, inv.ops - len(rows))
        for row, want in zip(rows, expected):
            got = [float(row[c]) for c in ("time", "fidelity_qubit",
                                           "fidelity_oscillator", "mean_photon")]
            ok = abs(got[0] - want[0]) <= 1e-9 * max(1.0, want[0])
            ok = ok and bool(np.all(np.abs(np.subtract(got[1:], want[1:])) <= DYNAMICS_TOL))
            ok = ok and float(row["norm_drift"]) <= NORM_DRIFT_TOL
            failed += not ok
        return failed

    def traced_pass(self, tracer: Tracer) -> None:
        spec = SystemSpec.from_dict(self.config)
        layout = spec.layout()
        q, o = layout.qubit_indices, layout.oscillator_indices
        for model in self.MODELS:
            with tracer.span("cli.invocation"):
                with tracer.span("models.build"):
                    h = build_model(spec, model)
                tracer.count("models.nnz", h.entries.nnz)
                with tracer.span("dynamics.reduce"):
                    psi = preset_state(self.STATE, layout)
                    rho_q0, rho_o0 = partial_trace(psi, q), partial_trace(psi, o)
                for i in range(len(self.times)):
                    if i:
                        with tracer.span("dynamics.evolve"):
                            psi = evolve(h, psi, float(self.times[i] - self.times[i - 1]))
                    with tracer.span("dynamics.reduce"):
                        fidelity(partial_trace(psi, q), rho_q0)
                        fidelity(partial_trace(psi, o), rho_o0)
                        psi.mean_photon_number()
                        psi.norm()


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    for cls in (SpectrumSweep, LevelsDoublets, DynamicsFidelity):
        if cls.name == name:
            return cls(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")
