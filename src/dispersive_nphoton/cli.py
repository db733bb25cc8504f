"""Command-line interface for spectra, level tracking, and dynamics runs.

The installed entry point is ``dispersive-nphoton``.  Subcommands:

* ``spectrum``      — lowest-k labeled spectrum, optionally on a sweep grid.
* ``levels``        — energy levels tracked by state continuity across a sweep.
* ``dynamics``      — reduced-state fidelity experiment for a preset state.
* ``coeff-table``   — integer coefficient tables used by the closed forms.
* ``critical-nph``  — critical photon number of the dispersive expansion.
* ``dressed-freq``  — coherently dressed qubit frequency.
* ``eff-2q``        — effective two-qubit flip-flop parameters.

Tabular output is CSV preceded by one comment line::

    # provenance: {"command": ..., "config": {...}, ...}

holding a deterministic JSON record (sorted keys, no timestamps) of every
input that influenced the numbers; the embedded ``config`` value feeds back
into :meth:`SystemSpec.from_dict`.  Floats are rendered with ``%.12g``,
booleans as ``0``/``1``, missing values as empty fields.

Exit codes: ``0`` success, ``2`` configuration problems, ``3`` solver
failures.  A solver failure still writes the output file: rows for the grid
points that succeeded, plus one flag row (empty labels, ``terminated=1``)
per failed point.

Sweep grids run in parallel worker processes.  ``--threads`` chooses the
worker count (default: CPU count); the environment variable
``DISPERSIVE_NPHOTON_THREADS``, when set, overrides the flag.  Results are
merged in grid order, so output bytes do not depend on the worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .analytic import (
    MOMENT_CONVENTIONS,
    REGIMES,
    DispersiveParams,
    critical_photon_number,
    dispersive_level,
    dressed_qubit_frequency,
    effective_two_qubit_params,
)
from .combinatorics import commutator_poly, normal_order_aadag
from .dynamics import STATE_PRESETS, evolve, fidelity, partial_trace, preset_state
from .eigensolve import DENSE_LIMIT, label_by_overlap, solve_lowest, track_levels
from .errors import ConfigError, DispersiveNphotonError, ResonanceError, SolverError
from .models import (
    ALL_MODELS,
    CLOSED_FORM_MODELS,
    SystemSpec,
    build_model,
    with_swept,
)

SCHEMA_VERSION = 1
THREADS_ENV_VAR = "DISPERSIVE_NPHOTON_THREADS"

SWEEP_COLUMNS = (
    "sweep_name",
    "sweep_value",
    "qubit_config",
    "fock_j",
    "e_numeric",
    "e_rwa",
    "e_nonrwa",
    "overlap",
    "terminated",
    "filtered",
)

DYNAMICS_COLUMNS = (
    "time",
    "fidelity_qubit",
    "fidelity_oscillator",
    "mean_photon",
    "norm_drift",
)


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    """Render one CSV field: %.12g floats, 0/1 booleans, blanks for missing."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if math.isnan(v):
        return ""
    return "%.12g" % v


def _fmt_fock(fock) -> str:
    if fock is None:
        return ""
    return ";".join(str(int(j)) for j in fock)


def _provenance_line(record: dict) -> str:
    payload = dict(record)
    payload["schema_version"] = SCHEMA_VERSION
    return "# provenance: " + json.dumps(payload, sort_keys=True)


def _write_lines(out_path: Optional[str], lines: Sequence[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Shared argument handling
# ---------------------------------------------------------------------------


def parse_sweep(text: str) -> tuple[str, np.ndarray]:
    """Parse ``"var:from:to:steps"`` into a variable name and grid values.

    Variables: ``g`` (every coupling), ``g<i>`` (coupling of qubit or
    coupling entry ``i``), ``eta`` (stabilizer strength).

    Raises:
        ConfigError: On malformed syntax or an unknown variable.
    """
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError(
            f"sweep {text!r} is not of the form 'var:from:to:steps'"
        )
    var = parts[0]
    if var != "eta" and not (
        var == "g" or (var.startswith("g") and var[1:].isdigit())
    ):
        raise ConfigError(
            f"unknown sweep variable {var!r}; expected 'g', 'g<i>', or 'eta'"
        )
    try:
        start = float(parts[1])
        stop = float(parts[2])
        steps = int(parts[3])
    except ValueError as exc:
        raise ConfigError(f"sweep {text!r}: {exc}") from None
    if steps < 1:
        raise ConfigError(f"sweep {text!r} must have at least one step")
    return var, np.linspace(start, stop, steps)


def resolve_threads(flag_value: Optional[int]) -> int:
    """Worker count: the environment variable overrides the flag."""
    env = os.environ.get(THREADS_ENV_VAR)
    if env is not None and env.strip():
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(
                f"{THREADS_ENV_VAR}={env!r} is not an integer"
            ) from None
    if flag_value is not None:
        return max(1, int(flag_value))
    return os.cpu_count() or 1


def _analytic_pair(spec: SystemSpec, model: str):
    """Closed-form (rwa, nonrwa) level columns, or blanks outside the domain.

    The columns are filled only for single-topology, unstabilized models
    whose parameters sit inside the dispersive domain of the respective
    regime; everything else stays blank.
    """
    if (
        spec.topology != "single"
        or model not in CLOSED_FORM_MODELS
        or spec.stabilizer is not None
    ):
        return lambda config, fock: (None, None)
    params = spec.qubit_params(0)

    def pair(config: str, fock) -> tuple:
        out = []
        for regime in REGIMES:
            try:
                params.require_dispersive(regime)
                out.append(dispersive_level(params, config, int(fock[0]), regime))
            except ResonanceError:
                out.append(None)
        return tuple(out)

    return pair


def _sweep_row(
    sweep_name: Optional[str],
    sweep_value: Optional[float],
    config: str,
    fock,
    e_numeric,
    e_rwa,
    e_nonrwa,
    overlap,
    terminated: bool,
    filtered: bool,
    scale: float,
) -> str:
    def scaled(e):
        return None if e is None else e * scale

    return ",".join(
        [
            sweep_name or "",
            _fmt(sweep_value),
            config,
            _fmt_fock(fock),
            _fmt(scaled(e_numeric)),
            _fmt(scaled(e_rwa)),
            _fmt(scaled(e_nonrwa)),
            _fmt(overlap),
            _fmt(bool(terminated)),
            _fmt(bool(filtered)),
        ]
    )


def _flag_row(sweep_name: Optional[str], sweep_value: Optional[float]) -> str:
    return _sweep_row(
        sweep_name, sweep_value, "", None, None, None, None, None, True, False, 1.0
    )


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


class _PointTask(NamedTuple):
    index: int
    spec_payload: dict
    model: str
    regime: str
    squeezing: bool
    cross_k0: bool
    k: int
    method: str
    max_iters: Optional[int]
    nbar_max: Optional[float]
    sweep_name: Optional[str]
    sweep_value: Optional[float]


def _spectrum_point(task: _PointTask):
    """Solve one grid point; runs inside a worker process.

    Returns ``(index, rows, error_message)`` where ``rows`` is a list of
    plain tuples (picklable) and ``error_message`` is set on solver failure.
    """
    spec = SystemSpec.from_dict(task.spec_payload)
    if task.sweep_name is not None:
        spec = with_swept(spec, task.sweep_name, task.sweep_value)
    h = build_model(spec, task.model, task.regime, task.squeezing, task.cross_k0)
    analytic = _analytic_pair(spec, task.model)
    try:
        result = solve_lowest(h, task.k, task.method, task.max_iters)
    except SolverError as exc:
        return task.index, None, str(exc)
    result = label_by_overlap(result)
    rows = []
    for i in range(result.k):
        config, fock, overlap = result.labels[i]
        e_rwa, e_nonrwa = analytic(config, fock)
        filtered = (
            task.nbar_max is not None
            and not result.mean_photons[i] < task.nbar_max
        )
        rows.append(
            (
                config,
                tuple(fock),
                float(result.energies[i]),
                e_rwa,
                e_nonrwa,
                overlap,
                False,
                bool(filtered),
            )
        )
    return task.index, rows, None


def _run_grid(tasks: list, threads: int) -> list:
    if threads <= 1 or len(tasks) <= 1:
        return [_spectrum_point(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        return list(pool.map(_spectrum_point, tasks))


def _cmd_spectrum(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise ConfigError("-k/--num-levels must be >= 1")
    spec = SystemSpec.from_json_file(args.config)
    build_model(spec, args.model, args.regime, args.squeezing, args.cross_k0)

    if args.sweep is not None:
        sweep_name, values = parse_sweep(args.sweep)
        points = [(sweep_name, float(v)) for v in values]
    else:
        points = [(None, None)]

    tasks = [
        _PointTask(
            index=i,
            spec_payload=spec.to_dict(),
            model=args.model,
            regime=args.regime,
            squeezing=args.squeezing,
            cross_k0=args.cross_k0,
            k=args.k,
            method=args.method,
            max_iters=args.max_iters,
            nbar_max=args.nbar_max,
            sweep_name=name,
            sweep_value=value,
        )
        for i, (name, value) in enumerate(points)
    ]
    outcomes = _run_grid(tasks, resolve_threads(args.threads))

    lines = [
        _provenance_line(
            {
                "command": "spectrum",
                "config": spec.to_dict(),
                "model": args.model,
                "regime": args.regime,
                "squeezing": args.squeezing,
                "cross_k0": args.cross_k0,
                "k": args.k,
                "method": args.method,
                "sweep": args.sweep,
                "nbar_max": args.nbar_max,
                "physical_scale": args.physical_scale,
            }
        ),
        ",".join(SWEEP_COLUMNS),
    ]
    failures = []
    for index, rows, error in outcomes:
        name, value = points[index]
        if error is not None:
            failures.append((value, error))
            lines.append(_flag_row(name, value))
            continue
        for config, fock, e_num, e_rwa, e_nonrwa, overlap, term, filt in rows:
            lines.append(
                _sweep_row(
                    name,
                    value,
                    config,
                    fock,
                    e_num,
                    e_rwa,
                    e_nonrwa,
                    overlap,
                    term,
                    filt,
                    args.physical_scale,
                )
            )
    _write_lines(args.out, lines)
    if failures:
        for value, error in failures:
            print(
                f"solver failure at sweep value {_fmt(value) or '<none>'}: {error}",
                file=sys.stderr,
            )
        return 3
    return 0


# ---------------------------------------------------------------------------
# levels
# ---------------------------------------------------------------------------


def _cmd_levels(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise ConfigError("-k/--num-levels must be >= 1")
    spec = SystemSpec.from_json_file(args.config)
    build_model(spec, args.model, args.regime, args.squeezing, args.cross_k0)
    sweep_name, values = parse_sweep(args.sweep)

    lines = [
        _provenance_line(
            {
                "command": "levels",
                "config": spec.to_dict(),
                "model": args.model,
                "regime": args.regime,
                "squeezing": args.squeezing,
                "cross_k0": args.cross_k0,
                "k": args.k,
                "method": args.method,
                "sweep": args.sweep,
                "continuity_floor": args.continuity_floor,
                "physical_scale": args.physical_scale,
            }
        ),
        ",".join(SWEEP_COLUMNS),
    ]

    results = []
    specs = []
    failure = None
    for value in values:
        swept = with_swept(spec, sweep_name, float(value))
        h = build_model(swept, args.model, args.regime, args.squeezing, args.cross_k0)
        try:
            result = solve_lowest(h, args.k, args.method, args.max_iters)
        except SolverError as exc:
            failure = (float(value), str(exc))
            break
        results.append(label_by_overlap(result))
        specs.append(swept)

    if results:
        curves = track_levels(results, continuity_floor=args.continuity_floor)
        pairs = [_analytic_pair(s, args.model) for s in specs]
        for t in range(len(results)):
            value = float(values[t])
            for curve in curves:
                config, fock = curve.label
                e_rwa, e_nonrwa = pairs[t](config, fock)
                dead = curve.terminated and t >= curve.terminated_at
                lines.append(
                    _sweep_row(
                        sweep_name,
                        value,
                        config,
                        fock,
                        float(curve.energies[t]),
                        e_rwa,
                        e_nonrwa,
                        curve.overlaps[t],
                        dead,
                        False,
                        args.physical_scale,
                    )
                )
    if failure is not None:
        lines.append(_flag_row(sweep_name, failure[0]))
    _write_lines(args.out, lines)
    if failure is not None:
        print(
            f"solver failure at sweep value {_fmt(failure[0])}: {failure[1]}",
            file=sys.stderr,
        )
        return 3
    return 0


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def _cmd_dynamics(args: argparse.Namespace) -> int:
    if args.steps < 1:
        raise ConfigError("--steps must be >= 1")
    if not math.isfinite(args.t_end):
        raise ConfigError(f"--t-end must be finite, got {args.t_end!r}")
    if args.krylov_dim < 2:
        raise ConfigError("--krylov-dim must be >= 2")
    spec = SystemSpec.from_json_file(args.config)
    if spec.topology != "single":
        raise ConfigError("dynamics presets require the 'single' topology")
    h = build_model(spec, args.model, args.regime, args.squeezing, True)
    layout = spec.layout()
    try:
        psi = preset_state(args.state, layout)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    rho_q0 = partial_trace(psi, layout.qubit_indices)
    rho_o0 = partial_trace(psi, layout.oscillator_indices)
    times = np.linspace(0.0, args.t_end, args.steps + 1)

    def row(t: float, state) -> str:
        fid_q = fidelity(partial_trace(state, layout.qubit_indices), rho_q0)
        fid_o = fidelity(partial_trace(state, layout.oscillator_indices), rho_o0)
        return ",".join(
            [
                _fmt(t),
                _fmt(fid_q),
                _fmt(fid_o),
                _fmt(state.mean_photon_number()),
                _fmt(abs(state.norm() - 1.0)),
            ]
        )

    lines = [
        _provenance_line(
            {
                "command": "dynamics",
                "config": spec.to_dict(),
                "model": args.model,
                "regime": args.regime,
                "squeezing": args.squeezing,
                "state": args.state,
                "t_end": args.t_end,
                "steps": args.steps,
                "krylov_dim": args.krylov_dim,
                "local_tol": args.local_tol,
                "dense_cutoff": args.dense_cutoff,
            }
        ),
        ",".join(DYNAMICS_COLUMNS),
        row(0.0, psi),
    ]
    failure = None
    for i in range(1, len(times)):
        try:
            psi = evolve(
                h,
                psi,
                float(times[i] - times[i - 1]),
                krylov_dim=args.krylov_dim,
                local_tol=args.local_tol,
                dense_cutoff=args.dense_cutoff,
            )
        except SolverError as exc:
            failure = (float(times[i]), str(exc))
            break
        lines.append(row(float(times[i]), psi))
    _write_lines(args.out, lines)
    if failure is not None:
        print(
            f"propagation failure at t = {_fmt(failure[0])}: {failure[1]}",
            file=sys.stderr,
        )
        return 3
    return 0


# ---------------------------------------------------------------------------
# scalar tools
# ---------------------------------------------------------------------------


def _cmd_coeff_table(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        raise ConfigError("--n-max must be >= 1")
    lines = [
        _provenance_line({"command": "coeff-table", "n_max": args.n_max}),
        "table,n,k,value",
    ]
    for n in range(1, args.n_max + 1):
        cplus, _ = commutator_poly(n)
        for k, v in enumerate(cplus):
            lines.append(f"cplus,{n},{k},{v}")
    for n in range(1, args.n_max + 1):
        _, cminus = commutator_poly(n)
        for k, v in enumerate(cminus):
            lines.append(f"cminus,{n},{k},{v}")
    for n in range(1, args.n_max + 1):
        for k, v in enumerate(normal_order_aadag(n)):
            lines.append(f"normal_order,{n},{k},{v}")
    _write_lines(args.out, lines)
    return 0


def _scalar_params(args: argparse.Namespace) -> DispersiveParams:
    try:
        return DispersiveParams.from_frequencies(
            args.omega_q, args.n, args.g, args.omega_o
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_critical_nph(args: argparse.Namespace) -> int:
    if not args.omega_o > 0:
        raise ConfigError(f"--omega-o must be positive, got {args.omega_o!r}")
    if args.delta is not None:
        delta = args.delta
    else:
        delta = args.omega_q - args.n * args.omega_o
    try:
        value = critical_photon_number(args.n, args.g, delta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print(_fmt(value))
    return 0


def _cmd_dressed_freq(args: argparse.Namespace) -> int:
    params = _scalar_params(args)
    try:
        value = dressed_qubit_frequency(
            params, args.alpha, args.moment_convention, args.regime
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print(_fmt(value))
    return 0


def _cmd_eff_2q(args: argparse.Namespace) -> int:
    spec = SystemSpec.from_json_file(args.config)
    if spec.topology != "multiqubit" or len(spec.qubits) != 2:
        raise ConfigError("eff-2q requires a 'multiqubit' system with two qubits")
    try:
        w1, w2, gbar = effective_two_qubit_params(
            spec, args.alpha, args.moment_convention, cross_k0=args.cross_k0
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    lines = [
        _provenance_line(
            {
                "command": "eff-2q",
                "config": spec.to_dict(),
                "alpha": args.alpha,
                "moment_convention": args.moment_convention,
                "cross_k0": args.cross_k0,
            }
        ),
        "omega_bar_1,omega_bar_2,g_bar",
        ",".join([_fmt(w1), _fmt(w2), _fmt(gbar)]),
    ]
    _write_lines(args.out, lines)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--out",
        default="-",
        metavar="FILE",
        help="output file ('-' for stdout, the default)",
    )


def _add_model_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--model",
        required=True,
        choices=ALL_MODELS,
        help="Hamiltonian to build (must match the config's topology)",
    )
    p.add_argument(
        "--regime",
        choices=REGIMES,
        default="nonrwa",
        help="effective-model regime (dispersive models only)",
    )
    p.add_argument(
        "--squeezing",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="keep the two-photon squeezing term of nonrwa effective models",
    )
    p.add_argument(
        "--cross-k0",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="start multiqubit cross polynomials at the constant term",
    )


def _add_solver_options(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "-k",
        "--num-levels",
        dest="k",
        type=int,
        default=8,
        help="number of lowest levels to report (default 8)",
    )
    p.add_argument(
        "--method",
        choices=("auto", "dense", "lanczos"),
        default="auto",
        help="eigenpair method (auto: dense up to %d states)" % DENSE_LIMIT,
    )
    p.add_argument("--max-iters", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument(
        "--physical-scale",
        type=float,
        default=1.0,
        metavar="S",
        help="multiply displayed energy columns by S (display only)",
    )


def _add_scalar_frequency_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega-q", type=float, required=True, help="qubit frequency")
    p.add_argument("--n", type=int, required=True, help="coupling order")
    p.add_argument("--g", type=float, required=True, help="coupling strength")
    p.add_argument(
        "--omega-o", type=float, default=1.0, help="oscillator frequency (default 1)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dispersive-nphoton",
        description=(
            "Spectra, closed-form comparisons, level tracking, and dispersive "
            "dynamics for multiphoton qubit-oscillator models."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser(
        "spectrum",
        help="lowest-k labeled spectrum, optionally on a sweep grid",
    )
    p.add_argument("--config", required=True, metavar="FILE")
    _add_model_options(p)
    _add_solver_options(p)
    p.add_argument(
        "--sweep",
        metavar="VAR:FROM:TO:STEPS",
        default=None,
        help="sweep grid, e.g. g:0:0.05:11 (vars: g, g<i>, eta)",
    )
    p.add_argument(
        "--nbar-max",
        type=float,
        default=None,
        metavar="NBAR",
        help="mark rows with mean photon number >= NBAR as filtered",
    )
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help=f"worker processes (default: CPU count; env {THREADS_ENV_VAR} overrides)",
    )
    _add_out(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser(
        "levels", help="levels tracked by state continuity across a sweep"
    )
    p.add_argument("--config", required=True, metavar="FILE")
    _add_model_options(p)
    _add_solver_options(p)
    p.add_argument(
        "--sweep",
        required=True,
        metavar="VAR:FROM:TO:STEPS",
        help="sweep grid, e.g. g:0:0.05:11 (vars: g, g<i>, eta)",
    )
    p.add_argument(
        "--continuity-floor",
        type=float,
        default=0.5,
        metavar="W",
        help="minimum squared overlap to keep following a level (default 0.5)",
    )
    _add_out(p)
    p.set_defaults(func=_cmd_levels)

    p = sub.add_parser(
        "dynamics", help="reduced-state fidelity experiment for a preset state"
    )
    p.add_argument("--config", required=True, metavar="FILE")
    _add_model_options(p)
    p.add_argument(
        "--state",
        required=True,
        choices=STATE_PRESETS,
        help="initial state preset",
    )
    p.add_argument("--t-end", type=float, required=True, help="final time")
    p.add_argument(
        "--steps", type=int, default=50, help="number of output intervals"
    )
    p.add_argument(
        "--krylov-dim", type=int, default=30, help="Krylov subspace size"
    )
    p.add_argument(
        "--local-tol", type=float, default=1e-10, help="per-substep error target"
    )
    p.add_argument(
        "--dense-cutoff",
        type=int,
        default=64,
        help="largest dimension propagated by the exact dense path",
    )
    _add_out(p)
    p.set_defaults(func=_cmd_dynamics)

    p = sub.add_parser(
        "coeff-table", help="integer coefficient tables used by the closed forms"
    )
    p.add_argument(
        "--n-max", type=int, default=4, help="largest coupling order (default 4)"
    )
    _add_out(p)
    p.set_defaults(func=_cmd_coeff_table)

    p = sub.add_parser(
        "critical-nph", help="critical photon number of the dispersive expansion"
    )
    p.add_argument("--n", type=int, required=True, help="coupling order")
    p.add_argument("--g", type=float, required=True, help="coupling strength")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--delta", type=float, default=None, help="detuning")
    group.add_argument(
        "--omega-q", type=float, default=None, help="qubit frequency"
    )
    p.add_argument(
        "--omega-o", type=float, default=1.0, help="oscillator frequency (default 1)"
    )
    p.set_defaults(func=_cmd_critical_nph)

    p = sub.add_parser("dressed-freq", help="coherently dressed qubit frequency")
    _add_scalar_frequency_options(p)
    p.add_argument(
        "--alpha", type=float, required=True, help="coherent amplitude |alpha|"
    )
    p.add_argument(
        "--moment-convention",
        choices=MOMENT_CONVENTIONS,
        default="coherent_exact",
        help="photon-number moment convention",
    )
    p.add_argument(
        "--regime", choices=REGIMES, default="rwa", help="shift regime (default rwa)"
    )
    p.set_defaults(func=_cmd_dressed_freq)

    p = sub.add_parser(
        "eff-2q", help="effective two-qubit flip-flop parameters"
    )
    p.add_argument("--config", required=True, metavar="FILE")
    p.add_argument(
        "--alpha", type=float, required=True, help="coherent amplitude |alpha|"
    )
    p.add_argument(
        "--moment-convention",
        choices=MOMENT_CONVENTIONS,
        default="coherent_exact",
        help="photon-number moment convention",
    )
    p.add_argument(
        "--cross-k0",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="start the cross polynomial at the constant term",
    )
    _add_out(p)
    p.set_defaults(func=_cmd_eff_2q)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except DispersiveNphotonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
