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
parsed option that can move an output byte, so every option but ``--out``
and ``--threads``; ``--config`` is replaced by the resolved configuration,
which feeds back into :meth:`SystemSpec.from_dict`.  Floats are rendered with ``%.12g``,
booleans as ``0``/``1``, missing values as empty fields.

``spectrum`` and ``levels`` share one grid-point solve (build, solve, label,
closed-form columns); every CSV command shares one provenance rule and one
failure report.

Exit codes: ``0`` success, ``2`` configuration problems (non-finite numbers
included), ``3`` solver failures.  A solver failure still writes the output
file: rows for the grid points that succeeded, plus one flag row (empty
labels, ``terminated=1``) per failed point; ``levels`` stops at its first.

Sweep grids run in parallel worker processes.  ``--threads`` alone chooses
the worker count (default: the CPUs this process may use, its affinity
set); a count below 1 is a configuration problem.  Fewer workers start when
there are fewer grid points or fewer usable CPUs.  Results are merged in
grid order, so output bytes do not depend on the worker count.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from typing import Iterable, Optional, Sequence

import numpy as np

from . import __version__
from .analytic import (
    REGIMES,
    DispersiveParams,
    critical_photon_number,
    dispersive_level,
    dressed_qubit_frequency,
    effective_two_qubit_params,
)
from .combinatorics import commutator_poly, normal_order_aadag
from .dynamics import STATE_PRESETS, fidelity, partial_trace, preset_state, propagator
from .eigensolve import (
    DENSE_LIMIT,
    SpectrumResult,
    label_by_overlap,
    solve_lowest,
    track_levels,
)
from .errors import (
    ConfigError,
    DispersiveNphotonError,
    ResonanceError,
    SolverError,
    _integer,
    _real,
)
from .models import (
    ALL_MODELS,
    CLOSED_FORM_MODELS,
    SystemSpec,
    _sweep_index,
    build_model,
    with_swept,
)

SCHEMA_VERSION = 1
#: Most grid points of a ``--sweep`` and most ``--steps`` of ``dynamics``,
#: checked before the grid is allocated.
MAX_STEPS = 1_000_000

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


def _provenance_line(
    args: argparse.Namespace, spec: Optional[SystemSpec] = None
) -> str:
    """The ``# provenance:`` line of a run: every parsed option but three.

    Left out are ``out`` and ``threads`` (the output bytes do not depend on
    them) and the handler ``func``.  ``spec``, when given, replaces the
    ``--config`` file name by the resolved configuration.
    """
    left_out = ("out", "threads", "func")
    record = {k: v for k, v in vars(args).items() if k not in left_out}
    if spec is not None:
        record["config"] = spec.to_dict()
    record["schema_version"] = SCHEMA_VERSION
    return "# provenance: " + json.dumps(record, sort_keys=True)


def _write_lines(out_path: Optional[str], lines: Iterable[str]) -> None:
    """Write ``"\\n".join(lines) + "\\n"`` one line at a time, so that lines
    from a generator are never all held at once."""
    to_stdout = out_path in (None, "-")
    with contextlib.nullcontext(sys.stdout) if to_stdout else open(
        out_path, "w", encoding="utf-8", newline="\n"
    ) as fh:
        for i, line in enumerate(lines):
            fh.write("\n" + line if i else line)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Shared argument handling
# ---------------------------------------------------------------------------


def parse_sweep(text: str) -> tuple[str, np.ndarray]:
    """Parse ``"var:from:to:steps"`` into a variable name and grid values.

    The variables are those of :func:`.models.with_swept`.  The endpoints
    must be finite and the steps lie in [1, :data:`MAX_STEPS`].

    Raises:
        ConfigError: On malformed syntax, an unknown variable or a number
            out of its bounds.
    """
    parts = text.split(":")
    if len(parts) != 4:
        raise ConfigError(
            f"sweep {text!r} is not of the form 'var:from:to:steps'"
        )
    _sweep_index(parts[0])
    try:  # the command-line text, parsed before the rule checks it
        start, stop, steps = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise ConfigError(f"sweep {text!r}: {exc}") from None
    what = f"--sweep {text!r}"
    start = _real(f"{what} start", start)
    stop = _real(f"{what} stop", stop)
    steps = _integer(f"{what} steps", steps, 1, MAX_STEPS)
    return parts[0], np.linspace(start, stop, steps)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_threads(flag_value: Optional[int]) -> int:
    """Worker count: the flag, else the CPUs this process may use.

    Raises:
        ConfigError: If the flag is below 1.
    """
    if flag_value is None:
        return _usable_cpus()
    return _integer("--threads", flag_value, 1)


# ---------------------------------------------------------------------------
# spectrum and levels: one point solve, one row format, one failure report
# ---------------------------------------------------------------------------


def _sweep_start(
    args: argparse.Namespace, extra: str, *bounds
) -> tuple[SystemSpec, list]:
    """Validate a ``spectrum`` or ``levels`` run; return its spec and header.

    The header is the provenance line and the column line.  ``extra`` names
    the command's own float option (``nbar_max`` or ``continuity_floor``),
    which must be finite like ``physical_scale`` and lie within ``bounds``
    (``lo, hi``) when given.  Nothing is built here: the first grid point's
    build raises the model's configuration errors.
    """
    _integer("-k/--num-levels", args.k, 1)
    _real("--physical-scale", args.physical_scale)
    if getattr(args, extra) is not None:
        _real("--" + extra.replace("_", "-"), getattr(args, extra), *bounds)
    spec = SystemSpec.from_json_file(args.config)
    return spec, [_provenance_line(args, spec), ",".join(SWEEP_COLUMNS)]


def _solve_point(
    spec: SystemSpec, args: argparse.Namespace, name: Optional[str], value
) -> tuple[SystemSpec, SpectrumResult]:
    """Build and solve one grid point (``name`` None: ``spec`` as is).

    Returns the swept spec and the lowest ``args.k`` eigenpairs, unlabeled:
    ``spectrum`` labels every point, ``levels`` only the first.

    Raises:
        SolverError: When the eigensolver fails; the caller flags the point.
    """
    if name is not None:
        spec = with_swept(spec, name, value)
    h = build_model(spec, args.model, args.regime, args.squeezing)
    return spec, solve_lowest(h, args.k, args.method)


def _closed_form_params(spec: SystemSpec, model: str) -> list:
    """Parameters of each regime's closed-form level column, in ``REGIMES``
    order, with None for a column left blank at this point.

    A column is filled only for single-topology, unstabilized models that
    have a closed form (``CLOSED_FORM_MODELS``), whose ``n * omega_o``
    survives the rounding of ``omega_q``, inside that regime's dispersive
    domain.
    """
    columns = [None] * len(REGIMES)
    if (
        spec.topology != "single"
        or model not in CLOSED_FORM_MODELS
        or spec.stabilizer is not None
    ):
        return columns
    try:
        params = spec.qubit_params(0)
    except ResonanceError:
        return columns
    for column, regime in enumerate(REGIMES):
        try:
            params.require_dispersive(regime)
        except ResonanceError:
            continue
        columns[column] = params
    return columns


def _row(
    args: argparse.Namespace,
    name: Optional[str],
    value: Optional[float],
    params: Sequence[Optional[DispersiveParams]] = (),
    config: str = "",
    fock: Sequence[int] = (),
    energy: Optional[float] = None,
    overlap: Optional[float] = None,
    terminated: bool = True,
    filtered: bool = False,
) -> str:
    """One ``SWEEP_COLUMNS`` row; the defaults give a failed point's flag row.

    The closed-form column of each regime is filled where
    :func:`_closed_form_params` gave that regime ``params`` and the level is
    within the float range.  Energy columns are multiplied by
    ``--physical-scale``.
    """
    energies = [energy, None, None]
    for column, (regime, p) in enumerate(zip(REGIMES, params), start=1):
        if p is None:
            continue
        try:
            energies[column] = dispersive_level(p, config, fock[0], regime)
        except ResonanceError:
            pass
    scale = args.physical_scale
    return ",".join(
        [
            name or "",
            _fmt(value),
            config,
            ";".join(str(j) for j in fock),
            *(_fmt(None if e is None else e * scale) for e in energies),
            _fmt(overlap),
            _fmt(bool(terminated)),
            _fmt(bool(filtered)),
        ]
    )


def _finish(
    out: Optional[str],
    lines: list,
    failures: list,
    at: str = "solver failure at sweep value",
) -> int:
    """Write the output and report each failure; return 0 or 3.

    ``failures`` holds ``(sweep value or time, solver error message)``
    pairs, each reported as one ``"{at} {value}: {message}"`` line.
    """
    _write_lines(out, lines)
    for value, error in failures:
        print(f"{at} {_fmt(value) or '<none>'}: {error}", file=sys.stderr)
    return 3 if failures else 0


def _spectrum_point(
    spec: SystemSpec, args: argparse.Namespace, point: tuple
) -> tuple[list, Optional[str]]:
    """CSV rows of one ``spectrum`` grid point ``(name, value)``.

    Returns ``(rows, None)``, or ``([flag row], message)`` on solver failure.
    Runs inside a worker process when the grid is split across several.
    """
    name, value = point
    try:
        swept, result = _solve_point(spec, args, name, value)
    except SolverError as exc:
        return [_row(args, name, value)], str(exc)
    result = label_by_overlap(result)
    params = _closed_form_params(swept, args.model)
    rows = []
    for i, (config, fock, overlap) in enumerate(result.labels):
        filtered = (
            args.nbar_max is not None
            and not result.mean_photons[i] < args.nbar_max
        )
        energy = float(result.energies[i])
        row = (params, config, fock, energy, overlap, False, filtered)
        rows.append(_row(args, name, value, *row))
    return rows, None


def _cmd_spectrum(args: argparse.Namespace) -> int:
    threads = resolve_threads(args.threads)
    spec, lines = _sweep_start(args, "nbar_max")
    if args.sweep is not None:
        sweep_name, values = parse_sweep(args.sweep)
        points = [(sweep_name, float(v)) for v in values]
    else:
        points = [(None, None)]

    solve = functools.partial(_spectrum_point, spec, args)
    # A fork-based pool starts every worker at once: bound them first.
    workers = min(threads, len(points), _usable_cpus())
    if workers <= 1:
        outcomes = [solve(point) for point in points]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(solve, points))

    failures = []
    for (_, value), (rows, error) in zip(points, outcomes):
        lines.extend(rows)
        if error is not None:
            failures.append((value, error))
    return _finish(args.out, lines, failures)


def _cmd_levels(args: argparse.Namespace) -> int:
    spec, lines = _sweep_start(args, "continuity_floor", 0, 1)
    sweep_name, values = parse_sweep(args.sweep)

    specs, results, failures = [], [], []
    for value in values:
        try:
            swept, result = _solve_point(spec, args, sweep_name, float(value))
        except SolverError as exc:
            failures.append((float(value), str(exc)))
            break
        specs.append(swept)
        # track_levels reads the labels of the first point alone.
        results.append(result if results else label_by_overlap(result))

    if results:
        curves = track_levels(results, continuity_floor=args.continuity_floor)
        for t, swept in enumerate(specs):
            params = _closed_form_params(swept, args.model)
            for curve in curves:
                config, fock = curve.label
                energy, overlap = float(curve.energies[t]), curve.overlaps[t]
                dead = curve.terminated and t >= curve.terminated_at
                row = (params, config, fock, energy, overlap, dead)
                lines.append(_row(args, sweep_name, float(values[t]), *row))
    lines.extend(_row(args, sweep_name, value) for value, _ in failures)
    return _finish(args.out, lines, failures)


# ---------------------------------------------------------------------------
# dynamics
# ---------------------------------------------------------------------------


def _cmd_dynamics(args: argparse.Namespace) -> int:
    _integer("--steps", args.steps, 1, MAX_STEPS)
    _real("--t-end", args.t_end)
    spec = SystemSpec.from_json_file(args.config)
    if spec.topology != "single":
        raise ConfigError("dynamics presets require the 'single' topology")
    h = build_model(spec, args.model, args.regime, args.squeezing)
    layout = spec.layout()
    psi = preset_state(args.state, layout)

    rho_q0 = partial_trace(psi, layout.qubit_indices)
    amps0 = psi.amplitudes.reshape(layout.dims) / psi.norm()
    times = np.linspace(0.0, args.t_end, args.steps + 1)

    def row(t: float, state) -> str:
        fid_q = fidelity(partial_trace(state, layout.qubit_indices), rho_q0)
        # Oscillator marginals of pure states with 2 x d amplitudes A and B:
        # F = ||A B^H||_1**2 / (||A||**2 ||B||**2), from a 2 x 2 matrix.
        amps = state.amplitudes.reshape(layout.dims)
        trace_norm = np.linalg.svd(amps @ amps0.conj().T, compute_uv=False).sum()
        fid_o = min((trace_norm / state.norm()) ** 2, 1.0)
        return ",".join(
            [
                _fmt(t),
                _fmt(fid_q),
                _fmt(fid_o),
                _fmt(state.mean_photon_number()),
                _fmt(abs(state.norm() - 1.0)),
            ]
        )

    lines = [_provenance_line(args, spec), ",".join(DYNAMICS_COLUMNS), row(0.0, psi)]
    failures = []
    step = propagator(h, args.krylov_dim, args.local_tol)
    for i in range(1, len(times)):
        try:
            psi = step(psi, float(times[i] - times[i - 1]))
        except SolverError as exc:
            failures.append((float(times[i]), str(exc)))
            break
        lines.append(row(float(times[i]), psi))
    return _finish(args.out, lines, failures, "propagation failure at t =")


# ---------------------------------------------------------------------------
# scalar tools
# ---------------------------------------------------------------------------


def _cmd_coeff_table(args: argparse.Namespace) -> int:
    _integer("--n-max", args.n_max, 1)
    tables = (
        ("cplus", lambda n: commutator_poly(n)[0]),
        ("cminus", lambda n: commutator_poly(n)[1]),
        ("normal_order", normal_order_aadag),
    )
    # A generator: the rows stream out, and a large table is never held whole.
    rows = (
        f"{name},{n},{k},{v}"
        for name, coeffs in tables
        for n in range(1, args.n_max + 1)
        for k, v in enumerate(coeffs(n))
    )
    header = [_provenance_line(args), "table,n,k,value"]
    _write_lines(args.out, itertools.chain(header, rows))
    return 0


def _cmd_critical_nph(args: argparse.Namespace) -> int:
    omega_o = _real("--omega-o", args.omega_o, above=0)
    delta = args.delta
    if delta is None:
        delta = _real("--omega-q", args.omega_q) - args.n * omega_o
    print(_fmt(critical_photon_number(args.n, args.g, delta)))
    return 0


def _cmd_dressed_freq(args: argparse.Namespace) -> int:
    params = DispersiveParams.from_frequencies(
        args.omega_q, args.n, args.g, args.omega_o
    )
    print(_fmt(dressed_qubit_frequency(params, args.alpha, args.regime)))
    return 0


def _cmd_eff_2q(args: argparse.Namespace) -> int:
    spec = SystemSpec.from_json_file(args.config)
    if spec.topology != "multiqubit" or len(spec.qubits) != 2:
        raise ConfigError("eff-2q requires a 'multiqubit' system with two qubits")
    w1, w2, gbar = effective_two_qubit_params(spec, args.alpha)
    lines = [
        _provenance_line(args, spec),
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


def _add_alpha(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--alpha",
        type=float,
        required=True,
        help="coherent amplitude |alpha| (mean photon number |alpha|^2)",
    )


def _add_sweep_command(sub, name: str, summary: str, sweep_required: bool):
    """Subparser with the options ``spectrum`` and ``levels`` share."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--config", required=True, metavar="FILE")
    _add_model_options(p)
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
        help="eigenpair method per block (auto: exact for chains and blocks "
        "up to %d states, Lanczos above)" % DENSE_LIMIT,
    )
    p.add_argument(
        "--physical-scale",
        type=float,
        default=1.0,
        metavar="S",
        help="multiply displayed energy columns by S (display only)",
    )
    p.add_argument(
        "--sweep",
        required=sweep_required,
        metavar="VAR:FROM:TO:STEPS",
        help="sweep grid, e.g. g:0:0.05:11 (vars: g, g<i>, eta)",
    )
    return p


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

    p = _add_sweep_command(
        sub, "spectrum", "lowest-k labeled spectrum, optionally on a sweep grid", False
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
        help="worker processes (default: the CPUs this process may use)",
    )
    _add_out(p)
    p.set_defaults(func=_cmd_spectrum)

    p = _add_sweep_command(
        sub, "levels", "levels tracked by state continuity across a sweep", True
    )
    p.add_argument(
        "--continuity-floor",
        type=float,
        default=0.5,
        metavar="W",
        help="minimum squared overlap, in [0, 1], to keep following a level "
        "(default 0.5)",
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
    _add_alpha(p)
    p.add_argument(
        "--regime", choices=REGIMES, default="rwa", help="shift regime (default rwa)"
    )
    p.set_defaults(func=_cmd_dressed_freq)

    p = sub.add_parser(
        "eff-2q", help="effective two-qubit flip-flop parameters"
    )
    p.add_argument("--config", required=True, metavar="FILE")
    _add_alpha(p)
    _add_out(p)
    p.set_defaults(func=_cmd_eff_2q)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except DispersiveNphotonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
