"""Hashes of pinned library outputs and CLI runs: the "same results" check.

Prints one line per item, ``<name> <sha256>``.  A library item hashes the
dtype, shape and bytes of the arrays it returns: lowest eigenpairs by every
method on every model, Lanczos pairs and an ``IterationLimitError``'s
partial result on larger blocks, sparse products, the dense subset driver
on blocks that are not chains, and Krylov propagation.
A CLI item hashes the exit code, standard output, standard error and every
file the run writes.  The script uses the ``dispersive_nphoton`` found on
``PYTHONPATH``, so one copy of it compares two trees.  From the root of a
checkout, with the other tree at ``../parent``:

    PYTHONPATH=src python ci/same_results.py > after.txt
    PYTHONPATH=../parent/src python ci/same_results.py > before.txt
    diff before.txt after.txt

An empty diff means the two trees give the same bits and bytes.  Compare
runs made at one BLAS thread count (``OPENBLAS_NUM_THREADS=1``, as CI
does): some outputs move between 1 and 2 threads.  The run takes about
15 s on one core.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import dispersive_nphoton
from dispersive_nphoton.dynamics import evolve, preset_state, propagator
from dispersive_nphoton.eigensolve import eigs_lowest, solve_lowest
from dispersive_nphoton.errors import IterationLimitError
from dispersive_nphoton.fockspace import SparseOperator, qubit_oscillator_layout
from dispersive_nphoton.models import MODELS_BY_TOPOLOGY, SystemSpec, build_model

#: One small configuration per topology, for every model of it.
SMALL = {
    "single": {
        "topology": "single",
        "qubits": [{"omega_q": 2.5, "n": 2, "g": 0.02}],
        "oscillators": [{"trunc": 60}],
    },
    "multiqubit": {
        "topology": "multiqubit",
        "qubits": [
            {"omega_q": 8.0, "n": 2, "g": 0.02},
            {"omega_q": 7.4, "n": 2, "g": 0.03},
        ],
        "oscillators": [{"trunc": 30}],
    },
    "multimode": {
        "topology": "multimode",
        "qubits": [{"omega_q": 3.0}],
        "oscillators": [{"trunc": 12}, {"trunc": 12}],
        "couplings": [
            {"qubit": 0, "oscillator": 0, "n": 1, "g": 0.1},
            {"qubit": 0, "oscillator": 1, "n": 2, "g": 0.1},
        ],
    },
}

#: The stabilized n=3 ``nR`` system of the ``sweep-serial`` benchmark.
STABILIZED = {
    "topology": "single",
    "qubits": [{"omega_q": 3.1, "n": 3, "g": 0.0175}],
    "oscillators": [{"trunc": 2100}],
    "stabilizer": {"form": "number_power", "eta": 0.02},
}


def _sized(config: dict, trunc: int) -> dict:
    """``config`` with every oscillator truncated at ``trunc``."""
    oscillators = [{**o, "trunc": trunc} for o in config["oscillators"]]
    return {**config, "oscillators": oscillators}


#: ``(name, config, model)`` of the blocks that Lanczos and Krylov run on.
LARGE = [
    ("nR-stabilized-2100", STABILIZED, "nR"),
    ("full_nR-200", _sized(SMALL["single"], 200), "full_nR"),
    ("nDicke-300", _sized(SMALL["multiqubit"], 300), "nDicke"),
    ("mmr-12", SMALL["multimode"], "mmr"),
    ("nTC-60", _sized(SMALL["multiqubit"], 60), "nTC"),
]

#: ``(name, config, model)`` of blocks that are not chains and exceed the
#: batch size: ``auto`` takes their lowest pairs from LAPACK's subset driver.
DENSE = [
    ("nDicke-300", _sized(SMALL["multiqubit"], 300), "nDicke"),
    ("full_nR-200", _sized(SMALL["single"], 200), "full_nR"),
]

#: Krylov propagation: nR n=2 at trunc 4200, blocks past the exact budget.
KRYLOV = _sized(SMALL["single"], 4200)

#: ``(name, config, argv)`` of the CLI runs; ``out.csv`` is a written file.
CLI_RUNS = [
    *(
        (f"lanczos/{topology}/{model}", SMALL[topology],
         ["spectrum", "--model", model, "-k", "6", "--method", "lanczos"])
        for topology, models in MODELS_BY_TOPOLOGY.items()
        for model in models
    ),
    # Fails on its own: two Krylov vectors need more substeps than allowed.
    ("dynamics-krylov-dim-2", KRYLOV,
     ["dynamics", "--model", "nR", "--state", "plus_coherent_2", "--t-end", "100",
      "--steps", "2", "--krylov-dim", "2", "--out", "out.csv"]),
    ("dynamics-krylov-4200", KRYLOV,
     ["dynamics", "--model", "nR", "--state", "plus_coherent_2", "--t-end", "10",
      "--steps", "2", "--out", "out.csv"]),
    # The benchmark's invocations at seed 3.
    ("bench/sweep-serial",
     {**STABILIZED, "qubits": [{"omega_q": 3.1, "n": 3, "g": 0.0}]},
     ["spectrum", "--model", "nR", "-k", "8", "--sweep", "g:0.007738:0.026738:3",
      "--nbar-max", "20", "--threads", "1"]),
    *(
        (f"bench/levels-doublets-n{n}",
         {"topology": "single", "qubits": [{"omega_q": n + 0.5, "n": n, "g": 0.0}],
          "oscillators": [{"trunc": 120}]},
         ["levels", "--model", "nJC", "-k", "40", "--sweep", "g:0:0.294759:25"])
        for n in (1, 2, 3, 4)
    ),
    *(
        (f"bench/dynamics-fidelity-{model}", SMALL["single"],
         ["dynamics", "--model", model, "--state", "plus_coherent_2",
          "--t-end", "100.1898", "--steps", "10"])
        for model in ("nR", "dispersive")
    ),
]


def _digest(*arrays) -> str:
    """sha256 of the dtype, shape and bytes of each array (None allowed)."""
    h = hashlib.sha256()
    for array in arrays:
        if array is None:
            h.update(b"None;")
            continue
        array = np.ascontiguousarray(array)
        h.update(f"{array.dtype.str}{array.shape};".encode())
        h.update(array.tobytes())
    return h.hexdigest()


def _spectrum(result) -> str:
    return _digest(result.energies, result.states, result.mean_photons)


def _model(config: dict, model: str, regime: str = "nonrwa"):
    return build_model(SystemSpec.from_dict(config), model, regime)


def library_items():
    """``(name, digest)`` of every library item."""
    for topology, models in MODELS_BY_TOPOLOGY.items():
        for model in models:
            for regime in ("nonrwa", "rwa") if model == "dispersive" else ("nonrwa",):
                h = _model(SMALL[topology], model, regime)
                for method in ("auto", "dense", "lanczos"):
                    name = f"solve/{topology}/{model}/{regime}/{method}"
                    yield name, _spectrum(solve_lowest(h, 6, method))
    for name, config, model in LARGE:
        h = _model(config, model)
        for k in (1, 6):
            yield f"eigs_lowest/{name}/k{k}", _spectrum(eigs_lowest(h, k))
        try:
            result, status = eigs_lowest(h, 6, max_iters=3), "ok"
        except IterationLimitError as exc:
            result, status = exc.partial, "partial"
        yield f"max_iters_3/{name}/{status}", _spectrum(result)
        x = np.arange(h.total_dim)
        yield f"apply/{name}/real", _digest(h.apply(np.cos(x)))
        z = np.cos(x) + 1j * np.sin(0.7 * x)
        yield f"apply/{name}/complex", _digest(h.apply(z))
    for name, config, model in DENSE:
        h = _model(config, model)
        yield f"auto/{name}/k6", _spectrum(solve_lowest(h, 6, "auto"))
    # One complex Hermitian block of 150 states.
    rng = np.random.default_rng(26)
    a = rng.normal(size=(150, 150)) + 1j * rng.normal(size=(150, 150))
    h = SparseOperator.from_dense(qubit_oscillator_layout(0, (150,)), a + a.conj().T)
    yield "auto/complex-150/k6", _spectrum(solve_lowest(h, 6, "auto"))
    h = _model(KRYLOV, "nR")
    psi0 = preset_state("plus_coherent_2", h.layout)
    yield "evolve/nR-4200", _digest(evolve(h, psi0, 10.0).amplitudes)
    step = propagator(h, 30, 1e-10)  # reused: three steps of one decomposition
    yield "propagator/nR-4200", _digest(
        *(step(psi0, t).amplitudes for t in (2.5, 10.0, 2.5))
    )


def cli_items():
    """``(name, digest)`` of every CLI run, each in a fresh directory."""
    src = str(Path(dispersive_nphoton.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    for name, config, argv in CLI_RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            Path(tmp, "config.json").write_text(json.dumps(config))
            proc = subprocess.run(
                [sys.executable, "-m", "dispersive_nphoton.cli", *argv,
                 "--config", "config.json"],
                cwd=tmp, capture_output=True, env=env, timeout=600,
            )
            h = hashlib.sha256(f"{proc.returncode};".encode())
            for part in (proc.stdout, proc.stderr):
                h.update(f"{len(part)};".encode() + part)
            for file in sorted(Path(tmp).iterdir()):
                if file.name != "config.json":
                    data = file.read_bytes()
                    h.update(f"{file.name};{len(data)};".encode() + data)
            yield f"cli/{name}/exit{proc.returncode}", h.hexdigest()


def main() -> int:
    for items in (library_items(), cli_items()):
        for name, digest in items:
            print(name, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
