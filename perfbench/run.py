#!/usr/bin/env python3
"""Benchmark of the ``dispersive-nphoton`` CLI, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke          # tiny sizes, every workload, both modes

``--trace 0`` runs the workload as fresh-interpreter CLI invocations in a
closed loop with one client: a pass (the workload's invocations, one after
another) starts when the previous pass has exited, until ``--seconds`` are
used.  It reports the end-to-end metrics declared in ``BENCHMARK.json``.

``--trace 1`` spends half the time on the same untraced CLI passes and the
rest on in-process passes that send the same inputs serially through the
package's public functions, alternately with spans around every call and
with tracing off.  It reports the per-layer metrics.

Every CLI output is checked against an oracle (computed outside the timed
region) and against the first pass byte for byte; failures count against
``attempted``.  The last line of standard output is the result object;
the lines before it give each metric's median, quartiles and sample count,
and the environment.  Spans and the full record go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple, Optional

from tracing import Tracer, self_seconds, span_counts

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: Measured set-up probes per run (after one unmeasured warm-up).
SETUP_PROBES = 5
#: Longest a single CLI invocation may take before it is killed and failed.
INVOCATION_TIMEOUT_S = 120.0
THREADS_ENV_VAR = "DISPERSIVE_NPHOTON_THREADS"
LAYER_PREFIXES = ("models.", "eigensolve.", "analytic.", "dynamics.")


class Sample(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int


class Pass(NamedTuple):
    wall_s: float
    cpu_s: float
    rss_mb: float
    outputs: list  # (returncode, csv bytes) per invocation


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # The workloads fix the worker count through --threads.
    env.pop(THREADS_ENV_VAR, None)
    return env


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv: list, stderr_path: Path) -> Sample:
    """Run one child to completion; CPU and peak RSS cover its waited tree.

    The child leads its own process group, so a timeout or an interrupt
    also stops the CLI's pool workers.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err,
            start_new_session=True,
        )
        killer = threading.Timer(INVOCATION_TIMEOUT_S, kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode
    )


class Runner:
    """Runs CLI passes and set-up probes of one workload in a scratch dir."""

    def __init__(self, workload, tmp: Path):
        self.workload = workload
        self.tmp = tmp
        self.configs = {}
        for inv in workload.invocations + (workload.pool_variant() or []):
            path = tmp / f"config-{inv.label}.json"
            path.write_text(json.dumps(inv.config, sort_keys=True))
            self.configs[inv.label] = path

    def cli_pass(self, invocations) -> Pass:
        samples, outputs = [], []
        for inv in invocations:
            out = self.tmp / f"out-{inv.label}.csv"
            out.unlink(missing_ok=True)
            argv = [
                sys.executable, "-m", "dispersive_nphoton.cli", inv.args[0],
                "--config", str(self.configs[inv.label]), *inv.args[1:],
                "--out", str(out),
            ]
            sample = run_process(argv, self.tmp / f"err-{inv.label}.txt")
            samples.append(sample)
            outputs.append((sample.returncode, out.read_bytes() if out.exists() else b""))
            if sample.returncode != 0:
                err = (self.tmp / f"err-{inv.label}.txt").read_text(errors="replace")
                print(f"{inv.label}: exit {sample.returncode}: {err.strip()}", file=sys.stderr)
        return Pass(
            sum(s.wall_s for s in samples),
            sum(s.cpu_s for s in samples),
            max(s.rss_mb for s in samples),
            outputs,
        )

    def setup_probe(self) -> float:
        inv = self.workload.invocations[0]
        model = inv.args[inv.args.index("--model") + 1]
        argv = [sys.executable, str(HERE / "setup_probe.py"),
                str(self.configs[inv.label]), model]
        sample = run_process(argv, self.tmp / "err-setup.txt")
        if sample.returncode != 0:
            raise RuntimeError("set-up probe failed: "
                               + (self.tmp / "err-setup.txt").read_text(errors="replace"))
        return sample.wall_s


class Checker:
    """Counts attempted and failed operations over every CLI output."""

    def __init__(self, workload):
        self.workload = workload
        self.reference: dict[str, bytes] = {}
        self.verdicts: dict[bytes, int] = {}
        self.attempted = 0
        self.failed = 0

    def add(self, invocations, passed: Pass, references=None) -> None:
        """Check one pass; ``references`` name the invocations whose bytes
        each output must equal (by default, the same invocations)."""
        for inv, ref_inv, (code, data) in zip(
            invocations, references or invocations, passed.outputs
        ):
            self.attempted += inv.ops
            ref = self.reference.setdefault(ref_inv.label, data)
            if code != 0 or data != ref:
                self.failed += inv.ops
                continue
            if data not in self.verdicts:
                self.verdicts[data] = self.workload.check(inv, data.decode())
            self.failed += self.verdicts[data]


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def closed_loop(runner: Runner, checker: Checker, seconds: float) -> list[Pass]:
    """Passes back to back; a pass starts only if it should end in time."""
    invocations = runner.workload.invocations
    start = time.perf_counter()
    passes = []
    while True:
        p = runner.cli_pass(invocations)
        checker.add(invocations, p)
        passes.append(p)
        if time.perf_counter() - start + p.wall_s > seconds:
            return passes


def end_to_end(workload, passes: list[Pass], setups: list) -> dict:
    ops = sum(inv.ops for inv in workload.invocations)
    return {
        "wall_s": ([p.wall_s for p in passes], "s"),
        "setup_s": (setups, "s"),
        "points_per_s": ([ops / p.wall_s for p in passes], "1/s"),
        "cpu_s": ([p.cpu_s for p in passes], "s"),
        "peak_rss_mb": ([p.rss_mb for p in passes], "MB"),
    }


def in_process_pass(workload, trace_id: int, enabled: bool):
    tracer = Tracer(trace_id, enabled)
    start = time.perf_counter()
    workload.traced_pass(tracer)
    return tracer, time.perf_counter() - start


def layer_metrics(tracer) -> dict:
    secs = self_seconds(tracer.spans)
    calls = span_counts(tracer.spans)
    c = tracer.counts

    def frac(num, den):
        return c[num] / c[den] if c[den] else 0.0

    return {
        "models.build_calls": calls.get("models.build", 0),
        "models.build_s": secs.get("models.build", 0.0),
        "models.nnz": c["models.nnz"],
        "eigensolve.lanczos_calls": calls.get("eigensolve.lanczos", 0),
        "eigensolve.lanczos_s": secs.get("eigensolve.lanczos", 0.0),
        "eigensolve.lanczos_failures": c["eigensolve.lanczos_failures"],
        "eigensolve.dense_calls": calls.get("eigensolve.dense", 0),
        "eigensolve.dense_s": secs.get("eigensolve.dense", 0.0),
        "eigensolve.dense_useful_frac": frac("dense.kept", "dense.computed"),
        "eigensolve.label_s": secs.get("eigensolve.label", 0.0),
        "eigensolve.track_s": secs.get("eigensolve.track", 0.0),
        "eigensolve.filter_kept_frac": frac("filter.kept", "filter.computed"),
        "analytic.level_calls": c["analytic.level_calls"],
        "analytic.level_s": secs.get("analytic.level", 0.0),
        "dynamics.evolve_calls": calls.get("dynamics.evolve", 0),
        "dynamics.evolve_s": secs.get("dynamics.evolve", 0.0),
        "dynamics.reduce_s": secs.get("dynamics.reduce", 0.0),
        "_layer_total_s": sum(v for k, v in secs.items() if k.startswith(LAYER_PREFIXES)),
    }


def per_layer(workload, runner, checker, seconds, setups, spans_out) -> dict:
    passes = closed_loop(runner, checker, seconds / 2.0)
    cli_wall = statistics.median(p.wall_s for p in passes)
    parallel_eff = 0.0
    pool = workload.pool_variant()
    if pool:
        pooled = runner.cli_pass(pool)
        # Same inputs, so the CSV must match the serial passes byte for byte.
        checker.add(pool, pooled, references=workload.invocations)
        parallel_eff = cli_wall / (workload.POOL_THREADS * pooled.wall_s)

    traced, untraced, layers = [], [], []
    deadline = time.perf_counter() + seconds / 2.0
    trace_id = 0
    while not traced or time.perf_counter() + traced[-1] + untraced[-1] < deadline:
        trace_id += 1
        tracer, wall = in_process_pass(workload, trace_id, True)
        traced.append(wall)
        layers.append(layer_metrics(tracer))
        spans_out.extend(tracer.spans)
        untraced.append(in_process_pass(workload, trace_id, False)[1])

    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    layer_total = metrics.pop("_layer_total_s")
    setup = statistics.median(setups) * len(workload.invocations)
    metrics["cli.self_s"] = cli_wall - setup - layer_total
    metrics["cli.parallel_eff"] = parallel_eff
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    return metrics


def blas_threads() -> Optional[int]:
    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment(runs: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dispersive_nphoton").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "runs": runs,
    }


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        declared: dict) -> dict:
    from workloads import make_workload

    workload = make_workload(name, seed, smoke)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        runner = Runner(workload, tmp)
        checker = Checker(workload)
        runner.setup_probe()  # warm-up: the first import compiles bytecode
        setups = [runner.setup_probe() for _ in range(1 if smoke else SETUP_PROBES)]
        workload.prepare()
        spans = []
        if trace:
            values = per_layer(workload, runner, checker, seconds, setups, spans)
            units = {m["name"]: m["unit"] for m in declared["per_layer"]}
            metrics = {k: (v, units.get(k, "")) for k, v in values.items()}
            samples = {}
            runs = {"setup_probes": len(setups)}
        else:
            passes = closed_loop(runner, checker, seconds)
            stats = end_to_end(workload, passes, setups)
            metrics = {k: (statistics.median(v), u) for k, (v, u) in stats.items()}
            samples = {k: v for k, (v, _) in stats.items()}
            runs = {"passes": len(passes), "setup_probes": len(setups)}
            report(stats, workload.sim_time)
        print(f"fail_frac      {checker.failed / max(checker.attempted, 1):.6g} "
              f"({checker.failed} of {checker.attempted} operations)")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
        },
    }
    env = environment(runs)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    (WORK / f"result-{tag}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "seconds": seconds, "environment": env,
         "samples": samples, "result": result}, indent=1))
    if trace:
        (WORK / f"spans-{tag}.json").write_text(json.dumps([s._asdict() for s in spans]))
        for k, v in result["metrics"].items():
            print(f"{k:30s} {v['value']:.6g} {v['unit']}")
    print("environment: " + json.dumps(env, sort_keys=True))
    names = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    missing = set(names) ^ set(result["metrics"])
    if missing:
        raise RuntimeError(f"metric names differ from BENCHMARK.json: {sorted(missing)}")
    return result


def report(stats: dict, sim_time: float) -> None:
    for name, (values, unit) in stats.items():
        q1, med, q3 = quartiles(values)
        print(f"{name:14s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    if sim_time:
        walls = stats["wall_s"][0]
        print(f"sim_time_per_s median {sim_time / statistics.median(walls):.6g} 1/s")


def smoke(declared: dict) -> int:
    ok = True
    for workload in declared["workloads"]:
        for trace in (False, True):
            name = workload["name"]
            result = run(name, 0, 1.0, trace, True, declared)
            good = result["correct"] and result["attempted"] > 0
            print(f"smoke {name} trace={int(trace)}: "
                  f"{'ok' if good else 'FAILED'}", file=sys.stderr)
            ok = ok and good
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; without --workload, every workload in both modes")
    args = parser.parse_args(argv)

    if not (SRC / "dispersive_nphoton" / "__init__.py").is_file():
        print("error: run from the repository root: src/dispersive_nphoton is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload is None:
        if not args.smoke:
            parser.error("--workload is required unless --smoke is given")
        return smoke(declared)
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
                 declared)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
