"""End-to-end tests for the ``dispersive-nphoton`` command-line interface.

Every test drives :func:`dispersive_nphoton.cli.main` in process (capturing
stdout/stderr), except one subprocess smoke test that proves the module is
runnable as ``python -m``.  CSV expectations are frozen from hand-checked
values; byte-level determinism is asserted across reruns and worker counts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dispersive_nphoton
from dispersive_nphoton import SystemSpec, dynamics, effective_two_qubit_params
from dispersive_nphoton.models import build_model, with_swept
from dispersive_nphoton.cli import (
    DYNAMICS_COLUMNS,
    MAX_STEPS,
    SCHEMA_VERSION,
    SWEEP_COLUMNS,
    _provenance_line,
    _write_lines,
    build_parser,
    main,
    parse_sweep,
    resolve_threads,
)

SINGLE = {
    "topology": "single",
    "qubits": [{"omega_q": 2.5, "n": 2, "g": 0.02}],
    "oscillators": [{"trunc": 25}],
}
PAIR = {
    "topology": "multiqubit",
    "qubits": [
        {"omega_q": 8.0, "n": 2, "g": 0.02},
        {"omega_q": 7.4, "n": 2, "g": 0.03},
    ],
    "oscillators": [{"trunc": 20}],
}
HIGH_ORDER = {
    "topology": "single",
    "qubits": [{"omega_q": 300.5, "n": 120, "g": 1e-6}],
    "oscillators": [{"trunc": 1200}],
}
DYN = {
    "topology": "single",
    "qubits": [{"omega_q": 8.0, "n": 2, "g": 0.02}],
    "oscillators": [{"trunc": 16}],
}


def run_cli(argv):
    """Invoke the CLI in process, returning (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_with_out(tmp_path, argv):
    """:func:`run_cli` with ``--out`` for a command that takes it; for a
    refused run, the output file must not exist afterwards."""
    out_path = tmp_path / "refused.csv"
    if argv[0] not in ("critical-nph", "dressed-freq"):
        argv = [*argv, "--out", str(out_path)]
    code, out, err = run_cli(argv)
    if code == 2:
        assert not out_path.exists()
    return code, out, err


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def parse_csv(text):
    """Split CLI output into (provenance dict, header list, rows of lists)."""
    lines = text.splitlines()
    assert lines[0].startswith("# provenance: ")
    prov = json.loads(lines[0][len("# provenance: ") :])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return prov, header, rows


class TestHelpers:
    def test_parse_sweep_linspace(self):
        name, values = parse_sweep("g:0:0.3:4")
        assert name == "g"
        assert values.tolist() == pytest.approx([0.0, 0.1, 0.2, 0.3])
        assert values[0] == 0.0 and values[-1] == 0.3

    def test_parse_sweep_single_point(self):
        name, values = parse_sweep("eta:0.02:0.02:1")
        assert name == "eta"
        assert values.tolist() == [0.02]

    def test_parse_sweep_indexed_variable(self):
        name, values = parse_sweep("g1:0:0.1:2")
        assert name == "g1"
        assert values.tolist() == [0.0, 0.1]

    @pytest.mark.parametrize(
        "text",
        ["g:0:1", "g:0:1:2:3", "omega:0:1:2", "g:a:1:2", "g:0:1:0"],
    )
    def test_parse_sweep_rejects(self, text):
        from dispersive_nphoton import ConfigError

        with pytest.raises(ConfigError):
            parse_sweep(text)

    def test_resolve_threads_flag(self):
        assert resolve_threads(4) == 4

    def test_resolve_threads_default_positive(self):
        assert resolve_threads(None) >= 1

    def test_resolve_threads_default_is_usable_cpus(self):
        import dispersive_nphoton.cli as cli

        assert resolve_threads(None) == cli._usable_cpus()

    @pytest.mark.parametrize("flag", [0, -3])
    def test_resolve_threads_rejects_flag_below_one(self, flag):
        from dispersive_nphoton import ConfigError

        with pytest.raises(ConfigError, match="--threads"):
            resolve_threads(flag)


class TestScalarCommands:
    def test_coeff_table_golden_bytes(self):
        code, out, _ = run_cli(["coeff-table", "--n-max", "2"])
        assert code == 0
        assert out == (
            '# provenance: {"command": "coeff-table", "n_max": 2,'
            ' "schema_version": 1}\n'
            "table,n,k,value\n"
            "cplus,1,0,1\n"
            "cplus,1,1,2\n"
            "cplus,2,0,2\n"
            "cplus,2,1,2\n"
            "cplus,2,2,2\n"
            "cminus,1,0,1\n"
            "cminus,2,0,2\n"
            "cminus,2,1,4\n"
            "normal_order,1,0,1\n"
            "normal_order,1,1,1\n"
            "normal_order,2,0,2\n"
            "normal_order,2,1,3\n"
            "normal_order,2,2,1\n"
        )

    def test_coeff_table_matches_library(self):
        from dispersive_nphoton import c_coeff, commutator_poly, normal_order_aadag

        code, out, _ = run_cli(["coeff-table", "--n-max", "4"])
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["table", "n", "k", "value"]
        for table, n, k, value in rows:
            n, k, value = int(n), int(k), int(value)
            if table == "cplus":
                assert value == c_coeff(n, k, "plus")
            elif table == "cminus":
                assert value == commutator_poly(n)[1][k]
            else:
                assert table == "normal_order"
                assert value == normal_order_aadag(n)[k]

    def test_coeff_table_streams_its_rows(self, tmp_path):
        # Traced peaks of this table: 39.7 MB when its lines were joined into
        # one string, 19.8 MB when they are held as a list and written one by
        # one, and about 6.4 MB streamed, mostly the cached Stirling rows.
        path = tmp_path / "table.csv"
        argv = ["coeff-table", "--n-max", "200", "--out", str(path)]
        src = str(Path(dispersive_nphoton.__file__).parents[1])
        env_path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_PROBE, *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": env_path},
        )
        assert proc.returncode == 0, proc.stderr
        code, peak = map(int, proc.stdout.split())
        assert code == 0
        assert peak < 0.25 * 39.7e6
        text = path.read_text()
        assert text.count("\n") == 2 + sum(3 * n + 2 for n in range(1, 201))
        assert run_cli(argv[:3]) == (0, text, "")

    @pytest.mark.parametrize("lines", [[], [""], ["a"], ["a", "", "b"]])
    def test_written_lines_are_joined_lines(self, tmp_path, capsys, lines):
        want = "\n".join(lines) + "\n"
        path = tmp_path / "out.txt"
        _write_lines(str(path), iter(lines))
        assert path.read_bytes() == want.encode()
        _write_lines("-", iter(lines))
        assert capsys.readouterr().out == want

    def test_critical_nph_delta(self):
        code, out, _ = run_cli(
            ["critical-nph", "--n", "2", "--g", "0.01", "--delta", "0.5"]
        )
        assert (code, out) == (0, "50\n")

    def test_critical_nph_omega_q(self):
        code, out, _ = run_cli(
            ["critical-nph", "--n", "2", "--g", "0.01", "--omega-q", "2.5"]
        )
        assert (code, out) == (0, "50\n")

    def test_critical_nph_requires_exactly_one_detuning_source(self):
        with pytest.raises(SystemExit):
            run_cli(["critical-nph", "--n", "2", "--g", "0.01"])
        with pytest.raises(SystemExit):
            run_cli(
                [
                    "critical-nph",
                    "--n", "2",
                    "--g", "0.01",
                    "--delta", "0.5",
                    "--omega-q", "2.5",
                ]
            )

    def test_dressed_freq_vacuum(self):
        # n=2, g=0.01, delta=0.5: chi = 2e-4, vacuum shift chi * 2 = 4e-4.
        code, out, _ = run_cli(
            [
                "dressed-freq",
                "--omega-q", "2.5",
                "--n", "2",
                "--g", "0.01",
                "--alpha", "0",
            ]
        )
        assert (code, out) == (0, "2.5004\n")

    def test_dressed_freq_conventions_differ(self):
        argv = [
            "dressed-freq",
            "--omega-q", "2.5",
            "--n", "2",
            "--g", "0.01",
            "--alpha", "1.5",
        ]
        # The moments are the exact coherent ones, <a†^l a^l> = |alpha|^(2l),
        # and no option selects others.
        _, exact, _ = run_cli(argv)
        assert exact == "2.504225\n"
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--moment-convention", "amplitude_literal"])
        assert exc.value.code == 2

    def test_version_string(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["--version"])
        assert exc.value.code == 0


class TestSpectrumCommand:
    def test_point_run_shape_and_values(self, tmp_path):
        cfg = write_config(tmp_path, SINGLE)
        code, out, _ = run_cli(
            ["spectrum", "--config", cfg, "--model", "nR", "-k", "4"]
        )
        assert code == 0
        prov, header, rows = parse_csv(out)
        assert header == list(SWEEP_COLUMNS)
        assert len(rows) == 4
        # Point runs leave the sweep columns blank.
        assert all(row[0] == "" and row[1] == "" for row in rows)
        assert [row[2] for row in rows] == ["g", "g", "g", "e"]
        assert [row[3] for row in rows] == ["0", "1", "2", "0"]
        energies = [float(row[4]) for row in rows]
        assert energies == sorted(energies)
        assert abs(energies[0] - (-1.25)) < 5e-3
        # Analytic columns populated and close to numerics in this regime.
        for row in rows:
            assert abs(float(row[6]) - float(row[4])) < 5e-3
        assert all(row[8] == "0" and row[9] == "0" for row in rows)

    def test_provenance_round_trips(self, tmp_path):
        cfg = write_config(tmp_path, SINGLE)
        code, out, _ = run_cli(
            ["spectrum", "--config", cfg, "--model", "nR", "-k", "2"]
        )
        assert code == 0
        prov, _, _ = parse_csv(out)
        assert prov["schema_version"] == SCHEMA_VERSION
        assert prov["command"] == "spectrum"
        assert SystemSpec.from_dict(prov["config"]) == SystemSpec.from_dict(SINGLE)
        # No volatile fields: the provenance line is a pure function of inputs.
        assert not any("time" in key or "date" in key for key in prov)

    def test_sweep_rows_and_filter_marks(self, tmp_path):
        cfg = write_config(tmp_path, SINGLE)
        code, out, _ = run_cli(
            [
                "spectrum",
                "--config", cfg,
                "--model", "nR",
                "-k", "4",
                "--sweep", "g:0:0.02:3",
                "--nbar-max", "1.5",
            ]
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 12
        assert [row[1] for row in rows[::4]] == ["0", "0.01", "0.02"]
        assert all(row[0] == "g" for row in rows)
        # Filtering marks rows instead of dropping them: the j=2 level sits
        # above the photon cut, the others below it.
        flags = [row[9] for row in rows]
        assert flags == ["0", "0", "1", "0"] * 3

    def test_writes_file(self, tmp_path):
        cfg = write_config(tmp_path, SINGLE)
        out_path = tmp_path / "spec.csv"
        code, out, _ = run_cli(
            [
                "spectrum",
                "--config", cfg,
                "--model", "nR",
                "-k", "2",
                "--out", str(out_path),
            ]
        )
        assert code == 0
        assert out == ""
        _, header, rows = parse_csv(out_path.read_text())
        assert header == list(SWEEP_COLUMNS)
        assert len(rows) == 2

    def test_byte_determinism_across_runs_and_threads(self, tmp_path):
        cfg = write_config(tmp_path, SINGLE)
        argv = [
            "spectrum",
            "--config", cfg,
            "--model", "nR",
            "-k", "3",
            "--sweep", "g:0:0.02:3",
        ]
        outputs = [
            run_cli(argv + ["--threads", "1"]),
            run_cli(argv + ["--threads", "1"]),
            run_cli(argv + ["--threads", "3"]),
        ]
        assert all(code == 0 for code, _, _ in outputs)
        assert outputs[0][1] == outputs[1][1] == outputs[2][1]

    def test_physical_scale_multiplies_energy_columns_only(self, tmp_path):
        cfg = write_config(tmp_path, SINGLE)
        base_argv = ["spectrum", "--config", cfg, "--model", "nR", "-k", "2"]
        _, plain, _ = run_cli(base_argv)
        _, scaled, _ = run_cli(base_argv + ["--physical-scale", "2.0"])
        _, _, rows_plain = parse_csv(plain)
        _, _, rows_scaled = parse_csv(scaled)
        for row_p, row_s in zip(rows_plain, rows_scaled):
            for col in (4, 5, 6):  # e_numeric, e_rwa, e_nonrwa
                # Columns are printed at 12 significant digits, so comparing
                # re-parsed text tolerates that quantization.
                assert float(row_s[col]) == pytest.approx(
                    2.0 * float(row_p[col]), rel=1e-9
                )
            assert row_s[7] == row_p[7]  # overlap untouched
            assert row_s[2:4] == row_p[2:4]

    def test_analytic_columns_blank_for_nonperturbative_model(self, tmp_path):
        cfg = write_config(tmp_path, SINGLE)
        code, out, _ = run_cli(
            ["spectrum", "--config", cfg, "--model", "full_nR", "-k", "3"]
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert all(row[5] == "" and row[6] == "" for row in rows)
        assert all(row[4] != "" for row in rows)

    def test_analytic_columns_blank_on_resonance(self, tmp_path):
        resonant = {
            "topology": "single",
            "qubits": [{"omega_q": 2.0, "n": 2, "g": 0.02}],
            "oscillators": [{"trunc": 25}],
        }
        cfg = write_config(tmp_path, resonant)
        code, out, _ = run_cli(
            ["spectrum", "--config", cfg, "--model", "nR", "-k", "2"]
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert all(row[5] == "" and row[6] == "" for row in rows)

    def test_analytic_columns_blank_beyond_float_range(self, tmp_path):
        # The n = 120 polynomials leave the float range at the labelled j.
        cfg = write_config(tmp_path, HIGH_ORDER)
        code, out, err = run_cli(
            ["spectrum", "--config", cfg, "--model", "nR", "-k", "4"]
        )
        assert (code, err) == (0, "")
        _, _, rows = parse_csv(out)
        assert len(rows) == 4
        assert all(row[5] == "" and row[6] == "" for row in rows)
        assert all(row[4] != "" for row in rows)

    @pytest.mark.parametrize("sweep", [[], ["--sweep", "g:0:0.02:3"]])
    def test_builds_one_model_per_point(self, tmp_path, monkeypatch, sweep):
        import dispersive_nphoton.cli as cli

        built = []

        def counting_build(*args):
            built.append(args)
            return build_model(*args)

        monkeypatch.setattr(cli, "build_model", counting_build)
        cfg = write_config(tmp_path, SINGLE)
        argv = ["spectrum", "--config", cfg, "--model", "nR", "-k", "2"]
        assert run_cli(argv + sweep + ["--threads", "1"])[0] == 0
        assert len(built) == (3 if sweep else 1)

    @pytest.mark.parametrize("env", ["abc", "0"])
    def test_threads_variable_is_inert(self, tmp_path, monkeypatch, env):
        # Only --threads sets the worker count: this variable changes no
        # byte, whatever it holds.
        cfg = write_config(tmp_path, SINGLE)
        argv = ["spectrum", "--config", cfg, "--model", "nR", "-k", "2"]
        argv += ["--sweep", "g:0:0.01:2", "--threads", "1"]
        monkeypatch.delenv("DISPERSIVE_NPHOTON_THREADS", raising=False)
        baseline = run_cli(argv)
        monkeypatch.setenv("DISPERSIVE_NPHOTON_THREADS", env)
        assert run_cli(argv) == baseline and baseline[0] == 0


class TestWorkerCount:
    """``spectrum`` starts no more workers than grid points or CPUs that the
    process may use.  A recording stand-in replaces the process pool, so no
    worker process is ever started; the CPUs are patched to 2."""

    SWEEP = ["--sweep", "g:0:0.01:5"]

    @pytest.fixture
    def pools(self, monkeypatch):
        import dispersive_nphoton.cli as cli

        made = []

        class RecordingPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return list(map(fn, items))

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        return made

    def _argv(self, tmp_path, *extra):
        cfg = write_config(tmp_path, SINGLE)
        return ["spectrum", "--config", cfg, "--model", "nR", "-k", "2", *extra]

    def test_flag_is_capped_at_usable_cpus(self, tmp_path, pools):
        serial = run_cli(self._argv(tmp_path, *self.SWEEP, "--threads", "1"))
        assert pools == []
        capped = run_cli(self._argv(tmp_path, *self.SWEEP, "--threads", "5000"))
        assert pools == [2]
        assert capped == serial and serial[0] == 0

    def test_one_usable_cpu_runs_in_process(self, tmp_path, pools, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert run_cli(self._argv(tmp_path, *self.SWEEP, "--threads", "8"))[0] == 0
        assert pools == []

    def test_cpu_count_without_affinity(self, tmp_path, pools, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert run_cli(self._argv(tmp_path, *self.SWEEP, "--threads", "5000"))[0] == 0
        assert pools == [2]

    def test_single_point_runs_in_process(self, tmp_path, pools):
        assert run_cli(self._argv(tmp_path, "--threads", "5000"))[0] == 0
        assert pools == []


class TestExitCodes:
    @pytest.fixture
    def capped(self, monkeypatch):
        """Every grid point's Lanczos blocks get a budget of 3 iterations
        (the CLI runs in process, so its solve is patched)."""
        import dispersive_nphoton.cli as cli

        monkeypatch.setattr(
            cli,
            "solve_lowest",
            lambda h, k, method: dispersive_nphoton.eigs_lowest(h, k, max_iters=3),
        )

    def test_missing_config_exits_2(self, tmp_path):
        code, _, err = run_cli(
            [
                "spectrum",
                "--config", str(tmp_path / "nope.json"),
                "--model", "nR",
                "-k", "2",
            ]
        )
        assert code == 2
        assert err.startswith("error:")

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(
            ["spectrum", "--config", str(bad), "--model", "nR", "-k", "2"]
        )
        assert code == 2
        assert err.startswith("error:")

    def test_model_topology_mismatch_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, PAIR)
        code, _, err = run_cli(
            ["spectrum", "--config", cfg, "--model", "nR", "-k", "2"]
        )
        assert code == 2
        assert err.startswith("error:")

    def test_solver_failure_exits_3_with_flag_row(self, tmp_path, capped):
        cfg = write_config(tmp_path, SINGLE)
        out_path = tmp_path / "partial.csv"
        code, _, err = run_cli(
            [
                "spectrum",
                "--config", cfg,
                "--model", "nR",
                "-k", "2",
                "--method", "lanczos",
                "--out", str(out_path),
            ]
        )
        assert code == 3
        assert err.startswith("solver failure:") or "solver failure" in err
        # The partial file still carries provenance, header, and a flag row
        # with empty labels and terminated=1.
        _, header, rows = parse_csv(out_path.read_text())
        assert header == list(SWEEP_COLUMNS)
        assert len(rows) == 1
        assert rows[0][2] == "" and rows[0][4] == ""
        assert rows[0][8] == "1"

    def test_sweep_solver_failure_keeps_completed_points(self, tmp_path, capped):
        cfg = write_config(tmp_path, SINGLE)
        out_path = tmp_path / "partial_sweep.csv"
        code, _, _ = run_cli(
            [
                "spectrum",
                "--config", cfg,
                "--model", "nR",
                "-k", "2",
                "--sweep", "g:0:0.02:2",
                "--method", "lanczos",
                "--threads", "1",
                "--out", str(out_path),
            ]
        )
        assert code == 3
        _, _, rows = parse_csv(out_path.read_text())
        # Every sweep point appears: either as data rows or as a flag row.
        assert {row[1] for row in rows} == {"0", "0.02"}
        assert any(row[8] == "1" for row in rows)

    def test_levels_stops_at_first_failed_point(self, tmp_path, capped):
        cfg = write_config(tmp_path, {**SINGLE, "oscillators": [{"trunc": 60}]})
        code, out, err = run_cli(
            [
                "levels",
                "--config", cfg,
                "--model", "nR",
                "--sweep", "g:0:0.04:3",
                "--method", "lanczos",
            ]
        )
        assert code == 3
        assert err.startswith("solver failure at sweep value 0.02: Lanczos")
        assert len(err.splitlines()) == 1
        _, _, rows = parse_csv(out)
        # The diagonal g = 0 point converges; the run ends at 0.02 with one
        # flag row and never reaches 0.04.
        assert {row[1] for row in rows[:-1]} == {"0"}
        assert rows[-1] == ["g", "0.02", "", "", "", "", "", "", "1", "0"]

    def test_coeff_table_n_max_below_one_exits_2(self, tmp_path):
        code, out, err = run_with_out(tmp_path, ["coeff-table", "--n-max", "0"])
        assert (code, out, err) == (2, "", "error: --n-max must be >= 1, got 0\n")

    def test_first_grid_point_raises_config_errors(self, tmp_path):
        # The unswept model is not built up front; the workers' first build
        # reports the truncation error the same way.
        payload = {**SINGLE, "qubits": [{**SINGLE["qubits"][0], "n": 3}]}
        payload["oscillators"] = [{"trunc": 3}]
        cfg = write_config(tmp_path, payload)
        out_path = tmp_path / "out.csv"
        argv = ["spectrum", "--config", cfg, "--model", "nR", "--out", str(out_path)]
        argv += ["--sweep", "g:0:0.02:4", "--threads", "2"]
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: exchange order n=3") and err.count("\n") == 1
        assert not out_path.exists()

    def test_truncation_error_exits_2(self, tmp_path):
        payload = {**SINGLE, "qubits": [{**SINGLE["qubits"][0], "n": 3}]}
        payload["oscillators"] = [{"trunc": 3}]
        cfg = write_config(tmp_path, payload)
        code, out, err = run_cli(["spectrum", "--config", cfg, "--model", "nR"])
        assert code == 2
        assert out == ""
        assert err.startswith("error: exchange order n=3") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, extra",
        [
            ("spectrum", ["-k", "-3"]),
            ("spectrum", ["-k", "0", "--method", "lanczos"]),
            ("levels", ["--num-levels", "0", "--sweep", "g:0:0.02:2"]),
        ],
    )
    def test_num_levels_below_one_exits_2(self, tmp_path, command, extra):
        cfg = write_config(tmp_path, SINGLE)
        code, out, err = run_with_out(
            tmp_path, [command, "--config", cfg, "--model", "nR", *extra]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "num-levels" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("max_iters", ["0", "-5"])
    @pytest.mark.parametrize(
        "command, extra",
        [
            ("spectrum", []),
            ("spectrum", ["--method", "lanczos"]),
            ("levels", ["--sweep", "g:0:0.02:2"]),
        ],
    )
    def test_max_iters_below_one_exits_2(self, tmp_path, command, extra, max_iters):
        # There is no --max-iters option: the parser refuses any value, and
        # no output file is written.
        cfg = write_config(tmp_path, SINGLE)
        out_path = tmp_path / "refused.csv"
        argv = [command, "--config", cfg, "--model", "nR", "--out", str(out_path)]
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, "--max-iters", max_iters, *extra])
        assert exc.value.code == 2
        assert not out_path.exists()
        assert "max_iters" not in vars(build_parser().parse_args([*argv, *extra]))

    # The ids keep the test names stable across versions of the suite.
    @pytest.mark.parametrize("flag", ["0", "-3"], ids=["0-None", "-3-None"])
    def test_threads_below_one_exits_2(self, tmp_path, monkeypatch, flag):
        # The count is refused before any worker pool is made.
        import dispersive_nphoton.cli as cli

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        cfg = write_config(tmp_path, SINGLE)
        argv = ["spectrum", "--config", cfg, "--model", "nR", "-k", "2"]
        argv += ["--sweep", "g:0:0.02:3"]
        code, out, err = run_with_out(tmp_path, argv + ["--threads", flag])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--threads" in err


class TestLevelsCommand:
    def test_tracks_curves_across_sweep(self, tmp_path):
        cfg = write_config(tmp_path, SINGLE)
        code, out, _ = run_cli(
            [
                "levels",
                "--config", cfg,
                "--model", "nJC",
                "-k", "3",
                "--sweep", "g:0:0.1:3",
            ]
        )
        assert code == 0
        prov, header, rows = parse_csv(out)
        assert header == list(SWEEP_COLUMNS)
        assert prov["continuity_floor"] == 0.5
        assert len(rows) == 9
        # Three curves per sweep point, labels stable along each curve.
        by_curve = {}
        for row in rows:
            by_curve.setdefault((row[2], row[3]), []).append(row)
        assert len(by_curve) == 3
        assert all(len(points) == 3 for points in by_curve.values())
        # The excitation-conserving model pins the lowest g-branch level.
        ground = by_curve[("g", "0")]
        assert [float(row[4]) for row in ground] == pytest.approx(
            [-1.25, -1.25, -1.25], abs=1e-12
        )
        assert all(row[8] == "0" for row in rows)

    def test_sweep_is_required(self, tmp_path):
        cfg = write_config(tmp_path, SINGLE)
        with pytest.raises(SystemExit):
            run_cli(["levels", "--config", cfg, "--model", "nJC", "-k", "3"])


class TestLabelingPerPoint:
    """``levels`` labels only its seed point, which is all that tracking
    reads; ``spectrum`` labels every point, whose rows carry the labels."""

    @pytest.mark.parametrize("command, calls", [("levels", 1), ("spectrum", 5)])
    def test_label_calls(self, tmp_path, monkeypatch, command, calls):
        from dispersive_nphoton import cli

        labeled = []
        real = cli.label_by_overlap
        monkeypatch.setattr(
            cli, "label_by_overlap", lambda r: labeled.append(r.k) or real(r)
        )
        argv = [
            command,
            "--config", write_config(tmp_path, SINGLE),
            "--model", "nR",
            "-k", "6",
            "--sweep", "g:0:0.1:5",
        ]
        if command == "spectrum":
            argv += ["--threads", "1"]
        code, out, _ = run_cli(argv)
        assert code == 0
        assert len(labeled) == calls
        assert len(parse_csv(out)[2]) == 30


class TestDynamicsCommand:
    def test_diagonal_model_has_unit_fidelities(self, tmp_path):
        cfg = write_config(tmp_path, DYN)
        code, out, _ = run_cli(
            [
                "dynamics",
                "--config", cfg,
                "--model", "dispersive",
                "--regime", "rwa",
                "--state", "bell",
                "--t-end", "10",
                "--steps", "4",
            ]
        )
        assert code == 0
        prov, header, rows = parse_csv(out)
        assert header == list(DYNAMICS_COLUMNS)
        assert prov["command"] == "dynamics"
        assert SystemSpec.from_dict(prov["config"]) == SystemSpec.from_dict(DYN)
        assert len(rows) == 5
        assert [float(row[0]) for row in rows] == pytest.approx(
            [0.0, 2.5, 5.0, 7.5, 10.0]
        )
        for row in rows:
            # Diagonal generator: reduced states never move.
            assert float(row[1]) == pytest.approx(1.0, abs=1e-10)
            assert float(row[2]) == pytest.approx(1.0, abs=1e-10)
            assert float(row[3]) == pytest.approx(1.0, abs=1e-10)
            assert abs(float(row[4])) < 1e-12

    def test_full_model_fidelities_stay_high_but_move(self, tmp_path):
        cfg = write_config(tmp_path, DYN)
        code, out, _ = run_cli(
            [
                "dynamics",
                "--config", cfg,
                "--model", "nR",
                "--state", "bell",
                "--t-end", "200",
                "--steps", "8",
            ]
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        fidelities = [float(row[1]) for row in rows]
        assert all(f > 0.99 for f in fidelities)
        assert min(fidelities) < 1.0 - 1e-9

    def test_decomposes_once_per_run(self, tmp_path, monkeypatch):
        calls = []
        real = dynamics._block_eigh
        monkeypatch.setattr(
            dynamics, "_block_eigh", lambda *a: calls.append(a) or real(*a)
        )
        cfg = write_config(tmp_path, DYN)
        code, out, _ = run_cli(
            [
                "dynamics",
                "--config", cfg,
                "--model", "nR",
                "--state", "plus_coherent_1",
                "--t-end", "20",
                "--steps", "6",
            ]
        )
        assert code == 0
        assert len(parse_csv(out)[2]) == 7
        assert len(calls) == 1

    def test_propagation_failure_exits_3_with_rows_so_far(self, tmp_path, monkeypatch):
        # DENSE_LIMIT = 4 leaves no block inside the exact budget, so every
        # block runs Krylov, whose adaptive step cannot meet a 1e-300 target.
        monkeypatch.setattr(dynamics, "DENSE_LIMIT", 4)
        cfg = write_config(tmp_path, DYN)
        code, out, err = run_cli(
            [
                "dynamics",
                "--config", cfg,
                "--model", "nR",
                "--state", "bell",
                "--t-end", "3",
                "--steps", "2",
                "--local-tol", "1e-300",
            ]
        )
        assert code == 3
        assert err == (
            "propagation failure at t = 1.5: step size underflow at "
            "t_remaining=1.5 (local_tol=1e-300)\n"
        )
        _, header, rows = parse_csv(out)
        assert header == list(DYNAMICS_COLUMNS)
        assert [row[0] for row in rows] == ["0"]

    def test_substep_budget_exits_3(self, tmp_path, monkeypatch):
        # Every block on Krylov: at krylov_dim 2 the 30-state blocks of nR
        # n=2 at trunc 60 would take about 1.7e7 substeps to t = 100.
        monkeypatch.setattr(dynamics, "DENSE_LIMIT", 4)
        payload = {**SINGLE, "oscillators": [{"trunc": 60}]}
        code, out, err = run_cli(
            [
                "dynamics",
                "--config", write_config(tmp_path, payload),
                "--model", "nR",
                "--state", "plus_coherent_2",
                "--t-end", "100",
                "--steps", "1",
                "--krylov-dim", "2",
            ]
        )
        assert code == 3
        assert len(err.splitlines()) == 1
        assert err.startswith(
            "propagation failure at t = 100: substep budget exceeded"
        )
        assert [row[0] for row in parse_csv(out)[2]] == ["0"]

    def test_preset_beyond_truncation_exits_2(self, tmp_path):
        payload = {**DYN, "qubits": [{**DYN["qubits"][0], "n": 1}]}
        payload["oscillators"] = [{"trunc": 2}]
        cfg = write_config(tmp_path, payload)
        code, out, err = run_cli(
            [
                "dynamics",
                "--config", cfg,
                "--model", "nR",
                "--state", "bell",
                "--t-end", "1",
            ]
        )
        assert (code, out) == (2, "")
        assert err == "error: the bell preset requires at least 3 Fock levels\n"

    def test_requires_single_topology(self, tmp_path):
        cfg = write_config(tmp_path, PAIR)
        code, _, err = run_cli(
            [
                "dynamics",
                "--config", cfg,
                "--model", "dispersive",
                "--state", "bell",
                "--t-end", "1",
            ]
        )
        assert code == 2
        assert "single" in err

    def test_rejects_unknown_state(self, tmp_path):
        cfg = write_config(tmp_path, DYN)
        with pytest.raises(SystemExit):
            run_cli(
                [
                    "dynamics",
                    "--config", cfg,
                    "--model", "nR",
                    "--state", "bogus",
                    "--t-end", "1",
                ]
            )

    @pytest.mark.parametrize(
        "extra",
        [
            ["--t-end", "1", "--steps", "0"],
            ["--t-end", "nan"],
            ["--t-end", "inf"],
            ["--t-end", "1", "--krylov-dim", "1"],
            ["--t-end", "1", "--local-tol", "nan"],
            ["--t-end", "1", "--local-tol", "inf"],
            ["--t-end", "1", "--local-tol", "0"],
            ["--t-end", "1", "--local-tol", "-1"],
        ],
    )
    def test_rejects_bad_run_parameters(self, tmp_path, extra):
        cfg = write_config(tmp_path, DYN)
        code, out, err = run_with_out(
            tmp_path,
            [
                "dynamics",
                "--config", cfg,
                "--model", "nR",
                "--state", "bell",
                *extra,
            ],
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestEffectiveTwoQubit:
    def test_matches_library_values(self, tmp_path):
        cfg = write_config(tmp_path, PAIR)
        code, out, _ = run_cli(["eff-2q", "--config", cfg, "--alpha", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "omega_bar_1,omega_bar_2,g_bar"
        got = [float(x) for x in lines[2].split(",")]
        expected = effective_two_qubit_params(SystemSpec.from_dict(PAIR), 1.0)
        assert got == pytest.approx(list(expected), rel=1e-10)

    def test_requires_two_qubits(self, tmp_path):
        cfg = write_config(tmp_path, SINGLE)
        code, _, err = run_cli(["eff-2q", "--config", cfg, "--alpha", "1"])
        assert code == 2
        assert err.startswith("error:")


MIXED_ORDER_PAIR = {
    **PAIR,
    "qubits": [PAIR["qubits"][0], {**PAIR["qubits"][1], "n": 3}],
}
SCALAR_ARGS = ["--omega-q", "2.5", "--n", "2", "--g", "0.01"]
DRESSED_FREQ = ["dressed-freq", "--omega-q", "2.5", "--alpha", "1"]
DYNAMICS_BELL = ["dynamics", "--model", "nR", "--state", "bell", "--t-end", "1"]


class TestScalarInputValidation:
    @pytest.mark.parametrize(
        "argv, config",
        [
            (["dressed-freq", *SCALAR_ARGS, "--alpha", "-1"], None),
            (["dressed-freq", *SCALAR_ARGS, "--alpha", "nan"], None),
            (["dressed-freq", *SCALAR_ARGS, "--alpha", "inf"], None),
            (["eff-2q", "--alpha", "-1"], PAIR),
            (["eff-2q", "--alpha", "nan"], PAIR),
            (["eff-2q", "--alpha", "1"], MIXED_ORDER_PAIR),
            (["critical-nph", *SCALAR_ARGS, "--omega-o", "-1"], None),
            (["critical-nph", "--n", "2", "--g", "0.01", "--delta", "nan"], None),
            ([*DYNAMICS_BELL, "--krylov-dim", "1"], DYN),
            ([*DYNAMICS_BELL, "--local-tol", "0"], DYN),
            ([*DYNAMICS_BELL, "--local-tol", "nan"], DYN),
            ([*DRESSED_FREQ, "--n", "2", "--g", "-1"], None),
            ([*DRESSED_FREQ, "--n", "0", "--g", "0.01"], None),
            (["critical-nph", "--n", "0", "--g", "0.01", "--delta", "0.5"], None),
            ([*DRESSED_FREQ, "--n", "2", "--g", "0.01", "--omega-o", "0"], None),
        ],
        ids=[
            "dressed-alpha-negative",
            "dressed-alpha-nan",
            "dressed-alpha-inf",
            "eff2q-alpha-negative",
            "eff2q-alpha-nan",
            "eff2q-mixed-orders",
            "critical-omega-o-negative",
            "critical-delta-nan",
            "dynamics-krylov-dim-1",
            "dynamics-local-tol-0",
            "dynamics-local-tol-nan",
            "dressed-g-negative",
            "dressed-n-0",
            "critical-n-0",
            "dressed-omega-o-0",
        ],
    )
    def test_invalid_input_exits_2(self, tmp_path, argv, config):
        if config is not None:
            argv = [*argv, "--config", write_config(tmp_path, config)]
        code, out, err = run_with_out(tmp_path, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1

    # "²" and "٠" pass str.isdigit, but a sweep index is ASCII digits only.
    @pytest.mark.parametrize("var", ["g²", "g٠"])
    @pytest.mark.parametrize("command", ["spectrum", "levels"])
    def test_sweep_index_of_non_ascii_digits_exits_2(self, tmp_path, command, var):
        argv = [command, "--model", "nR", "--sweep", f"{var}:0:0.1:2"]
        argv += ["--config", write_config(tmp_path, SINGLE)]
        code, out, err = run_with_out(tmp_path, argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: unknown sweep variable {var!r}; "
            "expected 'g', 'g<i>', or 'eta'\n"
        )


NAN_G = {**SINGLE, "qubits": [{**SINGLE["qubits"][0], "g": float("nan")}]}
NAN_OMEGA = {**SINGLE, "oscillators": [{"omega": float("nan"), "trunc": 25}]}
SPECTRUM = ["spectrum", "--model", "nR", "-k", "2"]
LEVELS = ["levels", "--model", "nR", "-k", "2", "--sweep", "g:0:0.02:2"]
DRESSED = ["dressed-freq", "--n", "2", "--alpha", "1"]


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "argv, config",
        [
            (["critical-nph", "--n", "2", "--g", "nan", "--delta", "0.5"], None),
            (["critical-nph", "--n", "2", "--g", "inf", "--delta", "0.5"], None),
            ([*DRESSED, "--omega-q", "2.5", "--g", "nan"], None),
            ([*DRESSED, "--omega-q", "nan", "--g", "0.01"], None),
            (SPECTRUM, NAN_G),
            (SPECTRUM, NAN_OMEGA),
            (LEVELS, NAN_G),
            ([*SPECTRUM, "--sweep", "g:0:nan:2"], SINGLE),
            (["levels", "--model", "nR", "--sweep", "g:inf:0:2"], SINGLE),
            ([*SPECTRUM, "--physical-scale", "nan"], SINGLE),
            ([*LEVELS, "--physical-scale", "inf"], SINGLE),
            ([*SPECTRUM, "--nbar-max", "nan"], SINGLE),
            ([*LEVELS, "--continuity-floor", "nan"], SINGLE),
            (["critical-nph", "--n", "2", "--g", "0.01", "--omega-q", "nan"], None),
        ],
        ids=[
            "critical-g-nan",
            "critical-g-inf",
            "dressed-g-nan",
            "dressed-omega-q-nan",
            "spectrum-config-g-nan",
            "spectrum-config-omega-nan",
            "levels-config-g-nan",
            "spectrum-sweep-nan",
            "levels-sweep-inf",
            "spectrum-physical-scale-nan",
            "levels-physical-scale-inf",
            "spectrum-nbar-max-nan",
            "levels-continuity-floor-nan",
            "critical-omega-q-nan",
        ],
    )
    def test_exits_2(self, tmp_path, argv, config):
        if config is not None:
            argv = [*argv, "--config", write_config(tmp_path, config)]
        code, out, err = run_with_out(tmp_path, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err
        assert len(err.splitlines()) == 1


class TestStepCountBound:
    """Step counts above ``MAX_STEPS`` are refused before any grid exists."""

    @pytest.mark.parametrize("steps", [10**11, 10**30], ids=["1e11", "1e30"])
    @pytest.mark.parametrize(
        "command, flag",
        [("spectrum", "--sweep"), ("levels", "--sweep"), ("dynamics", "--steps")],
    )
    def test_huge_count_exits_2(self, tmp_path, monkeypatch, command, flag, steps):
        import numpy

        def refuse(*args, **kwargs):
            raise AssertionError("a grid was allocated")

        monkeypatch.setattr(numpy, "linspace", refuse)
        argv = [command, "--config", write_config(tmp_path, SINGLE), "--model", "nR"]
        if command == "dynamics":
            argv += ["--state", "bell", "--t-end", "1", "--steps", str(steps)]
        else:
            argv += ["--sweep", f"g:0:0.1:{steps}"]
        code, out, err = run_with_out(tmp_path, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert flag in err and str(MAX_STEPS) in err

    def test_bound_is_inclusive(self):
        from dispersive_nphoton import ConfigError

        assert len(parse_sweep(f"g:0:1:{MAX_STEPS}")[1]) == MAX_STEPS
        with pytest.raises(ConfigError, match="--sweep"):
            parse_sweep(f"g:0:1:{MAX_STEPS + 1}")


class TestOverflowingInputs:
    @pytest.mark.parametrize(
        "payload, message",
        [
            (
                {**SINGLE, "qubits": [{"omega_q": 2.5, "n": 2, "g": 1e200}]},
                "g**2",
            ),
            (HIGH_ORDER, "float range"),
        ],
        ids=["huge-g", "high-order"],
    )
    @pytest.mark.parametrize("regime", ["rwa", "nonrwa"])
    def test_dispersive_model_beyond_float_range_exits_2(
        self, tmp_path, payload, message, regime
    ):
        cfg = write_config(tmp_path, payload)
        argv = ["spectrum", "--config", cfg, "--model", "dispersive"]
        code, out, err = run_cli(argv + ["--regime", regime])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and message in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("regime", ["rwa", "nonrwa"])
    def test_dressed_freq_huge_coefficients_exit_2(self, regime):
        argv = ["dressed-freq", "--omega-q", "400", "--n", "200", "--g", "0.01"]
        code, out, err = run_cli(argv + ["--alpha", "1", "--regime", regime])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "float range" in err
        assert len(err.splitlines()) == 1

    def test_dressed_freq_largest_float_order_exits_2(self):
        # n = 170 passes the order check, but C+(170, 3) > 1.8e308.
        argv = ["dressed-freq", "--omega-q", "400", "--n", "170", "--g", "0.001"]
        code, out, err = run_cli(argv + ["--alpha", "0.5"])
        assert (code, out) == (2, "")
        assert err == (
            "error: photon-number polynomial coefficient of degree 3 is beyond "
            "the float range\n"
        )

    @pytest.mark.filterwarnings("error")
    def test_exact_model_entries_beyond_float_range_exit_2(self, tmp_path):
        # a^300 overflows: no level may silently drop out of the spectrum.
        payload = {
            "topology": "single",
            "qubits": [{"omega_q": 300.5, "n": 300, "g": 0.01}],
            "oscillators": [{"trunc": 310}],
        }
        argv = ["spectrum", "--config", write_config(tmp_path, payload)]
        code, out, err = run_cli(argv + ["--model", "nR", "-k", "4"])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "float range" in err
        assert len(err.splitlines()) == 1

    def test_coeff_table_is_exact_beyond_float_range(self):
        # The table prints integers: an order whose C+(n, 0) = n! has no
        # float value is still printed exactly.
        code, out, err = run_cli(["coeff-table", "--n-max", "171"])
        assert (code, err) == (0, "")
        assert f"cplus,171,0,{math.factorial(171)}" in out.splitlines()

    def test_critical_nph_beyond_float_range_prints_inf(self):
        argv = ["critical-nph", "--n", "1", "--g", "1e-200", "--delta", "1"]
        assert run_cli(argv) == (0, "inf\n", "")

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["dressed-freq", *SCALAR_ARGS, "--alpha", "1e80"], None),
            (["eff-2q", "--alpha", "1e80"], PAIR),
        ],
        ids=["dressed-freq", "eff-2q"],
    )
    def test_overflowing_alpha_exits_2(self, tmp_path, argv, config):
        if config is not None:
            argv = [*argv, "--config", write_config(tmp_path, config)]
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "too large" in err
        assert len(err.splitlines()) == 1


TINY_FREQUENCIES = {
    "topology": "single",
    "qubits": [{"omega_q": 2e-200, "n": 1, "g": 1e100}],
    "oscillators": [{"omega": 1e-200, "trunc": 8}],
}


class TestOverflowingQuotients:
    @pytest.mark.parametrize("regime", ["rwa", "nonrwa"])
    def test_chi_beyond_float_range_exits_2(self, tmp_path, regime):
        # g**2 = 1e200 is finite, g**2 / delta with delta = 1e-200 is not.
        cfg = write_config(tmp_path, TINY_FREQUENCIES)
        out_file = tmp_path / "out.csv"
        argv = ["spectrum", "--config", cfg, "--model", "dispersive"]
        code, out, err = run_cli(
            [*argv, "--regime", regime, "--out", str(out_file)]
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "float range" in err
        assert len(err.splitlines()) == 1
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["dressed-freq", *SCALAR_ARGS, "--alpha", "1.1e77"], None),
            (["eff-2q", "--alpha", "1.1e77"], PAIR),
        ],
        ids=["dressed-freq", "eff-2q"],
    )
    def test_overflowing_average_exits_2(self, tmp_path, argv, config):
        # Each |alpha|**4 is finite; the photon-number average is not.
        if config is not None:
            argv = [*argv, "--config", write_config(tmp_path, config)]
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "too large" in err
        assert len(err.splitlines()) == 1


class TestOscillatorFidelityColumn:
    """The oscillator column, taken from the 2 x 2 matrix A B^H of the
    amplitudes, equals the fidelity of the reduced density matrices."""

    @pytest.mark.parametrize("state", dynamics.STATE_PRESETS)
    @pytest.mark.parametrize("model", ["nR", "dispersive"])
    def test_matches_reduced_state_fidelity(self, tmp_path, monkeypatch, model, state):
        from dispersive_nphoton import cli

        payload = {**SINGLE, "oscillators": [{"trunc": 60}]}
        fields, states = [], []
        fmt, propagator = cli._fmt, cli.propagator

        def recording_fmt(value):
            fields.append(value)
            return fmt(value)

        def recording_propagator(*args):
            step = propagator(*args)

            def recorded(psi, t):
                states.append(step(psi, t))
                return states[-1]

            return recorded

        monkeypatch.setattr(cli, "_fmt", recording_fmt)
        monkeypatch.setattr(cli, "propagator", recording_propagator)
        argv = ["dynamics", "--config", write_config(tmp_path, payload)]
        argv += ["--model", model, "--state", state, "--t-end", "40", "--steps", "6"]
        assert run_cli(argv)[0] == 0

        psi0 = dynamics.preset_state(state, SystemSpec.from_dict(payload).layout())
        assert len(states) == 6 and len(fields) == 5 * 7
        column = fields[DYNAMICS_COLUMNS.index("fidelity_oscillator") :: 5]
        rho0 = dynamics.partial_trace(psi0, [1])
        for value, psi in zip(column, [psi0, *states]):
            expected = dynamics.fidelity(dynamics.partial_trace(psi, [1]), rho0)
            assert abs(value - expected) <= 1e-14


def destinations(command):
    """Every attribute the parser sets for ``command``, defaults included."""
    parser = build_parser()
    commands = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    sub = commands.choices[command]
    dests = {action.dest for action in sub._actions if action.dest != "help"}
    return dests | set(sub._defaults) | {"command"}


#: Parsed options the provenance record leaves out.
UNRECORDED = {"out", "threads", "func"}


class TestProvenanceRule:
    @pytest.mark.parametrize(
        "argv, config",
        [
            ([*SPECTRUM, "--threads", "1"], SINGLE),
            (LEVELS, SINGLE),
            (["dynamics", "--model", "nR", "--state", "bell", "--t-end", "1"], DYN),
            (["coeff-table", "--n-max", "1"], None),
            (["eff-2q", "--alpha", "1"], PAIR),
        ],
        ids=["spectrum", "levels", "dynamics", "coeff-table", "eff-2q"],
    )
    def test_csv_records_every_option_but_three(self, tmp_path, argv, config):
        if config is not None:
            argv = [*argv, "--config", write_config(tmp_path, config)]
        code, out, _ = run_cli(argv)
        assert code == 0
        prov, _, _ = parse_csv(out)
        expected = destinations(argv[0]) - UNRECORDED | {"schema_version"}
        assert set(prov) == expected
        if config is not None:
            assert SystemSpec.from_dict(prov["config"]) == SystemSpec.from_dict(config)

    @pytest.mark.parametrize(
        "argv",
        [
            ["critical-nph", "--n", "2", "--g", "0.01", "--delta", "0.5"],
            ["dressed-freq", *SCALAR_ARGS, "--alpha", "1"],
        ],
        ids=["critical-nph", "dressed-freq"],
    )
    def test_scalar_commands_follow_the_same_rule(self, argv):
        line = _provenance_line(build_parser().parse_args(argv))
        prov = json.loads(line.removeprefix("# provenance: "))
        assert set(prov) == destinations(argv[0]) - UNRECORDED | {"schema_version"}

    def test_dynamics_has_no_cross_k0_option(self, tmp_path):
        cfg = write_config(tmp_path, DYN)
        argv = ["dynamics", "--config", cfg, "--model", "nR", "--state", "bell"]
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, "--t-end", "1", "--no-cross-k0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("spectrum", ["--cross-k0"]),
            ("spectrum", ["--no-cross-k0"]),
            ("levels", ["--no-cross-k0"]),
            ("eff-2q", ["--no-cross-k0"]),
            ("eff-2q", ["--moment-convention", "coherent_exact"]),
            ("dressed-freq", ["--moment-convention", "amplitude_literal"]),
        ],
    )
    def test_no_option_selects_another_second_order_answer(
        self, tmp_path, command, flag
    ):
        # P(N) starts at k = 0 and the moments are the exact coherent ones.
        cfg = write_config(tmp_path, PAIR if command == "eff-2q" else SINGLE)
        argv = {
            "spectrum": ["spectrum", "--config", cfg, "--model", "nR"],
            "levels": [*LEVELS, "--config", cfg],
            "eff-2q": ["eff-2q", "--config", cfg, "--alpha", "1"],
            "dressed-freq": ["dressed-freq", *SCALAR_ARGS, "--alpha", "1"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            run_cli([*argv, *flag])
        assert exc.value.code == 2
        parsed = vars(build_parser().parse_args(argv))
        assert not {"cross_k0", "moment_convention"} & set(parsed)


@pytest.mark.parametrize("floor", ["2", "-0.1"])
def test_continuity_floor_outside_unit_interval_exits_2(tmp_path, floor):
    argv = [*LEVELS, "--continuity-floor", floor, "--config"]
    code, out, err = run_with_out(tmp_path, [*argv, write_config(tmp_path, SINGLE)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "[0, 1]" in err
    assert len(err.splitlines()) == 1


def rows_by_value(rows):
    """Group sweep rows by their sweep value, dropping the two sweep columns."""
    grouped = {}
    for row in rows:
        grouped.setdefault(row[1], []).append(row[2:])
    return grouped


class TestSweepMatchesPointRuns:
    """``spectrum --sweep`` and ``levels`` agree with point runs."""

    SWEEP = "g:0:0.04:3"

    @pytest.mark.parametrize("model", ["nJC", "dispersive"])
    def test_sweep_rows_equal_point_runs(self, tmp_path, model):
        cfg = write_config(tmp_path, SINGLE)
        base = ["spectrum", "--model", model, "-k", "5"]
        code, out, _ = run_cli([*base, "--config", cfg, "--sweep", self.SWEEP])
        assert code == 0
        swept = rows_by_value(parse_csv(out)[2])
        assert list(swept) == ["0", "0.02", "0.04"]
        spec = SystemSpec.from_dict(SINGLE)
        for value in parse_sweep(self.SWEEP)[1]:
            point = with_swept(spec, "g", float(value)).to_dict()
            point_cfg = write_config(tmp_path, point, name=f"point_{value}.json")
            code, out, _ = run_cli([*base, "--config", point_cfg])
            assert code == 0
            point_rows = [row[2:] for row in parse_csv(out)[2]]
            assert swept["%.12g" % value] == point_rows

    @pytest.mark.parametrize("model", ["nJC", "dispersive"])
    def test_levels_first_point_equals_spectrum(self, tmp_path, model):
        cfg = write_config(tmp_path, SINGLE)
        argv = ["--config", cfg, "--model", model, "-k", "5", "--sweep", self.SWEEP]
        outputs = {}
        for command in ("spectrum", "levels"):
            code, out, _ = run_cli([command, *argv])
            assert code == 0
            first = rows_by_value(parse_csv(out)[2])["0"]
            outputs[command] = {tuple(row[:5]) for row in first}
        assert len(outputs["levels"]) == 5
        assert outputs["levels"] == outputs["spectrum"]


class TestModuleEntryPoint:
    def test_python_dash_m_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dispersive_nphoton.cli", "--version"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert dispersive_nphoton.__version__ in proc.stdout


#: A qubit frequency whose rounding swallows n * omega_o = 1.
SWAMPED = {
    "topology": "single",
    "qubits": [{"omega_q": 1e20, "n": 1, "g": 0.01}],
    "oscillators": [{"trunc": 4}],
}


class TestSwampedDetuning:
    """``omega_q = 1e20`` loses ``n * omega_o`` in its rounding, so delta and
    sigma coincide: the closed forms are undefined there."""

    @pytest.mark.parametrize("regime", ["rwa", "nonrwa"])
    def test_dispersive_model_exits_2(self, tmp_path, regime):
        cfg = write_config(tmp_path, SWAMPED)
        argv = ["spectrum", "--config", cfg, "--model", "dispersive"]
        code, out, err = run_cli([*argv, "--regime", regime])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "lost in the rounding" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["spectrum", "levels"])
    def test_exact_model_leaves_closed_forms_blank(self, tmp_path, command):
        cfg = write_config(tmp_path, SWAMPED)
        argv = [command, "--config", cfg, "--model", "nR", "-k", "4"]
        if command == "levels":
            argv += ["--sweep", "g:0.005:0.01:2"]
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        _, _, rows = parse_csv(out)
        assert rows and all(row[5] == "" and row[6] == "" for row in rows)
        assert all(row[4] != "" for row in rows)

    def test_dressed_freq_exits_2(self):
        argv = ["dressed-freq", "--omega-q", "1e20", "--n", "1", "--g", "0.01"]
        code, out, err = run_cli([*argv, "--alpha", "1"])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "lost in the rounding" in err
        assert len(err.splitlines()) == 1


#: SciPy modules a run loads only when some block needs them.
SOLVER_MODULES = ("scipy.linalg", "scipy.sparse.linalg", "scipy.sparse.csgraph")

#: Runs ``cli.main(argv)`` and prints its exit code and traced peak memory.
_PEAK_PROBE = """
import sys, tracemalloc
from dispersive_nphoton import cli
tracemalloc.start()
code = cli.main(sys.argv[1:])
print(code, tracemalloc.get_traced_memory()[1])
"""


_IMPORT_PROBE = """
import contextlib, io, json, sys
from dispersive_nphoton import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in {modules!r} if m in sys.modules)]))
"""


class TestImportHygiene:
    """A fresh interpreter loads SciPy's solver modules only for blocks
    that need them: above 64 states here."""

    NR3 = {
        "topology": "single",
        "qubits": [{"omega_q": 3.1, "n": 3, "g": 0.01}],
        "oscillators": [{"trunc": 300}],
        "stabilizer": {"form": "number_power", "eta": 0.02},
    }

    def _loaded(self, tmp_path, payload, argv):
        """Solver modules loaded by ``cli.main(argv)`` in a fresh interpreter."""
        src = str(Path(dispersive_nphoton.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                _IMPORT_PROBE.format(modules=SOLVER_MODULES),
                *argv,
                "--config",
                write_config(tmp_path, payload),
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stdout)
        assert code == 0
        return set(loaded)

    @pytest.mark.parametrize(
        "argv",
        [
            ["levels", "--model", "nJC", "-k", "10", "--sweep", "g:0:0.2:3"],
            [
                "dynamics", "--model", "nR", "--state", "plus_coherent_2",
                "--t-end", "10", "--steps", "2",
            ],
        ],
        ids=["levels-nJC", "dynamics-nR"],
    )
    def test_small_blocks_load_no_solver_module(self, tmp_path, argv):
        payload = {**SINGLE, "oscillators": [{"trunc": 60}]}
        assert self._loaded(tmp_path, payload, argv) == set()

    def test_chain_blocks_load_only_lapack_extension(self, tmp_path):
        # Six chain blocks of 50 states would stay batched; of 100 they do
        # not: they are ordered in NumPy and solved by SciPy's LAPACK
        # extension alone.
        argv = ["spectrum", "--model", "nR", "-k", "6"]
        probe = (
            "import contextlib, io, json, sys\n"
            "from dispersive_nphoton import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    result = cli.main(sys.argv[1:])"
        )
        argv = [*argv, "--config", write_config(tmp_path, self.NR3)]
        code, loaded = self._scipy_loaded(probe, argv)
        assert code == 0
        assert "scipy.linalg._flapack" in loaded
        for name in (
            "scipy.linalg",
            "scipy.sparse",
            "scipy.sparse.csgraph",
            "scipy.sparse.linalg",
        ):
            assert name not in loaded

    @pytest.mark.parametrize(
        "model, payload",
        [
            (
                "nDicke",
                {
                    "topology": "multiqubit",
                    "qubits": [
                        {"omega_q": 8.0, "n": 2, "g": 0.02},
                        {"omega_q": 7.4, "n": 2, "g": 0.03},
                    ],
                    "oscillators": [{"trunc": 100}],
                },
            ),
            (
                "mmr",
                {
                    "topology": "multimode",
                    "qubits": [{"omega_q": 3.0}],
                    "oscillators": [{"trunc": 12}, {"trunc": 12}],
                    "couplings": [
                        {"qubit": 0, "oscillator": 0, "n": 1, "g": 0.1},
                        {"qubit": 0, "oscillator": 1, "n": 2, "g": 0.1},
                    ],
                },
            ),
        ],
    )
    def test_dense_blocks_load_only_lapack_extension(self, tmp_path, model, payload):
        # Four blocks of 100 (nDicke) or 72 (mmr) states that are not
        # chains: their lowest pairs come from the LAPACK extension alone.
        probe = (
            "import contextlib, io, json, sys\n"
            "from dispersive_nphoton import cli, eigensolve\n"
            "calls, real = [], eigensolve._lowest_eigh\n"
            "eigensolve._lowest_eigh = lambda *a: calls.append(1) or real(*a)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    result = [cli.main(sys.argv[1:]), len(calls)]"
        )
        argv = ["spectrum", "--model", model, "-k", "6"]
        argv = [*argv, "--config", write_config(tmp_path, payload)]
        (code, calls), loaded = self._scipy_loaded(probe, argv)
        assert (code, calls) == (0, 4)
        assert self._solver_modules(loaded) == ["scipy.linalg._flapack"]

    @staticmethod
    def _solver_modules(loaded):
        return [m for m in loaded if m.startswith(("scipy.sparse", "scipy.linalg"))]

    def test_lanczos_blocks_load_no_sparse_module(self, tmp_path):
        # Lanczos runs on the blocks' NumPy CSR arrays; the tridiagonal
        # solves load SciPy's LAPACK extension alone.
        argv = ["spectrum", "--model", "nR", "-k", "6", "--method", "lanczos"]
        probe = (
            "import contextlib, io, json, sys\n"
            "from dispersive_nphoton import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    result = cli.main(sys.argv[1:])"
        )
        argv = [*argv, "--config", write_config(tmp_path, self.NR3)]
        code, loaded = self._scipy_loaded(probe, argv)
        assert code == 0
        assert self._solver_modules(loaded) == ["scipy.linalg._flapack"]

    def test_krylov_blocks_load_no_sparse_module(self, tmp_path):
        # At a dense limit of 16, no block of nR at trunc 60 (four of 30
        # states) is propagated exactly: all take the Krylov path.
        payload = {**SINGLE, "oscillators": [{"trunc": 60}]}
        argv = [
            "dynamics", "--model", "nR", "--state", "plus_coherent_2",
            "--t-end", "10", "--steps", "2",
        ]
        probe = (
            "import contextlib, io, json, sys\n"
            "from dispersive_nphoton import cli, dynamics\n"
            "dynamics.DENSE_LIMIT = 16\n"
            "calls, real = [], dynamics._krylov_evolve\n"
            "dynamics._krylov_evolve = lambda *a: calls.append(1) or real(*a)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    result = [cli.main(sys.argv[1:]), len(calls)]"
        )
        argv = [*argv, "--config", write_config(tmp_path, payload)]
        (code, calls), loaded = self._scipy_loaded(probe, argv)
        assert code == 0 and calls > 0
        assert self._solver_modules(loaded) == ["scipy.linalg._flapack"]

    @pytest.mark.parametrize(
        "argv, payload",
        [
            (
                ["levels", "--model", "nJC", "-k", "10", "--sweep", "g:0:0.2:3"],
                {**SINGLE, "oscillators": [{"trunc": 60}]},
            ),
            (
                [
                    "dynamics", "--model", "nR", "--state", "plus_coherent_2",
                    "--t-end", "10", "--steps", "2",
                ],
                {**SINGLE, "oscillators": [{"trunc": 60}]},
            ),
            (["spectrum", "--model", "nR", "-k", "6"], NR3),
        ],
        ids=["levels-nJC", "dynamics-nR", "spectrum-chains"],
    )
    def test_runs_do_not_load_numpy_ma(self, tmp_path, argv, payload):
        # Nor numpy.random, which only a Lanczos block loads.
        probe = (
            "import contextlib, io, sys\n"
            "from dispersive_nphoton import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(sys.argv[1:])\n"
            "print(code, 'numpy.ma' in sys.modules, 'numpy.random' in sys.modules)"
        )
        argv = [*argv, "--config", write_config(tmp_path, payload)]
        assert self._probe(probe, argv).split() == ["0", "False", "False"]

    def _probe(self, probe, argv=()):
        """Standard output of ``python -c probe *argv`` in a fresh interpreter."""
        src = str(Path(dispersive_nphoton.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_lapack_extension_is_shared_with_scipy_linalg(self):
        # Loaded first from its file, the extension is the module that a
        # later import of scipy.linalg uses, and the solves agree.
        probe = (
            "import sys\n"
            "import numpy as np\n"
            "from dispersive_nphoton import eigensolve\n"
            "lapack = eigensolve._lapack()\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "assert sys.modules['scipy.linalg._flapack'] is lapack\n"
            "d, e = np.arange(80.0) % 7, np.cos(np.arange(79.0))\n"
            "mine = eigensolve._tridiagonal_eigh(d, e, 5)\n"
            "import scipy.linalg\n"
            "from scipy.linalg import _flapack\n"
            "assert _flapack is lapack\n"
            "assert scipy.linalg.lapack.dstebz is lapack.dstebz\n"
            "ref = scipy.linalg.eigh_tridiagonal(\n"
            "    d, e, select='i', select_range=(0, 4)\n"
            ")\n"
            "assert all(np.array_equal(a, b) for a, b in zip(mine, ref))\n"
            "print('ok')"
        )
        assert self._probe(probe) == "ok\n"

    # Without the solver modules, no SciPy at all: the operators, the model
    # assembly and the block finder are NumPy alone.
    def _scipy_loaded(self, probe, argv):
        """``(result, loaded)`` of ``probe`` run with ``argv`` in a fresh
        interpreter: its printed JSON result and every SciPy module loaded."""
        src = str(Path(dispersive_nphoton.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        report = (
            "\nprint(json.dumps([result, sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy')]))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe + report, *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    @pytest.mark.parametrize(
        "argv",
        [
            ["levels", "--model", "nJC", "-k", "10", "--sweep", "g:0:0.2:3"],
            [
                "dynamics", "--model", "nR", "--state", "plus_coherent_2",
                "--t-end", "10", "--steps", "2",
            ],
        ],
        ids=["levels-nJC", "dynamics-nR"],
    )
    def test_small_blocks_load_no_scipy(self, tmp_path, argv):
        payload = {**SINGLE, "oscillators": [{"trunc": 60}]}
        probe = (
            "import contextlib, io, json, sys\n"
            "from dispersive_nphoton import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    result = cli.main(sys.argv[1:])"
        )
        argv = [*argv, "--config", write_config(tmp_path, payload)]
        assert self._scipy_loaded(probe, argv) == [0, []]

    def test_import_and_validation_build_load_no_scipy(self, tmp_path):
        # The CLI import and the build of the stabilized n=3 nR sweep at
        # trunc 2100 (dimension 4200), as the benchmark's set-up probe runs.
        payload = {
            "topology": "single",
            "qubits": [{"omega_q": 3.1, "n": 3, "g": 0.0}],
            "oscillators": [{"omega": 1.0, "trunc": 2100}],
            "stabilizer": {"form": "number_power", "eta": 0.02},
        }
        probe = (
            "import json, sys\n"
            "from dispersive_nphoton.cli import build_model\n"
            "from dispersive_nphoton.models import SystemSpec\n"
            "result = build_model(SystemSpec.from_json_file(sys.argv[1]), "
            "sys.argv[2]).total_dim"
        )
        argv = [write_config(tmp_path, payload), "nR"]
        assert self._scipy_loaded(probe, argv) == [4200, []]
