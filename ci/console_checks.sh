#!/usr/bin/env bash
# Console checks of the CLI: exit codes, bytes and loaded modules of real runs.
# The CI workflow runs it after installing the package; locally, from the
# repository root:
#
#   PYTHONPATH=src bash ci/console_checks.sh
#
# Every command runs `python -m dispersive_nphoton.cli`, the same `main` as the
# installed `dispersive-nphoton` entry point.  Scratch files go to $RUNNER_TEMP,
# or to a fresh temporary directory that is removed on exit.
set -eu
if [ -n "${RUNNER_TEMP:-}" ]; then
  tmp="$RUNNER_TEMP"
else
  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT
fi
dn() { python -m dispersive_nphoton.cli "$@"; }
cfg="$tmp/single.json"
echo '{"topology": "single", "qubits": [{"omega_q": 2.5, "n": 2, "g": 0.02}], "oscillators": [{"trunc": 8}]}' > "$cfg"
# A run whose blocks all fit one batched solve loads no SciPy module.
python -c "import sys; from dispersive_nphoton import cli; code = cli.main(['levels', '--config', sys.argv[1], '--model', 'nJC', '-k', '6', '--sweep', 'g:0:0.2:3', '--out', sys.argv[2]]); bad = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'); assert code == 0 and not bad, (code, bad)" "$cfg" "$tmp/levels_nJC.csv"
# A chain run loads SciPy's LAPACK extension alone: no scipy.linalg or scipy.sparse module.
chains="$tmp/chains.json"
echo '{"topology": "single", "qubits": [{"omega_q": 3.1, "n": 3, "g": 0.01}], "oscillators": [{"trunc": 300}], "stabilizer": {"form": "number_power", "eta": 0.02}}' > "$chains"
python -c "import sys; from dispersive_nphoton import cli; code = cli.main(['spectrum', '--config', sys.argv[1], '--model', 'nR', '-k', '6', '--out', sys.argv[2]]); bad = sorted(m for m in sys.modules if m.startswith(('scipy.linalg', 'scipy.sparse')) and m != 'scipy.linalg._flapack'); assert code == 0 and 'scipy.linalg._flapack' in sys.modules and not bad, (code, bad)" "$chains" "$tmp/chains.csv"
# Blocks that are not chains (four of 100 states) take LAPACK's subset driver
# from the same extension: it is the only scipy.linalg module, and no
# scipy.sparse module loads.
dicke="$tmp/dicke.json"
echo '{"topology": "multiqubit", "qubits": [{"omega_q": 8.0, "n": 2, "g": 0.02}, {"omega_q": 7.4, "n": 2, "g": 0.03}], "oscillators": [{"trunc": 100}]}' > "$dicke"
python -c "import sys; from dispersive_nphoton import cli; code = cli.main(['spectrum', '--config', sys.argv[1], '--model', 'nDicke', '-k', '6', '--out', sys.argv[2]]); loaded = sorted(m for m in sys.modules if m.startswith(('scipy.linalg', 'scipy.sparse'))); assert code == 0 and loaded == ['scipy.linalg._flapack'], (code, loaded)" "$dicke" "$tmp/dicke.csv"
# Lanczos blocks run on NumPy CSR arrays: no scipy.sparse module.
python -c "import sys; from dispersive_nphoton import cli; code = cli.main(['spectrum', '--config', sys.argv[1], '--model', 'nR', '-k', '6', '--method', 'lanczos', '--out', sys.argv[2]]); bad = sorted(m for m in sys.modules if m.startswith('scipy.sparse')); assert code == 0 and not bad, (code, bad)" "$chains" "$tmp/chains_lanczos.csv"
# Lanczos reaches the levels of nDicke with two identical qubits that are
# antisymmetric under their swap: its 12 lowest agree with dense within 1e-9.
twins="$tmp/twins.json"
echo '{"topology": "multiqubit", "qubits": [{"omega_q": 8.0, "n": 2, "g": 0.02}, {"omega_q": 8.0, "n": 2, "g": 0.02}], "oscillators": [{"trunc": 300}]}' > "$twins"
for method in lanczos dense; do
  dn spectrum --config "$twins" --model nDicke -k 12 --method "$method" --out "$tmp/twins_$method.csv"
done
paste -d, "$tmp/twins_lanczos.csv" "$tmp/twins_dense.csv" | awk -F, 'NR > 2 { rows++; d = $5 - $15; if (d > 1e-9 || d < -1e-9) bad++ } END { exit !(rows == 12 && bad == 0) }'
dn spectrum --config "$cfg" --model nR -k 4
dn dynamics --config "$cfg" --model nR --state bell --t-end 10 --steps 2
big="$tmp/trunc400.json"
echo '{"topology": "single", "qubits": [{"omega_q": 2.5, "n": 2, "g": 0.02}], "oscillators": [{"trunc": 400}]}' > "$big"
for run in 1 2; do
  dn dynamics --config "$big" --model nR --state plus_coherent_2 --t-end 50 --steps 10 --out "$tmp/dynamics$run.csv"
done
cmp "$tmp/dynamics1.csv" "$tmp/dynamics2.csv"
# --threads alone sets the worker count: DISPERSIVE_NPHOTON_THREADS in the
# environment, even a value that is not a count, changes no byte.
dn spectrum --config "$cfg" --model nR -k 4 --sweep g:0:0.02:3 --threads 1 --out "$tmp/threads.csv"
DISPERSIVE_NPHOTON_THREADS=abc dn spectrum --config "$cfg" --model nR -k 4 --sweep g:0:0.02:3 --threads 1 --out "$tmp/threads_env.csv"
cmp "$tmp/threads.csv" "$tmp/threads_env.csv"
# Runs the command given; passes if it exits 2 with one "error: " line.
exits_2() {
  status=0
  "$@" 2> "$tmp/err.txt" || status=$?
  test "$status" -eq 2 && test "$(wc -l < "$tmp/err.txt")" -eq 1 && grep -q '^error: ' "$tmp/err.txt"
}
bad="$tmp/fractional_n.json"
echo '{"topology": "single", "qubits": [{"omega_q": 2.5, "n": 2.5, "g": 0.02}], "oscillators": [{"trunc": 8}]}' > "$bad"
exits_2 dn spectrum --config "$bad" --model nR -k 4
exits_2 dn dressed-freq --omega-q 2.5 --n 2 --g 0.01 --alpha 1e80
exits_2 dn dressed-freq --omega-q 2.5 --n 2 --g 0.01 --alpha 1.1e77
exits_2 dn dynamics --config "$cfg" --model nR --state bell --t-end 10 --krylov-dim 1
# Step counts above MAX_STEPS are refused before the grid is allocated.
exits_2 dn spectrum --config "$cfg" --model nR --sweep g:0:0.1:1000000000000
exits_2 dn levels --config "$cfg" --model nR --sweep g:0:0.1:1000000000000
exits_2 dn dynamics --config "$cfg" --model nR --state bell --t-end 10 --steps 1000000000000
# Runs the command given; passes if it exits 2, whatever it prints (argparse
# refusals print usage lines).
status_2() {
  status=0
  "$@" > /dev/null 2>&1 || status=$?
  test "$status" -eq 2
}
status_2 dn dynamics --config "$cfg" --model nR --state bell --t-end 10 --no-cross-k0
# eigs_lowest alone sets the Lanczos budget: the CLI has no --max-iters.
status_2 dn spectrum --config "$cfg" --model nR -k 4 --method lanczos --max-iters 3
status_2 dn levels --config "$cfg" --model nR -k 4 --sweep g:0:0.02:2 --max-iters 3
# One second-order answer: P(N) from k = 0 and the exact coherent moments.
# The options that chose another are refused.
pair="$tmp/pair.json"
echo '{"topology": "multiqubit", "qubits": [{"omega_q": 8.0, "n": 2, "g": 0.02}, {"omega_q": 7.4, "n": 2, "g": 0.03}], "oscillators": [{"trunc": 20}]}' > "$pair"
status_2 dn spectrum --config "$cfg" --model nR -k 4 --no-cross-k0
status_2 dn levels --config "$cfg" --model nR -k 4 --sweep g:0:0.02:2 --cross-k0
status_2 dn eff-2q --config "$pair" --alpha 1 --no-cross-k0
status_2 dn eff-2q --config "$pair" --alpha 1 --moment-convention coherent_exact
status_2 dn dressed-freq --omega-q 2.5 --n 2 --g 0.01 --alpha 1.5 --moment-convention amplitude_literal
test "$(dn dressed-freq --omega-q 2.5 --n 2 --g 0.01 --alpha 1.5)" = "2.504225"
for n in 2 3; do
  disp="$tmp/dispersive_n$n.json"
  echo '{"topology": "single", "qubits": [{"omega_q": 2.5, "n": '"$n"', "g": 0.02}], "oscillators": [{"trunc": 12}]}' > "$disp"
  for regime in "rwa" "nonrwa --no-squeezing"; do
    dn spectrum --config "$disp" --model dispersive --regime $regime -k 10 --sweep g:0:0.02:3 --threads 1 > "$tmp/levels.csv"
    awk -F, 'NR > 2 { rows++; if ($5 == "" || ($5 != $6 && $5 != $7)) bad++ } END { exit !(rows == 30 && bad == 0) }' "$tmp/levels.csv"
  done
done
huge="$tmp/huge_g.json"
echo '{"topology": "single", "qubits": [{"omega_q": 2.5, "n": 2, "g": 1e200}], "oscillators": [{"trunc": 8}]}' > "$huge"
exits_2 dn spectrum --config "$huge" --model dispersive
tiny="$tmp/tiny_frequencies.json"
echo '{"topology": "single", "qubits": [{"omega_q": 2e-200, "n": 1, "g": 1e100}], "oscillators": [{"omega": 1e-200, "trunc": 8}]}' > "$tiny"
exits_2 dn spectrum --config "$tiny" --model dispersive
exits_2 dn dressed-freq --omega-q 400 --n 200 --g 0.01 --alpha 1
# n = 170 passes the order check, but C+(170, 3) leaves the float range.
exits_2 dn dressed-freq --omega-q 400 --n 170 --g 0.001 --alpha 0.5
# a^300 overflows at trunc 310: refused, not a spectrum with levels missing.
overflow="$tmp/n300.json"
echo '{"topology": "single", "qubits": [{"omega_q": 300.5, "n": 300, "g": 0.01}], "oscillators": [{"trunc": 310}]}' > "$overflow"
exits_2 dn spectrum --config "$overflow" --model nR
# omega_q = 1e20 swallows n * omega_o: no closed form, exact models still run.
swamped="$tmp/swamped.json"
echo '{"topology": "single", "qubits": [{"omega_q": 1e20, "n": 1, "g": 0.01}], "oscillators": [{"trunc": 4}]}' > "$swamped"
exits_2 dn spectrum --config "$swamped" --model dispersive
dn spectrum --config "$swamped" --model nR > /dev/null
