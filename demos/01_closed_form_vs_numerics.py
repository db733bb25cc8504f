"""Compare exact eigenvalues of a two-photon qubit-oscillator model with the
closed-form dispersive levels.

Builds the full model at two detunings, labels each numerical eigenstate by
its dominant bare configuration, and tabulates the error of the plain and
counter-rotating-corrected level formulas.  At strong detuning both formulas
are excellent; at moderate detuning the corrected formula is visibly better
on the excited branch.
"""

import dispersive_nphoton as dn


def level_table(omega_q, g=0.02, n=2, trunc=120):
    spec = dn.SystemSpec(
        topology="single",
        qubits=(dn.QubitSpec(omega_q=omega_q, n=n, g=g),),
        oscillators=(dn.OscillatorSpec(omega=1.0, trunc=trunc),),
    )
    result = dn.label_by_overlap(dn.eigh_dense(dn.build_model(spec, "nR")))
    params = spec.qubit_params()
    print(f"--- omega_q = {omega_q} (detuning {params.delta:+g}), g = {g} ---")
    print(f"{'state':>8} {'numeric':>16} {'|err| plain':>12} {'|err| corrected':>16}")
    for qubit in ("e", "g"):
        for j in range(4):
            e_num = result.energy_of(qubit, (j,))
            err_rwa = abs(e_num - dn.dispersive_level(params, qubit, j, "rwa"))
            err_non = abs(e_num - dn.dispersive_level(params, qubit, j, "nonrwa"))
            print(f"  |{qubit},{j}> {e_num:+16.10f} {err_rwa:12.3e} {err_non:16.3e}")


def main():
    level_table(8.0)   # strong detuning: deep dispersive regime
    level_table(2.5)   # moderate detuning: corrections matter
    params = dn.DispersiveParams.from_frequencies(2.5, 2, 0.02)
    print(f"critical photon number at omega_q=2.5: "
          f"{dn.critical_photon_number(2, 0.02, params.delta):g}")


if __name__ == "__main__":
    main()
