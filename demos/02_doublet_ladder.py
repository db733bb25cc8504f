"""Exact doublets of the excitation-conserving n-photon exchange model.

The excitation-conserving model splits into independent two-state blocks:
the excited qubit with l photons pairs with the ground qubit holding l+n
photons.  Their two eigenvalues have a closed form whose splitting grows
like the square root of a rising factorial, so higher rungs split much
faster.  This demo tracks a few rungs numerically across a coupling sweep
and prints the worst deviation from the closed form.
"""

import numpy as np

import dispersive_nphoton as dn


def doublet_sweep(n, l_values=(0, 2, 5), g_values=(0.0, 0.1, 0.2, 0.3)):
    omega_q = n + 0.5
    print(f"--- {n}-photon exchange, omega_q = {omega_q} ---")
    worst = 0.0
    for g in g_values:
        spec = dn.SystemSpec(
            topology="single",
            qubits=(dn.QubitSpec(omega_q=omega_q, n=n, g=g),),
            oscillators=(dn.OscillatorSpec(omega=1.0, trunc=80),),
        )
        result = dn.label_by_overlap(dn.eigh_dense(dn.build_model(spec, "nJC")))
        params = dn.DispersiveParams.from_frequencies(omega_q, n, g)
        for l in l_values:
            e_up_num = result.energy_of("e", (l,))
            e_low_num = result.energy_of("g", (l + n,))
            e_up, e_low = dn.njc_doublet(params, l)
            worst = max(worst, abs(e_up_num - e_up), abs(e_low_num - e_low))
            if l == l_values[-1]:
                print(f"  g={g:4.2f} l={l}: split "
                      f"{e_up_num - e_low_num:10.6f} (closed form "
                      f"{e_up - e_low:10.6f})")
    print(f"  worst |numeric - closed form| over sweep: {worst:.3e}")


def main():
    for n in (1, 2, 3):
        doublet_sweep(n)


if __name__ == "__main__":
    main()
