"""How faithful is the diagonal dispersive description to the full dynamics?

Propagates the same initial state under the full two-photon model and under
its diagonal dispersive approximation, then compares the reduced qubit and
oscillator states at a grid of times (in units of 1/chi, the dispersive
shift).  A two-component entangled state stays essentially perfect; a
coherent-state superposition loses oscillator fidelity much faster than
qubit fidelity because the approximation mislays photon-dependent phases
across many Fock components.
"""

import numpy as np

import dispersive_nphoton as dn


def main():
    spec = dn.SystemSpec(
        topology="single",
        qubits=(dn.QubitSpec(omega_q=8.0, n=2, g=0.02),),
        oscillators=(dn.OscillatorSpec(omega=1.0, trunc=40),),
    )
    layout = spec.layout()
    h_full = dn.build_model(spec, "nR")
    h_disp = dn.build_model(spec, "dispersive", "rwa")
    chi = spec.qubit_params().chi
    print(f"dispersive shift chi = {chi:.6e}, comparing over chi*t in [0, 2]")

    for preset in ("bell", "plus_coherent_2"):
        print(f"--- initial state: {preset} ---")
        psi_full = dn.preset_state(preset, layout)
        psi_disp = dn.preset_state(preset, layout)
        prev = 0.0
        print(f"{'chi*t':>6} {'fid(qubit)':>12} {'fid(oscillator)':>16}")
        for chit in np.linspace(0.0, 2.0, 11):
            t = chit / chi
            if t > prev:
                psi_full = dn.evolve(h_full, psi_full, t - prev)
                psi_disp = dn.evolve(h_disp, psi_disp, t - prev)
            prev = t
            fid_q = dn.fidelity(
                dn.partial_trace(psi_full, [0]), dn.partial_trace(psi_disp, [0])
            )
            fid_o = dn.fidelity(
                dn.partial_trace(psi_full, [1]), dn.partial_trace(psi_disp, [1])
            )
            print(f"{chit:6.1f} {fid_q:12.6f} {fid_o:16.6f}")


if __name__ == "__main__":
    main()
