"""Oscillator-mediated coupling between two detuned qubits.

Two qubits coupled to one oscillator through n-photon exchange acquire
dressed frequencies and an effective exchange coupling that both depend on
the photon population.  This demo prints the effective parameters as a
function of the drive amplitude, then checks that each fixed-photon-number
4x4 block reproduces the corresponding sector of the full model exactly.
"""

import numpy as np

import dispersive_nphoton as dn


def main():
    spec = dn.SystemSpec(
        topology="multiqubit",
        qubits=(
            dn.QubitSpec(omega_q=8.0, n=2, g=0.02),
            dn.QubitSpec(omega_q=7.4, n=2, g=0.03),
        ),
        oscillators=(dn.OscillatorSpec(omega=1.0, trunc=30),),
    )

    print("--- effective two-qubit parameters vs drive amplitude ---")
    print(f"{'|alpha|':>8} {'omega_bar_1':>14} {'omega_bar_2':>14} {'g_bar':>12}")
    for alpha in (0.0, 0.5, 1.0, 1.5, 2.0):
        w1, w2, gbar = dn.effective_two_qubit_params(spec, alpha)
        print(f"{alpha:8.1f} {w1:14.8f} {w2:14.8f} {gbar:12.3e}")

    print("--- photon-sector blocks vs the full model ---")
    trunc = spec.oscillators[0].trunc
    worst = 0.0
    for regime in ("rwa", "nonrwa"):
        h = dn.build_model(spec, "dispersive", regime).toarray()
        for j in range(8):
            sector = [(q1 * 2 + q2) * trunc + j for q1 in (0, 1) for q2 in (0, 1)]
            eig_full = np.linalg.eigvalsh(h[np.ix_(sector, sector)])
            eig_block = np.linalg.eigvalsh(dn.two_qubit_block(j, spec, regime))
            worst = max(worst, float(np.abs(eig_full - eig_block).max()))
    print(f"  worst |eigenvalue difference| over j<=7, both regimes: {worst:.2e}")

    print("--- opposite detunings cancel the exchange ---")
    balanced = dn.SystemSpec(
        topology="multiqubit",
        qubits=(
            dn.QubitSpec(omega_q=8.0, n=2, g=0.02),
            dn.QubitSpec(omega_q=-4.0, n=2, g=0.03),
        ),
        oscillators=(dn.OscillatorSpec(omega=1.0, trunc=30),),
    )
    _, _, gbar = dn.effective_two_qubit_params(balanced, 1.0)
    print(f"  g_bar at detunings +6/-6: {gbar:+.3e}")


if __name__ == "__main__":
    main()
