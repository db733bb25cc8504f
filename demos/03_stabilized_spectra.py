"""Truncation stability of spectra for couplings of degree three and above.

A degree-3 exchange term grows faster with photon number than the quadratic
oscillator energy, so the truncated matrix has spurious low-lying states
that depend on where the basis is cut: doubling the basis moves the lowest
eigenvalue macroscopically.  Adding a weak confining term in the photon
number (a "stabilizer") restores a truncation-independent low-energy window.
The demo shows both behaviors, then sweeps the coupling to show the
low-photon level count collapsing once the coupling reaches the stabilizer
scale.
"""

import dispersive_nphoton as dn


def spec(g, trunc, eta=None):
    stab = None if eta is None else dn.StabilizerSpec(form="number_power", eta=eta)
    return dn.SystemSpec(
        topology="single",
        qubits=(dn.QubitSpec(omega_q=3.1, n=3, g=g),),
        oscillators=(dn.OscillatorSpec(omega=1.0, trunc=trunc),),
        stabilizer=stab,
    )


def ground(g, trunc, eta=None):
    h = dn.build_model(spec(g, trunc, eta), "nR")
    if h.total_dim <= 2048:
        return dn.eigh_dense(h, want_states=False).energies[0]
    return dn.eigs_lowest(h, 8).energies[0]


def main():
    print("--- unstabilized: lowest eigenvalue under basis doubling ---")
    for trunc in (300, 600):
        print(f"  trunc={trunc:4d}: E0 = {ground(0.03, trunc):+.4f}")
    print("  (the shift is macroscopic: the spectrum is a truncation artifact)")

    print("--- stabilized (eta = 0.05): same doubling ---")
    # The confining term must outweigh the coupling growth over the retained
    # basis; eta = 0.05 protects the low-energy window at these sizes.
    for trunc in (300, 600):
        print(f"  trunc={trunc:4d}: E0 = {ground(0.03, trunc, eta=0.05):+.10f}")
    print("  (the confining term pins the low-energy window)")

    print("--- stabilized low-photon level count vs coupling (eta = 0.02) ---")
    print("  levels with mean photon number < 20, k = 48, trunc = 1000:")
    for g in (0.0, 0.01, 0.02, 0.025, 0.03):
        h = dn.build_model(spec(g, 1000, eta=0.02), "nR")
        result = dn.eigs_lowest(h, 48)
        kept = dn.filter_by_mean_photon(result, 20.0)
        print(f"  g={g:<6g} count={kept.k}")
    print("  (the count shrinks sharply and vanishes as g crosses the"
          " stabilizer scale eta)")


if __name__ == "__main__":
    main()
