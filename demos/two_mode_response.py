"""Driven response of the two interacting modes of the antenna device.

Near its working point the array reduces to two coupled Duffing
oscillators: the low collective mode (whole array swings with the beam)
and the high flexing mode (cantilevers flex against an almost still
beam).  Each mode stiffens with its own amplitude and detunes the other
through a cross coupling, which is exactly the readout mechanism: drive
the high mode, watch the low resonance walk away.
"""

import numpy as np

from cantarray.model import NonlinearSettings, preset_device
from cantarray.nonlinear import (coupled_steady_state, effective_params,
                                 overlap_integrals, peak_amplitude,
                                 select_modes, shift_of_fundamental)


def main():
    geometry, profile, bc = preset_device("jap1-calibrated")
    selection = select_modes(geometry, profile, bc)
    integrals = overlap_integrals(selection)

    print("Two-mode reduction of the calibrated device:")
    print(f"  collective mode: {selection.omega1 / 2 / np.pi / 1e6:9.2f} MHz"
          f"  (gamma = {selection.gamma1:.6f}, band 1)")
    print(f"  flexing mode   : {selection.omega2 / 2 / np.pi / 1e9:9.3f} GHz"
          f"  (gamma = {selection.gamma2:.6f}, band 2)")

    damping = 2.0e-7   # N s / m^2, sets linewidths ~ realistic Q
    settings = NonlinearSettings(damping_beam=damping,
                                 damping_cantilever=damping,
                                 force1=0.0, force2=0.0)
    params = effective_params(selection, integrals, geometry, settings)
    print("\nEffective Duffing coefficients:")
    print(f"  modal masses     {params.mass1:.3e} / {params.mass2:.3e} kg")
    print(f"  self couplings   {params.self_coupling1:+.3e} /"
          f" {params.self_coupling2:+.3e} kg m^-2 s^-2")
    print(f"  cross coupling   {params.cross_coupling:+.3e} kg m^-2 s^-2")
    print(f"  drive per force  {params.drive_per_force:+.3e} m")
    q1 = params.mass1 * params.omega1 / params.damping1
    print(f"  quality factor   Q1 = {q1:.0f}")

    # size the drive so the fold sits a few linewidths into the scan:
    # beyond the fold the response curve leans over and three states coexist
    width = params.damping1 / (2.0 * params.mass1)
    z_fold = abs(6.0 * width * 4.0 * params.mass1 * params.omega1
                 / params.self_coupling1)
    f1 = np.sqrt(z_fold) * params.damping1 * params.omega1 / abs(params.drive_per_force)
    settings = NonlinearSettings(damping_beam=damping,
                                 damping_cantilever=damping,
                                 force1=f1, force2=0.0)
    params = effective_params(selection, integrals, geometry, settings)
    a_peak = peak_amplitude(1, params)
    print(f"\nDrive {f1:.3e} N/m on the collective mode only")
    print(f"(peak amplitude {a_peak * 1e9:.3f} nm, "
          f"{abs(params.self_coupling1) * a_peak ** 2 / (4 * params.mass1 * params.omega1) / width:.1f} linewidths of backbone pull).")
    print("\nSteady states vs detuning sigma1; the self coupling is negative")
    print("(softening), so the curve leans to lower frequency and the")
    print("coexistence window sits at negative detuning:")
    print(f"  {'sigma1/width':>12}  {'a1 (nm)':>10}  branch")
    fracs = np.linspace(2.0, -8.0, 11)
    states = coupled_steady_state(fracs * width, 0.0, params)
    count = np.bincount(states["point"])
    for i, z1, branch in zip(states["point"], states["z1"], states["branch1"]):
        print(f"  {fracs[i]:>12.1f}  {np.sqrt(z1) * 1e9:>10.4f}  {branch}"
              + ("   <- coexisting" if count[i] > 1 else ""))

    print("\nNow drive the flexing mode too and sit both modes on their")
    print("peaks; its amplitude drags the collective resonance (the shift")
    print("is the sensing signal):")
    print(f"  {'f2 (N/m)':>10}  {'a2 (pm)':>9}  {'shift / width':>13}")
    for f2 in (0.0, 1e-4, 3e-4, 1e-3, 3e-3):
        roots = shift_of_fundamental(params, force2=f2)
        for r in roots:
            print(f"  {f2:>10.1e}  {r.amplitude2 * 1e12:>9.4f}"
                  f"  {r.sigma1 / width:>13.4f}")
    print("\nThe zero-drive row shows the collective mode already detunes")
    print("itself through its own nonlinearity; extra shift is pure cross")
    print("coupling, monotone in the flexing drive power.")


if __name__ == "__main__":
    main()
