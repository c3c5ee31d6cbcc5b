"""Band structure of the calibrated 2x20 antenna device.

Loading a beam with cantilever pairs folds its single dispersion branch
into bands: each beam mode n acquires one level per band k, every band is
bounded by cantilever resonances, and gaps open in between.  The preset
reproduces the published device scale (fundamental near 24.7 MHz, first
collective cantilever mode near 2.94 GHz).
"""

import numpy as np

from cantarray import dimensionless, preset_device
from cantarray.spectrum import band_gaps, solve_uniform


def main():
    geometry, profile, bc = preset_device("jap1-calibrated")
    params = dimensionless(geometry, profile)
    print("Device: 20 cantilever pairs per side on a clamped-clamped beam")
    print(f"  beam length      {geometry.beam_length * 1e6:8.3f} um")
    print(f"  cantilever       {profile.length * 1e6:8.3f} um")
    print(f"  lambda = l/L     {params.lam:8.5f}")
    print(f"  nu = 2 N wc/wb   {params.nu:8.1f}")

    gammas, edges, scale = solve_uniform(geometry, profile, bc, n_max=6,
                                         k_max=3)
    lower = np.append(0.0, edges[:-1])
    freq = scale * gammas * gammas / (2 * np.pi)

    print("\nSpectrum (n = beam index, k = band):")
    print(f"  {'n':>2} {'k':>2} {'gamma':>14} {'f (MHz)':>12}  band window")
    for (i, j), g in np.ndenumerate(gammas):
        n = i + 1
        # the averaged model holds for n below the pairs per side
        flag = ("" if n < geometry.count_per_side
                else "   [n ~ pair count, averaging suspect]")
        print(f"  {n:>2} {j + 1:>2} {g:>14.8f} {freq[i, j] / 1e6:>12.3f}  "
              f"({lower[j]:.4f}, {edges[j]:.4f}){flag}")

    f1, f2 = freq[0, 0], freq[0, 1]
    print(f"\nFundamental         : {f1 / 1e6:8.2f} MHz (published ~24.7)")
    print(f"First flexing level : {f2 / 1e9:8.3f} GHz (published ~2.94)")

    print("\nGaps above each band edge (exact vs asymptotic estimate):")
    for gap in band_gaps(geometry, profile, bc, k_max=3):
        print(f"  k={gap.k}: edge {gap.omega_edge / 1e9 / 6.283185307179586:7.3f} GHz, "
              f"gap {gap.exact / 1e6 / 6.283185307179586:8.3f} MHz, "
              f"estimate/exact = {gap.ratio:.3f}")

    print("\nAll levels of one band squeeze between consecutive edges, so a")
    print("denser beam spectrum cannot leak into a gap; that is the hallmark")
    print("of the cantilever loading and the basis of the bandgap readout.")


if __name__ == "__main__":
    main()
