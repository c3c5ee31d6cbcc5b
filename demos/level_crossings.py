"""Level pivots: loading-independent points of the band structure.

Sweeping the cantilever length moves every level, except at special length
ratios where a level coincides with a bare-beam mode and stops feeling the
cantilevers entirely: all curves of one (n, k) family pivot through a fixed
point there no matter how heavy the loading (nu).  The first one for band 2
sits exactly at lambda = 1/2.
"""

import numpy as np

from cantarray import BoundaryCondition, preset_device
from cantarray.model import UniformProfile, dimensionless
from cantarray.spectrum import crossing_ratio, solve_uniform

BC = BoundaryCondition.CLAMPED_CLAMPED


def main():
    geometry, _, _ = preset_device("jap1-calibrated")

    print("Predicted pivot ratios lambda* (level n, band k):")
    for k in (2, 3):
        for n in (1, 2, 3):
            lam_star, omega_star = crossing_ratio(n, k, BC, geometry)
            f = omega_star / (2 * np.pi)
            print(f"  (n={n}, k={k}): lambda* = {lam_star:.10f}"
                  f"   pinned at {f / 1e9:7.4f} GHz")

    print("\nBand-2 level of the fundamental near lambda = 0.5, three loadings.")
    print("Columns: gamma at each nu; the middle row is the pivot:")
    nus = (5.0, 20.0, 200.0)
    print(f"  {'lambda':>8} " + " ".join(f"{'nu=%g' % nu:>14}" for nu in nus))
    for lam in (0.46, 0.48, 0.50, 0.52, 0.54):
        row = []
        for nu in nus:
            wb = geometry.beam_width
            count = max(1, round(nu * wb / (2 * geometry.cantilever_width)))
            geo = geometry.__class__(**{**geometry.to_dict(),
                                        "count_per_side": count})
            profile = UniformProfile(length=lam * geo.beam_length)
            gammas = solve_uniform(geo, profile, BC, n_max=1, k_max=2)[0]
            row.append(gammas[0, 1])
        spread = max(row) - min(row)
        mark = "  <- independent of loading" if spread < 1e-9 else ""
        print(f"  {lam:>8.3f} " + " ".join(f"{g:>14.9f}" for g in row)
              + f"   spread {spread:.1e}{mark}")

    geo, profile, _ = preset_device("jap1-calibrated")
    lam = dimensionless(geo, profile).lam
    print(f"\nThe preset device sits at lambda = {lam:.4f}, far from any pivot,")
    print("so its levels shift with loading and the device works as a sensor.")


if __name__ == "__main__":
    main()
