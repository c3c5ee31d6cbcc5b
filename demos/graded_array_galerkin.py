"""Projection solver for arrays the closed-form machinery cannot touch.

The band solver needs identical cantilevers (or two alternating families).
Real devices are graded: lengths taper, spacing drifts.  Projecting the
carried displacement onto bare-beam modes turns any of those layouts into
a small dense eigenproblem.  Two sanity anchors, then a graded array.
"""

import numpy as np

from cantarray import BoundaryCondition, band_edge_gammas, preset_device
from cantarray.galerkin import forbidden_alpha_intervals, solve
from cantarray.model import GalerkinSettings
from cantarray.model import DiscreteProfile, TabulatedProfile
from cantarray.spectrum import solve_uniform


def main():
    geometry, profile, bc = preset_device("jap1-calibrated")
    L = geometry.beam_length
    settings = GalerkinSettings(basis_size=8, quadrature_order=64,
                                quadrature_rtol=1e-10)

    # anchor 1: a uniform array must reproduce the closed-form bands
    gammas, _, scale = solve_uniform(geometry, profile, bc, n_max=4, k_max=1)
    alpha_max = 1.05 * gammas.max() / profile.length
    alphas, omegas, _ = solve(geometry, profile, bc, alpha_max, settings)
    print("Uniform array, band 1: projection vs closed form:")
    print(f"  {'n':>2} {'closed':>16} {'projected':>16} {'rel diff':>10}")
    for n, g in enumerate(gammas[:, 0], start=1):
        closed = scale * g * g
        near = omegas[np.argmin(np.abs(omegas - closed))]
        rel = abs(near - closed) / closed
        print(f"  {n:>2} {closed:>16.6e} {near:>16.6e} {rel:>10.1e}")

    # anchor 2: the device's 20 stations, placed explicitly, behave like
    # the smeared density already
    n_pairs = geometry.count_per_side
    comb = DiscreteProfile(
        positions=tuple((j - 0.5) * L / n_pairs for j in range(1, n_pairs + 1)),
        lengths=(profile.length,) * n_pairs)
    comb_alphas = solve(geometry, comb, bc, alpha_max, settings)[0]
    print(f"\nSame but {n_pairs} explicit pair positions instead of a "
          "smeared density:")
    for a, b in zip(alphas, comb_alphas):
        print(f"  alpha = {a:12.1f} vs {b:12.1f}   rel {abs(a - b) / a:.1e}")

    # now a graded device: lengths taper 30% along the beam
    stations = np.linspace(0.0, L, 9)
    graded = TabulatedProfile(
        x=tuple(stations),
        length=tuple(profile.length * (1.0 + 0.3 * s / L) for s in stations),
        density=(2 * geometry.count_per_side / L,) * 9)
    print("\nGraded array (cantilevers 30% longer at the far end).")
    print("Resonances now smear over the beam; the first forbidden alpha")
    print("window is an interval, not a point:")
    for iv in forbidden_alpha_intervals(graded, 2.2 * band_edge_gammas(1)[0]
                                        / profile.length):
        print(f"  band-edge {iv.k}: alpha in [{iv.lo:.3e}, {iv.hi:.3e}] 1/m")

    _, omegas, weights = solve(geometry, graded, bc, alpha_max, settings)
    print("\nLowest graded levels (participation of leading basis mode):")
    for omega, p in zip(omegas[:6], weights[:6]):
        dominant = int(np.argmax(np.abs(p)))
        print(f"  f = {omega / 2 / np.pi / 1e6:9.3f} MHz"
              f"   dominant n = {dominant + 1}, weight {p[dominant] ** 2:.4f}")
    print("\nWeights below 1 mean the grading mixes beam modes; a uniform")
    print("array would keep every level locked to a single n.")


if __name__ == "__main__":
    main()
