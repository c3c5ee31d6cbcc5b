"""Walk through the bare-beam eigenproblem the whole package builds on.

The supporting beam without its cantilevers is a classic Euler-Bernoulli
problem: the mode wavenumbers are roots of one transcendental equation per
boundary condition, and everything downstream (band structure, Galerkin
basis, two-mode reduction) expands in these shapes.
"""

import numpy as np

from cantarray import BoundaryCondition, beam_modes, beam_roots


def main():
    n_max = 6

    for bc in (BoundaryCondition.CLAMPED_CLAMPED, BoundaryCondition.CLAMPED_FREE):
        betas = beam_roots(bc, n_max)
        print(f"\n{bc.value} beam, first {n_max} wavenumbers beta_n:")
        print(f"  {'n':>2}  {'beta_n':>16}  {'asymptote':>12}  {'defect':>9}")
        for n, b in enumerate(betas, start=1):
            # roots approach (n + 1/2) pi (cc) or (n - 1/2) pi (cf)
            half = 0.5 if bc is BoundaryCondition.CLAMPED_CLAMPED else -0.5
            asym = (n + half) * np.pi
            print(f"  {n:>2}  {b:>16.10f}  {asym:>12.6f}  {b - asym:>9.2e}")

    print("\nMode shapes are normalized so the mean square over the span is 1,")
    print("with the sign fixed by negative curvature at the left clamp:")
    modes = beam_modes(BoundaryCondition.CLAMPED_CLAMPED, n_max)
    u = np.linspace(0.0, 1.0, 20001)
    for m in modes:
        phi = m(u)
        norm = np.trapezoid(phi * phi, u)
        print(f"  n={m.n}: integral phi^2 du = {norm:.12f}, "
              f"phi''(0) = {m(0.0, 2):+.4f}, "
              f"interior nodes = {np.sum(np.diff(np.sign(phi[1:-1])) != 0)}")

    print("\nCross-mode overlaps vanish (first 4x4 Gram matrix, cc):")
    gram = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            gram[i, j] = np.trapezoid(modes[i](u) * modes[j](u), u)
    with np.printoptions(precision=2, suppress=False):
        print(gram)


if __name__ == "__main__":
    main()
