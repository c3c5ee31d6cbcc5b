"""Euler-Bernoulli beam eigenvalues and orthonormal mode shapes.

Supported supports: clamped at both ends, or clamped at one end and free at
the other.  Eigenvalues beta_n solve

    clamped-clamped:  cos(beta) cosh(beta) = +1
    clamped-free:     cos(beta) cosh(beta) = -1

evaluated in the overflow-safe form cos(beta) -/+ sech(beta) = 0 by
kernel.cos_cosh_root, once per root and process; the clamped-free eigenvalues
are the band edges.  Mode shapes are normalized to unit L2 norm on [0, 1] and
evaluated through an exponentially-scaled recombination that stays finite and
cancellation-safe for any mode number.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernel import band_edge_gammas, cos_cosh_residual, cos_cosh_root
from .model import BoundaryCondition
from .quadrature import fixed_quad


def secular_residual(beta, bc: BoundaryCondition):
    """cos(beta) - s*sech(beta) with s = +1 (clamped-clamped), -1 (clamped-free).

    Zero exactly at the eigenvalues; safe for arbitrarily large beta.
    """
    return cos_cosh_residual(
        beta, -1.0 if bc is BoundaryCondition.CLAMPED_CLAMPED else 1.0)


def beam_roots(bc: BoundaryCondition, n_max: int) -> np.ndarray:
    """First n_max eigenvalues, ascending.

    Roots approach (n + 1/2)*pi for clamped-clamped and (n - 1/2)*pi for
    clamped-free, where they are the band edges.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if bc is BoundaryCondition.CLAMPED_FREE:
        return band_edge_gammas(n_max)
    return np.array([cos_cosh_root(n + 1, -1.0) for n in range(1, n_max + 1)])


@dataclass(frozen=True)
class BeamMode:
    """One orthonormal beam mode.

    The overall sign is fixed so that the curvature at the clamped end is
    negative, phi_n''(0) < 0.  For the clamped-clamped fundamental this makes
    the mean deflection integral negative, which is the convention the
    nonlinear drive overlap expects.
    """

    n: int
    beta: float
    bc: BoundaryCondition
    _norm: float = field(default=1.0, compare=False)

    def __call__(self, u, derivative: int = 0):
        """phi_n and its first two u-derivatives on [0, 1]."""
        if derivative not in (0, 1, 2):
            raise ValueError("derivative order must be 0, 1 or 2")
        return self._raw(u, derivative) / self._norm

    def _raw(self, u, derivative: int):
        # Scaled representation: with E = exp(-beta), eps = -1 (cc) / +1 (cf),
        #   s_hat = (1 - E^2)/2 + eps E sin(beta)   [= E*(sinh beta + eps sin beta)]
        #   c_hat = (1 + E^2)/2 + eps E cos(beta)
        #   a = (eps (sin beta - cos beta) - E)/2,  b = (1 + eps E (sin+cos))/2
        # phi = -(a e^{-beta(1-u)} + b e^{-beta u} - s_hat cos(beta u)
        #         + c_hat sin(beta u)) / s_hat
        # All exponentials are <= 1, so no overflow and no catastrophic
        # cancellation anywhere on [0, 1].
        u = np.asarray(u, dtype=float)
        beta = self.beta
        eps = -1.0 if self.bc is BoundaryCondition.CLAMPED_CLAMPED else 1.0
        E = np.exp(-beta)
        sb, cb = np.sin(beta), np.cos(beta)
        s_hat = 0.5 * (1.0 - E * E) + eps * E * sb
        c_hat = 0.5 * (1.0 + E * E) + eps * E * cb
        a = 0.5 * (eps * (sb - cb) - E)
        b = 0.5 * (1.0 + eps * E * (sb + cb))
        g_up = np.exp(-beta * (1.0 - u))
        g_dn = np.exp(-beta * u)
        cu, su = np.cos(beta * u), np.sin(beta * u)
        if derivative == 0:
            num = a * g_up + b * g_dn - s_hat * cu + c_hat * su
            scale = 1.0
        elif derivative == 1:
            num = a * g_up - b * g_dn + s_hat * su + c_hat * cu
            scale = beta
        else:
            num = a * g_up + b * g_dn + s_hat * cu - c_hat * su
            scale = beta * beta
        return -scale * num / s_hat


def beam_modes(bc: BoundaryCondition, n_max: int) -> list[BeamMode]:
    """First n_max modes with quadrature-verified unit norms."""
    betas = beam_roots(bc, n_max)
    modes = []
    for n, beta in enumerate(betas, start=1):
        mode = BeamMode(n=n, beta=float(beta), bc=bc)
        panels = max(8, n + 2)
        norm2 = fixed_quad(lambda u: mode._raw(u, 0) ** 2, 0.0, 1.0, panels=panels)
        object.__setattr__(mode, "_norm", float(np.sqrt(norm2)))
        modes.append(mode)
    return modes

