"""Euler-Bernoulli beam eigenvalues and orthonormal mode shapes.

Supported supports: clamped at both ends, or clamped at one end and free at
the other.  Eigenvalues beta_n solve

    clamped-clamped:  cos(beta) cosh(beta) = +1
    clamped-free:     cos(beta) cosh(beta) = -1

evaluated in the overflow-safe form cos(beta) -/+ sech(beta) = 0 by
kernel.cos_cosh_root, once per root and process; the clamped-free eigenvalues
are the band edges.  Mode shapes are normalized to unit L2 norm on [0, 1] and
evaluated through an exponentially-scaled recombination that stays finite and
cancellation-safe for any mode number.  The modes form a table as the roots
do: each (support, n) is built and its norm integrated once per process, and
the config ceilings of spectrum.n_max and galerkin.basis_size bound n.
basis_values evaluates a whole basis at many points in one broadcast pass of
the same formula.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .kernel import cos_cosh_root
from .model import BoundaryCondition
from .quadrature import fixed_quad


def _beta(bc: BoundaryCondition, n: int) -> float:
    """Eigenvalue n: band edge n (clamped-free) or root n + 1 of
    cos(beta) cosh(beta) = +1, whose root 1 is the trivial 0."""
    if bc is BoundaryCondition.CLAMPED_FREE:
        return cos_cosh_root(n)
    return cos_cosh_root(n + 1, -1.0)


def beam_roots(bc: BoundaryCondition, n_max: int) -> np.ndarray:
    """First n_max eigenvalues, ascending.

    Roots approach (n + 1/2)*pi for clamped-clamped and (n - 1/2)*pi for
    clamped-free, where they are the band edges.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return np.array([_beta(bc, n) for n in range(1, n_max + 1)])


def _shapes(beta, eps, u, derivative: int):
    """Raw shapes of modes beta with support sign eps at u; beta and eps
    broadcast against u, so one call evaluates a whole basis.

    Scaled representation: with E = exp(-beta), eps = -1 (cc) / +1 (cf),
      s_hat = (1 - E^2)/2 + eps E sin(beta)   [= E*(sinh beta + eps sin beta)]
      c_hat = (1 + E^2)/2 + eps E cos(beta)
      a = (eps (sin beta - cos beta) - E)/2,  b = (1 + eps E (sin+cos))/2
    phi = -(a e^{-beta(1-u)} + b e^{-beta u} - s_hat cos(beta u)
            + c_hat sin(beta u)) / s_hat
    All exponentials are <= 1, so no overflow and no catastrophic
    cancellation anywhere on [0, 1].
    """
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


def _eps(bc: BoundaryCondition) -> float:
    return -1.0 if bc is BoundaryCondition.CLAMPED_CLAMPED else 1.0


class BeamMode(NamedTuple):
    """One orthonormal beam mode; norm is the L2 norm of its raw shape.

    The overall sign is fixed so that the curvature at the clamped end is
    negative, phi_n''(0) < 0.  For the clamped-clamped fundamental this makes
    the mean deflection integral negative, which is the convention the
    nonlinear drive overlap expects.
    """

    n: int
    beta: float
    bc: BoundaryCondition
    norm: float = 1.0

    def __call__(self, u, derivative: int = 0):
        """phi_n and its first two u-derivatives on [0, 1]."""
        if derivative not in (0, 1, 2):
            raise ValueError("derivative order must be 0, 1 or 2")
        return _shapes(self.beta, _eps(self.bc), np.asarray(u, dtype=float),
                       derivative) / self.norm


def basis_values(basis: list[BeamMode], u) -> np.ndarray:
    """phi_m(u_j) of every mode at every point of the 1-D array u, shape
    (M, J), in one broadcast pass; row m equals basis[m](u) bit for bit
    where numpy's exp, sin and cos give arrays the bits of scalars."""
    column = lambda values: np.array(values, dtype=float)[:, None]
    return _shapes(column([m.beta for m in basis]),
                   column([_eps(m.bc) for m in basis]),
                   np.asarray(u, dtype=float), 0) \
        / column([m.norm for m in basis])


@lru_cache(maxsize=None)
def _mode(bc: BoundaryCondition, n: int) -> BeamMode:
    beta = _beta(bc, n)
    norm2 = fixed_quad(lambda u: _shapes(beta, _eps(bc), u, 0) ** 2, 0.0, 1.0,
                       panels=max(8, n + 2))
    return BeamMode(n=n, beta=beta, bc=bc, norm=float(np.sqrt(norm2)))


def beam_modes(bc: BoundaryCondition, n_max: int) -> list[BeamMode]:
    """First n_max modes with quadrature-verified unit norms.  Each mode is
    built once per (bc, n) and process; every call returns a fresh list."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return [_mode(bc, n) for n in range(1, n_max + 1)]
