"""Single-cantilever response to base motion.

A clamped-free cantilever of length l driven through its clamp at frequency
omega responds with a relative tip shape chi(v), v = xi/l, determined by the
reduced wavenumber gamma = alpha*l.  Everything here is parametrized by gamma:

    response coefficients  A1+/-, A2+/- (trig/hyperbolic mode mixture)
    shear kernel           T(gamma) = 2*A2+(gamma), the clamp shear per unit
                           base deflection in reduced units

The distributed loading V(alpha; x) = (w_c/w_b) rho(x) alpha^3 T(alpha l(x))
built on T is projected onto the beam basis in galerkin.assemble.

All coefficient formulas are evaluated in a cosh-scaled form (divide through
by cosh(gamma)) so they stay finite for arbitrarily large gamma.  T has simple
poles at the clamped-free beam resonances gamma_k, the band edges; calls
within POLE_TOL of a pole raise PoleProximityError.

Band edges are the clamped-free beam eigenvalues, roots of cos cosh = -1
(clamped-clamped: +1); cos_cosh_root solves both once per root and process.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .numerics import brentq

POLE_TOL = 1e-12        # absolute gamma distance treated as "at the pole"
_ROOT_XTOL = 1e-15


class PoleProximityError(ValueError):
    """gamma is too close to a cantilever resonance for the kernel to be used."""

    def __init__(self, gamma: float, k: int, where: str = "gamma"):
        self.gamma = gamma
        self.k = k
        self.where = where
        super().__init__(
            f"{where} = {gamma!r} lies within {POLE_TOL} of band edge k={k}")


def cos_cosh_residual(gamma, s: float = 1.0):
    """cos(gamma) + s*sech(gamma), overflow-safe; zero where cos(gamma)
    cosh(gamma) = -s (s = +1: band edges, s = -1: clamped-clamped)."""
    gamma = np.asarray(gamma, dtype=float)
    with np.errstate(over="ignore"):   # cosh = inf past 710, and s/inf = 0
        return np.cos(gamma) + s / np.cosh(gamma)


@lru_cache(maxsize=None)
def cos_cosh_root(k: int, s: float = 1.0) -> float:
    """Root k of cos(gamma) + s*sech(gamma) in ((k-1) pi, k pi), solved once
    per (k, s); for s = -1, k = 1 holds only the trivial root 0."""
    lo = (k - 1) * np.pi if k > 1 else 1e-6
    return brentq(lambda g: float(cos_cosh_residual(g, s)), lo, k * np.pi,
                  xtol=_ROOT_XTOL)


def band_edge_gammas(k_max: int) -> np.ndarray:
    """First k_max roots of 1 + cos(gamma) cosh(gamma) = 0, ascending.

    Root k lies in ((k-1) pi, k pi) and approaches (k - 1/2) pi.  Each root
    is solved once per process; every call returns a fresh array.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return np.array([cos_cosh_root(k) for k in range(1, k_max + 1)])


def band_edges_reaching(gamma: float) -> np.ndarray:
    """The band edges that reach gamma >= 0: every edge <= gamma and at
    least the first one above it (edge k lies in ((k-1) pi, k pi))."""
    return band_edge_gammas(int(gamma / np.pi) + 2)


def nearest_band_edge(gamma: float) -> tuple[int, float]:
    """(k, gamma_k) of the band edge closest to gamma."""
    edges = band_edges_reaching(gamma)
    k = int(np.argmin(np.abs(edges - gamma)))
    return k + 1, float(edges[k])


def check_pole_distance(gamma, where: str = "gamma") -> None:
    """Raise PoleProximityError if any entry of gamma sits on a band edge.

    The error names the first offending entry in input order.
    """
    arr = np.atleast_1d(np.asarray(gamma, dtype=float))
    finite = arr[np.isfinite(arr) & (arr > 0)]
    if finite.size == 0:
        return
    lo, hi = finite.min(), finite.max()
    edges = band_edges_reaching(hi)
    # rounding is monotone: only edges within POLE_TOL of [lo, hi] can be hit
    near = edges[(edges - hi < POLE_TOL) & (lo - edges < POLE_TOL)]
    if near.size == 0:   # the common case: no entry needs testing
        return
    hit = (np.abs(finite[:, None] - near) < POLE_TOL).any(axis=1)  # (N, few)
    if hit.any():
        i = int(np.argmax(hit))
        raise PoleProximityError(float(finite[i]),
                                 nearest_band_edge(finite[i])[0], where)


def _scaled_parts(gamma):
    """cos, sin, tanh, sech of gamma plus the cosh-scaled resonance denominator
    d = sech(gamma) + cos(gamma)  [= (1 + cos cosh)/cosh]."""
    gamma = np.asarray(gamma, dtype=float)
    c, s = np.cos(gamma), np.sin(gamma)
    th = np.tanh(gamma)
    with np.errstate(over="ignore"):   # cosh = inf past 710, and 1/inf = 0
        sech = 1.0 / np.cosh(gamma)
    return c, s, th, sech, sech + c


def shear_kernel(gamma):
    """T(gamma) = (cos sinh + sin cosh)/(1 + cos cosh), vectorized.

    Small-gamma behavior T = gamma + gamma^5/20 + ...; simple poles at the
    band edges.  Input within POLE_TOL of an edge raises PoleProximityError.
    """
    check_pole_distance(gamma)
    c, s, th, sech, d = _scaled_parts(gamma)
    return (c * th + s) / d


class CantileverShape:
    """Relative deflection chi(v) of a cantilever riding a vibrating base.

    chi(0) = chi'(0) = 0 (rigid clamp follows the base) and the tip is free,
    chi''(1) = chi'''(1) = 0.  Derivatives up to order 3 are available.
    Evaluation combines the trig part with an exponentially-scaled hyperbolic
    part, finite for any gamma.
    """

    def __init__(self, gamma: float):
        check_pole_distance(gamma)
        self.gamma = float(gamma)
        if self.gamma == 0.0:
            return
        c, s, th, _, d = _scaled_parts(self.gamma)
        # trig amplitudes A1+ and A2+ (A1- = 1 - A1+, A2- = -A2+)
        self._a1p = float((d - s * th) / (2.0 * d))
        self._a2p = float((c * th + s) / (2.0 * d))
        g = self.gamma
        # e^{-gamma} * 2(1 + cos cosh), denominator of the hyperbolic part
        self._dhat = 2.0 * np.exp(-g) + c * (1.0 + np.exp(-2.0 * g))

    def __call__(self, v, derivative: int = 0):
        if derivative not in (0, 1, 2, 3):
            raise ValueError("derivative order must be 0..3")
        v = np.asarray(v, dtype=float)
        if np.any(v < -1e-12) or np.any(v > 1.0 + 1e-12):
            raise ValueError("v must lie in [0, 1]")
        if self.gamma == 0.0:  # the cantilever rides rigidly
            return np.zeros_like(v)
        g = self.gamma
        a1p, a2p = self._a1p, self._a2p
        cg, sg = np.cos(g), np.sin(g)
        # hyperbolic part numerator, scaled by e^{-gamma}:
        #   P(v) = cosh(g v) + cos(g) cosh(g(1-v)) + sin(g) sinh(g(1-v))
        e_up = np.exp(-g * (1.0 - v))   # e^{-g(1-v)}
        e_dn = np.exp(-g * v)           # e^{-g v}
        e_far = np.exp(-g * (1.0 + v))
        e_ref = np.exp(-g * (2.0 - v))
        ch_v = 0.5 * (e_up + e_far)
        sh_v = 0.5 * (e_up - e_far)
        ch_1mv = 0.5 * (e_dn + e_ref)
        sh_1mv = 0.5 * (e_dn - e_ref)
        p_even = ch_v + cg * ch_1mv + sg * sh_1mv      # P-hat
        p_odd = sh_v - cg * sh_1mv - sg * ch_1mv       # P-hat'/gamma
        cv, sv = np.cos(g * v), np.sin(g * v)
        if derivative == 0:
            return a1p * cv + a2p * sv + p_even / self._dhat - 1.0
        if derivative == 1:
            return g * (-a1p * sv + a2p * cv + p_odd / self._dhat)
        if derivative == 2:
            return g * g * (-a1p * cv - a2p * sv + p_even / self._dhat)
        return g ** 3 * (a1p * sv - a2p * cv + p_odd / self._dhat)

