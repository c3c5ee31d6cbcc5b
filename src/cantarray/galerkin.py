"""Spectra of arrays with position-dependent cantilever loading.

The transverse beam equation with averaged cantilever shear forcing reduces
to a linear eigenproblem once projected onto the bare-beam eigenbasis: with
y(x) = sum_m c_m phi_m(x/L),

    [beta_m^4 - (alpha L)^4] c_m - sum_n V_mn(alpha) c_n = 0,

    V_mn(alpha) = L^4 int_0^1 V(alpha; uL) phi_m(u) phi_n(u) du,

where V(alpha; x) = (w_c/w_b) rho(x) alpha^3 T(alpha l(x)) is the loading
potential.  Roots of det D(alpha) give the spectrum for arbitrary length and
density profiles; for profiles with x-independent loading the matrix is
diagonal and the roots coincide with the closed-form band solver.

Levels are counted, not scanned for: on a pole-free alpha segment the
inertia (negative-eigenvalue count) of the symmetric matrix rises by one at
each root (Wittrick & Williams, Q. J. Mech. Appl. Math. 24, 1971), so the
counts at the segment ends give the number of levels between them.  Inertia
bisection splits each segment until every bracket holds one crossing, and
Brent's method refines it on the eigenvalue that crosses zero.  Determinant
magnitudes are never compared across alpha, so basis sizes beyond det
overflow are fine.
"""
from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .beam import BeamMode, beam_modes
from .kernel import PoleProximityError, band_edge_gammas, shear_kernel
from .model import (AlternatingProfile, BoundaryCondition, ConfigError,
                    DeviceGeometry, DiscreteProfile, GalerkinSettings, Profile,
                    TabulatedProfile, UniformProfile)
from .numerics import brentq
from .quadrature import panel_nodes

GAMMA_EXCLUSION = 1e-8   # half-width in gamma of the excluded pole window
_BRENT_RTOL = 4.0 * np.finfo(float).eps   # the smallest brentq accepts
_BRENT_XTOL = 1e-300     # leaves the relative tolerance in charge
DOMINANCE_THRESHOLD = 0.9   # least pure-mode participation, uniform loading


class BasisTooSmall(UserWarning):
    """Dominant participation below threshold where a pure mode is expected."""


@dataclass(frozen=True)
class GalerkinLevel:
    alpha: float               # 1/m
    omega: float               # rad/s, beam dispersion
    dominant_n: int            # 1-based beam-basis index of largest weight
    participation: np.ndarray = field(compare=False)  # unit norm, length M


@dataclass(frozen=True)
class ForbiddenInterval:
    """alpha interval where some cantilever length resonates (gamma at a
    band edge for some x); no level is sought inside it."""
    lo: float
    hi: float
    k: int


def _distinct_lengths(profile: Profile) -> list[float] | None:
    """Distinct cantilever lengths, or None for a continuum of lengths."""
    if isinstance(profile, UniformProfile):
        return [profile.length]
    if isinstance(profile, AlternatingProfile):
        lengths = []
        if profile.count1 > 0:
            lengths.append(profile.length1)
        if profile.count2 > 0:
            lengths.append(profile.length2)
        return sorted(set(lengths))
    if isinstance(profile, DiscreteProfile):
        return sorted(set(profile.lengths))
    if isinstance(profile, TabulatedProfile):
        return None
    raise ConfigError(f"unsupported profile type {type(profile).__name__}")


def forbidden_alpha_intervals(profile: Profile,
                              alpha_max: float) -> list[ForbiddenInterval]:
    """alpha ranges where gamma(x) = alpha*l(x) hits a band edge for some x.

    Profiles with finitely many lengths produce isolated resonances fattened
    by the exclusion window; a tabulated length continuum [l_min, l_max]
    turns each band edge into the full interval [edge/l_max, edge/l_min]
    (some cantilever resonates throughout it).  Overlapping intervals merge.
    """
    lengths = _distinct_lengths(profile)
    if lengths is None:
        l_min, l_max = min(profile.length), max(profile.length)
    else:
        l_min, l_max = lengths[0], lengths[-1]
    g_max = alpha_max * l_max
    k_max = max(1, int(g_max / np.pi) + 2)
    edges = band_edge_gammas(k_max)
    raw = []
    for k, edge in enumerate(edges, start=1):
        if lengths is None:
            lo = (edge - GAMMA_EXCLUSION) / l_max
            hi = (edge + GAMMA_EXCLUSION) / l_min
            if lo <= alpha_max:
                raw.append((float(lo), float(hi), k))
        else:
            for ln in lengths:
                lo = (edge - GAMMA_EXCLUSION) / ln
                hi = (edge + GAMMA_EXCLUSION) / ln
                if lo <= alpha_max:
                    raw.append((float(lo), float(hi), k))
    raw.sort()
    merged: list[ForbiddenInterval] = []
    for lo, hi, k in raw:
        if merged and lo <= merged[-1].hi:
            prev = merged.pop()
            merged.append(ForbiddenInterval(lo=prev.lo, hi=max(prev.hi, hi),
                                            k=prev.k))
        else:
            merged.append(ForbiddenInterval(lo=lo, hi=hi, k=k))
    return merged


def _constant_potential_diag(alpha: float, geometry: DeviceGeometry,
                             profile: Profile) -> float | None:
    """L^4 V for x-independent loading, or None if the profile varies in x."""
    aL3 = (alpha * geometry.beam_length) ** 3
    if isinstance(profile, UniformProfile):
        nu = 2.0 * geometry.count_per_side * geometry.cantilever_width \
            / geometry.beam_width
        return nu * aL3 * float(shear_kernel(alpha * profile.length))
    if isinstance(profile, AlternatingProfile):
        v = 0.0
        for ln, w, cnt in ((profile.length1, profile.width1, profile.count1),
                           (profile.length2, profile.width2, profile.count2)):
            if cnt > 0:
                v += (w / geometry.beam_width) * 2.0 * cnt * aL3 \
                    * float(shear_kernel(alpha * ln))
        return v
    return None


def assemble(alpha: float, geometry: DeviceGeometry, profile: Profile,
             basis: list[BeamMode], settings: GalerkinSettings | None = None,
             cache: dict | None = None) -> np.ndarray:
    """Symmetric Galerkin matrix D(alpha) in the beam eigenbasis.

    Diagonal for x-independent loading; discrete combs contribute exact
    point sums; tabulated profiles are integrated by Gauss quadrature on
    their knot panels, each split 1, 2, ..., 16 ways until two passes agree,
    so every sub-panel holds one cubic piece of the interpolants.
    There are no pole windows: inside a forbidden interval, where a band edge
    lies strictly between alpha*l_min and alpha*l_max, a tabulated profile
    raises PoleProximityError, as any profile does when alpha*l meets an edge.

    cache holds the alpha-independent parts (basis values at the teeth or
    quadrature nodes, profile values at the nodes and the profile
    interpolants) between calls that share geometry, profile, basis and
    settings; `solve` passes one per call.
    """
    settings = settings or GalerkinSettings()
    cache = {} if cache is None else cache
    m_count = len(basis)
    betas = np.array([b.beta for b in basis])
    aL4 = (alpha * geometry.beam_length) ** 4
    d = np.diag(betas ** 4 - aL4)

    const = _constant_potential_diag(alpha, geometry, profile)
    if const is not None:
        return d - const * np.eye(m_count)

    if isinstance(profile, DiscreteProfile):
        gam = alpha * np.array(profile.lengths)
        try:
            t_vals = shear_kernel(gam)
        except PoleProximityError as exc:
            bad = int(np.flatnonzero(gam == exc.gamma)[0])  # first offender
            raise PoleProximityError(
                exc.gamma, exc.k,
                where=f"cantilever at x={profile.positions[bad]:.6e} m") from exc
        if "phi" not in cache:
            u = np.array(profile.positions) / geometry.beam_length
            cache["phi"] = np.stack([m(u) for m in basis])  # (M, J)
        phi = cache["phi"]
        weight = 2.0 * (alpha * geometry.beam_length) ** 3 \
            * (geometry.cantilever_width / geometry.beam_width)
        v = weight * np.einsum("j,mj,nj->mn", t_vals, phi, phi)
        return d - v

    if isinstance(profile, TabulatedProfile):
        L = geometry.beam_length
        if abs(profile.x[0]) > 1e-12 * L or abs(profile.x[-1] - L) > 1e-12 * L:
            raise ConfigError("profile.x must span the beam: first sample at "
                              "0, last at beam_length")
        g_lo, g_hi = alpha * min(profile.length), alpha * max(profile.length)
        edges = band_edge_gammas(int(g_hi / np.pi) + 2)
        inside = np.flatnonzero((g_lo < edges) & (edges < g_hi))
        if inside.size:
            k = int(inside[0])
            raise PoleProximityError(
                float(edges[k]), k + 1,
                where=f"gamma = alpha*l(x), alpha={alpha:.6e}, for some x,")
        if "interpolants" not in cache:
            cache["interpolants"] = profile.interpolants()
        length_of, density_of = cache["interpolants"]

        def entry_sums(splits: int) -> np.ndarray:
            if splits not in cache:   # weight*rho, l, phi at nodes: no alpha
                knots = np.array(profile.x) / profile.x[-1]
                knots[0], knots[-1] = 0.0, 1.0
                t = np.arange(splits) / splits
                edges = np.append(knots[:-1, None]
                                  + np.diff(knots)[:, None] * t, 1.0)
                u, w = panel_nodes(edges, settings.quadrature_order)
                x = u * profile.x[-1]
                cache[splits] = (w * density_of(x), length_of(x),
                                 np.stack([m(u) for m in basis]))
            w_rho, lengths, phi = cache[splits]
            wp = w_rho * shear_kernel(alpha * lengths)
            return (geometry.cantilever_width / geometry.beam_width) \
                * alpha ** 3 * L ** 4 * ((phi * wp) @ phi.T)

        v_prev = entry_sums(1)
        scale = max(np.max(np.abs(v_prev)), np.max(betas ** 4), aL4)
        converged = False
        for splits in (2, 4, 8, 16):
            v_cur = entry_sums(splits)
            converged = np.max(np.abs(v_cur - v_prev)) \
                <= settings.quadrature_rtol * scale
            v_prev = v_cur
            if converged:
                break
        if not converged:
            warnings.warn(f"projection quadrature at alpha={alpha:.6e} did "
                          "not reach the requested tolerance", stacklevel=2)
        v = 0.5 * (v_prev + v_prev.T)  # symmetrize rounding residue
        return d - v

    raise ConfigError(f"unsupported profile type {type(profile).__name__}")


def _negcount(mat: np.ndarray) -> int:
    return int(np.sum(np.linalg.eigvalsh(mat) < 0.0))


def _roots(lo: float, hi: float, c_lo: int, c_hi: int,
           matrix: Callable[[float], np.ndarray]) -> list[float]:
    """Roots of det D(alpha) in a pole-free bracket whose negative count rises
    from c_lo at lo to c_hi at hi, ascending.

    Inertia bisection splits the bracket until each piece holds one crossing,
    the sign change of eigvalsh(D)[c_lo], which Brent's method finds to rtol
    4 eps.  A piece narrower than 1e-14 relative that still holds several
    crossings yields its midpoint once per crossing.
    """
    brackets = [(lo, hi, c_lo, c_hi)] if c_hi > c_lo else []
    roots = []
    while brackets:
        lo, hi, c_lo, c_hi = brackets.pop()
        if c_hi - c_lo == 1:
            roots.append(brentq(
                lambda a: float(np.linalg.eigvalsh(matrix(a))[c_lo]),
                lo, hi, xtol=_BRENT_XTOL, rtol=_BRENT_RTOL))
        elif hi - lo <= 1e-14 * max(abs(hi), 1.0):
            roots.extend([0.5 * (lo + hi)] * (c_hi - c_lo))
        else:
            mid = 0.5 * (lo + hi)
            c_mid = _negcount(matrix(mid))
            # a count that falls would mean an eigenvalue re-entering from
            # -inf, impossible on a pole-free segment; such pieces are dropped
            brackets.extend(b for b in ((lo, mid, c_lo, c_mid),
                                        (mid, hi, c_mid, c_hi)) if b[3] > b[2])
    return sorted(roots)


def solve(geometry: DeviceGeometry, profile: Profile, bc: BoundaryCondition,
          alpha_max: float,
          settings: GalerkinSettings | None = None) -> list[GalerkinLevel]:
    """All spectrum levels with alpha in (0, alpha_max].

    The forbidden resonance intervals cut (0, alpha_max] into pole-free
    segments.  The inertia of D(alpha) at each segment's ends counts its
    levels, and `_roots` locates them; each level carries the null-space
    direction (participation vector) at its root.  Levels are sorted by
    alpha.  For x-independent profiles a BasisTooSmall warning is emitted if
    any participation vector is not essentially a coordinate axis
    (DOMINANCE_THRESHOLD).
    """
    settings = settings or GalerkinSettings()
    basis = beam_modes(bc, settings.basis_size)
    if abs(geometry.beam_wave_scale - geometry.cantilever_wave_scale) \
            > 1e-6 * geometry.beam_wave_scale:
        warnings.warn(
            "beam and cantilever dispersion scales differ; the single-"
            "wavenumber loading model assumes matched sections", stacklevel=2)

    forbidden = forbidden_alpha_intervals(profile, alpha_max)
    segments = []
    cursor = 0.0
    for itv in forbidden:
        if itv.lo >= alpha_max:
            continue
        if itv.lo > cursor:
            segments.append((cursor, itv.lo))
        cursor = max(cursor, itv.hi)
    if cursor < alpha_max:
        segments.append((cursor, alpha_max))

    uniformish = isinstance(profile, (UniformProfile, AlternatingProfile))
    cache: dict = {}                     # alpha-independent assembly parts
    mats: dict[float, np.ndarray] = {}   # D(alpha) assembled in this segment

    def matrix(a: float) -> np.ndarray:
        if a not in mats:
            mats[a] = assemble(a, geometry, profile, basis, settings, cache)
        return mats[a]

    levels: list[GalerkinLevel] = []
    for seg_lo, seg_hi in segments:
        mats.clear()
        c_lo, c_hi = _negcount(matrix(seg_lo)), _negcount(matrix(seg_hi))
        for root in _roots(seg_lo, seg_hi, c_lo, c_hi, matrix):
            mat = matrix(root)
            evals, evecs = np.linalg.eigh(mat)
            idx = int(np.argmin(np.abs(evals)))
            norm = np.linalg.norm(mat, 2)
            if abs(evals[idx]) > 1e-8 * norm:
                warnings.warn(
                    f"root at alpha={root:.6e} polished to "
                    f"|eig|/||D||={abs(evals[idx])/norm:.2e}", stacklevel=2)
            p = evecs[:, idx]
            if p[np.argmax(np.abs(p))] < 0:
                p = -p
            dom = int(np.argmax(np.abs(p)))
            if uniformish and abs(p[dom]) < DOMINANCE_THRESHOLD:
                warnings.warn(
                    f"participation {abs(p[dom]):.3f} at alpha="
                    f"{root:.6e}; increase basis_size",
                    category=BasisTooSmall, stacklevel=2)
            levels.append(GalerkinLevel(
                alpha=float(root),
                omega=float(geometry.beam_wave_scale * root ** 2),
                dominant_n=dom + 1, participation=p))
    levels.sort(key=lambda lv: lv.alpha)
    return levels
