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
Brent's method refines it on the eigenvalue that crosses zero.  The counts
make every bracket independent, so all brackets of all segments advance in
lockstep rounds: each round assembles D at every pending abscissa (bisection
midpoints and Brent iterates) in one batched `assemble` and takes their
eigenvalues in one stacked eigvalsh.  Determinant magnitudes are never
compared across alpha, so basis sizes beyond det overflow are fine.
"""
from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .beam import BeamMode, beam_modes
from .kernel import PoleProximityError, band_edge_gammas, shear_kernel
from .model import (AlternatingProfile, BoundaryCondition, ConfigError,
                    DeviceGeometry, DiscreteProfile, GalerkinSettings, Profile,
                    TabulatedProfile, UniformProfile)
from .numerics import brent
from .quadrature import panel_nodes

GAMMA_EXCLUSION = 1e-8   # half-width in gamma of the excluded pole window
_BRENT_RTOL = 4.0 * np.finfo(float).eps   # the smallest brentq accepts
_BRENT_XTOL = 1e-300     # leaves the relative tolerance in charge
DOMINANCE_THRESHOLD = 0.9   # least pure-mode participation, uniform loading


class BasisTooSmall(UserWarning):
    """Dominant participation below threshold where a pure mode is expected."""


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


def _constant_potential_diag(alphas: np.ndarray, geometry: DeviceGeometry,
                             profile: Profile) -> np.ndarray | None:
    """L^4 V at each alpha for x-independent loading, or None if the profile
    varies in x."""
    if not isinstance(profile, (UniformProfile, AlternatingProfile)):
        return None
    aL3 = np.array([(a * geometry.beam_length) ** 3 for a in alphas.tolist()])
    if isinstance(profile, UniformProfile):
        nu = 2.0 * geometry.count_per_side * geometry.cantilever_width \
            / geometry.beam_width
        return nu * aL3 * shear_kernel(alphas * profile.length)
    v = np.zeros(alphas.size)
    for ln, w, cnt in ((profile.length1, profile.width1, profile.count1),
                       (profile.length2, profile.width2, profile.count2)):
        if cnt > 0:
            v = v + (w / geometry.beam_width) * 2.0 * cnt * aL3 \
                * shear_kernel(alphas * ln)
    return v


def assemble(alpha, geometry: DeviceGeometry, profile: Profile,
             basis: list[BeamMode], settings: GalerkinSettings | None = None,
             cache: dict | None = None) -> np.ndarray:
    """Symmetric Galerkin matrix D(alpha) in the beam eigenbasis: (M, M) for
    a scalar alpha, (A, M, M) for a 1-D array of A alphas, each slice equal
    bit for bit to the scalar call.

    Diagonal for x-independent loading.  A discrete comb's teeth fall into
    length families (one per distinct length, in order of first appearance),
    and its loading is a sum over families, T(alpha l_f) S_f, where
    S_f = sum_j phi_m(x_j) phi_n(x_j) over the teeth j of length l_f: the
    kernel is evaluated once per family and alpha, not once per tooth.  A
    tooth off the beam is a ConfigError.  Tabulated profiles are integrated
    by Gauss quadrature on their knot panels, each split 1, 2, ..., 16 ways
    until two passes agree, so every sub-panel holds one cubic piece of the
    interpolants.  Each alpha refines until it converges, and each one that
    does not warns once.  There are no pole windows: inside a forbidden
    interval, where a band edge lies strictly between alpha*l_min and
    alpha*l_max, a tabulated profile raises PoleProximityError, as any
    profile does when alpha*l meets an edge; the error names the first
    offending alpha in input order and, for a comb, the first tooth of the
    first offending family, which is the first offending tooth.

    cache holds the alpha-independent parts (the comb's family lengths and
    overlap matrices S_f; the basis and profile values at the quadrature
    nodes and the profile interpolants) between calls that share geometry,
    profile, basis and settings; `solve` passes one per call.
    """
    settings = settings or GalerkinSettings()
    cache = {} if cache is None else cache
    scalar = np.ndim(alpha) == 0
    alphas = np.atleast_1d(np.asarray(alpha, dtype=float))
    alpha_list = alphas.tolist()   # Python floats: scalar arithmetic per alpha
    L = geometry.beam_length
    m_count = len(basis)
    betas = np.array([b.beta for b in basis])
    aL4 = np.array([(a * L) ** 4 for a in alpha_list])
    diag = np.arange(m_count)
    d = np.zeros((alphas.size, m_count, m_count))
    d[:, diag, diag] = betas ** 4 - aL4[:, None]

    def out(v: np.ndarray) -> np.ndarray:
        mats = d - v
        return mats[0] if scalar else mats

    const = _constant_potential_diag(alphas, geometry, profile)
    if const is not None:
        return out(const[:, None, None] * np.eye(m_count))

    if isinstance(profile, DiscreteProfile):
        if "families" not in cache:
            off = [x for x in profile.positions
                   if not -1e-12 * L <= x <= (1.0 + 1e-12) * L]
            if off:
                raise ConfigError(f"profile.positions must lie on the beam: "
                                  f"cantilever at x={off[0]:.6e} m is outside "
                                  "[0, beam_length]")
            # one family per distinct length, in order of first appearance
            families: dict[float, list[int]] = {}
            for j, ln in enumerate(profile.lengths):
                families.setdefault(ln, []).append(j)
            order = [j for teeth in families.values() for j in teeth]
            u = np.array(profile.positions)[order] / L
            phi = np.stack([m(u) for m in basis]).T  # (J, M), by family
            sizes = [len(teeth) for teeth in families.values()]
            overlap = np.add.reduceat(phi[:, :, None] * phi[:, None, :],
                                      np.cumsum([0] + sizes[:-1]), axis=0)
            cache["families"] = (np.array(list(families)), overlap)
        lengths, overlap = cache["families"]
        gam = alphas[:, None] * lengths
        try:
            t_vals = shear_kernel(gam)
        except PoleProximityError as exc:
            first = int(np.flatnonzero(gam == exc.gamma)[0])  # input order
            # a family's first tooth precedes those of later families
            bad = profile.lengths.index(float(lengths[first % gam.shape[1]]))
            raise PoleProximityError(
                exc.gamma, exc.k,
                where=f"cantilever at x={profile.positions[bad]:.6e} m") from exc
        weight = np.array([2.0 * (a * L) ** 3
                           * (geometry.cantilever_width / geometry.beam_width)
                           for a in alpha_list])
        return out(weight[:, None, None]
                   * np.einsum("af,fmn->amn", t_vals, overlap))

    if isinstance(profile, TabulatedProfile):
        if abs(profile.x[0]) > 1e-12 * L or abs(profile.x[-1] - L) > 1e-12 * L:
            raise ConfigError("profile.x must span the beam: first sample at "
                              "0, last at beam_length")
        g_lo, g_hi = alphas * min(profile.length), alphas * max(profile.length)
        edges = band_edge_gammas(int(np.max(g_hi) / np.pi) + 2)
        inside = (g_lo[:, None] < edges) & (edges < g_hi[:, None])
        if inside.any():
            i, k = np.argwhere(inside)[0]
            raise PoleProximityError(
                float(edges[k]), int(k) + 1,
                where=f"gamma = alpha*l(x), alpha={alpha_list[i]:.6e}, "
                      "for some x,")
        if "interpolants" not in cache:
            cache["interpolants"] = profile.interpolants()
        length_of, density_of = cache["interpolants"]
        coef = np.array([(geometry.cantilever_width / geometry.beam_width)
                         * a ** 3 * L ** 4 for a in alpha_list])

        def entry_sums(splits: int, rows: np.ndarray) -> np.ndarray:
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
            wp = w_rho * shear_kernel(alphas[rows, None] * lengths)
            # one product per alpha: an (A, M, nodes) array would not be small
            return np.stack([coef[i] * ((phi * w) @ phi.T)
                             for i, w in zip(rows, wp)])

        rows = np.arange(alphas.size)
        v = entry_sums(1, rows)
        scale = np.maximum(np.max(np.abs(v), axis=(1, 2)),
                           np.maximum(np.max(betas ** 4), aL4))
        for splits in (2, 4, 8, 16):
            v_cur = entry_sums(splits, rows)
            done = np.max(np.abs(v_cur - v[rows]), axis=(1, 2)) \
                <= settings.quadrature_rtol * scale[rows]
            v[rows] = v_cur
            rows = rows[~done]
            if not rows.size:
                break
        for i in rows:
            warnings.warn(f"projection quadrature at alpha={alpha_list[i]:.6e}"
                          " did not reach the requested tolerance",
                          stacklevel=2)
        return out(0.5 * (v + v.transpose(0, 2, 1)))  # symmetrize rounding

    raise ConfigError(f"unsupported profile type {type(profile).__name__}")


def _roots(segments: list[tuple[float, float]],
           spectrum: Callable[[np.ndarray], np.ndarray]) -> list[float]:
    """Roots of det D(alpha) in pole-free segments (lo, hi), ascending.

    spectrum(alphas) gives the ascending eigenvalues of D at each alpha of a
    1-D array, shape (A, M).  The negative counts at the segment ends, one
    batch, say how many levels each holds.  Then every bracket advances in
    lockstep rounds, each one batch of spectrum: a bracket holding several
    crossings is split at its midpoint by inertia bisection, and a bracket
    holding one runs Brent's method (numerics.brent, rtol 4 eps) on the
    eigenvalue that crosses zero, eigvalsh(D)[c_lo], from the round it
    appears in.  So each root follows the iterates of a scalar brentq.  A
    piece narrower than 1e-14 relative that still holds several crossings
    yields its midpoint once per crossing.
    """
    evals: dict[float, np.ndarray] = {}

    def evaluate(alphas: list[float]) -> None:
        new = [a for a in dict.fromkeys(alphas) if a not in evals]
        if new:
            evals.update(zip(new, spectrum(np.array(new))))

    def count(a: float) -> int:
        return int(np.sum(evals[a] < 0.0))

    evaluate([a for seg in segments for a in seg])
    brackets = [(lo, hi, count(lo), count(hi)) for lo, hi in segments]
    lanes = []   # [Brent generator, eigenvalue index, abscissa it waits on]
    roots = []
    while True:
        # a count that falls would mean an eigenvalue re-entering from -inf,
        # impossible on a pole-free segment; such pieces are dropped
        splits = []
        for lo, hi, c_lo, c_hi in brackets:
            if c_hi - c_lo == 1:
                steps = brent(lo, hi, xtol=_BRENT_XTOL, rtol=_BRENT_RTOL)
                lanes.append([steps, c_lo, next(steps)])
            elif c_hi - c_lo > 1:
                if hi - lo <= 1e-14 * max(abs(hi), 1.0):
                    roots.extend([0.5 * (lo + hi)] * (c_hi - c_lo))
                else:
                    splits.append((lo, hi, c_lo, c_hi, 0.5 * (lo + hi)))
        waiting = []
        for steps, c, x in lanes:
            try:
                while x in evals:
                    x = steps.send(evals[x][c])
            except StopIteration as stop:
                roots.append(stop.value)
                continue
            waiting.append([steps, c, x])
        lanes = waiting
        if not (splits or lanes):
            return sorted(roots)
        evaluate([b[4] for b in splits] + [lane[2] for lane in lanes])
        brackets = [b for lo, hi, c_lo, c_hi, mid in splits
                    for b in ((lo, mid, c_lo, count(mid)),
                              (mid, hi, count(mid), c_hi))]


def solve(geometry: DeviceGeometry, profile: Profile, bc: BoundaryCondition,
          alpha_max: float,
          settings: GalerkinSettings | None = None):
    """All spectrum levels with alpha in (0, alpha_max], as arrays (alpha,
    omega, participation), sorted by alpha.

    The forbidden resonance intervals cut (0, alpha_max] into pole-free
    segments.  The inertia of D(alpha) at each segment's ends counts its
    levels, and `_roots` locates them, all segments together.  omega (rad/s)
    follows the beam dispersion.  participation[i] is the unit null-space
    direction of D at alpha[i], length M = basis_size, from one stacked eigh
    over the roots' matrices, signed so that its largest entry is positive.
    For x-independent profiles a BasisTooSmall warning is emitted if any
    participation vector is not essentially a coordinate axis
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
    mats: dict[float, np.ndarray] = {}   # D(alpha) at every alpha assembled

    def assemble_all(alphas: list[float]) -> np.ndarray:
        batch = assemble(np.array(alphas), geometry, profile, basis, settings,
                         cache)
        mats.update(zip(alphas, batch))
        return batch

    roots = _roots(segments,
                   lambda a: np.linalg.eigvalsh(assemble_all(a.tolist())))
    if not roots:
        return np.empty(0), np.empty(0), np.empty((0, settings.basis_size))
    missing = [r for r in dict.fromkeys(roots) if r not in mats]
    if missing:
        assemble_all(missing)
    evals, evecs = np.linalg.eigh(np.stack([mats[r] for r in roots]))
    size, rows = np.abs(evals), np.arange(len(roots))
    idx = np.argmin(size, axis=1)
    p = evecs[rows, :, idx]
    p[p[rows, np.argmax(np.abs(p), axis=1)] < 0] *= -1.0
    # max |eig| is the spectral norm of a symmetric D
    for root, eig, norm, w in zip(roots, size[rows, idx], size.max(axis=1),
                                  np.abs(p).max(axis=1)):
        if eig > 1e-8 * norm:
            warnings.warn(
                f"root at alpha={root:.6e} polished to "
                f"|eig|/||D||={eig/norm:.2e}", stacklevel=2)
        if uniformish and w < DOMINANCE_THRESHOLD:
            warnings.warn(
                f"participation {w:.3f} at alpha={root:.6e}; increase "
                "basis_size", category=BasisTooSmall, stacklevel=2)
    # a scalar ** 2 per root: an array square can differ in the last bit
    omega = [geometry.beam_wave_scale * root ** 2 for root in roots]
    return np.array(roots, dtype=float), np.array(omega), p
