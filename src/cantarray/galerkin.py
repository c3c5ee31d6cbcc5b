"""Spectra of arrays with position-dependent cantilever loading.

The transverse beam equation with averaged cantilever shear forcing reduces
to a linear eigenproblem once projected onto the bare-beam eigenbasis: with
y(x) = sum_m c_m phi_m(x/L),

    [beta_m^4 - (alpha L)^4] c_m - sum_n V_mn(alpha) c_n = 0,

    V_mn(alpha) = L^4 int_0^1 V(alpha; uL) phi_m(u) phi_n(u) du,

where V(alpha; x) = (w_c/w_b) rho(x) alpha^3 T(alpha l(x)) is the loading
potential.  Roots of det D(alpha) give the spectrum for arbitrary length and
density profiles.  Every finite-length profile is a set of length families
f (`length_families`), and its projected loading is a sum over them,
V_mn = 2 (alpha L)^3 (w_c/w_b) sum_f T(alpha l_f) S_f,mn; only a tabulated
l(x) is a true continuum, integrated by quadrature.  The averaged families
of uniform and alternating profiles have S_f = c_f I, so D is diagonal and
the roots coincide with the closed-form band solver.

Levels are counted, not scanned for: on a pole-free alpha segment the
inertia (negative-eigenvalue count) of the symmetric matrix rises by one at
each root (Wittrick & Williams, Q. J. Mech. Appl. Math. 24, 1971), so the
counts at the segment ends give the number of levels between them.  Inertia
bisection splits each segment until every bracket holds one crossing, and
Brent's method refines it on the eigenvalue that crosses zero.  The counts
make every bracket independent, so all brackets of all segments advance in
lockstep rounds: each round assembles D at every pending abscissa (bisection
midpoints and Brent iterates) in one batched `assemble` and takes their
eigenvalues in one stacked eigvalsh.  The bisection looks two levels ahead:
a bracket waiting on its midpoint, and every segment in the first batch,
has its halves' midpoints in the batch too, so the next round splits it
twice, and a bracket that holds one crossing starts Brent in that round.
The brackets, Brent iterates and roots' bits are those of one bisection
per round; a 2x200-tooth comb over two bands takes 11-16 rounds, not 16-21.
Determinant magnitudes are never compared across alpha, so basis sizes
beyond det overflow are fine.
"""
from __future__ import annotations

import warnings
from collections.abc import Callable
from functools import partial
from typing import NamedTuple

import numpy as np

from .beam import BeamMode, basis_values, beam_modes
from .kernel import PoleProximityError, band_edges_reaching, shear_kernel
from .model import (AlternatingProfile, BoundaryCondition, ConfigError,
                    DeviceGeometry, DiscreteProfile, GalerkinSettings, Profile,
                    TabulatedProfile, UniformProfile)
from .numerics import brent
from .quadrature import panel_nodes

GAMMA_EXCLUSION = 1e-8   # half-width in gamma of the excluded pole window
_BRENT_XTOL = 1e-300     # leaves the relative tolerance in charge
_PRODUCT_BYTES = 1 << 20   # per stacked (alphas, M, nodes) array, >= 1 alpha


class ForbiddenInterval(NamedTuple):
    """alpha interval where some cantilever length resonates (gamma at a
    band edge for some x); no level is sought inside it."""
    lo: float
    hi: float
    k: int


class LengthFamily(NamedTuple):
    """Cantilever pairs of one length (m) and their loading pattern S_mn,
    overlap(geometry, basis).  A comb family lists the positions (m) of its
    teeth; an averaged family, spread evenly along the beam, has none."""
    length: float
    overlap: Callable[[DeviceGeometry, list[BeamMode]], np.ndarray]
    positions: tuple[float, ...] = ()


def _comb_overlap(positions: tuple[float, ...], geometry: DeviceGeometry,
                  basis: list[BeamMode]) -> np.ndarray:
    """sum_j phi_m(x_j/L) phi_n(x_j/L) over the teeth x_j; a tooth off the
    beam is a ConfigError."""
    L = geometry.beam_length
    off = [x for x in positions if not -1e-12 * L <= x <= (1.0 + 1e-12) * L]
    if off:
        raise ConfigError(f"profile.positions must lie on the beam: "
                          f"cantilever at x={off[0]:.6e} m is outside "
                          "[0, beam_length]")
    phi = basis_values(basis, np.array(positions) / L).T  # (J, M)
    # reduceat sums in the order that the comb's recorded outputs used
    return np.add.reduceat(phi[:, :, None] * phi[:, None, :], [0], axis=0)[0]


def length_families(profile: Profile) -> list[LengthFamily] | None:
    """The profile's cantilevers as families of one length each, or None for
    a tabulated profile, whose lengths form a continuum.

    A uniform profile is one averaged family, S = N I.  An alternating one
    has an averaged family per non-empty side, S = count_f (w_f/w_c) I.  A
    comb's teeth are grouped by length in order of first appearance, with
    S_f = sum_j phi_m(x_j/L) phi_n(x_j/L) over the teeth of family f.
    """
    if isinstance(profile, UniformProfile):
        return [LengthFamily(profile.length, lambda geo, basis:
                             geo.count_per_side * np.eye(len(basis)))]
    if isinstance(profile, AlternatingProfile):
        sides = ((profile.length1, profile.width1, profile.count1),
                 (profile.length2, profile.width2, profile.count2))
        return [LengthFamily(ln, lambda geo, basis, w=w, cnt=cnt:
                             cnt * (w / geo.cantilever_width)
                             * np.eye(len(basis)))
                for ln, w, cnt in sides if cnt > 0]
    if isinstance(profile, DiscreteProfile):
        teeth: dict[float, list[float]] = {}
        for x, ln in zip(profile.positions, profile.lengths):
            teeth.setdefault(ln, []).append(x)
        return [LengthFamily(ln, partial(_comb_overlap, tuple(xs)), tuple(xs))
                for ln, xs in teeth.items()]
    if isinstance(profile, TabulatedProfile):
        return None
    raise ConfigError(f"unsupported profile type {type(profile).__name__}")


def length_spans(profile: Profile, families: list[LengthFamily] | None = None
                 ) -> list[tuple[float, float]]:
    """Ascending (l_lo, l_hi) spans of the cantilever lengths: (l, l) for
    each distinct length, or (l_min, l_max) for a tabulated profile.
    families, if given, is length_families(profile), grouped already."""
    families = families or length_families(profile)
    if families is None:
        return [(min(profile.length), max(profile.length))]
    return sorted({(f.length, f.length) for f in families})


def forbidden_alpha_intervals(profile: Profile, alpha_max: float,
                              families: list[LengthFamily] | None = None
                              ) -> list[ForbiddenInterval]:
    """alpha ranges where gamma(x) = alpha*l(x) hits a band edge for some x.

    Each length span [l_lo, l_hi] turns each band edge into the interval
    [edge/l_hi, edge/l_lo], fattened by the exclusion window: an isolated
    resonance for a single length, and for a tabulated length continuum an
    interval throughout which some cantilever resonates.  Overlapping
    intervals merge.  families is passed on to length_spans.
    """
    spans = length_spans(profile, families)
    g_max = alpha_max * spans[-1][1]
    raw = []
    for k, edge in enumerate(band_edges_reaching(g_max), start=1):
        for l_lo, l_hi in spans:
            lo = (edge - GAMMA_EXCLUSION) / l_hi
            hi = (edge + GAMMA_EXCLUSION) / l_lo
            if lo <= alpha_max:
                raw.append((float(lo), float(hi), k))
    merged: list[ForbiddenInterval] = []
    for lo, hi, k in sorted(raw):
        if merged and lo <= merged[-1].hi:
            merged[-1] = merged[-1]._replace(hi=max(merged[-1].hi, hi))
        else:
            merged.append(ForbiddenInterval(lo, hi, k))
    return merged


def _segments(profile: Profile, alpha_max: float,
              families: list[LengthFamily] | None = None
              ) -> list[tuple[float, float]]:
    """The pole-free segments of (0, alpha_max]: the gaps between the merged
    forbidden intervals, which are disjoint and ascending."""
    ends = [0.0, *(x for itv in forbidden_alpha_intervals(profile, alpha_max,
                                                          families)
                   if itv.lo < alpha_max for x in (itv.lo, itv.hi)), alpha_max]
    return [(lo, hi) for lo, hi in zip(ends[::2], ends[1::2]) if lo < hi]


def assemble(alpha, geometry: DeviceGeometry, profile: Profile,
             basis: list[BeamMode], settings: GalerkinSettings | None = None,
             cache: dict | None = None) -> np.ndarray:
    """Symmetric Galerkin matrix D(alpha) in the beam eigenbasis: (M, M) for
    a scalar alpha, (A, M, M) for a 1-D array of A alphas, each slice equal
    bit for bit to the scalar call.

    Every finite-length profile is assembled by length family: its loading
    is 2 (alpha L)^3 (w_c/w_b) sum_f T(alpha l_f) S_f, with S_f = c_f I for
    an averaged family and the point sums over the teeth of a comb family,
    so the kernel is evaluated once per family and alpha, not per tooth.
    Only tabulated profiles use quadrature: Gauss rules on their knot
    panels, each split 1, 2, ..., 16 ways until two passes agree, so every
    sub-panel holds one cubic piece of the interpolants.  Each alpha refines
    until it converges, and each one that does not warns once; each pass
    stacks its alphas' products in chunks of up to _PRODUCT_BYTES.  There
    are no pole windows: inside a forbidden interval, where a band edge lies
    strictly between alpha*l_min and alpha*l_max, a tabulated profile
    raises PoleProximityError, as any profile does when alpha*l meets an
    edge; the error names the first offending alpha in input order and, for
    a comb, the first tooth of the first offending family, which is the
    first offending tooth.  A tooth off the beam is a ConfigError.

    cache holds the alpha-independent parts (beta_m^4; the families, their
    lengths and S_f; the basis and profile values at the quadrature nodes
    and the profile interpolants) between calls that share geometry,
    profile, basis and settings; `solve` passes one per call, seeded with
    the families it grouped for the forbidden intervals.
    """
    settings = settings or GalerkinSettings()
    cache = {} if cache is None else cache
    scalar = np.ndim(alpha) == 0
    alphas = np.atleast_1d(np.asarray(alpha, dtype=float))
    alpha_list = alphas.tolist()   # Python floats: scalar arithmetic per alpha
    L = geometry.beam_length
    if "bare" not in cache:   # beta_m^4 and the diagonal's indices
        cache["bare"] = (np.array([b.beta for b in basis]) ** 4,
                         np.arange(len(basis)))
    beta4, diag = cache["bare"]
    aL4 = np.array([(a * L) ** 4 for a in alpha_list])
    d = np.zeros((alphas.size, diag.size, diag.size))
    d[:, diag, diag] = beta4 - aL4[:, None]

    def out(v: np.ndarray) -> np.ndarray:
        mats = d - v
        return mats[0] if scalar else mats

    if "families" not in cache:   # None for a tabulated profile
        cache["families"] = length_families(profile)
    families = cache["families"]
    if families:
        if "overlap" not in cache:
            cache["overlap"] = (
                np.array([f.length for f in families]),
                np.stack([f.overlap(geometry, basis) for f in families]))
        lengths, overlap = cache["overlap"]
        gam = alphas[:, None] * lengths
        try:
            t_vals = shear_kernel(gam)
        except PoleProximityError as exc:
            first = int(np.flatnonzero(gam == exc.gamma)[0])  # input order
            # a family's first tooth precedes those of later families
            teeth = families[first % gam.shape[1]].positions
            if not teeth:
                raise
            raise PoleProximityError(
                exc.gamma, exc.k,
                where=f"cantilever at x={teeth[0]:.6e} m") from exc
        weight = np.array([2.0 * (a * L) ** 3
                           * (geometry.cantilever_width / geometry.beam_width)
                           for a in alpha_list])
        return out(weight[:, None, None]
                   * np.einsum("af,fmn->amn", t_vals, overlap))

    if abs(profile.x[0]) > 1e-12 * L or abs(profile.x[-1] - L) > 1e-12 * L:
        raise ConfigError("profile.x must span the beam: first sample at "
                          "0, last at beam_length")
    g_lo, g_hi = alphas * min(profile.length), alphas * max(profile.length)
    edges = band_edges_reaching(np.max(g_hi))
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
                             basis_values(basis, u))
        w_rho, lengths, phi = cache[splits]
        wp = w_rho * shear_kernel(alphas[rows, None] * lengths)
        step = max(1, _PRODUCT_BYTES // phi.nbytes)
        return np.concatenate([coef[rows[s:s + step], None, None]
                               * ((phi * wp[s:s + step, None, :]) @ phi.T)
                               for s in range(0, rows.size, step)])

    rows = np.arange(alphas.size)
    v = entry_sums(1, rows)
    scale = np.maximum(np.max(np.abs(v), axis=(1, 2)),
                       np.maximum(np.max(beta4), aL4))
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


def _roots(segments: list[tuple[float, float]],
           spectrum: Callable[[np.ndarray], np.ndarray]) -> list[float]:
    """Roots of det D(alpha) in pole-free segments (lo, hi), ascending.

    spectrum(alphas) gives the ascending eigenvalues of D at each alpha of a
    1-D array, shape (A, M); they are all the search keeps of an alpha.  The
    negative counts at the segment ends, one batch, say how many levels each
    holds.  Then every bracket advances in lockstep rounds, each one batch
    of spectrum: a bracket holding several crossings is split at its
    midpoint by inertia bisection, and a bracket holding one runs Brent's
    method (numerics.brent, default rtol 4 eps) on the eigenvalue that
    crosses zero, eigvalsh(D)[c_lo], from the round it appears in.  The
    bisection looks two levels ahead: a bracket that waits on its midpoint,
    like each segment in the first batch, also has the midpoints of its two
    halves in the batch, and a bracket whose midpoint is known splits at
    once, so a round bisects twice.  The brackets and
    Brent iterates are those of one bisection per round, so each root
    follows the iterates of a scalar brentq.  A piece narrower than 1e-14
    relative that still holds several crossings yields its midpoint once
    per crossing.
    """
    evals: dict[float, np.ndarray] = {}
    counts: dict[float, int] = {}

    def evaluate(alphas: list[float]) -> None:
        new = [a for a in dict.fromkeys(alphas) if a not in evals]
        if new:
            batch = spectrum(np.array(new))
            evals.update(zip(new, batch))
            counts.update(zip(new, np.count_nonzero(batch < 0.0, axis=1)
                              .tolist()))

    def ahead(lo: float, hi: float) -> list[float]:   # midpoints, own first
        mid = 0.5 * (lo + hi)
        return [mid, 0.5 * (lo + mid), 0.5 * (mid + hi)]

    evaluate([a for lo, hi in segments for a in (lo, hi, *ahead(lo, hi))])
    work = [(lo, hi, counts[lo], counts[hi]) for lo, hi in segments]
    lanes = []   # [Brent generator, eigenvalue index, abscissa it waits on]
    roots = []
    while True:
        waiting, batch = [], []   # brackets on an unknown midpoint, alphas
        while work:
            lo, hi, c_lo, c_hi = work.pop()
            mid = 0.5 * (lo + hi)
            if c_hi - c_lo == 1:
                steps = brent(lo, hi, xtol=_BRENT_XTOL)
                lanes.append([steps, c_lo, next(steps)])
            elif c_hi - c_lo < 2:
                # no crossing; a count that falls would mean an eigenvalue
                # re-entering from -inf, impossible on a pole-free segment
                continue
            elif hi - lo <= 1e-14 * max(abs(hi), 1.0):
                roots.extend([mid] * (c_hi - c_lo))
            elif mid in counts:
                work += [(lo, mid, c_lo, counts[mid]),
                         (mid, hi, counts[mid], c_hi)]
            else:
                waiting.append((lo, hi, c_lo, c_hi))
                batch += ahead(lo, hi)
        advanced = []
        for steps, c, x in lanes:
            try:
                while x in evals:
                    x = steps.send(evals[x][c])
            except StopIteration as stop:
                roots.append(stop.value)
                continue
            advanced.append([steps, c, x])
        lanes = advanced
        if not (waiting or lanes):
            return sorted(roots)
        evaluate(batch + [lane[2] for lane in lanes])
        work = waiting


def solve(geometry: DeviceGeometry, profile: Profile, bc: BoundaryCondition,
          alpha_max: float,
          settings: GalerkinSettings | None = None):
    """All spectrum levels with alpha in (0, alpha_max], as arrays (alpha,
    omega, participation), sorted by alpha.

    The forbidden resonance intervals cut (0, alpha_max] into pole-free
    segments.  The inertia of D(alpha) at each segment's ends counts its
    levels, and `_roots` locates them, all segments together.  omega (rad/s)
    follows the beam dispersion.  participation[i] is the unit null-space
    direction of D at alpha[i], length M = basis_size, signed so that its
    largest entry is positive.  The root search reads eigenvalues only, so
    no matrix outlives its round: the roots are assembled once more, in one
    batch with the solve's warm cache, for one stacked eigh.
    """
    settings = settings or GalerkinSettings()
    basis = beam_modes(bc, settings.basis_size)
    if abs(geometry.beam_wave_scale - geometry.cantilever_wave_scale) \
            > 1e-6 * geometry.beam_wave_scale:
        warnings.warn(
            "beam and cantilever dispersion scales differ; the single-"
            "wavenumber loading model assumes matched sections", stacklevel=2)

    families = length_families(profile)   # teeth grouped once per solve
    segments = _segments(profile, alpha_max, families)
    cache = {"families": families}   # alpha-independent assembly parts
    parts = (geometry, profile, basis, settings, cache)
    roots = _roots(segments, lambda a: np.linalg.eigvalsh(assemble(a, *parts)))
    if not roots:
        return np.empty(0), np.empty(0), np.empty((0, settings.basis_size))
    evals, evecs = np.linalg.eigh(assemble(np.array(roots), *parts))
    size, rows = np.abs(evals), np.arange(len(roots))
    idx = np.argmin(size, axis=1)
    p = evecs[rows, :, idx]
    p[p[rows, np.argmax(np.abs(p), axis=1)] < 0] *= -1.0
    # max |eig| is the spectral norm of a symmetric D; the bare terms beta_M^4
    # and (alpha L)^4 scale it where one mode's |eig| is the crossing itself
    norms = np.maximum(size.max(axis=1), np.maximum(
        basis[-1].beta ** 4, (np.array(roots) * geometry.beam_length) ** 4))
    for root, eig, norm in zip(roots, size[rows, idx], norms):
        if eig > 1e-8 * norm:
            warnings.warn(
                f"root at alpha={root:.6e} polished to "
                f"|eig|/||D||={eig/norm:.2e}", stacklevel=2)
    # a scalar ** 2 per root: an array square can differ in the last bit
    omega = [geometry.beam_wave_scale * root ** 2 for root in roots]
    return np.array(roots, dtype=float), np.array(omega), p
