"""Closed-form vibration spectra of beams with averaged cantilever loading.

For identical cantilevers the transcendental secular equation in the reduced
wavenumber gamma = alpha*l is

    nu*lam * gamma^3 * T(gamma) + gamma^4 = (lam*beta_n)^4

whose roots organize into bands: level (n, k) lies strictly between
consecutive poles of T (band edges gamma_{inf,k}).  Root finding never
evaluates T near its poles; instead it bisects the pole-free rescaled form

    F(gamma) = nu*lam*gamma^3*N(gamma) + (gamma^4 - (lam*beta_n)^4)*D(gamma)

with N = e^-g (cos sinh + sin cosh), D = e^-g (1 + cos cosh).  F is finite
and nonzero at the band edges with alternating sign, so [edge, edge] is a
guaranteed single-sign-change bracket for every (n, k).

An interleaved two-family array gives the same structure with both pole sets
{gamma_k} and {gamma_k / epsilon}; see solve_alternating.  Its brackets come
from a sign scan of each band instead.

Every solve is one array bisection (_bisect) over all of its brackets: all
(n, k) of a spectrum, and in sweep_uniform and sweep_alternating all swept
values at once.  Each bracket takes the same steps as it would alone, so a
sweep gives bit for bit the levels of the per-value solves.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .beam import beam_roots
from .kernel import band_edge_gammas, check_pole_distance, shear_kernel
from .model import (AlternatingProfile, BoundaryCondition, ConfigError,
                    DeviceGeometry, DimensionlessParams, UniformProfile,
                    dimensionless)

_BISECT_ITERS = 110
_SCAN_POINTS = 96
# Two poles closer than this (relative) merge into one band edge, and the
# root between them is not reported.  The twin poles gamma_k, gamma_k/eps are
# |1/eps - 1| gamma_k apart; the scan still resolves the root between them
# at 1e-11 relative, so merging below 3e-10 leaves a margin of 30.
_MERGE_RTOL = 3e-10
# Least step off a merged pole pair, relative, when its members coincide.
_STEP_RTOL = 1e-12


class BlowUpError(ArithmeticError):
    """Band-edge expansion denominator is resonant (lam*beta_n ~ gamma_edge)."""


@dataclass(frozen=True)
class BandEdge:
    k: int
    gamma: float
    omega: float | None = None  # rad/s when geometry+length given


@dataclass(frozen=True)
class SpectrumLevel:
    n: int
    k: int
    gamma: float
    omega: float           # rad/s
    band_lower: float      # gamma of lower band edge (0 for k=1)
    band_upper: float      # gamma of upper band edge
    valid: bool = True     # averaged model trustworthy (n << pairs)


@dataclass(frozen=True)
class BandGap:
    k: int
    omega_edge: float      # band-edge frequency omega_{inf,k}
    exact: float           # omega_{1,k+1} - omega_{inf,k}
    estimate: float        # 2 omega_{inf,k} Delta_{1,k} / gamma_{inf,k}
    ratio: float


def _scaled_nd(gamma):
    """e^-gamma scaled numerator/denominator of the shear kernel.

    N = e^-g (cos g sinh g + sin g cosh g),  D = e^-g (1 + cos g cosh g);
    T = N/D.  Both are finite for all gamma >= 0.
    """
    gamma = np.asarray(gamma, dtype=float)
    e = np.exp(-gamma)
    e2 = np.exp(-2.0 * gamma)
    ch = 0.5 * (1.0 + e2)
    sh = 0.5 * (1.0 - e2)
    c, s = np.cos(gamma), np.sin(gamma)
    return c * sh + s * ch, e + c * ch


def secular_uniform(gamma, params: DimensionlessParams, beta: float):
    """Raw secular function nu*lam*g^3*T(g) + g^4 - (lam*beta)^4.

    Has poles at the band edges (PoleProximityError within tolerance there);
    the root finder uses the regularized form instead.
    """
    gamma = np.asarray(gamma, dtype=float)
    t = shear_kernel(gamma)  # pole proximity check happens here
    return params.nu * params.lam * gamma ** 3 * t + gamma ** 4 \
        - (params.lam * beta) ** 4


def _regular_secular(gamma, nulam: float, lambeta4):
    """(secular) * D(gamma) * e^-gamma: pole-free, same roots off the edges."""
    n_hat, d_hat = _scaled_nd(gamma)
    return nulam * gamma ** 3 * n_hat + (gamma ** 4 - lambeta4) * d_hat


def band_edges(k_max: int, geometry: DeviceGeometry | None = None,
               cantilever_length: float | None = None) -> list[BandEdge]:
    """Band-edge wavenumbers, optionally converted to rad/s via omega =
    sqrt(Ec/mu_c) (gamma/l)^2."""
    gammas = band_edge_gammas(k_max)
    out = []
    for k, g in enumerate(gammas, start=1):
        omega = None
        if geometry is not None and cantilever_length is not None:
            omega = geometry.cantilever_wave_scale * (g / cantilever_length) ** 2
        out.append(BandEdge(k=k, gamma=float(g), omega=omega))
    return out


def _bisect(f, lo, hi, f_lo):
    """Halve every bracket [lo, hi] _BISECT_ITERS times, all at once.

    f maps an array of the brackets' shape to values; f_lo carries the sign
    of f at lo (only its sign bit is read).  Returns the bracket midpoints.
    """
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        take = np.signbit(f_mid) == np.signbit(f_lo)
        lo = np.where(take, mid, lo)
        f_lo = np.where(take, f_mid, f_lo)
        hi = np.where(take, hi, mid)
    return 0.5 * (lo + hi)


def _levels(entries, scale: float, valid_n: int) -> list[SpectrumLevel]:
    """One SpectrumLevel per (n, k, gamma, band_lower, band_upper) entry."""
    return [SpectrumLevel(n=n, k=k, gamma=float(g), omega=float(scale * g * g),
                          band_lower=float(lower), band_upper=float(upper),
                          valid=bool(n < valid_n))
            for n, k, g, lower, upper in entries]


def _grid_entries(gammas: np.ndarray, edges: np.ndarray):
    """Level entries of every finite gammas[n-1, k-1], band k between
    edges[k-2] (0 for k = 1) and edges[k-1]."""
    lower = np.concatenate(([0.0], edges[:-1]))
    for (i, j), g in np.ndenumerate(gammas):
        if np.isfinite(g):
            yield i + 1, j + 1, g, lower[j], edges[j]


def solve_uniform_dimensionless(params: DimensionlessParams, betas: np.ndarray,
                                k_max: int) -> np.ndarray:
    """Roots gamma[n-1, k-1] for every beam index and band.

    Vectorized bisection on the regularized secular function with the band
    edges themselves as bracket endpoints (F has opposite signs there).
    nu = 0 collapses to the bare-beam roots gamma = lam*beta_n in band 1.
    """
    return _uniform_gammas(np.array([params.nu], dtype=float),
                           np.array([params.lam], dtype=float),
                           np.asarray(betas, dtype=float), k_max)[0]


def _uniform_gammas(nu: np.ndarray, lam: np.ndarray, betas: np.ndarray,
                    k_max: int) -> np.ndarray:
    """gamma[p, n-1, k-1] for every loading (nu[p], lam[p]), one bisection
    for all of them; rows with nu = 0 hold lam*beta_n in band 1, NaN above."""
    lambeta = lam[:, None] * betas[None, :]
    out = np.full(lambeta.shape + (k_max,), np.nan)
    bare = nu == 0.0
    out[bare, :, 0] = lambeta[bare]
    loaded = ~bare
    if loaded.any():
        out[loaded] = _band_bisect((nu * lam)[loaded, None, None],
                                   lambeta[loaded, :, None] ** 4, k_max)
    return out


def _band_bisect(nulam, lambeta4: np.ndarray, k_max: int) -> np.ndarray:
    """Edge-to-edge bisection of the regularized single-family secular form.

    lambeta4 has shape (..., n, 1) and nulam broadcasts against it; the
    result has shape (..., n, k_max).  The regularized form vanishes with
    the kernel denominator exactly at the edges; evaluating there returns
    rounding noise of either sign.  Its limit sign alternates as (-1)^k at
    the lower edge of band k (and the k=1 interval starts negative), so the
    bisection is seeded analytically.
    """
    edges = band_edge_gammas(k_max)
    shape = np.broadcast_shapes(np.shape(nulam), lambeta4.shape)[:-1] + (k_max,)
    lo = np.broadcast_to(np.concatenate(([0.0], edges[:-1])), shape)
    f_lo = np.broadcast_to((-1.0) ** np.arange(1, k_max + 1), shape)
    return _bisect(lambda g: _regular_secular(g, nulam, lambeta4),
                   lo, np.broadcast_to(edges, shape), f_lo)


def solve_uniform(geometry: DeviceGeometry, profile: UniformProfile,
                  bc: BoundaryCondition, n_max: int, k_max: int) -> list[SpectrumLevel]:
    """Spectrum levels for a uniform array, frequencies from
    omega = sqrt(Ec/mu_c) (gamma/l)^2."""
    params, betas = dimensionless(geometry, profile), beam_roots(bc, n_max)
    gammas = solve_uniform_dimensionless(params, betas, k_max)
    scale = geometry.cantilever_wave_scale / profile.length ** 2
    return _levels(_grid_entries(gammas, band_edge_gammas(k_max)), scale,
                   geometry.count_per_side)


def gamma_to_omega(gamma: float, geometry: DeviceGeometry,
                   cantilever_length: float) -> float:
    return geometry.cantilever_wave_scale * (gamma / cantilever_length) ** 2


def omega_to_gamma(omega: float, geometry: DeviceGeometry,
                   cantilever_length: float) -> float:
    """Exact inverse of gamma_to_omega (cantilever dispersion)."""
    return cantilever_length * (omega / geometry.cantilever_wave_scale) ** 0.5


def delta_asymptotic(n: int, k: int, params: DimensionlessParams,
                     beta: float, resonance_rtol: float = 1e-9) -> tuple[float, int]:
    """First-order offset of the near-edge root from band edge k.

    Returns (delta, k_eff): the root sits at gamma_{inf,k} + delta and belongs
    to band k when delta < 0 (top of band) or band k+1 when delta > 0 (bottom
    of the next band).  Raises BlowUpError when lam*beta_n is resonant with
    the edge and the leading-order denominator vanishes.
    """
    edge = band_edge_gammas(k)[k - 1]
    x = params.lam * beta / edge
    if abs(x - 1.0) < resonance_rtol:
        raise BlowUpError(
            f"lam*beta_n within {resonance_rtol} of band edge {k}: "
            "first-order edge expansion diverges")
    t = np.tan(edge)
    th = np.tanh(edge)
    delta = (params.lam * params.nu / edge) * (t + th) / (t - th) / (1.0 - x ** 4)
    k_eff = k if delta < 0 else k + 1
    return float(delta), k_eff


def band_gaps(geometry: DeviceGeometry, profile: UniformProfile,
              bc: BoundaryCondition, k_max: int) -> list[BandGap]:
    """Frequency gaps omega_{1,k+1} - omega_{inf,k} above each band edge,
    with the first-order edge estimate alongside.  Empty for nu = 0."""
    params, betas = dimensionless(geometry, profile), beam_roots(bc, 1)
    if params.nu == 0.0:
        return []
    gammas = solve_uniform_dimensionless(params, betas, k_max + 1)[0]
    edges = band_edge_gammas(k_max)
    scale = geometry.cantilever_wave_scale / profile.length ** 2
    beta1 = betas[0]
    out = []
    for k in range(1, k_max + 1):
        edge = edges[k - 1]
        omega_edge = scale * edge * edge
        exact = scale * gammas[k] ** 2 - omega_edge
        try:
            delta, k_eff = delta_asymptotic(1, k, params, beta1)
        except BlowUpError:
            delta, k_eff = np.nan, k + 1
        estimate = 2.0 * omega_edge * delta / edge if np.isfinite(delta) else np.nan
        ratio = estimate / exact if exact != 0 else np.nan
        out.append(BandGap(k=k, omega_edge=float(omega_edge), exact=float(exact),
                           estimate=float(estimate), ratio=float(ratio)))
    return out


def crossing_ratio(n: int, k: int, bc: BoundaryCondition,
                   geometry: DeviceGeometry | None = None) -> tuple[float, float | None]:
    """Length ratio lam* at which level (n, k) is independent of the loading.

    At lam = lam* the level sits on a zero of the shear kernel, gamma =
    lam*beta_n with T = 0, so every nu gives the same frequency: the bare-beam
    value omega* = sqrt(Eb/mu_b) (beta_n/L)^2.  Kernel zeros are half the
    odd-family clamped-clamped roots, so lam*_{n,k} = beta^cc_{2k-3} / (2 beta_n),
    defined for k >= 2.
    """
    if k < 2:
        raise ConfigError("crossing ratio defined for band index k >= 2")
    m = 2 * k - 3
    beta_cc = beam_roots(BoundaryCondition.CLAMPED_CLAMPED, m)[m - 1]
    beta_n = beam_roots(bc, n)[n - 1]
    lam_star = beta_cc / (2.0 * beta_n)
    omega_star = None
    if geometry is not None:
        omega_star = geometry.beam_wave_scale * (beta_n / geometry.beam_length) ** 2
    return float(lam_star), omega_star


# --- interleaved two-family arrays -----------------------------------------

def _alternating_coeffs(geometry: DeviceGeometry, profile: AlternatingProfile):
    """Prefactors c_i = w_i * l1 * rho_i / w_b of the two shear terms."""
    L = geometry.beam_length
    c1 = profile.width1 * profile.length1 * (2.0 * profile.count1 / L) \
        / geometry.beam_width
    c2 = profile.width2 * profile.length1 * (2.0 * profile.count2 / L) \
        / geometry.beam_width
    return c1, c2


def secular_alternating(gamma, geometry: DeviceGeometry,
                        profile: AlternatingProfile, beta: float):
    """Two-family secular function in gamma = alpha * l1.

    Both shear terms carry gamma^3, so epsilon = 1 collapses exactly to the
    uniform equation.
    """
    gamma = np.asarray(gamma, dtype=float)
    eps = profile.epsilon
    check_pole_distance(gamma, where="gamma")
    check_pole_distance(gamma * eps, where="gamma*epsilon")
    c1, c2 = _alternating_coeffs(geometry, profile)
    lam1 = profile.length1 / geometry.beam_length
    shear = c1 * shear_kernel(gamma) + c2 * shear_kernel(eps * gamma)
    return gamma ** 3 * shear + gamma ** 4 - (lam1 * beta) ** 4


def _regular_alternating(gamma, c1, c2, eps, lambeta4):
    """Pole-free form: secular * D(g) * D(eps g) * exp(-(1+eps) g)."""
    n1, d1 = _scaled_nd(gamma)
    n2, d2 = _scaled_nd(eps * gamma)
    return (gamma ** 3 * (c1 * n1 * d2 + c2 * n2 * d1)
            + (gamma ** 4 - lambeta4) * d1 * d2)


def _pole_groups(profile: AlternatingProfile,
                 gamma_max: float) -> list[tuple[float, float, int]]:
    """alternating_pole_set with the span of each merged group: sorted
    (first, last, family), first == last for a lone pole."""
    eps = profile.epsilon
    poles = []
    if profile.count1 > 0:
        edges = band_edge_gammas(int(gamma_max / np.pi) + 2)
        poles += [(float(g), 1) for g in edges if g <= gamma_max]
    if profile.count2 > 0:
        edges = band_edge_gammas(int(gamma_max * eps / np.pi) + 2)
        poles += [(float(g / eps), 2) for g in edges if g / eps <= gamma_max]
    poles.sort()
    groups = []
    for g, fam in poles:
        if groups and g - groups[-1][0] < _MERGE_RTOL * g:
            groups[-1] = (groups[-1][0], g, 0)
        else:
            groups.append((g, g, fam))
    return groups


def alternating_pole_set(profile: AlternatingProfile,
                         gamma_max: float) -> list[tuple[float, int]]:
    """All band-edge poles (gamma, family) with gamma <= gamma_max, sorted.

    Family 1 poles sit at gamma_k, family 2 at gamma_k / epsilon.  A pole
    closer than _MERGE_RTOL (relative) to the one before it merges into it
    (family reported as 0).
    """
    return [(first, fam) for first, _, fam in _pole_groups(profile, gamma_max)]


def _scan_bands(profile: AlternatingProfile, k_max: int) -> np.ndarray:
    """Rows (scan_lo, scan_hi, band_lower, band_upper) of bands 1..k_max.

    Band k lies between merged-pole groups k-1 and k (band 1 from 0).  A
    merged group zeroes both denominator factors and holds the root between
    its members, so the scan steps off it by the members' separation (at
    least _STEP_RTOL relative), from the member on the far side of the band.
    """
    gamma_hi = band_edge_gammas(k_max)[-1] + 1.0
    while True:
        groups = _pole_groups(profile, gamma_hi)
        if len(groups) >= k_max:
            break
        gamma_hi *= 1.6
    rows, below = [], (0.0, 0.0)    # band edge, scan start above it
    for first, last, fam in groups[:k_max]:
        step = max(last - first, _STEP_RTOL * last) if fam == 0 else 0.0
        rows.append((below[1], first - step, below[0], first))
        below = (first, last + step)
    return np.array(rows)


def _single_family(geometry, profile, betas, k_max, c1, c2):
    """Levels of a layout with one pole set: one family empty, or equal
    lengths.  gamma' = gamma_scale * gamma obeys the uniform equation."""
    eps = profile.epsilon
    lam1 = profile.length1 / geometry.beam_length
    if c2 == 0.0:
        nulam, beta_scale, gamma_scale = c1, lam1, 1.0
    elif c1 == 0.0:
        nulam, beta_scale, gamma_scale = eps * c2, eps * lam1, eps
    else:
        nulam, beta_scale, gamma_scale = c1 + c2, lam1, 1.0
    lambeta4 = (beta_scale * betas[:, None]) ** 4
    gammas = _band_bisect(nulam, lambeta4, k_max) / gamma_scale
    edges = band_edge_gammas(k_max) / gamma_scale
    return _levels(_grid_entries(gammas, edges),
                   geometry.cantilever_wave_scale / profile.length1 ** 2,
                   profile.count1 + profile.count2)


def _alternating_solves(geometry: DeviceGeometry, profiles,
                        bc: BoundaryCondition, n_max: int,
                        k_max: int) -> list[list[SpectrumLevel]]:
    """Levels of every profile; the sign-change brackets of all of them are
    bisected together."""
    betas = beam_roots(bc, n_max)
    out = []
    scans = []      # per two-family profile: index in out, profile, bands, n, k
    brackets = []   # per two-family profile: lo, hi, f_lo, c1, c2, eps, lb4
    for profile in profiles:
        c1, c2 = _alternating_coeffs(geometry, profile)  # 0.0 when empty
        eps = profile.epsilon
        # one shared pole set would make the two-family regularized form
        # vanish quadratically at the edges
        if c1 == 0.0 or c2 == 0.0 or abs(eps - 1.0) < 1e-12:
            out.append(_single_family(geometry, profile, betas, k_max, c1, c2))
            continue
        bands = _scan_bands(profile, k_max)
        grid = np.linspace(bands[:, 0], bands[:, 1], _SCAN_POINTS, axis=-1)
        lb4 = (profile.length1 / geometry.beam_length * betas) ** 4
        vals = _regular_alternating(grid, c1, c2, eps, lb4[:, None, None])
        sign = np.sign(vals)
        n_i, k_i, s_i = np.nonzero(sign[..., :-1] * sign[..., 1:] < 0)
        count = n_i.size
        brackets.append((grid[k_i, s_i], grid[k_i, s_i + 1], vals[n_i, k_i, s_i],
                         np.full(count, c1), np.full(count, c2),
                         np.full(count, eps), lb4[n_i]))
        scans.append((len(out), profile, bands, n_i, k_i))
        out.append(None)
    if not scans:
        return out
    lo, hi, f_lo, c1, c2, eps, lb4 = map(np.concatenate, zip(*brackets))
    gammas = _bisect(lambda g: _regular_alternating(g, c1, c2, eps, lb4),
                     lo, hi, f_lo)
    start = 0
    for index, profile, bands, n_i, k_i in scans:
        roots = gammas[start:start + n_i.size]
        start += n_i.size
        n_list, k_list = (n_i + 1).tolist(), (k_i + 1).tolist()
        out[index] = _levels(
            ((n, k, g, bands[k - 1, 2], bands[k - 1, 3])
             for n, k, g in zip(n_list, k_list, roots)),
            geometry.cantilever_wave_scale / profile.length1 ** 2,
            profile.count1 + profile.count2)
        per_band = np.bincount(n_i * k_max + k_i, minlength=n_max * k_max)
        for flat in np.nonzero(per_band > 1)[0].tolist():
            n, k = divmod(flat, k_max)
            warnings.warn(
                f"band {k + 1}: {per_band[flat]} roots for beam index {n + 1}; "
                "labeling by position within the band", stacklevel=3)
    return out


def solve_alternating(geometry: DeviceGeometry, profile: AlternatingProfile,
                      bc: BoundaryCondition, n_max: int,
                      k_max: int) -> list[SpectrumLevel]:
    """Levels of the interleaved array; band index counts the merged-pole
    intervals (band 1 is (0, first pole)).

    Each band is scanned at _SCAN_POINTS points for sign changes of the
    regularized form, and every bracket found is bisected; a band with more
    than one root warns and labels them by position.  Degenerate layouts
    (one family empty, or equal lengths) share a single pole set and reduce
    exactly to the single-family solver instead.
    """
    return _alternating_solves(geometry, [profile], bc, n_max, k_max)[0]


def sweep_alternating(geometry: DeviceGeometry, profile: AlternatingProfile,
                      bc: BoundaryCondition, values, n_max: int, k_max: int):
    """Spectrum vs epsilon: (value, levels) for each value, where levels are
    those of solve_alternating with length2 = value * length1, bit for bit;
    the brackets of all values are bisected at once."""
    values = [float(v) for v in values]
    swept = [replace(profile, length2=v * profile.length1)
             for v in values]
    return list(zip(values, _alternating_solves(geometry, swept, bc, n_max,
                                                k_max)))


def sweep_uniform(geometry: DeviceGeometry, profile: UniformProfile,
                  bc: BoundaryCondition, parameter: str, values,
                  n_max: int, k_max: int):
    """Spectrum vs one swept parameter ('lambda', 'nu' or 'N').

    Yields (value, gammas, scale) with lam/nu recomputed per point and one
    bisection for all points; sweeping lambda rescales the cantilever length
    at fixed beam length.
    """
    base = dimensionless(geometry, profile)
    betas = beam_roots(bc, n_max)
    points, nus, lams = [], [], []
    for value in values:
        if parameter == "lambda":
            params = DimensionlessParams(lam=float(value), nu=base.nu)
            length = value * geometry.beam_length
        elif parameter == "nu":
            params = DimensionlessParams(lam=base.lam, nu=float(value))
            length = profile.length
        elif parameter == "N":
            nu = 2.0 * float(value) * geometry.cantilever_width / geometry.beam_width
            params = DimensionlessParams(lam=base.lam, nu=nu)
            length = profile.length
        else:
            raise ConfigError(f"sweep: unknown parameter {parameter!r}")
        scale = geometry.cantilever_wave_scale / length ** 2
        points.append((float(value), scale))
        nus.append(params.nu)
        lams.append(params.lam)
    gammas = _uniform_gammas(np.array(nus, dtype=float),
                             np.array(lams, dtype=float), betas, k_max)
    for (value, scale), point_gammas in zip(points, gammas):
        yield value, point_gammas, scale
