"""Two-mode nonlinear response of a cantilever-array resonator.

When the beam's fundamental flexural mode is paired with the first two
cantilever bands, the slow dynamics reduce to two coupled oscillators: the
collective mode (cantilevers ride the beam almost rigidly) and the high
band mode (cantilevers flex against it).  Geometric stretching of both the
beam and the cantilevers makes each oscillator a Duffing resonator, and
the shared beam shape couples their amplitudes.

Everything here works with the reduced amplitude equations.  Detuning,
damping and drive are taken as already scaled onto the slow time, so the
coefficients below enter the response formulas exactly as given; no
separate bookkeeping small parameter appears in the API.

Steady states of the coupled pair come from elimination: mode 1's bracket
s = D1 fixes both squared amplitudes, so mode 2's condition becomes one
real polynomial of degree at most nine in s.  Scaling s by mode 1's
linewidth keeps its coefficients O(1) across the ~40 orders of magnitude
the physical coefficients span.  A grid of detuning pairs is solved in one
batch: the eliminants of all points form one array, their real roots come
from one stacked companion eigensolve, and every root is Newton-polished
(all at once) and checked before it is reported.  The fundamental's shift
is mode 2's single-mode response at the detuning mode 1's peak imposes.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .beam import BeamMode, beam_modes
from .kernel import CantileverShape
from .model import (BoundaryCondition, ConfigError, DeviceGeometry,
                    NonlinearSettings, UniformProfile, dimensionless)
from .quadrature import adaptive_quad, cumulative_square_quad
from .spectrum import gamma_to_omega, solve_uniform_dimensionless

__all__ = [
    "TwoModeSelection", "BeamConstants", "OverlapIntegrals",
    "EffectiveParams", "ResponsePoint", "ShiftRoot",
    "SteadyStateWarning", "select_modes", "beam_constants",
    "beam_constants_closed", "overlap_integrals", "effective_params",
    "backbone", "peak_amplitude", "steady_states", "coupled_steady_state",
    "steady_residual", "shift_of_fundamental",
]


class SteadyStateWarning(UserWarning):
    """A steady-state candidate failed its residual check and was dropped."""


# ---------------------------------------------------------------------------
# mode selection


class TwoModeSelection(NamedTuple):
    """Fundamental beam mode paired with its first two array levels."""

    mode: BeamMode
    beta: float
    lam: float
    nu: float
    gamma1: float            # collective level, first band
    gamma2: float            # flexing level, second band
    omega1: float            # rad/s
    omega2: float
    shape1: CantileverShape
    shape2: CantileverShape
    beam_length: float
    cantilever_length: float


def select_modes(geometry: DeviceGeometry, profile: UniformProfile,
                 bc: BoundaryCondition) -> TwoModeSelection:
    """Pick the two interacting levels of the fundamental beam mode.

    The first-band root gives the collective mode, the second-band root the
    cantilever-flexing mode.  Needs at least one cantilever per side since
    the second band does not exist on a bare beam.
    """
    if geometry.count_per_side < 1:
        raise ConfigError("two-mode reduction needs count_per_side >= 1")
    params = dimensionless(geometry, profile)
    mode = beam_modes(bc, 1)[0]
    gammas = solve_uniform_dimensionless(params, np.array([mode.beta]), 2)[0]
    g1, g2 = float(gammas[0]), float(gammas[1])
    return TwoModeSelection(
        mode=mode, beta=mode.beta, lam=params.lam, nu=params.nu,
        gamma1=g1, gamma2=g2,
        omega1=gamma_to_omega(g1, geometry, profile.length),
        omega2=gamma_to_omega(g2, geometry, profile.length),
        shape1=CantileverShape(g1), shape2=CantileverShape(g2),
        beam_length=geometry.beam_length, cantilever_length=profile.length)


# ---------------------------------------------------------------------------
# overlap integrals


class BeamConstants(NamedTuple):
    """Shape integrals of one beam mode entering the amplitude equations.

    stretch_inertia   int_0^1 (int_0^u phi'^2) du   accumulated stretch
    curvature_quartic int (phi' phi'')^2 du         stretching stiffness
    shape_quartic     int phi^4 du                  cantilever-term weight
    mean_shape        int phi du                    drive overlap
    """

    stretch_inertia: float
    curvature_quartic: float
    shape_quartic: float
    mean_shape: float


def beam_constants(mode: BeamMode, rtol: float = 1e-9) -> BeamConstants:
    """Beam shape integrals by adaptive quadrature (any mode, any family).

    The nested stretch integral collapses exactly by swapping the order of
    integration, int_0^1 int_0^u f(v) dv du = int_0^1 (1 - v) f(v) dv, so a
    single composite rule handles it too.
    """
    panels = max(8, 2 * int(math.ceil(mode.beta / math.pi)))

    def quad(f):
        return adaptive_quad(f, 0.0, 1.0, rtol=rtol, initial_panels=panels)

    return BeamConstants(
        stretch_inertia=quad(lambda u: (1.0 - u) * mode(u, 1) ** 2),
        curvature_quartic=quad(lambda u: (mode(u, 1) * mode(u, 2)) ** 2),
        shape_quartic=quad(lambda u: mode(u) ** 4),
        # antisymmetric modes have exactly zero mean, needs the atol escape
        mean_shape=adaptive_quad(lambda u: mode(u), 0.0, 1.0, rtol=rtol,
                                 initial_panels=panels, atol=1e-13),
    )


def beam_constants_closed(beta: float) -> BeamConstants:
    """Closed forms of the beam shape integrals at a clamped-clamped root.

    Valid at odd-index roots (symmetric modes), where cos(beta) = sech(beta)
    and sin(beta) = -tanh(beta) hold with that sign; everything reduces to
    t = tan(beta/2).  Even-index (antisymmetric) modes flip the sign of t
    and have zero mean, so these expressions do not apply there.
    """
    t = math.tan(0.5 * beta)
    bt = beta * t
    return BeamConstants(
        stretch_inertia=0.5 * bt * (bt + 2.0),
        curvature_quartic=(beta ** 5) * t * (5.0 * bt + 11.0) / 10.0,
        shape_quartic=0.75 * (3.0 - t ** 4 - 2.0 * t ** 3 / beta),
        mean_shape=4.0 * t / beta,
    )


class OverlapIntegrals(NamedTuple):
    """Beam and cantilever shape integrals for the two-mode reduction.

    Cantilever entries use the total carried shape h_i(v) = 1 + chi_i(v),
    base motion plus relative flexing, indexed by level (1 = collective,
    2 = flexing):

    mass_overlap[i, j]       int h_i h_j dv
    damping_overlap[i, j]    int h_i (h_j - 1) dv       drag on relative motion
    stretch_overlap[i, j]    int (int_0^v h_i' h_j')^2 dv
    curvature_overlap[i, j, k, l]  int h_i' h_j' h_k'' h_l'' dv

    Arrays are 0-indexed; element [0, 1] couples level 1 to level 2.
    """

    beam: BeamConstants
    mass_overlap: np.ndarray
    damping_overlap: np.ndarray
    stretch_overlap: np.ndarray
    curvature_overlap: np.ndarray


def overlap_integrals(selection: TwoModeSelection,
                      rtol: float = 1e-9) -> OverlapIntegrals:
    """All shape integrals of the reduction, by adaptive quadrature.

    The carried shapes are mild (gamma below the second band edge), so a
    handful of panel doublings resolves every entry; the near-zero entries
    (the collective shape barely flexes) converge too because their
    integrands are non-negative.  Every integral doubles its panels over
    the same node arrays, so each shape and derivative is evaluated once per
    node array and reused by the others.
    """
    shapes = (selection.shape1, selection.shape2)
    evaluated = {}   # node array bytes -> {(shape, derivative): values}

    def chi(i, v, d=0):
        values = evaluated.setdefault(v.tobytes(), {})
        if (i, d) not in values:
            values[i, d] = shapes[i](v, d)
        return values[i, d]

    def h(i, v, d=0):
        values = chi(i, v, d)
        return values + 1.0 if d == 0 else values

    def quad(f):
        return adaptive_quad(f, 0.0, 1.0, rtol=rtol)

    mass = np.empty((2, 2))
    damp = np.empty((2, 2))
    stretch = np.empty((2, 2))
    for i in range(2):
        for j in range(i, 2):
            mass[i, j] = mass[j, i] = quad(lambda v: h(i, v) * h(j, v))
            stretch[i, j] = stretch[j, i] = cumulative_square_quad(
                lambda v: h(i, v, 1) * h(j, v, 1), 0.0, 1.0, rtol=rtol)
        for j in range(2):
            # depends on which shape sits in the drag factor, not symmetric
            damp[i, j] = quad(lambda v: h(i, v) * chi(j, v))

    curv = np.empty((2, 2, 2, 2))
    for i in range(2):
        for j in range(i, 2):
            for k in range(2):
                for l in range(k, 2):
                    val = quad(lambda v: h(i, v, 1) * h(j, v, 1)
                               * h(k, v, 2) * h(l, v, 2))
                    for a, b in ((i, j), (j, i)):
                        for c, d in ((k, l), (l, k)):
                            curv[a, b, c, d] = val

    return OverlapIntegrals(
        beam=beam_constants(selection.mode, rtol=rtol),
        mass_overlap=mass, damping_overlap=damp,
        stretch_overlap=stretch, curvature_overlap=curv)


# ---------------------------------------------------------------------------
# effective oscillator parameters


class EffectiveParams(NamedTuple):
    """Coefficients of the two coupled amplitude equations (SI).

    Each mode j obeys a damped driven Duffing equation in its slow
    amplitude: mass (kg), linear damping rate coefficient (kg/s),
    cubic self coupling (kg m^-2 s^-2), drive (N).  The cross coupling
    shifts each mode's frequency in proportion to the other's squared
    amplitude.
    """

    omega1: float
    omega2: float
    mass1: float
    mass2: float
    damping1: float
    damping2: float
    self_coupling1: float
    self_coupling2: float
    cross_coupling: float
    drive1: float
    drive2: float
    drive_per_force: float   # drive = this factor times modal force density

    def omega(self, j: int) -> float:
        return (self.omega1, self.omega2)[j - 1]

    def mass(self, j: int) -> float:
        return (self.mass1, self.mass2)[j - 1]

    def damping(self, j: int) -> float:
        return (self.damping1, self.damping2)[j - 1]

    def self_coupling(self, j: int) -> float:
        return (self.self_coupling1, self.self_coupling2)[j - 1]

    def drive(self, j: int) -> float:
        return (self.drive1, self.drive2)[j - 1]


@np.errstate(all="ignore")   # a coefficient past the float range raises below
def effective_params(selection: TwoModeSelection, integrals: OverlapIntegrals,
                     geometry: DeviceGeometry,
                     settings: NonlinearSettings) -> EffectiveParams:
    """Reduce geometry plus overlaps to the coupled-oscillator coefficients.

    Masses count the beam plus every cantilever weighted by its carried
    shape.  Damping splits into beam drag on the full length and cantilever
    drag on the relative motion.  The cubic couplings collect stretching
    inertia and stretching stiffness of the beam and of the cantilevers,
    the latter weighted by the quartic beam-shape integral.
    """
    L = geometry.beam_length
    ell = selection.cantilever_length
    n2 = 2.0 * geometry.count_per_side          # cantilevers per station pair
    m_beam = geometry.beam_linear_density * L
    m_cant = geometry.cantilever_linear_density * ell
    rig_beam = geometry.beam_rigidity
    rig_cant = geometry.cantilever_rigidity
    bb = integrals.beam
    mass_ov = integrals.mass_overlap
    damp_ov = integrals.damping_overlap
    stretch_ov = integrals.stretch_overlap
    curv_ov = integrals.curvature_overlap
    w1, w2 = selection.omega1, selection.omega2
    wsum = w1 * w1 + w2 * w2

    def modal_mass(j):
        return m_beam + n2 * m_cant * mass_ov[j, j]

    def modal_damping(j):
        return 0.5 * (L * settings.damping_beam
                      + n2 * ell * settings.damping_cantilever * damp_ov[j, j])

    def self_coupling(j, w):
        cant = (m_cant * w * w * stretch_ov[j, j]
                - 3.0 * rig_cant * curv_ov[j, j, j, j] / ell ** 3)
        return (bb.stretch_inertia * m_beam * w * w / L ** 2
                - 3.0 * bb.curvature_quartic * rig_beam / L ** 5
                + n2 * bb.shape_quartic * cant / ell ** 2)

    cross_cant = (m_cant * wsum * stretch_ov[0, 1]
                  - rig_cant / ell ** 3 * (curv_ov[0, 0, 1, 1]
                                           + curv_ov[1, 1, 0, 0]
                                           + 4.0 * curv_ov[0, 1, 0, 1]))
    cross = (bb.stretch_inertia * m_beam * wsum / L ** 2
             - 6.0 * bb.curvature_quartic * rig_beam / L ** 5
             + n2 * bb.shape_quartic * cross_cant / ell ** 2)

    drive_per_force = 0.5 * L * bb.mean_shape
    params = EffectiveParams(
        omega1=w1, omega2=w2,
        mass1=modal_mass(0), mass2=modal_mass(1),
        damping1=modal_damping(0), damping2=modal_damping(1),
        self_coupling1=self_coupling(0, w1), self_coupling2=self_coupling(1, w2),
        cross_coupling=cross,
        drive1=drive_per_force * settings.force1,
        drive2=drive_per_force * settings.force2,
        drive_per_force=drive_per_force)
    for name, value in params._asdict().items():
        if not math.isfinite(value):
            raise FloatingPointError(f"two-mode coefficient {name} is "
                                     f"{value}: past the float range")
    return params


# ---------------------------------------------------------------------------
# single-mode response


def peak_amplitude(j: int, params: EffectiveParams) -> float:
    """Largest steady amplitude of mode j, reached where the drive balances
    the damping exactly; independent of every coupling coefficient."""
    mu = params.damping(j)
    if mu == 0.0:
        raise ConfigError(f"mode {j} is undamped, response is unbounded")
    return abs(params.drive(j) / (mu * params.omega(j)))


def backbone(j: int, amplitude: float, other_amplitude: float,
             params: EffectiveParams) -> tuple[float, float] | None:
    """The two detunings at which mode j holds the given amplitude.

    Returns (lower, upper) branch detunings in rad/s, or None when the
    amplitude exceeds the peak and no steady state exists.  The other
    mode's amplitude only shifts the backbone's center.
    """
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
    w, m = params.omega(j), params.mass(j)
    center = (params.self_coupling(j) * amplitude ** 2
              + params.cross_coupling * other_amplitude ** 2) / (4.0 * m * w)
    rad = (params.drive(j) / (m * w * amplitude)) ** 2 - (params.damping(j) / m) ** 2
    if rad < 0.0:
        return None
    half = math.sqrt(rad)
    return (center - half, center + half)


def steady_residual(z1, z2, sigma1, sigma2, params: EffectiveParams):
    """Largest relative defect of the two steady-state conditions at the
    squared amplitudes (z1, z2), elementwise over arrays of them.  The
    scale is max(|lhs|, F_j^2): |lhs| bounds both of its own terms."""
    worst = 0.0
    for j, zj, zo, sig in ((1, z1, z2, sigma1), (2, z2, z1, sigma2)):
        w, m = params.omega(j), params.mass(j)
        mu, drv = params.damping(j), params.drive(j)
        off = 0.25 * (params.self_coupling(j) * zj
                      + params.cross_coupling * zo) - w * sig * m
        lhs = zj * (off ** 2 + (w * mu) ** 2)
        scale = np.maximum(abs(lhs), max(drv ** 2, 1e-300))
        worst = np.maximum(worst, abs(lhs - drv ** 2) / scale)
    return worst


class ResponsePoint(NamedTuple):
    """One mode's steady response: amplitude (m), phase lag (rad), detuning
    sigma (rad/s) and the square-root branch it lies on ('+', '-', '0')."""

    mode: int
    sigma: float
    amplitude: float
    phase: float
    branch: str


def _newton_polish(z1, z2, sigma1, sigma2, params: EffectiveParams):
    """Damped Newton steps on the pair of steady-state cubics, all candidates
    at once.  Each stops after 12 steps, once both defects are below 1e-15
    F_j^2, or before a singular, non-finite or negative step."""
    z = np.maximum(np.stack([z1, z2], axis=1), 0.0)
    sig = np.stack([sigma1, sigma2], axis=1)
    fscale = np.array([max(params.drive(j) ** 2, 1e-300) for j in (1, 2)])
    live = np.ones(len(z), dtype=bool)
    for _ in range(12):
        f, diag, cross = np.empty_like(z), np.empty_like(z), np.empty_like(z)
        for i, j in enumerate((1, 2)):
            w, m, mu = params.omega(j), params.mass(j), params.damping(j)
            cs, cx = params.self_coupling(j), params.cross_coupling
            off = 0.25 * (cs * z[:, i] + cx * z[:, 1 - i]) - w * sig[:, i] * m
            f[:, i] = z[:, i] * (off ** 2 + (w * mu) ** 2) - params.drive(j) ** 2
            diag[:, i] = off ** 2 + (w * mu) ** 2 + 0.5 * z[:, i] * off * cs
            cross[:, i] = 0.5 * z[:, i] * off * cx     # d f_i / d z_other
        live &= ~np.all(np.abs(f) <= 1e-15 * fscale, axis=1)
        if not live.any():
            break
        # Cramer's rule on each 2x2 Jacobian; a singular one gives inf/nan
        with np.errstate(divide="ignore", invalid="ignore"):
            det = diag[:, 0] * diag[:, 1] - cross[:, 0] * cross[:, 1]
            nxt = z - (diag[:, ::-1] * f - cross * f[:, ::-1]) / det[:, None]
        live &= ~np.any(nxt < 0.0, axis=1) & np.all(np.isfinite(nxt), axis=1)
        z[live] = nxt[live]
    return z[:, 0], z[:, 1]


def _response_curve(j: int, sigma: np.ndarray, params: EffectiveParams):
    """(scale, zmax, delta2, p) of mode j along its bracket D_j = scale * t,
    one entry (row of p) per detuning in sigma.

    z_j = zmax / u with u = t^2 + delta2, and the cubic
    p(t) = (t + w sigma M / scale) u - C_j zmax / (4 scale) equals
    u C12 z_other / (4 scale), highest power first.  The scale is w mu, or
    for an undamped mode the bracket at which self coupling meets the drive.
    """
    w, m = params.omega(j), params.mass(j)
    d, b = w * params.damping(j), w * sigma * m
    c, f = params.self_coupling(j), params.drive(j)
    scale = np.where(d != 0.0, d, np.maximum(
        np.abs(b), abs(0.25 * c * f * f) ** (1.0 / 3.0)))
    scale[scale == 0.0] = 1.0
    delta2, zmax, beta = (d / scale) ** 2, (f / scale) ** 2, b / scale
    p = np.stack([np.ones_like(beta), beta, delta2,
                  beta * delta2 - 0.25 * c * zmax / scale], axis=1)
    return scale, zmax, delta2, p


def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-by-row products of two stacks of polynomials."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1))
    for i in range(a.shape[1]):
        out[:, i:i + b.shape[1]] += a[:, i:i + 1] * b
    return out


def _real_roots(coeffs: np.ndarray) -> np.ndarray:
    """Real roots of each row of coeffs (highest power first), NaN-padded;
    per row np.roots of the row over its largest entry, with one stacked
    companion eigensolve per degree.  LAPACK gives the real eigenvalues of a
    real matrix an imaginary part of exactly zero."""
    coeffs = coeffs / np.max(np.abs(coeffs), axis=1, keepdims=True)
    nonzero, width = coeffs != 0.0, coeffs.shape[1]
    first = np.argmax(nonzero, axis=1)
    last = width - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    roots = np.full((len(coeffs), width - 1), np.nan)
    for lo, hi in set(zip(first.tolist(), last.tolist())):
        rows, deg = np.flatnonzero((first == lo) & (last == hi)), hi - lo
        roots[rows, deg:width - 1 - lo] = 0.0
        companion = np.zeros((rows.size, deg, deg))
        companion[:, :1] = (-coeffs[rows, None, lo + 1:hi + 1]
                            / coeffs[rows, None, lo:lo + 1])
        companion[:, np.arange(1, deg), np.arange(deg - 1)] = 1.0
        eig = np.linalg.eigvals(companion)
        roots[rows, :deg] = np.where(eig.imag == 0.0, eig.real, np.nan)
    return roots


def _single_mode_states(j: int, sigma, params: EffectiveParams) -> np.ndarray:
    """z_j with the other mode not acting on mode j, one row per detuning,
    NaN-padded; an undriven mode rests."""
    if params.drive(j) == 0.0:
        return np.zeros((len(sigma), 1))
    _, zmax, delta2, p = _response_curve(j, sigma, params)
    t = _real_roots(p)
    return zmax[:, None] / (t * t + delta2[:, None])


def _eliminant_states(lead: int, sigma1: np.ndarray, sigma2: np.ndarray,
                      params: EffectiveParams):
    """(point, z1, z2) at every real root t of the lead mode's degree-9
    eliminant at each detuning pair (sigma1[point], sigma2[point]).

    With u = t^2 + delta2, z_other = 4 scale p / (C12 u) and the other
    bracket is r / u, r = C_o scale p / C12 + C12 zmax / 4 - w_o sigma_o M_o u,
    so its condition reads p (r^2 + (w_o mu_o u)^2) = C12 F_o^2 u^3 / (4 scale).
    """
    other, sig = 3 - lead, (sigma1, sigma2)
    scale, zmax, delta2, p = _response_curve(lead, sig[lead - 1], params)
    c12 = params.cross_coupling
    w, m = params.omega(other), params.mass(other)
    u = np.stack([np.ones_like(delta2), np.zeros_like(delta2), delta2], axis=1)
    r = (params.self_coupling(other) * scale / c12)[:, None] * p
    r[:, 1:] -= (w * sig[other - 1] * m)[:, None] * u
    r[:, 3] += 0.25 * c12 * zmax
    u2 = _polymul(u, u)
    q = _polymul(r, r)
    q[:, 2:] += (w * params.damping(other)) ** 2 * u2
    g = _polymul(p, q)
    g[:, 3:] -= ((0.25 * c12 * params.drive(other) ** 2 / scale)[:, None]
                 * _polymul(u, u2))
    t = _real_roots(g)
    point, col = np.nonzero(~np.isnan(t))
    t, pt = t[point, col], 0.0
    for coeff in p[point].T:        # Horner, as np.polyval
        pt = pt * t + coeff
    ut = t * t + delta2[point]
    z = [zmax[point] / ut, 4.0 * scale[point] * pt / (c12 * ut)]
    return (point, *(z if lead == 1 else z[::-1]))


def _phase_branch(j: int, zj, zo, sigma, params: EffectiveParams):
    """Mode j's drive phase lag, quadrant correct from the two steady
    conditions, and the square-root branch of its response curve."""
    w, m, drv = params.omega(j), params.mass(j), params.drive(j)
    a = np.sqrt(zj)
    mix = params.self_coupling(j) * zj + params.cross_coupling * zo
    phase = np.zeros_like(zj)
    if drv != 0.0:
        cos_part = (0.25 * a * mix - w * sigma * m * a) / drv
        phase = np.where(zj > 0.0, np.arctan2(
            w * params.damping(j) * a / drv, cos_part), 0.0)
    center = mix / (4.0 * m * w)
    s, tol = sigma - center, 1e-9 * np.maximum(np.maximum(
        abs(sigma), abs(center)), max(params.damping(j) / m, 1e-300))
    return phase, np.where(s > tol, "+", np.where(s < -tol, "-", "0"))


def steady_states(sigma1, sigma2, params: EffectiveParams
                  ) -> dict[str, np.ndarray]:
    """All steady states at the detuning pairs (sigma1[i], sigma2[i]).

    Columns, in this order, one row per state sorted by (point, z1, z2):
    point (the index i), z1, z2 (squared amplitudes), phase1, phase2 (drive
    phase lags, rad), branch1, branch2 ('+', '-' or '0').  Mode 2 leads when
    only mode 1 is undamped; with C12 = 0 or a zero drive each mode solves
    its own cubic.  Roots failing steady_residual <= 1e-10 after the polish
    are dropped, with one SteadyStateWarning per point.  Each row depends on
    its own point alone.
    """
    sigma1, sigma2 = np.atleast_1d(sigma1, sigma2)
    if (params.cross_coupling == 0.0 or params.drive1 == 0.0
            or params.drive2 == 0.0):
        z1, z2 = np.broadcast_arrays(
            _single_mode_states(1, sigma1, params)[:, :, None],
            _single_mode_states(2, sigma2, params)[:, None, :])
        point, i, k = np.nonzero(~np.isnan(z1) & ~np.isnan(z2))
        z1, z2 = z1[point, i, k], z2[point, i, k]
    else:
        lead = 2 if params.damping1 == 0.0 and params.damping2 != 0.0 else 1
        point, z1, z2 = _eliminant_states(lead, sigma1, sigma2, params)
    s1, s2 = sigma1[point], sigma2[point]
    z1, z2 = _newton_polish(z1, z2, s1, s2, params)
    keep = steady_residual(z1, z2, s1, s2, params) <= 1e-10
    total = np.bincount(point, minlength=sigma1.size)
    lost = total - np.bincount(point[keep], minlength=sigma1.size)
    for i in np.flatnonzero(lost):
        warnings.warn(f"{lost[i]} of {total[i]} real root(s) at sigma = ("
                      f"{sigma1[i]:.6g}, {sigma2[i]:.6g}) failed the steady-"
                      "state check; dropped", SteadyStateWarning, stacklevel=2)
    order = np.flatnonzero(keep)[np.lexsort((z2[keep], z1[keep], point[keep]))]
    point, z1, z2, s1, s2 = (x[order] for x in (point, z1, z2, s1, s2))
    phase1, branch1 = _phase_branch(1, z1, z2, s1, params)
    phase2, branch2 = _phase_branch(2, z2, z1, s2, params)
    return {"point": point, "z1": z1, "z2": z2, "phase1": phase1,
            "phase2": phase2, "branch1": branch1, "branch2": branch2}


def coupled_steady_state(sigma1: float, sigma2: float, params: EffectiveParams
                         ) -> list[tuple[ResponsePoint, ResponsePoint]]:
    """steady_states at one detuning pair, one ResponsePoint per mode."""
    columns = steady_states(sigma1, sigma2, params).values()
    return [(ResponsePoint(1, sigma1, math.sqrt(z1), th1, b1),
             ResponsePoint(2, sigma2, math.sqrt(z2), th2, b2)) for
            _, z1, z2, th1, th2, b1, b2 in zip(*(c.tolist() for c in columns))]


# ---------------------------------------------------------------------------
# frequency shift of the driven fundamental


class ShiftRoot(NamedTuple):
    """Flexing-mode amplitude at its own resonance peak and the detuning it
    imposes on the collective mode through the cross coupling."""

    amplitude2: float
    sigma1: float
    branch: str


def shift_of_fundamental(params: EffectiveParams, force1: float | None = None,
                         force2: float | None = None) -> list[ShiftRoot]:
    """Collective-mode detuning when both modes are driven at their peaks.

    The collective mode is held at its largest response, where its amplitude
    is drive over damping regardless of the couplings.  Each root of mode 2's
    single-mode response at the cross-shifted detuning -C12 z1 / (4 M2 w2)
    (ascending) shifts the collective resonance by the cross coupling;
    without a second drive the collective mode only detunes itself, through
    its own cubic coefficient.  force1/force2 (modal force densities)
    override the drives stored in params.
    """
    f1 = params.drive1 if force1 is None else params.drive_per_force * force1
    f2 = params.drive2 if force2 is None else params.drive_per_force * force2
    mu1, mu2 = params.damping1, params.damping2
    if mu1 == 0.0 or mu2 == 0.0:
        raise ConfigError("both modes need nonzero damping at their peaks")
    w1, m1, c11 = params.omega1, params.mass1, params.self_coupling1
    c12 = params.cross_coupling
    base = (f1 / (mu1 * w1)) ** 2     # collective peak amplitude, squared

    def sigma_at(z2):
        return (c11 * base + c12 * z2) / (4.0 * m1 * w1)

    if f2 == 0.0:
        return [ShiftRoot(amplitude2=0.0, sigma1=sigma_at(0.0), branch="0")]

    shifted = np.array([-c12 * base / (4.0 * params.mass2 * params.omega2)])
    z2 = _single_mode_states(2, shifted, params._replace(drive2=f2))[0]
    z2 = np.unique(z2[~np.isnan(z2)])
    branch = _phase_branch(2, z2, base, 0.0, params)[1]   # reads no drive
    return [ShiftRoot(amplitude2=math.sqrt(z), sigma1=sigma_at(z), branch=b)
            for z, b in zip(z2.tolist(), branch.tolist())]

