"""Closed-form vibration spectra of beams with averaged cantilever loading.

For identical cantilevers the transcendental secular equation in the reduced
wavenumber gamma = alpha*l is

    nu*lam * gamma^3 * T(gamma) + gamma^4 = (lam*beta_n)^4

whose roots organize into bands: level (n, k) lies strictly between
consecutive poles of T (band edges gamma_{inf,k}).  Root finding never
evaluates T near its poles; instead it bisects the pole-free rescaled form

    F(gamma) = nu*lam*gamma^3*N(gamma) + (gamma^4 - (lam*beta_n)^4)*D(gamma)

with N = e^-g (cos sinh + sin cosh), D = e^-g (1 + cos cosh).  Only D
vanishes at a band edge gamma_{inf,k}; F there is nu*lam*gamma^3*N, nonzero
with the sign (-1)^(k+1), and F(0) = -2 (lam*beta_n)^4.  So [edge, edge] is
a single-sign-change bracket for every (n, k), seeded with the sign at its
lower end instead of a value taken there.

An interleaved two-family array gives the same structure with both pole sets
{gamma_k} and {gamma_k / epsilon}; see solve_alternating.  Its brackets also
run edge to edge, one per level, except that they step off merged twin poles.
The brackets of all swept epsilons are built at once, as arrays: family 1's
poles are shared, family 2's are the edges over each epsilon.

Every solve halves all of its brackets at once: all (n, k) of a spectrum,
and in sweep_uniform and sweep_alternating all swept values, flattened into
lanes, one per level.  _replay is the one halving loop; it stops once no
bracket moves (_BISECT_ITERS is the cap).  The sign of f at lo is fixed per
lane, so (lo, hi) is the state, and each lane takes the steps it would take
alone: a sweep gives bit for bit the levels of the per-value solves.
_replay takes an optional inner bracket (a, b) per lane and evaluates f
only at midpoints strictly inside it; a midpoint outside takes its known
side.  Every band, of one family or two, goes through _solve_lanes, which
takes the lanes _CHUNK at a time: a safeguarded Newton pass
(_inner_brackets, with the analytic slope of _secular_slope or
_alternating_slope) puts (a, b) a few rounding-noise widths wide around
each root, and f(a) and f(b) are checked to have the two signs; a lane
whose Newton pass or check fails keeps (-inf, inf), so the levels are
plain bisection's bit for bit either way, wherever Newton starts and
whenever it stops.  Newton starts from the root of a model of the lane's
own secular function (_model_start): its shear term keeps the poles at
both bracket ends over a linear rest, fitted at two points
(_shear_model), so that roots on a pole, next to a twin pair or near 0
in band 1 start close; in a solve of _WARM_LANES lanes or more,
every _WARM_STRIDE-th row of the swept values (and the last) is solved
first, and the rows between start from the linear interpolation of
those rows' levels.  A lane stops once its step is within the noise
width, or once its last two Newton steps predict an error well inside
it.  A lane whose inner bracket holds only a few floats is settled
without halving: f is evaluated at each of them, and where its sign
changes once among them the level is known (see _replay).  All
single-family layouts of an epsilon sweep share one _band_bisect call.
Solvers return gamma grids (gammas[n-1, k-1], NaN where no level is
reported) with omega = scale * gamma^2: the sweeps one per value,
solve_uniform and solve_alternating one with its band upper edges.
"""
from __future__ import annotations

import warnings
from dataclasses import replace
from typing import NamedTuple

import numpy as np

from .beam import beam_roots
from .kernel import (band_edge_gammas, band_edges_reaching,
                     check_pole_distance, cos_cosh_root, shear_kernel)
from .model import (AlternatingProfile, BoundaryCondition, ConfigError,
                    DeviceGeometry, DimensionlessParams, UniformProfile,
                    dimensionless)

_BISECT_ITERS = 110
# Least lanes of a solve whose rows _solve_lanes starts from the levels of
# coarse rows _WARM_STRIDE apart.  The second pass costs a fixed 0.3-0.7 ms;
# on the preset, solving the coarse rows first broke even at 2,000-3,300
# lanes (nu sweeps at 8x8 and 3x4 levels, two-family epsilon sweeps at 3x4)
# and gained 7-30 % from 4,096 lanes up.  Strides 8 and 16 took 2.2-2.4
# Newton steps per level on 500-value nu and 1,000-value epsilon sweeps,
# stride 4 2.5-2.7 and stride 32 2.3-2.6.
_WARM_LANES = 4096
_WARM_STRIDE = 8
# Lanes per _replay call in _solve_lanes; bounds the temporaries of a sweep.
_CHUNK = 4096
# Most floats inside an inner bracket that _replay settles without halving.
# The bench's levels hold 1-15 (one family) and 1-19 (two families), 72 %
# of them 1; of 28,800 random two-family levels 0.1 % hold more than 32 (up
# to 91) and are halved.
_SETTLE_FLOATS = 32
# Least a / hi of a settled lane, so that halving reaches adjacent floats
# within _BISECT_ITERS steps (see _replay).
_SETTLE_DEPTH = 2.0 ** -40
# Newton steps of _inner_brackets before a lane is evaluated at every halving.
_NEWTON_ITERS = 30
# Sample points of _shear_model, this fraction of the bracket in from each
# end, and the Newton steps that solve the model after its false-position
# step (_model_start).  On the 8,462 lanes of bench seed 1 that start from
# models, samples 1/10 to 1/4 in took the same Newton counts; three steps
# leave the model root within 1e-5 of the bracket width on all but 26
# lanes (two steps: 630) and take the Newton counts of exact model roots.
_MODEL_SAMPLE = 0.125
_MODEL_ITERS = 3
# Half-width of an inner bracket, in rounding-noise widths of F.
_MARGIN = 8.0
# _inner_brackets takes a Newton root once the error that its last two
# steps predict, C step^2, is below _QUADRATIC widths, where C = |F''/2F'|
# is |step| / last^2 but at least _CURVATURE (F is made of unit-frequency
# waves; a lucky first step makes the ratio far too small).  Without the
# floor, 1/4 added 37 uncertified lanes to 201,600 random single-family
# ones and 18 to 192,000 two-family ones (1/16: 10 and 8); with it, 1/4
# adds none there, nor on bands-duffing seeds 1-4, and 1/2 adds 6.
_QUADRATIC = 0.25
_CURVATURE = 0.5
_ROUNDOFF = 2.0 ** -53     # unit roundoff of float64
# Two poles closer than this (relative) merge into one band edge, and the
# root between them is not reported.  The twin poles gamma_k, gamma_k/eps are
# |1/eps - 1| gamma_k apart; bisection still resolves the root between them
# at 1e-11 relative, so merging below 3e-10 leaves a margin of 30.
_MERGE_RTOL = 3e-10
# Least step off a merged pole pair, relative, when its members coincide.
_STEP_RTOL = 1e-12
# lam*beta_n this close (relative) to an edge: delta_asymptotic diverges.
_RESONANCE_RTOL = 1e-9


class BlowUpError(ArithmeticError):
    """Band-edge expansion denominator is resonant (lam*beta_n ~ gamma_edge)."""


class BandGap(NamedTuple):
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


def _scaled_nd_slopes(gamma):
    """N^ and D^ of _scaled_nd, their slopes, and bounds on their rounding
    errors in units of roundoff.

    N' = 2 cos cosh and D' = cos sinh - sin cosh, so with ch = e^-g cosh
    and sh = e^-g sinh, N^' = 2 cos ch - N^ and D^' = cos sh - sin ch - D^.
    """
    e = np.exp(-gamma)
    ch = 0.5 * (1.0 + e * e)
    sh = 0.5 * (1.0 - e * e)
    c, s = np.cos(gamma), np.sin(gamma)
    n_hat, d_hat = c * sh + s * ch, e + c * ch
    return (n_hat, d_hat, 2.0 * c * ch - n_hat, c * sh - s * ch - d_hat,
            (np.abs(c) + np.abs(s)) * ch, e + np.abs(c) * ch)


def _secular_slope(gamma, nulam, lambeta4):
    """_regular_secular F (not bit for bit), dF/dgamma, and a bound on the
    rounding error of _regular_secular in units of roundoff."""
    n_hat, d_hat, dn_hat, dd_hat, n_err, d_err = _scaled_nd_slopes(gamma)
    g2 = gamma * gamma
    g3 = g2 * gamma
    g4 = g2 * g2
    poly = g4 - lambeta4
    f = nulam * g3 * n_hat + poly * d_hat
    df = (nulam * g2 * (3.0 * n_hat + gamma * dn_hat) + 4.0 * g3 * d_hat
          + poly * dd_hat)
    noise = (nulam * g3 * n_err + np.abs(poly) * d_err
             + (g4 + lambeta4) * np.abs(d_hat))
    return f, df, noise


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
    result has shape (..., n, k_max), bit for bit what plain bisection from
    the band edges returns.  At an edge only D vanishes, so the regularized
    form is nu*lam*gamma^3*N there, whose sign alternates as (-1)^k at the
    lower edge of band k (the k=1 interval starts at F(0) = -2
    (lam*beta)^4); the bisection is seeded with that sign.  The lanes (one
    per level) go through _solve_lanes; their shear term nu*lam*T is nu*lam
    times one model of T per band.
    """
    bounds = np.concatenate(([0.0], band_edge_gammas(k_max)))
    unit = _shear_model(bounds[:-1], bounds[1:], _kernel_slope)
    shape = np.broadcast_shapes(np.shape(nulam), lambeta4.shape)[:-1] + (k_max,)
    flat_nulam = np.broadcast_to(nulam, shape).flat
    flat_lambeta4 = np.broadcast_to(lambeta4, shape).flat

    def lanes(idx):
        k = idx % k_max
        # F < 0 at the lower edge of band k+1 for even k
        return (bounds[k], bounds[k + 1], k % 2 == 0,
                (flat_nulam[idx], flat_lambeta4[idx]))

    return _solve_lanes(
        shape, lanes,
        lambda idx, lo, hi, params: unit[:, idx % k_max] * params[0],
        lambda g, c, lb4: _secular_slope(g, c, lb4), _regular_secular)


def _solve_lanes(shape, lanes, model, slope, value):
    """Levels of the lanes of shape, whose leading axis holds the rows of a
    sweep, bisected _CHUNK lanes at a time, which bounds the temporaries.

    lanes(idx) gives (lo, hi, neg, params) of the lanes with flat indices
    idx: brackets, sign bits of f at lo and a tuple of per-lane parameter
    arrays, lambeta4 last; model(idx, lo, hi, params) gives the
    coefficients of their _shear_model.  value(g, *params) is the lanes'
    f, and slope(g, *params) its F, F' and rounding bound for
    _inner_brackets; the inner brackets go with the brackets to _replay.

    Newton starts from the root of the lane's model (_model_start).  With
    _WARM_LANES lanes or more, the coarse rows (every _WARM_STRIDE-th, and
    the last) are solved first, and a lane of another row starts from the
    linear interpolation, by row index, of the levels of its two coarse
    neighbours instead, where that lies strictly inside its bracket (not
    where a neighbour is NaN or the bracket moved, as a two-family band
    does where poles cross).  The chunk's starts are built from out, so no
    start array spans the lanes.  No level depends on its start, only its
    cost (see _inner_brackets and _replay).
    """
    rows = shape[0]
    width = int(np.prod(shape[1:]))
    out = np.empty(rows * width)
    coarse = np.full(rows, rows * width < _WARM_LANES)
    coarse[::_WARM_STRIDE] = coarse[-1] = True
    coarse, fine = np.flatnonzero(coarse), np.flatnonzero(~coarse)
    for group in (coarse, fine):
        for first in range(0, group.size * width, _CHUNK):
            idx = np.arange(first, min(first + _CHUNK, group.size * width))
            idx = group[idx // width] * width + idx % width
            lo, hi, neg, params = lanes(idx)
            x = (_interpolated(out, idx, rows) if group is fine
                 else np.full(idx.size, np.nan))
            cold = np.flatnonzero(~((x > lo) & (x < hi)))
            if cold.size:
                i, low, high, *part = (v[cold]
                                       for v in (idx, lo, hi, *params))
                x[cold] = _model_start(low, high, model(i, low, high, part),
                                       part[-1])

            def f(g, i, params=params):
                return value(g, *(v[i] for v in params))

            a, b = _inner_brackets(lo, hi, neg, x, slope, f, params)
            out[idx] = _replay(lo, hi, neg, f, a, b)
    return out.reshape(shape)


def _interpolated(out, idx, rows):
    """Linear interpolation, by row index, of the levels out holds for the
    lanes idx in the coarse rows below and above theirs (see _solve_lanes);
    out is flat, rows rows of lanes."""
    width = out.size // rows
    row, col = np.divmod(idx, width)
    below = row - row % _WARM_STRIDE
    above = np.minimum(below + _WARM_STRIDE, rows - 1)
    g = out[below * width + col]
    return g + (row - below) / (above - below) * (out[above * width + col] - g)


def _kernel_slope(gamma):
    """The shear kernel T = N/D at gamma and its slope, off the poles."""
    n_hat, d_hat, dn_hat, dd_hat = _scaled_nd_slopes(gamma)[:4]
    return n_hat / d_hat, (dn_hat * d_hat - n_hat * dd_hat) / (d_hat * d_hat)


def _model_poles(lo, hi):
    """Lower pole of each bracket's shear model: lo, or -hi in band 1
    (lo = 0), where the shear term is odd in gamma."""
    return np.where(lo > 0.0, lo, -hi)


def _shear_model(lo, hi, shear):
    """Coefficients (a, m, b, c), each shaped like lo, of the model

        W(g) ~ a + m (g - p) + b / (g - p) + c / (g - hi)

    of the shear term W of each bracket [lo, hi], the secular function over
    gamma^3 less gamma - lambeta4 / gamma^3 (nu*lam*T for one family).  W
    has a pole at each bracket end, of either family (or a merged pair,
    just outside it), over a slowly varying rest: the model keeps both
    poles, p from _model_poles, and a linear rest.  The four coefficients
    fit W and W' = shear(x) at the sample points x = lo + s (hi - lo) and
    hi - s (hi - lo), s = _MODEL_SAMPLE; shear takes x shaped (2, lanes).
    Degenerate fits give non-finite coefficients, which _model_start
    rejects.
    """
    p = _model_poles(lo, hi)
    x = lo + np.array([[_MODEL_SAMPLE], [1.0 - _MODEL_SAMPLE]]) * (hi - lo)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w, dw = shear(x)
        u, v = 1.0 / (x - p), 1.0 / (x - hi)
        # the slopes at both points and the secant between them fix b and
        # c; then m and a follow at the first point
        secant = (w[1] - w[0]) / (x[1] - x[0])
        e0, e1 = secant - dw[0], secant - dw[1]
        det = u[1] * v[0] - u[0] * v[1]
        b = -(v[1] * e0 + v[0] * e1) / det / (u[0] - u[1])
        c = (u[0] * e1 + u[1] * e0) / det / (v[0] - v[1])
        m = dw[0] + b * u[0] ** 2 + c * v[0] ** 2
        a = w[0] - m * (x[0] - p) - b * u[0] - c * v[0]
    return np.array([a, m, b, c])


def _model_start(lo, hi, model, lambeta4):
    """Newton start in each bracket [lo, hi]: the root of its model secular
    function g^3 W(g) + g^4 - lambeta4, with W from the coefficients model
    of _shear_model, or the midpoint where that root is not strictly
    inside (lo, hi).

    The model is solved times (g - p)(hi - g), which clears its poles.  Its
    signs at the sample points tell which of the three parts of [lo, hi]
    they cut holds the root (the secular function rises through each
    band); a false-position step across that part, then _MODEL_ITERS
    safeguarded Newton steps, find it.  In band 1 both take their steps in
    g^4: there the model is close to A g^4 - lambeta4 near 0, where Newton
    in g only shrinks its distance by 3/4 a step.
    """
    a, m, b, c = model
    p = _model_poles(lo, hi)
    power = np.where(lo > 0.0, 1.0, 4.0)
    bc = b + c

    def psi(g, slope=True):
        """The pole-cleared model, and its slope."""
        t, s = g - p, hi - g
        ts = t * s
        g2 = g * g
        g3 = g2 * g
        rest = a + m * t
        core = g3 * (g + rest) - lambeta4
        poles = g3 * (b * s - c * t)
        value = core * ts + poles
        if not slope:
            return value
        return value, (g2 * ((4.0 + m) * g + 3.0 * rest) * ts
                       + core * (s - t) + 3.0 * poles / g - g3 * bc)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x = lo + np.array([[0.0], [_MODEL_SAMPLE], [1.0 - _MODEL_SAMPLE],
                           [1.0]]) * (hi - lo)
        v = psi(x, slope=False)
        part = (v[1] <= 0.0).astype(int) + (v[2] <= 0.0)
        lane = np.arange(lo.size)
        g_lo, g_hi = x[part, lane], x[part + 1, lane]
        v_lo, v_hi = v[part, lane], v[part + 1, lane]
        u_lo, u_hi = g_lo ** power, g_hi ** power
        g = (u_lo - v_lo * (u_hi - u_lo) / (v_hi - v_lo)) ** (1.0 / power)
        for _ in range(_MODEL_ITERS):
            g = np.where((g > g_lo) & (g < g_hi), g, 0.5 * (g_lo + g_hi))
            value, slope = psi(g)
            up = value > 0.0
            g_lo = np.where(up, g_lo, g)
            g_hi = np.where(up, g, g_hi)
            # a Newton step in g^power
            g = g * (1.0 - power * value / (slope * g)) ** (1.0 / power)
    return np.where((g > lo) & (g < hi), g, 0.5 * (lo + hi))


def _replay(lo, hi, neg, f, a=-np.inf, b=np.inf):
    """Halve every lane's bracket [lo, hi], all at once, until none moves;
    returns the midpoints.

    neg is the sign bit of f at lo, and f(g, lanes) gives f at midpoints g
    of the indexed lanes.  A bracket moves lo only where f(mid) has that
    sign bit, so (lo, hi) is the whole state: once a step leaves every bit
    of it as it was, later steps would too, and the result equals that of
    all _BISECT_ITERS steps, which remain the cap.  (a, b) is an optional
    inner bracket, f(a) of the sign at lo and f(b) of the other: a midpoint
    at or below a takes the lo side, one at or above b the hi side, and
    only midpoints strictly inside are evaluated (all of them by default).

    Lanes whose inner bracket holds few floats are settled first, without
    halving (_settle).  Under the rule above every float x of [lo, hi] has
    a side, and lo has the lo side and hi the hi side when lo <= a < b <=
    hi.  If the sides change only once over the floats, at the adjacent
    pair (p, q), bisection is path-independent: lo only ever moves to a
    float of the lo side, so lo <= p, and hi to one of the hi side, so hi
    >= q; a midpoint is strictly inside any bracket that holds a float, so
    the bracket shrinks until it is (p, q), which no later step moves, and
    the result is 0.5 * (p + q).  The floats at or below a and at or above
    b have their sides by the rule, so only those strictly inside (a, b)
    are evaluated, in one batch, and the lane is settled where their lo
    sides form a prefix.  A lane with no inner bracket, more than
    _SETTLE_FLOATS floats inside it or a second change of side is halved.

    The equality needs the halving to reach (p, q) within _BISECT_ITERS
    steps, so _settle also asks a >= 2^-40 hi (with lo >= 0, so p >= a >
    0).  Each step leaves at most half the width plus the rounding of the
    midpoint, at most 2^-53 hi, and hi never grows: after j steps from
    width at most H = hi the width is below 2^-j H + 2^-52 H, which is
    below 2^-41 H <= p/2 at j = 42; the bracket holds p, so it lies in
    (p/2, 3p/2) from then on.  There the rounding is at most 2^-53 (3p/2),
    so m steps more leave width below 2^-m p/2 + 3 * 2^-53 p, and floats
    at or above p/2 lie at least ulp(p)/2 > 2^-54 p apart, so the bracket
    then holds fewer than 2^(53-m) + 6 floats inside: at most 6 at m = 56.
    Each step drops one at least, so (p, q) is reached by step 42 + 56 + 6
    = 104 <= 110.  The brackets here start from band edges of at least
    1.8, far from underflow.
    """
    n = lo.size
    a, b = np.broadcast_to(a, lo.shape), np.broadcast_to(b, lo.shape)
    out = np.empty(n)
    settled, found = _settle(lo, hi, neg, f, a, b)
    out[settled] = found
    rest = slice(None)
    if settled.size:                      # halve the others
        rest = np.ones(n, dtype=bool)
        rest[settled] = False
        rest = np.flatnonzero(rest)
        lo, hi, neg, a, b = (v[rest] for v in (lo, hi, neg, a, b))
        f = lambda g, i, f=f: f(g, rest[i])
        n = rest.size
    bracket = np.concatenate((lo, hi))
    lo, hi, lane = bracket[:n], bracket[n:], np.arange(n)
    for _ in range(_BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        take = mid <= a
        doubt = ~take & (mid < b)
        if doubt.all():                   # every lane: no gather
            take = np.signbit(f(mid, slice(None))) == neg
        elif doubt.any():
            doubt = np.flatnonzero(doubt)
            take[doubt] = np.signbit(f(mid[doubt], doubt)) == neg[doubt]
        # mid replaces lo where taken and hi elsewhere; no bracket moves
        # when those ends hold its bytes already (-0.0 is not 0.0)
        end = lane + n * ~take
        if bracket[end].tobytes() == mid.tobytes():
            break
        bracket[end] = mid
    out[rest] = 0.5 * (lo + hi)
    return out


def _settle(lo, hi, neg, f, a, b):
    """(lanes, results) of the lanes of _replay that its settle step takes:
    0 <= lo <= a < b <= hi, a >= _SETTLE_DEPTH * hi, at most _SETTLE_FLOATS
    floats strictly inside (a, b), and f's sides over them a prefix of lo
    sides.  The floats are counted on the int64 view of (a, b), and f is
    evaluated at all of them in one flat batch."""
    lanes = np.flatnonzero((0.0 <= lo) & (lo <= a) & (a < b) & (b <= hi)
                           & (a >= _SETTLE_DEPTH * hi))
    below = a[lanes].view(np.int64)            # ordinal of a: positive floats
    size = b[lanes].view(np.int64) - below - 1
    fits = size <= _SETTLE_FLOATS
    lanes, below, size = lanes[fits], below[fits], size[fits]
    owner = np.repeat(np.arange(lanes.size), size)
    pos = np.arange(owner.size) - (np.cumsum(size) - size)[owner]
    low = np.signbit(f((below[owner] + 1 + pos).view(np.float64),
                       lanes[owner])) == neg[lanes[owner]]
    n_low = np.bincount(owner[low], minlength=lanes.size)
    mixed = np.bincount(owner[low != (pos < n_low[owner])],
                        minlength=lanes.size) > 0
    p = (below + n_low)[~mixed]                # ordinal of p, q is next
    return lanes[~mixed], 0.5 * (p.view(np.float64)
                                 + (p + 1).view(np.float64))


def _inner_brackets(lo, hi, neg, start, slope, f, params):
    """Inner bracket (a, b) of each lane's root in [lo, hi], or (-inf, inf)
    where none is certified.

    A safeguarded Newton pass from start (a bisection step wherever Newton
    leaves the bracket) estimates the root r, on the active lanes only:
    slope(x, *params) gives F (not bit for bit), F' and a bound on the
    rounding error of f in units of roundoff, and params (per-lane arrays)
    are compacted with the lanes.  The inner bracket is r -+ _MARGIN noise
    widths (at least one spacing of r), clipped to [lo, hi]; the noise
    width is the rounding bound over |F'|.  A lane stops once its step is
    at most that width, or early, once the step s_k and the Newton step
    s_(k-1) taken before it predict an error C s_k^2 below _QUADRATIC
    widths (C = |s_k| / s_(k-1)^2, at least _CURVATURE; so the steps
    contract), where r = x - s_k lies strictly inside the safeguard
    bracket; the early stop saves the step that would only confirm r.
    The inner bracket holds only where the lanes' own f(g, lanes), the one
    _replay evaluates, gives f(a) the sign at lo and f(b) the other, so a
    wrong guess costs halving, never a level.  A lane whose Newton pass
    does not converge, whose slope is zero or not finite, or whose ends
    fail that check keeps (-inf, inf).
    """
    a = np.full(lo.shape, -np.inf)
    b = np.full(lo.shape, np.inf)
    live = np.arange(lo.size)
    x, x_lo, x_hi, x_neg = start, lo, hi, neg
    last = np.zeros(lo.shape)             # the Newton step taken to x, or 0
    found = [(live[:0], x[:0], x[:0])]    # (lanes, r, width) as they converge
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_ITERS):
            fx, df, noise = slope(x, *params)
            step = fx / df
            # infinite (zero slope) or NaN where no bracket can be certified
            width = np.maximum(_MARGIN * _ROUNDOFF * noise / np.abs(df),
                               np.spacing(x))
            below = np.signbit(fx) == x_neg
            x_lo = np.where(below, x, x_lo)
            x_hi = np.where(below, x_hi, x)
            root = x - step
            newton = (root > x_lo) & (root < x_hi)
            x = np.where(newton, root, 0.5 * (x_lo + x_hi))
            # a Newton step leaves about C step^2, C = |F''/2F'|; the test
            # fails unless |step| < |last| or |step| <= width
            size = np.abs(step)
            curve = np.maximum(size / (last * last), _CURVATURE)
            done = (size <= width) | (newton & (curve * size * size
                                                < _QUADRATIC * width))
            last = np.where(newton, step, 0.0)
            if done.any():
                hit = np.flatnonzero(done & np.isfinite(width))
                found.append((live[hit], root[hit], width[hit]))
                keep = np.flatnonzero(~done)
                live, x, x_lo, x_hi, x_neg, last, *params = (
                    v[keep] for v in (live, x, x_lo, x_hi, x_neg, last,
                                      *params))
                if not live.size:
                    break
    idx, root, width = (np.concatenate(v) for v in zip(*found))
    ends = np.concatenate((np.maximum(root - width, lo[idx]),
                           np.minimum(root + width, hi[idx])))
    f_a, f_b = np.signbit(f(ends, np.tile(idx, 2))).reshape(2, -1)
    ok = (f_a == neg[idx]) & (f_b != neg[idx])
    a[idx[ok]], b[idx[ok]] = ends.reshape(2, -1)[:, ok]
    return a, b


def solve_uniform(geometry: DeviceGeometry, profile: UniformProfile,
                  bc: BoundaryCondition, n_max: int, k_max: int):
    """Levels of a uniform array: (gammas[n-1, k-1], band upper edges[k-1],
    scale), band k running from edges[k-2] (0 for k = 1) to edges[k-1], and
    omega = scale * gamma^2 = sqrt(Ec/mu_c) (gamma/l)^2."""
    params, betas = dimensionless(geometry, profile), beam_roots(bc, n_max)
    gammas = solve_uniform_dimensionless(params, betas, k_max)
    return (gammas, band_edge_gammas(k_max),
            geometry.cantilever_wave_scale / profile.length ** 2)


def gamma_to_omega(gamma: float, geometry: DeviceGeometry,
                   cantilever_length: float) -> float:
    return geometry.cantilever_wave_scale * (gamma / cantilever_length) ** 2


def delta_asymptotic(k: int, params: DimensionlessParams,
                     beta: float) -> tuple[float, int]:
    """First-order offset from band edge k of the near-edge root of the
    level whose beam eigenvalue is beta (beta_n of any n).

    Returns (delta, k_eff): the root sits at gamma_{inf,k} + delta and belongs
    to band k when delta < 0 (top of band) or band k+1 when delta > 0 (bottom
    of the next band).  Raises BlowUpError when lam*beta_n is resonant with
    the edge and the leading-order denominator vanishes.
    """
    edge = cos_cosh_root(k)
    x = params.lam * beta / edge
    if abs(x - 1.0) < _RESONANCE_RTOL:
        raise BlowUpError(
            f"lam*beta_n within {_RESONANCE_RTOL} of band edge {k}: "
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
    params = dimensionless(geometry, profile)
    if params.nu == 0.0:
        return []
    gammas, edges, scale = solve_uniform(geometry, profile, bc, 1, k_max + 1)
    beta1 = beam_roots(bc, 1)[0]
    out = []
    for k in range(1, k_max + 1):
        edge = edges[k - 1]
        omega_edge = scale * edge * edge
        exact = scale * gammas[0, k] ** 2 - omega_edge
        try:
            delta, k_eff = delta_asymptotic(k, params, beta1)
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


def _alternating_slope(gamma, c1, c2, eps, lambeta4):
    """_regular_alternating F (not bit for bit), dF/dgamma, and a bound on
    its rounding error in units of roundoff, that of eps*gamma included.

    With x = eps*gamma, F = g^3 (c1 N1 D2 + c2 N2 D1) + (g^4 - lb4) D1 D2,
    N1, D1 at g and N2, D2 at x; dF/dg = dF/dg|x + eps dF/dx, and rounding
    x moves F by at most |x dF/dx| roundoffs.
    """
    x = eps * gamma
    n1, d1, dn1, dd1, n1_err, d1_err = _scaled_nd_slopes(gamma)
    n2, d2, dn2, dd2, n2_err, d2_err = _scaled_nd_slopes(x)
    g2 = gamma * gamma
    g3 = g2 * gamma
    g4 = g2 * g2
    poly = g4 - lambeta4
    shear = c1 * n1 * d2 + c2 * n2 * d1
    f = g3 * shear + poly * d1 * d2
    df_x = g3 * (c1 * n1 * dd2 + c2 * dn2 * d1) + poly * d1 * dd2
    df = (g2 * (3.0 * shear + gamma * (c1 * dn1 * d2 + c2 * n2 * dd1))
          + (4.0 * g3 * d1 + poly * dd1) * d2 + eps * df_x)
    noise = (g3 * (c1 * (n1_err * np.abs(d2) + np.abs(n1) * d2_err)
                   + c2 * (n2_err * np.abs(d1) + np.abs(n2) * d1_err))
             + np.abs(poly) * (d1_err * np.abs(d2) + np.abs(d1) * d2_err)
             + (g4 + lambeta4) * np.abs(d1 * d2) + np.abs(x * df_x))
    return f, df, noise


def _alternating_shear(gamma, c1, c2, eps):
    """The two-family shear term c1 T(g) + c2 T(eps g) and its slope."""
    t1, dt1 = _kernel_slope(gamma)
    t2, dt2 = _kernel_slope(eps * gamma)
    return c1 * t1 + c2 * t2, c1 * dt1 + c2 * eps * dt2


def _pole_groups(eps, gamma_max, families=(1, 2)):
    """Merged band-edge poles of layouts eps[p] up to gamma_max[p]: family 1
    at the edges gamma_k, family 2 at gamma_k / eps[p].  In each sorted row
    a pole closer than _MERGE_RTOL (relative) to the first member of the
    group before it joins that group.  Returns (first, last, family) of the
    groups, each (P, G), family 0 for a merged one, and each row's group
    count; a row's entries past its count are padding."""
    edges = band_edges_reaching(gamma_max.max())
    poles = np.concatenate(
        [edges / np.where(fam == 1, 1.0, eps)[:, None] for fam in families]
        + [np.full((eps.size, 1), np.inf)], axis=1)
    order = np.argsort(poles, axis=1)      # equal poles merge in any order
    poles = np.take_along_axis(poles, order, axis=1)
    family = np.append(np.repeat(families, edges.size), 0)[order]
    poles[poles > gamma_max[:, None]] = np.inf         # padding, one group each
    start = np.ones(poles.shape, dtype=bool)
    first = poles[:, 0]
    with np.errstate(invalid="ignore"):                # inf - inf
        for j in range(1, poles.shape[1]):
            join = poles[:, j] - first < _MERGE_RTOL * poles[:, j]
            start[:, j] = ~join
            first = np.where(join, first, poles[:, j])
    count = (start & np.isfinite(poles)).sum(axis=1)
    # columns of the group starts in order; a group ends before the next one
    lead = np.argsort(~start, axis=1, kind="stable")[:, :count.max() + 1]
    lead, end = lead[:, :-1], lead[:, 1:] - 1
    fam = np.where(end > lead, 0, np.take_along_axis(family, lead, axis=1))
    return (np.take_along_axis(poles, lead, axis=1),
            np.take_along_axis(poles, end, axis=1), fam, count)


def alternating_pole_set(profile: AlternatingProfile,
                         gamma_max: float) -> list[tuple[float, int]]:
    """All band-edge poles (gamma, family) with gamma <= gamma_max, sorted.

    Family 1 poles sit at gamma_k, family 2 at gamma_k / epsilon.  A pole
    closer than _MERGE_RTOL (relative) to the one before it merges into it
    (family reported as 0).
    """
    families = tuple(fam for fam, count in ((1, profile.count1),
                                            (2, profile.count2)) if count > 0)
    first, _, fam, count = _pole_groups(np.array([profile.epsilon]),
                                        np.array([float(gamma_max)]), families)
    return list(zip(first[0, :count[0]].tolist(), fam[0, :count[0]].tolist()))


def _band_brackets(eps, k_max: int):
    """Arrays (lo, hi, band_lower, band_upper), each (P, k_max), of bands
    1..k_max of the two-family layouts eps[p].

    Band k lies between merged-pole groups k-1 and k (band 1 from 0), and
    [lo, hi] brackets its one level edge to edge.  A merged group zeroes both
    denominator factors and holds the root between its members, so the
    bracket steps off it by the members' separation (at least _STEP_RTOL
    relative), from the member on the far side of the band.  Poles count up
    to one past band edge k_max, 1.6-fold more until there are k_max groups.
    """
    gamma_hi = np.full(eps.shape, band_edge_gammas(k_max)[-1] + 1.0)
    while True:
        first, last, fam, count = _pole_groups(eps, gamma_hi)
        short = count < k_max
        if not short.any():
            break
        gamma_hi[short] *= 1.6
    first, last = first[:, :k_max], last[:, :k_max]
    step = np.where(fam[:, :k_max] == 0,
                    np.maximum(last - first, _STEP_RTOL * last), 0.0)
    zero = np.zeros((eps.size, 1))
    return (np.concatenate((zero, (last + step)[:, :-1]), axis=1),
            first - step, np.concatenate((zero, first[:, :-1]), axis=1), first)


def _single_family(eps, lam1, betas, k_max, c1, c2):
    """Level grids (P, n, k) and band upper edges (P, k) of the layouts
    eps[p] with one pole set: one family empty, or equal lengths (length2 =
    eps * length1), all in one bisection.  gamma' = scale * gamma obeys the
    uniform equation with nu*lam = scale * (c1 + c2) and lam = scale * lam1,
    where scale is eps if family 2 stands alone and 1 otherwise."""
    alone2 = c1 == 0.0 and c2 != 0.0
    scale = np.where(alone2, eps, 1.0)[:, None, None]          # (P, 1, 1)
    lambeta4 = (scale * lam1 * betas[:, None]) ** 4            # (P, n, 1)
    return (_band_bisect(scale * (c1 + c2), lambeta4, k_max) / scale,
            band_edge_gammas(k_max) / scale[:, 0])


def _alternating_solves(geometry: DeviceGeometry, profile: AlternatingProfile,
                        eps: np.ndarray, bc: BoundaryCondition, n_max: int,
                        k_max: int):
    """gammas[p, n-1, k-1] and band upper edges[p, k-1] of the layout with
    length2 = eps[p] * length1, for every p, NaN for a rejected level; the
    single-family layouts are bisected together, and so are the band
    brackets of all two-family layouts, one lane per level."""
    betas = beam_roots(bc, n_max)
    gammas = np.empty((eps.size, n_max, k_max))
    upper = np.empty((eps.size, k_max))
    c1, c2 = _alternating_coeffs(geometry, profile)  # 0.0 when empty
    lam1 = profile.length1 / geometry.beam_length
    # one shared pole set would make the two-family regularized form
    # vanish quadratically at the edges
    single = (c1 == 0.0) | (c2 == 0.0) | (np.abs(eps - 1.0) < 1e-12)
    if single.any():
        gammas[single], upper[single] = _single_family(
            eps[single], lam1, betas, k_max, c1, c2)
    paired = np.flatnonzero(~single)
    if not paired.size:
        return gammas, upper
    lo, hi, lower, top = _band_brackets(eps[paired], k_max)    # (P, k)
    upper[paired] = top
    e = eps[paired]
    mid = 0.5 * (lo + hi)
    # the secular function rises from -inf in every band, and the
    # denominators keep one sign inside it
    neg = np.signbit(-_scaled_nd(mid)[1] * _scaled_nd(e[:, None] * mid)[1])
    lb4 = (lam1 * betas) ** 4
    shape = (paired.size, n_max, k_max)

    def lanes(idx):
        p, n, k = np.unravel_index(idx, shape)
        return lo[p, k], hi[p, k], neg[p, k], (e[p], lb4[n])

    def model(idx, lo, hi, params):
        return _shear_model(
            lo, hi, lambda g: _alternating_shear(g, c1, c2, params[0]))

    found = _solve_lanes(
        shape, lanes, model,
        lambda g, e, lb4: _alternating_slope(g, c1, c2, e, lb4),
        lambda g, e, lb4: _regular_alternating(g, c1, c2, e, lb4))
    # an end stepped off a merged pole group must still have the sign that
    # the bracket assumes, or the bracket may hold no level at all
    p, n, k = np.nonzero(np.broadcast_to(
        ((lo != lower) | (hi != top))[:, None], shape))
    lo, hi, lower, top, neg = (v[p, k] for v in (lo, hi, lower, top, neg))

    def f(g):
        return _regular_alternating(g, c1, c2, e[p], lb4[n])

    rejected = (((lo != lower) & (np.signbit(f(lo)) != neg))
                | ((hi != top) & (np.signbit(f(hi)) == neg)))
    found[p[rejected], n[rejected], k[rejected]] = np.nan
    gammas[paired] = found
    counts = np.bincount(p[rejected], minlength=paired.size).tolist()
    for p, count in zip(paired, counts):
        if count:
            warnings.warn(
                f"epsilon={float(eps[p])!r}: {count} two-family "
                "level(s) rejected: a bracket end stepped off a merged pole "
                "pair has the wrong sign", stacklevel=3)
    return gammas, upper


def solve_alternating(geometry: DeviceGeometry, profile: AlternatingProfile,
                      bc: BoundaryCondition, n_max: int, k_max: int):
    """Levels of the interleaved array, as solve_uniform returns them, with
    NaN for a rejected level; band index counts the merged-pole intervals
    (band 1 is (0, first pole)).

    Each beam index has exactly one level per band (Wittrick-Williams: the
    secular function rises from -inf to +inf between consecutive poles), so
    every (n, k) is one edge-to-edge bracket of the regularized form.  A
    bracket end stepped off a merged twin-pole group must still show the
    expected sign; a level whose end fails that check is rejected and
    counted in one warning.  Degenerate layouts (one family empty, or equal
    lengths) share a single pole set and reduce exactly to the single-family
    solver instead.
    """
    gammas, upper = _alternating_solves(
        geometry, profile, np.array([profile.epsilon]), bc, n_max, k_max)
    return (gammas[0], upper[0],
            geometry.cantilever_wave_scale / profile.length1 ** 2)


def sweep_alternating(geometry: DeviceGeometry, profile: AlternatingProfile,
                      bc: BoundaryCondition, values, n_max: int, k_max: int):
    """Spectrum vs epsilon, like sweep_uniform: yields (value, gammas,
    scale) for each value, where gammas[n-1, k-1] are the levels of
    solve_alternating with length2 = value * length1, bit for bit, NaN for
    a rejected level, and omega = scale * gamma^2.  The length2 checks,
    the brackets and the bisection take all values at once."""
    values = np.asarray(values, dtype=float)
    length2 = values * profile.length1
    bad = ~((length2 > 0.0) & (length2 <= profile.length1))   # NaN, inf too
    if bad.any():
        # the first such value fails a check of AlternatingProfile
        first = bad.argmax()
        try:
            replace(profile, length2=float(length2[first]))
        except ConfigError as exc:
            raise ConfigError(
                f"sweep epsilon = {float(values[first])!r}: {exc}") from exc
    gammas, _ = _alternating_solves(
        geometry, profile, length2 / profile.length1, bc, n_max, k_max)
    scale = geometry.cantilever_wave_scale / profile.length1 ** 2
    for value, grid in zip(values.tolist(), gammas):
        yield value, grid, scale


def sweep_uniform(geometry: DeviceGeometry, profile: UniformProfile,
                  bc: BoundaryCondition, parameter: str, values,
                  n_max: int, k_max: int):
    """Spectrum vs one swept parameter ('lambda', 'nu' or 'N').

    Yields (value, gammas, scale); lam and nu of all points are computed
    and checked at once, and one bisection serves them all.  Sweeping
    lambda rescales the cantilever length at fixed beam length.
    """
    values = np.asarray(values, dtype=float)
    base = dimensionless(geometry, profile)
    lam, nu = np.full(values.size, base.lam), np.full(values.size, base.nu)
    lengths = [profile.length] * values.size
    if parameter == "lambda":
        lam = values
        lengths = [v * geometry.beam_length for v in values.tolist()]
    elif parameter == "nu":
        nu = values
    elif parameter == "N":
        nu = 2.0 * values * geometry.cantilever_width / geometry.beam_width
    else:
        raise ConfigError(f"sweep: unknown parameter {parameter!r}")
    bad = ~(np.isfinite(lam) & (lam > 0.0) & np.isfinite(nu) & (nu >= 0.0))
    if bad.any():
        # the first such point fails a check of DimensionlessParams
        first = bad.argmax()
        try:
            DimensionlessParams(lam=float(lam[first]), nu=float(nu[first]))
        except ConfigError as exc:
            raise ConfigError(f"sweep {parameter} = "
                              f"{float(values[first])!r}: {exc}") from exc
    gammas = _uniform_gammas(nu, lam, beam_roots(bc, n_max), k_max)
    for value, length, grid in zip(values.tolist(), lengths, gammas):
        # a scalar ** 2: an array square can differ from it in the last bit
        yield value, grid, geometry.cantilever_wave_scale / length ** 2
