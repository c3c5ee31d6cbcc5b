"""Independent reference values computed with mpmath bisection, scalar
reference versions of batched code, and a knot-aligned high-order Galerkin
projection.

Nothing here imports the package under test; the characteristic equations
are restated from scratch so root comparisons are a genuine cross-check.
"""

import json

import mpmath as mp
import numpy as np
from scipy.interpolate import PchipInterpolator

mp.mp.dps = 40


def _bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = (lo + hi) / 2
        fm = f(mid)
        if mp.sign(fm) == mp.sign(flo):
            lo, flo = mid, fm
        else:
            hi = mid
    return (lo + hi) / 2


def doubly_clamped_root(n: int) -> float:
    """n-th root of cos(x)cosh(x) = 1, written overflow-safe."""
    f = lambda x: mp.cos(x) - 1 / mp.cosh(x)
    lo = mp.mpf(n) * mp.pi
    return float(_bisect(f, lo, lo + mp.pi))


def clamped_free_root(n: int) -> float:
    """n-th root of cos(x)cosh(x) = -1; these double as band edges."""
    f = lambda x: mp.cos(x) + 1 / mp.cosh(x)
    lo = (mp.mpf(n) - 1) * mp.pi
    return float(_bisect(f, lo, lo + mp.pi))


def first_pole_hit(gamma, band_edges, tol):
    """Scalar reference for kernel.check_pole_distance, one entry at a time.

    Returns (gamma, k) of the first finite positive entry, in input order,
    within tol of its nearest band edge, or None.  band_edges(k_max) returns
    the first k_max edges ascending; the nearest one is searched among the
    edges up to one past the edge just above gamma.
    """
    arr = np.atleast_1d(np.asarray(gamma, dtype=float))
    for g in arr[np.isfinite(arr) & (arr > 0)]:
        g = float(g)
        k_hi = max(1, int(np.ceil(g / np.pi - 0.5)) + 1)
        edges = band_edges(k_hi + 1)
        k = int(np.argmin(np.abs(edges - g)))
        if abs(g - edges[k]) < tol:
            return g, k + 1
    return None


def steady_state_count(sigma1, sigma2, p):
    """Number of steady states of the two-mode amplitude equations.

    The equations are z_j (D_j^2 + (w_j mu_j)^2) = F_j^2 with brackets
    D_j = (C_j z_j + C12 z_other)/4 - w_j sigma_j M_j.  Along mode 1's
    response curve, parameterised by s = D1, z1 = F1^2/(s^2 + (w1 mu1)^2)
    and z2 = (4 (s + w1 sigma1 M1) - C1 z1)/C12, so the states are the sign
    changes of mode 2's defect along s.  Every state has z_j at most
    (F_j / (w_j mu_j))^2, which bounds |s|; where z2 <= 0 the defect is
    -F2^2 < 0, so no spurious sign change occurs.  p holds the coefficients
    as attributes (omega1, mass1, damping1, self_coupling1, drive1, ... and
    cross_coupling); both modes must be damped and driven, C12 nonzero.
    """
    d1 = p.omega1 * p.damping1
    b1 = p.omega1 * sigma1 * p.mass1
    b2 = p.omega2 * sigma2 * p.mass2
    c12 = p.cross_coupling
    z1_top = (p.drive1 / d1) ** 2
    z2_top = (p.drive2 / (p.omega2 * p.damping2)) ** 2
    s_top = abs(b1) + 0.25 * (abs(p.self_coupling1) * z1_top
                              + abs(c12) * z2_top)
    # sinh spacing: fine near s = 0, where the curve turns, coarse far out
    u_top = np.arcsinh(1.01 * s_top / d1 + 1.0)
    s = d1 * np.sinh(np.linspace(-u_top, u_top, 100001))
    z1 = p.drive1 ** 2 / (s * s + d1 * d1)
    z2 = (4.0 * (s + b1) - p.self_coupling1 * z1) / c12
    d2 = 0.25 * (p.self_coupling2 * z2 + c12 * z1) - b2
    defect = z2 * (d2 * d2 + (p.omega2 * p.damping2) ** 2) - p.drive2 ** 2
    sign = np.sign(defect)
    sign = sign[sign != 0.0]
    return int(np.count_nonzero(sign[1:] != sign[:-1]))


def scalar_alternating_levels(lam1, betas, c1, c2, eps, bands,
                              scan_points=96, iters=110):
    """Scalar reference for the two-family band solve, one bracket at a time.

    For each beam index n and band k, scans (scan_lo, scan_hi) = bands[k-1]
    at scan_points points for sign changes of the pole-free form
    secular * D(g) D(eps g) e^-(1+eps)g and bisects each bracket `iters`
    times on np.float64 scalars.  Returns (n, k, gamma) sorted by (n, k,
    gamma).
    """
    def scaled_nd(g):
        e, e2 = np.exp(-g), np.exp(-2.0 * g)
        ch, sh = 0.5 * (1.0 + e2), 0.5 * (1.0 - e2)
        c, s = np.cos(g), np.sin(g)
        return c * sh + s * ch, e + c * ch

    def regular(g, lambeta4):
        n1, d1 = scaled_nd(g)
        n2, d2 = scaled_nd(eps * g)
        return (g ** 3 * (c1 * n1 * d2 + c2 * n2 * d1)
                + (g ** 4 - lambeta4) * d1 * d2)

    out = []
    for n, beta in enumerate(betas, start=1):
        lambeta4 = (lam1 * np.float64(beta)) ** 4
        for k, (scan_lo, scan_hi) in enumerate(bands, start=1):
            grid = np.linspace(scan_lo, scan_hi, scan_points)
            vals = regular(grid, lambeta4)
            sign = np.sign(vals)
            for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
                lo, hi, flo = grid[i], grid[i + 1], vals[i]
                for _ in range(iters):
                    mid = 0.5 * (lo + hi)
                    fm = regular(mid, lambeta4)
                    if (fm < 0) == (flo < 0):
                        lo, flo = mid, fm
                    else:
                        hi = mid
                out.append((n, k, float(0.5 * (lo + hi))))
    return sorted(out)


def tabulated_projection(alpha, x, length, density, beam_length, width_ratio,
                         modes, kernel, order=32, splits=4):
    """Galerkin matrix D(alpha) of a tabulated profile, restated:

        D_mn = (beta_m^4 - (alpha L)^4) delta_mn
               - L^4 int_0^1 width_ratio rho(uL) alpha^3 T(alpha l(uL))
                 phi_m(u) phi_n(u) du,

    with l and rho from SciPy's PCHIP through the samples and the integral
    by numpy's Gauss-Legendre rule of `order` points on every knot panel
    split `splits` ways, so each sub-panel holds one cubic piece.  modes
    are the beam modes (callables on [0, 1] with a `beta`), kernel the
    shear kernel T(gamma).
    """
    x = np.asarray(x, dtype=float)
    length_of = PchipInterpolator(x, length)
    density_of = PchipInterpolator(x, density)
    t, w = np.polynomial.legendre.leggauss(order)
    u, weights = [], []
    for lo, hi in zip(x[:-1] / x[-1], x[1:] / x[-1]):
        for j in range(splits):
            a = lo + (hi - lo) * j / splits
            b = lo + (hi - lo) * (j + 1) / splits
            u.append(0.5 * (a + b) + 0.5 * (b - a) * t)
            weights.append(0.5 * (b - a) * w)
    u, weights = np.concatenate(u), np.concatenate(weights)
    pot = width_ratio * density_of(u * x[-1]) * alpha ** 3 \
        * kernel(alpha * length_of(u * x[-1])) * beam_length ** 4
    phi = np.array([m(u) for m in modes])
    betas = np.array([m.beta for m in modes])
    return np.diag(betas ** 4 - (alpha * beam_length) ** 4) \
        - (phi * (weights * pot)) @ phi.T


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


def render_rows(columns: list[str], rows: list[list], fmt: str) -> str:
    """Reference CLI table text, one cell at a time: CSV with floats as
    %.17g, bools as true/false; or indented JSON {"columns", "rows"}."""
    if fmt == "json":
        payload = {"columns": columns,
                   "rows": [[x if isinstance(x, str) else
                             (int(x) if isinstance(x, (int, np.integer))
                              and not isinstance(x, bool) else
                              (bool(x) if isinstance(x, bool) else float(x)))
                             for x in row] for row in rows]}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"
