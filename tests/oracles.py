"""Independent reference values computed with mpmath bisection, scalar
reference versions of batched code (band brackets among them), the
Galerkin root loop with one bisection per round, a knot-aligned
high-order Galerkin projection, an exactly summed comb projection and the
canonical dict form of a config.

Nothing here imports the package under test; the characteristic equations
are restated from scratch so root comparisons are a genuine cross-check.
"""

import json
from dataclasses import asdict
from fractions import Fraction

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


def peak_shift_roots(p):
    """(z2, branch) at each real root of the flexing mode's peak cubic,
    ascending, from mpmath.polyroots at 60 digits.

    With mode 1 at its peak, z1 = (F1 / (w1 mu1))^2, and mode 2 at zero
    detuning, mode 2's condition reads z2 ((C2 z2 + C12 z1)^2
    + 16 (w2 mu2)^2) = 16 F2^2, solved here in units of z2's largest value
    (F2 / (w2 mu2))^2.  The branch is '+' where the bracket C2 z2 + C12 z1
    is negative (the detuning lies above the backbone), '-' otherwise.
    """
    with mp.workdps(60):
        c2, c12 = mp.mpf(p.self_coupling2), mp.mpf(p.cross_coupling)
        z1 = (mp.mpf(p.drive1) / (mp.mpf(p.omega1) * p.damping1)) ** 2
        d2 = mp.mpf(p.omega2) * p.damping2
        top = (p.drive2 / d2) ** 2
        roots = mp.polyroots([(c2 * top) ** 2, 2 * c2 * c12 * z1 * top,
                              (c12 * z1) ** 2 + 16 * d2 ** 2, -16 * d2 ** 2],
                             maxsteps=500, extraprec=400)
        real = sorted(mp.re(r) * top for r in roots
                      if abs(mp.im(r)) <= mp.mpf(10) ** -40 * abs(r))
        return [(float(z), "+" if c2 * z + c12 * z1 < 0 else "-")
                for z in real]


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


def pole_groups(eps, count1, count2, gamma_max, band_edges, merge_rtol):
    """Scalar reference for the two-family pole groups, one pole at a time.

    Family 1 poles sit at the band edges gamma_k (band_edges(k_max) returns
    the first k_max, ascending), family 2 at gamma_k / eps; a family with no
    cantilevers has none.  The poles up to gamma_max are sorted by (gamma,
    family), and each one closer than merge_rtol (relative) to the first
    member of the group before it joins that group.  Returns (first, last,
    family) per group, family 0 for a merged group.
    """
    poles = []
    if count1 > 0:
        edges = band_edges(int(gamma_max / np.pi) + 2)
        poles += [(float(g), 1) for g in edges if g <= gamma_max]
    if count2 > 0:
        edges = band_edges(int(gamma_max * eps / np.pi) + 2)
        poles += [(float(g / eps), 2) for g in edges if g / eps <= gamma_max]
    poles.sort()
    groups = []
    for g, fam in poles:
        if groups and g - groups[-1][0] < merge_rtol * g:
            groups[-1] = (groups[-1][0], g, 0)
        else:
            groups.append((g, g, fam))
    return groups


def band_brackets(eps, k_max, band_edges, merge_rtol, step_rtol):
    """Scalar reference for the two-family band brackets: rows (lo, hi,
    band_lower, band_upper) of bands 1..k_max.

    The pole groups are taken up to one past band edge k_max, a range grown
    1.6-fold until it holds k_max groups.  Band k lies between groups k-1
    and k (band 1 from 0); a bracket steps off a merged group by the span of
    its members, at least step_rtol relative, from the member on the far
    side of the band.
    """
    gamma_hi = band_edges(k_max)[-1] + 1.0
    while True:
        groups = pole_groups(eps, 1, 1, gamma_hi, band_edges, merge_rtol)
        if len(groups) >= k_max:
            break
        gamma_hi *= 1.6
    rows, below = [], (0.0, 0.0)    # band edge, bracket start above it
    for first, last, fam in groups[:k_max]:
        step = max(last - first, step_rtol * last) if fam == 0 else 0.0
        rows.append((below[1], first - step, below[0], first))
        below = (first, last + step)
    return np.array(rows)


def _bisect_fixed(f, lo, hi, f_lo, iters=110):
    """Array bisection that always takes `iters` halvings: the reference for
    a bisection that stops once no bracket moves.  f_lo gives the sign of f
    at lo (sign bit) and follows f(mid) whenever lo moves."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        take = np.signbit(f_mid) == np.signbit(f_lo)
        lo = np.where(take, mid, lo)
        f_lo = np.where(take, f_mid, f_lo)
        hi = np.where(take, hi, mid)
    return 0.5 * (lo + hi)


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


def comb_projection(betas, alpha_l, weight, t, phi):
    """Galerkin matrix D(alpha) of a discrete comb, summed exactly:

        D_mn = (beta_m^4 - (alpha L)^4) delta_mn
               - weight * sum_j t_j phi_m(x_j) phi_n(x_j),

    with betas (M,), alpha_l = alpha*L, weight, the kernel values t (J,)
    and the basis values phi (M, J) taken as exact rationals of their
    floats, every entry rounded to float once at the end.
    """
    t = [Fraction(v) for v in np.asarray(t, dtype=float).tolist()]
    phi = [[Fraction(v) for v in row]
           for row in np.asarray(phi, dtype=float).tolist()]
    w, al4 = Fraction(weight), Fraction(alpha_l) ** 4
    m_count = len(phi)
    d = np.empty((m_count, m_count))
    for m in range(m_count):
        for n in range(m, m_count):
            s = sum(tj * pm * pn for tj, pm, pn in zip(t, phi[m], phi[n]))
            exact = -w * s
            if m == n:
                exact += Fraction(float(betas[m])) ** 4 - al4
            d[m, n] = d[n, m] = float(exact)
    return d


def plain_bisection_roots(segments, spectrum, brent):
    """Reference for galerkin._roots: its lockstep loop before the
    lookahead, one bisection per round.

    spectrum(alphas) gives the ascending eigenvalues at each alpha of a 1-D
    array; brent is the generator form of brentq (numerics.brent), driven
    on eigenvalue c_lo of each bracket holding one crossing with rtol 4 eps
    and xtol 1e-300.  A piece narrower than 1e-14 relative that still holds
    several crossings yields its midpoint once per crossing.
    """
    evals = {}

    def evaluate(alphas):
        new = [a for a in dict.fromkeys(alphas) if a not in evals]
        if new:
            evals.update(zip(new, spectrum(np.array(new))))

    def count(a):
        return int(np.sum(evals[a] < 0.0))

    evaluate([a for seg in segments for a in seg])
    brackets = [(lo, hi, count(lo), count(hi)) for lo, hi in segments]
    lanes, roots = [], []
    while True:
        splits = []
        for lo, hi, c_lo, c_hi in brackets:
            if c_hi - c_lo == 1:
                steps = brent(lo, hi, xtol=1e-300,
                              rtol=4.0 * np.finfo(float).eps)
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


def overlap_arrays(shapes, quad, cumulative_square_quad):
    """Mass, damping, stretch and curvature overlaps of two carried shapes,
    every integrand evaluating its shapes itself: shapes[i](v, d) is the
    relative deflection (or its d-th derivative), h_i = 1 + chi_i, quad(f)
    integrates f on [0, 1] and cumulative_square_quad(f) integrates the
    square of its running integral there.
    """
    def h(i, v, d=0):
        chi = shapes[i](v, d)
        return chi + 1.0 if d == 0 else chi

    mass, damp, stretch = np.empty((2, 2)), np.empty((2, 2)), np.empty((2, 2))
    for i in range(2):
        for j in range(i, 2):
            mass[i, j] = mass[j, i] = quad(lambda v: h(i, v) * h(j, v))
            stretch[i, j] = stretch[j, i] = cumulative_square_quad(
                lambda v: h(i, v, 1) * h(j, v, 1))
        for j in range(2):
            damp[i, j] = quad(lambda v: h(i, v) * shapes[j](v))
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
    return mass, damp, stretch, curv


def config_to_dict(config) -> dict:
    """Canonical dict form of a parsed config as it was first written, with
    the to_dict methods of the geometry and the four profiles inlined; it
    fixes the bytes that `config_sha256` hashes."""
    out: dict = {
        "geometry": ({"preset": config.preset_name} if config.preset_name
                     else asdict(config.geometry)),
        "boundary": {"kind": config.boundary.value},
        "profile": _profile_to_dict(config.profile),
        "spectrum": {"n_max": config.spectrum.n_max, "k_max": config.spectrum.k_max},
        "galerkin": {"basis_size": config.galerkin.basis_size,
                     "quadrature": {"order": config.galerkin.quadrature_order,
                                    "rtol": config.galerkin.quadrature_rtol}},
    }
    nl = config.nonlinear

    def sweep_dict(v):
        if type(v).__name__ == "SweepRange":
            return {"from": v.start, "to": v.stop, "points": v.points}
        return v

    out["nonlinear"] = {"c_y": nl.damping_beam, "c_eta": nl.damping_cantilever,
                        "f1": nl.force1, "f2": nl.force2,
                        "sigma1": sweep_dict(nl.sigma1),
                        "sigma2": sweep_dict(nl.sigma2)}
    return out


def _profile_to_dict(profile) -> dict:
    kind = type(profile).__name__
    if kind == "UniformProfile":
        return {"kind": "uniform", "length": profile.length}
    if kind == "AlternatingProfile":
        return {"kind": "alternating", **asdict(profile)}
    if kind == "TabulatedProfile":
        return {"kind": "tabulated", "x": list(profile.x),
                "length": list(profile.length), "density": list(profile.density)}
    assert kind == "DiscreteProfile", kind
    return {"kind": "discrete", "positions": list(profile.positions),
            "lengths": list(profile.lengths)}
