"""Independent reference values computed with mpmath bisection.

Nothing here imports the package under test; the characteristic equations
are restated from scratch so root comparisons are a genuine cross-check.
"""

import mpmath as mp
import numpy as np

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
