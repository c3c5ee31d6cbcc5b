"""Bracketed scalar roots and monotone interpolation, on numpy alone.

brentq is Brent's method (Brent, *Algorithms for Minimization without
Derivatives*, 1973, ch. 4) in the form of SciPy's ``brentq.c``: the same
iterates, tolerances and stopping rule, so its roots equal
``scipy.optimize.brentq``'s bit for bit.  Pchip is the monotone piecewise
cubic Hermite interpolant of Fritsch & Carlson (SIAM J. Numer. Anal. 17,
1980) with SciPy's ``PchipInterpolator`` derivative and end-point rules,
stored and evaluated in power form in SciPy's operation order, so its
values equal SciPy's bit for bit, extrapolation included.
"""
from __future__ import annotations

from math import copysign, isnan

import numpy as np

_BRENT_RTOL_MIN = 4 * np.finfo(float).eps


def _negative(v: float) -> bool:
    """C signbit: True for negative values and -0.0."""
    return copysign(1.0, v) < 0.0


def _div(n: float, d: float) -> float:
    """n / d as in C: +-inf or nan where Python raises ZeroDivisionError."""
    if d != 0:
        return n / d
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.float64(n) / d)


def brentq(f, a: float, b: float, xtol: float = 2e-12,
           rtol: float = _BRENT_RTOL_MIN, maxiter: int = 100) -> float:
    """Root of f in [a, b], where f(a) and f(b) differ in sign.

    Stops when the bracket is narrower than xtol + rtol*|x|.  Raises
    ValueError for a same-sign bracket, a NaN value of f or an invalid
    tolerance, and RuntimeError after maxiter iterations.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENT_RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENT_RTOL_MIN:g})")

    def value(x: float) -> float:
        fx = float(f(x))
        if isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _negative(fpre) == _negative(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _negative(fpre) != _negative(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = _div(-fcur * (xcur - xpre), fcur - fpre)  # interpolate
            else:
                dpre = _div(fpre - fcur, xpre - xcur)            # extrapolate
                dblk = _div(fblk - fcur, xblk - xcur)
                stry = _div(-fcur * (fblk * dblk - fpre * dpre),
                            dblk * dpre * (fblk - fpre))
            bound = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
                spre, scur = scur, stry                          # short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, "
                       f"value is {xcur!r}")


def _pchip_end_slope(h0, h1, m0, m1) -> float:
    """Shape-preserving one-sided three-point slope at an end knot."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_slopes(h: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Knot derivatives from knot spacings h and secant slopes m: zero at a
    local extremum or flat secant, else the weighted harmonic mean."""
    if m.size == 1:
        return np.array([m[0], m[0]])
    s = np.sign(m)
    flat = (s[1:] != s[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        inner = np.where(flat, 0.0, 1.0 / whmean)
    return np.concatenate(([_pchip_end_slope(h[0], h[1], m[0], m[1])], inner,
                           [_pchip_end_slope(h[-1], h[-2], m[-1], m[-2])]))


class Pchip:
    """Monotone cubic interpolant through (x, y); x strictly increasing.

    Calling it evaluates at any points, extrapolating the end cubics outside
    [x[0], x[-1]].
    """

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(self.x)
        m = np.diff(y) / h
        d = _pchip_slopes(h, m)
        t = (d[:-1] + d[1:] - 2 * m) / h
        # power-form coefficients per interval, highest power first
        self._c = np.stack((t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]))

    def __call__(self, xi) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        i = np.clip(np.searchsorted(self.x, xi, side="right") - 1,
                    0, self.x.size - 2)
        s = xi - self.x[i]
        # sum of c_k s^k from the constant term up, s^k by repeated products:
        # SciPy's rounding, which Horner's rule would not reproduce
        res, z = 0.0, 1.0
        for p, row in enumerate(self._c[::-1]):
            res = res + row[i] * z
            if p < len(self._c) - 1:
                z = z * s
        return np.asarray(res)
