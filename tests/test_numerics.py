"""The numpy-only root finder and interpolant equal SciPy's bit for bit.

SciPy is the reference here only; the package itself never imports it.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq as scipy_brentq

from cantarray.galerkin import _roots
from cantarray.numerics import Pchip, brentq

EPS = np.finfo(float).eps


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _outcome(solver, f, a, b, **kw):
    with np.errstate(all="ignore"):
        try:
            return "root", _bits(solver(f, a, b, **kw))
        except (ValueError, RuntimeError) as exc:
            return type(exc).__name__, None


# f(x; p) families: the band-edge residual, a cubic, a line scaled so that
# its values underflow in Brent's step formulas, a flat-topped odd power
# (many bisections), and a log that is NaN left of 0.
FAMILIES = [
    lambda x, p: float(np.cos(x) + 1.0 / np.cosh(x)),
    lambda x, p: x ** 3 - p * x - 1.0,
    lambda x, p: 1e-200 * (x - p),
    lambda x, p: (x - p) ** 5,
    lambda x, p: float(np.log(x)) - p,
]


@settings(max_examples=800, deadline=None)
@given(family=st.integers(0, len(FAMILIES) - 1),
       p=st.floats(-2.0, 2.0),
       a=st.floats(-4.0, 12.0), b=st.floats(-4.0, 12.0),
       log_xtol=st.floats(-300.0, -1.0), rtol_scale=st.floats(1.0, 1e8),
       maxiter=st.integers(0, 100))
def test_brentq_equals_scipy(family, p, a, b, log_xtol, rtol_scale, maxiter):
    def f(x):
        return FAMILIES[family](x, p)

    kw = dict(xtol=10.0 ** log_xtol, rtol=4 * EPS * rtol_scale,
              maxiter=maxiter)
    assert _outcome(brentq, f, a, b, **kw) \
        == _outcome(scipy_brentq, f, a, b, **kw)


@settings(max_examples=300, deadline=None)
@given(lanes=st.lists(st.tuples(st.integers(0, len(FAMILIES) - 1),
                                st.floats(-2.0, 2.0), st.floats(-4.0, 12.0),
                                st.floats(-4.0, 12.0)),
                      min_size=1, max_size=6))
def test_lockstep_brent_lanes_equal_brentq(lanes):
    # the Galerkin root finder advances one Brent lane per bracket, all in
    # the same rounds; each lane must take the iterates of its own brentq.
    # Lane j is a family on [min(a, b), max(a, b)] shifted by 100 j, signed
    # to fall through zero there, as the eigenvalue of a 1x1 "matrix".
    signs = [1.0] * len(lanes)

    def g(x):
        j = int(round(x / 100.0))
        family, p, _, _ = lanes[j]
        return signs[j] * FAMILIES[family](x - 100.0 * j, p)

    segments, want = [], []
    with np.errstate(all="ignore"):
        for j, (_, _, a, b) in enumerate(lanes):
            lo, hi = 100.0 * j + min(a, b), 100.0 * j + max(a, b)
            if g(lo) < 0.0:
                signs[j] = -1.0
            kind, root = _outcome(brentq, g, lo, hi, xtol=1e-300,
                                  rtol=4 * EPS)
            if kind == "root" and g(hi) < 0.0:
                segments.append((lo, hi))
                want.append(np.frombuffer(root)[0])
        got = _roots(segments, lambda alphas: np.array(
            [[g(x)] for x in alphas.tolist()]))
    assert [_bits(r) for r in got] == [_bits(r) for r in sorted(want)]


def test_brentq_errors_match_scipy():
    def f(x):
        return (x - 0.3) ** 5

    cases = [((-1.0, 2.0), {"xtol": 0.0}, "ValueError"),
             ((-1.0, 2.0), {"rtol": EPS}, "ValueError"),
             ((1.0, 2.0), {}, "ValueError"),                  # same sign
             ((-1.0, 2.0), {"maxiter": 3}, "RuntimeError")]
    for (a, b), kw, error in cases:
        assert _outcome(brentq, f, a, b, **kw) == (error, None)
        assert _outcome(scipy_brentq, f, a, b, **kw) == (error, None)
    assert _outcome(brentq, np.log, -1.0, 2.0) == ("ValueError", None)  # NaN
    assert brentq(f, 0.3, 2.0) == 0.3                        # root at an end


def _knots(spacings):
    return np.concatenate(([0.0], np.cumsum(spacings))) - 0.5


@st.composite
def profiles(draw):
    n = draw(st.integers(2, 16))
    x = _knots(draw(st.lists(st.floats(1e-3, 2.0), min_size=n - 1,
                             max_size=n - 1)))
    kind = draw(st.sampled_from(["random", "monotone", "flat", "alternating"]))
    if kind == "flat":
        y = np.full(n, draw(st.floats(-5.0, 5.0)))
    else:
        y = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n,
                                   max_size=n)))
        if kind == "monotone":
            y = np.cumsum(np.abs(y))
        elif kind == "alternating":
            y = np.abs(y) * (-1.0) ** np.arange(n)
    return x, y


@settings(max_examples=300, deadline=None)
@given(data=profiles(), t=st.lists(st.floats(0.0, 1.0), min_size=1,
                                   max_size=20))
def test_pchip_equals_scipy(data, t):
    x, y = data
    span = x[-1] - x[0]
    t = np.array(t)
    points = np.concatenate((
        x,                                           # at the knots
        x[:-1] + t[0] * np.diff(x),                  # between knots
        x[0] + t * span,                             # anywhere inside
        x[0] - (0.01 + t) * span,                    # below the range
        x[-1] + (0.01 + t) * span))                  # above the range
    with np.errstate(over="ignore"):   # subnormal secants, in both
        ours, ref = Pchip(x, y), PchipInterpolator(x, y)
    assert _bits(ours(points)) == _bits(ref(points))
    # scalar input gives a 0-d result, as SciPy's does
    assert np.shape(ours(points[0])) == ()
    assert _bits(ours(points[0])) == _bits(ref(points[0]))


def test_pchip_two_points_is_linear_and_flat_data_stays_flat():
    line = Pchip([0.0, 2.0], [1.0, 5.0])
    assert float(line(1.0)) == 3.0 and float(line(7.0)) == 15.0
    flat = Pchip([0.0, 1.0, 3.0], [2.0, 2.0, 2.0])
    assert np.all(flat(np.linspace(-1.0, 4.0, 11)) == 2.0)
    # a sign-changing secant gives a zero slope at the interior extremum,
    # so the interpolant does not overshoot it
    peak = Pchip([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
    assert np.max(peak(np.linspace(0.0, 2.0, 201))) == 1.0
    assert _bits(peak(0.5)) == _bits(PchipInterpolator(
        [0.0, 1.0, 2.0], [0.0, 1.0, 0.0])(0.5))
