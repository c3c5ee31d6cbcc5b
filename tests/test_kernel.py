import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from cantarray import kernel
from cantarray.beam import beam_roots
from cantarray.kernel import (POLE_TOL, CantileverShape, PoleProximityError,
                              band_edge_gammas, band_edges_reaching,
                              check_pole_distance, nearest_band_edge,
                              shear_kernel)
from cantarray.model import BoundaryCondition
from cantarray.quadrature import adaptive_quad

from oracles import clamped_free_root, first_pole_hit


def test_band_edges_match_independent_bisection():
    edges = band_edge_gammas(8)
    for k in range(1, 9):
        assert edges[k - 1] == pytest.approx(clamped_free_root(k), abs=1e-11)


def test_band_edges_equal_a_fresh_solve_per_k():
    # the memoized edges are the brentq roots bit for bit; the closed form
    # (k - 1/2) pi is not: it is 1 ulp off at k = 21, 23, 26, 28, ...
    fresh = np.array([
        brentq(lambda g: float(np.cos(g) + 1.0 / np.cosh(g)),
               (k - 1) * np.pi if k > 1 else 1e-6, k * np.pi, xtol=1e-15)
        for k in range(1, 61)])
    first = band_edge_gammas(60)
    assert np.array_equal(first, fresh)
    first[:] = 0.0  # callers own the returned array
    assert np.array_equal(band_edge_gammas(60), fresh)


def test_root_table_solves_each_root_once_per_process(monkeypatch):
    real, calls = kernel.brentq, []

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    def solve():
        return (beam_roots(BoundaryCondition.CLAMPED_CLAMPED, 12),
                band_edge_gammas(12))

    monkeypatch.setattr(kernel, "brentq", counted)
    kernel.cos_cosh_root.cache_clear()
    first = solve()
    assert len(calls) == 24   # 12 clamped-clamped roots and 12 band edges
    calls.clear()
    again = solve()
    assert calls == []
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))


_ALL_EDGES = band_edge_gammas(int(1e3 / np.pi) + 2)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1e3))
def test_edges_reaching_gamma_cover_it(gamma):
    edges = band_edges_reaching(gamma)
    assert np.array_equal(edges[edges <= gamma],
                          _ALL_EDGES[_ALL_EDGES <= gamma])
    assert edges[-1] > gamma


def test_pole_error_names_the_nearest_edge():
    for k, edge in enumerate(band_edge_gammas(12), start=1):
        with pytest.raises(PoleProximityError) as err:
            check_pole_distance([0.5 * edge, edge])
        assert err.value.k == nearest_band_edge(edge)[0] == k


_EDGES = band_edge_gammas(40)
_OFFSETS = (-1.001, -0.999, -0.5, 0.0, 0.5, 0.999, 1.001)
_GAMMAS = st.one_of(
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0, -_EDGES[0]]),
    st.floats(min_value=-10.0, max_value=120.0),
    st.builds(lambda k, off: float(_EDGES[k] + off * POLE_TOL),
              st.integers(0, len(_EDGES) - 1), st.sampled_from(_OFFSETS)))


@settings(max_examples=400, deadline=None)
@given(st.lists(_GAMMAS, max_size=12))
def test_pole_check_matches_scalar_reference(gammas):
    expected = first_pole_hit(gammas, band_edge_gammas, POLE_TOL)
    try:
        check_pole_distance(np.array(gammas, dtype=float), where="g")
    except PoleProximityError as exc:
        assert expected == (exc.gamma, exc.k) and exc.where == "g"
    else:
        assert expected is None


def test_band_edge_literals():
    edges = band_edge_gammas(4)
    assert edges[0] == pytest.approx(1.8751040687, abs=1e-9)
    assert edges[1] == pytest.approx(4.6940911330, abs=1e-9)
    assert edges[2] == pytest.approx(7.8547574382, abs=1e-9)
    assert edges[3] == pytest.approx(10.99554073, abs=1e-7)


def test_kernel_small_argument_series():
    for g in (1e-3, 1e-2, 0.1, 0.3):
        series = g + g ** 5 / 20.0
        assert shear_kernel(g) == pytest.approx(series, rel=4.0 * g ** 8)


def test_kernel_zeros_at_half_symmetric_support_roots():
    # T vanishes exactly where gamma is half an odd-index clamped-clamped root
    cc = beam_roots(BoundaryCondition.CLAMPED_CLAMPED, 5)
    for idx in (1, 3, 5):
        z = cc[idx - 1] / 2.0
        assert abs(shear_kernel(z)) < 1e-10


def test_kernel_pole_raise_and_sign_flip():
    e1 = band_edge_gammas(1)[0]
    with pytest.raises(PoleProximityError):
        shear_kernel(e1)
    with pytest.raises(PoleProximityError):
        shear_kernel(e1 + 0.5 * POLE_TOL)
    below = shear_kernel(e1 - 1e-6)
    above = shear_kernel(e1 + 1e-6)
    assert below > 1e5 and above < -1e5


def test_mean_carried_shape_equals_kernel_over_gamma():
    for g in (0.05, 0.9, 2.05, 7.0, 30.0):
        sh = CantileverShape(g)
        mean = adaptive_quad(lambda v: sh(v) + 1.0, 0.0, 1.0)
        assert mean == pytest.approx(shear_kernel(g) / g, rel=1e-12, abs=1e-13)


def test_shape_boundary_conditions():
    for g in (0.2, 1.3, 2.05, 6.0, 18.0, 60.0):
        sh = CantileverShape(g)
        scale = max(np.max(np.abs(sh(np.linspace(0, 1, 33)))), 1e-12)
        assert abs(sh(0.0)) < 1e-11 * max(scale, 1.0)
        assert abs(sh(0.0, 1)) < 1e-10 * max(scale, 1.0) * g
        assert abs(sh(1.0, 2)) < 1e-9 * max(scale, 1.0) * g ** 2
        assert abs(sh(1.0, 3)) < 1e-9 * max(scale, 1.0) * g ** 3


def test_shape_satisfies_beam_equation():
    # chi'''' = gamma^4 (chi + 1), FD fourth derivative at mid-span
    stencil = np.array([-1.0 / 6, 2.0, -13.0 / 2, 28.0 / 3, -13.0 / 2, 2.0,
                        -1.0 / 6])
    offsets = np.arange(-3, 4)
    for g in (0.5, 1.1, 2.05, 5.0, 9.0):
        sh = CantileverShape(g)
        h = 0.01
        d4 = sum(c * sh(0.5 + o * h) for c, o in zip(stencil, offsets)) / h ** 4
        rhs = g ** 4 * (sh(0.5) + 1.0)
        # cancellation in the stencil sum leaves ~1e-7 absolute noise at
        # small gamma; truncation grows like gamma^8 h^4 at large gamma
        assert d4 == pytest.approx(rhs, rel=5e-5, abs=1e-5)


def test_shape_extreme_gamma_finite():
    sh = CantileverShape(200.0)
    v = np.linspace(0.0, 1.0, 101)
    for d in range(4):
        vals = sh(v, d)
        assert np.all(np.isfinite(vals))


def test_shape_zero_gamma_rides_rigidly():
    sh = CantileverShape(0.0)
    v = np.linspace(0.0, 1.0, 11)
    assert np.all(sh(v) == 0.0)
    assert np.all(sh(v, 1) == 0.0)


def test_kernel_vectorized_matches_scalar():
    grid = np.array([0.3, 1.0, 2.2, 5.5])
    vec = shear_kernel(grid)
    for g, v in zip(grid, vec):
        assert shear_kernel(float(g)) == v
