import math

import numpy as np
import pytest

from cantarray.quadrature import (QuadratureError, adaptive_quad,
                                  cumulative_square_quad, fixed_quad,
                                  gauss_rule, panel_nodes)


def test_gauss_rule_integrates_polynomials_exactly():
    x, w = gauss_rule(5)
    assert w.sum() == pytest.approx(2.0, rel=1e-15)
    # degree 2*5-1 = 9 is exact
    assert np.dot(w, x ** 8) == pytest.approx(2.0 / 9.0, rel=1e-14)
    assert abs(np.dot(w, x ** 9)) < 1e-15


def test_panel_nodes_cover_interval():
    edges = np.array([0.0, 0.3, 1.0])
    nodes, weights = panel_nodes(edges, order=4)
    assert nodes.size == 8
    assert np.all((nodes > 0) & (nodes < 1))
    assert weights.sum() == pytest.approx(1.0, rel=1e-15)


def test_fixed_quad_smooth():
    got = fixed_quad(np.sin, 0.0, math.pi, panels=4)
    assert got == pytest.approx(2.0, rel=1e-13)


def test_adaptive_quad_oscillatory():
    got = adaptive_quad(lambda x: np.cos(40.0 * x), 0.0, 1.0, rtol=1e-12)
    assert got == pytest.approx(math.sin(40.0) / 40.0, rel=1e-11)


def test_adaptive_quad_needs_atol_for_vanishing_integrals():
    f = lambda x: np.sin(2.0 * math.pi * x)
    with pytest.raises(QuadratureError):
        adaptive_quad(f, 0.0, 1.0, rtol=1e-13, initial_panels=1, order=2)
    got = adaptive_quad(f, 0.0, 1.0, rtol=1e-13, initial_panels=1, order=2,
                        atol=1e-13)
    assert abs(got) < 1e-13


def test_cumulative_square_quad_matches_closed_form():
    # f = 2v: inner integral v^2, outer integral of v^4 over [0,1] is 1/5
    got = cumulative_square_quad(lambda v: 2.0 * v, 0.0, 1.0, rtol=1e-12)
    assert got == pytest.approx(0.2, rel=1e-12)
    # f = cos: int_0^1 sin(v)^2 dv
    expect = 0.5 - math.sin(2.0) / 4.0
    got = cumulative_square_quad(np.cos, 0.0, 1.0, rtol=1e-12)
    assert got == pytest.approx(expect, rel=1e-12)


def test_both_doubling_quadratures_stop_at_the_cap():
    # 10^5 rad of oscillation outruns 2-point rules on up to 8192 panels:
    # 13 rule evaluations, one f call each (two for the nested rule)
    calls = []

    def f(v):
        calls.append(v.size)
        return np.cos(1e5 * v)

    with pytest.raises(QuadratureError, match="within 8192 panels"):
        adaptive_quad(f, 0.0, 1.0, rtol=1e-12, initial_panels=2, order=2)
    assert len(calls) == 13
    calls.clear()
    with pytest.raises(QuadratureError, match="nested integral"):
        cumulative_square_quad(f, 0.0, 1.0, rtol=1e-12, initial_panels=2,
                               order=2)
    assert len(calls) == 26
