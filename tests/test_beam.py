import numpy as np
import pytest

from scipy.optimize import brentq

from cantarray.beam import beam_modes, beam_roots, secular_residual
from cantarray.kernel import band_edge_gammas
from cantarray.model import BoundaryCondition
from cantarray.quadrature import fixed_quad

from oracles import clamped_free_root, doubly_clamped_root

CC = BoundaryCondition.CLAMPED_CLAMPED
CF = BoundaryCondition.CLAMPED_FREE


def test_roots_match_independent_bisection():
    got_cc = beam_roots(CC, 10)
    got_cf = beam_roots(CF, 10)
    for n in range(1, 11):
        assert got_cc[n - 1] == pytest.approx(doubly_clamped_root(n), abs=1e-11)
        assert got_cf[n - 1] == pytest.approx(clamped_free_root(n), abs=1e-11)


def test_roots_approach_asymptotes():
    # cc -> (n + 1/2) pi, cf -> (n - 1/2) pi, exponentially fast
    r = beam_roots(CC, 30)
    assert abs(r[29] - 30.5 * np.pi) < 1e-12
    r = beam_roots(CF, 30)
    assert abs(r[29] - 29.5 * np.pi) < 1e-12


def test_clamped_free_roots_are_the_band_edges():
    for n in range(1, 201):
        assert beam_roots(CF, n).tobytes() == band_edge_gammas(n).tobytes()


def test_clamped_clamped_roots_equal_a_fresh_solve_per_n():
    # bit for bit: root n of cos - sech in (n pi, (n+1) pi), as solved
    # before the kernel's root table held it
    fresh = np.array([
        brentq(lambda b: float(np.cos(b) - 1.0 / np.cosh(b)), n * np.pi,
               (n + 1) * np.pi, xtol=1e-15, rtol=4 * np.finfo(float).eps)
        for n in range(1, 61)])
    assert beam_roots(CC, 60).tobytes() == fresh.tobytes()


def test_secular_residual_zero_at_roots_only():
    roots = beam_roots(CC, 6)
    assert np.all(np.abs(secular_residual(roots, CC)) < 1e-12)
    mids = 0.5 * (roots[:-1] + roots[1:])
    vals = secular_residual(mids, CC)
    assert np.all(np.abs(vals) > 1e-3)
    # residual changes sign across each root
    eps = 1e-6
    left = secular_residual(roots - eps, CC)
    right = secular_residual(roots + eps, CC)
    assert np.all(np.sign(left) != np.sign(right))


def test_clamped_end_conditions():
    for bc in (CC, CF):
        for m in beam_modes(bc, 5):
            assert abs(m(0.0)) < 1e-12
            assert abs(m(0.0, 1)) < 1e-12


def test_far_end_conditions():
    for m in beam_modes(CC, 5):
        assert abs(m(1.0)) < 1e-9
        assert abs(m(1.0, 1)) < 1e-8
    for m in beam_modes(CF, 5):
        assert abs(m(1.0, 2)) < 1e-7 * m.beta ** 2


def test_orthonormality():
    modes = beam_modes(CC, 8)
    gram = np.empty((8, 8))
    for i, mi in enumerate(modes):
        for j, mj in enumerate(modes):
            gram[i, j] = fixed_quad(lambda u: mi(u) * mj(u), 0.0, 1.0,
                                    panels=24)
    assert np.allclose(gram, np.eye(8), atol=1e-10)


def test_fourth_derivative_identity():
    # phi'''' = beta^4 phi, probed with a finite-difference second
    # derivative of the analytic second derivative
    for bc in (CC, CF):
        for m in beam_modes(bc, 6):
            h = 1e-4
            for u in (0.23, 0.51, 0.74):
                d4 = (m(u - h, 2) - 2.0 * m(u, 2) + m(u + h, 2)) / h ** 2
                expect = m.beta ** 4 * m(u)
                scale = m.beta ** 4 * max(abs(m(u)), 0.1)
                assert abs(d4 - expect) < 1e-5 * scale


def test_curvature_sign_convention():
    for bc in (CC, CF):
        for m in beam_modes(bc, 6):
            assert m(0.0, 2) < 0.0


def test_fundamental_has_negative_mean():
    m = beam_modes(CC, 1)[0]
    mean = fixed_quad(lambda u: m(u), 0.0, 1.0, panels=8)
    assert mean < -0.8


def test_unit_norm():
    for bc in (CC, CF):
        for m in beam_modes(bc, 12):
            n2 = fixed_quad(lambda u: m(u) ** 2, 0.0, 1.0,
                            panels=max(8, m.n + 4))
            assert n2 == pytest.approx(1.0, abs=1e-11)


def test_large_index_stability():
    # scaled evaluation stays finite and normalized where cosh overflows
    m = beam_modes(CC, 40)[-1]
    u = np.linspace(0.0, 1.0, 401)
    vals = m(u)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) < 3.0
