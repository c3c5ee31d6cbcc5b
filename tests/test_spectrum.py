import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from cantarray import spectrum as sp
from cantarray.beam import beam_roots
from cantarray.kernel import band_edge_gammas
from cantarray.model import (AlternatingProfile, BoundaryCondition,
                             ConfigError, DimensionlessParams, UniformProfile,
                             dimensionless, preset_device)
from oracles import (_bisect_fixed, band_brackets, pole_groups,
                     scalar_alternating_levels)

CC = BoundaryCondition.CLAMPED_CLAMPED


def test_uniform_roots_against_brentq():
    # independent root find on the raw secular function, away from the poles
    params = DimensionlessParams(lam=0.3, nu=15.0)
    betas = beam_roots(CC, 4)
    gammas = sp.solve_uniform_dimensionless(params, betas, 4)
    edges = band_edge_gammas(4)
    for n in range(4):
        beta = betas[n]
        for k in range(4):
            lo = 1e-6 if k == 0 else edges[k - 1] + 1e-6
            hi = edges[k] - 1e-6
            f = lambda g: float(sp.secular_uniform(g, params, beta))
            assert f(lo) < 0 < f(hi)
            ref = brentq(f, lo, hi, xtol=1e-13)
            assert gammas[n, k] == pytest.approx(ref, abs=1e-10)


def test_roots_stay_inside_their_bands():
    rng = np.random.default_rng(11)
    betas = beam_roots(CC, 8)
    edges = band_edge_gammas(6)
    for _ in range(80):
        params = DimensionlessParams(lam=rng.uniform(0.01, 2.0),
                                     nu=rng.uniform(0.0, 1000.0))
        if params.nu == 0.0:
            continue
        g = sp.solve_uniform_dimensionless(params, betas, 6)
        for k in range(6):
            lo = 0.0 if k == 0 else edges[k - 1]
            assert np.all(g[:, k] > lo)
            assert np.all(g[:, k] < edges[k])
            # one root per beam index per band, ordered by beam index
            assert np.all(np.diff(g[:, k]) > 0)


def test_unloaded_array_reduces_to_bare_beam():
    params = DimensionlessParams(lam=0.25, nu=0.0)
    betas = beam_roots(CC, 3)
    g = sp.solve_uniform_dimensionless(params, betas, 3)
    assert np.allclose(g[:, 0], 0.25 * betas, rtol=0, atol=1e-14)
    assert np.all(np.isnan(g[:, 1:]))


def test_band_one_root_decreases_with_loading():
    # below the first kernel zero the carried mass only softens the level
    betas = beam_roots(CC, 1)
    lam = 0.3  # lam*beta1 ~ 1.42, inside band 1 territory
    prev = lam * betas[0]
    for nu in (1.0, 10.0, 100.0, 1e4):
        g = sp.solve_uniform_dimensionless(
            DimensionlessParams(lam=lam, nu=nu), betas, 1)[0, 0]
        assert g < prev
        prev = g


def test_crossing_ratio_first_mode():
    lam_star, omega_star = sp.crossing_ratio(1, 2, CC)
    assert lam_star == pytest.approx(0.5, abs=1e-15)
    assert omega_star is None
    with pytest.raises(ConfigError):
        sp.crossing_ratio(1, 1, CC)


def test_crossing_point_is_loading_independent():
    betas = beam_roots(CC, 1)
    pivot = 0.5 * betas[0]
    got = []
    for nu in (0.5, 5.0, 50.0, 500.0):
        g = sp.solve_uniform_dimensionless(
            DimensionlessParams(lam=0.5, nu=nu), betas, 2)[0, 1]
        got.append(g)
    assert np.allclose(got, pivot, rtol=0, atol=1e-9)
    geometry, profile, bc = preset_device("jap1-calibrated")
    _, omega_star = sp.crossing_ratio(1, 2, bc, geometry)
    bare = geometry.beam_wave_scale * (betas[0] / geometry.beam_length) ** 2
    assert omega_star == pytest.approx(bare, rel=1e-15)


def test_solve_uniform_levels_and_validity():
    # the validity flag (n below the pairs per side) is the CLI's; see
    # test_cli.test_spectrum_marks_levels_past_the_pair_count_invalid
    geometry, profile, bc = preset_device("jap1-calibrated")
    gammas, edges, scale = sp.solve_uniform(geometry, profile, bc, n_max=3,
                                            k_max=3)
    assert gammas.shape == (3, 3) and edges.shape == (3,)
    assert edges.tobytes() == band_edge_gammas(3).tobytes()
    lower = np.append(0.0, edges[:-1])
    assert (lower < gammas).all() and (gammas < edges).all()
    for g in gammas.ravel():
        assert scale * g * g == pytest.approx(
            sp.gamma_to_omega(g, geometry, profile.length), rel=1e-15)


def test_near_edge_offset_matches_exact_roots():
    # smaller replay of the acceptance sweep: first-order edge offsets track
    # the exact roots to 5% whenever the exact offset is under 0.05
    rng = np.random.default_rng(7)
    betas = beam_roots(CC, 8)
    edges = band_edge_gammas(7)
    cases = 0
    for _ in range(60):
        params = DimensionlessParams(lam=rng.uniform(0.01, 2.0),
                                     nu=rng.uniform(0.0, 1000.0))
        gam = sp.solve_uniform_dimensionless(params, betas, 7)
        for n in range(1, 9):
            for k in range(2, 7):
                g = gam[n - 1, k - 1]
                d_up = g - edges[k - 1]
                d_dn = g - edges[k - 2]
                for edge_idx, d in ((k, d_up), (k - 1, d_dn)):
                    if abs(d) >= 0.05:
                        continue
                    try:
                        delta, keff = sp.delta_asymptotic(
                            edge_idx, params, betas[n - 1])
                    except sp.BlowUpError:
                        continue
                    assert keff == k
                    assert abs(delta - d) <= 0.05 * abs(d)
                    cases += 1
    assert cases > 30  # the window must actually be exercised


def test_offset_blows_up_at_resonance():
    edge = band_edge_gammas(1)[0]
    beta = beam_roots(CC, 1)[0]
    params = DimensionlessParams(lam=edge / beta, nu=5.0)
    with pytest.raises(sp.BlowUpError):
        sp.delta_asymptotic(1, params, beta)


def test_band_gaps_positive_and_estimated():
    geometry, profile, bc = preset_device("jap1-calibrated")
    gaps = sp.band_gaps(geometry, profile, bc, k_max=3)
    assert [g.k for g in gaps] == [1, 2, 3]
    for g in gaps:
        assert g.exact > 0
        assert g.estimate > 0
        assert 0.5 < g.ratio < 2.0
    assert sp.band_gaps(
        geometry.__class__(**{**geometry.to_dict(), "count_per_side": 0}),
        profile, bc, k_max=2) == []


def test_alternating_equal_lengths_match_uniform():
    geometry, profile, bc = preset_device("jap1-calibrated")
    alt = AlternatingProfile(length1=profile.length, length2=profile.length,
                             width1=geometry.cantilever_width,
                             width2=geometry.cantilever_width,
                             count1=10, count2=10)
    ref = sp.solve_uniform(geometry, profile, bc, 3, 3)[0]
    got = sp.solve_alternating(geometry, alt, bc, 3, 3)[0]
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)


def test_alternating_single_family_degenerate():
    geometry, profile, bc = preset_device("jap1-calibrated")
    alt = AlternatingProfile(length1=profile.length, length2=0.5 * profile.length,
                             width1=geometry.cantilever_width,
                             width2=geometry.cantilever_width,
                             count1=20, count2=0)
    ref = sp.solve_uniform(geometry, profile, bc, 2, 2)[0]
    got = sp.solve_alternating(geometry, alt, bc, 2, 2)[0]
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)


def test_alternating_pole_set_merges_both_families():
    geometry, profile, bc = preset_device("jap1-calibrated")
    alt = AlternatingProfile(length1=profile.length, length2=0.8 * profile.length,
                             width1=geometry.cantilever_width,
                             width2=geometry.cantilever_width,
                             count1=10, count2=10)
    poles = sp.alternating_pole_set(alt, gamma_max=12.0)
    gs = [p[0] for p in poles]
    assert gs == sorted(gs)
    edges = band_edge_gammas(4)
    for e in edges:
        if e <= 12.0:
            assert min(abs(g - e) for g, fam in poles if fam == 1) < 1e-10
        if e / 0.8 <= 12.0:
            assert min(abs(g - e / 0.8) for g, fam in poles if fam == 2) < 1e-10
    # equal lengths: every pole is shared and flagged as merged
    same = AlternatingProfile(length1=profile.length, length2=profile.length,
                              width1=geometry.cantilever_width,
                              width2=geometry.cantilever_width,
                              count1=10, count2=10)
    assert all(fam == 0 for _, fam in sp.alternating_pole_set(same, 12.0))


def test_alternating_roots_solve_raw_secular():
    geometry, profile, bc = preset_device("jap1-calibrated")
    alt = AlternatingProfile(length1=profile.length, length2=0.8 * profile.length,
                             width1=geometry.cantilever_width,
                             width2=geometry.cantilever_width,
                             count1=10, count2=10)
    betas = beam_roots(bc, 2)
    gammas = sp.solve_alternating(geometry, alt, bc, 2, 3)[0]
    assert np.isfinite(gammas).all()
    for (n, _), g in np.ndenumerate(gammas):
        res = sp.secular_alternating(g, geometry, alt, betas[n])
        # scale by the local slope so the residual reads as a gamma error
        h = 1e-7
        slope = (sp.secular_alternating(g + h, geometry, alt, betas[n]) -
                 sp.secular_alternating(g - h, geometry, alt, betas[n])) \
            / (2 * h)
        assert abs(res / slope) < 1e-9


def test_sweep_uniform_lambda_rescales_length():
    geometry, profile, bc = preset_device("jap1-calibrated")
    base = dimensionless(geometry, profile)
    out = list(sp.sweep_uniform(geometry, profile, bc, "lambda",
                                [base.lam, 2 * base.lam], 1, 1))
    assert len(out) == 2
    (v1, g1, s1), (v2, g2, s2) = out
    # frequency scale follows the rescaled cantilever length
    assert s2 == pytest.approx(s1 / 4.0, rel=1e-12)
    direct = sp.solve_uniform_dimensionless(base, beam_roots(bc, 1), 1)
    assert g1[0, 0] == pytest.approx(direct[0, 0], abs=1e-14)
    with pytest.raises(ConfigError):
        list(sp.sweep_uniform(geometry, profile, bc, "mass", [1.0], 1, 1))


def test_sweep_uniform_over_count():
    geometry, profile, bc = preset_device("jap1-calibrated")
    out = list(sp.sweep_uniform(geometry, profile, bc, "N", [0.0, 20.0], 1, 1))
    assert out[1][1][0, 0] == pytest.approx(
        sp.solve_uniform_dimensionless(dimensionless(geometry, profile),
                                       beam_roots(bc, 1), 1)[0, 0], abs=1e-14)
    bare = dimensionless(geometry, profile).lam * beam_roots(bc, 1)[0]
    assert out[0][1][0, 0] == pytest.approx(bare, abs=1e-14)


def _two_family(length1, eps, count1=10, count2=10, width_ratio=1.0):
    geometry, _, bc = preset_device("jap1-calibrated")
    w = geometry.cantilever_width
    return geometry, bc, AlternatingProfile(
        length1=length1, length2=eps * length1, width1=w,
        width2=width_ratio * w, count1=count1, count2=count2)


@pytest.mark.parametrize("eps", [1 - 1e-10, 1 - 1e-11, 1 - 1e-12])
def test_twin_poles_give_one_level_per_band(eps):
    # the merged twin poles gamma_k, gamma_k/eps must not leak the root that
    # sits between them into the band above (18 levels instead of 12 once)
    _, profile, _ = preset_device("jap1-calibrated")
    geometry, bc, alt = _two_family(profile.length, eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gammas, upper, _ = sp.solve_alternating(geometry, alt, bc, 3, 4)
    assert gammas.shape == (3, 4) and np.isfinite(gammas).all()
    # twin poles are 1e-10..1e-12 apart relative: every pair merges, at any k
    poles = sp.alternating_pole_set(alt, 60.0)
    assert len(poles) == 19 and all(fam == 0 for _, fam in poles)
    bounds = [0.0] + [g for g, _ in poles][:4]
    same = AlternatingProfile(length1=alt.length1, length2=alt.length1,
                              width1=alt.width1, width2=alt.width2,
                              count1=10, count2=10)
    assert upper.tolist() == bounds[1:]
    limit = sp.solve_alternating(geometry, same, bc, 3, 4)[0]
    assert (np.array(bounds[:-1]) < gammas).all()
    assert (gammas < np.array(bounds[1:])).all()
    # continuous in epsilon: the equal-length solve is the limit
    np.testing.assert_allclose(gammas, limit, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("width_scale, rejected", [(1e-9, 2), (1e-12, 4)])
def test_twin_pole_band_end_without_sign_change_is_rejected(width_scale,
                                                            rejected):
    # with almost no loading, band 3's levels sit within the step off the
    # merged twin poles gamma_2, gamma_2/eps; the bracket there holds no
    # sign change and must not yield a level
    geometry, profile, bc = preset_device("jap1-calibrated")
    w = width_scale * geometry.cantilever_width
    alt = AlternatingProfile(length1=profile.length,
                             length2=(1 - 1e-11) * profile.length,
                             width1=w, width2=w, count1=1, count2=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        gammas = sp.solve_alternating(geometry, alt, bc, 2, 3)[0]
    assert int(np.isnan(gammas).sum()) == rejected
    assert len(caught) == 1
    assert f": {rejected} two-family level(s) rejected" in str(caught[0].message)
    betas = beam_roots(bc, 2)
    for n, k in zip(*np.nonzero(np.isfinite(gammas))):
        below, above = (sp.secular_alternating((1 + s * 1e-13) * gammas[n, k],
                                               geometry, alt, betas[n])
                        for s in (-1, 1))
        assert below < 0 < above


_PARAMS = {"nu": st.floats(0.0, 200.0), "N": st.floats(0.0, 100.0),
           "lambda": st.floats(0.005, 0.3)}


@settings(max_examples=60, deadline=None)
@given(data=st.data(), parameter=st.sampled_from(sorted(_PARAMS)),
       n_max=st.integers(1, 5), k_max=st.integers(1, 6))
def test_sweep_uniform_equals_per_value_solves(data, parameter, n_max, k_max):
    geometry, profile, bc = preset_device("jap1-calibrated")
    values = data.draw(st.lists(_PARAMS[parameter], min_size=1, max_size=8))
    if parameter != "lambda":
        values.append(0.0)
    base = dimensionless(geometry, profile)
    betas = beam_roots(bc, n_max)
    swept = list(sp.sweep_uniform(geometry, profile, bc, parameter, values,
                                  n_max, k_max))
    assert [v for v, _, _ in swept] == values
    for value, gammas, _ in swept:
        if parameter == "nu":
            params = DimensionlessParams(lam=base.lam, nu=value)
        elif parameter == "lambda":
            params = DimensionlessParams(lam=value, nu=base.nu)
        else:
            params = DimensionlessParams(
                lam=base.lam,
                nu=2.0 * value * geometry.cantilever_width / geometry.beam_width)
        alone = sp.solve_uniform_dimensionless(params, betas, k_max)
        assert gammas.tobytes() == alone.tobytes()


def _sweep_and_solves(geometry, alt, bc, values, n_max, k_max):
    """sweep_alternating's points and the per-value solve_alternating
    results, each with the texts of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught_sweep:
        warnings.simplefilter("always")
        swept = list(sp.sweep_alternating(geometry, alt, bc, values, n_max,
                                          k_max))
    with warnings.catch_warnings(record=True) as caught_alone:
        warnings.simplefilter("always")
        alone = [sp.solve_alternating(
            geometry, AlternatingProfile(
                length1=alt.length1, length2=v * alt.length1,
                width1=alt.width1, width2=alt.width2, count1=alt.count1,
                count2=alt.count2), bc, n_max, k_max) for v in values]
    return (swept, [str(w.message) for w in caught_sweep], alone,
            [str(w.message) for w in caught_alone])


def _assert_sweep_equals_levels(swept, alone, values, n_max, k_max):
    assert [v for v, _, _ in swept] == values
    for (_, gammas, scale), (grid, _, grid_scale) in zip(swept, alone):
        assert gammas.shape == (n_max, k_max)
        assert gammas.tobytes() == grid.tobytes()
        assert scale == grid_scale


@pytest.mark.parametrize("merge_rtol, warns", [(sp._MERGE_RTOL, False),
                                               (0.3, True)])
def test_sweep_alternating_equals_per_value_solves(monkeypatch, merge_rtol,
                                                   warns):
    # merging poles up to 30% apart steps brackets past their levels, so
    # the per-value rejection warnings are compared too
    monkeypatch.setattr(sp, "_MERGE_RTOL", merge_rtol)
    _, profile, _ = preset_device("jap1-calibrated")
    geometry, bc, alt = _two_family(profile.length, 0.5, count1=7, count2=13)
    values = [0.3, 0.45, 0.7, 0.8, 0.93, 1 - 1e-7, 1 - 1e-10, 1 - 1e-13, 1.0]
    swept, messages, alone, alone_messages = _sweep_and_solves(
        geometry, alt, bc, values, 4, 5)
    _assert_sweep_equals_levels(swept, alone, values, 4, 5)
    assert messages == alone_messages
    assert bool(messages) == warns


@pytest.mark.parametrize("width_scale, rejected", [(1e-9, 2), (1e-12, 4)])
def test_sweep_alternating_rejects_the_levels_of_per_value_solves(
        width_scale, rejected):
    # the twin-pole rejection case of a single layout, inside a sweep: the
    # rejected levels are NaN in that value's grid, with the same warning
    geometry, profile, bc = preset_device("jap1-calibrated")
    w = width_scale * geometry.cantilever_width
    alt = AlternatingProfile(length1=profile.length,
                             length2=0.5 * profile.length,
                             width1=w, width2=w, count1=1, count2=1)
    values = [0.5, 1 - 1e-11, 1.0, 1 - 1e-11]
    swept, messages, alone, alone_messages = _sweep_and_solves(
        geometry, alt, bc, values, 2, 3)
    _assert_sweep_equals_levels(swept, alone, values, 2, 3)
    assert messages == alone_messages
    assert len(messages) == 2
    assert all(f": {rejected} two-family level(s) rejected" in m
               for m in messages)
    assert [int(np.isnan(g).sum()) for _, g, _ in swept] == \
        [0, rejected, 0, rejected]


@pytest.mark.parametrize("count1, count2", [(20, 0), (0, 20), (10, 10)])
def test_epsilon_sweep_bisects_single_family_layouts_in_one_call(
        monkeypatch, count1, count2):
    # every value of a one-family profile (with family 1 empty the grid
    # depends on epsilon) and epsilon = 1 of a two-family one share one
    # _band_bisect call, and their grids are the per-value solves' bits
    calls, band_bisect = [], sp._band_bisect

    def counted(*args):
        calls.append(args)
        return band_bisect(*args)

    monkeypatch.setattr(sp, "_band_bisect", counted)
    _, profile, _ = preset_device("jap1-calibrated")
    geometry, bc, alt = _two_family(profile.length, 0.5, count1, count2)
    values = np.linspace(0.05, 1.0, 200)
    assert values[-1] == 1.0
    swept = list(sp.sweep_alternating(geometry, alt, bc, values, 3, 4))
    assert len(calls) == 1
    picks = [0, 71, 150, 199]
    _, _, alone, _ = _sweep_and_solves(geometry, alt, bc,
                                       values[picks].tolist(), 3, 4)
    for i, (grid, _, _) in zip(picks, alone):
        assert swept[i][1].tobytes() == grid.tobytes()
    if count1 == 0:
        assert swept[0][1].tobytes() != swept[71][1].tobytes()


def _scalar_brackets(eps, k_max):
    return band_brackets(eps, k_max, band_edge_gammas, sp._MERGE_RTOL,
                         sp._STEP_RTOL)


_EPSILONS = (st.floats(0.2, 0.97)
             | st.integers(1, 14).map(lambda j: 1.0 - 10.0 ** -j)
             | st.just(1.0))


@settings(max_examples=25, deadline=None)
@given(values=st.lists(_EPSILONS, min_size=1, max_size=4),
       counts=st.tuples(st.integers(0, 40), st.integers(0, 40)).filter(any),
       width_ratio=st.floats(0.3, 3.0), length_ratio=st.floats(0.5, 2.0),
       n_max=st.integers(1, 3), k_max=st.integers(1, 4))
def test_alternating_grids_equal_levels_and_scalar_oracle(
        values, counts, width_ratio, length_ratio, n_max, k_max):
    # eps toward 1, exactly 1 and an empty family (single-family grids)
    # next to two-family ones, all in one sweep
    _, profile, _ = preset_device("jap1-calibrated")
    geometry, bc, alt = _two_family(length_ratio * profile.length, 0.5,
                                    *counts, width_ratio)
    swept, messages, alone, alone_messages = _sweep_and_solves(
        geometry, alt, bc, values, n_max, k_max)
    _assert_sweep_equals_levels(swept, alone, values, n_max, k_max)
    assert messages == alone_messages == []
    c1, c2 = sp._alternating_coeffs(geometry, alt)
    betas = beam_roots(bc, n_max)
    for eps, gammas, _ in swept:
        assert np.isfinite(gammas).all()
        layout = AlternatingProfile(
            length1=alt.length1, length2=eps * alt.length1, width1=alt.width1,
            width2=alt.width2, count1=alt.count1, count2=alt.count2)
        if 0 in counts or abs(eps - 1.0) < 1e-12:
            # one pole set: the oracle's form has extra zeros, so check that
            # the raw secular function rises through every level instead
            for (n, _), g in np.ndenumerate(gammas):
                below, above = (sp.secular_alternating(
                    (1 + s * 1e-9) * g, geometry, layout, betas[n])
                    for s in (-1, 1))
                assert below < 0 < above
            continue
        ref = scalar_alternating_levels(
            alt.length1 / geometry.beam_length, betas, c1, c2,
            layout.epsilon, _scalar_brackets(layout.epsilon, k_max)[:, :2])
        assert [(n, k) for n, k, _ in ref] == \
            [(n, k) for n in range(1, n_max + 1) for k in range(1, k_max + 1)]
        # the oracle bisects a scan sub-bracket: an adjacent float may win
        np.testing.assert_allclose(gammas.ravel(), [g for _, _, g in ref],
                                   rtol=1e-15, atol=0.0)


@settings(max_examples=25, deadline=None)
@given(eps=st.floats(0.2, 0.97)
       | st.integers(1, 13).map(lambda j: 1.0 - 10.0 ** -j),
       count1=st.integers(1, 40),
       count2=st.integers(1, 40), width_ratio=st.floats(0.3, 3.0),
       length_ratio=st.floats(0.5, 2.0), n_max=st.integers(1, 4),
       k_max=st.integers(1, 5))
def test_alternating_matches_scalar_bisection(eps, count1, count2, width_ratio,
                                              length_ratio, n_max, k_max):
    _, profile, _ = preset_device("jap1-calibrated")
    geometry, bc, alt = _two_family(length_ratio * profile.length, eps,
                                    count1, count2, width_ratio)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gammas = sp.solve_alternating(geometry, alt, bc, n_max, k_max)[0]
    c1, c2 = sp._alternating_coeffs(geometry, alt)
    ref = scalar_alternating_levels(
        alt.length1 / geometry.beam_length, beam_roots(bc, n_max), c1, c2,
        alt.epsilon, _scalar_brackets(alt.epsilon, k_max)[:, :2])
    # one level per (n, k), and the scan finds no other root in any band
    assert np.isfinite(gammas).all()
    assert [(n, k) for n, k, _ in ref] == \
        [(n, k) for n in range(1, n_max + 1) for k in range(1, k_max + 1)]
    # within 1e-12 of equal lengths the solver takes the single-family limit
    rel = 1e-12 if abs(alt.epsilon - 1.0) < 1e-12 else 1e-15
    np.testing.assert_allclose(gammas.ravel(), [g for _, _, g in ref],
                               rtol=rel, atol=0.0)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), merge_scale=st.floats(0.1, 10.0),
       counts=st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(any),
       gamma_max=st.floats(0.5, 60.0), k_max=st.integers(1, 8))
def test_band_brackets_equal_scalar_reference_bit_for_bit(
        data, merge_scale, counts, gamma_max, k_max):
    # the merge distance from 0.1x to 10x, and epsilons on both sides of it
    # next to 1, exactly 1 and far from 1; an empty family for the pole set
    merge_rtol = merge_scale * sp._MERGE_RTOL
    near = st.floats(0.2, 5.0).map(lambda x: 1.0 - x * merge_rtol)
    values = data.draw(st.lists(st.floats(0.05, 1.0) | near | st.just(1.0),
                                min_size=1, max_size=6))
    eps = np.array(values)
    with mock.patch.object(sp, "_MERGE_RTOL", merge_rtol):
        rows = np.stack(sp._band_brackets(eps, k_max), axis=-1)
        pole_sets = [sp.alternating_pole_set(AlternatingProfile(
            length1=1.0, length2=v, width1=1.0, width2=1.0, count1=counts[0],
            count2=counts[1]), gamma_max) for v in values]
    for v, got, poles in zip(values, rows, pole_sets):
        want = band_brackets(v, k_max, band_edge_gammas, merge_rtol,
                             sp._STEP_RTOL)
        assert got.tobytes() == want.tobytes()
        assert poles == [(first, fam) for first, _, fam in pole_groups(
            v, *counts, gamma_max, band_edge_gammas, merge_rtol)]


@pytest.mark.parametrize("merge_rtol", [0.3, 0.45])
def test_band_brackets_with_wide_merges_equal_scalar_reference(merge_rtol):
    # groups of three poles or more, and pole ranges grown 1.6-fold, by
    # different factors for different epsilons at 0.3
    eps = np.linspace(0.3, 1.0, 15)
    with mock.patch.object(sp, "_MERGE_RTOL", merge_rtol):
        rows = np.stack(sp._band_brackets(eps, 8), axis=-1)
    for v, got in zip(eps.tolist(), rows):
        want = band_brackets(v, 8, band_edge_gammas, merge_rtol,
                             sp._STEP_RTOL)
        assert got.tobytes() == want.tobytes()


@st.composite
def _brackets(draw):
    """(lo, hi) arrays: band-edge brackets, random ones, empty ones, lo == hi
    and adjacent floats."""
    size = draw(st.integers(0, 10))
    edges = np.concatenate(([0.0], band_edge_gammas(12)))
    lo, hi = [], []
    for _ in range(size):
        kind = draw(st.sampled_from(["band", "random", "equal", "adjacent"]))
        if kind == "band":
            k = draw(st.integers(0, 11))
            a, b = edges[k], edges[k + 1]
        else:
            a = draw(st.floats(0.0, 40.0))
            b = {"random": draw(st.floats(0.0, 40.0)), "equal": a,
                 "adjacent": np.nextafter(a, np.inf)}[kind]
        lo.append(a)
        hi.append(b)
    return np.array(lo, dtype=float), np.array(hi, dtype=float)


@settings(max_examples=200, deadline=None)
@given(brackets=_brackets(), data=st.data(), form=st.sampled_from(
    ["uniform", "two-family"]))
def test_bisect_stops_with_the_bits_of_all_halvings(brackets, data, form):
    # the early stop of _replay without an inner bracket must return, for
    # any f and sign seed, exactly what all _BISECT_ITERS halvings return;
    # the loadings differ per lane, so f must evaluate the lanes it is given
    lo, hi = brackets

    def lanes(values):
        return np.array(data.draw(st.lists(values, min_size=lo.size,
                                           max_size=lo.size)), dtype=float)

    f_lo = lanes(st.sampled_from([-1.0, -0.0, 0.0, 1.0])
                 | st.floats(-1e3, 1e3))
    lambeta4 = lanes(st.floats(0.0, 1e4))
    if form == "uniform":
        nulam = lanes(st.floats(1e-3, 10.0))

        def f(g, i=slice(None)):
            return sp._regular_secular(g, nulam[i], lambeta4[i])
    else:
        c1, c2 = (data.draw(st.floats(1e-3, 10.0)) for _ in range(2))
        eps = lanes(st.floats(0.2, 1.0))

        def f(g, i=slice(None)):
            return sp._regular_alternating(g, c1, c2, eps[i], lambeta4[i])
    got = sp._replay(lo, hi, np.signbit(f_lo), f)
    want = _bisect_fixed(f, lo, hi, f_lo, sp._BISECT_ITERS)
    assert got.tobytes() == want.tobytes()


def _edge_bisection(nulam, lambeta4, k_max):
    """_band_bisect's problem for _bisect_fixed: f, lo, hi and f_lo."""
    edges = band_edge_gammas(k_max)
    shape = np.broadcast_shapes(np.shape(nulam), lambeta4.shape)[:-1] + (k_max,)
    lo = np.broadcast_to(np.concatenate(([0.0], edges[:-1])), shape)
    f_lo = np.broadcast_to((-1.0) ** np.arange(1, k_max + 1), shape)
    return (lambda g: sp._regular_secular(g, nulam, lambeta4), lo,
            np.broadcast_to(edges, shape), f_lo)


def _random_loadings(rng, size, bc, n_max):
    """nulam (size, 1, 1) and lambeta4 (size, n_max, 1): nu log-uniform in
    [1e-9, 3e3], lam in [1e-3, 1]."""
    nu = 10.0 ** rng.uniform(-9.0, np.log10(3e3), size)
    lam = 10.0 ** rng.uniform(-3.0, 0.0, size)
    lambeta4 = (lam[:, None] * beam_roots(bc, n_max)) ** 4
    return (nu * lam)[:, None, None], lambeta4[:, :, None]


def test_nu_sweep_band_bisection_lane_evaluations(monkeypatch):
    # halving every bracket of the preset's nu sweep from its edges by value
    # alone takes 57 lane evaluations per level; the replay needs at most 25.
    # Lane evaluations are values (_regular_secular) and values with slopes
    # (_scaled_nd_slopes), counted by gamma.size.
    evals = []
    for name in ("_regular_secular", "_scaled_nd_slopes"):
        def counted(gamma, *args, fn=getattr(sp, name)):
            evals.append(np.size(gamma))
            return fn(gamma, *args)
        monkeypatch.setattr(sp, name, counted)
    geometry, profile, bc = preset_device("jap1-calibrated")
    swept = list(sp.sweep_uniform(geometry, profile, bc, "nu",
                                  np.linspace(0.0, 90.0, 50), 8, 8))
    assert len(swept) == 50
    assert sum(evals) <= 25 * 49 * 8 * 8


@settings(max_examples=150, deadline=None)
@given(nulam=st.floats(-12.0, 4.0).map(lambda e: 10.0 ** e),
       lam=st.floats(1e-3, 1.0), bc=st.sampled_from(list(BoundaryCondition)),
       n_max=st.integers(1, 12), k_max=st.integers(1, 12))
def test_band_bisect_equals_all_halvings(nulam, lam, bc, n_max, k_max):
    lambeta4 = ((lam * beam_roots(bc, n_max)) ** 4)[:, None]
    got = sp._band_bisect(nulam, lambeta4, k_max)
    want = _bisect_fixed(*_edge_bisection(nulam, lambeta4, k_max),
                         sp._BISECT_ITERS)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_band_bisect_equals_bisection_on_seeded_lanes(bc):
    # 700 loadings x 12 x 12 = 100,800 lanes, more than _CHUNK
    nulam, lambeta4 = _random_loadings(np.random.default_rng(15), 700, bc, 12)
    got = sp._band_bisect(nulam, lambeta4, 12)
    want = _bisect_fixed(*_edge_bisection(nulam, lambeta4, 12),
                         sp._BISECT_ITERS)
    assert got.tobytes() == want.tobytes()


def test_band_bisect_falls_back_where_inner_bracket_fails(monkeypatch):
    # shifting the Newton root of the larger loadings by 1e-6 makes both
    # ends of their inner brackets fail the sign check: those lanes are then
    # evaluated at every halving, and every level stays the same
    nulam, lambeta4 = _random_loadings(np.random.default_rng(16), 40,
                                       BoundaryCondition.CLAMPED_FREE, 6)
    cut = np.median(nulam)
    slope, inner, brackets = sp._secular_slope, sp._inner_brackets, []

    def shifted_slope(gamma, c, lb4, nd):
        f, df, noise = slope(gamma, c, lb4, nd)
        return f + (c >= cut) * 1e-6 * df, df, noise

    def recorded(*args):
        brackets.append(inner(*args))
        return brackets[-1]

    monkeypatch.setattr(sp, "_secular_slope", shifted_slope)
    monkeypatch.setattr(sp, "_inner_brackets", recorded)
    got = sp._band_bisect(nulam, lambeta4, 6)
    want = _bisect_fixed(*_edge_bisection(nulam, lambeta4, 6),
                         sp._BISECT_ITERS)
    assert got.tobytes() == want.tobytes()
    (a, b), = brackets
    fallback = np.isinf(a).reshape(got.shape)
    assert (fallback == (nulam >= cut)).all()
    assert (np.isinf(a) == np.isinf(b)).all()


@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_band_bisect_extremes_raise_no_warning(bc):
    # no RuntimeWarning of the Newton pass may reach a manifest
    nu = np.array([1e-9, 1e-6, 1e-3, 1.0, 1e2, 1e4])
    lam = np.array([1e-3, 1e-2, 0.1, 1.0])
    nu, lam = (v.ravel() for v in np.meshgrid(nu, lam))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sp._uniform_gammas(nu, lam, beam_roots(bc, 12), 12)
    nulam = (nu * lam)[:, None, None]
    lambeta4 = ((lam[:, None] * beam_roots(bc, 12)) ** 4)[:, :, None]
    assert got.tobytes() == _bisect_fixed(
        *_edge_bisection(nulam, lambeta4, 12), sp._BISECT_ITERS).tobytes()
