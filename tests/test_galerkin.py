import numpy as np
import pytest

from cantarray import galerkin as gk
from cantarray import spectrum as sp
from cantarray.beam import beam_modes
from cantarray.kernel import PoleProximityError, band_edge_gammas
from cantarray.model import (AlternatingProfile, BoundaryCondition,
                             ConfigError, DeviceGeometry, DiscreteProfile,
                             GalerkinSettings, TabulatedProfile, preset_device)

GEO, PROF, BC = preset_device("jap1-calibrated")
L = GEO.beam_length
CANT = PROF.length
RHO_UNIFORM = 2.0 * GEO.count_per_side / L  # pairs per meter


def nearest(levels, alpha):
    return min(levels, key=lambda lv: abs(lv.alpha - alpha))


def test_uniform_profile_matches_band_solver():
    settings = GalerkinSettings(basis_size=8)
    alpha_max = band_edge_gammas(2)[-1] / CANT * 0.9999
    levels = gk.solve(GEO, PROF, BC, alpha_max, settings)
    exact = sp.solve_uniform(GEO, PROF, BC, n_max=4, k_max=2)
    for ex in exact:
        a_ref = ex.gamma / CANT
        best = nearest(levels, a_ref)
        assert best.alpha == pytest.approx(a_ref, rel=1e-10)
        assert best.dominant_n == ex.n
        assert np.max(np.abs(best.participation)) > 0.999
        assert best.omega == pytest.approx(
            GEO.beam_wave_scale * a_ref ** 2, rel=1e-9)


def test_constant_tabulated_equals_uniform_matrix():
    basis = beam_modes(BC, 6)
    tab = TabulatedProfile(x=(0.0, L / 3, 2 * L / 3, L), length=(CANT,) * 4,
                           density=(RHO_UNIFORM,) * 4)
    a = 2.5e6
    m_tab = gk.assemble(a, GEO, tab, basis)
    m_uni = gk.assemble(a, GEO, PROF, basis)
    scale = np.max(np.abs(m_uni))
    assert np.max(np.abs(m_tab - m_uni)) < 1e-12 * scale
    off = m_tab - np.diag(np.diag(m_tab))
    assert np.max(np.abs(off)) < 1e-12 * scale
    assert np.max(np.abs(m_tab - m_tab.T)) == 0.0


def test_zero_density_gives_bare_beam_matrix():
    basis = beam_modes(BC, 4)
    tab = TabulatedProfile(x=(0.0, L / 2, L), length=(CANT,) * 3,
                           density=(0.0,) * 3)
    a = 2.0e6
    got = gk.assemble(a, GEO, tab, basis)
    betas = np.array([b.beta for b in basis])
    assert np.array_equal(got, np.diag(betas ** 4 - (a * L) ** 4))


def test_fully_excluded_profile_gives_bare_beam_matrix():
    # at a band edge every node of a constant profile sits in a pole window
    basis = beam_modes(BC, 4)
    tab = TabulatedProfile(x=(0.0, L), length=(CANT,) * 2,
                           density=(RHO_UNIFORM,) * 2)
    a = band_edge_gammas(1)[0] / CANT
    got = gk.assemble(a, GEO, tab, basis)
    betas = np.array([b.beta for b in basis])
    assert np.array_equal(got, np.diag(betas ** 4 - (a * L) ** 4))


def test_discrete_comb_converges_to_continuum():
    n_side = 60
    pos = tuple((j - 0.5) * L / n_side for j in range(1, n_side + 1))
    comb = DiscreteProfile(positions=pos, lengths=(CANT,) * n_side)
    geo = DeviceGeometry(**{**GEO.to_dict(), "count_per_side": n_side})
    alpha_max = band_edge_gammas(1)[0] / CANT * 0.9999
    levels = gk.solve(geo, comb, BC, alpha_max,
                      GalerkinSettings(basis_size=6), scan_points=120)
    exact = [lv for lv in sp.solve_uniform(geo, PROF, BC, 3, 1)]
    for ex in exact:
        a_ref = ex.gamma / CANT
        assert nearest(levels, a_ref).alpha == pytest.approx(a_ref, rel=1e-6)


def test_alternating_profile_matches_two_family_solver():
    alt = AlternatingProfile(length1=5e-7, length2=4e-7, width1=2e-7,
                             width2=2e-7, count1=10, count2=10)
    exact = [lv for lv in sp.solve_alternating(GEO, alt, BC, 3, 2) if lv.n <= 3]
    alpha_max = max(lv.gamma for lv in exact) / alt.length1 * 1.001
    levels = gk.solve(GEO, alt, BC, alpha_max, GalerkinSettings(basis_size=8))
    for ex in exact:
        a_ref = ex.gamma / alt.length1
        assert nearest(levels, a_ref).alpha == pytest.approx(a_ref, rel=1e-6)


def test_forbidden_intervals_isolated_vs_continuum():
    # single length: thin windows around each edge/l
    edges = band_edge_gammas(2)
    itv = gk.forbidden_alpha_intervals(PROF, edges[1] / CANT + 1.0)
    assert len(itv) == 2
    for k, i in enumerate(itv, start=1):
        center = edges[k - 1] / CANT
        assert i.lo < center < i.hi
        assert i.hi - i.lo < 1e-6 * center
        assert i.k == k
    # length continuum: the whole swept range is excluded
    tab = TabulatedProfile(x=(0.0, L), length=(CANT, 2 * CANT),
                           density=(RHO_UNIFORM,) * 2)
    itv = gk.forbidden_alpha_intervals(tab, edges[0] / CANT + 1.0)
    assert itv[0].lo == pytest.approx(edges[0] / (2 * CANT), rel=1e-6)
    assert itv[0].hi >= edges[0] / CANT
    # two close lengths at small alpha_max: windows merge
    close = AlternatingProfile(length1=CANT, length2=CANT * (1 - 1e-10),
                               width1=2e-7, width2=2e-7, count1=5, count2=5)
    merged = gk.forbidden_alpha_intervals(close, edges[0] / CANT + 1.0)
    assert len(merged) == 1


def test_basis_size_convergence_on_smooth_profile():
    xs = tuple(np.linspace(0, L, 9))
    gentle = TabulatedProfile(
        x=xs,
        length=tuple(CANT * (1 + 0.1 * x / L) for x in xs),
        density=tuple(RHO_UNIFORM * (1 + 0.2 * np.sin(np.pi * x / L))
                      for x in xs))
    a_max = 1.0e6  # stays below the first resonance of the longest cantilever
    quad = {"quadrature_order": 64, "quadrature_rtol": 1e-10}
    lv8 = gk.solve(GEO, gentle, BC, a_max,
                   GalerkinSettings(basis_size=8, **quad), scan_points=30)
    lv12 = gk.solve(GEO, gentle, BC, a_max,
                    GalerkinSettings(basis_size=12, **quad), scan_points=30)
    assert len(lv8) >= 3 and len(lv12) >= 3
    for a, b in zip(lv8[:3], lv12[:3]):
        assert a.alpha == pytest.approx(b.alpha, rel=1e-8)


def test_discrete_resonant_tooth_names_its_position():
    basis = beam_modes(BC, 3)
    bad_x = 0.37 * L
    comb = DiscreteProfile(positions=(0.2 * L, bad_x), lengths=(CANT, CANT))
    alpha = band_edge_gammas(1)[0] / CANT  # both teeth resonate; one named
    with pytest.raises(PoleProximityError, match="cantilever at x="):
        gk.assemble(alpha, GEO, comb, basis)
    # the named tooth is the one whose gamma is reported, the first in order,
    # even when a later tooth sits closer to the edge
    near = DiscreteProfile(positions=(bad_x, 0.6 * L),
                           lengths=(CANT * (1 + 1e-13), CANT))
    with pytest.raises(PoleProximityError) as err:
        gk.assemble(alpha, GEO, near, basis)
    assert err.value.gamma == alpha * near.lengths[0]
    assert err.value.where == f"cantilever at x={bad_x:.6e} m"


def test_tabulated_profile_must_span_beam():
    basis = beam_modes(BC, 3)
    short = TabulatedProfile(x=(0.0, 0.5 * L), length=(CANT,) * 2,
                             density=(RHO_UNIFORM,) * 2)
    with pytest.raises(ConfigError, match="span the beam"):
        gk.assemble(1e6, GEO, short, basis)


def test_low_dominance_warns_for_uniform_loading():
    alpha_max = band_edge_gammas(1)[0] / CANT * 0.5
    with pytest.warns(gk.BasisTooSmall):
        gk.solve(GEO, PROF, BC, alpha_max, GalerkinSettings(basis_size=4),
                 scan_points=60, dominance_threshold=1.1)


def test_brent_and_bisection_refinements_agree():
    # a coarse scan puts several levels in one cell, which takes the
    # bisection branch; the default scan refines single crossings by Brent
    rng = np.random.default_rng(7)
    n_side = 40
    pos = tuple((np.arange(n_side) + 0.5 + rng.uniform(-0.3, 0.3, n_side))
                * L / n_side)
    lengths = tuple(CANT * np.where(np.arange(n_side) % 2, 0.97, 1.0))
    comb = DiscreteProfile(positions=pos, lengths=lengths)
    geo = DeviceGeometry(**{**GEO.to_dict(), "count_per_side": n_side})
    alpha_max = 0.9999 * band_edge_gammas(1)[0] / CANT
    assert not gk.forbidden_alpha_intervals(comb, alpha_max)  # one segment
    settings = GalerkinSettings(basis_size=6)
    fine = gk.solve(geo, comb, BC, alpha_max, settings)
    coarse = gk.solve(geo, comb, BC, alpha_max, settings, scan_points=4)

    grid = np.linspace(0.0, alpha_max, 4)
    per_cell = np.bincount(np.searchsorted(grid, [lv.alpha for lv in coarse]))
    assert per_cell.max() >= 2 and 1 in per_cell  # both branches ran
    assert len(fine) == len(coarse) == 6
    basis = beam_modes(BC, settings.basis_size)
    for a, b in zip(fine, coarse):
        assert b.alpha == pytest.approx(a.alpha, rel=1e-12, abs=0.0)
        for lv in (a, b):
            below, above = (gk._negcount(gk.assemble(lv.alpha * f, geo, comb,
                                                     basis, settings))
                            for f in (1 - 1e-11, 1 + 1e-11))
            assert above > below, lv.alpha
