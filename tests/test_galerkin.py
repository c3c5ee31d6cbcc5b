import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantarray import galerkin as gk
from cantarray import spectrum as sp
from cantarray.beam import beam_modes
from cantarray.kernel import PoleProximityError, band_edge_gammas
from cantarray.model import (AlternatingProfile, BoundaryCondition,
                             ConfigError, DeviceGeometry, DiscreteProfile,
                             GalerkinSettings, TabulatedProfile,
                             UniformProfile, preset_device)

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
    levels = gk.solve(geo, comb, BC, alpha_max, GalerkinSettings(basis_size=6))
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
                   GalerkinSettings(basis_size=8, **quad))
    lv12 = gk.solve(GEO, gentle, BC, a_max,
                    GalerkinSettings(basis_size=12, **quad))
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


def test_low_dominance_warns_for_uniform_loading(monkeypatch):
    monkeypatch.setattr(gk, "DOMINANCE_THRESHOLD", 1.1)
    alpha_max = band_edge_gammas(1)[0] / CANT * 0.5
    with pytest.warns(gk.BasisTooSmall):
        gk.solve(GEO, PROF, BC, alpha_max, GalerkinSettings(basis_size=4))


def test_clustered_levels_are_counted_and_bracketed():
    # a jittered two-length comb crowds its levels together; the inertia at
    # the segment ends says how many there are, and each one found must sit
    # on an inertia jump
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
    basis = beam_modes(BC, settings.basis_size)

    def negcount(alpha):
        return gk._negcount(gk.assemble(alpha, geo, comb, basis, settings))

    levels = gk.solve(geo, comb, BC, alpha_max, settings)
    assert len(levels) == negcount(alpha_max) == 6
    alphas = [lv.alpha for lv in levels]
    assert alphas == sorted(alphas)
    for a in alphas:
        assert negcount(a * (1 + 1e-11)) > negcount(a * (1 - 1e-11)), a


@settings(max_examples=50, deadline=None)
@given(lam=st.floats(0.02, 0.2), count=st.integers(10, 200),
       two_families=st.booleans(), eps=st.floats(0.6, 0.9),
       basis_size=st.integers(2, 5), frac=st.floats(0.2, 0.95))
def test_diagonal_loading_matches_closed_forms(lam, count, two_families, eps,
                                               basis_size, frac):
    # x-independent loading makes D diagonal: each beam index n contributes
    # exactly the closed-form levels (n, k), so the counts and roots agree
    geo = DeviceGeometry(**{**GEO.to_dict(), "count_per_side": count})
    uni = UniformProfile(length=lam * L)
    if two_families:
        width = GEO.cantilever_width
        profile = AlternatingProfile(length1=uni.length,
                                     length2=eps * uni.length, width1=width,
                                     width2=width, count1=count // 2,
                                     count2=count - count // 2)
        exact = sp.solve_alternating(geo, profile, BC, basis_size, 3)
    else:
        profile = uni
        exact = sp.solve_uniform(geo, profile, BC, basis_size, 3)
    alpha_max = frac * band_edge_gammas(2)[1] / uni.length
    expected = sorted(lv.gamma / uni.length for lv in exact
                      if lv.gamma / uni.length <= alpha_max)
    levels = gk.solve(geo, profile, BC, alpha_max,
                      GalerkinSettings(basis_size=basis_size))
    got = [lv.alpha for lv in levels]
    assert len(got) == len(expected)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
