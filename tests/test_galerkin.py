import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (comb_projection, plain_bisection_roots,
                     tabulated_projection)

from cantarray import galerkin as gk
from cantarray import spectrum as sp
from cantarray.beam import beam_modes
from cantarray.kernel import PoleProximityError, band_edge_gammas, shear_kernel
from cantarray.model import (AlternatingProfile, BoundaryCondition,
                             ConfigError, DeviceGeometry, DiscreteProfile,
                             GalerkinSettings, TabulatedProfile,
                             UniformProfile, preset_device)
from cantarray.numerics import brent

GEO, PROF, BC = preset_device("jap1-calibrated")
L = GEO.beam_length
CANT = PROF.length
RHO_UNIFORM = 2.0 * GEO.count_per_side / L  # pairs per meter


def nearest(alphas, alpha):
    """Index of the level in alphas nearest to alpha."""
    return int(np.argmin(np.abs(alphas - alpha)))


def test_uniform_profile_matches_band_solver():
    settings = GalerkinSettings(basis_size=8)
    alpha_max = band_edge_gammas(2)[-1] / CANT * 0.9999
    alphas, omegas, weights = gk.solve(GEO, PROF, BC, alpha_max, settings)
    assert weights.shape == (alphas.size, 8)
    exact = sp.solve_uniform(GEO, PROF, BC, n_max=4, k_max=2)[0]
    for (n, _), g in np.ndenumerate(exact):
        a_ref = g / CANT
        i = nearest(alphas, a_ref)
        assert alphas[i] == pytest.approx(a_ref, rel=1e-10)
        # the dominant beam index is the level's n, with a positive weight
        assert np.argmax(np.abs(weights[i])) == n
        assert weights[i, n] > 0.999
        assert omegas[i] == pytest.approx(
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


@pytest.mark.filterwarnings("ignore:projection quadrature")
def test_tabulated_assemble_raises_inside_forbidden_interval():
    # a band edge strictly between alpha*l_min and alpha*l_max: some
    # cantilever sits on its resonance, and no pole window cuts it out
    basis = beam_modes(BC, 4)
    edge = band_edge_gammas(1)[0]
    graded = TabulatedProfile(x=(0.0, 0.5 * L, L),
                              length=(0.9 * CANT, 1.1 * CANT, CANT),
                              density=(RHO_UNIFORM,) * 3)
    with pytest.raises(PoleProximityError) as exc:
        gk.assemble(edge / CANT, GEO, graded, basis)
    assert exc.value.k == 1
    # a constant profile on the edge meets the kernel pole at every node
    flat = TabulatedProfile(x=(0.0, L), length=(CANT,) * 2,
                            density=(RHO_UNIFORM,) * 2)
    with pytest.raises(PoleProximityError):
        gk.assemble(edge / CANT, GEO, flat, basis)
    # the interval's own ends, where solve's segments stop, still assemble
    (itv,) = gk.forbidden_alpha_intervals(graded, 1.01 * edge / (0.9 * CANT))
    assert itv.k == 1
    for a in (itv.lo, itv.hi):
        assert np.all(np.isfinite(gk.assemble(a, GEO, graded, basis)))


def _graded(seed):
    """A 10-40 knot profile of smooth random length and density, drawn as
    the benchmark's graded workload draws it, and the alpha_max that keeps
    it below band 1."""
    rng = np.random.default_rng(seed)
    knots = int(rng.integers(10, 41))
    u = np.linspace(0.0, 1.0, knots)
    m = np.arange(1, 4)[:, None]
    a = rng.uniform(-1.0, 1.0, 3)
    a *= rng.uniform(0.08, 0.15) / np.abs(a).sum()
    b = rng.uniform(-1.0, 1.0, 3)
    b *= rng.uniform(0.15, 0.3) / np.abs(b).sum()
    phase_a = rng.uniform(0.0, 2.0 * np.pi, 3)[:, None]
    phase_b = rng.uniform(0.0, 2.0 * np.pi, 3)[:, None]
    length = CANT * rng.uniform(0.9, 1.1) * (
        1.0 + (a[:, None] * np.sin(m * np.pi * u + phase_a)).sum(axis=0))
    density = RHO_UNIFORM * (
        1.0 + (b[:, None] * np.cos(m * np.pi * u + phase_b)).sum(axis=0))
    profile = TabulatedProfile(x=tuple(u * L), length=tuple(length),
                               density=tuple(density))
    return profile, 0.8 * band_edge_gammas(1)[0] / length.max()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(1, 11))
def test_tabulated_assemble_matches_knot_aligned_oracle(seed):
    # PCHIP is one cubic per knot panel, so order-8 Gauss on the knot
    # panels must reach an order-32 rule on panels split four ways
    profile, alpha_max = _graded(seed)
    basis = beam_modes(BC, 8)
    quad = GalerkinSettings(basis_size=8, quadrature_order=8,
                            quadrature_rtol=1e-10)
    cache = {}
    for alpha in np.linspace(0.1, 1.0, 5) * alpha_max:
        got = gk.assemble(alpha, GEO, profile, basis, quad, cache)
        want = tabulated_projection(
            alpha, profile.x, profile.length, profile.density, L,
            GEO.cantilever_width / GEO.beam_width, basis, shear_kernel)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_discrete_comb_converges_to_continuum():
    n_side = 60
    pos = tuple((j - 0.5) * L / n_side for j in range(1, n_side + 1))
    comb = DiscreteProfile(positions=pos, lengths=(CANT,) * n_side)
    geo = DeviceGeometry(**{**GEO.to_dict(), "count_per_side": n_side})
    alpha_max = band_edge_gammas(1)[0] / CANT * 0.9999
    alphas = gk.solve(geo, comb, BC, alpha_max,
                      GalerkinSettings(basis_size=6))[0]
    for g in sp.solve_uniform(geo, PROF, BC, 3, 1)[0].ravel():
        a_ref = g / CANT
        assert alphas[nearest(alphas, a_ref)] == pytest.approx(a_ref,
                                                               rel=1e-6)


def test_alternating_profile_matches_two_family_solver():
    alt = AlternatingProfile(length1=5e-7, length2=4e-7, width1=2e-7,
                             width2=2e-7, count1=10, count2=10)
    exact = sp.solve_alternating(GEO, alt, BC, 3, 2)[0]
    assert np.isfinite(exact).all()
    alpha_max = exact.max() / alt.length1 * 1.001
    alphas = gk.solve(GEO, alt, BC, alpha_max,
                      GalerkinSettings(basis_size=8))[0]
    for g in exact.ravel():
        a_ref = g / alt.length1
        assert alphas[nearest(alphas, a_ref)] == pytest.approx(a_ref,
                                                               rel=1e-6)


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
                   GalerkinSettings(basis_size=8, **quad))[0]
    lv12 = gk.solve(GEO, gentle, BC, a_max,
                    GalerkinSettings(basis_size=12, **quad))[0]
    assert len(lv8) >= 3 and len(lv12) >= 3
    np.testing.assert_allclose(lv8[:3], lv12[:3], rtol=1e-8, atol=0.0)


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
    # the resonant length's first tooth follows a tooth of another length
    mixed = DiscreteProfile(positions=(0.1 * L, bad_x, 0.6 * L, 0.8 * L),
                            lengths=(0.8 * CANT, CANT, 0.8 * CANT, CANT))
    with pytest.raises(PoleProximityError) as err:
        gk.assemble(alpha, GEO, mixed, basis)
    assert err.value.where == f"cantilever at x={bad_x:.6e} m"


@pytest.mark.parametrize("positions, named",
                         [((0.2 * L, 2.0e-5, -3e-6), 2.0e-5),
                          ((-3e-6, 0.5 * L, 2.0e-5), -3e-6)])
def test_discrete_teeth_must_lie_on_the_beam(positions, named):
    basis = beam_modes(BC, 3)
    comb = DiscreteProfile(positions=positions, lengths=(CANT,) * 3)
    with pytest.raises(ConfigError, match=f"x={named:.6e} m is outside"):
        gk.assemble(1e6, GEO, comb, basis)


def test_tabulated_profile_must_span_beam():
    basis = beam_modes(BC, 3)
    short = TabulatedProfile(x=(0.0, 0.5 * L), length=(CANT,) * 2,
                             density=(RHO_UNIFORM,) * 2)
    with pytest.raises(ConfigError, match="span the beam"):
        gk.assemble(1e6, GEO, short, basis)


@pytest.mark.parametrize("basis_size", [4, 8, 16, 24])
def test_averaged_loading_levels_are_exact_beam_modes(basis_size):
    # uniform and alternating families load the beam with S_f = c_f I, so
    # D(alpha) is exactly diagonal and eigh returns coordinate axes: every
    # participation row is one entry 1.0 and exact zeros elsewhere
    w = GEO.cantilever_width
    profiles = [PROF, AlternatingProfile(CANT, 0.8 * CANT, w, w, 10, 10),
                AlternatingProfile(CANT, 0.6 * CANT, w, 0.75 * w, 12, 8),
                AlternatingProfile(CANT, 0.9 * CANT, w, w, 20, 0)]
    alpha_max = 0.9999 * band_edge_gammas(2)[1] / CANT
    for profile in profiles:
        alphas, _, weights = gk.solve(GEO, profile, BC, alpha_max,
                                      GalerkinSettings(basis_size=basis_size))
        assert alphas.size >= 2 * basis_size
        assert np.all(np.sum(weights == 1.0, axis=1) == 1)
        assert np.all(np.sum(weights == 0.0, axis=1) == basis_size - 1)


@pytest.mark.filterwarnings("error")
def test_one_mode_basis_polishes_every_level_without_warning():
    # with M = 1, max |eig| of D is the crossing eigenvalue itself; the
    # bare terms beta_1^4 and (alpha L)^4 scale the polish check instead
    alpha_max = 0.9999 * band_edge_gammas(4)[-1] / CANT
    alphas, _, weights = gk.solve(GEO, PROF, BC, alpha_max,
                                  GalerkinSettings(basis_size=1))
    exact = sp.solve_uniform(GEO, PROF, BC, n_max=1, k_max=4)[0][0] / CANT
    assert alphas == pytest.approx(exact, rel=1e-10)
    assert np.all(weights == 1.0)


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
        mat = gk.assemble(alpha, geo, comb, basis, settings)
        return int(np.sum(np.linalg.eigvalsh(mat) < 0.0))

    alphas = gk.solve(geo, comb, BC, alpha_max, settings)[0].tolist()
    assert len(alphas) == negcount(alpha_max) == 6
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
    exact = exact[0][np.isfinite(exact[0])] / uni.length
    expected = np.sort(exact[exact <= alpha_max])
    got = gk.solve(geo, profile, BC, alpha_max,
                   GalerkinSettings(basis_size=basis_size))[0]
    assert len(got) == len(expected)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


def _bits(mats) -> bytes:
    return np.asarray(mats, dtype=float).tobytes()


def _profile(kind, rng):
    """A profile of the given kind with lengths within 10% of CANT."""
    if kind == "uniform":
        return PROF
    if kind == "alternating":
        return AlternatingProfile(length1=CANT, length2=0.8 * CANT,
                                  width1=2e-7, width2=1.5e-7, count1=12,
                                  count2=9)
    if kind == "discrete":
        n = 30
        return DiscreteProfile(
            positions=tuple((np.arange(n) + rng.uniform(0.1, 0.9, n)) * L / n),
            lengths=tuple(CANT * rng.uniform(0.9, 1.1, n)))
    profile, _ = _graded(int(rng.integers(1, 1000)))
    return profile


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["uniform", "alternating", "discrete",
                             "tabulated"]),
       seed=st.integers(0, 2 ** 32 - 1),
       fracs=st.lists(st.floats(0.0, 0.95), min_size=1, max_size=7),
       order=st.sampled_from([4, 8]), rtol=st.sampled_from([1e-10, 1e-16]))
def test_batched_assemble_equals_per_alpha_calls(kind, seed, fracs, order,
                                                 rtol):
    # every slice of a batch is the scalar call's matrix, bit for bit, and a
    # tabulated batch warns once per unconverged alpha, in input order (the
    # rtol of 1e-16 leaves some alphas unconverged after 16 splits)
    profile = _profile(kind, np.random.default_rng(seed))
    basis = beam_modes(BC, 6)
    quad = GalerkinSettings(basis_size=6, quadrature_order=order,
                            quadrature_rtol=rtol)
    # below the forbidden interval of a tabulated profile, two bands else
    top = band_edge_gammas(2)[0 if kind == "tabulated" else 1] \
        / gk.length_spans(profile)[-1][1]
    alphas = np.array(fracs) * top
    with warnings.catch_warnings(record=True) as batch_warned:
        warnings.simplefilter("always")
        batch = gk.assemble(alphas, GEO, profile, basis, quad, {})
    with warnings.catch_warnings(record=True) as single_warned:
        warnings.simplefilter("always")
        cache = {}
        singles = [gk.assemble(a, GEO, profile, basis, quad, cache)
                   for a in alphas]
    assert batch.shape == (alphas.size, 6, 6)
    assert _bits(batch) == _bits(singles)
    assert [str(w.message) for w in batch_warned] \
        == [str(w.message) for w in single_warned]
    if kind == "uniform":
        # an alternating profile with one side empty is the uniform one's
        # length family, bit for bit; with equal lengths it splits that
        # family in two, within 1e-15 of the largest term of D, the bare
        # diagonal or the loading
        n, w = GEO.count_per_side, GEO.cantilever_width
        one_side = AlternatingProfile(CANT, 0.8 * CANT, w, w, n, 0)
        assert _bits(gk.assemble(alphas, GEO, one_side, basis, quad)) \
            == _bits(batch)
        split = AlternatingProfile(CANT, CANT, w, w, n // 3, n - n // 3)
        mats = gk.assemble(alphas, GEO, split, basis, quad)
        bare = np.array([np.diag([b.beta ** 4 - (a * L) ** 4 for b in basis])
                         for a in alphas.tolist()])
        terms = np.maximum(np.abs(bare), np.abs(bare - batch))
        assert np.all(np.max(np.abs(mats - batch), axis=(1, 2))
                      <= 1e-15 * np.max(terms, axis=(1, 2)))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["uniform", "discrete", "tabulated"]),
       safe=st.lists(st.floats(0.05, 0.85), min_size=0, max_size=5),
       where=st.lists(st.integers(0, 5), min_size=2, max_size=2))
def test_batched_assemble_names_the_first_pole_in_input_order(kind, safe,
                                                              where):
    # two alphas that meet a pole sit among pole-free ones; the error is the
    # one a loop of scalar calls would raise first
    basis = beam_modes(BC, 3)
    edge = band_edge_gammas(1)[0]
    if kind == "uniform":
        profile, poles = PROF, [edge / CANT, band_edge_gammas(2)[1] / CANT]
    elif kind == "discrete":
        profile = DiscreteProfile(positions=(0.2 * L, 0.7 * L),
                                  lengths=(CANT, 0.8 * CANT))
        poles = [edge / CANT, edge / (0.8 * CANT)]
    else:   # inside the forbidden interval (edge/l_max, edge/l_min)
        profile = TabulatedProfile(x=(0.0, 0.5 * L, L),
                                   length=(0.9 * CANT, 1.1 * CANT, CANT),
                                   density=(RHO_UNIFORM,) * 3)
        poles = [edge / CANT, 1.05 * edge / CANT]
    alphas = [f * edge / (1.1 * CANT) for f in safe]
    for pole, i in zip(poles, where):
        alphas.insert(min(i, len(alphas)), pole)
    first = min(alphas.index(p) for p in poles)
    with pytest.raises(PoleProximityError) as batch_err:
        gk.assemble(np.array(alphas), GEO, profile, basis)
    with pytest.raises(PoleProximityError) as single_err:
        gk.assemble(alphas[first], GEO, profile, basis)
    assert str(batch_err.value) == str(single_err.value)
    assert (batch_err.value.gamma, batch_err.value.k) \
        == (single_err.value.gamma, single_err.value.k)


def test_coincident_crossings_yield_the_midpoint_once_each():
    # two eigenvalues cross zero together at alpha = 1 and one alone at 2:
    # no bisection separates the pair, so the narrowed piece gives its
    # midpoint twice, while the lone crossing goes to Brent
    def spectrum(alphas):
        return np.sort(np.stack([1.0 - alphas, 1.0 - alphas, 2.0 - alphas],
                                axis=1), axis=1)

    roots = gk._roots([(0.0, 2.5)], spectrum)
    assert len(roots) == 3
    assert roots[0] == roots[1] != 1.0
    assert abs(roots[0] - 1.0) <= 1e-14
    assert roots[2] == pytest.approx(2.0, rel=1e-15)


def test_comb_solve_assembles_in_lockstep_rounds(monkeypatch):
    # a 2x200-tooth comb over two bands has 16 levels; one assemble per
    # round keeps the count near the deepest bisection plus Brent, where
    # refining level after level took 115-123
    assemble, calls = gk.assemble, []

    def counted(alpha, *args):
        calls.append(np.shape(alpha))
        return assemble(alpha, *args)

    monkeypatch.setattr(gk, "assemble", counted)
    rng = np.random.default_rng(4)
    n = 200
    comb = DiscreteProfile(
        positions=tuple((np.arange(n) + 0.5 + rng.uniform(-0.35, 0.35, n))
                        * L / n),
        lengths=(CANT,) * n)
    geo = DeviceGeometry(**{**GEO.to_dict(), "count_per_side": n})
    alpha_max = 0.9999 * band_edge_gammas(2)[1] / CANT
    alphas = gk.solve(geo, comb, BC, alpha_max,
                      GalerkinSettings(basis_size=8))[0]
    assert len(alphas) == 16
    assert all(len(shape) == 1 for shape in calls)
    assert len(calls) <= 30


def _jittered_comb(rng, teeth, families):
    """teeth jittered about even spacing; with two families every other
    tooth is 0.7-0.8 times as long, as in the benchmark's combs."""
    positions = (np.arange(teeth) + 0.5 + rng.uniform(-0.35, 0.35, teeth)) \
        * L / teeth
    lengths = np.full(teeth, CANT * rng.uniform(0.95, 1.05))
    if families == 2:
        lengths[1::2] *= rng.uniform(0.7, 0.8)
    return DiscreteProfile(positions=tuple(positions), lengths=tuple(lengths))


def _counted(spectrum, calls):
    def counted(alphas):
        calls.append(alphas.size)
        return spectrum(alphas)
    return counted


@pytest.mark.filterwarnings("ignore:projection quadrature")
@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["comb", "tabulated"]),
       seed=st.integers(0, 2 ** 32 - 1), teeth=st.integers(4, 60),
       families=st.integers(1, 2), reach=st.floats(0.2, 1.9))
def test_lookahead_roots_equal_plain_bisection(kind, seed, teeth, families,
                                               reach):
    # the lookahead only moves bisection steps and Brent lanes to earlier
    # rounds: the brackets and iterates, so the roots' bits, stay the same
    rng = np.random.default_rng(seed)
    if kind == "comb":
        profile = _jittered_comb(rng, teeth, families)
        settings_ = GalerkinSettings(basis_size=8)
    else:   # 3-6 knots
        knots = 3 + teeth % 4
        profile = TabulatedProfile(
            x=tuple(np.linspace(0.0, L, knots)),
            length=tuple(CANT * rng.uniform(0.85, 1.1, knots)),
            density=tuple(RHO_UNIFORM * rng.uniform(0.7, 1.3, knots)))
        settings_ = GalerkinSettings(basis_size=6, quadrature_order=8)
    shortest = min(profile.lengths if kind == "comb" else profile.length)
    alpha_max = reach * band_edge_gammas(1)[0] / shortest
    basis, cache = beam_modes(BC, settings_.basis_size), {}

    def spectrum(alphas):
        return np.linalg.eigvalsh(
            gk.assemble(alphas, GEO, profile, basis, settings_, cache))

    segments = gk._segments(profile, alpha_max)
    rounds, plain_rounds = [], []
    got = gk._roots(segments, _counted(spectrum, rounds))
    want = plain_bisection_roots(segments, _counted(spectrum, plain_rounds),
                                 brent)
    assert got and np.array(got).tobytes() == np.array(want).tobytes()
    assert len(rounds) <= len(plain_rounds)


def test_comb_roots_take_at_most_14_lockstep_rounds(monkeypatch):
    # a 2x200-tooth comb over two bands, 16 levels: the depth-two lookahead
    # bisects twice per round (12 rounds); one bisection per round took 19.
    # Brent's iterates are untouched, so some combs still take up to 17
    roots, calls = gk._roots, []
    monkeypatch.setattr(gk, "_roots", lambda segments, spectrum: roots(
        segments, _counted(spectrum, calls)))
    comb = _jittered_comb(np.random.default_rng(5), 200, 1)
    geo = DeviceGeometry(**{**GEO.to_dict(), "count_per_side": 200})
    alpha_max = 0.9999 * band_edge_gammas(2)[1] / max(comb.lengths)
    alphas = gk.solve(geo, comb, BC, alpha_max,
                      GalerkinSettings(basis_size=8))[0]
    assert len(alphas) == 16
    assert len(calls) <= 14


@settings(max_examples=40, deadline=None)
@given(layout=st.sampled_from(["one", "interleaved", "out-of-order",
                               "distinct"]),
       seed=st.integers(0, 2 ** 32 - 1), teeth=st.integers(4, 24),
       fracs=st.lists(st.floats(0.0, 0.95), min_size=1, max_size=3))
# the loading cancels most of the bare diagonal in these two
@example(layout="one", seed=0, teeth=21, fracs=[0.4375])
@example(layout="one", seed=9002, teeth=14, fracs=[0.4324932080966834])
def test_comb_assemble_matches_exact_projection(layout, seed, teeth, fracs):
    # the family sums stay within a few roundings of the exact point sums,
    # in units of the largest summed term: the bare diagonal or the loading
    rng = np.random.default_rng(seed)
    pool = CANT * rng.uniform(0.7, 1.1, 3)
    if layout == "distinct":
        lengths = CANT * rng.uniform(0.7, 1.1, teeth)
    else:
        family = {"one": np.zeros(teeth, int),
                  "interleaved": np.arange(teeth) % 2,
                  "out-of-order": rng.integers(0, 3, teeth)}[layout]
        if layout == "out-of-order":   # family 1 first, then 0, then 1 again
            family[:3] = (1, 0, 1)
        lengths = pool[family]
    positions = (np.arange(teeth) + rng.uniform(0.1, 0.9, teeth)) * L / teeth
    comb = DiscreteProfile(positions=tuple(positions), lengths=tuple(lengths))
    basis = beam_modes(BC, 6)
    alphas = np.array(fracs) * band_edge_gammas(2)[1] / lengths.max()
    mats = gk.assemble(alphas, GEO, comb, basis)
    phi = np.stack([m(positions / L) for m in basis])
    for a, mat in zip(alphas.tolist(), mats):
        weight = 2.0 * (a * L) ** 3 * (GEO.cantilever_width / GEO.beam_width)
        betas = np.array([m.beta for m in basis])
        kernel = shear_kernel(a * lengths)
        exact = comb_projection(betas, a * L, weight, kernel, phi)
        bare = np.max(np.abs(betas ** 4 - (a * L) ** 4))
        loading = np.max(np.abs(weight * (phi * kernel) @ phi.T))
        assert np.max(np.abs(mat - exact)) <= 2e-15 * max(bare, loading)


def test_comb_assemble_evaluates_the_kernel_once_per_length(monkeypatch):
    # a 2x200 comb of two interleaved lengths needs T at two gammas per
    # alpha, however many teeth share them
    kernel, widths = gk.shear_kernel, []

    def counted(gamma):
        widths.append(np.shape(gamma)[-1])
        return kernel(gamma)

    monkeypatch.setattr(gk, "shear_kernel", counted)
    rng = np.random.default_rng(7)
    n = 200
    comb = DiscreteProfile(
        positions=tuple((np.arange(n) + 0.5 + rng.uniform(-0.35, 0.35, n))
                        * L / n),
        lengths=tuple(np.where(np.arange(n) % 2, 0.75 * CANT, CANT)))
    geo = DeviceGeometry(**{**GEO.to_dict(), "count_per_side": n})
    alpha_max = 0.9999 * band_edge_gammas(1)[0] / (0.75 * CANT)
    alphas = gk.solve(geo, comb, BC, alpha_max,
                      GalerkinSettings(basis_size=8))[0]
    assert len(alphas) == 16
    assert widths and set(widths) == {2}
