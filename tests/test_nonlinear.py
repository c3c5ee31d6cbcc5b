import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cantarray import nonlinear as nl
from cantarray.beam import BeamMode, beam_roots
from cantarray.kernel import CantileverShape, shear_kernel
from cantarray.model import (BoundaryCondition, ConfigError,
                             NonlinearSettings, UniformProfile,
                             preset_device)
from cantarray.quadrature import adaptive_quad, cumulative_square_quad
from oracles import overlap_arrays, peak_shift_roots, steady_state_count

GEOM, PROF, BC = preset_device("jap1-calibrated")


@pytest.fixture(scope="module")
def sel():
    return nl.select_modes(GEOM, PROF, BC)


@pytest.fixture(scope="module")
def ints(sel):
    return nl.overlap_integrals(sel)


def params_for(sel, ints, f1, f2, damping=1e-6):
    settings = NonlinearSettings(damping_beam=damping,
                                 damping_cantilever=damping,
                                 force1=f1, force2=f2)
    return nl.effective_params(sel, ints, GEOM, settings)


def fold_force(par, linewidths=6.0):
    """Drive level that folds the collective-mode resonance by the given
    number of linewidths (bistable but numerically benign)."""
    width = par.damping1 / par.mass1
    ztarget = linewidths * width * 4 * par.mass1 * par.omega1 \
        / abs(par.self_coupling1)
    return math.sqrt(ztarget) * par.damping1 * par.omega1 \
        / abs(par.drive_per_force)


def test_select_modes_needs_cantilevers():
    bare = GEOM.__class__(**{**GEOM.to_dict(), "count_per_side": 0})
    with pytest.raises(ConfigError):
        nl.select_modes(bare, PROF, BC)


def test_selected_pair_regression(sel):
    # frozen values for the calibrated preset; guards against solver drift
    assert sel.gamma1 == pytest.approx(0.18760324063691297, rel=1e-12)
    assert sel.gamma2 == pytest.approx(2.0465671487130734, rel=1e-12)
    assert sel.omega1 / (2 * math.pi) == pytest.approx(24.7e6, rel=0.02)
    assert sel.omega2 / (2 * math.pi) == pytest.approx(2.94e9, rel=0.02)


def test_beam_constants_closed_matches_quadrature(sel):
    closed = nl.beam_constants_closed(sel.beta)
    quad = nl.beam_constants(sel.mode)
    for name in ("stretch_inertia", "curvature_quartic", "shape_quartic",
                 "mean_shape"):
        c, q = getattr(closed, name), getattr(quad, name)
        assert c == pytest.approx(q, rel=1e-7), name
    assert closed.stretch_inertia == pytest.approx(6.1513, abs=5e-4)
    assert closed.curvature_quartic == pytest.approx(2846.4975, abs=0.05)
    assert closed.shape_quartic == pytest.approx(1.8519, abs=5e-4)
    assert closed.mean_shape == pytest.approx(-0.8308, abs=5e-4)


def test_closed_forms_hold_on_symmetric_family():
    betas = beam_roots(BC, 15)
    for n in range(1, 16, 2):
        mode = BeamMode(n=n, beta=float(betas[n - 1]), bc=BC)
        closed = nl.beam_constants_closed(mode.beta)
        quad = nl.beam_constants(mode)
        for name in ("stretch_inertia", "curvature_quartic", "shape_quartic",
                     "mean_shape"):
            assert getattr(closed, name) == \
                pytest.approx(getattr(quad, name), rel=1e-7), (n, name)


def test_antisymmetric_family_breaks_closed_forms():
    betas = beam_roots(BC, 6)
    for n in (2, 4, 6):
        mode = BeamMode(n=n, beta=float(betas[n - 1]), bc=BC)
        quad = nl.beam_constants(mode)
        closed = nl.beam_constants_closed(mode.beta)
        # antisymmetric shapes integrate to zero; the closed form does not
        assert abs(quad.mean_shape) < 1e-10
        assert abs(closed.mean_shape) > 0.1
        rel = abs(closed.stretch_inertia - quad.stretch_inertia) \
            / abs(quad.stretch_inertia)
        assert rel > 0.05


def test_overlap_goldens_and_orderings(sel, ints):
    L = ints.mass_overlap
    lam = ints.damping_overlap
    i_ = ints.stretch_overlap
    k_ = ints.curvature_overlap
    assert 1.0000 <= L[0, 0] <= 1.0002
    assert lam[0, 0] < 1e-4
    assert i_[0, 0] < 1e-12
    assert i_[0, 0] < i_[0, 1] < i_[1, 1]
    flat = np.abs(k_).reshape(-1)
    assert k_[1, 1, 1, 1] == flat.max()
    for got, golden in ((L[1, 1], 3.89887), (lam[1, 1], 4.9687),
                        (i_[1, 1], 232.49), (k_[1, 1, 1, 1], 1.07e3)):
        assert abs(got - golden) / golden < 0.15
    # symmetric blocks really are symmetric
    assert L[0, 1] == L[1, 0]
    assert i_[0, 1] == i_[1, 0]


@pytest.mark.parametrize("length_scale", [1.0, 0.6, 1.3])
def test_overlaps_equal_per_integrand_evaluation(length_scale):
    # shapes evaluated once per node array and shared by every integrand
    # give each integral the bits it has when it evaluates them itself
    sel = nl.select_modes(GEOM, UniformProfile(PROF.length * length_scale),
                          BC)
    got = nl.overlap_integrals(sel, rtol=1e-9)
    want = overlap_arrays(
        (sel.shape1, sel.shape2),
        lambda f: adaptive_quad(f, 0.0, 1.0, rtol=1e-9),
        lambda f: cumulative_square_quad(f, 0.0, 1.0, rtol=1e-9))
    for name, ref in zip(("mass_overlap", "damping_overlap",
                          "stretch_overlap", "curvature_overlap"), want):
        assert getattr(got, name).tobytes() == ref.tobytes(), name


def test_overlaps_evaluate_each_shape_once_per_node_array(sel, monkeypatch):
    calls = []
    call = CantileverShape.__call__

    def counted(self, v, derivative=0):
        calls.append((id(self), derivative, np.asarray(v).tobytes()))
        return call(self, v, derivative)

    monkeypatch.setattr(CantileverShape, "__call__", counted)
    nl.overlap_integrals(sel, rtol=1e-9)
    node_arrays = {nodes for _, _, nodes in calls}
    assert len(calls) == len(set(calls))
    assert len(calls) <= 2 * 3 * len(node_arrays)


def test_damping_overlap_identity(sel, ints):
    # diagonal damping overlap equals mass overlap minus the carried mean,
    # int h_i dv = T(gamma_i) / gamma_i from the shear kernel alone
    for i, g in enumerate((sel.gamma1, sel.gamma2)):
        mean = float(shear_kernel(np.array([g]))[0]) / g
        ident = ints.mass_overlap[i, i] - mean
        got = ints.damping_overlap[i, i]
        assert abs(got - ident) <= max(1e-10 * abs(ident), 1e-12)


def test_effective_params_goldens(sel, ints):
    par = params_for(sel, ints, 1.0, 1.0)
    assert par.mass1 == pytest.approx(1.74e-14, rel=0.01)
    assert par.mass2 == pytest.approx(4.17e-14, rel=0.01)
    assert par.self_coupling1 == pytest.approx(-5.07e13, rel=0.05)
    assert par.self_coupling2 == pytest.approx(1.05e21, rel=0.05)
    assert par.cross_coupling == pytest.approx(1.65e17, rel=0.05)
    assert par.drive_per_force == pytest.approx(-4.44e-6, rel=0.01)
    assert par.self_coupling1 < 0 < par.cross_coupling
    # accessor aliases agree with the flat fields
    assert par.mass(1) == par.mass1 and par.mass(2) == par.mass2
    assert par.omega(1) == par.omega1


def test_peak_amplitude_and_backbone(sel, ints):
    par = params_for(sel, ints, 1.0, 1.0)
    a1max = nl.peak_amplitude(1, par)
    assert a1max == abs(par.drive1 / (par.damping1 * par.omega1))
    lo, hi = nl.backbone(1, a1max, 0.0, par)
    assert hi - lo <= 1e-6 * max(abs(lo), abs(hi))
    assert nl.backbone(1, 1.01 * a1max, 0.0, par) is None
    with pytest.raises(ValueError):
        nl.backbone(1, 0.0, 0.0, par)
    undamped = params_for(sel, ints, 1.0, 1.0, damping=0.0)
    with pytest.raises(ConfigError):
        nl.peak_amplitude(1, undamped)


def test_single_drive_reduces_to_duffing(sel, ints):
    par = params_for(sel, ints, 1.0, 0.0)
    for frac in (-2.0, -0.5, 0.0, 0.5, 2.0):
        sig1 = frac * par.damping1 / par.mass1
        pairs = nl.coupled_steady_state(sig1, 0.0, par)
        assert pairs
        for p1, p2 in pairs:
            assert p2.amplitude == 0.0
            lo, hi = nl.backbone(1, p1.amplitude, 0.0, par)
            scale = max(abs(lo), abs(hi), 1e-300)
            assert min(abs(sig1 - lo), abs(sig1 - hi)) / scale < 1e-8


def test_bistable_window_has_three_states(sel, ints):
    probe = params_for(sel, ints, 1.0, 0.0)
    par = params_for(sel, ints, fold_force(probe), 0.0)
    zpk = nl.peak_amplitude(1, par) ** 2
    fold = par.self_coupling1 * zpk / (4 * par.mass1 * par.omega1)
    count3 = 0
    for frac in np.linspace(0.05, 1.1, 25):
        sig1 = fold * frac
        pairs = nl.coupled_steady_state(sig1, 0.0, par)
        if len(pairs) == 3:
            count3 += 1
        for p1, p2 in pairs:
            assert nl.steady_residual(p1.amplitude ** 2, p2.amplitude ** 2,
                                      sig1, 0.0, par) < 1e-10
    assert count3 >= 3


def test_coupled_states_satisfy_amplitude_equations(sel, ints):
    probe = params_for(sel, ints, 1.0, 0.0)
    ffold = fold_force(probe)
    par = params_for(sel, ints, ffold, 3.0 * ffold)
    rng = np.random.default_rng(11)
    for _ in range(15):
        sc1 = par.self_coupling1 * nl.peak_amplitude(1, par) ** 2 \
            / (4 * par.mass1 * par.omega1)
        sc2 = par.self_coupling2 * nl.peak_amplitude(2, par) ** 2 \
            / (4 * par.mass2 * par.omega2)
        sig1 = float(rng.uniform(-1.5, 1.5)) \
            * max(abs(sc1), par.damping1 / par.mass1)
        sig2 = float(rng.uniform(-1.5, 1.5)) \
            * max(abs(sc2), par.damping2 / par.mass2)
        pairs = nl.coupled_steady_state(sig1, sig2, par)
        assert pairs
        for p1, p2 in pairs:
            assert nl.steady_residual(p1.amplitude ** 2, p2.amplitude ** 2,
                                      sig1, sig2, par) < 1e-10


def assert_states_match_oracle(sig1, sig2, par):
    pairs = nl.coupled_steady_state(sig1, sig2, par)
    assert len(pairs) % 2 == 1, (sig1, sig2, len(pairs))
    assert len(pairs) == steady_state_count(sig1, sig2, par), (sig1, sig2)
    for p1, p2 in pairs:
        assert nl.steady_residual(p1.amplitude ** 2, p2.amplitude ** 2,
                                  sig1, sig2, par) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(f1=st.floats(2e-6, 6e-6), f2=st.floats(1e-5, 1e-4),
       sig1=st.floats(-3000.0, 1000.0), sig2=st.floats(-5000.0, 12000.0))
def test_states_match_elimination_oracle(sel, ints, f1, f2, sig1, sig2):
    # drives and detunings around the bistable window of mode 1, reaching
    # the multivalued region of mode 2 (one, three or five states)
    assert_states_match_oracle(sig1, sig2, params_for(sel, ints, f1, f2))


def test_fold_grid_matches_oracle(sel, ints):
    # both modes multivalued: states are born and die in pairs at the
    # saddle-node edges that cross this grid
    par = params_for(sel, ints, 3.7e-6, 3.5e-5)
    for sig1 in np.linspace(-2600.0, 700.0, 41):
        for sig2 in np.linspace(-1500.0, 10000.0, 5):
            assert_states_match_oracle(float(sig1), float(sig2), par)


def test_eliminant_roots_are_states_before_polish(sel, ints):
    par = params_for(sel, ints, 3.7e-6, 3.5e-5)
    sig1 = np.array([-1400.0, -600.0, 300.0])
    sig2 = np.array([-2000.0, 7000.0, 0.0])
    for lead in (1, 2):
        point, z1, z2 = nl._eliminant_states(lead, sig1, sig2, par)
        assert set(point.tolist()) == {0, 1, 2}
        res = nl.steady_residual(z1, z2, sig1[point], sig2[point], par)
        assert np.all(res < 1e-9)


# steady states at (sigma1, sigma2) = (-1400, -2000) of the bench response
# preset with one coefficient zeroed, as frozen (a1, a2) regression values
DEGENERATE = {
    "damping1": ({"damping1": 0.0}, [
        (4.5432129915804625e-09, 4.8791679050792754e-11),
        (1.4431269633415966e-08, 1.517097051046838e-11),
        (1.909872333222394e-08, 9.337882722204479e-12)]),
    "damping2": ({"damping2": 0.0}, [
        (4.3971292538433535e-09, 5.127922743916968e-11),
        (1.5739044286112364e-08, 1.3163419716609476e-11),
        (1.806952794809793e-08, 1.0333760677129801e-11)]),
    "both dampings": ({"damping1": 0.0, "damping2": 0.0}, [
        (4.531693993539158e-09, 5.070679523493707e-11),
        (1.4431589556004238e-08, 1.5244564329851522e-11),
        (1.9098748506817747e-08, 9.355231259346345e-12)]),
    "drive1": ({"drive1": 0.0}, [(0.0, 5.866883769426962e-11)]),
    "drive2": ({"drive2": 0.0}, [
        (4.545761276804612e-09, 0.0),
        (1.5714499883923424e-08, 0.0),
        (1.8061970102909448e-08, 0.0)]),
    "cross_coupling": ({"cross_coupling": 0.0}, [
        (4.545761276804612e-09, 5.866883769426962e-11),
        (1.5714499883923424e-08, 5.866883769426962e-11),
        (1.8061970102909448e-08, 5.866883769426962e-11)]),
    "both drives": ({"drive1": 0.0, "drive2": 0.0}, [(0.0, 0.0)]),
    "self_coupling1": ({"self_coupling1": 0.0}, [
        (4.135190461583195e-09, 5.036374558674938e-11)]),
    # the eliminant's two leading coefficients vanish on the whole grid
    "self_coupling2": ({"self_coupling2": 0.0}, [
        (4.335991722741621e-09, 6.143303626838769e-11),
        (1.5739051873932857e-08, 1.3165456630536585e-11),
        (1.8069521727530308e-08, 1.0329505888460896e-11)]),
}


def columns_equal(got, want):
    """Bitwise equality of two sets of steady_states columns."""
    return all(got[k].tobytes() == want[k].tobytes() for k in want)


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_limits(sel, ints, case):
    changes, expected = DEGENERATE[case]
    par = params_for(sel, ints, 3.7e-6, 3.5e-5)._replace(**changes)
    pairs = nl.coupled_steady_state(-1400.0, -2000.0, par)
    assert len(pairs) == len(expected)
    for (p1, p2), amps in zip(pairs, expected):
        for got, want in zip((p1.amplitude, p2.amplitude), amps):
            if want == 0.0:
                assert got == 0.0
            else:
                assert got == pytest.approx(want, rel=1e-12)
    # the same point inside a grid, next to points of other root counts
    sig1 = np.array([-2600.0, -1400.0, 0.0, -1400.0, 700.0])
    sig2 = np.array([-1500.0, -2000.0, 0.0, 10000.0, -2000.0])
    grid = nl.steady_states(sig1, sig2, par)
    amps = np.sqrt([grid["z1"][grid["point"] == 1],
                    grid["z2"][grid["point"] == 1]]).T
    assert amps.tolist() == [[p1.amplitude, p2.amplitude] for p1, p2 in pairs]
    for i in range(sig1.size):
        rows = grid["point"] == i
        one = nl.steady_states(sig1[i], sig2[i], par)
        assert columns_equal({k: c[rows] for k, c in grid.items()
                              if k != "point"},
                             {k: c for k, c in one.items() if k != "point"})


def test_real_roots_match_np_roots_row_by_row():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(40, 10)) * 10.0 ** rng.integers(-30, 30, (40, 1))
    rows[5:10, :2] = 0.0        # lower degree
    rows[10:15, -3:] = 0.0      # exact zero roots
    rows[15:20, :4] = 0.0
    rows[15:20, -1] = 0.0
    rows[20, :-1] = 0.0         # a constant: no roots
    rows[21, :-2] = 0.0         # c t: one exact zero root
    rows[21, -1] = 0.0
    roots = nl._real_roots(rows)
    for row, got in zip(rows, roots):
        want = np.roots(row / np.max(np.abs(row)))
        want = np.sort(want.real[want.imag == 0.0])
        assert np.sort(got[~np.isnan(got)]).tobytes() == want.tobytes()


def test_singular_newton_step_stops_that_candidate_only(sel, ints):
    # undamped and undriven at zero detuning: the Jacobian at z = 0 is zero
    par = params_for(sel, ints, 3.7e-6, 3.5e-5)._replace(damping1=0.0,
                                                         damping2=0.0)
    point, z1, z2 = nl._eliminant_states(1, np.array([-1400.0]),
                                         np.array([-2000.0]), par)
    zero = np.zeros(1)
    sig1 = np.concatenate([zero, np.full(z1.size, -1400.0)])
    sig2 = np.concatenate([zero, np.full(z1.size, -2000.0)])
    p1, p2 = nl._newton_polish(np.concatenate([zero, z1]),
                               np.concatenate([zero, z2]), sig1, sig2, par)
    assert (p1[0], p2[0]) == (0.0, 0.0)
    alone = nl._newton_polish(z1, z2, sig1[1:], sig2[1:], par)
    assert p1[1:].tobytes() == alone[0].tobytes()
    assert p2[1:].tobytes() == alone[1].tobytes()


def test_failed_roots_are_dropped_loudly(sel, ints, monkeypatch):
    par = params_for(sel, ints, 3.7e-6, 3.5e-5)
    monkeypatch.setattr(nl, "_newton_polish",
                        lambda z1, z2, *rest: (1.01 * z1, z2))
    with pytest.warns(nl.SteadyStateWarning, match="3 of 3 .* dropped"):
        assert nl.coupled_steady_state(-1400.0, -2000.0, par) == []


def test_polish_failure_warns_for_its_own_point(sel, ints, monkeypatch):
    par = params_for(sel, ints, 3.7e-6, 3.5e-5)
    sig1 = np.array([-1500.0, -1400.0, -1300.0])
    sig2 = np.full(3, -2000.0)
    clean = nl.steady_states(sig1, sig2, par)
    polish = nl._newton_polish

    def broken(z1, z2, s1, s2, params):
        z1, z2 = polish(z1, z2, s1, s2, params)
        return np.where(s1 == -1400.0, 1.01 * z1, z1), z2

    monkeypatch.setattr(nl, "_newton_polish", broken)
    with pytest.warns(nl.SteadyStateWarning) as caught:
        got = nl.steady_states(sig1, sig2, par)
    assert [str(w.message) for w in caught] == [
        "3 of 3 real root(s) at sigma = (-1400, -2000) failed the "
        "steady-state check; dropped"]
    assert columns_equal(got, {k: c[clean["point"] != 1]
                               for k, c in clean.items()})


@settings(max_examples=30, deadline=None)
@given(f1=st.floats(3.7e-6 * 0.97, 3.7e-6 * 1.03),
       f2=st.floats(3.5e-5 * 0.95, 3.5e-5 * 1.05),
       grid=st.lists(st.tuples(st.floats(-2600.0, 700.0),
                               st.floats(-4400.0, 10000.0)),
                     min_size=2, max_size=12),
       data=st.data())
def test_grid_rows_match_one_point_calls(sel, ints, f1, f2, grid, data):
    # bench-range detunings, the fold window included: a point's states
    # must not depend on the other points of its grid
    par = params_for(sel, ints, f1, f2)
    sig1, sig2 = np.array(grid).T
    states = nl.steady_states(sig1, sig2, par)
    for i in range(sig1.size):
        rows = states["point"] == i
        one = nl.steady_states(sig1[i], sig2[i], par)
        assert np.all(one["point"] == 0)
        assert columns_equal({k: c[rows] for k, c in states.items()
                              if k != "point"},
                             {k: c for k, c in one.items() if k != "point"})
    for i in data.draw(st.sets(st.integers(0, sig1.size - 1), max_size=3)):
        rows = states["point"] == i
        assert rows.sum() == steady_state_count(sig1[i], sig2[i], par)
        assert np.all(nl.steady_residual(states["z1"][rows],
                                         states["z2"][rows],
                                         sig1[i], sig2[i], par) <= 1e-10)


def test_shift_monotone_in_second_drive(sel, ints):
    probe = params_for(sel, ints, 1.0, 0.0)
    ffold = fold_force(probe)
    par = params_for(sel, ints, ffold, 3.0 * ffold)
    shifts = []
    for f2 in np.geomspace(0.3, 3.0, 9):
        roots = nl.shift_of_fundamental(par, force1=ffold,
                                        force2=float(f2) * ffold)
        assert roots
        shifts.append(roots[-1].sigma1)
    assert np.all(np.diff(shifts) > 0)
    # no second drive: pure self-shift of the collective mode
    base = nl.shift_of_fundamental(par, force1=ffold, force2=0.0)
    assert len(base) == 1
    a1sq = (par.drive_per_force * ffold / (par.damping1 * par.omega1)) ** 2
    expect = par.self_coupling1 * a1sq / (4 * par.mass1 * par.omega1)
    assert base[0].sigma1 == pytest.approx(expect, rel=1e-12)
    assert base[0].amplitude2 == 0.0


def test_shift_roots_back_substitute(sel, ints):
    probe = params_for(sel, ints, 1.0, 0.0)
    ffold = fold_force(probe)
    par = params_for(sel, ints, ffold, 0.0)
    a1sq = (par.drive_per_force * ffold / (par.damping1 * par.omega1)) ** 2
    for f2 in (0.5 * ffold, 1.0 * ffold, 2.5 * ffold):
        roots = nl.shift_of_fundamental(par, force1=ffold, force2=f2)
        assert roots
        for r in roots:
            # the reported pair must solve both amplitude equations with the
            # flexing mode sitting at zero detuning from its shifted peak
            par_f2 = params_for(sel, ints, ffold, f2)
            res = nl.steady_residual(a1sq, r.amplitude2 ** 2,
                                     r.sigma1, 0.0, par_f2)
            assert res < 1e-10


@pytest.mark.parametrize("f1, f2, z2", [
    (924.0, 10.0, 1.4190557534692014e-42),
    (924.0, 5e4, 3.547639383673003e-35),
    (1e4, 10.0, 1.0343972177208544e-46)])
def test_shift_keeps_small_root_far_above_fold(sel, ints, f1, f2, z2):
    # forces in units of the fold force at damping 1e-6, applied at damping
    # 1e-8; z2 is the one real root of the cubic, from mpmath.polyroots at
    # 60 digits; a companion solve alone returned 0.0 for the first and last
    ffold = fold_force(params_for(sel, ints, 1.0, 0.0))
    par = params_for(sel, ints, ffold, 0.0, damping=1e-8)
    roots = nl.shift_of_fundamental(par, force1=f1 * ffold,
                                    force2=f2 * ffold)
    assert len(roots) == 1
    assert roots[0].amplitude2 ** 2 == pytest.approx(z2, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("damping, f1, f2", [
    (1e-6, 1.0, 30.0), (1e-6, 10.0, 3e4), (1e-7, 1.0, 3e4)])
def test_shift_three_roots_match_mpmath(sel, ints, damping, f1, f2):
    # forces in units of the fold force at damping 1e-6; with C22's sign
    # flipped, mode 2's self shift opposes the cross shift C12 z1 and its
    # peak cubic has three real roots, on both sides of its backbone
    ffold = fold_force(params_for(sel, ints, 1.0, 0.0))
    par = params_for(sel, ints, f1 * ffold, f2 * ffold, damping=damping)
    par = par._replace(self_coupling2=-par.self_coupling2)
    roots = nl.shift_of_fundamental(par)
    exact = peak_shift_roots(par)
    assert len(roots) == len(exact) == 3
    z1 = (par.drive1 / (par.damping1 * par.omega1)) ** 2
    for r, (z2, branch) in zip(roots, exact):
        assert r.amplitude2 ** 2 == pytest.approx(z2, rel=1e-13, abs=0.0)
        assert r.branch == branch
        assert nl.steady_residual(z1, r.amplitude2 ** 2, r.sigma1, 0.0,
                                  par) <= 1e-10


def test_shift_requires_damping(sel, ints):
    undamped = params_for(sel, ints, 1.0, 1.0, damping=0.0)
    with pytest.raises(ConfigError):
        nl.shift_of_fundamental(undamped)


def test_linear_regime_scaling(sel, ints):
    pa = params_for(sel, ints, 1e-12, 1e-12)
    pb = params_for(sel, ints, 2e-12, 2e-12)
    sta = nl.coupled_steady_state(0.0, 0.0, pa)
    stb = nl.coupled_steady_state(0.0, 0.0, pb)
    assert len(sta) == len(stb) == 1
    for i in range(2):
        ratio = stb[0][i].amplitude / sta[0][i].amplitude
        assert ratio == pytest.approx(2.0, abs=1e-9)

