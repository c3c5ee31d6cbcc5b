"""Acceptance gate: ten end-to-end checks, one test (and one printed
pass/fail line) per criterion.  Run with -s to see the lines on success;
under plain pytest each criterion still reports as its own PASSED/FAILED
entry.  Tolerances and time budgets are part of the contract; do not
loosen them to make a failing build green."""
import math
import time

import numpy as np
import pytest

from oracles import clamped_free_root, doubly_clamped_root

from cantarray import galerkin as gk
from cantarray import nonlinear as nl
from cantarray import spectrum as sp
from cantarray.beam import beam_roots
from cantarray.kernel import band_edge_gammas
from cantarray.model import (AlternatingProfile, BoundaryCondition,
                             DeviceGeometry, DimensionlessParams,
                             GalerkinSettings, NonlinearSettings,
                             UniformProfile, dimensionless, preset_device)

CC = BoundaryCondition.CLAMPED_CLAMPED
GEOM, PROF, BC = preset_device("jap1-calibrated")


def report(num: int, started: float, budget: float | None, detail: str):
    elapsed = time.perf_counter() - started
    line = f"ACCEPTANCE {num}: PASS ({elapsed:.2f}s) {detail}"
    print(line)
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"


def sigfig_match(got: float, printed: float) -> bool:
    """Within one unit in the last digit of a 4-significant-figure value
    (printed constants are truncated, not rounded)."""
    ulp = 10.0 ** (math.floor(math.log10(abs(printed))) - 3)
    return abs(got - printed) <= ulp


def test_criterion_01_root_oracles():
    t0 = time.perf_counter()
    got_cc = beam_roots(CC, 1)[0]
    assert abs(got_cc - 4.7300407449) < 1e-9
    assert abs(got_cc - float(doubly_clamped_root(1))) < 1e-9
    edges = band_edge_gammas(3)
    printed = (1.8751040687, 4.6940911330, 7.8547574382)
    for k in range(3):
        assert abs(edges[k] - printed[k]) < 1e-9
        assert abs(edges[k] - float(clamped_free_root(k + 1))) < 1e-9
    report(1, t0, 1.0, "beam root and 3 band edges vs bisection oracle, 1e-9")


def test_criterion_02_beam_constant_goldens():
    t0 = time.perf_counter()
    beta = beam_roots(CC, 1)[0]
    sel = nl.select_modes(GEOM, PROF, BC)
    closed = nl.beam_constants_closed(beta)
    quad = nl.beam_constants(sel.mode)
    printed = {"stretch_inertia": 6.1513, "curvature_quartic": 2846.4975,
               "shape_quartic": 1.8519, "mean_shape": -0.8308}
    for name, value in printed.items():
        c, q = getattr(closed, name), getattr(quad, name)
        assert sigfig_match(c, value), (name, c)
        assert sigfig_match(q, value), (name, q)
        assert abs(c - q) <= 1e-7 * abs(c), name
    report(2, t0, 5.0, "4 beam constants to 4 sig figs, both paths, 1e-7 apart")


def test_criterion_03_overlap_goldens():
    t0 = time.perf_counter()
    sel = nl.select_modes(GEOM, PROF, BC)
    ints = nl.overlap_integrals(sel)
    mass = ints.mass_overlap
    damp = ints.damping_overlap
    stretch = ints.stretch_overlap
    curv = ints.curvature_overlap
    assert 1.0000 <= mass[0, 0] <= 1.0002
    assert damp[0, 0] < 1e-4
    assert stretch[0, 0] < 1e-12
    assert stretch[0, 0] < stretch[0, 1] < stretch[1, 1]
    assert curv[1, 1, 1, 1] == np.abs(curv).max()
    for got, printed in ((mass[1, 1], 3.89887), (damp[1, 1], 4.9687),
                         (stretch[1, 1], 232.49), (curv[1, 1, 1, 1], 1.07e3)):
        assert abs(got - printed) / printed < 0.15
    report(3, t0, 10.0,
           "carried-shape overlaps: windows, orderings, 15% of printed")


def test_criterion_04_crossing_is_count_independent():
    t0 = time.perf_counter()
    beta1 = beam_roots(CC, 1)[0]
    gammas = []
    for n_side in (5, 10, 20, 50, 100, 500):
        geo = DeviceGeometry.from_material(
            youngs_modulus=150e9, mass_density=2330.0, thickness=2e-7,
            beam_length=1e-5, beam_width=4e-7, cantilever_width=2e-7,
            count_per_side=n_side)
        prof = UniformProfile(length=0.5 * geo.beam_length)
        params = dimensionless(geo, prof)
        assert params.lam == 0.5
        g = sp.solve_uniform_dimensionless(params, np.array([beta1]), 2)[0, 1]
        gammas.append(g)
        omega = sp.gamma_to_omega(g, geo, prof.length)
        bare = geo.beam_wave_scale * (beta1 / geo.beam_length) ** 2
        assert abs(omega - bare) <= 1e-9 * bare
    gammas = np.array(gammas)
    assert np.max(gammas) - np.min(gammas) <= 1e-9
    assert np.max(np.abs(gammas - 0.5 * beta1)) <= 1e-9
    report(4, t0, 2.0,
           "level (1,2) pinned at lam*beta_1 for N in {5..500}, omega* bare")


def test_criterion_05_interlacing_500_draws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    betas = beam_roots(CC, 8)
    edges = band_edge_gammas(6)
    violations = 0
    checked = 0
    for _ in range(500):
        params = DimensionlessParams(lam=float(rng.uniform(0.01, 2.0)),
                                     nu=float(rng.uniform(0.0, 1000.0)))
        if params.nu == 0.0:
            continue
        g = sp.solve_uniform_dimensionless(params, betas, 6)
        for k in range(2, 7):
            col = g[:, k - 1]
            checked += col.size
            violations += int(np.sum(~((edges[k - 2] < col)
                                       & (col < edges[k - 1]))))
    assert violations == 0
    report(5, t0, 60.0,
           f"{checked} levels across 500 (lam, nu) draws, 0 violations")


def test_criterion_06_edge_offset_asymptotics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)  # same grid as criterion 5
    betas = beam_roots(CC, 8)
    edges = band_edge_gammas(7)
    in_window = 0
    worst = 0.0
    for _ in range(500):
        params = DimensionlessParams(lam=float(rng.uniform(0.01, 2.0)),
                                     nu=float(rng.uniform(0.0, 1000.0)))
        if params.nu == 0.0:
            continue
        gam = sp.solve_uniform_dimensionless(params, betas, 7)
        for n in range(1, 9):
            for k in range(2, 7):
                g = gam[n - 1, k - 1]
                d_up = g - edges[k - 1]      # < 0: top of band k
                d_dn = g - edges[k - 2]      # > 0: bottom of band k
                for edge_idx, d in ((k, d_up), (k - 1, d_dn)):
                    if abs(d) >= 0.05:
                        continue
                    try:
                        delta, keff = sp.delta_asymptotic(
                            edge_idx, params, betas[n - 1])
                    except sp.BlowUpError:
                        continue  # resonant: expansion legitimately diverges
                    assert keff == k, (params, n, k, edge_idx)
                    rel = abs(delta - d) / abs(d)
                    worst = max(worst, rel)
                    assert rel <= 0.05, (params, n, k, edge_idx, rel)
                    in_window += 1
    assert in_window > 100
    report(6, t0, None,
           f"{in_window} near-edge offsets within 5% (worst {worst:.4f})")


def test_criterion_07_alternating_reductions():
    t0 = time.perf_counter()
    # equal lengths collapse onto the uniform solver
    same = AlternatingProfile(length1=PROF.length, length2=PROF.length,
                              width1=GEOM.cantilever_width,
                              width2=GEOM.cantilever_width,
                              count1=10, count2=10)
    ref = sp.solve_uniform(GEOM, PROF, BC, 3, 3)[0]
    got = sp.solve_alternating(GEOM, same, BC, 3, 3)[0]
    assert np.isfinite(got).all()
    np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)

    # epsilon = 0.8 with beam-width cantilevers: extra edges at gamma_k/eps
    geo = DeviceGeometry.from_material(
        youngs_modulus=150e9, mass_density=2330.0, thickness=2e-7,
        beam_length=1e-5, beam_width=4e-7, cantilever_width=4e-7,
        count_per_side=20)
    l1 = 0.05 * geo.beam_length
    alt = AlternatingProfile(length1=l1, length2=0.8 * l1,
                             width1=geo.beam_width, width2=geo.beam_width,
                             count1=20, count2=20)
    gmax = 12.0
    poles = sp.alternating_pole_set(alt, gmax)
    edges = band_edge_gammas(4)
    for e in edges:
        if e <= gmax:
            assert min(abs(g - e) for g, fam in poles if fam == 1) <= 1e-10
        if e / 0.8 <= gmax:
            assert min(abs(g - e / 0.8)
                       for g, fam in poles if fam == 2) <= 1e-10
    # the stretch between gamma_1 and gamma_1/eps hosts an additional band
    gammas = sp.solve_alternating(geo, alt, BC, 8, 3)[0]
    lo, hi = edges[0], edges[0] / 0.8
    assert np.any((lo < gammas) & (gammas < hi))
    report(7, t0, None,
           "eps=1 collapses to uniform at 1e-12; eps=0.8 pole set at 1e-10")


def test_criterion_08_galerkin_oracle():
    t0 = time.perf_counter()
    settings = GalerkinSettings(basis_size=8)
    alpha_max = band_edge_gammas(4)[-1] / PROF.length * 0.9999
    alphas, _, weights = gk.solve(GEOM, PROF, BC, alpha_max, settings)
    exact = sp.solve_uniform(GEOM, PROF, BC, n_max=4, k_max=4)[0]
    for (n, k), g in np.ndenumerate(exact):
        a_ref = g / PROF.length
        if a_ref > alpha_max:
            continue
        best = int(np.argmin(np.abs(alphas - a_ref)))
        assert abs(alphas[best] - a_ref) <= 1e-6 * a_ref, (n + 1, k + 1)
        assert np.argmax(np.abs(weights[best])) == n
    assert (np.max(np.abs(weights), axis=1) >= 0.999).all()

    # 2x200 equally spaced cantilevers against the uniform continuum
    n_side = 200
    geo200 = DeviceGeometry(**{**GEOM.to_dict(), "count_per_side": n_side})
    pos = tuple((j - 0.5) * geo200.beam_length / n_side
                for j in range(1, n_side + 1))
    from cantarray.model import DiscreteProfile
    comb = DiscreteProfile(positions=pos, lengths=(PROF.length,) * n_side)
    a2_max = band_edge_gammas(2)[-1] / PROF.length * 0.9999
    comb_alphas = gk.solve(geo200, comb, BC, a2_max, settings)[0]
    cont = sp.solve_uniform(geo200, PROF, BC, 4, 2)[0]
    for (n, k), g in np.ndenumerate(cont):
        a_ref = g / PROF.length
        if a_ref > a2_max:
            continue
        best = np.min(np.abs(comb_alphas - a_ref))
        assert best <= 1e-3 * a_ref, (n + 1, k + 1)
    report(8, t0, 120.0,
           "M=8 projection matches bands to 1e-6; 2x200 comb to 1e-3")


def test_criterion_09_nonlinear_response():
    t0 = time.perf_counter()
    sel = nl.select_modes(GEOM, PROF, BC)
    ints = nl.overlap_integrals(sel)

    def params_for(f1, f2):
        return nl.effective_params(sel, ints, GEOM, NonlinearSettings(
            damping_beam=1e-6, damping_cantilever=1e-6, force1=f1, force2=f2))

    # (a) peak amplitude is drive over damping exactly
    par = params_for(1.0, 1.0)
    for j in (1, 2):
        peak = nl.peak_amplitude(j, par)
        exact = abs(par.drive(j) / (par.damping(j) * par.omega(j)))
        assert abs(peak - exact) <= 1e-14 * exact

    # (b) no second drive: flexing mode at rest, collective mode on the
    # single-mode Duffing curve
    par_single = params_for(1.0, 0.0)
    width = par_single.damping1 / par_single.mass1
    ztarget = 6.0 * width * 4 * par_single.mass1 * par_single.omega1 \
        / abs(par_single.self_coupling1)
    ffold = math.sqrt(ztarget) * par_single.damping1 * par_single.omega1 \
        / abs(par_single.drive_per_force)
    par_b = params_for(ffold, 0.0)
    zpk = nl.peak_amplitude(1, par_b) ** 2
    fold = par_b.self_coupling1 * zpk / (4 * par_b.mass1 * par_b.omega1)
    sig1 = fold * np.linspace(-0.5, 1.1, 20)
    states = nl.coupled_steady_state(sig1, 0.0, par_b)
    assert np.all(np.bincount(states["point"], minlength=20) > 0)
    assert np.all(states["z2"] == 0.0)
    assert np.all(nl.steady_residual(states["z1"], 0.0, sig1[states["point"]],
                                     0.0, par_b) < 1e-10)

    # (c) fundamental peak shift grows monotonically with f2^2
    assert par_b.self_coupling1 < 0 < par_b.cross_coupling
    par_c = params_for(ffold, ffold)
    shifts = []
    for f2 in np.geomspace(0.3, 3.0, 11):
        roots = nl.shift_of_fundamental(par_c, force1=ffold,
                                        force2=float(f2) * ffold)
        assert roots
        shifts.append(roots[-1].sigma1)
    assert np.all(np.diff(shifts) > 0)

    # (d) every reported pair back-substitutes into the amplitude equations
    rng = np.random.default_rng(11)
    par_d = params_for(ffold, 3.0 * ffold)
    sc1 = par_d.self_coupling1 * nl.peak_amplitude(1, par_d) ** 2 \
        / (4 * par_d.mass1 * par_d.omega1)
    sc2 = par_d.self_coupling2 * nl.peak_amplitude(2, par_d) ** 2 \
        / (4 * par_d.mass2 * par_d.omega2)
    sig1, sig2 = np.array([rng.uniform(-1.5, 1.5, 2) for _ in range(25)]).T
    sig1 *= max(abs(sc1), par_d.damping1 / par_d.mass1)
    sig2 *= max(abs(sc2), par_d.damping2 / par_d.mass2)
    states = nl.coupled_steady_state(sig1, sig2, par_d)
    point = states["point"]
    assert np.all(np.bincount(point, minlength=25) > 0)
    assert np.all(nl.steady_residual(states["z1"], states["z2"], sig1[point],
                                     sig2[point], par_d) < 1e-10)
    a1sq = (par_d.drive_per_force * ffold
            / (par_d.damping1 * par_d.omega1)) ** 2
    for f2 in (0.5 * ffold, 2.0 * ffold):
        par_f2 = params_for(ffold, f2)
        for r in nl.shift_of_fundamental(par_d, force1=ffold, force2=f2):
            assert nl.steady_residual(a1sq, r.amplitude2 ** 2, r.sigma1, 0.0,
                                      par_f2) < 1e-10
    report(9, t0, 30.0,
           "peaks exact, Duffing reduction, monotone shift, back-substitution")


def test_criterion_10_frequency_scales():
    t0 = time.perf_counter()
    sel = nl.select_modes(GEOM, PROF, BC)
    f1 = sel.omega1 / (2 * math.pi)
    f2 = sel.omega2 / (2 * math.pi)
    assert abs(f1 - 24.7e6) <= 0.02 * 24.7e6
    assert abs(f2 - 2.94e9) <= 0.02 * 2.94e9
    report(10, t0, None,
           f"fundamental {f1 / 1e6:.2f} MHz, collective {f2 / 1e9:.3f} GHz")
