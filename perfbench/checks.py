"""Output checks, run after the timed rounds.

Every check counts operations on the inputs, so the denominator does not
depend on what the solver emitted: for Galerkin each level the inertia count
predicts, for spectra and sweeps each swept value (a spectrum job is one
value), for the response each grid point.  A job that exited non-zero fails
all of its operations.  Checks call public package functions only, and the
secular functions and the steady-state count are recomputed here from their
defining equations instead of through the solvers' own code.
"""
from __future__ import annotations

import csv
import math
import warnings
from collections import defaultdict

import numpy as np

from cantarray import galerkin, nonlinear, spectrum
from cantarray.beam import beam_modes, beam_roots
from cantarray.kernel import band_edge_gammas
from cantarray.model import (AlternatingProfile, DimensionlessParams,
                             SweepRange, dimensionless, load_config)

ALPHA_STEP = 1e-11      # relative offset of the Galerkin inertia bracket
GAMMA_STEP = 1e-12      # relative offset of the secular sign-change test
RESIDUAL_MAX = 1e-10    # steady_residual bound for every response row
ORACLE_SAMPLE = 100     # response grid points recounted by the oracle
ORACLE_GRID = 400001    # nodes of the oracle scan along the elimination curve


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- Galerkin -------------------------------------------------------------------


def pole_free_segments(profile, alpha_max: float) -> list[tuple[float, float]]:
    """(0, alpha_max] minus the forbidden resonance intervals."""
    segments, cursor = [], 0.0
    for itv in galerkin.forbidden_alpha_intervals(profile, alpha_max):
        if itv.hi <= 0.0 or itv.lo >= alpha_max:
            continue
        if itv.lo > cursor:
            segments.append((cursor, itv.lo))
        cursor = max(cursor, itv.hi)
    if cursor < alpha_max:
        segments.append((cursor, alpha_max))
    return segments


def check_galerkin(job, rows, ok_exit: bool) -> tuple[int, int]:
    config = load_config(job.config)
    settings = config.galerkin
    basis = beam_modes(config.boundary, settings.basis_size)

    def inertia(alpha: float) -> int:
        mat = galerkin.assemble(alpha, config.geometry, config.profile,
                                basis, settings)
        return int(np.sum(np.linalg.eigvalsh(mat) < 0.0))

    alphas = sorted(float(r["alpha"]) for r in rows) if ok_exit else []
    attempted = failed = 0
    claimed = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for lo, hi in pole_free_segments(config.profile,
                                         job.extra["alpha_max"]):
            lo_eval = lo if lo > 0.0 else 1e-9 * hi
            expected = inertia(hi) - inertia(lo_eval)
            emitted = [a for a in alphas if lo < a <= hi]
            claimed += len(emitted)
            good = sum(inertia(a * (1.0 + ALPHA_STEP))
                       > inertia(a * (1.0 - ALPHA_STEP)) for a in emitted)
            extra = max(0, len(emitted) - expected)
            attempted += expected + extra
            failed += expected - min(good, expected) + extra
    stray = len(alphas) - claimed     # levels inside a forbidden interval
    return attempted + stray, failed + stray


# --- spectra and sweeps ---------------------------------------------------------


def shear_kernel(gamma):
    """T = (cos sinh + sin cosh)/(1 + cos cosh), divided through by cosh."""
    return (np.cos(gamma) * np.tanh(gamma) + np.sin(gamma)) \
        / (1.0 / np.cosh(gamma) + np.cos(gamma))


def _uniform_secular(params: DimensionlessParams, beta, gamma):
    return params.nu * params.lam * gamma ** 3 * shear_kernel(gamma) \
        + gamma ** 4 - (params.lam * beta) ** 4


def _alternating_secular(geometry, profile, beta, gamma):
    scale = profile.length1 * 2.0 / (geometry.beam_length * geometry.beam_width)
    c1 = profile.width1 * profile.count1 * scale
    c2 = profile.width2 * profile.count2 * scale
    eps = profile.epsilon
    lam1 = profile.length1 / geometry.beam_length
    return gamma ** 3 * (c1 * shear_kernel(gamma)
                         + c2 * shear_kernel(eps * gamma)) \
        + gamma ** 4 - (lam1 * beta) ** 4


def _value_ok(rows, n_max, k_max, secular, band) -> bool:
    """One level per (n, k), strictly inside its band, at a sign change."""
    keys = sorted((int(r["n"]), int(r["k"])) for r in rows)
    if keys != [(n, k) for n in range(1, n_max + 1)
                for k in range(1, k_max + 1)]:
        return False
    for r in rows:
        n, k, g = int(r["n"]), int(r["k"]), float(r["gamma"])
        lower, upper = band(k)
        if not lower < g < upper:
            return False
        lo = secular(n, g * (1.0 - GAMMA_STEP))
        hi = secular(n, g * (1.0 + GAMMA_STEP))
        if not lo * hi <= 0.0:
            return False
    return True


def _uniform_bands(k_max):
    edges = band_edge_gammas(k_max)
    return lambda k: (0.0 if k == 1 else float(edges[k - 2]),
                      float(edges[k - 1]))


def _alternating_bands(profile, k_max):
    gamma_hi = float(band_edge_gammas(k_max)[-1]) + 1.0
    while True:
        poles = [g for g, _ in spectrum.alternating_pole_set(profile, gamma_hi)]
        if len(poles) >= k_max:
            break
        gamma_hi *= 1.6
    bounds = [0.0] + poles[:k_max]
    return lambda k: (bounds[k - 1], bounds[k])


def _spectrum_value_ok(config, profile, params, rows) -> bool:
    n_max, k_max = config.spectrum.n_max, config.spectrum.k_max
    betas = beam_roots(config.boundary, n_max)
    with np.errstate(all="ignore"):
        if isinstance(profile, AlternatingProfile):
            return _value_ok(
                rows, n_max, k_max,
                lambda n, g: _alternating_secular(config.geometry, profile,
                                                  betas[n - 1], g),
                _alternating_bands(profile, k_max))
        return _value_ok(rows, n_max, k_max,
                         lambda n, g: _uniform_secular(params, betas[n - 1], g),
                         _uniform_bands(k_max))


def check_spectrum(job, rows, ok_exit: bool) -> tuple[int, int]:
    if not ok_exit:
        return 1, 1
    config = load_config(job.config)
    profile = config.profile
    params = None if isinstance(profile, AlternatingProfile) \
        else dimensionless(config.geometry, profile)
    return 1, 0 if _spectrum_value_ok(config, profile, params, rows) else 1


def check_sweep(job, rows, ok_exit: bool) -> tuple[int, int]:
    spec = job.extra
    values = np.linspace(spec["from"], spec["to"], spec["points"])
    if not ok_exit:
        return len(values), len(values)
    config = load_config(job.config)
    profile = config.profile
    by_value = defaultdict(list)
    for r in rows:
        by_value[float(r["value"])].append(r)
    geometry = config.geometry
    failed = 0
    for value in values:
        value = float(value)
        if spec["param"] == "epsilon":
            swept = AlternatingProfile(
                length1=profile.length1, length2=value * profile.length1,
                width1=profile.width1, width2=profile.width2,
                count1=profile.count1, count2=profile.count2)
            params = None
        else:
            swept = profile
            base = dimensionless(geometry, profile)
            if spec["param"] == "nu":
                params = DimensionlessParams(lam=base.lam, nu=value)
            elif spec["param"] == "lambda":
                params = DimensionlessParams(lam=value, nu=base.nu)
            else:
                params = DimensionlessParams(
                    lam=base.lam, nu=2.0 * value * geometry.cantilever_width
                    / geometry.beam_width)
        if not _spectrum_value_ok(config, swept, params, by_value[value]):
            failed += 1
    return len(values), failed


# --- nonlinear response ---------------------------------------------------------


def oracle_state_count(sigma1: float, sigma2: float, p) -> int:
    """Steady states at (sigma1, sigma2) by elimination, independent of the
    solver.

    Mode 1 in steady state reads z1 * (D1^2 + (w1 mu1)^2) = F1^2 with
    D1 = (C1 z1 + C12 z2)/4 - w1 sigma1 M1.  Writing D1 = s, every real s
    gives z1 = F1^2/(s^2 + (w1 mu1)^2) on [0, (F1/(w1 mu1))^2] and then z2
    linearly, so the solutions are the sign changes of the mode-2 residual
    along one continuous curve in s.  That residual is -F2^2 < 0 wherever
    z2 <= 0, so every sign change is an admissible state.
    """
    w1, m1, mu1, c1, f1 = p.omega1, p.mass1, p.damping1, p.self_coupling1, p.drive1
    w2, m2, mu2, c2, f2 = p.omega2, p.mass2, p.damping2, p.self_coupling2, p.drive2
    c12 = p.cross_coupling
    d1 = w1 * mu1
    z1_max = (f1 / d1) ** 2
    z2_max = (f2 / (w2 * mu2)) ** 2
    s_max = abs(w1 * sigma1 * m1) + 0.25 * (abs(c1) * z1_max
                                            + abs(c12) * z2_max)
    u_max = math.asinh(1.01 * s_max / d1 + 1.0)
    s = d1 * np.sinh(np.linspace(-u_max, u_max, ORACLE_GRID))
    z1 = f1 ** 2 / (s * s + d1 * d1)
    z2 = (4.0 * (s + w1 * sigma1 * m1) - c1 * z1) / c12
    d2 = 0.25 * (c2 * z2 + c12 * z1) - w2 * sigma2 * m2
    residual = z2 * (d2 * d2 + (w2 * mu2) ** 2) - f2 ** 2
    sign = np.sign(residual)
    sign = sign[sign != 0.0]
    return int(np.count_nonzero(sign[1:] != sign[:-1]))


def check_response(job, rows, ok_exit: bool, seed: int) -> tuple[int, int]:
    config = load_config(job.config)
    ns = config.nonlinear
    grid = [(float(a), float(b)) for a in _values(ns.sigma1)
            for b in _values(ns.sigma2)]
    if not ok_exit:
        return len(grid), len(grid)
    selection = nonlinear.select_modes(config.geometry, config.profile,
                                       config.boundary)
    integrals = nonlinear.overlap_integrals(selection, rtol=1e-9)
    params = nonlinear.effective_params(selection, integrals,
                                        config.geometry, ns)
    states = defaultdict(list)
    for r in rows:
        states[(float(r["sigma1"]), float(r["sigma2"]))].append(
            (float(r["a1"]) ** 2, float(r["a2"]) ** 2))
    rng = np.random.default_rng([seed, len(grid)])
    sample = set(rng.choice(len(grid), size=min(ORACLE_SAMPLE, len(grid)),
                            replace=False).tolist())
    failed = 0
    for i, (s1, s2) in enumerate(grid):
        found = states[(s1, s2)]
        ok = len(found) % 2 == 1 and all(
            nonlinear.steady_residual(z1, z2, s1, s2, params) <= RESIDUAL_MAX
            for z1, z2 in found)
        if ok and i in sample:
            ok = oracle_state_count(s1, s2, params) == len(found)
        failed += not ok
    return len(grid), failed


def _values(setting):
    if isinstance(setting, SweepRange):
        return setting.values()
    return [float(setting)]


def check_job(job, output_path, exit_code: int, seed: int) -> tuple[int, int]:
    """(attempted, failed) operations of one job."""
    ok_exit = exit_code == 0
    rows = read_rows(output_path) if ok_exit else []
    if job.kind == "galerkin":
        return check_galerkin(job, rows, ok_exit)
    if job.kind == "spectrum":
        return check_spectrum(job, rows, ok_exit)
    if job.kind == "sweep":
        return check_sweep(job, rows, ok_exit)
    return check_response(job, rows, ok_exit, seed)
