"""Seeded inputs for the benchmark workloads.

Each workload turns its seed into a fixed list of CLI jobs.  A job is an
ordinary JSON config plus the `cantarray` arguments that run it; the program
sees nothing but those files.  Draws only move values inside ranges that keep
the work per job the same shape (number of pole-free segments, levels per
band, sweep points, grid size), so the cost of a job list does not depend on
the seed while its numbers do.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from cantarray.kernel import band_edge_gammas
from cantarray.model import preset_device

PRESET = "jap1-calibrated"


@dataclass
class Job:
    name: str            # file stem of the config and output
    kind: str            # galerkin | spectrum | sweep | response
    args: list[str]      # subcommand and flags, without --config/--output
    config: dict
    items: int           # input items: solves, swept values or grid points
    extra: dict = field(default_factory=dict)   # what the checks need
    probe: bool = False  # known-defect probe: run untimed, reported apart


def _preset():
    geometry, profile, _ = preset_device(PRESET)
    return geometry.to_dict(), profile.length


def _cc(geometry: dict, **sections) -> dict:
    return {"geometry": geometry, "boundary": {"kind": "clamped-clamped"},
            **sections}


# --- galerkin-graded ------------------------------------------------------------
# The Galerkin hot spot (the per-node pole check) sits on the quadrature branch
# of galerkin.assemble, which only tabulated profiles take.  Knot counts come
# from 10..40, so the PCHIP kinks mostly fall inside the dyadic sub-panels of
# the refinement passes and the quadrature runs all of them, as it does for
# real measured profiles.  alpha_max stops at 0.8 of band 1, which holds all
# eight levels of the basis and keeps gamma below pi/2 on every node.

def galerkin_graded(rng: np.random.Generator) -> list[Job]:
    geometry, cant = _preset()
    beam_length = geometry["beam_length"]
    knots = int(rng.integers(10, 41))
    u = np.linspace(0.0, 1.0, knots)
    m = np.arange(1, 4)[:, None]
    a = rng.uniform(-1.0, 1.0, 3)
    a *= rng.uniform(0.08, 0.15) / np.abs(a).sum()
    b = rng.uniform(-1.0, 1.0, 3)
    b *= rng.uniform(0.15, 0.3) / np.abs(b).sum()
    phase_a = rng.uniform(0.0, 2.0 * math.pi, 3)[:, None]
    phase_b = rng.uniform(0.0, 2.0 * math.pi, 3)[:, None]
    length = cant * rng.uniform(0.9, 1.1) * (
        1.0 + (a[:, None] * np.sin(m * math.pi * u + phase_a)).sum(axis=0))
    density = (2.0 * geometry["count_per_side"] / beam_length) * (
        1.0 + (b[:, None] * np.cos(m * math.pi * u + phase_b)).sum(axis=0))
    alpha_max = 0.8 * float(band_edge_gammas(1)[0]) / float(length.max())
    config = _cc(geometry,
                 profile={"kind": "tabulated", "x": (u * beam_length).tolist(),
                          "length": length.tolist(),
                          "density": density.tolist()},
                 galerkin={"basis_size": 8,
                           "quadrature": {"order": 8, "rtol": 1e-10}})
    return [Job(f"graded-{knots}knots", "galerkin",
                ["galerkin", "--alpha-max", repr(alpha_max)], config, 1,
                {"alpha_max": alpha_max})]


# --- galerkin-comb ----------------------------------------------------------------
# Same layers as galerkin-graded (pole check, inertia scan, bisection) through
# exact point sums instead of quadrature, so it bypasses any quadrature or
# basis-caching change.  The seed picks one or two length families; either
# way the comb spans two bands, i.e. two pole-free segments and 16 levels: one
# family up to its second band edge, two families (short teeth at 0.7-0.8 of
# the long ones) up to the first band edge of the short teeth.  Both cost the
# same, so the draw does not move the timing.

def galerkin_comb(rng: np.random.Generator) -> list[Job]:
    geometry, cant = _preset()
    families = int(rng.integers(1, 3))
    n = 200
    beam_length = geometry["beam_length"]
    positions = (np.arange(n) + 0.5 + rng.uniform(-0.35, 0.35, n)) \
        * beam_length / n
    long_tooth = cant * rng.uniform(0.95, 1.05)
    lengths = np.full(n, long_tooth)
    if families == 2:
        lengths[1::2] = long_tooth * rng.uniform(0.7, 0.8)
    edges = band_edge_gammas(2)
    alpha_max = 0.9999 * float(edges[1] / long_tooth if families == 1
                               else edges[0] / lengths.min())
    config = _cc({**geometry, "count_per_side": n},
                 profile={"kind": "discrete", "positions": positions.tolist(),
                          "lengths": lengths.tolist()},
                 galerkin={"basis_size": 8})
    return [Job(f"comb-{families}family", "galerkin",
                ["galerkin", "--alpha-max", repr(alpha_max)], config, 1,
                {"alpha_max": alpha_max})]


# --- bands-duffing ------------------------------------------------------------------
# Closed-form band solvers and the two-mode Duffing reduction; never calls
# galerkin.  Carries the 32k-row nu sweep (rendering), lambda and N sweeps,
# the two-family solver with epsilon approaching 1 (layouts at 1 - 10^-j,
# j = 1..9, and a sweep to 1 - 10^-3..1 - 10^-6), and a sigma1 x sigma2 grid
# across the bistable window of mode 1, where every point has three states.
#
# Every timed job is one on which the program is correct, so that the
# benchmark's verdict can gate later changes.  The two known defects run
# after the timing as probes (Job.probe), with fixed inputs, and are checked
# and reported on their own: the layout at epsilon = 1 - 1e-10 (within the
# two-family solver's 1e-9 pole-merge distance; j = 10..12 are probed), and
# the fold grid where both modes are multivalued, whose saddle-node edges
# give even or missing state counts.  The timed grid keeps sigma1 inside the
# window, at least 80 (1/s) from both edges for any drawn drive, and sigma2
# below the multivalued region of mode 2.

def _response(f1, f2, sigma1, sigma2) -> dict:
    preset = {"preset": PRESET}
    return _cc(preset, nonlinear={"c_y": 1e-6, "c_eta": 1e-6, "f1": f1,
                                  "f2": f2, "sigma1": sigma1,
                                  "sigma2": sigma2})


def bands_duffing(rng: np.random.Generator) -> list[Job]:
    geometry, cant = _preset()
    preset = {"preset": PRESET}
    jobs = []

    count = int(rng.integers(10, 41))
    uniform = _cc({**geometry, "count_per_side": count},
                  profile={"kind": "uniform",
                           "length": cant * rng.uniform(0.8, 1.2)},
                  spectrum={"n_max": 8, "k_max": 8})
    jobs.append(Job("spectrum-uniform", "spectrum", ["spectrum"], uniform, 1))

    wide = _cc(preset, spectrum={"n_max": 8, "k_max": 8})
    sweeps = [("nu", rng.uniform(0.5, 2.0), rng.uniform(60.0, 120.0), 500),
              ("lambda", rng.uniform(0.02, 0.03), rng.uniform(0.08, 0.1), 100),
              ("N", rng.uniform(1.0, 3.0), rng.uniform(50.0, 80.0), 100)]
    for param, lo, hi, points in sweeps:
        jobs.append(Job(f"sweep-{param}", "sweep",
                        ["sweep", "--param", param, "--from", repr(lo),
                         "--to", repr(hi), "--points", str(points)],
                        wide, points,
                        {"param": param, "from": lo, "to": hi,
                         "points": points}))

    for j in range(1, 13):
        layout = _cc(preset,
                     profile={"kind": "alternating", "length1": cant,
                              "length2": (1.0 - 10.0 ** -j) * cant,
                              "count1": 10, "count2": 10},
                     spectrum={"n_max": 3, "k_max": 4})
        jobs.append(Job(f"spectrum-eps-{j}", "spectrum", ["spectrum"],
                        layout, 1, probe=j >= 10))

    long_tooth = cant * rng.uniform(0.9, 1.1)
    alternating = _cc(preset,
                      profile={"kind": "alternating", "length1": long_tooth,
                               "length2": 0.5 * long_tooth,
                               "count1": 10, "count2": 10},
                      spectrum={"n_max": 3, "k_max": 4})
    eps_from = rng.uniform(0.3, 0.5)
    eps_to = 1.0 - 10.0 ** -int(rng.integers(3, 7))
    jobs.append(Job("sweep-epsilon", "sweep",
                    ["sweep", "--param", "epsilon", "--from", repr(eps_from),
                     "--to", repr(eps_to), "--points", "200"], alternating,
                    200, {"param": "epsilon", "from": eps_from, "to": eps_to,
                          "points": 200}))

    def jitter(value, spread):
        return value * rng.uniform(1.0 - spread, 1.0 + spread)

    # for f1 = 3.7e-6 (1 +- 3%), any drawn f2 and sigma2 in [-4400, -270],
    # the window of mode 1 starts below sigma1 = -1750 and ends above -1005
    window = _response(
        jitter(3.7e-6, 0.03), jitter(3.5e-5, 0.05),
        {"from": jitter(-1600.0, 0.03), "to": jitter(-1150.0, 0.03),
         "points": 201},
        {"from": jitter(-4000.0, 0.1), "to": jitter(-300.0, 0.1),
         "points": 5})
    jobs.append(Job("response", "response", ["nonlinear", "response"],
                    window, 201 * 5))
    fold = _response(3.7e-6, 3.5e-5,
                     {"from": -2600.0, "to": 700.0, "points": 41},
                     {"from": -1500.0, "to": 10000.0, "points": 5})
    jobs.append(Job("response-fold", "response", ["nonlinear", "response"],
                    fold, 41 * 5, probe=True))
    return jobs


WORKLOADS = {
    "galerkin-graded": galerkin_graded,
    "galerkin-comb": galerkin_comb,
    "bands-duffing": bands_duffing,
}


def build(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](np.random.default_rng(seed))
