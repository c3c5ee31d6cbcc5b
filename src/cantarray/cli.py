"""Command-line front end: solve, tabulate, and write reproducible artifacts.

Every run reads one JSON config (or a named preset), dispatches to the
library, and emits a single CSV or JSON table plus a manifest sidecar that
records the tool version, a hash of the effective config, wall time and
every warning raised along the way.  Output files are written atomically
(temp file, then rename) and floats are printed with 17 significant
digits, so identical config and version give byte-identical files.

Exit codes: 0 success, 2 configuration problem, 3 solver failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
import warnings

import numpy as np

from . import __version__, galerkin, nonlinear, spectrum
from .beam import beam_modes
from .kernel import (CantileverShape, PoleProximityError, band_edge_gammas,
                     shear_kernel)
from .model import (BoundaryCondition, Config, ConfigError, SweepRange,
                    config_to_dict, load_config)
from .quadrature import QuadratureError

SOLVER_ERRORS = (QuadratureError, PoleProximityError, spectrum.BlowUpError,
                 np.linalg.LinAlgError, FloatingPointError, ArithmeticError)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    return str(x)


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _render(columns: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "json":
        payload = {"columns": columns,
                   "rows": [[x if isinstance(x, str) else
                             (int(x) if isinstance(x, (int, np.integer))
                              and not isinstance(x, bool) else
                              (bool(x) if isinstance(x, bool) else float(x)))
                             for x in row] for row in rows]}
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(x) for x in row) for row in rows)
    return "\n".join(lines) + "\n"


def _config_hash(config: Config | None) -> str | None:
    if config is None:
        return None
    canonical = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _emit(args, columns, rows, config, caught, t0, payload=None) -> None:
    """Write the table (or a ready JSON payload) and its manifest."""
    fmt = args.format
    if payload is not None:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = _render(columns, rows, fmt)
    warn_strings = [str(w.message) for w in caught]
    for msg in warn_strings:
        print(f"warning: {msg}", file=sys.stderr)
    manifest = {
        "cantarray_version": __version__,
        "subcommand": args.subcommand,
        "config_sha256": _config_hash(config),
        "format": "json" if payload is not None else fmt,
        "rows": len(rows),
        "wall_time_s": round(time.perf_counter() - t0, 3),
        "warnings": warn_strings,
    }
    if args.output:
        manifest["output"] = os.path.basename(args.output)
        _write_atomic(args.output, text)
        _write_atomic(args.output + ".manifest.json",
                      json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        print(f"wrote {args.output} ({len(rows)} rows), manifest alongside",
              file=sys.stderr)
    else:
        manifest["output"] = None
        sys.stdout.write(text)
        print("manifest: " + json.dumps(manifest, sort_keys=True),
              file=sys.stderr)


def _load(args) -> Config | None:
    if getattr(args, "config", None) and getattr(args, "preset", None):
        raise ConfigError("give either --config or --preset, not both")
    config = None
    if getattr(args, "config", None):
        config = load_config(args.config)
    elif getattr(args, "preset", None):
        config = load_config({"geometry": {"preset": args.preset}})
    if config is not None and config.preset_name:
        # provenance travels with every artifact built on fitted constants
        warnings.warn(f"preset {config.preset_name!r}: section constants are "
                      "a calibrated reconstruction, not measured dimensions")
    return config


def _require_config(args) -> Config:
    config = _load(args)
    if config is None:
        raise ConfigError(f"{args.subcommand}: needs --config or --preset")
    return config


# --- subcommands -------------------------------------------------------------


def _cmd_modes(args, caught, t0):
    config = _load(args)
    if config is not None:
        bc = config.boundary
        n_max = args.n_max or config.spectrum.n_max
    else:
        bc = BoundaryCondition.from_name(args.bc)
        n_max = args.n_max or 4
    modes = beam_modes(bc, n_max)
    if args.samples:
        u = np.linspace(0.0, 1.0, args.samples)
        shapes = [m.eval(u) for m in modes]
        columns = ["u"] + [f"phi_{m.n}" for m in modes]
        rows = [[float(u[i]), *(float(s[i]) for s in shapes)]
                for i in range(u.size)]
        _emit(args, columns, rows, config, caught, t0)
        return
    columns = ["n", "beta", "omega_rad_s", "freq_hz"]
    rows = []
    for m in modes:
        if config is not None:
            w = (config.geometry.beam_wave_scale
                 * (m.beta / config.geometry.beam_length) ** 2)
        else:
            w = math.nan
        rows.append([m.n, m.beta, w, w / (2.0 * math.pi)])
    _emit(args, columns, rows, config, caught, t0)


def _cmd_kernel(args, caught, t0):
    if args.shape is not None:
        # deflection profile of one cantilever driven at its clamp
        sh = CantileverShape(args.shape)
        v = np.linspace(0.0, 1.0, args.points)
        rows = [[float(vv), float(cv)] for vv, cv in zip(v, sh(v))]
        _emit(args, ["v", "chi"], rows, None, caught, t0)
        return
    gmax = args.gamma_max
    k_count = int(np.sum(band_edge_gammas(max(2, int(gmax / math.pi) + 2)) < gmax))
    poles = band_edge_gammas(max(k_count, 1))[:k_count] if k_count else []
    grid = np.linspace(0.0, gmax, args.points)
    keep = np.ones(grid.size, dtype=bool)
    for p in poles:
        keep &= np.abs(grid - p) > 1e-9 * max(p, 1.0)
    dropped = int(np.sum(~keep))
    if dropped:
        warnings.warn(f"{dropped} sample(s) inside a band-edge pole window "
                      "were dropped")
    grid = grid[keep]
    vals = shear_kernel(grid)
    rows = [[g, v] for g, v in zip(grid, vals)]
    _emit(args, ["gamma", "kernel"], rows, None, caught, t0)


def _spectrum_rows(levels):
    base = next((lv.omega for lv in levels if lv.n == 1 and lv.k == 1), None)
    columns = ["n", "k", "gamma", "omega_rad_s", "freq_hz",
               "omega_normalized", "band_edge_lower", "band_edge_upper",
               "valid"]
    rows = []
    for lv in levels:
        rows.append([lv.n, lv.k, lv.gamma, lv.omega,
                     lv.omega / (2.0 * math.pi),
                     lv.omega / base if base else math.nan,
                     lv.band_lower, lv.band_upper, lv.valid])
    return columns, rows


def _cmd_spectrum(args, caught, t0):
    config = _require_config(args)
    n_max = args.n_max or config.spectrum.n_max
    k_max = args.k_max or config.spectrum.k_max
    profile = config.profile
    if hasattr(profile, "length1"):
        levels = spectrum.solve_alternating(config.geometry, profile,
                                            config.boundary, n_max, k_max)
    elif hasattr(profile, "length"):
        levels = spectrum.solve_uniform(config.geometry, profile,
                                        config.boundary, n_max, k_max)
    else:
        raise ConfigError("spectrum: profile must be uniform or alternating; "
                          "use the galerkin subcommand for tabulated/discrete")
    invalid = sum(1 for lv in levels if not lv.valid)
    if invalid:
        warnings.warn(f"{invalid} level(s) have beam index n >= N and fall "
                      "outside the averaged model's validity")
    columns, rows = _spectrum_rows(levels)
    _emit(args, columns, rows, config, caught, t0)


def _cmd_sweep(args, caught, t0):
    config = _require_config(args)
    profile = config.profile
    n_max = args.n_max or config.spectrum.n_max
    k_max = args.k_max or config.spectrum.k_max
    values = np.linspace(args.sweep_from, args.sweep_to, args.points)
    columns = ["param", "value", "n", "k", "gamma", "omega_rad_s"]
    rows = []
    if args.param == "epsilon":
        if not hasattr(profile, "length1"):
            raise ConfigError("sweep epsilon: needs an alternating profile")
        for value, levels in spectrum.sweep_alternating(
                config.geometry, profile, config.boundary, values, n_max,
                k_max):
            rows.extend([args.param, value, lv.n, lv.k, lv.gamma, lv.omega]
                        for lv in levels)
        _emit(args, columns, rows, config, caught, t0)
        return
    if not hasattr(profile, "length"):
        raise ConfigError("sweep: needs a uniform profile")
    for value, gammas, scale in spectrum.sweep_uniform(
            config.geometry, profile, config.boundary, args.param, values,
            n_max, k_max):
        for n in range(1, n_max + 1):
            for k in range(1, k_max + 1):
                g = gammas[n - 1, k - 1]
                if not np.isfinite(g):
                    continue
                rows.append([args.param, value, n, k, float(g),
                             float(scale * g * g)])
    _emit(args, columns, rows, config, caught, t0)


def _cmd_galerkin(args, caught, t0):
    config = _require_config(args)
    settings = config.galerkin
    if args.basis_size:
        settings = type(settings)(basis_size=args.basis_size,
                                  quadrature_order=settings.quadrature_order,
                                  quadrature_rtol=settings.quadrature_rtol)
    profile = config.profile
    if args.alpha_max:
        alpha_max = args.alpha_max
    else:
        # span k_max bands of the longest cantilever
        lengths = galerkin._distinct_lengths(profile)
        if lengths is None:
            longest = max(profile.length)
        else:
            longest = max(lengths)
        alpha_max = band_edge_gammas(config.spectrum.k_max)[-1] / longest
    levels = galerkin.solve(config.geometry, profile, config.boundary,
                            alpha_max, settings=settings)
    m = settings.basis_size
    columns = (["alpha", "omega_rad_s", "dominant_n"]
               + [f"participation_{i}" for i in range(1, m + 1)])
    rows = [[lv.alpha, lv.omega, lv.dominant_n, *map(float, lv.participation)]
            for lv in levels]
    _emit(args, columns, rows, config, caught, t0)


def _sigma_values(setting) -> np.ndarray:
    if isinstance(setting, SweepRange):
        return setting.values()
    return np.array([float(setting)])


def _cmd_nonlinear(args, caught, t0):
    config = _require_config(args)
    profile = config.profile
    if not hasattr(profile, "length"):
        raise ConfigError("nonlinear: needs a uniform profile")
    ns = config.nonlinear
    if args.f1 is not None or args.f2 is not None:
        ns = type(ns)(damping_beam=ns.damping_beam,
                      damping_cantilever=ns.damping_cantilever,
                      force1=ns.force1 if args.f1 is None else args.f1,
                      force2=ns.force2 if args.f2 is None else args.f2,
                      sigma1=ns.sigma1, sigma2=ns.sigma2)
    overlap_rtol = 1e-9
    selection = nonlinear.select_modes(config.geometry, profile,
                                       config.boundary)
    integrals = nonlinear.overlap_integrals(selection, rtol=overlap_rtol)
    params = nonlinear.effective_params(selection, integrals,
                                        config.geometry, ns)

    if args.what == "coeffs":
        if args.format == "csv":
            raise ConfigError("nonlinear coeffs: JSON only, pass "
                              "--format json or drop --format")
        bb = integrals.beam
        payload = {
            "provenance": {
                "tool_version": __version__,
                "preset": config.preset_name,
                "calibrated": bool(config.preset_name),
                "overlap_quadrature_rtol": overlap_rtol,
            },
            "selection": {
                "beta": selection.beta, "lam": selection.lam,
                "nu": selection.nu,
                "gamma1": selection.gamma1, "gamma2": selection.gamma2,
                "omega1_rad_s": selection.omega1,
                "omega2_rad_s": selection.omega2,
            },
            "beam_integrals": {
                "stretch_inertia": bb.stretch_inertia,
                "curvature_quartic": bb.curvature_quartic,
                "shape_quartic": bb.shape_quartic,
                "mean_shape": bb.mean_shape,
            },
            "cantilever_integrals": {
                "mass_overlap": integrals.mass_overlap.tolist(),
                "damping_overlap": integrals.damping_overlap.tolist(),
                "stretch_overlap": integrals.stretch_overlap.tolist(),
                "curvature_overlap": integrals.curvature_overlap.tolist(),
            },
            "effective_params": {
                "mass1_kg": params.mass1, "mass2_kg": params.mass2,
                "damping1": params.damping1, "damping2": params.damping2,
                "self_coupling1": params.self_coupling1,
                "self_coupling2": params.self_coupling2,
                "cross_coupling": params.cross_coupling,
                "drive1_N": params.drive1, "drive2_N": params.drive2,
                "drive_per_force": params.drive_per_force,
                "omega1_rad_s": params.omega1, "omega2_rad_s": params.omega2,
            },
        }
        _emit(args, [], [], config, caught, t0, payload=payload)
        return

    # branch concatenates the two per-mode labels, e.g. "+-"; stability is
    # not classified here, so the flag is always "unknown"
    columns = ["sigma1", "sigma2", "a1", "a2", "theta1", "theta2",
               "branch", "stable_flag"]
    rows = []
    for s1 in _sigma_values(ns.sigma1):
        for s2 in _sigma_values(ns.sigma2):
            for p1, p2 in nonlinear.coupled_steady_state(float(s1), float(s2),
                                                         params):
                rows.append([float(s1), float(s2), p1.amplitude, p2.amplitude,
                             p1.phase, p2.phase, p1.branch + p2.branch,
                             "unknown"])
    _emit(args, columns, rows, config, caught, t0)


# --- argument parsing --------------------------------------------------------


def _positive(kind):
    """argparse type: a finite number of the given kind above zero."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(
                f"expected a positive {kind.__name__}, got {text!r}")
        return value
    return parse


def _add_io_flags(p, config_flags=True):
    if config_flags:
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", help="named device preset")
    p.add_argument("--output", help="write table here (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cantarray",
        description="spectra, band structure and nonlinear response of "
                    "cantilever-array resonators")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("modes", help="beam modes of the bare support")
    _add_io_flags(p)
    p.add_argument("--bc", default="clamped-clamped",
                   help="boundary condition when no config is given")
    p.add_argument("--n-max", type=_positive(int))
    p.add_argument("--samples", type=_positive(int),
                   help="emit an (u, phi_1..phi_n) shape table with this "
                        "many points instead of the eigenvalue table")
    p.set_defaults(run=_cmd_modes)

    p = sub.add_parser("kernel", help="shear kernel table (dimensionless)")
    _add_io_flags(p, config_flags=False)
    p.add_argument("--gamma-max", type=_positive(float), default=12.0)
    p.add_argument("--points", type=_positive(int), default=481)
    p.add_argument("--shape", type=float, metavar="GAMMA",
                   help="emit the cantilever deflection profile chi(v) at "
                        "this frequency instead of the kernel table")
    p.set_defaults(run=_cmd_kernel)

    p = sub.add_parser("spectrum", help="band structure of the loaded beam")
    _add_io_flags(p)
    p.add_argument("--n-max", type=_positive(int))
    p.add_argument("--k-max", type=_positive(int))
    p.set_defaults(run=_cmd_spectrum)

    p = sub.add_parser("sweep", help="spectrum versus one parameter")
    _add_io_flags(p)
    p.add_argument("--param", required=True,
                   choices=("lambda", "nu", "N", "epsilon"))
    p.add_argument("--from", dest="sweep_from", type=float, required=True)
    p.add_argument("--to", dest="sweep_to", type=float, required=True)
    p.add_argument("--points", type=_positive(int), default=100)
    p.add_argument("--n-max", type=_positive(int))
    p.add_argument("--k-max", type=_positive(int))
    p.set_defaults(run=_cmd_sweep)

    p = sub.add_parser("galerkin", help="projection solve for any profile")
    _add_io_flags(p)
    p.add_argument("--basis-size", type=_positive(int))
    p.add_argument("--alpha-max", type=_positive(float))
    p.set_defaults(run=_cmd_galerkin)

    p = sub.add_parser("nonlinear", help="two-mode coupling outputs")
    p.add_argument("what", choices=("coeffs", "response"))
    _add_io_flags(p)
    p.add_argument("--f1", type=float, help="override modal force density 1")
    p.add_argument("--f2", type=float, help="override modal force density 2")
    p.set_defaults(run=_cmd_nonlinear)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            args.run(args, caught, t0)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
