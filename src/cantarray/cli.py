"""Command-line front end: solve, tabulate, and write reproducible artifacts.

Every run reads one JSON config (or a named preset), dispatches to the
library, and emits a single CSV or JSON table plus a manifest sidecar that
records the tool version, a hash of the effective config, wall time and
every warning raised along the way.  A table is a set of named columns, each
a numpy array of one type; floats are printed with 17 significant digits and
output files are written atomically (temp file, then rename), so identical
config and version give byte-identical files.

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
from dataclasses import replace

import numpy as np

from . import __version__, galerkin, nonlinear, spectrum
from .beam import beam_modes
from .kernel import (CantileverShape, PoleProximityError, band_edge_gammas,
                     shear_kernel)
from .model import (AlternatingProfile, BoundaryCondition, Config, ConfigError,
                    SweepRange, UniformProfile, config_to_dict, load_config)
from .quadrature import QuadratureError

SOLVER_ERRORS = (QuadratureError, PoleProximityError, spectrum.BlowUpError,
                 np.linalg.LinAlgError, FloatingPointError, ArithmeticError)

# CSV field per dtype kind of a column; bool columns are mapped to text first
_CSV_FIELD = {"b": "%s", "i": "%d", "f": "%.17g", "U": "%s"}
_BLOCK_ROWS = 4096   # CSV rows formatted per write
_JSON = json.JSONEncoder(sort_keys=True, indent=2)


def _write_json(fh, obj) -> None:
    fh.writelines(_JSON.iterencode(obj))
    fh.write("\n")


def _write_table(fh, table: dict[str, np.ndarray], fmt: str) -> None:
    """Write named, equal-length columns to fh as CSV or JSON.

    CSV: a header line, then one line per row from a single %-template
    (floats %.17g, ints %d, bools true/false, strings as they are), written
    in blocks of _BLOCK_ROWS rows.  JSON: {"columns": names, "rows": rows}.
    """
    cols = list(table.values())
    if fmt == "json":
        rows = list(zip(*(c.tolist() for c in cols)))
        _write_json(fh, {"columns": list(table), "rows": rows})
        return
    line = ",".join(_CSV_FIELD[c.dtype.kind] for c in cols) + "\n"
    cells = [np.where(c, "true", "false") if c.dtype.kind == "b" else c
             for c in cols]
    fh.write(",".join(table) + "\n")
    for start in range(0, len(cols[0]), _BLOCK_ROWS):
        block = zip(*(c[start:start + _BLOCK_ROWS].tolist() for c in cells))
        fh.write("".join([line % row for row in block]))


def _write_atomic(path: str, write) -> None:
    """Call write(fh) on a temp file beside path, then rename it to path."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_hash(config: Config | None) -> str | None:
    if config is None:
        return None
    canonical = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _emit(args, table, config, caught, t0, payload=None) -> None:
    """Write the table (or a ready JSON payload) and its manifest."""
    def write(fh):
        if payload is None:
            _write_table(fh, table, args.format)
        else:
            _write_json(fh, payload)
    rows = len(next(iter(table.values()), ()))
    warn_strings = [str(w.message) for w in caught]
    for msg in warn_strings:
        print(f"warning: {msg}", file=sys.stderr)
    if args.output:
        _write_atomic(args.output, write)
    else:
        write(sys.stdout)
    manifest = {
        "cantarray_version": __version__,
        "subcommand": args.subcommand,
        "config_sha256": _config_hash(config),
        "format": "json" if payload is not None else args.format,
        "rows": rows,
        "wall_time_s": round(time.perf_counter() - t0, 3),
        "warnings": warn_strings,
        "output": os.path.basename(args.output) if args.output else None,
    }
    if args.output:
        _write_atomic(args.output + ".manifest.json",
                      lambda fh: _write_json(fh, manifest))
        print(f"wrote {args.output} ({rows} rows), manifest alongside",
              file=sys.stderr)
    else:
        print("manifest: " + json.dumps(manifest, sort_keys=True),
              file=sys.stderr)


def _load(args) -> Config | None:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if not (args.config or args.preset):
        return None
    config = load_config(args.config or {"geometry": {"preset": args.preset}})
    if config.preset_name:
        # provenance travels with every artifact built on fitted constants
        warnings.warn(f"preset {config.preset_name!r}: section constants are "
                      "a calibrated reconstruction, not measured dimensions")
    return config


def _require_config(args) -> Config:
    config = _load(args)
    if config is None:
        raise ConfigError(f"{args.subcommand}: needs --config or --preset")
    return config


def _by_profile(config: Config, command: str, choices: dict):
    """choices[type of config.profile], the solver a subcommand uses for that
    profile kind; any other kind is a ConfigError naming the galerkin one."""
    kind = type(config.profile)
    if kind not in choices:
        name = lambda k: k.__name__.removesuffix("Profile").lower()
        raise ConfigError(
            f"{command}: the profile must be "
            f"{' or '.join(map(name, choices))}, not {name(kind)}; the "
            "galerkin subcommand takes any profile")
    return choices[kind]


def _column(items, name: str, dtype=float) -> np.ndarray:
    """Attribute `name` of every item, as one array."""
    return np.array([getattr(item, name) for item in items], dtype=dtype)


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
        table = {"u": u, **{f"phi_{m.n}": m(u) for m in modes}}
    else:
        geo = config.geometry if config is not None else None
        w = np.array([geo.beam_wave_scale * (m.beta / geo.beam_length) ** 2
                      if geo else math.nan for m in modes])
        table = {"n": _column(modes, "n", int), "beta": _column(modes, "beta"),
                 "omega_rad_s": w, "freq_hz": w / (2.0 * math.pi)}
    _emit(args, table, config, caught, t0)


def _cmd_kernel(args, caught, t0):
    if args.shape is not None:
        # deflection profile of one cantilever driven at its clamp
        v = np.linspace(0.0, 1.0, args.points)
        _emit(args, {"v": v, "chi": CantileverShape(args.shape)(v)}, None,
              caught, t0)
        return
    gmax = args.gamma_max
    edges = band_edge_gammas(int(gmax / math.pi) + 2)
    poles = edges[edges < gmax]
    grid = np.linspace(0.0, gmax, args.points)
    keep = np.all(np.abs(grid[:, None] - poles) > 1e-9 * np.maximum(poles, 1.0),
                  axis=1)
    dropped = int(np.sum(~keep))
    if dropped:
        warnings.warn(f"{dropped} sample(s) inside a band-edge pole window "
                      "were dropped")
    grid = grid[keep]
    _emit(args, {"gamma": grid, "kernel": shear_kernel(grid)}, None, caught,
          t0)


def _cmd_spectrum(args, caught, t0):
    config = _require_config(args)
    solve = _by_profile(config, "spectrum",
                        {UniformProfile: spectrum.solve_uniform,
                         AlternatingProfile: spectrum.solve_alternating})
    levels = solve(config.geometry, config.profile, config.boundary,
                   args.n_max or config.spectrum.n_max,
                   args.k_max or config.spectrum.k_max)
    invalid = sum(1 for lv in levels if not lv.valid)
    if invalid:
        warnings.warn(f"{invalid} level(s) have beam index n >= N and fall "
                      "outside the averaged model's validity")
    omega = _column(levels, "omega")
    base = next((lv.omega for lv in levels if lv.n == 1 and lv.k == 1), None)
    table = {"n": _column(levels, "n", int), "k": _column(levels, "k", int),
             "gamma": _column(levels, "gamma"), "omega_rad_s": omega,
             "freq_hz": omega / (2.0 * math.pi),
             "omega_normalized": (omega / base if base
                                  else np.full(omega.size, math.nan)),
             "band_edge_lower": _column(levels, "band_lower"),
             "band_edge_upper": _column(levels, "band_upper"),
             "valid": _column(levels, "valid", bool)}
    _emit(args, table, config, caught, t0)


def _cmd_sweep(args, caught, t0):
    config = _require_config(args)
    n_max = args.n_max or config.spectrum.n_max
    k_max = args.k_max or config.spectrum.k_max
    values = np.linspace(args.sweep_from, args.sweep_to, args.points)
    command = f"sweep {args.param}"
    if args.param == "epsilon":
        sweep = _by_profile(config, command,
                            {AlternatingProfile: spectrum.sweep_alternating})
        points = sweep(config.geometry, config.profile, config.boundary,
                       values, n_max, k_max)
        value, levels = zip(*points)
        value = np.repeat(value, [len(lvs) for lvs in levels])
        levels = [lv for lvs in levels for lv in lvs]
        n, k = _column(levels, "n", int), _column(levels, "k", int)
        gamma, omega = _column(levels, "gamma"), _column(levels, "omega")
    else:
        sweep = _by_profile(config, command,
                            {UniformProfile: spectrum.sweep_uniform})
        points = list(sweep(config.geometry, config.profile, config.boundary,
                            args.param, values, n_max, k_max))
        value, gammas, scale = map(np.array, zip(*points))
        p, n, k = np.nonzero(np.isfinite(gammas))   # in (value, n, k) order
        gamma = gammas[p, n, k]
        value, omega, n, k = value[p], scale[p] * gamma * gamma, n + 1, k + 1
    table = {"param": np.full(value.size, args.param), "value": value,
             "n": n, "k": k, "gamma": gamma, "omega_rad_s": omega}
    _emit(args, table, config, caught, t0)


def _cmd_galerkin(args, caught, t0):
    config = _require_config(args)
    settings = config.galerkin
    if args.basis_size:
        settings = replace(settings, basis_size=args.basis_size)
    profile = config.profile
    alpha_max = args.alpha_max
    if not alpha_max:
        # span k_max bands of the longest cantilever
        lengths = galerkin._distinct_lengths(profile)
        longest = max(profile.length if lengths is None else lengths)
        alpha_max = band_edge_gammas(config.spectrum.k_max)[-1] / longest
    levels = galerkin.solve(config.geometry, profile, config.boundary,
                            alpha_max, settings=settings)
    m = settings.basis_size
    weights = np.reshape([lv.participation for lv in levels], (len(levels), m))
    table = {"alpha": _column(levels, "alpha"),
             "omega_rad_s": _column(levels, "omega"),
             "dominant_n": _column(levels, "dominant_n", int),
             **{f"participation_{i}": weights[:, i - 1]
                for i in range(1, m + 1)}}
    _emit(args, table, config, caught, t0)


def _sigma_values(setting) -> np.ndarray:
    if isinstance(setting, SweepRange):
        return setting.values()
    return np.array([float(setting)])


def _cmd_nonlinear(args, caught, t0):
    config = _require_config(args)
    select_modes = _by_profile(config, f"nonlinear {args.what}",
                               {UniformProfile: nonlinear.select_modes})
    forces = {"force1": args.f1, "force2": args.f2}
    ns = replace(config.nonlinear,
                 **{key: f for key, f in forces.items() if f is not None})
    overlap_rtol = 1e-9
    selection = select_modes(config.geometry, config.profile, config.boundary)
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
        _emit(args, {}, config, caught, t0, payload=payload)
        return

    # branch concatenates the two per-mode labels, e.g. "+-"; stability is
    # not classified here, so the flag is always "unknown"
    grid = np.array([(s1, s2) for s1 in _sigma_values(ns.sigma1)
                     for s2 in _sigma_values(ns.sigma2)])
    found = [nonlinear.coupled_steady_state(s1, s2, params)
             for s1, s2 in grid.tolist()]
    sigma = np.repeat(grid, [len(states) for states in found], axis=0)
    mode1 = [p1 for states in found for p1, _ in states]
    mode2 = [p2 for states in found for _, p2 in states]
    table = {"sigma1": sigma[:, 0], "sigma2": sigma[:, 1],
             "a1": _column(mode1, "amplitude"),
             "a2": _column(mode2, "amplitude"),
             "theta1": _column(mode1, "phase"),
             "theta2": _column(mode2, "phase"),
             "branch": np.array([p1.branch + p2.branch
                                 for p1, p2 in zip(mode1, mode2)], dtype=str),
             "stable_flag": np.full(len(mode1), "unknown")}
    _emit(args, table, config, caught, t0)


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
