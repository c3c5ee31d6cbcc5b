"""Command-line front end: solve, tabulate, and write reproducible artifacts.

Every run reads one JSON config (or a named preset), dispatches to the
library, and emits a single CSV or JSON table plus a manifest sidecar that
records the tool version, a hash of the effective config (override flags
included), wall time and every warning raised along the way.  A table is a set of named columns, each
a numpy array of one type; floats are printed with 17 significant digits
(a float column made of runs of equal cells, like a swept value, is
formatted once per run) and output files are written atomically (temp
file, then rename), so identical config and version give byte-identical
files.  Each subcommand imports only the solver module it runs, so start-up
does not load the others.

Exit codes: 0 success, 2 configuration problem, 3 solver failure.
"""

from __future__ import annotations

import argparse
import functools
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

from . import __version__
from .beam import beam_modes
from .kernel import (CantileverShape, PoleProximityError, band_edge_gammas,
                     band_edges_reaching, shear_kernel)
from .model import (AlternatingProfile, BoundaryCondition, Config, ConfigError,
                    SpectrumSettings, SweepRange, UniformProfile,
                    config_to_dict, load_config)
from .quadrature import QuadratureError

# spectrum.BlowUpError is an ArithmeticError, so the tuple covers it
SOLVER_ERRORS = (QuadratureError, PoleProximityError, np.linalg.LinAlgError,
                 FloatingPointError, ArithmeticError)

# CSV field per dtype kind of a column's cells (see _csv_cells)
_CSV_FIELD = {"i": "%d", "f": "%.17g", "U": "%s", "O": "%s"}
_BLOCK_ROWS = 4096   # CSV rows formatted per write
_JSON = json.JSONEncoder(sort_keys=True, indent=2)


def _write_json(fh, obj) -> None:
    fh.writelines(_JSON.iterencode(obj))
    fh.write("\n")


def _csv_cells(column: np.ndarray) -> np.ndarray:
    """The cells of one CSV column: bools as true/false; a float column
    with at most one run of equal cells per two cells as the %.17g text of
    each run, formatted once and repeated over it; any other column as it
    is.  Runs are compared by bits, so 0.0 and -0.0 stay apart."""
    if column.dtype.kind == "b":
        return np.where(column, "true", "false")
    if column.dtype == np.float64:
        bits = column.view(np.int64)
        starts = np.flatnonzero(np.append(True, bits[1:] != bits[:-1]))
        if 2 * starts.size <= column.size:
            text = ["%.17g" % x for x in column[starts].tolist()]
            return np.repeat(np.array(text, dtype=object),
                             np.diff(starts, append=column.size))
    return column


def _write_table(fh, table: dict[str, np.ndarray], fmt: str) -> None:
    """Write named, equal-length columns to fh as CSV or JSON.

    CSV: a header line, then one line per row from a single %-template
    (floats %.17g, ints %d, bools true/false, strings as they are), written
    in blocks of _BLOCK_ROWS rows.  A float column made of runs of equal
    cells, such as a swept value repeated over its levels, is formatted
    once per run (_csv_cells).  JSON: {"columns": names, "rows": rows}.
    """
    cols = list(table.values())
    if fmt == "json":
        rows = list(zip(*(c.tolist() for c in cols)))
        _write_json(fh, {"columns": list(table), "rows": rows})
        return
    cells = [_csv_cells(c) for c in cols]
    line = ",".join(_CSV_FIELD[c.dtype.kind] for c in cells) + "\n"
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
    """Write the table (or a ready JSON payload) and its manifest; tables
    are CSV unless --format says otherwise."""
    fmt = "json" if payload is not None else args.format or "csv"

    def write(fh):
        if payload is None:
            _write_table(fh, table, fmt)
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
        "format": fmt,
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


def _flagged(settings, args):
    """settings with each field that a given flag of its name overrides."""
    return replace(settings, **{name: getattr(args, name) for name in
                                vars(settings)
                                if getattr(args, name, None) is not None})


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
    # the flags join the settings (and their checks), so the hash covers them
    return config._replace(**{name: _flagged(getattr(config, name), args)
                              for name in ("spectrum", "galerkin", "nonlinear")})


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


def _level_rows(gammas: np.ndarray, scale: np.ndarray):
    """(p, n, k, gamma, omega) of each finite gammas[p, n-1, k-1], in that
    order, with omega = scale[p] * gamma^2."""
    p, n, k = np.nonzero(np.isfinite(gammas))
    gamma = gammas[p, n, k]
    return p, n + 1, k + 1, gamma, scale[p] * gamma * gamma


# --- subcommands -------------------------------------------------------------


def _cmd_modes(args, caught, t0):
    config = _load(args)
    if config is not None:
        bc, settings = config.boundary, config.spectrum
    else:
        bc = BoundaryCondition.from_name(args.bc)
        settings = _flagged(SpectrumSettings(), args)
    modes = beam_modes(bc, settings.n_max)
    if args.samples:
        u = np.linspace(0.0, 1.0, args.samples)
        table = {"u": u, **{f"phi_{m.n}": m(u) for m in modes}}
    else:
        geo = config.geometry if config is not None else None
        w = np.array([geo.beam_wave_scale * (m.beta / geo.beam_length) ** 2
                      if geo else math.nan for m in modes])
        table = {"n": np.array([m.n for m in modes]),
                 "beta": np.array([m.beta for m in modes]),
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
    poles = band_edges_reaching(gmax)   # an edge at or just past gmax too
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
    from . import spectrum
    config = _require_config(args)
    solve = _by_profile(config, "spectrum",
                        {UniformProfile: spectrum.solve_uniform,
                         AlternatingProfile: spectrum.solve_alternating})
    gammas, edges, scale = solve(config.geometry, config.profile,
                                 config.boundary, config.spectrum.n_max,
                                 config.spectrum.k_max)
    _, n, k, gamma, omega = _level_rows(gammas[None], np.array([scale]))
    # the averaged model holds for n below the pairs per side
    pairs = (config.profile.count1 + config.profile.count2
             if isinstance(config.profile, AlternatingProfile)
             else config.geometry.count_per_side)
    valid = n < pairs
    invalid = int(np.sum(~valid))
    if invalid:
        warnings.warn(f"{invalid} level(s) have beam index n >= N and fall "
                      "outside the averaged model's validity")
    base = omega[(n == 1) & (k == 1)]
    table = {"n": n, "k": k, "gamma": gamma, "omega_rad_s": omega,
             "freq_hz": omega / (2.0 * math.pi),
             "omega_normalized": (omega / base[0] if base.size and base[0]
                                  else np.full(omega.size, math.nan)),
             "band_edge_lower": np.append(0.0, edges[:-1])[k - 1],
             "band_edge_upper": edges[k - 1],
             "valid": valid}
    _emit(args, table, config, caught, t0)


def _cmd_sweep(args, caught, t0):
    from . import spectrum
    config = _require_config(args)
    command = f"sweep {args.param}"
    try:
        values = SweepRange(args.sweep_from, args.sweep_to,
                            args.points).values()
    except ConfigError as exc:   # "from: ..." names the --from flag
        raise ConfigError(f"{command}: --{exc}") from exc
    if args.param == "epsilon":
        sweep = _by_profile(config, command,
                            {AlternatingProfile: spectrum.sweep_alternating})
        parameter = ()
    else:
        sweep = _by_profile(config, command,
                            {UniformProfile: spectrum.sweep_uniform})
        parameter = (args.param,)
    points = list(sweep(config.geometry, config.profile, config.boundary,
                        *parameter, values, config.spectrum.n_max,
                        config.spectrum.k_max))
    value, gammas, scale = map(np.array, zip(*points))
    p, n, k, gamma, omega = _level_rows(gammas, scale)
    table = {"param": np.full(p.size, args.param), "value": value[p],
             "n": n, "k": k, "gamma": gamma, "omega_rad_s": omega}
    _emit(args, table, config, caught, t0)


def _cmd_galerkin(args, caught, t0):
    from . import galerkin
    config = _require_config(args)
    profile = config.profile
    alpha_max = args.alpha_max
    if not alpha_max:
        # span k_max bands of the longest cantilever
        longest = galerkin.length_spans(profile)[-1][1]
        alpha_max = band_edge_gammas(config.spectrum.k_max)[-1] / longest
    alpha, omega, weights = galerkin.solve(
        config.geometry, profile, config.boundary, alpha_max, config.galerkin)
    table = {"alpha": alpha, "omega_rad_s": omega,
             "dominant_n": np.argmax(np.abs(weights), axis=1) + 1,
             **{f"participation_{i}": w
                for i, w in enumerate(weights.T, start=1)}}
    _emit(args, table, config, caught, t0)


def _cmd_nonlinear(args, caught, t0):
    from . import nonlinear
    config = _require_config(args)
    select_modes = _by_profile(config, f"nonlinear {args.what}",
                               {UniformProfile: nonlinear.select_modes})
    ns = config.nonlinear
    overlap_rtol = 1e-9
    selection = select_modes(config.geometry, config.profile, config.boundary)
    integrals = nonlinear.overlap_integrals(selection, rtol=overlap_rtol)
    params = nonlinear.effective_params(selection, integrals,
                                        config.geometry, ns)

    if args.what == "coeffs":
        if args.format == "csv":
            raise ConfigError("nonlinear coeffs: JSON only, pass "
                              "--format json or drop --format")
        units = {"mass1": "mass1_kg", "mass2": "mass2_kg",
                 "drive1": "drive1_N", "drive2": "drive2_N",
                 "omega1": "omega1_rad_s", "omega2": "omega2_rad_s"}
        payload = {
            "provenance": {
                "tool_version": __version__, "preset": config.preset_name,
                "calibrated": bool(config.preset_name),
                "overlap_quadrature_rtol": overlap_rtol},
            "selection": {units.get(name, name): getattr(selection, name)
                          for name in ("beta", "lam", "nu", "gamma1", "gamma2",
                                       "omega1", "omega2")},
            "beam_integrals": integrals.beam._asdict(),
            "cantilever_integrals": {
                name: getattr(integrals, name).tolist()
                for name in ("mass_overlap", "damping_overlap",
                             "stretch_overlap", "curvature_overlap")},
            "effective_params": {units.get(name, name): value
                                 for name, value in params._asdict().items()},
        }
        _emit(args, {}, config, caught, t0, payload=payload)
        return

    # branch concatenates the two per-mode labels, e.g. "+-"; stability is
    # not classified here, so the flag is always "unknown"
    axes = [s.values() if isinstance(s, SweepRange) else np.array([float(s)])
            for s in (ns.sigma1, ns.sigma2)]
    s1, s2 = (s.ravel() for s in np.meshgrid(*axes, indexing="ij"))
    states = nonlinear.coupled_steady_state(s1, s2, params)
    point = states["point"]
    table = {"sigma1": s1[point], "sigma2": s2[point],
             "a1": np.sqrt(states["z1"]), "a2": np.sqrt(states["z2"]),
             "theta1": states["phase1"], "theta2": states["phase2"],
             "branch": np.char.add(states["branch1"], states["branch2"]),
             "stable_flag": np.full(point.size, "unknown")}
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
    p.add_argument("--format", choices=("csv", "json"))


@functools.cache   # once per process, on the first main() call
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
    for j in (1, 2):
        p.add_argument(f"--f{j}", dest=f"force{j}", type=float,
                       help=f"override modal force density {j}")
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
