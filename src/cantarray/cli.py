"""Command-line front end: solve, tabulate, and write reproducible artifacts.

Every run reads one JSON config (or a named preset), dispatches to the
library, and emits a single CSV or JSON table plus a manifest sidecar that
records the tool version, a hash of the effective config (override flags
included), wall time and every warning raised along the way.  A table is
a set of named columns, each a numpy array of one type.  CSV text is
exactly "%.17g" per float and "%d" per int, written as bytes (to the file,
or to stdout's binary buffer) a block of rows at a time.  A block of
_KERNEL_MIN rows or more becomes a uint8 field per column plus each cell's
byte range: a run of equal cells is formatted once and its row repeated,
and a float or int column with enough cells goes through a numpy kernel
that writes the same bytes as "%" does, cell for cell (1e-30 <= |x| < 1e16
in fixed and exponent notation, 0 < |v| < 10**8; the cells it cannot
certify, and short columns, keep "%").  The fields side by side are
compacted by a mask of those byte ranges, and a shorter block is
formatted a cell at a time and joined.  Output files are written
atomically (a new file under the umask, then a rename), so identical
config and version give byte-identical files.  Each subcommand imports
only the solver module it runs, so start-up does not load the others.

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
import time
import warnings
from dataclasses import replace

import numpy as np

from . import __version__
from .beam import beam_modes
from .kernel import (CantileverShape, PoleProximityError, band_edge_gammas,
                     band_edges_reaching, cos_cosh_root, shear_kernel)
from .model import (MAX_BANDS, MAX_POINTS, AlternatingProfile,
                    BoundaryCondition, Config, ConfigError, SpectrumSettings,
                    SweepRange, UniformProfile, config_to_dict, load_config)
from .quadrature import QuadratureError

# spectrum.BlowUpError is an ArithmeticError, so the tuple covers it
SOLVER_ERRORS = (QuadratureError, PoleProximityError, np.linalg.LinAlgError,
                 FloatingPointError, ArithmeticError)

_BLOCK_ROWS = 4096   # CSV rows rendered per write
# a block with fewer rows, or a column of a block with fewer cells to
# format, is formatted one cell at a time: below it the fixed numpy cost of
# the kernel and the byte fields outweighs their gain
_KERNEL_MIN = 256
_JSON = json.JSONEncoder(sort_keys=True, indent=2)

# The CSV kernel writes float64 and int64 cells exactly as "%.17g" and "%d"
# do.  A float with 1e-30 <= |x| < 1e16 has the 17 digits d = round(|x| *
# 10**(16 - e)), e = floor(log10 |x|).  Dekker's product gives |x| * 10**(16
# - e) as hi + lo, exactly while 10**(16 - e) is a double (e >= -6) and
# within 2**-46 for the double-double power below that.  hi, at least 1e16 >
# 2**53, is an even integer, so d = hi + rint(lo) rounds ties to even as
# dtoa does; a cell whose lo lies nearer a tie than that bound, and is not
# an exact tie, is left to "%".  Digits are made 8 at a time in the bytes of
# a uint64 word (SWAR), most significant in the lowest byte; the words of a
# cell become its row of the field, where the point, the sign and what ends
# the cell (the separator, after "e-XX" in exponent notation, |x| < 1e-4)
# are written as bytes.
_POW10 = np.array([float(10 ** k) for k in range(48)])    # nearest doubles
_SPLIT = 134217729.0                  # 2**27 + 1: Veltkamp's split factor
# 10**k as the double and its tail, 10**k - double
_POW10_PARTS = np.array([_POW10, [float(10 ** k - int(p))
                                  for k, p in enumerate(_POW10)]])
# |lo - rint(lo)| up to this rounds as the exact product does
_HALF = np.where(_POW10_PARTS[1] == 0, 0.5, 0.5 - 2.0 ** -44)
_POW10_INT = 10 ** np.arange(20, dtype=np.uint64)
_EXPONENT = np.array([list(b"e-%02d" % m) for m in range(31)], np.uint8)
_ZERO = 0x3030303030303030            # "0" in each byte of a word
_WORD = np.array([[0], [8], [16]])    # first byte of each digit word


def _write_json(fh, obj) -> None:
    # ensure_ascii: every chunk is ASCII
    fh.writelines(map(str.encode, _JSON.iterencode(obj)))
    fh.write(b"\n")


def _digits(v):
    """Overwrite each v < 10**8 (uint64) with its 8 decimal digits, one per
    byte, the most significant in the lowest byte, and return it."""
    t = v // 10000
    v -= t * 10000
    v <<= 32
    v |= t
    np.multiply(v, 10486, out=t)                # // 100 in each half
    t >>= 20
    t &= 0x7F0000007F
    v -= t * 100
    v <<= 16
    v |= t
    np.multiply(v, 103, out=t)                  # // 10 in each quarter
    t >>= 10
    t &= 0x000F000F000F000F
    v -= t * 10
    v <<= 8
    v |= t
    return v


def _text_cells(words):
    """Text words (a column of words per cell) as a field: a row of bytes
    per cell, in text order."""
    field = np.empty(words.shape[::-1], "<u8")
    field[...] = words.T
    return field.view(np.uint8)


def _texts(values, sep):
    """The text of each of values ending in sep, one cell at a time."""
    kind = values.dtype.kind
    if kind in "fi":
        text = (b"%.17g" if kind == "f" else b"%d") + sep
        return [text % x for x in values.tolist()]
    if kind == "b":
        return [(b"true" if x else b"false") + sep for x in values.tolist()]
    end = sep.decode()
    return [(str(x) + end).encode() for x in values.tolist()]


def _rows(texts):
    """(field, start, stop) of a list of bytes: a row each, from byte 0."""
    field = np.array(texts, dtype=bytes)
    stop = np.fromiter(map(len, texts), np.intp, len(texts))
    return (field.view(np.uint8).reshape(len(texts), field.itemsize),
            np.zeros(len(texts), np.intp), stop)


def _from_byte(width):
    """A (width + 1) x width view whose row r is True from byte r on."""
    steps = np.arange(2 * width) >= width
    return np.ndarray((width + 1, width), bool, steps, width, (-1, 1))


def _two_product(ax, k):
    """(hi, lo) with hi + lo = ax * 10**k: exact (Dekker 1971) where 10**k
    is a double, else within 2**-46."""
    p, p_tail = np.take(_POW10_PARTS, k, axis=1, mode="clip")
    c = ax * _SPLIT
    x_hi = c - (c - ax)
    x_lo = ax - x_hi
    c = p * _SPLIT
    p_hi = c - (c - p)
    p_lo = p - p_hi
    hi = ax * p
    return hi, ((((x_hi * p_hi - hi) + x_hi * p_lo + x_lo * p_hi)
                 + x_lo * p_lo) + ax * p_tail)


def _significand(ax):
    """(d, e, sure) for each ax in [1e-30, 1e16): e = floor(log10 ax) and
    the 17 significant digits d = round(ax * 10**(16 - e)), ties to even,
    where sure."""
    e = np.floor(np.log10(ax)).astype(np.int64)
    hi, lo = _two_product(ax, 16 - e)
    # next to a power of ten log10 may miss e by one; the product tells
    step = (((hi - 1e17) + lo >= 0).view(np.int8)
            - ((hi - 1e16) + lo < 0).view(np.int8))
    if step.any():
        e += step
        hi, lo = _two_product(ax, 16 - e)
    r = np.rint(lo)
    sure = np.abs(lo - r) <= np.take(_HALF, 16 - e)
    if not sure.all():
        # a tie is exact where 2 * ax * 10**k, i.e. ax * 2**(k + 1) times
        # the odd 5**k, is an odd integer; hi is even, so d takes the even
        # one of floor(lo) and floor(lo) + 1
        tie = ~sure & (np.ldexp(ax, 17 - e) % 2 == 1)
        r[tie] = 2 * np.ceil(np.floor(lo[tie]) / 2)
        sure |= tie
    d = hi.astype(np.uint64) + r.astype(np.int64).view(np.uint64)
    # rounded up to 10**17: the 17 digits of the next power of ten
    carry = d == 10 ** 17
    d -= carry * np.uint64(9 * 10 ** 16)
    return d, e + carry, sure


def _float_text(x, sep):
    """(field, start, stop, at): "%.17g" + sep of x[at] in bytes start:stop
    of each row of field, at being the cells the kernel certified; 0, nan,
    inf, |x| < 1e-30 (subnormals among them) and |x| >= 1e16 are not."""
    ax = np.abs(x)
    at = np.flatnonzero((ax >= 1e-30) & (ax < 1e16))
    ax = ax[at]
    d, e, sure = _significand(ax)
    if not sure.all():
        at, ax, d, e = at[sure], ax[sure], d[sure], e[sure]
    # 18 digits: the integer part, a 0 where the point goes, the fraction;
    # below 1 the integer part is empty and d stays as it is
    d += (9 * np.floor(ax).astype(np.uint64)
          * np.take(_POW10_INT, 16 - e, mode="clip"))
    w = np.empty((4, d.size), np.uint64)
    w[0] = d // 10 ** 16
    d -= w[0] * 10 ** 16
    w[1] = d // 10 ** 8
    w[2] = d - w[1] * 10 ** 8
    # exponent notation lays out its mantissa as fixed notation lays out
    # 1 <= x < 10: a 0 after the first digit where the point goes
    expo = e < -4
    np.multiply(w[0], 10, out=w[0], where=expo)
    point = 7 + np.where(expo, 0, e)
    _digits(w[:3])                          # bytes 6..23 hold the digits
    # the cell ends after its last nonzero digit, or at the point if no
    # fraction digit is left
    top = (np.frexp(w[:3].astype(np.float64))[1] + 7) >> 3
    end = np.maximum(np.max((top + _WORD) * (top > 0), axis=0), point)
    w[:3] += _ZERO          # bytes past the cell's end are cut off later
    text = _text_cells(w)
    cells = np.arange(d.size)
    text[cells, point] = ord(".")
    if expo.any():                          # "e-XX" ahead of the separator
        row = np.flatnonzero(expo)
        text[row[:, None], end[row, None] + np.arange(4)] = _EXPONENT[-e[row]]
        end[row] += 4
    text[cells, end] = ord(sep)
    first = np.minimum(point - 1, 6)        # first digit, or the 0 of "0."
    neg = np.signbit(x[at])
    text[cells[neg], first[neg] - 1] = ord("-")
    return text, first - neg, end + 1, at


def _int_text(v, sep):
    """(field, start, stop, at): "%d" + sep of v[at] in bytes start:stop of
    each row of field, at being the cells with 0 < |v| < 10**8."""
    at = np.flatnonzero((v > -10 ** 8) & (v < 10 ** 8) & (v != 0))
    v = v[at]
    t = _digits(np.abs(v).astype(np.uint64))
    # leading zero digits: the byte of the lowest set bit of t
    lead = (np.frexp((t & (0 - t)).astype(np.float64))[1] - 1) >> 3
    t += _ZERO
    w = np.empty((2, v.size), np.uint64)
    w[0] = t << 8                           # the digits from byte 1 on
    w[1] = t >> 56 | ord(sep) << 8
    text = _text_cells(w)
    neg = v < 0
    text[np.flatnonzero(neg), lead[neg]] = ord("-")
    return text, lead + 1 - neg, np.full(v.size, 10), at


def _format(values, sep):
    """(field, start, stop, missed): the text of each of values ending in
    sep, in bytes start:stop of its row of field, and how many cells the
    kernel was given but left to per-cell formatting.  Bools and strings
    are formatted once per distinct value."""
    if values.dtype.kind not in "fi":
        distinct, index = np.unique(values, return_inverse=True)
        field, start, stop = _rows(_texts(distinct, sep))
        return field[index], start[index], stop[index], 0
    if values.size < _KERNEL_MIN:
        return (*_rows(_texts(values, sep)), 0)
    field, start, stop, at = (_float_text if values.dtype.kind == "f"
                              else _int_text)(values, sep)
    if at.size == values.size:
        return field, start, stop, 0
    rest = np.ones(values.size, dtype=bool)
    rest[at] = False
    other, _, stop_other = _rows(_texts(values[rest], sep))
    cells = np.empty((values.size, max(field.shape[1], other.shape[1])),
                     np.uint8)
    cells[at, :field.shape[1]] = field
    cells[rest, :other.shape[1]] = other
    starts, stops = np.zeros((2, values.size), np.intp)
    starts[at], stops[at], stops[rest] = start, stop, stop_other
    return cells, starts, stops, values.size - at.size


def _csv_cells(column, sep):
    """(field, start, stop, missed) of one block of a column, as _format
    gives them; a run of equal cells is formatted once and its row repeated.
    Floats are compared by bits, so 0.0 and -0.0 stay apart."""
    key = column
    if column.dtype.kind == "f":
        column = column.astype(np.float64, copy=False)
        key = column.view(np.int64)
    starts = np.flatnonzero(np.append(True, key[1:] != key[:-1]))
    if starts.size == column.size:
        return _format(column, sep)
    *cells, missed = _format(column[starts], sep)
    runs = np.diff(starts, append=column.size)
    return (*(c.repeat(runs, axis=0) for c in cells), missed)


def _write_block(fh, block) -> int:
    """Write rows given as their columns to fh; each cell ends in "," (the
    last column's in a newline).  Returns the kernel's per-cell count
    (_format).

    A block of _KERNEL_MIN rows or more becomes a field per column
    (_csv_cells), cut to the bytes its cells use.  The fields side by side
    hold the block's rows, and a mask of each cell's byte range compacts
    them.  A shorter block is formatted a cell at a time and joined: its
    numpy calls would cost more than its text."""
    seps = [b","] * (len(block) - 1) + [b"\n"]
    if block[0].size < _KERNEL_MIN:
        cells = [_texts(column, sep) for column, sep in zip(block, seps)]
        fh.write(b"".join([cell for row in zip(*cells) for cell in row]))
        return 0
    fields, missed = [], 0
    for column, sep in zip(block, seps):
        field, start, stop, count = _csv_cells(column, sep)
        lo, hi = start.min(), stop.max()
        # byte offsets in the cut field: a byte each while it is that narrow
        offset = np.min_scalar_type(hi - lo)
        fields.append((field[:, lo:hi], (start - lo).astype(offset),
                       (stop - lo).astype(offset)))
        missed += count
    width = sum(field.shape[1] for field, _, _ in fields)
    text = np.empty((block[0].size, width), np.uint8)
    keep = np.empty(text.shape, dtype=bool)
    at = 0
    while fields:       # each field is freed once it is in text
        field, start, stop = fields.pop(0)
        span = slice(at, at + field.shape[1])
        text[:, span] = field
        marks = _from_byte(field.shape[1])
        np.greater(marks.take(start, axis=0), marks.take(stop, axis=0),
                   out=keep[:, span])
        at = span.stop
    fh.write(text[keep])
    return missed


def _write_table(fh, table: dict[str, np.ndarray], fmt: str) -> int:
    """Write named, equal-length columns to the binary file fh as CSV or
    JSON.

    CSV: a header line, then the rows in blocks of _BLOCK_ROWS (_write_block).
    The text is "%.17g" for floats, "%d" for ints, true/false for bools and
    strings as they are, in UTF-8.  Float and int columns with at least
    _KERNEL_MIN cells to format in a block go through the numpy kernel
    (_float_text, _int_text), which leaves to per-cell formatting only the
    cells it cannot certify.  Returns that count (0 for JSON).  JSON:
    {"columns": names, "rows": rows}.
    """
    cols = list(table.values())
    if fmt == "json":
        rows = list(zip(*(c.tolist() for c in cols)))
        _write_json(fh, {"columns": list(table), "rows": rows})
        return 0
    fh.write((",".join(table) + "\n").encode())
    return sum(_write_block(fh, [c[start:start + _BLOCK_ROWS] for c in cols])
               for start in range(0, len(cols[0]), _BLOCK_ROWS))


def _write_atomic(path: str, write) -> None:
    """Call write(fh) on a new binary file beside path, then rename it to
    path.  The file is created with mode 0666 less the umask, as open()
    would."""
    tmp = f"{os.path.abspath(path)}.{os.urandom(6).hex()}.part"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
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
    are CSV unless --format says otherwise.  Each distinct warning is
    printed and recorded once, in the order first raised."""
    fmt = "json" if payload is not None else args.format or "csv"

    def write(fh):
        if payload is None:
            _write_table(fh, table, fmt)
        else:
            _write_json(fh, payload)
    rows = len(next(iter(table.values()), ()))
    warn_strings = list(dict.fromkeys(str(w.message) for w in caught))
    for msg in warn_strings:
        print(f"warning: {msg}", file=sys.stderr)
    if args.output:
        _write_atomic(args.output, write)
    else:
        sys.stdout.flush()
        write(sys.stdout.buffer)
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


def _below_last_edge(flag: str, value: float, length: float = 1.0) -> None:
    """ConfigError unless gamma = value * length stays at or below band edge
    MAX_BANDS, the last a k_max can ask for: every edge below gamma is
    solved, one root at a time."""
    ceiling = cos_cosh_root(MAX_BANDS) / length
    if value > ceiling:
        raise ConfigError(f"{flag}: must be at most {ceiling!r} (band edge "
                          f"{MAX_BANDS}, the last k_max reaches), got {value!r}")


def _level_rows(gammas: np.ndarray, scale: np.ndarray):
    """(p, n, k, gamma, omega) of each finite gammas[p, n-1, k-1], in that
    order, with omega = scale[p] * gamma^2."""
    p, n, k = np.nonzero(np.isfinite(gammas))
    gamma = gammas[p, n, k]
    return p, n + 1, k + 1, gamma, scale[p] * gamma * gamma


def _pairs(config) -> int:
    """Pairs of cantilevers per side: count_per_side, or count1 + count2
    for an alternating profile."""
    if isinstance(config.profile, AlternatingProfile):
        return config.profile.count1 + config.profile.count2
    return config.geometry.count_per_side


def _valid_levels(n, pairs):
    """n < pairs, the levels the averaged model holds for; one warning
    counts the others."""
    valid = n < pairs
    invalid = int(np.sum(~valid))
    if invalid:
        warnings.warn(f"{invalid} level(s) have beam index n >= N and fall "
                      "outside the averaged model's validity")
    return valid


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
        _below_last_edge("--shape", args.shape)
        # deflection profile of one cantilever driven at its clamp
        v = np.linspace(0.0, 1.0, args.points)
        _emit(args, {"v": v, "chi": CantileverShape(args.shape)(v)}, None,
              caught, t0)
        return
    gmax = args.gamma_max
    _below_last_edge("--gamma-max", gmax)
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
    valid = _valid_levels(n, _pairs(config))
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
    # N is the swept value itself in an N sweep
    _valid_levels(n, value[p] if args.param == "N" else _pairs(config))
    table = {"param": np.broadcast_to(args.param, p.size), "value": value[p],
             "n": n, "k": k, "gamma": gamma, "omega_rad_s": omega}
    _emit(args, table, config, caught, t0)


def _cmd_galerkin(args, caught, t0):
    from . import galerkin
    config = _require_config(args)
    profile = config.profile
    longest = galerkin.length_spans(profile)[-1][1]
    # by default, span k_max bands of the longest cantilever
    alpha_max = (args.alpha_max
                 or band_edge_gammas(config.spectrum.k_max)[-1] / longest)
    _below_last_edge("--alpha-max", alpha_max, longest)
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


def _positive(kind, ceiling=math.inf, zero=False):
    """argparse type: a finite number of the given kind above zero (or at
    zero, with zero) and at most ceiling."""
    bound = "" if ceiling == math.inf else f" up to {ceiling}"
    sign = "non-negative" if zero else "positive"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value > 0 or zero and value == 0)
                and value <= ceiling):
            raise argparse.ArgumentTypeError(
                f"expected a {sign} {kind.__name__}{bound}, got {text!r}")
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
    p.add_argument("--samples", type=_positive(int, MAX_POINTS),
                   help="emit an (u, phi_1..phi_n) shape table with this "
                        "many points instead of the eigenvalue table")
    p.set_defaults(run=_cmd_modes)

    p = sub.add_parser("kernel", help="shear kernel table (dimensionless)")
    _add_io_flags(p, config_flags=False)
    p.add_argument("--gamma-max", type=_positive(float), default=12.0)
    p.add_argument("--points", type=_positive(int, MAX_POINTS), default=481)
    p.add_argument("--shape", type=_positive(float, zero=True),
                   metavar="GAMMA",
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
