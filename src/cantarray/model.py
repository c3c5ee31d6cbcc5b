"""Device description, cantilever distribution profiles and config handling.

Geometry is carried in SI units throughout: lengths in m, flexural rigidity
(E*I) in N*m^2, linear mass density in kg/m.  The dimensionless numbers the
solvers actually consume are

    lam = l / L            cantilever-to-beam length ratio
    nu  = 2 N w_c / w_b    mass-loading ratio (N cantilevers per side)

so that 2 N m_c / m_b = nu * lam when beam and cantilevers share material and
thickness.

The config schema lives here: geometry and profile keys are dataclass field
names (`_PROFILES` maps each profile kind to its class) and `_SETTINGS` holds
the settings key tables; parsing, checks and `config_to_dict` all read them.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .numerics import Pchip


class ConfigError(ValueError):
    """Raised for malformed or physically invalid configuration input."""


class BoundaryCondition(enum.Enum):
    CLAMPED_CLAMPED = "clamped-clamped"
    CLAMPED_FREE = "clamped-free"

    @classmethod
    def from_name(cls, name: str) -> "BoundaryCondition":
        names = [member.value for member in cls]
        _check(lambda v: v in names, f"one of {names}", **{"boundary.kind": name})
        return cls(name)


def _is_count(value) -> bool:
    """An integer >= 1; JSON's true, 2.5, "3" and 1e9 are not."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value >= 1)


def _is_number(value) -> bool:
    """A finite float, or an int within the float range (not a bool)."""
    try:
        return ((type(value) is float    # JSON's floats, the common case first
                 or isinstance(value, (int, float, np.integer, np.floating))
                 and not isinstance(value, bool)) and math.isfinite(value))
    except OverflowError:   # math.isfinite of an int too large for a float
        return False


def _count(ceiling: int):
    """The rule for an integer from 1 to ceiling (README's schema says why
    each count has the ceiling it has)."""
    return (lambda v: _is_count(v) and v <= ceiling,
            f"an integer from 1 to {ceiling}")


# (test, description) rules for _check
_FINITE = (_is_number, "a finite number")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive finite number")
_NONNEGATIVE = (lambda v: _is_number(v) and v >= 0, "a finite number >= 0")


def _check(test, what: str, **values) -> None:
    """ConfigError naming the first config key whose value fails test."""
    for key, value in values.items():
        if not test(value):
            raise ConfigError(f"{key}: must be {what}, got {value!r}")


_EQUAL_THICKNESS_RTOL = 1e-9


@dataclass(frozen=True)
class DeviceGeometry:
    """Beam plus per-side cantilever count and section properties.

    equal_thickness=True asserts that beam and cantilevers are patterned from
    one film, i.e. rigidity and density ratios both equal the width ratio.
    """

    beam_length: float            # L (m)
    beam_width: float             # w_b (m)
    beam_rigidity: float          # E*I of the beam (N m^2)
    beam_linear_density: float    # mu_b (kg/m)
    cantilever_width: float       # w_c (m)
    cantilever_rigidity: float    # E*I of one cantilever (N m^2)
    cantilever_linear_density: float  # mu_c (kg/m)
    count_per_side: int           # N
    equal_thickness: bool = True

    def __post_init__(self):
        _check(*_POSITIVE, **{f"geometry.{k}": v for k, v in vars(self).items()
                              if k not in ("count_per_side", "equal_thickness")})
        _check(*_NONNEGATIVE,
               **{"geometry.count_per_side": self.count_per_side})
        _check(lambda v: isinstance(v, bool), "true or false",
               **{"geometry.equal_thickness": self.equal_thickness})
        if self.equal_thickness:
            w = self.cantilever_width / self.beam_width
            r = self.cantilever_rigidity / self.beam_rigidity
            m = self.cantilever_linear_density / self.beam_linear_density
            if (abs(r - w) > _EQUAL_THICKNESS_RTOL * w
                    or abs(m - w) > _EQUAL_THICKNESS_RTOL * w):
                raise ConfigError(
                    "geometry: equal_thickness requires rigidity and density "
                    "ratios to match the width ratio "
                    f"(width {w:.6g}, rigidity {r:.6g}, density {m:.6g})")

    @classmethod
    def from_material(cls, youngs_modulus: float, mass_density: float,
                      thickness: float, beam_length: float, beam_width: float,
                      cantilever_width: float, count_per_side: int) -> "DeviceGeometry":
        """Build from a shared film: E (Pa), volumetric density (kg/m^3), t (m)."""
        _check(*_POSITIVE, **{"geometry.youngs_modulus": youngs_modulus,
                              "geometry.mass_density": mass_density,
                              "geometry.thickness": thickness,
                              "geometry.beam_width": beam_width,
                              "geometry.cantilever_width": cantilever_width})

        try:
            cube = thickness ** 3
        except OverflowError:
            raise ConfigError("geometry.thickness: its cube must be a finite "
                              f"float, got {thickness!r}") from None

        def rigidity(width):
            return youngs_modulus * width * cube / 12.0

        def lin_density(width):
            return mass_density * width * thickness

        derived = {"beam_rigidity": rigidity(beam_width),
                   "beam_linear_density": lin_density(beam_width),
                   "cantilever_rigidity": rigidity(cantilever_width),
                   "cantilever_linear_density": lin_density(cantilever_width)}
        # products of valid film constants can still underflow or overflow
        _check(*_POSITIVE, **{f"geometry.thickness, via {name}": value
                              for name, value in derived.items()})
        return cls(beam_length=beam_length, beam_width=beam_width,
                   cantilever_width=cantilever_width,
                   count_per_side=count_per_side, equal_thickness=True,
                   **derived)

    @property
    def beam_wave_scale(self) -> float:
        """sqrt(E_b I_b / mu_b) (m^2/s)."""
        return math.sqrt(self.beam_rigidity / self.beam_linear_density)

    @property
    def cantilever_wave_scale(self) -> float:
        """sqrt(E_c I_c / mu_c) (m^2/s)."""
        return math.sqrt(self.cantilever_rigidity / self.cantilever_linear_density)

    def to_dict(self) -> dict:
        return asdict(self)


# --- cantilever distribution profiles -------------------------------------

def _samples(profile, **rules) -> None:
    """Store each named list of a profile as floats once its samples pass."""
    for name, (test, what) in rules.items():
        values = getattr(profile, name)
        _check(lambda v: isinstance(v, (list, tuple, np.ndarray)),
               "a list of numbers", **{f"profile.{name}": values})
        if not all(map(test, values)):   # name the first failing sample
            _check(test, what, **{f"profile.{name}[{i}]": v
                                  for i, v in enumerate(values)})
        object.__setattr__(profile, name, tuple(map(float, values)))


@dataclass(frozen=True)
class UniformProfile:
    """Identical cantilevers, averaged to a constant line density 2N/L."""

    length: float  # l (m)

    def __post_init__(self):
        _check(*_POSITIVE, **{"profile.length": self.length})


@dataclass(frozen=True)
class AlternatingProfile:
    """Two interleaved cantilever families, each averaged along the beam.

    Family 1 is the longer one; epsilon = l2/l1 <= 1.
    """

    length1: float
    length2: float
    width1: float
    width2: float
    count1: int  # per side
    count2: int  # per side

    def __post_init__(self):
        _check(*_POSITIVE, **{f"profile.{k}": v for k, v in vars(self).items()
                              if not k.startswith("count")})
        _check(*_NONNEGATIVE, **{"profile.count1": self.count1,
                                 "profile.count2": self.count2})
        if self.length2 > self.length1:
            raise ConfigError("profile: length2 must not exceed length1 "
                              "(label the longer family 1)")
        if self.count1 == 0 and self.count2 == 0:
            raise ConfigError("alternating profile has no cantilevers")

    @property
    def epsilon(self) -> float:
        return self.length2 / self.length1


@dataclass(frozen=True)
class TabulatedProfile:
    """Sampled smooth distribution l(x), rho(x) on [0, L].

    Samples are interpolated monotonically (PCHIP), so no overshoot beyond
    the tabulated range is introduced between nodes.
    """

    x: tuple
    length: tuple
    density: tuple  # pair line density rho(x), 1/m; V uses w_c/w_b * rho

    def __post_init__(self):
        _samples(self, x=_FINITE, length=_POSITIVE, density=_NONNEGATIVE)
        if len(self.x) < 2:
            raise ConfigError("profile.x: need at least two samples")
        if len(self.length) != len(self.x) or len(self.density) != len(self.x):
            raise ConfigError("profile: x, length, density must have equal lengths")
        if any(b <= a for a, b in zip(self.x, self.x[1:])):
            raise ConfigError("profile.x: samples must be strictly increasing")

    def interpolants(self):
        return Pchip(self.x, self.length), Pchip(self.x, self.density)


@dataclass(frozen=True)
class DiscreteProfile:
    """Individual cantilever pairs at explicit beam positions."""

    positions: tuple  # x_j (m), one entry per pair
    lengths: tuple    # l_j (m)

    def __post_init__(self):
        _samples(self, positions=_FINITE, lengths=_POSITIVE)
        if len(self.positions) != len(self.lengths):
            raise ConfigError("profile: positions and lengths must have equal lengths")
        if not self.positions:
            raise ConfigError("profile.positions: need at least one cantilever pair")


Profile = UniformProfile | AlternatingProfile | TabulatedProfile | DiscreteProfile

# the "kind" of each profile class in a config
_PROFILES = {"uniform": UniformProfile, "alternating": AlternatingProfile,
             "tabulated": TabulatedProfile, "discrete": DiscreteProfile}


@dataclass(frozen=True)
class DimensionlessParams:
    lam: float  # l / L
    nu: float   # 2 N w_c / w_b

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0):   # NaN, inf too
            raise ConfigError("lam must be a positive finite number")
        if not (math.isfinite(self.nu) and self.nu >= 0):
            raise ConfigError("nu must be a finite number >= 0")


def dimensionless(geometry: DeviceGeometry, profile: Profile) -> DimensionlessParams:
    """Reduce a uniform device to (lam, nu)."""
    if not isinstance(profile, UniformProfile):
        raise ConfigError("dimensionless reduction requires a uniform profile")
    lam = profile.length / geometry.beam_length
    nu = 2.0 * geometry.count_per_side * geometry.cantilever_width / geometry.beam_width
    return DimensionlessParams(lam=lam, nu=nu)


# --- presets ----------------------------------------------------------------

# Calibrated reconstruction of the 2x20-cantilever antenna device this preset
# is named after.  Published inputs: fundamental ~24.7 MHz, collective mode
# ~2.94 GHz, drive overlap F/f = -4.44e-6 m, modal masses 1.74e-14 /
# 4.17e-14 kg.  The section constants below were fitted to reproduce those
# numbers; they are a reconstruction, not measured values (outputs carry a
# "calibrated" provenance flag).
_JAP1 = {
    "beam_length": 1.0687701562203836e-05,   # from (L/2)*mean-shape overlap = -4.44e-6 m
    "beam_width": 4.0e-07,
    "cantilever_width": 2.0e-07,             # width ratio 0.5 -> nu = N = 20
    "count_per_side": 20,
    "cantilever_length": 5.0e-07,
    "beam_linear_density": 8.410306341148499e-10,    # kg/m, fits modal mass 1.74e-14 kg
    "cantilever_wave_scale": 1.1023922671480324e-03,  # sqrt(Ec/mu_c) m^2/s, fits 24.7 MHz
}

PRESETS = ("jap1-calibrated",)


def preset_device(name: str) -> tuple[DeviceGeometry, UniformProfile, BoundaryCondition]:
    if name != "jap1-calibrated":
        raise ConfigError(f"geometry.preset: unknown preset {name!r}; "
                          f"available: {list(PRESETS)}")
    p = _JAP1
    mu_b = p["beam_linear_density"]
    mu_c = mu_b * (p["cantilever_width"] / p["beam_width"])
    rig_c = mu_c * p["cantilever_wave_scale"] ** 2
    rig_b = rig_c * (p["beam_width"] / p["cantilever_width"])
    geometry = DeviceGeometry(
        beam_length=p["beam_length"],
        beam_width=p["beam_width"],
        beam_rigidity=rig_b,
        beam_linear_density=mu_b,
        cantilever_width=p["cantilever_width"],
        cantilever_rigidity=rig_c,
        cantilever_linear_density=mu_c,
        count_per_side=p["count_per_side"],
    )
    profile = UniformProfile(length=p["cantilever_length"])
    return geometry, profile, BoundaryCondition.CLAMPED_CLAMPED


# --- config files -----------------------------------------------------------

def _validate(obj, prefix: str, table: dict) -> None:
    """_check each field of a settings object by its table (_SETTINGS)."""
    for key, entry in table.items():
        if isinstance(entry, dict):
            _validate(obj, f"{prefix}{key}.", entry)
        else:
            name, (test, what) = entry
            _check(test, what, **{prefix + key: getattr(obj, name)})


@dataclass(frozen=True)
class SpectrumSettings:
    n_max: int = 4
    k_max: int = 4

    def __post_init__(self):
        _validate(self, "spectrum.", _SPECTRUM)


@dataclass(frozen=True)
class GalerkinSettings:
    basis_size: int = 8
    quadrature_order: int = 32
    quadrature_rtol: float = 1e-10

    def __post_init__(self):
        _validate(self, "galerkin.", _GALERKIN)


@dataclass(frozen=True)
class SweepRange:
    """Errors name from, to or points, for the caller to prefix."""

    start: float
    stop: float
    points: int

    def __post_init__(self):
        _validate(self, "", _RANGE)
        # finite bounds whose span overflows give NaN values
        if not math.isfinite(self.stop - self.start):
            raise ConfigError(f"to: must lie less than the largest float from "
                              f"the start {self.start!r}, got {self.stop!r}")

    def values(self):
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class NonlinearSettings:
    damping_beam: float = 0.0        # c_y (N s / m^2)
    damping_cantilever: float = 0.0  # c_eta (N s / m^2)
    force1: float = 0.0              # f_1, drive line density on mode 1 (N/m)
    force2: float = 0.0
    sigma1: SweepRange | float = 0.0
    sigma2: SweepRange | float = 0.0

    def __post_init__(self):
        _validate(self, "nonlinear.", _NONLINEAR)


# a settings table maps a JSON key to (field, rule) or to a nested table
_RANGE = {"from": ("start", _FINITE), "to": ("stop", _FINITE),
          "points": ("points", _count(10_000))}
_SIGMA = (lambda v: isinstance(v, SweepRange) or _is_number(v), "a finite number")
_SPECTRUM = {"n_max": ("n_max", _count(1000)),
             "k_max": ("k_max", _count(1000))}
_GALERKIN = {"basis_size": ("basis_size", _count(64)),
             "quadrature": {"order": ("quadrature_order", _count(100)),
                            "rtol": ("quadrature_rtol", _POSITIVE)}}
_NONLINEAR = {"c_y": ("damping_beam", _NONNEGATIVE),
              "c_eta": ("damping_cantilever", _NONNEGATIVE),
              "f1": ("force1", _FINITE), "f2": ("force2", _FINITE),
              "sigma1": ("sigma1", _SIGMA), "sigma2": ("sigma2", _SIGMA)}
_SETTINGS = {"spectrum": (SpectrumSettings, _SPECTRUM),
             "galerkin": (GalerkinSettings, _GALERKIN),
             "nonlinear": (NonlinearSettings, _NONLINEAR)}
_MATERIAL = ("youngs_modulus", "mass_density", "thickness", "beam_length",
             "beam_width", "cantilever_width", "count_per_side")


class Config(NamedTuple):
    geometry: DeviceGeometry
    boundary: BoundaryCondition
    profile: Profile
    spectrum: SpectrumSettings = SpectrumSettings()
    galerkin: GalerkinSettings = GalerkinSettings()
    nonlinear: NonlinearSettings = NonlinearSettings()
    preset_name: str | None = None


def _object(spec, path: str, keys, what: str, required=()) -> dict:
    """spec, if it is a JSON object with the required keys and none outside keys."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: must be an object, got {spec!r}")
    unknown = [] if keys is None else sorted(map(str, spec.keys() - set(keys)))
    if unknown:
        raise ConfigError(f"{path}.{unknown[0]}: unknown {what} key; it "
                          f"takes only {sorted(keys)}, not {unknown}")
    for key in required:
        if key not in spec:
            raise ConfigError(f"{path}.{key}: missing required key")
    return spec


def _from_fields(cls, spec, path: str, what: str, defaults: dict, extra=()):
    """cls from a JSON object keyed by its field names and the extra keys; a
    field without a default in cls or in defaults is required."""
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.name not in defaults]
    _object(spec, path, [*extra, *(f.name for f in fields(cls))], what, required)
    return cls(**{**defaults, **{k: v for k, v in spec.items() if k not in extra}})


def _read(spec, path: str, table: dict, required=()) -> dict:
    """The keyword arguments of a settings object, from its JSON object."""
    kwargs = {}
    for key, value in _object(spec, path, table, path, required).items():
        entry, where = table[key], f"{path}.{key}"
        if isinstance(entry, dict):
            kwargs.update(_read(value, where, entry))
        else:
            kwargs[entry[0]] = _parse_sweep(value, where) if entry[1] is _SIGMA else value
    return kwargs


def _write(obj, table: dict) -> dict:
    """The JSON object of a settings object: the inverse of _read."""
    out = {}
    for key, entry in table.items():
        if isinstance(entry, dict):
            out[key] = _write(obj, entry)
        else:
            value = getattr(obj, entry[0])
            out[key] = (_write(value, _RANGE) if isinstance(value, SweepRange)
                        else value)
    return out


def _parse_sweep(value, path: str):
    """A {from, to, points} object as a SweepRange, a number as a float."""
    if isinstance(value, dict):
        bounds = _read(value, path, _RANGE, required=_RANGE)
        try:
            return SweepRange(**bounds)
        except ConfigError as exc:   # name the section and its key
            raise ConfigError(f"{path}.{exc}") from exc
    return float(value) if _is_number(value) else value


def _parse_geometry(spec) -> tuple[DeviceGeometry, str | None]:
    """A preset name, a film's material constants or the full geometry."""
    if isinstance(spec, dict) and "preset" in spec:
        name = _object(spec, "geometry", ("preset",), "preset geometry")["preset"]
        return preset_device(name)[0], name
    if isinstance(spec, dict) and "youngs_modulus" in spec:
        _object(spec, "geometry", _MATERIAL, "material geometry", _MATERIAL)
        return DeviceGeometry.from_material(**spec), None
    return _from_fields(DeviceGeometry, spec, "geometry", "full geometry", {}), None


def _parse_profile(spec, geometry: DeviceGeometry) -> Profile:
    kind = _object(spec, "profile", None, "profile", ("kind",))["kind"]
    _check(lambda k: isinstance(k, str) and k in _PROFILES,
           f"one of {list(_PROFILES)}", **{"profile.kind": kind})
    cls = _PROFILES[kind]
    # an alternating profile's widths and counts default to the geometry's
    defaults = ({"width1": geometry.cantilever_width,
                 "width2": geometry.cantilever_width,
                 "count1": geometry.count_per_side,
                 "count2": geometry.count_per_side}
                if cls is AlternatingProfile else {})
    return _from_fields(cls, spec, "profile", f"{kind} profile", defaults,
                        ("kind",))


def load_config(source) -> Config:
    """Parse a config dict, JSON string, or path to a JSON file."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.exists():
            text = path.read_text()
        elif isinstance(source, str) and source.lstrip().startswith("{"):
            text = source
        else:
            raise ConfigError(f"config file not found: {source}")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    elif isinstance(source, dict):
        data = source
    else:
        raise ConfigError("config source must be a path, JSON text, or dict")

    if isinstance(data, dict) and "output" in data:
        raise ConfigError("config: no 'output' section; the --format and "
                          "--output flags choose the output")
    _object(data, "config", ("geometry", "boundary", "profile", *_SETTINGS),
            "top-level", ("geometry",))
    geometry, preset = _parse_geometry(data["geometry"])
    boundary = BoundaryCondition.from_name(_object(
        data.get("boundary", {"kind": "clamped-clamped"}), "boundary",
        ("kind",), "boundary", ("kind",))["kind"])
    return Config(geometry=geometry, boundary=boundary,
                  profile=(preset_device(preset)[1]
                           if preset and "profile" not in data else
                           _parse_profile(data.get("profile", {}), geometry)),
                  preset_name=preset,
                  **{name: cls(**_read(data.get(name, {}), name, table))
                     for name, (cls, table) in _SETTINGS.items()})


def config_to_dict(config: Config) -> dict:
    """Round-trippable plain-dict form of a parsed config."""
    profile = config.profile
    kind = next(k for k, cls in _PROFILES.items() if cls is type(profile))
    return {
        "geometry": ({"preset": config.preset_name} if config.preset_name
                     else config.geometry.to_dict()),
        "boundary": {"kind": config.boundary.value},
        "profile": {"kind": kind, **{k: list(v) if isinstance(v, tuple) else v
                                     for k, v in vars(profile).items()}},
        **{name: _write(getattr(config, name), table)
           for name, (_, table) in _SETTINGS.items()},
    }
