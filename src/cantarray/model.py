"""Device description, cantilever distribution profiles and config handling.

Geometry is carried in SI units throughout: lengths in m, flexural rigidity
(E*I) in N*m^2, linear mass density in kg/m.  The dimensionless numbers the
solvers actually consume are

    lam = l / L            cantilever-to-beam length ratio
    nu  = 2 N w_c / w_b    mass-loading ratio (N cantilevers per side)

so that 2 N m_c / m_b = nu * lam when beam and cantilevers share material and
thickness.
"""
from __future__ import annotations

import enum
import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .numerics import Pchip


class ConfigError(ValueError):
    """Raised for malformed or physically invalid configuration input."""


class BoundaryCondition(enum.Enum):
    CLAMPED_CLAMPED = "clamped-clamped"
    CLAMPED_FREE = "clamped-free"

    @classmethod
    def from_name(cls, name: str) -> "BoundaryCondition":
        for member in cls:
            if member.value == name:
                return member
        raise ConfigError(
            f"boundary.kind: unknown value {name!r}; "
            f"expected one of {[m.value for m in cls]}")


def _is_count(value) -> bool:
    """An integer >= 1; JSON's true, 2.5, "3" and 1e9 are not."""
    return (isinstance(value, (int, np.integer))
            and not isinstance(value, bool) and value >= 1)


def _is_number(value) -> bool:
    """A finite int or float (not a bool, NaN or an infinity)."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and math.isfinite(value))


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
        _check(lambda v: _is_number(v) and v > 0, "a positive finite number",
               **{f"geometry.{name}": getattr(self, name) for name in (
                   "beam_length", "beam_width", "beam_rigidity",
                   "beam_linear_density", "cantilever_width",
                   "cantilever_rigidity", "cantilever_linear_density")})
        _check(lambda v: _is_number(v) and v >= 0, "a finite number >= 0",
               **{"geometry.count_per_side": self.count_per_side})
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
        def rigidity(width):
            return youngs_modulus * width * thickness ** 3 / 12.0

        def lin_density(width):
            return mass_density * width * thickness

        return cls(
            beam_length=beam_length,
            beam_width=beam_width,
            beam_rigidity=rigidity(beam_width),
            beam_linear_density=lin_density(beam_width),
            cantilever_width=cantilever_width,
            cantilever_rigidity=rigidity(cantilever_width),
            cantilever_linear_density=lin_density(cantilever_width),
            count_per_side=count_per_side,
            equal_thickness=True,
        )

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

def _require_finite(name: str, *values) -> None:
    """ConfigError naming profile field `name` unless every value is a finite
    number (JSON admits NaN and Infinity, which pass a `<= 0` check)."""
    try:
        finite = all(map(math.isfinite, values))
    except TypeError:
        finite = False
    if not finite:
        raise ConfigError(f"profile.{name}: must be finite numbers")


@dataclass(frozen=True)
class UniformProfile:
    """Identical cantilevers, averaged to a constant line density 2N/L."""

    length: float  # l (m)

    def __post_init__(self):
        _require_finite("length", self.length)
        if not self.length > 0:
            raise ConfigError("profile.length: must be positive")

    def to_dict(self) -> dict:
        return {"kind": "uniform", "length": self.length}


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
        for name in ("length1", "length2", "width1", "width2", "count1",
                     "count2"):
            _require_finite(name, getattr(self, name))
        if not (self.length1 > 0 and self.length2 > 0):
            raise ConfigError("profile: lengths must be positive")
        if self.length2 > self.length1:
            raise ConfigError("profile: length2 must not exceed length1 "
                              "(label the longer family 1)")
        if not (self.width1 > 0 and self.width2 > 0):
            raise ConfigError("profile: widths must be positive")
        if self.count1 < 0 or self.count2 < 0:
            raise ConfigError("profile: counts must be >= 0")
        if self.count1 == 0 and self.count2 == 0:
            raise ConfigError("alternating profile has no cantilevers")

    @property
    def epsilon(self) -> float:
        return self.length2 / self.length1

    def to_dict(self) -> dict:
        return {"kind": "alternating", **asdict(self)}


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
        x = tuple(float(v) for v in self.x)
        ln = tuple(float(v) for v in self.length)
        de = tuple(float(v) for v in self.density)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "length", ln)
        object.__setattr__(self, "density", de)
        _require_finite("x", *x)
        _require_finite("length", *ln)
        _require_finite("density", *de)
        if len(x) < 2:
            raise ConfigError("profile.x: need at least two samples")
        if len(ln) != len(x) or len(de) != len(x):
            raise ConfigError("profile: x, length, density must have equal lengths")
        if any(b <= a for a, b in zip(x, x[1:])):
            raise ConfigError("profile.x: samples must be strictly increasing")
        if any(v <= 0 for v in ln):
            raise ConfigError("profile.length: samples must be positive")
        if any(v < 0 for v in de):
            raise ConfigError("profile.density: samples must be >= 0")

    def interpolants(self):
        return Pchip(self.x, self.length), Pchip(self.x, self.density)

    def to_dict(self) -> dict:
        return {"kind": "tabulated", "x": list(self.x),
                "length": list(self.length), "density": list(self.density)}


@dataclass(frozen=True)
class DiscreteProfile:
    """Individual cantilever pairs at explicit beam positions."""

    positions: tuple  # x_j (m), one entry per pair
    lengths: tuple    # l_j (m)

    def __post_init__(self):
        pos = tuple(float(v) for v in self.positions)
        ln = tuple(float(v) for v in self.lengths)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "lengths", ln)
        _require_finite("positions", *pos)
        _require_finite("lengths", *ln)
        if len(pos) != len(ln):
            raise ConfigError("profile: positions and lengths must have equal lengths")
        if len(pos) == 0:
            raise ConfigError("profile.positions: need at least one cantilever pair")
        if any(v <= 0 for v in ln):
            raise ConfigError("profile.lengths: must be positive")

    def to_dict(self) -> dict:
        return {"kind": "discrete", "positions": list(self.positions),
                "lengths": list(self.lengths)}


Profile = UniformProfile | AlternatingProfile | TabulatedProfile | DiscreteProfile


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

@dataclass(frozen=True)
class SpectrumSettings:
    n_max: int = 4
    k_max: int = 4

    def __post_init__(self):
        _check(_is_count, "an integer >= 1", **{"spectrum.n_max": self.n_max,
                                                "spectrum.k_max": self.k_max})


@dataclass(frozen=True)
class GalerkinSettings:
    basis_size: int = 8
    quadrature_order: int = 32
    quadrature_rtol: float = 1e-10

    def __post_init__(self):
        _check(_is_count, "an integer >= 1",
               **{"galerkin.basis_size": self.basis_size,
                  "galerkin.quadrature.order": self.quadrature_order})
        _check(lambda v: _is_number(v) and v > 0, "a positive finite number",
               **{"galerkin.quadrature.rtol": self.quadrature_rtol})


@dataclass(frozen=True)
class SweepRange:
    start: float
    stop: float
    points: int

    def __post_init__(self):
        _check(_is_number, "a finite number",
               **{"from": self.start, "to": self.stop})
        _check(_is_count, "an integer >= 1", points=self.points)

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
        _check(lambda v: _is_number(v) and v >= 0, "a finite number >= 0",
               **{"nonlinear.c_y": self.damping_beam,
                  "nonlinear.c_eta": self.damping_cantilever})
        _check(lambda v: isinstance(v, SweepRange) or _is_number(v),
               "a finite number",
               **{"nonlinear.f1": self.force1, "nonlinear.f2": self.force2,
                  "nonlinear.sigma1": self.sigma1,
                  "nonlinear.sigma2": self.sigma2})


@dataclass(frozen=True)
class Config:
    geometry: DeviceGeometry
    boundary: BoundaryCondition
    profile: Profile
    spectrum: SpectrumSettings = field(default_factory=SpectrumSettings)
    galerkin: GalerkinSettings = field(default_factory=GalerkinSettings)
    nonlinear: NonlinearSettings = field(default_factory=NonlinearSettings)
    preset_name: str | None = None


def _require(mapping: dict, key: str, section: str):
    if key not in mapping:
        raise ConfigError(f"{section}.{key}: missing required key")
    return mapping[key]


def _parse_geometry(spec: dict) -> tuple[DeviceGeometry, str | None]:
    if not isinstance(spec, dict):
        raise ConfigError("geometry: must be an object")
    if "preset" in spec:
        _reject_unknown(spec, ("preset",), "preset")
        geometry, _, _ = preset_device(spec["preset"])
        return geometry, spec["preset"]
    if "youngs_modulus" in spec:
        keys = ("youngs_modulus", "mass_density", "thickness", "beam_length",
                "beam_width", "cantilever_width", "count_per_side")
        _reject_unknown(spec, keys, "material")
        try:
            return DeviceGeometry.from_material(
                **{key: _require(spec, key, "geometry") for key in keys}), None
        except TypeError as exc:
            raise ConfigError(f"geometry: {exc}") from exc
    keys = ("beam_length", "beam_width", "beam_rigidity",
            "beam_linear_density", "cantilever_width", "cantilever_rigidity",
            "cantilever_linear_density", "count_per_side")
    _reject_unknown(spec, keys + ("equal_thickness",), "full")
    kwargs = {key: _require(spec, key, "geometry") for key in keys}
    kwargs["equal_thickness"] = spec.get("equal_thickness", True)
    return DeviceGeometry(**kwargs), None


def _reject_unknown(spec: dict, keys, kind: str) -> None:
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise ConfigError(f"geometry: unknown key(s) {unknown} in a {kind} "
                          f"geometry; it takes {sorted(keys)}")


def _parse_profile(spec: dict, geometry: DeviceGeometry, preset: str | None) -> Profile:
    if spec is None:
        if preset is not None:
            return preset_device(preset)[1]
        raise ConfigError("profile: missing section")
    if not isinstance(spec, dict):
        raise ConfigError("profile: must be an object")
    kind = _require(spec, "kind", "profile")
    if kind == "uniform":
        return UniformProfile(length=_require(spec, "length", "profile"))
    if kind == "alternating":
        return AlternatingProfile(
            length1=_require(spec, "length1", "profile"),
            length2=_require(spec, "length2", "profile"),
            width1=spec.get("width1", geometry.cantilever_width),
            width2=spec.get("width2", geometry.cantilever_width),
            count1=spec.get("count1", geometry.count_per_side),
            count2=spec.get("count2", geometry.count_per_side),
        )
    if kind == "tabulated":
        return TabulatedProfile(
            x=tuple(_require(spec, "x", "profile")),
            length=tuple(_require(spec, "length", "profile")),
            density=tuple(_require(spec, "density", "profile")),
        )
    if kind == "discrete":
        return DiscreteProfile(
            positions=tuple(_require(spec, "positions", "profile")),
            lengths=tuple(_require(spec, "lengths", "profile")),
        )
    raise ConfigError(f"profile.kind: unknown kind {kind!r}")


def _parse_sweep(value, section: str) -> SweepRange | float:
    if isinstance(value, dict):
        bounds = [_require(value, key, section)
                  for key in ("from", "to", "points")]
        try:
            return SweepRange(*bounds)
        except ConfigError as exc:   # name the section and its key
            raise ConfigError(f"{section}.{exc}") from exc
    if isinstance(value, (int, float)):
        return float(value)
    raise ConfigError(f"{section}: expected a number or {{from, to, points}}")


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
    if not isinstance(data, dict):
        raise ConfigError("config: top level must be an object")

    if "output" in data:
        raise ConfigError("config: no 'output' section; the --format and "
                          "--output flags choose the output")
    known = {"geometry", "boundary", "profile", "spectrum", "galerkin",
             "nonlinear"}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"config: unknown top-level keys {sorted(unknown)}")

    geometry, preset = _parse_geometry(_require(data, "geometry", "config"))

    boundary_spec = data.get("boundary", {"kind": "clamped-clamped"})
    if not isinstance(boundary_spec, dict) or "kind" not in boundary_spec:
        raise ConfigError("boundary: expected {'kind': ...}")
    boundary = BoundaryCondition.from_name(boundary_spec["kind"])

    profile = _parse_profile(data.get("profile"), geometry, preset)

    sp = data.get("spectrum", {})
    spectrum = SpectrumSettings(n_max=sp.get("n_max", 4), k_max=sp.get("k_max", 4))

    ga = data.get("galerkin", {})
    quad = ga.get("quadrature", {})
    galerkin = GalerkinSettings(
        basis_size=ga.get("basis_size", 8),
        quadrature_order=quad.get("order", 32),
        quadrature_rtol=quad.get("rtol", 1e-10),
    )

    nl = data.get("nonlinear", {})
    nonlinear = NonlinearSettings(
        damping_beam=nl.get("c_y", 0.0),
        damping_cantilever=nl.get("c_eta", 0.0),
        force1=nl.get("f1", 0.0),
        force2=nl.get("f2", 0.0),
        sigma1=_parse_sweep(nl.get("sigma1", 0.0), "nonlinear.sigma1"),
        sigma2=_parse_sweep(nl.get("sigma2", 0.0), "nonlinear.sigma2"),
    )

    return Config(geometry=geometry, boundary=boundary, profile=profile,
                  spectrum=spectrum, galerkin=galerkin, nonlinear=nonlinear,
                  preset_name=preset)


def config_to_dict(config: Config) -> dict:
    """Round-trippable plain-dict form of a parsed config."""
    out: dict = {
        "geometry": ({"preset": config.preset_name} if config.preset_name
                     else config.geometry.to_dict()),
        "boundary": {"kind": config.boundary.value},
        "profile": config.profile.to_dict(),
        "spectrum": {"n_max": config.spectrum.n_max, "k_max": config.spectrum.k_max},
        "galerkin": {"basis_size": config.galerkin.basis_size,
                     "quadrature": {"order": config.galerkin.quadrature_order,
                                    "rtol": config.galerkin.quadrature_rtol}},
    }
    nl = config.nonlinear

    def sweep_dict(v):
        if isinstance(v, SweepRange):
            return {"from": v.start, "to": v.stop, "points": v.points}
        return v

    out["nonlinear"] = {"c_y": nl.damping_beam, "c_eta": nl.damping_cantilever,
                        "f1": nl.force1, "f2": nl.force2,
                        "sigma1": sweep_dict(nl.sigma1),
                        "sigma2": sweep_dict(nl.sigma2)}
    return out
