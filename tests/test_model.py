import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import config_to_dict as reference_config_to_dict

from cantarray.beam import beam_roots
from cantarray.model import (_JAP1, AlternatingProfile, BoundaryCondition,
                             ConfigError, DeviceGeometry, DimensionlessParams,
                             DiscreteProfile, SweepRange, TabulatedProfile,
                             UniformProfile, config_to_dict, dimensionless,
                             load_config, preset_device)
from cantarray.spectrum import solve_uniform_dimensionless


def simple_geometry(count=10):
    return DeviceGeometry(
        beam_length=1e-5, beam_width=4e-7, beam_rigidity=2e-15,
        beam_linear_density=8e-10, cantilever_width=2e-7,
        cantilever_rigidity=1e-15, cantilever_linear_density=4e-10,
        count_per_side=count)


def test_geometry_rejects_nonpositive():
    with pytest.raises(ConfigError):
        DeviceGeometry(beam_length=0.0, beam_width=4e-7, beam_rigidity=2e-15,
                       beam_linear_density=8e-10, cantilever_width=2e-7,
                       cantilever_rigidity=1e-15,
                       cantilever_linear_density=4e-10, count_per_side=4)


def test_geometry_rejects_inconsistent_film_ratios():
    with pytest.raises(ConfigError):
        DeviceGeometry(beam_length=1e-5, beam_width=4e-7, beam_rigidity=2e-15,
                       beam_linear_density=8e-10, cantilever_width=2e-7,
                       cantilever_rigidity=1.5e-15,   # ratio 0.75 != 0.5
                       cantilever_linear_density=4e-10, count_per_side=4)


def test_from_material_consistency():
    g = DeviceGeometry.from_material(
        youngs_modulus=150e9, mass_density=2330.0, thickness=2e-7,
        beam_length=1e-5, beam_width=4e-7, cantilever_width=2e-7,
        count_per_side=20)
    assert g.cantilever_rigidity / g.beam_rigidity == pytest.approx(0.5)
    assert g.cantilever_linear_density / g.beam_linear_density == pytest.approx(0.5)
    assert g.beam_wave_scale > 0


@pytest.mark.parametrize("flag", ["no", 0, []])
def test_equal_thickness_takes_only_true_or_false(flag):
    # "no" loaded and, being truthy, asked for the film-ratio check
    geometry = {**preset_device("jap1-calibrated")[0].to_dict(),
                "equal_thickness": flag}
    with pytest.raises(ConfigError, match="^geometry.equal_thickness: must "
                       f"be true or false, got {re.escape(repr(flag))}$"):
        load_config({"geometry": geometry,
                     "profile": {"kind": "uniform", "length": 5e-7}})


def test_dimensionless_reduction():
    g = simple_geometry(count=20)
    p = dimensionless(g, UniformProfile(length=5e-7))
    assert p.lam == pytest.approx(0.05)
    assert p.nu == pytest.approx(2 * 20 * 0.5)


def test_alternating_profile_ordering():
    with pytest.raises(ConfigError):
        AlternatingProfile(length1=1e-7, length2=2e-7, width1=1e-7,
                           width2=1e-7, count1=3, count2=3)
    p = AlternatingProfile(length1=2e-7, length2=1.6e-7, width1=1e-7,
                           width2=1e-7, count1=3, count2=3)
    assert p.epsilon == pytest.approx(0.8)


def test_tabulated_profile_needs_increasing_stations():
    with pytest.raises(ConfigError):
        TabulatedProfile(x=(0.0, 5e-6, 5e-6, 1e-5),
                         length=(1e-7,) * 4, density=(1.0,) * 4)
    p = TabulatedProfile(x=(0.0, 5e-6, 1e-5), length=(1e-7, 2e-7, 1e-7),
                         density=(1.0, 2.0, 1.0))
    lf, df = p.interpolants()
    assert lf(2.5e-6) > 1e-7


def test_discrete_profile_lengths_match_positions():
    with pytest.raises(ConfigError):
        DiscreteProfile(positions=(1e-6, 2e-6), lengths=(1e-7,))


def test_profile_lists_hold_at_most_4096_samples():
    # the ceiling is checked before the samples, and names the list
    x = tuple(np.linspace(0.0, 1e-5, 4096))
    TabulatedProfile(x=x, length=(1e-7,) * 4096, density=(1.0,) * 4096)
    DiscreteProfile(positions=x, lengths=(1e-7,) * 4096)
    with pytest.raises(ConfigError, match=r"^profile\.x: .* at most 4096 "
                       r"numbers, got 4097$"):
        TabulatedProfile(x=(*x, 2e-5), length=(1e-7,) * 4097,
                         density=(1.0,) * 4097)
    with pytest.raises(ConfigError, match=r"^profile\.lengths: .*got 4097$"):
        DiscreteProfile(positions=x, lengths=("bad",) * 4097)


def test_boundary_names():
    assert BoundaryCondition.from_name("clamped-clamped") is \
        BoundaryCondition.CLAMPED_CLAMPED
    assert BoundaryCondition.from_name("clamped-free") is \
        BoundaryCondition.CLAMPED_FREE
    with pytest.raises(ConfigError):
        BoundaryCondition.from_name("simply-supported")


def test_preset_device():
    geometry, profile, bc = preset_device("jap1-calibrated")
    assert geometry.count_per_side == 20
    assert geometry.cantilever_width / geometry.beam_width == pytest.approx(0.5)
    assert profile.length == pytest.approx(5e-7)
    assert bc is BoundaryCondition.CLAMPED_CLAMPED
    with pytest.raises(ConfigError):
        preset_device("nope")


def test_preset_constants_follow_from_published_inputs():
    # jap1-calibrated is fitted to four published numbers: the drive overlap
    # F/f = (L/2) Gamma4 = -4.44e-6 m with Gamma4 = 4 tan(beta1/2)/beta1, the
    # fundamental 24.7 MHz, the modal mass 1.74e-14 kg and the printed
    # loading overlap L11 = 1.00012 (M1 = mu_b L (1 + nu lam L11))
    betas = beam_roots(BoundaryCondition.CLAMPED_CLAMPED, 1)
    beta1 = betas[0]
    beam_length = 2.0 * -4.44e-6 / (4 * np.tan(beta1 / 2) / beta1)
    l, nu = 5e-7, 20.0
    lam = l / beam_length
    g11, g12 = solve_uniform_dimensionless(DimensionlessParams(lam, nu),
                                           betas, 2)[0]
    wave_scale = 2 * np.pi * 24.7e6 * l ** 2 / g11 ** 2
    mu_b = 1.74e-14 / (beam_length * (1.0 + nu * lam * 1.00012))
    assert beam_length == _JAP1["beam_length"]
    assert mu_b == _JAP1["beam_linear_density"]
    assert wave_scale == _JAP1["cantilever_wave_scale"]
    # and the constants reproduce the second published mode (its printed
    # loading overlap is L22 = 3.89887)
    f2 = wave_scale * (g12 / l) ** 2 / (2 * np.pi)
    assert abs(f2 - 2.94e9) / 2.94e9 < 2e-4
    m2 = mu_b * beam_length * (1.0 + nu * lam * 3.89887)
    assert abs(m2 - 4.17e-14) / 4.17e-14 < 2e-3


def test_load_config_minimal_preset():
    cfg = load_config({"geometry": {"preset": "jap1-calibrated"}})
    assert cfg.geometry.count_per_side == 20
    assert cfg.profile.length == pytest.approx(5e-7)
    assert cfg.spectrum.n_max == 4


def test_load_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown top-level"):
        load_config({"geometry": {"preset": "jap1-calibrated"},
                     "spectrm": {}})


def test_load_config_missing_file_names_path():
    with pytest.raises(ConfigError, match="no/such/file.json"):
        load_config("no/such/file.json")


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(p)


def test_load_config_full_roundtrip(tmp_path):
    data = {
        "geometry": {"preset": "jap1-calibrated"},
        "boundary": {"kind": "clamped-clamped"},
        "profile": {"kind": "uniform", "length": 5e-7},
        "spectrum": {"n_max": 3, "k_max": 5},
        "galerkin": {"basis_size": 10,
                     "quadrature": {"order": 16, "rtol": 1e-9}},
        "nonlinear": {"c_y": 1e-6, "c_eta": 2e-6, "f1": 0.5, "f2": 0.25,
                      "sigma1": {"from": -1.0, "to": 1.0, "points": 5},
                      "sigma2": 0.0},
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    cfg = load_config(p)
    assert cfg.spectrum.k_max == 5
    assert cfg.galerkin.basis_size == 10
    assert isinstance(cfg.nonlinear.sigma1, SweepRange)
    assert cfg.nonlinear.sigma1.points == 5
    assert cfg.nonlinear.sigma2 == 0.0
    # round-trip through the canonical dict form parses identically
    again = load_config(config_to_dict(cfg))
    assert again.spectrum == cfg.spectrum
    assert again.galerkin == cfg.galerkin
    assert again.nonlinear == cfg.nonlinear


def test_sweep_range_validation():
    with pytest.raises(ConfigError):
        SweepRange(start=0.0, stop=1.0, points=0)
    vals = SweepRange(start=0.0, stop=1.0, points=3).values()
    assert list(vals) == [0.0, 0.5, 1.0]


def test_output_format_validation():
    # the --format and --output flags choose the output; a config can't
    for output in ({"format": "parquet"}, {"format": "json"}, {}):
        with pytest.raises(ConfigError, match="--format and --output"):
            load_config({"geometry": {"preset": "jap1-calibrated"},
                         "output": output})


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


_COUNTS = st.integers(0, 400)
_MATERIAL = st.fixed_dictionaries({
    "youngs_modulus": _floats(1e9, 1e12), "mass_density": _floats(1e3, 2e4),
    "thickness": _floats(1e-8, 1e-6), "beam_length": _floats(1e-6, 1e-4),
    "beam_width": _floats(1e-7, 1e-6), "cantilever_width": _floats(1e-8, 1e-6),
    "count_per_side": _COUNTS})
# sections drawn apart, so equal_thickness must be false
_FULL = st.fixed_dictionaries(
    {name: _floats(1e-20, 1e-3) for name in (
        "beam_length", "beam_width", "beam_rigidity", "beam_linear_density",
        "cantilever_width", "cantilever_rigidity",
        "cantilever_linear_density")}).map(
            lambda d: {**d, "equal_thickness": False})
_GEOMETRIES = st.one_of(
    st.just({"preset": "jap1-calibrated"}), _MATERIAL,
    _MATERIAL.map(lambda m: DeviceGeometry.from_material(**m).to_dict()),
    st.tuples(_FULL, _COUNTS).map(lambda t: {**t[0], "count_per_side": t[1]}))
_LENGTHS = _floats(1e-8, 1e-5)


@st.composite
def _profiles(draw):
    kind = draw(st.sampled_from(["uniform", "alternating", "tabulated",
                                 "discrete"]))
    if kind == "uniform":
        return {"kind": kind, "length": draw(_LENGTHS)}
    if kind == "alternating":
        lengths = sorted(draw(st.lists(_LENGTHS, min_size=2, max_size=2)))
        return {"kind": kind, "length1": lengths[1], "length2": lengths[0],
                "count1": draw(st.integers(1, 50)),
                **draw(st.fixed_dictionaries({}, optional={
                    "width1": _LENGTHS, "width2": _LENGTHS,
                    "count2": st.one_of(_COUNTS, _floats(0.0, 50.0))}))}
    n = draw(st.integers(2, 12))
    if kind == "tabulated":
        x = sorted(draw(st.sets(_floats(0.0, 1e-4), min_size=n, max_size=n)))
        return {"kind": kind, "x": x,
                "length": draw(st.lists(_LENGTHS, min_size=n, max_size=n)),
                "density": draw(st.lists(st.one_of(
                    st.integers(0, 10 ** 7), _floats(0.0, 1e7)),
                    min_size=n, max_size=n))}
    return {"kind": kind,
            "positions": draw(st.lists(_floats(-1e-4, 1e-4), min_size=n,
                                       max_size=n)),
            "lengths": draw(st.lists(_LENGTHS, min_size=n, max_size=n))}


_NUMBERS = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                     _floats(-1e6, 1e6))
_SIGMAS = st.one_of(_NUMBERS, st.fixed_dictionaries({
    "from": _NUMBERS, "to": _NUMBERS, "points": st.integers(1, 50)}))


@st.composite
def _configs(draw):
    geometry = draw(_GEOMETRIES)
    config = {"geometry": geometry}
    if "preset" not in geometry or draw(st.booleans()):
        config["profile"] = draw(_profiles())
    sections = {
        "boundary": st.sampled_from(["clamped-clamped", "clamped-free"]).map(
            lambda kind: {"kind": kind}),
        "spectrum": st.fixed_dictionaries({}, optional={
            "n_max": st.integers(1, 12), "k_max": st.integers(1, 12)}),
        "galerkin": st.fixed_dictionaries({}, optional={
            "basis_size": st.integers(1, 40),
            "quadrature": st.fixed_dictionaries({}, optional={
                "order": st.integers(1, 64), "rtol": _floats(1e-14, 1.0)})}),
        "nonlinear": st.fixed_dictionaries({}, optional={
            "c_y": _floats(0.0, 1.0), "c_eta": st.integers(0, 5),
            "f1": _NUMBERS, "f2": _NUMBERS,
            "sigma1": _SIGMAS, "sigma2": _SIGMAS})}
    for name, strategy in sections.items():
        if draw(st.booleans()):
            config[name] = draw(strategy)
    return config


@settings(max_examples=200, deadline=None)
@given(spec=_configs())
def test_config_round_trips_through_its_canonical_form(spec):
    # every geometry form, every profile kind, scalar and range detunings
    config = load_config(json.loads(json.dumps(spec)))
    data = config_to_dict(config)
    assert load_config(data) == config
    # the bytes config_sha256 hashes are the ones first written
    assert json.dumps(data, sort_keys=True) == \
        json.dumps(reference_config_to_dict(config), sort_keys=True)
