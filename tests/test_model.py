import json

import numpy as np
import pytest

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
