import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import render_rows

from cantarray import cli, spectrum
from cantarray.kernel import CantileverShape, band_edge_gammas
from cantarray.model import preset_device
from cantarray.quadrature import QuadratureError

PRESET = "jap1-calibrated"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def stdout_manifest(err):
    line = [l for l in err.splitlines() if l.startswith("manifest: ")][-1]
    return json.loads(line[len("manifest: "):])


def test_modes_stdout(capsys):
    code, out, err = run(capsys, "modes", "--preset", PRESET)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,beta,omega_rad_s,freq_hz"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(4.7300407449, abs=1e-9)
    m = stdout_manifest(err)
    assert m["subcommand"] == "modes" and m["rows"] == 4


def test_modes_without_geometry_has_nan_frequencies(capsys):
    code, out, _ = run(capsys, "modes")
    assert code == 0
    assert "nan" in out.splitlines()[1]


def test_missing_config_file_is_exit_2(capsys):
    code, _, err = run(capsys, "spectrum", "--config", "no/such/conf.json")
    assert code == 2
    assert "no/such/conf.json" in err


def test_unknown_preset_is_exit_2(capsys):
    code, _, err = run(capsys, "modes", "--preset", "zork")
    assert code == 2
    assert "zork" in err


def test_config_and_preset_together_rejected(capsys, tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"geometry": {"preset": PRESET}}))
    code, _, err = run(capsys, "spectrum", "--config", str(p),
                       "--preset", PRESET)
    assert code == 2
    assert "not both" in err


@pytest.mark.parametrize("argv", [
    ["sweep", "--preset", PRESET, "--param", "nu", "--from", "0", "--to", "1",
     "--points", "-3"],
    ["kernel", "--points", "-2"],
    ["modes", "--samples", "-1"],
    ["spectrum", "--preset", PRESET, "--n-max", "-1"],
    ["spectrum", "--preset", PRESET, "--n-max", "0"],
    ["spectrum", "--preset", PRESET, "--k-max", "0"],
    ["galerkin", "--preset", PRESET, "--basis-size", "0"],
    ["galerkin", "--preset", PRESET, "--alpha-max", "-1"],
    ["kernel", "--gamma-max", "-1"],
    ["kernel", "--gamma-max", "nan"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_nonpositive_numeric_flag_is_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: expected a positive" in err
    assert "Traceback" not in err


def test_spectrum_csv_schema_and_normalization(capsys):
    code, out, err = run(capsys, "spectrum", "--preset", PRESET,
                         "--n-max", "2", "--k-max", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("n,k,gamma,omega_rad_s,freq_hz,omega_normalized,"
                        "band_edge_lower,band_edge_upper,valid")
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 4
    first = {c: v for c, v in zip(lines[0].split(","), rows[0])}
    assert first["n"] == "1" and first["k"] == "1"
    assert float(first["omega_normalized"]) == 1.0
    assert first["valid"] == "true"
    # frozen regression for the calibrated preset
    assert float(first["gamma"]) == pytest.approx(0.18760324063691297,
                                                  rel=1e-12)
    m = stdout_manifest(err)
    # re-recorded when the override flags joined the hashed config: this is
    # the hash of the preset with spectrum n_max = k_max = 2
    assert m["config_sha256"] == ("f6a16ac81ff120f917b5df3377aeedc8cf24df"
                                  "ee148b7786759452a4eae25d87")


@pytest.mark.parametrize("argv, flag, same, other", [
    (["galerkin", "--alpha-max", "3e6"], "--basis-size", "8", "4"),
    (["spectrum"], "--n-max", "4", "2"),
    (["sweep", "--param", "nu", "--from", "0", "--to", "1", "--points", "2"],
     "--k-max", "4", "3"),
    (["nonlinear", "coeffs"], "--f1", "0", "1e-9"),
    (["nonlinear", "coeffs"], "--f2", "0.0", "-2.5"),
], ids=["galerkin-basis-size", "spectrum-n-max", "sweep-k-max", "coeffs-f1",
        "coeffs-f2"])
def test_manifest_hash_covers_the_override_flags(capsys, argv, flag, same,
                                                 other):
    # the flags reached the solver but not the hashed config: --basis-size 4
    # and 8 wrote 4 and 8 rows under one hash
    hashes = []
    for extra in ([], [flag, same], [flag, other]):
        code, _, err = run(capsys, *argv, "--preset", PRESET, *extra)
        assert code == 0
        hashes.append(stdout_manifest(err)["config_sha256"])
    assert hashes[0] == hashes[1] != hashes[2]


def test_spectrum_json_format(capsys):
    code, out, _ = run(capsys, "spectrum", "--preset", PRESET,
                       "--format", "json", "--n-max", "1", "--k-max", "2")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"columns", "rows"}
    assert len(data["rows"]) == 2
    assert data["rows"][0][data["columns"].index("valid")] is True


def test_output_files_are_byte_identical_across_runs(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run(capsys, "spectrum", "--preset", PRESET,
                         "--output", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")
    assert b"\r" not in a.read_bytes()


# SHA-256 of the outputs of fixed band-structure runs, recorded before the
# band solvers were batched (CSV) and before tables were rendered by column
# (JSON): both refactors must keep every byte.  The runs on a config were
# recorded before solve_uniform, solve_alternating and galerkin.solve
# returned arrays instead of level rows.  The two-mode coefficients were
# recorded before the nonlinear records became NamedTuples.  The digits depend
# on how numpy rounds exp, cos, sin and power, which varies with the numpy
# build and the CPU's SIMD level, so the hashes are checked only where the
# fingerprint of those functions matches the one taken with them (numpy 2.4,
# x86-64 with AVX-512); the Galerkin runs also need the LAPACK fingerprint of
# eigvalsh and eigh.
GOLDEN_FINGERPRINT = \
    "563c7e9208ef27c5a9dd44ded440994fc3bdb4db422b8772753e978f66ac6c8d"
GOLDEN_LINALG_FINGERPRINT = \
    "a34f492abfa2cea17e38aa64678adfdc6c17fbdd85b746ecb801c15bb9ae292c"
GOLDEN_CONFIGS = {
    # three pairs per side: the rows with n >= 3 are not valid
    "alternating-few": {
        "geometry": {"preset": PRESET},
        "profile": {"kind": "alternating", "length1": 5e-7, "length2": 4e-7,
                    "width1": 2e-7, "width2": 2e-7, "count1": 1,
                    "count2": 2}},
    "alternating": {
        "geometry": {"preset": PRESET},
        "profile": {"kind": "alternating", "length1": 5e-7, "length2": 4e-7,
                    "width1": 2e-7, "width2": 2e-7, "count1": 10,
                    "count2": 10}},
    "comb": {
        "geometry": {"preset": PRESET},
        "profile": {"kind": "discrete",
                    "positions": [2.5e-6, 4.5e-6, 6.5e-6, 8.5e-6],
                    "lengths": [5e-7, 4e-7, 5e-7, 4e-7]},
        "galerkin": {"basis_size": 4}},
    "tabulated": {
        "geometry": {"preset": PRESET},
        "profile": {"kind": "tabulated",
                    "x": [0.0, 5.343850781101918e-06, 1.0687701562203836e-05],
                    "length": [5e-7, 5.4e-7, 4.7e-7],
                    "density": [4e6, 3.5e6, 4e6]},
        "galerkin": {"basis_size": 4}},
}
# name: (argv, GOLDEN_CONFIGS key or None for the preset, SHA-256)
GOLDEN_RUNS = {
    "spectrum": (["spectrum", "--n-max", "6", "--k-max", "6"], None,
                 "9f3cda2962f67b7f97de93a9b992f5ecf000ba3618f8da229a42ddff025d6527"),
    "sweep-nu": (["sweep", "--param", "nu", "--from", "0", "--to", "90"], None,
                 "7aea5e74a7eab38e7e371a04e957d31a96770739dd3ab2e36f2508a851c70826"),
    "sweep-lambda": (["sweep", "--param", "lambda", "--from", "0.02",
                      "--to", "0.1"], None,
                     "c51c46381af11ce22fd47bf0b8582d06f9b6c8437cead37aa07ebcb8cad1eff0"),
    "sweep-N": (["sweep", "--param", "N", "--from", "0", "--to", "60"], None,
                "802aea4e6f49826103162aa2ad890d5cc2cd59628efe31aa88efb348ca4dd40f"),
    "spectrum-json": (["spectrum", "--n-max", "6", "--k-max", "6",
                       "--format", "json"], None,
                      "5cfb8e27ce7332a49f6d799366e484bd508b361ccb28cdf725037c4329a0c7f5"),
    "sweep-nu-json": (["sweep", "--param", "nu", "--from", "0", "--to", "90",
                       "--format", "json"], None,
                      "290e19b00ef7ebacd8703b34ea7629ec2a7a87281c81d1b60f8dbe1b3423daa2"),
    "spectrum-alternating": (["spectrum", "--n-max", "5", "--k-max", "4"],
                             "alternating-few",
                             "4ed19379d1b5a54d05eb985ee33e1bfd8d5a7ef01b16b2faafff0176d1867957"),
    "spectrum-alternating-json": (["spectrum", "--n-max", "5", "--k-max", "4",
                                   "--format", "json"], "alternating-few",
                                  "17aacf4bc857ddabbd2f6285faa8787af4747d7425688b757134e1202dae6486"),
    "sweep-epsilon": (["sweep", "--param", "epsilon", "--from", "0.5",
                       "--to", "1"], "alternating",
                      "1adcae279db67c23d6bfefdc06a471638b06990f2b1563688ba91507ddb05f20"),
    "galerkin-comb": (["galerkin", "--alpha-max", "5e6"], "comb",
                      "f0771f7aeb6baf360c8562eb0f171f0ea86f4d63000a7e07b0bc1850b9308b2f"),
    "galerkin-tabulated": (["galerkin", "--alpha-max", "3e6"], "tabulated",
                           "02a56bc9886b2a664e3e6c8c2277432efef1c8caa42c4308dffd0daed2f4f3e7"),
    "nonlinear-coeffs": (["nonlinear", "coeffs"], None,
                         "53b525f978a9d71b181987cf8509f44f7689d21d0e7cfb22865f8a8282600e4c"),
}
SWEEP_FLAGS = ["--points", "41", "--n-max", "4", "--k-max", "5"]


def _float_fingerprint() -> str:
    x = np.linspace(0.01, 60.0, 4099)
    parts = [np.exp(-x), np.cos(x), np.sin(x), x ** 3, x ** 4]
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()


def _linalg_fingerprint() -> str:
    a = np.arange(1.0, 26.0).reshape(5, 5)
    a = a + a.T + np.diag(np.linspace(-3.0, 3.0, 5))
    w, v = np.linalg.eigh(np.stack([a, 2.0 * a]))
    return hashlib.sha256(np.linalg.eigvalsh(a).tobytes() + w.tobytes()
                          + v.tobytes()).hexdigest()


def _check_golden_run(capsys, tmp_path, name):
    argv, config, digest = GOLDEN_RUNS[name]
    if argv[0] == "sweep":
        argv = argv + SWEEP_FLAGS
    if config is None:
        source = ["--preset", PRESET]
    else:
        path = tmp_path / f"{config}.json"
        path.write_text(json.dumps(GOLDEN_CONFIGS[config]))
        source = ["--config", str(path)]
    out = tmp_path / f"{name}.out"
    code, _, _ = run(capsys, *argv, *source, "--output", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(
    name for name, (argv, _, _) in GOLDEN_RUNS.items()
    if argv[0] != "galerkin"))
def test_band_outputs_match_golden_hashes(capsys, tmp_path, name):
    if _float_fingerprint() != GOLDEN_FINGERPRINT:
        pytest.skip("numpy rounds exp/cos/sin/power differently here than "
                    "where the golden hashes were recorded")
    _check_golden_run(capsys, tmp_path, name)


@pytest.mark.parametrize("name", sorted(
    name for name, (argv, _, _) in GOLDEN_RUNS.items()
    if argv[0] == "galerkin"))
def test_galerkin_outputs_match_golden_hashes(capsys, tmp_path, name):
    if (_float_fingerprint() != GOLDEN_FINGERPRINT
            or _linalg_fingerprint() != GOLDEN_LINALG_FINGERPRINT):
        pytest.skip("numpy or LAPACK rounds differently here than where "
                    "the golden hashes were recorded")
    _check_golden_run(capsys, tmp_path, name)


def test_manifest_sidecar_schema(capsys, tmp_path):
    out_path = tmp_path / "levels.csv"
    code, _, _ = run(capsys, "spectrum", "--preset", PRESET,
                     "--output", str(out_path))
    assert code == 0
    sidecar = tmp_path / "levels.csv.manifest.json"
    assert sidecar.exists()
    m = json.loads(sidecar.read_text())
    assert set(m) == {"cantarray_version", "subcommand", "config_sha256",
                      "format", "rows", "wall_time_s", "warnings", "output"}
    assert m["output"] == "levels.csv"
    assert m["format"] == "csv"
    assert m["rows"] == len(out_path.read_text().strip().splitlines()) - 1
    # preset geometry is fitted, and the manifest must say so
    assert any("calibrated" in w for w in m["warnings"])


def test_sweep_rows(capsys):
    code, out, _ = run(capsys, "sweep", "--preset", PRESET, "--param", "nu",
                       "--from", "0", "--to", "40", "--points", "3",
                       "--n-max", "1", "--k-max", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "param,value,n,k,gamma,omega_rad_s"
    assert len(lines) == 4
    assert lines[1].startswith("nu,0,")


def test_galerkin_table(capsys):
    code, out, _ = run(capsys, "galerkin", "--preset", PRESET,
                       "--basis-size", "4", "--alpha-max", "1e6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("alpha,omega_rad_s,dominant_n,participation_1")
    assert lines[0].endswith("participation_4")
    assert len(lines) >= 3


def _alternating(count1, count2):
    return {"kind": "alternating", "length1": 5e-7, "length2": 4e-7,
            "width1": 2e-7, "width2": 2e-7, "count1": count1,
            "count2": count2}


# name: (profile, or None for the preset's, and its longest length)
DEFAULT_ALPHA_PROFILES = {
    "uniform": (None, preset_device(PRESET)[1].length),
    "alternating": (_alternating(10, 10), 5e-7),
    "alternating-first-only": (_alternating(20, 0), 5e-7),
    "alternating-second-only": (_alternating(0, 20), 4e-7),
    "comb": (GOLDEN_CONFIGS["comb"]["profile"], 5e-7),
    "tabulated": (GOLDEN_CONFIGS["tabulated"]["profile"], 5.4e-7),
}


@pytest.mark.parametrize("name", sorted(DEFAULT_ALPHA_PROFILES))
def test_galerkin_default_alpha_max_spans_k_max_bands(capsys, tmp_path, name):
    # without --alpha-max the solve spans k_max bands of the longest
    # cantilever that the profile has
    profile, longest = DEFAULT_ALPHA_PROFILES[name]
    config = {"geometry": {"preset": PRESET}, "spectrum": {"k_max": 3},
              "galerkin": {"basis_size": 4}}
    if profile is not None:
        config["profile"] = profile
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config))
    code, out, err = run(capsys, "galerkin", "--config", str(p))
    assert code == 0
    alphas = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert stdout_manifest(err)["rows"] == len(alphas) > 0
    assert max(alphas) <= band_edge_gammas(3)[-1] / longest


@pytest.mark.parametrize("name", sorted(DEFAULT_ALPHA_PROFILES))
def test_galerkin_default_alpha_max_at_the_k_max_ceiling_passes(
        capsys, tmp_path, monkeypatch, name):
    # the --alpha-max ceiling is band edge 1000 over the longest
    # cantilever, which is where the default stops at k_max = 1000
    from cantarray import galerkin
    profile, longest = DEFAULT_ALPHA_PROFILES[name]
    config = {"geometry": {"preset": PRESET}, "spectrum": {"k_max": 1000},
              "galerkin": {"basis_size": 4}}
    if profile is not None:
        config["profile"] = profile
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config))
    spans = []

    def solve(geometry, profile, bc, alpha_max, settings):
        spans.append(alpha_max)
        return np.empty(0), np.empty(0), np.empty((0, 4))

    monkeypatch.setattr(galerkin, "solve", solve)
    code, _, err = run(capsys, "galerkin", "--config", str(p))
    assert code == 0, err
    assert spans == [band_edge_gammas(1000)[-1] / longest]


@pytest.mark.parametrize("argv", [
    ["kernel", "--gamma-max", "1e9", "--points", "3"],
    ["kernel", "--shape", "1e9"],
    ["galerkin", "--preset", PRESET, "--alpha-max", "1e15"],
    # argparse refuses a count past its ceiling before anything is built
    ["kernel", "--points", "10001"],
    ["modes", "--samples", "10001"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_flags_past_their_ceilings_exit_2_at_once(capsys, argv):
    # a wavenumber past band edge 1000 had every edge below it solved, one
    # Brent call each: about 1e8 for these, still running after 5-10 s
    flag = next(a for a in argv if a.startswith("--") and a != "--preset")
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    elapsed = time.perf_counter() - t0
    err = capsys.readouterr().err
    assert code == 2 and flag in err and "Traceback" not in err
    assert elapsed < 1.0


def test_gamma_at_band_edge_1000_passes(capsys):
    edge = float(band_edge_gammas(1000)[-1])
    code, _, err = run(capsys, "kernel", "--gamma-max", repr(edge),
                       "--points", "3")
    assert code == 0, err
    # the edge itself is a pole of the cantilever's response
    code, _, err = run(capsys, "kernel", "--shape", repr(edge * (1 - 1e-9)),
                       "--points", "3")
    assert code == 0, err


def test_repeated_warnings_are_recorded_once(capsys, tmp_path):
    # at quadrature order 1 the same unconverged alphas warn again for each
    # Brent iterate that prints alike and once more when the roots are
    # assembled for their null vectors; the manifest and stderr list each
    # message once, in the order first raised (27 of the 38 raised before
    # the roots were reassembled)
    from cantarray import galerkin
    config = json.loads(json.dumps(GOLDEN_CONFIGS["tabulated"]))
    config["galerkin"]["quadrature"] = {"order": 1}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config))
    code, _, err = run(capsys, "galerkin", "--config", str(p),
                       "--alpha-max", "3e6")
    assert code == 0
    listed = stdout_manifest(err)["warnings"]
    printed = [line.removeprefix("warning: ") for line in err.splitlines()
               if line.startswith("warning: ")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loaded = cli._load(cli.build_parser().parse_args(
            ["galerkin", "--config", str(p)]))
        galerkin.solve(loaded.geometry, loaded.profile, loaded.boundary, 3e6,
                       loaded.galerkin)
    raised = [str(w.message) for w in caught]
    assert len(raised) > len(set(raised))
    assert listed == printed == list(dict.fromkeys(raised))
    if (_float_fingerprint() == GOLDEN_FINGERPRINT
            and _linalg_fingerprint() == GOLDEN_LINALG_FINGERPRINT):
        assert len(listed) == 27


def test_nonlinear_coeffs_rejects_csv(capsys):
    code, _, err = run(capsys, "nonlinear", "coeffs", "--preset", PRESET,
                       "--format", "csv")
    assert code == 2
    assert "JSON only" in err


def test_nonlinear_coeffs_defaults_to_json(capsys):
    code, out, err = run(capsys, "nonlinear", "coeffs", "--preset", PRESET)
    assert code == 0
    assert set(json.loads(out)) == {"provenance", "selection",
                                    "beam_integrals", "cantilever_integrals",
                                    "effective_params"}
    assert stdout_manifest(err)["format"] == "json"


def test_nonlinear_coeffs_payload(capsys):
    code, out, _ = run(capsys, "nonlinear", "coeffs", "--preset", PRESET,
                       "--format", "json", "--f1", "1.0", "--f2", "1.0")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"provenance", "selection", "beam_integrals",
                         "cantilever_integrals", "effective_params"}
    eff = data["effective_params"]
    assert eff["mass1_kg"] == pytest.approx(1.74e-14, rel=0.01)
    assert eff["drive_per_force"] == pytest.approx(-4.44e-6, rel=0.01)
    assert len(data["cantilever_integrals"]["mass_overlap"]) == 2
    prov = data["provenance"]
    assert prov["preset"] == PRESET
    assert prov["calibrated"] is True
    assert prov["overlap_quadrature_rtol"] == 1e-9


def test_nonlinear_response_table(capsys, tmp_path):
    cfg = {
        "geometry": {"preset": PRESET},
        "nonlinear": {"c_y": 1e-6, "c_eta": 1e-6, "f1": 1e-9, "f2": 1e-9,
                      "sigma1": {"from": -1e3, "to": 1e3, "points": 3},
                      "sigma2": 0.0},
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "nonlinear", "response", "--config", str(p))
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sigma1,sigma2,a1,a2,theta1,theta2,branch,stable_flag"
    assert len(lines) >= 4  # one state per detuning at least
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[-1] == "unknown"
        assert len(cells[-2]) == 2 and set(cells[-2]) <= set("+-0")
        assert float(cells[2]) > 0 and float(cells[3]) > 0


def test_solver_failure_is_exit_3(capsys, monkeypatch):
    def boom(_grid):
        raise QuadratureError("synthetic quadrature breakdown")
    monkeypatch.setattr(cli, "shear_kernel", boom)
    code, _, err = run(capsys, "kernel", "--points", "5")
    assert code == 3
    assert "solver error" in err


def test_band_blow_up_is_exit_3(capsys, monkeypatch):
    # BlowUpError reaches the exit code through ArithmeticError
    def boom(*_args):
        raise spectrum.BlowUpError("synthetic resonant denominator")
    monkeypatch.setattr(spectrum, "solve_uniform", boom)
    code, _, err = run(capsys, "spectrum", "--preset", PRESET)
    assert code == 3
    assert "solver error" in err


def test_modes_shape_table(capsys):
    code, out, _ = run(capsys, "modes", "--n-max", "3", "--samples", "11")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "u,phi_1,phi_2,phi_3"
    assert len(lines) == 12
    first = [float(x) for x in lines[1].split(",")]
    last = [float(x) for x in lines[-1].split(",")]
    # clamped-clamped shapes vanish at both ends
    assert first[0] == 0.0 and last[0] == 1.0
    assert all(abs(v) < 1e-9 for v in first[1:] + last[1:])


def test_kernel_shape_table(capsys):
    code, out, _ = run(capsys, "kernel", "--shape", "1.2", "--points", "21")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "v,chi"
    assert len(lines) == 22
    first = [float(x) for x in lines[1].split(",")]
    assert first == [0.0, 0.0]  # rigid clamp rides the base
    tip = float(lines[-1].split(",")[1])
    assert tip != 0.0


@pytest.mark.parametrize("value", ["nan", "-inf", "-1", "-1e9"])
def test_kernel_shape_must_be_finite_and_nonnegative(capsys, value):
    # a NaN wavenumber wrote NaN rows, a negative one rows that the e^-gamma
    # scaling of the shape was not written for; both exited 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["kernel", f"--shape={value}", "--points", "3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert f"argument --shape: expected a non-negative float, got '{value}'" \
        in err


def test_kernel_shape_at_band_edge_is_exit_3(capsys):
    edge = band_edge_gammas(1)[0]
    code, _, err = run(capsys, "kernel", "--shape", "%.17g" % edge)
    assert code == 3
    assert "solver error" in err


def test_sweep_epsilon(capsys, tmp_path):
    cfg = {
        "geometry": {"preset": PRESET},
        "profile": {"kind": "alternating", "length1": 5e-6, "length2": 4e-6,
                    "width1": 2e-7, "width2": 2e-7, "count1": 20,
                    "count2": 20},
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "sweep", "--config", str(p),
                       "--param", "epsilon", "--from", "0.6", "--to", "1.0",
                       "--points", "3", "--n-max", "2", "--k-max", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "param,value,n,k,gamma,omega_rad_s"
    assert all(line.startswith("epsilon,") for line in lines[1:])
    values = {line.split(",")[1] for line in lines[1:]}
    assert len(values) == 3


def test_epsilon_sweep_builds_no_spectrum_levels(capsys, tmp_path,
                                                monkeypatch):
    # a 200-value sweep hands the table one gamma grid per value, as the
    # uniform sweeps do, from one batched solve, not one solve per value
    calls = []
    solve = spectrum.solve_alternating
    monkeypatch.setattr(spectrum, "solve_alternating",
                        lambda *args: calls.append(args) or solve(*args))
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({
        "geometry": {"preset": PRESET},
        "profile": {"kind": "alternating", "length1": 5e-7, "length2": 2.5e-7,
                    "count1": 10, "count2": 10},
        "spectrum": {"n_max": 3, "k_max": 4}}))
    code, out, _ = run(capsys, "sweep", "--config", str(p), "--param",
                       "epsilon", "--from", "0.4", "--to", "0.9999",
                       "--points", "200")
    assert code == 0
    assert len(out.splitlines()) == 1 + 200 * 3 * 4
    assert calls == []


def test_sweep_epsilon_needs_alternating_profile(capsys):
    code, _, err = run(capsys, "sweep", "--preset", PRESET,
                       "--param", "epsilon", "--from", "0.5", "--to", "1.0",
                       "--points", "2")
    assert code == 2
    assert "alternating" in err


@pytest.mark.parametrize("bounds", [("nan", "1"), ("0", "nan"), ("0", "inf"),
                                    ("-inf", "1"), ("inf", "inf"),
                                    ("-1e308", "1e308")])
@pytest.mark.parametrize("param", ["nu", "N", "lambda"])
def test_sweep_with_non_finite_bounds_is_exit_2(capsys, tmp_path, param,
                                                bounds):
    out = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", "--preset", PRESET, "--param", param,
                       f"--from={bounds[0]}", f"--to={bounds[1]}",
                       "--output", str(out))
    assert code == 2
    # the message names the swept parameter and its first non-finite bound,
    # or --to when finite bounds span more than a float (NaN values)
    if not math.isfinite(float(bounds[0])):
        message = f"--from: must be a finite number, got {float(bounds[0])!r}"
    elif not math.isfinite(float(bounds[1])):
        message = f"--to: must be a finite number, got {float(bounds[1])!r}"
    else:
        message = ("--to: must lie less than the largest float from the "
                   "start -1e+308, got 1e+308")
    assert err == f"error: sweep {param}: {message}\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("param, bounds, message", [
    ("N", ("-5", "10"), "sweep N = -5.0: nu must be a finite number >= 0"),
    ("nu", ("0", "-1"),
     "sweep nu = -0.5: nu must be a finite number >= 0"),
    ("lambda", ("-0.1", "0.2"),
     "sweep lambda = -0.1: lam must be a positive finite number")])
def test_sweep_out_of_range_bounds_name_the_swept_value(capsys, tmp_path,
                                                        param, bounds,
                                                        message):
    out = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", "--preset", PRESET, "--param", param,
                       f"--from={bounds[0]}", f"--to={bounds[1]}",
                       "--points", "3", "--output", str(out))
    assert code == 2
    assert f"error: {message}\n" == err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("bounds, message", [
    (("0.5", "2"), "length2 must not exceed length1"),
    (("1.5", "nan"), "--to: must be a finite number, got nan"),
    (("1.5", "2"), "length2 must not exceed length1"),
    (("0", "1"), "profile.length2: must be a positive finite number"),
    (("-0.5", "1"), "profile.length2: must be a positive finite number"),
    (("nan", "1"), "--from: must be a finite number, got nan"),
    (("0.5", "inf"), "--to: must be a finite number, got inf"),
    (("-inf", "1"), "--from: must be a finite number, got -inf")])
def test_epsilon_sweep_out_of_range_bounds_are_exit_2(capsys, tmp_path,
                                                      bounds, message):
    # the first swept value out of (0, 1] names the check that it fails; a
    # non-finite bound is named before any value is swept
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({
        "geometry": {"preset": PRESET},
        "profile": {"kind": "alternating", "length1": 5e-7, "length2": 4e-7,
                    "count1": 10, "count2": 10}}))
    out = tmp_path / "sweep.csv"
    code, _, err = run(capsys, "sweep", "--config", str(p), "--param",
                       "epsilon", f"--from={bounds[0]}", f"--to={bounds[1]}",
                       "--points", "5", "--output", str(out))
    assert code == 2
    if message.startswith("--"):
        assert err == f"error: sweep epsilon: {message}\n"
    else:
        assert message in err
        first = next(v for v in np.linspace(float(bounds[0]),
                                            float(bounds[1]), 5).tolist()
                     if not 0.0 < v * 5e-7 <= 5e-7)
        assert f"error: sweep epsilon = {first!r}: " in err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


CLOSED_FORM_RUNS = {
    "spectrum": ["spectrum"],
    "sweep-nu": ["sweep", "--param", "nu", "--from", "0", "--to", "40",
                 "--points", "3"],
    "sweep-epsilon": ["sweep", "--param", "epsilon", "--from", "0.5",
                      "--to", "1.0", "--points", "3"],
    "nonlinear-response": ["nonlinear", "response"],
}
GALERKIN_ONLY_PROFILES = {
    "tabulated": {"kind": "tabulated", "x": [0.0, 1.0687701562203836e-05],
                  "length": [5e-7, 5.2e-7], "density": [4e6, 4e6]},
    "discrete": {"kind": "discrete", "positions": [2e-6, 5e-6],
                 "lengths": [5e-7, 4.5e-7]},
}


@pytest.mark.parametrize("kind", sorted(GALERKIN_ONLY_PROFILES))
@pytest.mark.parametrize("name", sorted(CLOSED_FORM_RUNS))
def test_closed_form_subcommands_send_other_profiles_to_galerkin(
        capsys, tmp_path, name, kind):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"geometry": {"preset": PRESET},
                             "profile": GALERKIN_ONLY_PROFILES[kind]}))
    code, _, err = run(capsys, *CLOSED_FORM_RUNS[name], "--config", str(p))
    assert code == 2
    assert f"not {kind}" in err and "galerkin subcommand" in err


@pytest.mark.parametrize("output", [{"format": "json", "path": "out.json"},
                                    {"format": "parquet"}, {}])
def test_config_output_section_is_exit_2(capsys, tmp_path, output):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"geometry": {"preset": PRESET},
                             "output": output}))
    code, out, err = run(capsys, "spectrum", "--config", str(p))
    assert code == 2 and out == ""
    assert "--format" in err and "--output" in err


@pytest.mark.parametrize("argv", [
    ["spectrum"],
    ["sweep", "--param", "epsilon", "--from", "0.5", "--to", "1.0",
     "--points", "2"],
    ["galerkin"],
    ["galerkin", "--alpha-max", "1e6"]],
    ids=["spectrum", "sweep-epsilon", "galerkin", "galerkin-alpha-max"])
def test_alternating_profile_without_cantilevers_is_exit_2(capsys, tmp_path,
                                                          argv):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"geometry": {"preset": PRESET}, "profile": {
        "kind": "alternating", "length1": 5e-7, "length2": 4e-7,
        "width1": 2e-7, "width2": 2e-7, "count1": 0, "count2": 0}}))
    code, out, err = run(capsys, *argv, "--config", str(p))
    assert code == 2 and out == ""
    assert "no cantilevers" in err and "Traceback" not in err


@pytest.mark.parametrize("extra", [
    {"count_per_side": 2.5}, {"count_per_side": 2},
    {"count_per_side": float("nan"), "beam_length": 1e-5}])
def test_preset_geometry_with_other_keys_is_exit_2(capsys, tmp_path, extra):
    # the preset used to win silently over every other geometry key
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"geometry": {"preset": PRESET, **extra}}))
    code, out, err = run(capsys, "spectrum", "--config", str(p))
    assert code == 2 and out == ""
    assert "preset" in err and str(sorted(extra)) in err


MATERIAL_GEOMETRY = {"youngs_modulus": 150e9, "mass_density": 2330.0,
                     "thickness": 2e-7, "beam_length": 1e-5,
                     "beam_width": 4e-7, "cantilever_width": 2e-7,
                     "count_per_side": 20}
FULL_GEOMETRY = preset_device(PRESET)[0].to_dict()
MISSPELT_GEOMETRY = {k.replace("density", "densty"): v
                     for k, v in FULL_GEOMETRY.items()}


@pytest.mark.parametrize("geometry, stray", [
    ({**MATERIAL_GEOMETRY, "beam_rigidity": 1.0}, ["beam_rigidity"]),
    ({**MATERIAL_GEOMETRY, "beam_rigidity": 1.0, "equal_thickness": False},
     ["beam_rigidity", "equal_thickness"]),
    ({**FULL_GEOMETRY, "thickness": 2e-7}, ["thickness"]),
    (MISSPELT_GEOMETRY,
     ["beam_linear_densty", "cantilever_linear_densty"])],
    ids=["material-rigidity", "material-two", "full-thickness",
         "full-misspelt"])
def test_geometry_with_unknown_keys_is_exit_2(capsys, tmp_path, geometry,
                                              stray):
    # material and full geometries used to ignore such keys and exit 0
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"geometry": geometry,
                             "profile": {"kind": "uniform", "length": 5e-7}}))
    code, out, err = run(capsys, "spectrum", "--config", str(p))
    assert code == 2 and out == ""
    assert str(stray) in err and "Traceback" not in err


def test_geometry_without_stray_keys_loads(capsys, tmp_path):
    for geometry in (MATERIAL_GEOMETRY, FULL_GEOMETRY):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"geometry": geometry, "profile": {
            "kind": "uniform", "length": 5e-7}}))
        assert run(capsys, "spectrum", "--config", str(p))[0] == 0


@pytest.mark.parametrize("count", [float("nan"), float("inf"), float("-inf"),
                                   -1, "20"])
def test_count_per_side_must_be_finite_and_nonnegative(capsys, tmp_path,
                                                       count):
    geometry = {**preset_device(PRESET)[0].to_dict(), "count_per_side": count}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"geometry": geometry,
                             "profile": {"kind": "uniform", "length": 5e-7}}))
    code, out, err = run(capsys, "spectrum", "--config", str(p))
    assert code == 2 and out == ""
    assert "geometry.count_per_side" in err and "Traceback" not in err


FINITE_PROFILES = {
    "uniform": {"kind": "uniform", "length": 5e-7},
    "alternating": {"kind": "alternating", "length1": 5e-7, "length2": 4e-7,
                    "width1": 2e-7, "width2": 2e-7, "count1": 10,
                    "count2": 10},
    "tabulated": {"kind": "tabulated",
                  "x": [0.0, 5e-6, preset_device(PRESET)[0].beam_length],
                  "length": [5e-7, 5.2e-7, 5e-7], "density": [4e6, 4e6, 4e6]},
    "discrete": {"kind": "discrete", "positions": [2e-6, 5e-6, 8e-6],
                 "lengths": [5e-7, 4.5e-7, 5e-7]},
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind, key", [
    ("uniform", "length"), ("alternating", "length1"),
    ("alternating", "width2"), ("tabulated", "x"), ("tabulated", "length"),
    ("tabulated", "density"), ("discrete", "positions"),
    ("discrete", "lengths")])
def test_non_finite_profile_numbers_are_exit_2(capsys, tmp_path, kind, key,
                                               value):
    # JSON's NaN and Infinity are floats that pass a `<= 0` check
    profile = json.loads(json.dumps(FINITE_PROFILES[kind]))
    if isinstance(profile[key], list):
        profile[key][1] = value
    else:
        profile[key] = value
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"geometry": {"preset": PRESET},
                             "profile": profile}))
    code, out, err = run(capsys, "galerkin", "--alpha-max", "5e6",
                         "--config", str(p))
    assert code == 2 and out == ""
    if isinstance(profile[key], list):   # the failing sample is named
        expected = f"profile.{key}[1]: must be "
    else:
        expected = f"profile.{key}: must be "
    assert err.startswith(f"error: {expected}") and "finite number" in err
    assert err.endswith(f", got {value!r}\n") and "Traceback" not in err


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, -2.5e-310,
                     float("nan"), float("inf"), float("-inf")]))
# run cells: 0.0 and -0.0 side by side, NaNs of three bit patterns, +-inf
_RUN_POOL = st.sampled_from([
    0.0, -0.0, 1.5, float("nan"), -float("nan"), float("inf"), float("-inf"),
    struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000001))[0]])


@st.composite
def _runs(draw, count):
    """count float cells in runs of equal cells, each at most `longest`
    long: 1 gives a column of single cells, 12 runs longer than any block."""
    longest = draw(st.integers(1, 12))
    cells = []
    while len(cells) < count:
        cells += [draw(_RUN_POOL)] * draw(st.integers(1, longest))
    return cells[:count]


_CELLS = {"float": (_FLOATS, float), "runs": (_runs, float),
          "int": (st.integers(-2 ** 63, 2 ** 63 - 1), np.int64),
          "bool": (st.booleans(), bool),
          # NULs inside a string and non-ASCII text are written as they
          # are; a numpy str array drops trailing NULs, so no cell ends in one
          "str": (st.one_of(st.text(max_size=8),
                            st.sampled_from(["a\x00b", "\x00\x00c", "é",
                                             "ünï\x00cødé", "日本語"]))
                  .map(lambda text: text.rstrip("\x00")), str)}


@st.composite
def _tables(draw):
    """(columns, the same cells as Python rows) for 0 to 50 rows."""
    count = draw(st.integers(0, 50))
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1,
                          max_size=6))
    table, cells = {}, []
    for j, kind in enumerate(kinds):
        strategy, dtype = _CELLS[kind]
        values = draw(strategy(count) if kind == "runs" else
                      st.lists(strategy, min_size=count, max_size=count))
        table[f"{kind}_{j}"] = np.array(values, dtype=dtype)
        cells.append(values)
    return table, [list(row) for row in zip(*cells)]


def _check_renderer(drawn, fmt):
    table, rows = drawn
    buf = io.BytesIO()
    cli._write_table(buf, table, fmt)
    assert buf.getvalue() == render_rows(list(table), rows, fmt).encode()


@settings(max_examples=300, deadline=None)
@given(drawn=_tables(), fmt=st.sampled_from(["csv", "json"]),
       block=st.integers(1, 8))
def test_table_renderer_matches_cell_by_cell_oracle(drawn, fmt, block):
    with mock.patch.object(cli, "_BLOCK_ROWS", block):
        _check_renderer(drawn, fmt)


@settings(max_examples=300, deadline=None)
@given(drawn=_tables(), block=st.integers(1, 8))
def test_table_kernel_matches_cell_by_cell_oracle(drawn, block):
    # the tables above are too short for the kernel and its byte fields
    # unless its minimum is 1
    with mock.patch.object(cli, "_BLOCK_ROWS", block), \
            mock.patch.object(cli, "_KERNEL_MIN", 1):
        _check_renderer(drawn, "csv")


def test_csv_keeps_negative_zero_after_zero():
    # runs of equal cells are told apart by bits, not by ==
    buf = io.BytesIO()
    cli._write_table(buf, {"x": np.array([0.0, 0.0, -0.0, -0.0])}, "csv")
    assert buf.getvalue() == b"x\n0\n0\n-0\n-0\n"


def _kernel_cells(values, sep):
    """(cells, missed) of values with every one of them given to the kernel:
    each cell is the bytes start:stop of its row of the field."""
    with mock.patch.object(cli, "_KERNEL_MIN", 1):
        field, start, stop, missed = cli._format(values, sep)
    return ([row[a:b].tobytes() for row, a, b in zip(field, start, stop)],
            missed)


def _exponent_ties():
    """Every x of 17-digit exponent notation, 1e-30 <= x < 1e-4, that lies
    exactly halfway between two 17-digit values: x * 10**k, k = 16 - e,
    is then half an odd integer, so x = m / 2**(k + 1) with m * 5**k odd."""
    ties = []
    for k in range(21, 47):
        m = 1
        while m * 5 ** k < 2 * 10 ** 17:
            if m * 5 ** k >= 2 * 10 ** 16:
                ties.append(math.ldexp(m, -(k + 1)))
            m += 2
    return np.array(ties)


def test_kernel_matches_percent_formatting():
    rng = np.random.default_rng(29)
    powers = np.array([float(f"1e{k}") for k in range(-31, 18)])
    near = (powers.view(np.int64)[:, None]          # +-1..300 ulps of each
            + np.arange(-300, 301)).view(np.float64).ravel()
    nans = [struct.unpack("<d", struct.pack("<Q", bits))[0]
            for bits in (0x7FF8000000000000, 0xFFF8000000000001,
                         0x7FF0000000000ABC)]
    ties = _exponent_ties()
    x = np.concatenate([
        rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64),
        near, -near, ties, -ties,
        [9999999999999999.0, 0.0, -0.0, *nans, math.inf, -math.inf, 5e-324,
         -5e-324, sys.float_info.max]])
    cells, missed = _kernel_cells(x, b",")
    assert cells == [b"%.17g," % v for v in x.tolist()]
    # the kernel leaves exactly 0, nan, inf, subnormals and the uncovered
    # |x| < 1e-30 and |x| >= 1e16
    ax = np.abs(x)
    assert missed == np.count_nonzero(~((ax >= 1e-30) & (ax < 1e16)))
    # ties at e = -5..-8, where the power of ten is exact and where it is not
    assert np.unique(np.floor(np.log10(ties))).tolist() == [-8, -7, -6, -5]
    # the 17th digit of a tie rounds to even, as dtoa rounds it
    assert _kernel_cells(np.array([1e15 + 0.25, 1e15 + 0.75]), b"\n")[0] \
        == [b"1000000000000000.2\n", b"1000000000000000.8\n"]

    top = np.iinfo(np.int64)
    v = np.concatenate([[top.min, top.max, 0, 10 ** 8 - 1, 1 - 10 ** 8,
                         10 ** 8, -10 ** 8],
                        rng.integers(-10 ** 9, 10 ** 9, 20_000)])
    cells, missed = _kernel_cells(v, b"\n")
    assert cells == [b"%d\n" % i for i in v.tolist()]
    assert missed == np.count_nonzero((v == 0) | (np.abs(v) >= 10 ** 8)
                                      | (v == top.min))


def test_sweep_peak_holds_the_param_column_once(tmp_path):
    # the constant param column is a broadcast view of one string, not a
    # 28-byte "epsilon" per row: a 100,000-row sweep peaks at 10.4 MiB of
    # traced memory (13.1 with the column written out)
    config = tmp_path / "alternating.json"
    config.write_text(json.dumps(GOLDEN_CONFIGS["alternating"]))

    def sweep(points, name):
        return cli.main(["sweep", "--config", str(config), "--param",
                         "epsilon", "--from", "0.3", "--to", "0.999999",
                         "--points", str(points),
                         "--output", str(tmp_path / name)])
    assert sweep(3, "warm.csv") == 0            # first-call allocations
    tracemalloc.start()
    try:
        code = sweep(6250, "sweep.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    with open(tmp_path / "sweep.csv", "rb") as fh:
        assert sum(1 for _ in fh) == 1 + 100_000
    assert peak <= 10.5 * 2 ** 20


def test_csv_cells_peak_of_a_float_block_column():
    # a 4096-cell fixed-notation float column, as the sweeps' gamma and
    # omega columns give it: the kernel peaks at 671 KiB of temporaries
    column = np.random.default_rng(31).uniform(0.5, 120.0, 4096)
    cli._csv_cells(column[:cli._KERNEL_MIN], b",")  # first-call allocations
    tracemalloc.start()
    try:
        *_, missed = cli._csv_cells(column, b",")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert missed == 0
    assert peak <= 680 * 2 ** 10


def test_kernel_certifies_every_cell_of_the_golden_sweep(capsys, tmp_path):
    # a platform whose log10 or product were off would hand more cells to
    # per-cell formatting, unseen in the bytes: count them
    tables = []
    write_table = cli._write_table

    def keep(fh, table, fmt):
        tables.append(table)
        return write_table(fh, table, fmt)
    out = tmp_path / "sweep.csv"
    with mock.patch.object(cli, "_write_table", keep):
        code, _, _ = run(capsys, *GOLDEN_RUNS["sweep-nu"][0], *SWEEP_FLAGS,
                         "--preset", PRESET, "--output", str(out))
    assert code == 0
    (table,) = tables
    assert len(table["value"]) <= cli._BLOCK_ROWS       # a single block
    buf = io.BytesIO()
    with mock.patch.object(cli, "_KERNEL_MIN", 1):
        missed = cli._write_table(buf, table, "csv")
    assert buf.getvalue() == out.read_bytes()
    # formatted cells (one per run of equal cells) the kernel may leave
    expected = 0
    for column in table.values():
        if column.dtype.kind in "fi":
            key = column.view(np.int64)
            cells = np.abs(column[np.append(True, key[1:] != key[:-1])])
            low, high = (1e-30, 1e16) if column.dtype.kind == "f" else (1, 1e8)
            expected += np.count_nonzero(~((cells >= low) & (cells < high)))
    assert missed == expected


BISTABLE = {"geometry": {"preset": PRESET},
            "nonlinear": {"c_y": 1e-6, "c_eta": 1e-6, "f1": 3.7e-6,
                          "f2": 3.5e-5,
                          "sigma1": {"from": -1600, "to": -1150, "points": 9},
                          "sigma2": {"from": -4000, "to": -300, "points": 2}}}


def test_kernel_certifies_every_exponent_cell_of_a_response(capsys,
                                                            tmp_path):
    # the amplitudes (1e-11..1e-8 m) print in exponent notation, which the
    # kernel once left to per-cell formatting: 108 cells of this table
    tables = []
    write_table = cli._write_table

    def keep(fh, table, fmt):
        tables.append(table)
        return write_table(fh, table, fmt)
    config, out = tmp_path / "bistable.json", tmp_path / "response.csv"
    config.write_text(json.dumps(BISTABLE))
    with mock.patch.object(cli, "_write_table", keep):
        code, _, _ = run(capsys, "nonlinear", "response", "--config",
                         str(config), "--output", str(out))
    assert code == 0
    (table,) = tables
    assert np.all(np.abs(table["a1"]) < 1e-4) and len(table["a1"]) == 54
    rows = [list(row) for row in zip(*(c.tolist() for c in table.values()))]
    assert out.read_bytes() == render_rows(list(table), rows, "csv").encode()
    buf = io.BytesIO()
    with mock.patch.object(cli, "_KERNEL_MIN", 1):
        assert cli._write_table(buf, table, "csv") == 0
    assert buf.getvalue() == out.read_bytes()


def test_kernel_shape_stdout_matches_percent_formatting(capsys):
    # chi at gamma = 1e-3 is 1e-14..1e-13: exponent cells, through the
    # kernel and out through the binary stdout
    with mock.patch.object(cli, "_KERNEL_MIN", 1):
        code, out, _ = run(capsys, "kernel", "--shape", "1e-3", "--points",
                           "5")
    assert code == 0
    v = np.linspace(0.0, 1.0, 5)
    chi = CantileverShape(1e-3)(v)
    assert np.all(np.abs(chi[1:]) < 1e-4)
    assert out == "v,chi\n" + "".join("%.17g,%.17g\n" % (a, b)
                                      for a, b in zip(v, chi))


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_outputs_are_created_under_the_umask(capsys, tmp_path, umask, mode):
    # the temp file renamed into place was 0600 under any umask
    old = os.umask(umask)
    try:
        code, _, _ = run(capsys, "spectrum", "--preset", PRESET,
                         "--output", str(tmp_path / "levels.csv"))
    finally:
        os.umask(old)
    assert code == 0
    names = ["levels.csv", "levels.csv.manifest.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).stat().st_mode & 0o777 == mode


def test_failed_write_leaves_no_file(tmp_path):
    def fail(fh):
        fh.write(b"partial")
        raise RuntimeError("solver died")
    with pytest.raises(RuntimeError):
        cli._write_atomic(str(tmp_path / "levels.csv"), fail)
    assert list(tmp_path.iterdir()) == []


def test_kernel_drops_samples_on_band_edges(capsys):
    edge = band_edge_gammas(1)[0]
    # 3 points over [0, 2*edge] put the middle sample exactly on the pole;
    # over [0, edge] and [0, edge - 6e-14] the last one sits on it
    for gamma_max in ("%.17g" % (2 * edge), "%.17g" % edge, "1.8751040687119"):
        code, out, err = run(capsys, "kernel", "--gamma-max", gamma_max,
                             "--points", "3")
        assert code == 0, gamma_max
        lines = out.strip().splitlines()
        assert len(lines) == 3  # header + two surviving samples
        m = stdout_manifest(err)
        assert m["rows"] == 2
        assert any("pole window" in w for w in m["warnings"])
        assert "warning:" in err


NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None          # any scipy import now raises
from cantarray import cli, spectrum

for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    if code != 0:
        sys.exit(f"exit {code}: {argv}")
loaded = [m for m, mod in sys.modules.items()
          if m.split(".")[0] == "scipy" and mod is not None]
sys.exit(f"scipy loaded: {loaded}" if loaded else 0)
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    geometry = {"preset": PRESET}
    alternating = {"kind": "alternating", "length1": 5e-7, "length2": 4e-7,
                   "width1": 2e-7, "width2": 2e-7, "count1": 10,
                   "count2": 10}
    x = np.linspace(0.0, preset_device(PRESET)[0].beam_length, 6)
    configs = {
        "alternating": {"geometry": geometry, "profile": alternating},
        "discrete": {"geometry": geometry, "profile": {
            "kind": "discrete", "positions": [2e-6, 5e-6, 8e-6],
            "lengths": [5e-7, 4.5e-7, 5.5e-7]}},
        "tabulated": {"geometry": geometry,
                      "profile": {"kind": "tabulated", "x": x.tolist(),
                                  "length": [5e-7, 5.4e-7, 4.7e-7, 5.2e-7,
                                             4.6e-7, 5e-7],
                                  "density": [4e6, 3.5e6, 4.2e6, 3.8e6,
                                              4.1e6, 4e6]},
                      "galerkin": {"basis_size": 4,
                                   "quadrature": {"order": 8}}},
        "response": {"geometry": geometry, "nonlinear": {
            "c_y": 1e-6, "c_eta": 1e-6, "f1": 1e-9, "f2": 1e-9,
            "sigma1": {"from": -1e3, "to": 1e3, "points": 3},
            "sigma2": 0.0}},
    }
    paths = {}
    for name, cfg in configs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(cfg))
    edge = band_edge_gammas(1)[0]
    out = str(tmp_path / "out.csv")
    runs = [
        ["spectrum", "--preset", PRESET],
        ["spectrum", "--config", str(paths["alternating"])],
        ["sweep", "--preset", PRESET, "--param", "nu", "--from", "0",
         "--to", "40", "--points", "3"],
        ["sweep", "--config", str(paths["alternating"]), "--param",
         "epsilon", "--from", "0.6", "--to", "1.0", "--points", "3"],
        ["galerkin", "--config", str(paths["discrete"]), "--basis-size", "4",
         "--alpha-max", "1e6"],
        # past band edge 1 of every cantilever of the profile
        ["galerkin", "--config", str(paths["tabulated"]), "--alpha-max",
         repr(float(1.2 * edge / 4.6e-7))],
        ["nonlinear", "response", "--config", str(paths["response"])],
    ]
    for argv in runs:
        argv += ["--output", out]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", NO_SCIPY, json.dumps(runs)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


SOLVERS_LOADED = """
import json, sys
import cantarray.cli


def loaded():
    return sorted(m for m in ("galerkin", "nonlinear", "spectrum")
                  if "cantarray." + m in sys.modules)


steps = [loaded()]
for runs in json.loads(sys.argv[1]):
    for argv in runs:
        code = cantarray.cli.main(argv)
        if code != 0:
            sys.exit(f"exit {code}: {argv}")
    steps.append(loaded())
print(json.dumps(steps))
"""


def test_each_subcommand_loads_only_its_solver(tmp_path):
    # one fresh process: the solver modules in sys.modules after importing
    # the CLI and after each group of subcommands, cumulatively
    comb = tmp_path / "comb.json"
    comb.write_text(json.dumps({"geometry": {"preset": PRESET}, "profile": {
        "kind": "discrete", "positions": [2e-6, 5e-6, 8e-6],
        "lengths": [5e-7, 4.5e-7, 5.5e-7]}}))
    response = tmp_path / "response.json"
    response.write_text(json.dumps({"geometry": {"preset": PRESET},
                                    "nonlinear": {
        "c_y": 1e-6, "c_eta": 1e-6, "f1": 1e-9, "f2": 1e-9,
        "sigma1": {"from": -1e3, "to": 1e3, "points": 3}, "sigma2": 0.0}}))
    groups = [
        [["modes", "--preset", PRESET], ["kernel", "--points", "5"]],
        [["galerkin", "--config", str(comb), "--basis-size", "4",
          "--alpha-max", "1e6"]],
        [["spectrum", "--preset", PRESET],
         ["sweep", "--preset", PRESET, "--param", "nu", "--from", "0",
          "--to", "40", "--points", "3"]],
        [["nonlinear", "response", "--config", str(response)]],
    ]
    out = str(tmp_path / "out.csv")
    for runs in groups:
        for argv in runs:
            argv += ["--output", out]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", SOLVERS_LOADED,
         json.dumps(groups)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == [
        [], [], ["galerkin"], ["galerkin", "spectrum"],
        ["galerkin", "nonlinear", "spectrum"]]


@pytest.mark.parametrize("geometry, profile", [
    ({**MATERIAL_GEOMETRY, "count_per_side": 2},
     {"kind": "uniform", "length": 5e-7}),
    ({"preset": PRESET},
     {"kind": "alternating", "length1": 5e-7, "length2": 4e-7, "count1": 1,
      "count2": 1})], ids=["uniform", "alternating"])
def test_spectrum_marks_levels_past_the_pair_count_invalid(
        capsys, tmp_path, geometry, profile):
    # two pairs per side (count_per_side, or count1 + count2): the averaged
    # model holds for n = 1 only, and one warning counts the other rows
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"geometry": geometry, "profile": profile,
                             "spectrum": {"n_max": 4, "k_max": 3}}))
    code, out, err = run(capsys, "spectrum", "--config", str(p),
                         "--format", "json")
    assert code == 0
    data = json.loads(out)
    n, valid = (data["columns"].index(name) for name in ("n", "valid"))
    assert [(row[n], row[valid]) for row in data["rows"]] == \
        [(i, i < 2) for i in range(1, 5) for _ in range(3)]
    warned = [w for w in stdout_manifest(err)["warnings"] if "n >= N" in w]
    assert warned == ["9 level(s) have beam index n >= N and fall outside "
                      "the averaged model's validity"]


@pytest.mark.parametrize("geometry, profile, args, invalid", [
    # N = 0.5, 1.75, 3: n >= N for 4, 3 and 2 of the beam indices 1..4
    ({"preset": PRESET}, None, ["--param", "N", "--from", "0.5", "--to", "3",
                               "--points", "3"], (4 + 3 + 2) * 3),
    ({**MATERIAL_GEOMETRY, "count_per_side": 2},
     {"kind": "uniform", "length": 5e-7},
     ["--param", "nu", "--from", "1", "--to", "2", "--points", "2"],
     3 * 3 * 2),
    ({"preset": PRESET},
     {"kind": "alternating", "length1": 5e-7, "length2": 4e-7, "count1": 1,
      "count2": 2},
     ["--param", "epsilon", "--from", "0.5", "--to", "0.9", "--points", "2"],
     2 * 3 * 2)], ids=["N", "nu", "epsilon"])
def test_sweep_warns_of_levels_past_the_pair_count(capsys, tmp_path, geometry,
                                                   profile, args, invalid):
    # as spectrum does, with N the swept value in an N sweep and the pairs
    # per side otherwise; the warning goes to the manifest, the rows keep
    # every level
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"geometry": geometry, "spectrum": {"n_max": 4,
                                                                "k_max": 3},
                             **({"profile": profile} if profile else {})}))
    code, out, err = run(capsys, "sweep", "--config", str(p), *args,
                         "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == int(args[-1]) * 4 * 3
    warned = [w for w in stdout_manifest(err)["warnings"] if "n >= N" in w]
    assert warned == [f"{invalid} level(s) have beam index n >= N and fall "
                      "outside the averaged model's validity"]


RESPONSE = {"c_y": 1e-6, "c_eta": 1e-6, "f1": 1e-9, "f2": 1e-9,
            "sigma1": {"from": -1e3, "to": 1e3, "points": 3}, "sigma2": 0.0}


SETTINGS_CASES = [
    (["spectrum"], {"spectrum": {"n_max": 2.5}},
     "spectrum.n_max: must be an integer from 1 to 1000, got 2.5"),
    (["spectrum"], {"spectrum": {"n_max": "3"}},
     "spectrum.n_max: must be an integer from 1 to 1000, got '3'"),
    (["spectrum"], {"spectrum": {"k_max": True}},
     "spectrum.k_max: must be an integer from 1 to 1000, got True"),
    (["spectrum"], {"spectrum": {"n_max": 1e9}},
     "spectrum.n_max: must be an integer from 1 to 1000, got 1000000000.0"),
    (["galerkin"], {"galerkin": {"basis_size": 2.5}},
     "galerkin.basis_size: must be an integer from 1 to 64, got 2.5"),
    (["galerkin"], {"galerkin": {"quadrature": {"order": 0}}},
     "galerkin.quadrature.order: must be an integer from 1 to 100, got 0"),
    (["galerkin"], {"galerkin": {"quadrature": {"rtol": float("nan")}}},
     "galerkin.quadrature.rtol: must be a positive finite number, got nan"),
    (["nonlinear", "response"],
     {"nonlinear": {**RESPONSE, "sigma1": {"from": -1e3, "to": 1e3,
                                           "points": 2.5}}},
     "nonlinear.sigma1.points: must be an integer from 1 to 10000, got 2.5"),
    (["nonlinear", "response"],
     {"nonlinear": {**RESPONSE, "sigma2": {"from": float("-inf"), "to": 0.0,
                                           "points": 2}}},
     "nonlinear.sigma2.from: must be a finite number, got -inf"),
    # finite bounds whose span overflows a float give NaN detunings
    (["nonlinear", "response"],
     {"nonlinear": {**RESPONSE, "sigma1": {"from": -1e308, "to": 1e308,
                                           "points": 3}}},
     "nonlinear.sigma1.to: must lie less than the largest float from the "
     "start -1e+308, got 1e+308"),
    (["nonlinear", "response"], {"nonlinear": {**RESPONSE,
                                               "c_y": float("nan")}},
     "nonlinear.c_y: must be a finite number >= 0, got nan"),
    (["nonlinear", "response"], {"nonlinear": {**RESPONSE,
                                               "f2": float("inf")}},
     "nonlinear.f2: must be a finite number, got inf"),
    (["nonlinear", "coeffs"], {"nonlinear": {**RESPONSE,
                                             "c_y": float("nan")}},
     "nonlinear.c_y: must be a finite number >= 0, got nan"),
    (["nonlinear", "response", "--f1", "nan"], {"nonlinear": RESPONSE},
     "nonlinear.f1: must be a finite number, got nan"),
    # override flags past a count's ceiling, checked as the key they set
    (["spectrum", "--n-max", "1001"], {},
     "spectrum.n_max: must be an integer from 1 to 1000, got 1001"),
    (["modes", "--n-max", "1001"], {},
     "spectrum.n_max: must be an integer from 1 to 1000, got 1001"),
    (["galerkin", "--basis-size", "65"], {},
     "galerkin.basis_size: must be an integer from 1 to 64, got 65"),
    (["sweep", "--param", "nu", "--from", "0", "--to", "1", "--points",
      "10001"], {},
     "sweep nu: --points: must be an integer from 1 to 10000, got 10001"),
]


@pytest.mark.parametrize(
    "argv, section, message", SETTINGS_CASES,
    ids=[" ".join(argv) + " " + message.split(":")[0] + "="
         + message.rsplit("got ", 1)[1] for argv, _, message in SETTINGS_CASES])
def test_settings_numbers_are_checked(capsys, tmp_path, argv, section,
                                      message):
    # each of these raised a TypeError traceback (exit 1), failed in the
    # solver (exit 3) or exited 0 with NaN in the output before
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"geometry": {"preset": PRESET}, **section}))
    code, out, err = run(capsys, *argv, "--config", str(p))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


_MATERIAL_UNIFORM = {"geometry": MATERIAL_GEOMETRY,
                     "profile": {"kind": "uniform", "length": 5e-7}}
_P = {"preset": PRESET}
MALFORMED_CASES = {
    # a key no section declares
    "config.spectrm": ({"geometry": _P, "spectrm": {}},
                       "unknown top-level key; it takes only ['boundary', "
                       "'galerkin', 'geometry', 'nonlinear', 'profile', "
                       "'spectrum'], not ['spectrm']"),
    "geometry.equal_thickness": (
        {**_MATERIAL_UNIFORM, "geometry": {**MATERIAL_GEOMETRY,
                                           "equal_thickness": True}},
        "unknown material geometry key; it takes only ['beam_length', "
        "'beam_width', 'cantilever_width', 'count_per_side', "
        "'mass_density', 'thickness', 'youngs_modulus'], "
        "not ['equal_thickness']"),
    "boundary.type": ({"geometry": _P, "boundary": {"kind": "clamped-free",
                                                    "type": "fixed"}},
                      "unknown boundary key; it takes only ['kind'], "
                      "not ['type']"),
    "profile.lengths": ({"geometry": _P, "profile": {
        "kind": "uniform", "length": 5e-7, "lengths": [5e-7]}},
        "unknown uniform profile key; it takes only ['kind', 'length'], "
        "not ['lengths']"),
    "profile.epsilon": ({"geometry": _P, "profile": {
        "kind": "alternating", "length1": 5e-7, "length2": 4e-7,
        "epsilon": 0.8}},
        "unknown alternating profile key; it takes only ['count1', "
        "'count2', 'kind', 'length1', 'length2', 'width1', 'width2'], "
        "not ['epsilon']"),
    "profile.rho": ({"geometry": _P, "profile": {
        **FINITE_PROFILES["tabulated"], "rho": [1.0, 1.0, 1.0]}},
        "unknown tabulated profile key; it takes only ['density', 'kind', "
        "'length', 'x'], not ['rho']"),
    "profile.length": ({"geometry": _P, "profile": {
        **FINITE_PROFILES["discrete"], "length": 5e-7}},
        "unknown discrete profile key; it takes only ['kind', 'lengths', "
        "'positions'], not ['length']"),
    "spectrum.kmax": ({"geometry": _P, "spectrum": {"kmax": 3}},
                      "unknown spectrum key; it takes only ['k_max', "
                      "'n_max'], not ['kmax']"),
    "galerkin.basis": ({"geometry": _P, "galerkin": {"basis": 4}},
                       "unknown galerkin key; it takes only ['basis_size', "
                       "'quadrature'], not ['basis']"),
    "galerkin.quadrature.tol": (
        {"geometry": _P, "galerkin": {"quadrature": {"tol": 1e-9}}},
        "unknown galerkin.quadrature key; it takes only ['order', "
        "'rtol'], not ['tol']"),
    "nonlinear.force1": ({"geometry": _P, "nonlinear": {"force1": 1e-9}},
                         "unknown nonlinear key; it takes only ['c_eta', "
                         "'c_y', 'f1', 'f2', 'sigma1', 'sigma2'], "
                         "not ['force1']"),
    "nonlinear.sigma1.step": (
        {"geometry": _P, "nonlinear": {"sigma1": {
            "from": -1.0, "to": 1.0, "points": 3, "step": 1.0}}},
        "unknown nonlinear.sigma1 key; it takes only ['from', 'points', "
        "'to'], not ['step']"),
    # a section that is not an object
    "config": ([_P], "must be an object, got [{'preset': 'jap1-calibrated'}]"),
    "geometry": ({"geometry": PRESET},
                 "must be an object, got 'jap1-calibrated'"),
    "boundary": ({"geometry": _P, "boundary": "clamped-free"},
                 "must be an object, got 'clamped-free'"),
    "profile": ({"geometry": _P, "profile": ["uniform", 5e-7]},
                "must be an object, got ['uniform', 5e-07]"),
    "spectrum": ({"geometry": _P, "spectrum": []},
                 "must be an object, got []"),
    "galerkin": ({"geometry": _P, "galerkin": 8}, "must be an object, got 8"),
    "galerkin.quadrature": ({"geometry": _P, "galerkin": {"quadrature": 5}},
                            "must be an object, got 5"),
    "nonlinear": ({"geometry": _P, "nonlinear": None},
                  "must be an object, got None"),
    # a profile array that is not a list
    "profile.x": ({"geometry": _P, "profile": {
        **FINITE_PROFILES["tabulated"], "x": 5e-6}},
        "must be a list of numbers, got 5e-06"),
    "profile.positions": ({"geometry": _P, "profile": {
        **FINITE_PROFILES["discrete"], "positions": 5}},
        "must be a list of numbers, got 5"),
    # JSON's true given as a number
    "nonlinear.sigma1": ({"geometry": _P, "nonlinear": {"sigma1": True}},
                         "must be a finite number, got True"),
    "geometry.youngs_modulus": (
        {**_MATERIAL_UNIFORM, "geometry": {**MATERIAL_GEOMETRY,
                                           "youngs_modulus": True}},
        "must be a positive finite number, got True"),
    "profile.count1": ({"geometry": _P, "profile": {
        **FINITE_PROFILES["alternating"], "count1": True}},
        "must be a finite number >= 0, got True"),
    "profile.lengths[1]": ({"geometry": _P, "profile": {
        **FINITE_PROFILES["discrete"], "lengths": [5e-7, True, 5e-7]}},
        "must be a positive finite number, got True"),
    # numbers a float cannot hold: a 401-digit integer, a cube that overflows
    "nonlinear.sigma1.from": ({"geometry": _P, "nonlinear": {"sigma1": {
        "from": 10 ** 400, "to": 1.0, "points": 3}}},
        f"must be a finite number, got {10 ** 400}"),
    "geometry.beam_length": ({**_MATERIAL_UNIFORM, "geometry": {
        **FULL_GEOMETRY, "beam_length": 10 ** 400}},
        f"must be a positive finite number, got {10 ** 400}"),
    "geometry.thickness": ({**_MATERIAL_UNIFORM, "geometry": {
        **MATERIAL_GEOMETRY, "thickness": 1e200}},
        "its cube must be a finite float, got 1e+200"),
    # a film whose section constants underflow names the film key it wrote
    "geometry.thickness, via beam_rigidity": ({**_MATERIAL_UNIFORM,
        "geometry": {**MATERIAL_GEOMETRY, "thickness": 1e-200}},
        "must be a positive finite number, got 0.0"),
    # counts past their ceilings: a 401-digit n_max ran for minutes while
    # the root table grew
    "spectrum.n_max": ({"geometry": _P, "spectrum": {"n_max": 10 ** 400}},
                       f"must be an integer from 1 to 1000, got {10 ** 400}"),
    "spectrum.k_max": ({"geometry": _P, "spectrum": {"k_max": 1001}},
                       "must be an integer from 1 to 1000, got 1001"),
    "galerkin.basis_size": ({"geometry": _P, "galerkin": {"basis_size": 65}},
                            "must be an integer from 1 to 64, got 65"),
    "galerkin.quadrature.order": (
        {"geometry": _P, "galerkin": {"quadrature": {"order": 101}}},
        "must be an integer from 1 to 100, got 101"),
    "nonlinear.sigma2.points": ({"geometry": _P, "nonlinear": {"sigma2": {
        "from": -1.0, "to": 1.0, "points": 10_001}}},
        "must be an integer from 1 to 10000, got 10001"),
    # a profile list past its ceiling (2048 knots took 15 s at basis 64)
    "profile.density": ({"geometry": _P, "profile": {
        **FINITE_PROFILES["tabulated"], "density": [4e6] * 4097}},
        "must be a list of at most 4096 numbers, got 4097"),
}


@pytest.mark.parametrize("nonlinear", [
    {}, {"c_y": 1e-6, "c_eta": 1e-6, "f1": 1.0, "f2": 1.0}],
    ids=["undriven", "driven"])
@pytest.mark.parametrize("what", ["coeffs", "response"])
def test_coefficients_past_the_float_range_are_a_solver_error(
        capsys, tmp_path, what, nonlinear):
    # coeffs wrote NaN (not JSON), response wrote 0 rows or failed in a
    # linear solve, each with numpy overflow warnings in the manifest
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**_MATERIAL_UNIFORM, "nonlinear": nonlinear,
                             "geometry": {**MATERIAL_GEOMETRY,
                                          "youngs_modulus": 1e300,
                                          "thickness": 100}}))
    code, out, err = run(capsys, "nonlinear", what, "--config", str(p),
                         "--format", "json")
    assert code == 3 and out == ""
    assert err == ("solver error: two-mode coefficient self_coupling1 is "
                   "nan: past the float range\n")


@pytest.mark.parametrize("key", sorted(MALFORMED_CASES))
def test_malformed_config_is_exit_2_naming_its_key(capsys, tmp_path, key):
    # unknown keys used to be dropped, non-objects raised a traceback, true
    # loaded as 1.0 and a number a float cannot hold failed with exit 3
    config, message = MALFORMED_CASES[key]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(config))
    code, out, err = run(capsys, "spectrum", "--config", str(p))
    assert code == 2 and out == ""
    assert err == f"error: {key}: {message}\n"


@pytest.mark.parametrize("argv, digest", [
    (["kernel", "--gamma-max", "800", "--points", "50"],
     "aaf6b4e45fc31a2882b3a0c255833decdd4abfbd9ad9fe34fe588dc5774de29f"),
    (["modes", "--n-max", "240"],
     "3e0e0eccba72a5e5bf6fe9950b7e54e753cf562baae87e910e056f688710996e")],
    ids=["kernel", "modes"])
def test_cosh_past_its_range_warns_nothing(capsys, tmp_path, argv, digest):
    # sech(x) = 1/cosh(x) is 0 once cosh overflows (x > 710): every such
    # sample used to put an overflow warning in the manifest
    out = tmp_path / "table.csv"
    code, _, err = run(capsys, *argv, "--output", str(out))
    assert code == 0 and "overflow" not in err
    manifest = json.loads((tmp_path / "table.csv.manifest.json").read_text())
    assert manifest["warnings"] == []
    if _float_fingerprint() == GOLDEN_FINGERPRINT:
        # recorded before the overflow was silenced: the same bytes
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
