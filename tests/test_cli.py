import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import render_rows

from cantarray import cli
from cantarray.kernel import band_edge_gammas
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
    # re-recorded when the config's "output" section was removed
    assert m["config_sha256"] == ("f54346e837b5f04e0e55656bd8d796adea"
                                  "381d61e08ab40f03db1a81aa802b76")


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
# (JSON): both refactors must keep every byte.  The digits depend
# on how numpy rounds exp, cos, sin and power, which varies with the numpy
# build and the CPU's SIMD level, so the hashes are checked only where the
# fingerprint of those functions matches the one taken with them (numpy 2.4,
# x86-64 with AVX-512).
GOLDEN_FINGERPRINT = \
    "563c7e9208ef27c5a9dd44ded440994fc3bdb4db422b8772753e978f66ac6c8d"
GOLDEN_RUNS = {
    "spectrum": (["spectrum", "--n-max", "6", "--k-max", "6"],
                 "9f3cda2962f67b7f97de93a9b992f5ecf000ba3618f8da229a42ddff025d6527"),
    "sweep-nu": (["sweep", "--param", "nu", "--from", "0", "--to", "90"],
                 "7aea5e74a7eab38e7e371a04e957d31a96770739dd3ab2e36f2508a851c70826"),
    "sweep-lambda": (["sweep", "--param", "lambda", "--from", "0.02",
                      "--to", "0.1"],
                     "c51c46381af11ce22fd47bf0b8582d06f9b6c8437cead37aa07ebcb8cad1eff0"),
    "sweep-N": (["sweep", "--param", "N", "--from", "0", "--to", "60"],
                "802aea4e6f49826103162aa2ad890d5cc2cd59628efe31aa88efb348ca4dd40f"),
    "spectrum-json": (["spectrum", "--n-max", "6", "--k-max", "6",
                       "--format", "json"],
                      "5cfb8e27ce7332a49f6d799366e484bd508b361ccb28cdf725037c4329a0c7f5"),
    "sweep-nu-json": (["sweep", "--param", "nu", "--from", "0", "--to", "90",
                       "--format", "json"],
                      "290e19b00ef7ebacd8703b34ea7629ec2a7a87281c81d1b60f8dbe1b3423daa2"),
}
SWEEP_FLAGS = ["--points", "41", "--n-max", "4", "--k-max", "5"]


def _float_fingerprint() -> str:
    x = np.linspace(0.01, 60.0, 4099)
    parts = [np.exp(-x), np.cos(x), np.sin(x), x ** 3, x ** 4]
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_band_outputs_match_golden_hashes(capsys, tmp_path, name):
    if _float_fingerprint() != GOLDEN_FINGERPRINT:
        pytest.skip("numpy rounds exp/cos/sin/power differently here than "
                    "where the golden hashes were recorded")
    argv, digest = GOLDEN_RUNS[name]
    if argv[0] == "sweep":
        argv = argv + SWEEP_FLAGS
    out = tmp_path / f"{name}.out"
    code, _, _ = run(capsys, *argv, "--preset", PRESET, "--output", str(out))
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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


def test_nonlinear_coeffs_rejects_csv(capsys):
    code, _, err = run(capsys, "nonlinear", "coeffs", "--preset", PRESET)
    assert code == 2
    assert "JSON only" in err


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


def test_sweep_epsilon_needs_alternating_profile(capsys):
    code, _, err = run(capsys, "sweep", "--preset", PRESET,
                       "--param", "epsilon", "--from", "0.5", "--to", "1.0",
                       "--points", "2")
    assert code == 2
    assert "alternating" in err


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


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 1e300, -1e300, 5e-324, -2.5e-310,
                     float("nan"), float("inf"), float("-inf")]))
_CELLS = {"float": (_FLOATS, float),
          "int": (st.integers(-2 ** 63, 2 ** 63 - 1), np.int64),
          "bool": (st.booleans(), bool),
          # a numpy str array drops trailing NULs, so no column holds one
          "str": (st.text(st.characters(exclude_characters="\x00"),
                          max_size=8), str)}


@st.composite
def _tables(draw):
    """(columns, the same cells as Python rows) for 0 to 50 rows."""
    count = draw(st.integers(0, 50))
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1,
                          max_size=6))
    table, cells = {}, []
    for j, kind in enumerate(kinds):
        strategy, dtype = _CELLS[kind]
        values = draw(st.lists(strategy, min_size=count, max_size=count))
        table[f"{kind}_{j}"] = np.array(values, dtype=dtype)
        cells.append(values)
    return table, [list(row) for row in zip(*cells)]


@settings(max_examples=300, deadline=None)
@given(drawn=_tables(), fmt=st.sampled_from(["csv", "json"]),
       block=st.integers(1, 8))
def test_table_renderer_matches_cell_by_cell_oracle(drawn, fmt, block):
    table, rows = drawn
    buf = io.StringIO()
    with mock.patch.object(cli, "_BLOCK_ROWS", block):
        cli._write_table(buf, table, fmt)
    assert buf.getvalue() == render_rows(list(table), rows, fmt)


def test_kernel_drops_samples_on_band_edges(capsys):
    edge = band_edge_gammas(1)[0]
    # 3 points over [0, 2*edge] puts the middle sample exactly on the pole
    code, out, err = run(capsys, "kernel",
                         "--gamma-max", "%.17g" % (2 * edge),
                         "--points", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # header + two surviving samples
    m = stdout_manifest(err)
    assert m["rows"] == 2
    assert any("pole window" in w for w in m["warnings"])
    assert "warning:" in err


NO_SCIPY = """
import json, sys
sys.modules["scipy"] = None          # any scipy import now raises
from cantarray import cli

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
