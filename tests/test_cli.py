import ast
import csv
import gc
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from photonkit import cli
from photonkit.errors import PhotonkitError
from photonkit.dispersion import builtin_crystal_path, load_crystal
from photonkit.phasematch import PhaseMatchQuery
from photonkit.sellmeier_fit import (
    FitSetup,
    load_dataset_csv,
    model_signal_wavelength,
    save_dataset_csv,
    synthesize_noisy_dataset,
)


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture()
def jsa_scenario(tmp_path):
    scenario = {
        "crystal": "ppktp_type2_telecom",
        "pump": {"central_frequency_phz": 2.4148,
                 "pulse_duration_fs": 66.88,
                 "spatial_width_um": 41.0},
        "coupling": {"signal_width_um": 48.75, "idler_width_um": 48.75},
        "grid": {"n": 24, "range_fraction": 0.02,
                 "signal_center_phz": 1.2209, "idler_center_phz": 1.19404},
        "query": {"pump_wavelength_nm": 780.1, "pol_pump": "y",
                  "pol_signal": "y", "pol_idler": "z", "qpm_sign": 1},
        "output_dir": "out",
    }
    path = tmp_path / "jsa.json"
    path.write_text(json.dumps(scenario))
    return path, scenario


class TestDispersion:
    def test_builtin_crystal(self, capsys):
        code, out = run_json(capsys, [
            "dispersion", "--crystal", "ppktp_kato2002",
            "--wavelength-um", "0.8"])
        assert code == cli.EXIT_OK
        assert out["status"] == "ok"
        assert 1.5 < out["refractive_index"] < 2.2
        assert "poling_period_um" in out

    def test_output_rounded_to_nine_digits(self, capsys):
        _, out = run_json(capsys, [
            "dispersion", "--crystal", "ppktp_kato2002",
            "--wavelength-um", "0.8"])
        text = f"{out['refractive_index']:.17g}"
        mantissa = text.replace(".", "").replace("-", "").lstrip("0")
        assert len(mantissa.rstrip("0")) <= 9

    def test_unknown_crystal(self, capsys):
        code, out = run_json(capsys, [
            "dispersion", "--crystal", "nope", "--wavelength-um", "0.8"])
        assert code == cli.EXIT_VALIDATION
        assert out["status"] == "validation-error"
        assert out["diagnostics"][0]["path"] == "/crystal"

    @pytest.mark.parametrize("layout", ["list", "axes_list"])
    def test_crystal_file_with_wrong_layout(self, capsys, tmp_path, layout):
        raw = {"name": "k", "axes": [1, 2], "length_um": 1000.0}
        path = tmp_path / "crystal.json"
        path.write_text(json.dumps([1, 2] if layout == "list" else raw))
        code = cli.run(["dispersion", "--crystal", str(path), "--wavelength-um", "0.8"])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert code == cli.EXIT_VALIDATION
        assert [d["path"] for d in json.loads(captured.out)["diagnostics"]] == ["/crystal"]

    def test_bad_wavelength(self, capsys):
        code, _ = run_json(capsys, [
            "dispersion", "--crystal", "ppktp_kato2002",
            "--wavelength-um", "-1"])
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("flags,path", [
        (["--wavelength-um", "nan"], "/wavelength_um"),
        (["--wavelength-um", "inf"], "/wavelength_um"),
        (["--wavelength-um", "0.8", "--temperature-k", "nan"], "/temperature_k"),
        (["--wavelength-um", "0.8", "--temperature-k", "inf"], "/temperature_k"),
    ], ids=["wavelength-nan", "wavelength-inf", "temperature-nan", "temperature-inf"])
    def test_non_finite_flag(self, capsys, flags, path):
        # the payload would print bare NaN/Infinity, which is not JSON
        code, out = run_json(capsys, ["dispersion", "--crystal", "ppktp_kato2002", *flags])
        assert code == cli.EXIT_VALIDATION
        assert out["diagnostics"] == [{"path": path, "message": "must be finite"}]

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    def test_axis_selects_its_sellmeier_set(self, capsys, axis, kato_crystal):
        from photonkit import dispersion

        _, out = run_json(capsys, ["dispersion", "--crystal", "ppktp_kato2002",
                                   "--axis", axis, "--wavelength-um", "0.8"])
        sellmeier = getattr(kato_crystal, f"sellmeier_{axis}")
        expected = dispersion.refractive_index(sellmeier, 0.8)
        assert out["refractive_index"] == pytest.approx(expected, rel=1e-8)


class TestPhasematchSweepAndFit:
    def test_sweep_to_csv_then_fit(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, out = run_json(capsys, [
            "phasematch", "sweep", "--crystal", "ppktp_kato2002",
            "--start-nm", "395", "--stop-nm", "400", "--points", "5",
            "--out", str(out_csv)])
        assert code == cli.EXIT_OK
        assert out["solved"] == 5
        points = load_dataset_csv(out_csv)
        assert len(points) == 5

        code, fit_out = run_json(capsys, [
            "fit-sellmeier", "--crystal", "ppktp_kato2002",
            "--data", str(out_csv)])
        assert code == cli.EXIT_OK
        assert fit_out["converged"] is True
        assert fit_out["rss_nm2"] <= 1e-12

    def test_weighted_fit(self, capsys, tmp_path):
        # a dataset with unequal sigma_nm; the weighted fit minimises chi^2,
        # and rss_nm2 and rss_start_nm2 are the plain nm^2 sums at the fitted
        # and the start coefficients
        crystal = load_crystal(builtin_crystal_path("ppktp_kato2002"))
        setup = FitSetup(crystal, PhaseMatchQuery(392.0, temperature_k=298.0),
                         (500.0, 600.0))
        start = crystal.sellmeier_z.as_tuple()[:3]
        points = synthesize_noisy_dataset(start, np.linspace(392.0, 403.0, 12), 0.002,
                                          seed=1, setup=setup)
        assert len({pt.sigma_nm for pt in points}) == len(points)
        data = tmp_path / "data.csv"
        save_dataset_csv(points, data)
        code, out = run_json(capsys, ["fit-sellmeier", "--crystal", "ppktp_kato2002",
                                      "--data", str(data), "--weighted"])
        assert code == cli.EXIT_OK

        def rss(coeffs):
            model = model_signal_wavelength([pt.pump_nm for pt in points], coeffs, setup)
            r = np.array([pt.signal_nm for pt in points]) - model
            return float(np.dot(r, r))

        assert out["rss_start_nm2"] == float(f"{rss(start):.9g}")
        # the payload's fitted coefficients carry 9 digits too
        assert out["rss_nm2"] == pytest.approx(rss(out["fitted"]), rel=1e-8)

    def test_sweep_out_in_new_subdirectory(self, capsys, tmp_path):
        # The run creates the CSV's parent directory, as bentguide solve does.
        out_csv = tmp_path / "missing" / "dir" / "x.csv"
        code, out = run_json(capsys, [
            "phasematch", "sweep", "--crystal", "ppktp_kato2002",
            "--start-nm", "395", "--stop-nm", "400", "--points", "3",
            "--out", str(out_csv)])
        assert code == cli.EXIT_OK
        assert len(load_dataset_csv(out_csv)) == out["solved"] == 3

    def test_sweep_out_naming_a_directory(self, capsys, tmp_path):
        code = cli.run(["phasematch", "sweep", "--crystal", "ppktp_kato2002",
                        "--start-nm", "395", "--stop-nm", "400", "--points", "3",
                        "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert code == cli.EXIT_VALIDATION
        assert [d["path"] for d in json.loads(captured.out)["diagnostics"]] == ["/out"]

    def test_sweep_argument_validation(self, capsys):
        code, _ = run_json(capsys, [
            "phasematch", "sweep", "--crystal", "ppktp_kato2002",
            "--start-nm", "400", "--stop-nm", "395"])
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("command,flags,path", [
        ("sweep", ["--pol-pump", "w"], "/pol_pump"),
        ("sweep", ["--qpm-sign", "2"], "/qpm_sign"),
        ("fit", ["--qpm-sign", "0"], "/qpm_sign"),
        ("sweep", ["--window-nm", "600", "500"], "/window_nm"),
        ("fit", ["--window-nm", "600", "500"], "/window_nm"),
        ("sweep", ["--window-nm", "500", "inf"], "/window_nm"),
        ("fit", ["--window-nm", "500", "inf"], "/window_nm"),
        ("sweep", ["--window-nm", "nan", "600"], "/window_nm"),
        ("sweep", ["--start-nm", "nan"], "/sweep"),
        ("sweep", ["--stop-nm", "inf"], "/sweep"),
        ("sweep", ["--temperature-k", "nan"], "/temperature_k"),
        ("fit", ["--temperature-k", "inf"], "/temperature_k"),
        # scan grids above phasematch.MAX_SCAN_CELLS
        ("sweep", ["--points", "100000000"], "/sweep"),
        ("sweep", ["--window-nm", "500", "2e6"], "/sweep"),
        ("fit", ["--window-nm", "500", "1e7"], "/window_nm"),
        # start values no Sellmeier set accepts
        ("fit", ["--start", "nan", "0.06", "0.05"], "/start"),
        ("fit", ["--start", "4.6", "0.06", "inf"], "/start"),
        ("fit", ["--start", "0", "0.06", "0.05"], "/start"),
        ("fit", ["--start", "4.6", "0.06", "-1"], "/start"),
    ], ids=["sweep-pol", "sweep-sign", "fit-sign", "sweep-window", "fit-window",
            "sweep-window-inf", "fit-window-inf", "sweep-window-nan", "sweep-start-nan",
            "sweep-stop-inf", "sweep-temperature-nan", "fit-temperature-inf",
            "sweep-points-huge", "sweep-window-huge", "fit-window-huge",
            "fit-start-nan", "fit-start-inf", "fit-start-a0-zero",
            "fit-start-pole-negative"])
    def test_bad_flag_is_validation_error(self, capsys, tmp_path, command, flags, path):
        data = tmp_path / "data.csv"
        data.write_text("lambda_pump_nm,lambda_vis_nm\n395.0,533.0\n")
        argv = {"sweep": ["phasematch", "sweep", "--start-nm", "395", "--stop-nm", "400"],
                "fit": ["fit-sellmeier", "--data", str(data)]}[command]
        code = cli.run([*argv, "--crystal", "ppktp_kato2002", *flags])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert code == cli.EXIT_VALIDATION
        assert [d["path"] for d in json.loads(captured.out)["diagnostics"]] == [path]

    @pytest.mark.parametrize("command,window", [
        ("sweep", ["300", "350"]), ("sweep", ["398", "600"]),
        ("fit", ["300", "350"]), ("fit", ["396", "600"]),
    ], ids=["sweep-below-pumps", "sweep-below-stop", "fit-below-pumps",
            "fit-below-top-pump"])
    def test_window_not_above_every_pump(self, capsys, tmp_path, command, window):
        # the sweep's pumps span 395-400 nm, the dataset's 395-397 nm
        data = tmp_path / "data.csv"
        data.write_text("lambda_pump_nm,lambda_vis_nm\n395.0,533.0\n397.0,536.0\n")
        argv = {"sweep": ["phasematch", "sweep", "--start-nm", "395", "--stop-nm", "400"],
                "fit": ["fit-sellmeier", "--data", str(data)]}[command]
        code = cli.run([*argv, "--crystal", "ppktp_kato2002", "--window-nm", *window])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert code == cli.EXIT_VALIDATION
        assert [d["path"] for d in json.loads(captured.out)["diagnostics"]] == ["/window_nm"]

    def test_fit_missing_dataset(self, capsys):
        code, _ = run_json(capsys, [
            "fit-sellmeier", "--crystal", "ppktp_kato2002",
            "--data", "/no/such/file.csv"])
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("text,message", [
        ("a,b\n1,2\n", "missing column lambda_pump_nm"),
        ("lambda_pump_nm,lambda_vis_nm\n395.0,abc\n",
         "line 2: value missing or not a number"),
        ("lambda_pump_nm,lambda_vis_nm\n395.0,533.0\n396.0\n",
         "line 3: value missing or not a number"),
        ("lambda_pump_nm,lambda_vis_nm\n395.0,-533.0\n",
         "line 2: measurement fields must be finite and positive"),
        ("lambda_pump_nm,lambda_vis_nm\n", "no data rows"),
        # NaN passes a test for <= 0, and an infinite pump reached the window
        # check; every non-finite field is a dataset error at its line
        *((f"lambda_pump_nm,lambda_vis_nm,sigma_nm\n396.0,534.0,1.0\n{row}\n",
           "line 3: measurement fields must be finite and positive")
          for bad in ("nan", "inf")
          for row in (f"{bad},533.0,1.0", f"395.0,{bad},1.0", f"395.0,533.0,{bad}")),
    ])
    def test_fit_unreadable_dataset(self, capsys, tmp_path, text, message):
        path = tmp_path / "data.csv"
        path.write_text(text)
        code = cli.run(["fit-sellmeier", "--crystal", "ppktp_kato2002",
                        "--data", str(path)])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert code == cli.EXIT_VALIDATION
        assert json.loads(captured.out)["diagnostics"] == [
            {"path": "/data", "message": message}]

    def test_fit_binary_dataset(self, capsys, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xff\xfe\x00\x81")
        code = cli.run(["fit-sellmeier", "--crystal", "ppktp_kato2002",
                        "--data", str(path)])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert code == cli.EXIT_VALIDATION
        assert [d["path"] for d in json.loads(captured.out)["diagnostics"]] == ["/data"]


def _scenario_path(tmp_path, data: bytes):
    path = tmp_path / "scenario.json"
    path.write_bytes(data)
    return path


class TestInputFiles:
    """Every input file that cannot be read is a validation error at its
    pointer, never a traceback."""

    @pytest.mark.parametrize("argv,pointer", [
        (lambda t: ["dispersion", "--crystal", str(t), "--wavelength-um", "0.8"],
         "/crystal"),
        (lambda t: ["fit-sellmeier", "--crystal", "ppktp_kato2002", "--data", str(t)],
         "/data"),
        (lambda t: ["jsa", "--scenario", str(t)], ""),
        (lambda t: ["validate", str(t)], ""),
        (lambda t: ["jsa", "--scenario", str(_scenario_path(t, b'{"a": "\xff"}'))], ""),
    ], ids=["crystal-directory", "dataset-directory", "scenario-directory",
            "validate-directory", "scenario-not-utf8"])
    def test_unreadable_input_is_validation_error(self, capsys, tmp_path, argv,
                                                  pointer):
        code = cli.run(argv(tmp_path))
        captured = capsys.readouterr()
        assert captured.err == ""
        assert code == cli.EXIT_VALIDATION
        assert [d["path"] for d in json.loads(captured.out)["diagnostics"]] == [pointer]


class TestJsa:
    def test_runs_and_writes_grid(self, capsys, jsa_scenario, tmp_path):
        path, _ = jsa_scenario
        code, out = run_json(capsys, ["jsa", "--scenario", str(path)])
        assert code == cli.EXIT_OK
        assert out["joint_fit"]["pearson"] > 0.9
        assert (tmp_path / "out" / "jsa_grid.csv").exists()

    def test_deterministic_output(self, capsys, jsa_scenario):
        path, _ = jsa_scenario
        cli.run(["jsa", "--scenario", str(path)])
        first = capsys.readouterr().out
        cli.run(["jsa", "--scenario", str(path)])
        second = capsys.readouterr().out
        assert first == second

    def test_missing_scenario(self, capsys):
        code, out = run_json(capsys, ["jsa", "--scenario", "/no/file.json"])
        assert code == cli.EXIT_VALIDATION
        assert "not found" in out["diagnostics"][0]["message"]

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out = run_json(capsys, ["jsa", "--scenario", str(path)])
        assert code == cli.EXIT_VALIDATION
        assert "line 1" in out["diagnostics"][0]["message"]

    def test_grid_too_small(self, capsys, jsa_scenario):
        path, scenario = jsa_scenario
        scenario["grid"]["n"] = 8
        path.write_text(json.dumps(scenario))
        code, out = run_json(capsys, ["jsa", "--scenario", str(path)])
        assert code == cli.EXIT_VALIDATION
        assert any(d["path"] == "/grid/n" for d in out["diagnostics"])

    def test_unconverged_quadrature_is_solver_error(self, capsys, jsa_scenario):
        # 4 um waists on this source leave the crystal quadrature's error
        # estimate above tolerance at the node cap
        path, scenario = jsa_scenario
        scenario["pump"]["spatial_width_um"] = 4.0
        scenario["coupling"] = {"signal_width_um": 4.0, "idler_width_um": 4.0}
        scenario["grid"]["n"] = 16
        path.write_text(json.dumps(scenario))
        code, out = run_json(capsys, ["jsa", "--scenario", str(path)])
        assert code == cli.EXIT_SOLVER
        assert out["error"] == "QuadratureNotConverged"


class TestFiber:
    def test_stationary(self, capsys, jsa_scenario, tmp_path):
        path, scenario = jsa_scenario
        scenario["fiber"] = {"gvd_2beta_s2_per_m": -2.27e-26,
                             "length_m": 1.0e4}
        path.write_text(json.dumps(scenario))
        code, out = run_json(capsys, ["fiber", "--scenario", str(path)])
        assert code == cli.EXIT_OK
        assert out["dispersion_scale_ns_per_phz"] == pytest.approx(227.0)
        assert out["time_stats"]["tau_s_ns"] > 0
        assert out["mapped_frequency_stats"]["pearson_t"] > 0.9
        assert (tmp_path / "out" / "time_grid.csv").exists()

    def test_zero_dispersion_is_solver_error(self, capsys, jsa_scenario):
        path, scenario = jsa_scenario
        scenario["fiber"] = {"gvd_2beta_s2_per_m": 0.0, "length_m": 1.0e4}
        path.write_text(json.dumps(scenario))
        code, out = run_json(capsys, ["fiber", "--scenario", str(path)])
        assert code == cli.EXIT_SOLVER
        assert out["error"] == "ZeroDispersion"

    def test_bad_method(self, capsys, jsa_scenario):
        path, scenario = jsa_scenario
        scenario["fiber"] = {"gvd_2beta_s2_per_m": -2.27e-26,
                             "length_m": 1.0e4}
        scenario["method"] = "magic"
        path.write_text(json.dumps(scenario))
        code, _ = run_json(capsys, ["fiber", "--scenario", str(path)])
        assert code == cli.EXIT_VALIDATION


class TestRectguide:
    def test_hollow(self, capsys, tmp_path):
        path = tmp_path / "rect.json"
        path.write_text(json.dumps({
            "spec": {"width_a_um": 1.0, "height_b_um": 0.5,
                     "core_index": 1.0, "kind": "hollow"},
            "frequency_thz": 400.0}))
        code, out = run_json(capsys, ["rectguide", "--scenario", str(path)])
        assert code == cli.EXIT_OK
        assert out["modes"][0]["family"] == "TE"
        assert out["modes"][0]["cutoff_thz"] == pytest.approx(149.896229)

    def test_hollow_requires_frequency(self, capsys, tmp_path):
        path = tmp_path / "rect.json"
        path.write_text(json.dumps({
            "spec": {"width_a_um": 1.0, "height_b_um": 0.5,
                     "core_index": 1.0, "kind": "hollow"}}))
        code, out = run_json(capsys, ["rectguide", "--scenario", str(path)])
        assert code == cli.EXIT_VALIDATION
        assert any(d["path"] == "/frequency_thz" for d in out["diagnostics"])


class TestBentguide:
    def test_solve_reference_geometry(self, capsys, tmp_path):
        path = tmp_path / "bent.json"
        path.write_text(json.dumps({
            "spec": {"inner_radius_um": 0.5, "outer_radius_um": 1.5,
                     "half_height_um": 0.25, "core_index": 2.3,
                     "clad_index": 1.0, "vacuum_wavelength_um": 0.8}}))
        code, out = run_json(capsys, ["bentguide", "solve", "--spec",
                                      str(path)])
        assert code == cli.EXIT_OK
        assert len(out["modes"]) == 12
        assert out["count_estimate"] == [2, 1]

    def test_field_csv_in_new_subdirectory(self, capsys, tmp_path):
        # The run creates the CSV's parent directory, as it does output_dir.
        scenario = {"spec": BENT_SPEC, "output_dir": "out", "field_csv": "sub/f.csv"}
        path = tmp_path / "bent.json"
        path.write_text(json.dumps(dict(scenario, command="bentguide solve")))
        code, out = run_json(capsys, ["validate", str(path)])
        assert code == cli.EXIT_OK and out["diagnostics"] == []
        path.write_text(json.dumps(scenario))
        code, out = run_json(capsys, ["bentguide", "solve", "--spec", str(path)])
        assert code == cli.EXIT_OK and len(out["modes"]) == 12
        text = (tmp_path / "out" / "sub" / "f.csv").read_bytes()
        rows = list(csv.reader(io.StringIO(text.decode(), newline="")))
        assert rows[0] == ["r_um", "z_um", "abs_Er"] and len(rows) == 1 + 101 * 101
        # The floats, mostly written positionally here, are repr's: the file
        # is csv.writer's form of the numbers it holds.
        assert sum("e" not in row[2] for row in rows[1:]) > len(rows) // 2
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)
        writer.writerow(rows[0])
        writer.writerows([repr(float(v)) for v in row] for row in rows[1:])
        assert buffer.getvalue().encode() == text

    def test_inverted_radii(self, capsys, tmp_path):
        path = tmp_path / "bent.json"
        path.write_text(json.dumps({
            "spec": {"inner_radius_um": 1.5, "outer_radius_um": 0.5,
                     "half_height_um": 0.25, "core_index": 2.3,
                     "clad_index": 1.0, "vacuum_wavelength_um": 0.8}}))
        code, _ = run_json(capsys, ["bentguide", "solve", "--spec",
                                    str(path)])
        assert code == cli.EXIT_VALIDATION


class TestStats:
    @pytest.mark.parametrize("state,g2", [
        ("fock:1", 0.0), ("fock:2", 0.5), ("coherent:1.0", 1.0),
        ("thermal:0.7", 2.0),
    ])
    def test_g2_table(self, capsys, state, g2):
        code, out = run_json(capsys, ["stats", "g2", "--state", state])
        assert code == cli.EXIT_OK
        assert out["g2"] == pytest.approx(g2, abs=1e-9)

    def test_unknown_state(self, capsys):
        code, _ = run_json(capsys, ["stats", "g2", "--state", "cat:1"])
        assert code == cli.EXIT_VALIDATION

    def test_bad_parameter(self, capsys):
        code, _ = run_json(capsys, ["stats", "g2", "--state", "fock:abc"])
        assert code == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("state,message", [
        ("fock:0", "fock_moments requires n >= 1"),
        ("thermal:-1", "beta * hbar * omega must be positive"),
        ("tmsv:-1", "squeezing parameter must be nonnegative"),
        ("fock:x", "bad parameter 'x'"),
    ])
    def test_out_of_domain_state_keeps_its_message(self, capsys, state, message):
        code, out = run_json(capsys, ["stats", "g2", "--state", state])
        assert code == cli.EXIT_VALIDATION
        assert out["diagnostics"] == [{"path": "/state", "message": message}]

    # Non-finite parameters, and parameters whose moments leave the float
    # range, are reported at /state rather than printed as NaN or Infinity
    # or ended in an OverflowError.
    @pytest.mark.parametrize("state", [
        "coherent:nan", "coherent:inf", "thermal:nan", "tmsv:nan",
        "thermal:1e6", "tmsv:1e3", "fock:" + "9" * 400])
    def test_unrepresentable_state_is_validation_error(self, capsys, state):
        code = cli.run(["stats", "g2", "--state", state])
        captured = capsys.readouterr()
        assert captured.err == ""
        assert code == cli.EXIT_VALIDATION
        out = json.loads(captured.out, parse_constant=pytest.fail)
        assert [d["path"] for d in out["diagnostics"]] == ["/state"]


class TestValidate:
    def test_valid_scenario(self, capsys, jsa_scenario):
        path, scenario = jsa_scenario
        scenario["command"] = "jsa"
        path.write_text(json.dumps(scenario))
        code, out = run_json(capsys, ["validate", str(path)])
        assert code == cli.EXIT_OK
        assert out["diagnostics"] == []

    def test_missing_command(self, capsys, jsa_scenario):
        path, _ = jsa_scenario
        code, out = run_json(capsys, ["validate", str(path)])
        assert code == cli.EXIT_VALIDATION
        assert out["diagnostics"][0]["path"] == "/command"


def _jsa_edit(block, key, value):
    def edit(scenario):
        scenario[block][key] = value
        return scenario
    return edit


def _guide(spec, **extra):
    return lambda _scenario: {"spec": spec, **extra}


RUN_ARGV = {"jsa": ["jsa", "--scenario"],
            "fiber": ["fiber", "--scenario"],
            "rectguide": ["rectguide", "--scenario"],
            "bentguide solve": ["bentguide", "solve", "--spec"]}

BENT_SPEC = {"inner_radius_um": 0.5, "outer_radius_um": 1.5,
             "half_height_um": 0.25, "core_index": 2.3,
             "clad_index": 1.0, "vacuum_wavelength_um": 0.8}
HOLLOW_SPEC = {"width_a_um": 1.0, "height_b_um": 0.5, "core_index": 1.0,
               "kind": "hollow"}
DIELECTRIC_SPEC = {"width_a_um": 2.0, "height_b_um": 1.0, "core_index": 1.5}

# Scenarios that passed `validate` and then failed the run while the CLI
# checked them separately from the spec dataclasses.
INVALID_SCENARIOS = {
    "offset-not-a-number": (
        "jsa", _jsa_edit("coupling", "signal_offset_per_um", "abc"),
        "/coupling/signal_offset_per_um"),
    "unknown-pump-key": (
        "jsa", _jsa_edit("pump", "wavelength_nm", 780.0), "/pump/wavelength_nm"),
    "unknown-coupling-key": (
        "jsa", _jsa_edit("coupling", "offset_per_um", 0.1),
        "/coupling/offset_per_um"),
    "fractional-grid-n": ("jsa", _jsa_edit("grid", "n", 24.7), "/grid/n"),
    "signal-phi": (
        "jsa", _jsa_edit("query", "signal_phi_rad", 0.1), "/query/signal_phi_rad"),
    # JSON as Python reads and writes it allows NaN
    "query-temperature-nan": (
        "jsa", _jsa_edit("query", "temperature_k", float("nan")),
        "/query/temperature_k"),
    # NaN used to pass every "must be positive" check and fail the run
    "pump-duration-nan": (
        "jsa", _jsa_edit("pump", "pulse_duration_fs", float("nan")),
        "/pump/pulse_duration_fs"),
    "bent-outer-radius-nan": (
        "bentguide solve", _guide(dict(BENT_SPEC, outer_radius_um=float("nan"))),
        "/spec/outer_radius_um"),
    "fiber-gvd-nan": (
        "fiber", lambda scenario: dict(scenario, fiber={
            "gvd_2beta_s2_per_m": float("nan"), "length_m": 1e4}),
        "/fiber/gvd_2beta_s2_per_m"),
    "rect-frequency-not-a-number": (
        "rectguide", _guide({"width_a_um": 1.0, "height_b_um": 0.5,
                             "core_index": 1.0, "kind": "hollow"},
                            frequency_thz="abc"),
        "/frequency_thz"),
    "rect-clad-above-core": (
        "rectguide", _guide({"width_a_um": 2.0, "height_b_um": 1.0,
                             "core_index": 1.5, "clad_index": 1.6},
                            wavelength_um=1.55),
        "/spec/core_index"),
    "bent-clad-below-one": (
        "bentguide solve", _guide(dict(BENT_SPEC, clad_index=0.5)),
        "/spec/clad_index"),
    "rect-frequency-negative": (
        "rectguide", _guide(HOLLOW_SPEC, frequency_thz=-5), "/frequency_thz"),
    "rect-polarization-ez": (
        "rectguide", _guide(DIELECTRIC_SPEC, wavelength_um=1.55, polarization="Ez"),
        "/polarization"),
    "output-dir-not-a-string": (
        "jsa", lambda scenario: dict(scenario, output_dir=5), "/output_dir"),
    # the scenario file itself is a file next to the scenario
    "output-dir-names-a-file": (
        "jsa", lambda scenario: dict(scenario, output_dir="jsa.json"), "/output_dir"),
    "output-dir-under-a-file": (
        "jsa", lambda scenario: dict(scenario, output_dir="jsa.json/out"),
        "/output_dir"),
    "fiber-output-dir-names-a-file": (
        "fiber", lambda scenario: dict(scenario, output_dir="jsa.json", fiber={
            "gvd_2beta_s2_per_m": -2.27e-26, "length_m": 1e4}), "/output_dir"),
    "signal-theta": (
        "jsa", _jsa_edit("query", "signal_theta_rad", 0.3), "/query/signal_theta_rad"),
    # an unknown key even at 0.0: phase matching has no signal angle
    "signal-theta-zero": (
        "jsa", _jsa_edit("query", "signal_theta_rad", 0.0), "/query/signal_theta_rad"),
    "bent-field-csv-not-a-string": (
        "bentguide solve", _guide(BENT_SPEC, field_csv=5), "/field_csv"),
    # JSON as Python reads it allows Infinity, which used to pass the
    # "must be positive" checks and end in a traceback, an empty mode table
    # or a solver error
    "rect-frequency-infinite": (
        "rectguide", _guide(HOLLOW_SPEC, frequency_thz=math.inf), "/frequency_thz"),
    "rect-width-infinite": (
        "rectguide", _guide(dict(HOLLOW_SPEC, width_a_um=math.inf), frequency_thz=400.0),
        "/spec/width_a_um"),
    "rect-wavelength-infinite": (
        "rectguide", _guide(DIELECTRIC_SPEC, wavelength_um=math.inf), "/wavelength_um"),
    "rect-clad-infinite": (
        "rectguide", _guide(dict(DIELECTRIC_SPEC, clad_index=math.inf),
                            wavelength_um=1.55), "/spec/clad_index"),
    "bent-wavelength-infinite": (
        "bentguide solve", _guide(dict(BENT_SPEC, vacuum_wavelength_um=math.inf)),
        "/spec/vacuum_wavelength_um"),
    "bent-clad-infinite": (
        "bentguide solve", _guide(dict(BENT_SPEC, clad_index=math.inf)),
        "/spec/clad_index"),
    "bent-core-infinite": (
        "bentguide solve", _guide(dict(BENT_SPEC, core_index=math.inf)),
        "/spec/core_index"),
    "offset-nan": (
        "jsa", _jsa_edit("coupling", "signal_offset_per_um", math.nan),
        "/coupling/signal_offset_per_um"),
    "offset-infinite": (
        "jsa", _jsa_edit("coupling", "idler_offset_per_um", math.inf),
        "/coupling/idler_offset_per_um"),
    "query-pump-infinite": (
        "jsa", _jsa_edit("query", "pump_wavelength_nm", math.inf),
        "/query/pump_wavelength_nm"),
    "fiber-length-infinite": (
        "fiber", lambda scenario: dict(scenario, fiber={
            "gvd_2beta_s2_per_m": -2.27e-26, "length_m": math.inf}),
        "/fiber/length_m"),
}


class TestScenarioValidation:
    @staticmethod
    def _run_quiet(capsys, argv):
        code = cli.run(argv)
        captured = capsys.readouterr()
        assert captured.err == ""
        return code, json.loads(captured.out)

    @pytest.mark.parametrize("case", sorted(INVALID_SCENARIOS))
    def test_validate_and_run_agree(self, capsys, jsa_scenario, case):
        command, edit, pointer = INVALID_SCENARIOS[case]
        path, scenario = jsa_scenario
        scenario = edit(scenario)
        path.write_text(json.dumps(scenario))
        code, run_out = self._run_quiet(capsys, RUN_ARGV[command] + [str(path)])
        path.write_text(json.dumps(dict(scenario, command=command)))
        vcode, val_out = self._run_quiet(capsys, ["validate", str(path)])
        assert code == vcode == cli.EXIT_VALIDATION
        assert run_out == val_out
        assert [d["path"] for d in val_out["diagnostics"]] == [pointer]

    @pytest.mark.parametrize("field_csv,output_dir,existing", [
        ("", None, None), (".", "o", None), ("sub/", "o", None),
        ("sub/..", None, None), ("sub", None, "sub")])
    def test_field_csv_naming_a_directory(self, capsys, tmp_path, field_csv,
                                          output_dir, existing):
        scenario = {"spec": BENT_SPEC, "field_csv": field_csv}
        if output_dir is not None:
            scenario["output_dir"] = output_dir
        if existing is not None:
            (tmp_path / existing).mkdir()
        path = tmp_path / "bent.json"
        path.write_text(json.dumps(scenario))
        code, run_out = self._run_quiet(capsys, RUN_ARGV["bentguide solve"] + [str(path)])
        path.write_text(json.dumps(dict(scenario, command="bentguide solve")))
        vcode, val_out = self._run_quiet(capsys, ["validate", str(path)])
        assert code == vcode == cli.EXIT_VALIDATION
        assert run_out == val_out
        assert val_out["diagnostics"] == [{
            "path": "/field_csv",
            "message": "field_csv must name a file, not a directory"}]
        # the run wrote nothing
        assert sorted(p.name for p in tmp_path.rglob("*")) == sorted(
            ["bent.json"] + ([existing] if existing else []))

    def test_jsa_honours_idler_n(self, capsys, jsa_scenario, tmp_path):
        path, scenario = jsa_scenario
        scenario["grid"]["idler_n"] = 40
        path.write_text(json.dumps(scenario))
        code, _ = run_json(capsys, ["jsa", "--scenario", str(path)])
        assert code == cli.EXIT_OK
        with open(tmp_path / "out" / "jsa_grid.csv") as fh:
            assert sum(1 for _ in fh) - 1 == 24 * 40

    @pytest.mark.parametrize("block,key,value,message", [
        ("pump", "pulse_duration_fs", -66.88, "must be positive"),
        ("grid", "n", 8, "n must be >= 16"),
        ("grid", "range_fraction", 0.7, "must lie in (0, 0.5)"),
    ])
    def test_single_defect_single_diagnostic(self, capsys, jsa_scenario,
                                             block, key, value, message):
        path, scenario = jsa_scenario
        scenario["command"] = "jsa"
        scenario[block][key] = value
        path.write_text(json.dumps(scenario))
        code, out = run_json(capsys, ["validate", str(path)])
        assert code == cli.EXIT_VALIDATION
        assert out["diagnostics"] == [{"path": f"/{block}/{key}",
                                       "message": message}]

    def test_type_errors_reported_for_every_field(self, capsys, jsa_scenario):
        path, scenario = jsa_scenario
        scenario["command"] = "jsa"
        scenario["pump"] = {"central_frequency_phz": "x", "pulse_duration_fs": True}
        path.write_text(json.dumps(scenario))
        _, out = run_json(capsys, ["validate", str(path)])
        assert out["diagnostics"] == [
            {"path": "/pump/central_frequency_phz", "message": "number required"},
            {"path": "/pump/pulse_duration_fs", "message": "number required"},
            {"path": "/pump/spatial_width_um", "message": "number required"}]


class TestGolden:
    def test_all_pass(self, capsys):
        code = cli.run(["--golden"])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert lines and all(ln.startswith("PASS") for ln in lines)


# The loaded modules the import tests watch: scipy, the photonkit modules,
# numpy, and the stdlib parts only some commands need.
_WATCHED = ("scipy", "photonkit", "numpy", "concurrent.futures")

# Runs `photonkit.cli.run(argv)` in a fresh interpreter, then prints its exit
# code and every loaded module whose name starts with one of _WATCHED.
_RUN_AND_LIST = (
    "import sys\n"
    "from photonkit import cli\n"
    "code = cli.run(sys.argv[1:])\n"
    f"print(code, *sorted(m for m in sys.modules if m.startswith({_WATCHED!r})))\n")

# The console entry point, as an installed `photonkit` runs it.
_MAIN = "from photonkit.cli import main; main()"

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _fresh_python(*args, env=None, code=0):
    """Standard output of a fresh interpreter run with `args` and the
    environment `env` (default: this one), with the package on the path,
    which must exit with `code`."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True)
    assert done.returncode == code, done.stderr
    return done.stdout


def _command_argv(case, tmp_path, jsa_scenario):
    """The argv of a run of `case` that succeeds; writes its scenario files."""
    path, scenario = jsa_scenario
    files = {
        "fiber": dict(scenario, fiber={"gvd_2beta_s2_per_m": -2.27e-26,
                                       "length_m": 1.0e4}),
        "hollow": {"spec": HOLLOW_SPEC, "frequency_thz": 400.0},
        "dielectric": {"spec": DIELECTRIC_SPEC, "wavelength_um": 1.55},
        "validate": dict(scenario, command="jsa"),
        "bent": {"spec": BENT_SPEC},
        "bent_field": {"spec": BENT_SPEC, "output_dir": "out", "field_csv": "field.csv"},
    }
    for name, content in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(content))
    sweep = tmp_path / "sweep.csv"
    return {
        "jsa": ["jsa", "--scenario", str(path)],
        "fiber": ["fiber", "--scenario", str(tmp_path / "fiber.json")],
        "phasematch sweep": ["phasematch", "sweep", "--crystal", "ppktp_kato2002",
                             "--start-nm", "395", "--stop-nm", "400",
                             "--points", "5", "--out", str(sweep)],
        "fit-sellmeier": ["fit-sellmeier", "--crystal", "ppktp_kato2002",
                          "--data", str(sweep)],
        "dispersion": ["dispersion", "--crystal", "ppktp_kato2002",
                       "--wavelength-um", "0.8"],
        "rectguide hollow": ["rectguide", "--scenario", str(tmp_path / "hollow.json")],
        "rectguide dielectric": ["rectguide", "--scenario",
                                 str(tmp_path / "dielectric.json")],
        "stats g2": ["stats", "g2", "--state", "thermal:0.7"],
        "validate": ["validate", str(tmp_path / "validate.json")],
        "bentguide solve": ["bentguide", "solve", "--spec",
                            str(tmp_path / "bent.json")],
        "bentguide solve field_csv": ["bentguide", "solve", "--spec",
                                      str(tmp_path / "bent_field.json")],
        "--golden": ["--golden"],
    }[case]


class TestImports:
    def test_cli_does_not_import_scipy_stats(self):
        # No photonkit module imports scipy; test_command_loads_no_scipy
        # checks every command.
        out = _fresh_python("-c", "import sys, photonkit.cli; "
                                  "print('scipy.stats' in sys.modules); "
                                  "print(*[m for m in sys.modules "
                                  "if m.startswith('scipy')])")
        stats_loaded, scipy_modules = out.split("\n")[:2]
        assert stats_loaded == "False"
        assert scipy_modules == ""

    def test_cli_import_loads_no_solver(self):
        # nor numpy: the specs the CLI checks its inputs with need none
        out = _fresh_python("-c", "import sys, photonkit.cli; "
                                  f"print(*sorted(m for m in sys.modules "
                                  f"if m.startswith({_WATCHED!r})))")
        assert out.split() == ["photonkit", "photonkit.cli", "photonkit.errors",
                               "photonkit.specs"]

    def test_no_module_imports_threads(self):
        # photonkit starts no threads or processes of its own
        imported = set()
        for path in Path(cli.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                imported.update((path.name, name.partition(".")[0]) for name in names)
        assert ("numerics.py", "numpy") in imported
        assert [(module, name) for module, name in sorted(imported) if name in (
            "threading", "_thread", "concurrent", "multiprocessing")] == []

    def test_jsa_loads_no_thread_pool(self, tmp_path, jsa_scenario):
        # WORKBENCH_THREADS has no effect, on a grid of two blocks (n = 60)
        path, scenario = jsa_scenario
        scenario["grid"]["n"] = 60
        path.write_text(json.dumps(scenario))
        out = _fresh_python("-c", _RUN_AND_LIST, "jsa", "--scenario", str(path),
                            env=dict(os.environ, WORKBENCH_THREADS="2"))
        code, *loaded = out.splitlines()[-1].split()
        assert code == str(cli.EXIT_OK)
        assert "concurrent.futures" not in loaded

    def _loaded(self, case, capsys, tmp_path, jsa_scenario):
        """The watched modules loaded by a fresh process that runs `case`."""
        if case == "fit-sellmeier":
            cli.run(_command_argv("phasematch sweep", tmp_path, jsa_scenario))
            capsys.readouterr()
        out = _fresh_python("-c", _RUN_AND_LIST,
                            *_command_argv(case, tmp_path, jsa_scenario))
        code, *loaded = out.splitlines()[-1].split()
        assert code == str(cli.EXIT_OK)
        return loaded

    @pytest.mark.parametrize("case", [
        "jsa", "fiber", "phasematch sweep", "fit-sellmeier", "dispersion",
        "rectguide hollow", "rectguide dielectric", "stats g2", "validate",
        "bentguide solve", "--golden"])
    def test_command_loads_no_scipy(self, capsys, tmp_path, jsa_scenario, case):
        loaded = self._loaded(case, capsys, tmp_path, jsa_scenario)
        assert [m for m in loaded if m.startswith("scipy")] == []

    # Solver modules each command must leave unloaded.
    _UNLOADED = {
        "dispersion": ("biphoton", "bent_guide", "rect_guide", "photon_stats",
                       "sellmeier_fit", "fiber_prop"),
        "jsa": ("bent_guide", "rect_guide", "photon_stats", "sellmeier_fit",
                "fiber_prop"),
        "fit-sellmeier": ("biphoton", "bent_guide", "rect_guide", "photon_stats",
                          "fiber_prop"),
        # the sweep writes its dataset CSV with phasematch's own writer
        "phasematch sweep": ("biphoton", "bent_guide", "rect_guide", "photon_stats",
                             "sellmeier_fit", "fiber_prop"),
        "validate": ("bent_guide", "rect_guide"),
    }

    @pytest.mark.parametrize("case", list(_UNLOADED))
    def test_command_loads_only_its_modules(self, capsys, tmp_path, jsa_scenario, case):
        loaded = self._loaded(case, capsys, tmp_path, jsa_scenario)
        assert [m for m in loaded
                if m.rpartition(".")[2] in self._UNLOADED[case]] == []

    # jsa and fiber take only the grating vector from the phase-matching
    # physics, and it lives in dispersion: their processes do not compile
    # phasematch's window scan and root solve.
    @pytest.mark.parametrize("case", ["jsa", "fiber"])
    def test_spectral_commands_leave_phasematch_unloaded(self, capsys, tmp_path,
                                                         jsa_scenario, case):
        loaded = self._loaded(case, capsys, tmp_path, jsa_scenario)
        assert "photonkit.phasematch" not in loaded

    # Only the bent-guide solver uses photonkit.special; the commands that do
    # not run it must not compile it.
    @pytest.mark.parametrize("case,wanted", [
        ("fit-sellmeier", False), ("phasematch sweep", False), ("jsa", False),
        ("fiber", False), ("bentguide solve", True), ("--golden", True)])
    def test_special_functions_load_only_where_used(self, capsys, tmp_path,
                                                    jsa_scenario, case, wanted):
        loaded = self._loaded(case, capsys, tmp_path, jsa_scenario)
        assert ("photonkit.special" in loaded) == wanted

    # Only the grid CSV writer uses photonkit.float_repr, and it imports it
    # when it runs.
    @pytest.mark.parametrize("case,wanted", [
        ("jsa", True), ("fiber", True), ("bentguide solve field_csv", True),
        ("fit-sellmeier", False), ("phasematch sweep", False), ("dispersion", False),
        ("rectguide hollow", False), ("rectguide dielectric", False),
        ("bentguide solve", False), ("--golden", False), ("stats g2", False),
        ("validate", False)])
    def test_repr_kernel_loads_only_for_grid_csvs(self, capsys, tmp_path,
                                                  jsa_scenario, case, wanted):
        loaded = self._loaded(case, capsys, tmp_path, jsa_scenario)
        assert ("photonkit.float_repr" in loaded) == wanted

    def test_golden_loads_no_biphoton(self, capsys, tmp_path, jsa_scenario):
        # fiber_prop names the biphoton types in annotations only
        loaded = self._loaded("--golden", capsys, tmp_path, jsa_scenario)
        assert "photonkit.fiber_prop" in loaded
        assert "photonkit.biphoton" not in loaded

    def test_golden_loads_no_fit_modules(self):
        # the pole-fraction check takes the Sellmeier formula from dispersion
        out = _fresh_python("-c", _RUN_AND_LIST, "--golden")
        *lines, last = out.splitlines()
        code, *loaded = last.split()
        assert code == str(cli.EXIT_OK)
        assert lines == [f"PASS  {name}" for name in (
            "bent-guide beta_w within 0.5%", "bent-guide vertical counts (2, 1)",
            "bent-guide n_eff(1,1) within 3%",
            "bent-guide mean radius (1,1) within 0.05 um",
            "hollow TE10 cutoff = c/(2a)", "fiber dispersion scale 227 ns/PHz",
            "g2 table {0, 0.5, 1, 2}", "z-axis pole-fraction ranges (0.533, 0.048)")]
        assert "photonkit.dispersion" in loaded
        assert [m for m in loaded
                if m in ("photonkit.sellmeier_fit", "photonkit.phasematch")] == []

    def test_stats_g2_loads_photon_stats_alone(self, capsys, tmp_path, jsa_scenario):
        loaded = self._loaded("stats g2", capsys, tmp_path, jsa_scenario)
        assert loaded == ["photonkit", "photonkit.cli", "photonkit.errors",
                          "photonkit.photon_stats", "photonkit.specs"]

    @pytest.mark.parametrize("scenario", [
        "validate", "fiber", "hollow", "dielectric", "bent"])
    def test_validate_loads_no_numpy(self, capsys, tmp_path, jsa_scenario, scenario):
        # `validate` builds the scenario's specs and runs no solver
        _command_argv("validate", tmp_path, jsa_scenario)  # writes the scenarios
        path = tmp_path / f"{scenario}.json"
        command = {"validate": "jsa", "fiber": "fiber", "hollow": "rectguide",
                   "dielectric": "rectguide", "bent": "bentguide solve"}[scenario]
        path.write_text(json.dumps(dict(json.loads(path.read_text()), command=command)))
        out = _fresh_python("-c", _RUN_AND_LIST, "validate", str(path))
        code, *loaded = out.splitlines()[-1].split()
        assert code == str(cli.EXIT_OK)
        # each of these scenarios builds one of the specs that live in
        # _lazy_specs
        assert loaded == ["photonkit", "photonkit._lazy_specs", "photonkit.cli",
                          "photonkit.errors", "photonkit.specs"]

    # The commands that take only crystal and phase-matching specs do not
    # build the joint-spectrum, fiber and waveguide spec classes.
    @pytest.mark.parametrize("case", [
        "phasematch sweep", "fit-sellmeier", "dispersion", "stats g2"])
    def test_lazy_specs_stay_unloaded(self, capsys, tmp_path, jsa_scenario, case):
        loaded = self._loaded(case, capsys, tmp_path, jsa_scenario)
        assert "photonkit._lazy_specs" not in loaded

    def test_golden_in_fresh_process(self):
        # --golden imports its solver modules when it runs
        out = _fresh_python("-c", _MAIN, "--golden")
        lines = out.splitlines()
        assert len(lines) == 8 and all(ln.startswith("PASS  ") for ln in lines)


class TestExitPath:
    """`main` freezes the heap once the command has returned, before it
    exits; the process must end as it would without that."""

    @pytest.mark.parametrize("argv,code", [
        (["stats", "g2", "--state", "fock:1"], cli.EXIT_OK),
        (["--golden"], cli.EXIT_OK),
        (["stats", "g2", "--state", "cat:1"], cli.EXIT_VALIDATION),
        ([], cli.EXIT_VALIDATION),
        (["fiber", "--scenario", "{zero_dispersion}"], cli.EXIT_SOLVER),
    ])
    def test_exits_with_runs_code_and_complete_output(self, capsys, jsa_scenario,
                                                      argv, code):
        path, scenario = jsa_scenario
        scenario["fiber"] = {"gvd_2beta_s2_per_m": 0.0, "length_m": 1.0e4}
        path.write_text(json.dumps(scenario))
        argv = [a.format(zero_dispersion=path) for a in argv]
        assert cli.run(argv) == code
        expected = capsys.readouterr().out
        # standard output is a pipe here: it is flushed whole before the exit
        assert _fresh_python("-c", _MAIN, *argv, code=code) == expected

    def test_jsa_writes_its_whole_grid(self, jsa_scenario, tmp_path):
        path, scenario = jsa_scenario
        out = _fresh_python("-c", _MAIN, "jsa", "--scenario", str(path))
        assert json.loads(out)["status"] == "ok"
        rows = (tmp_path / "out" / "jsa_grid.csv").read_text().splitlines()
        n = scenario["grid"]["n"]
        assert rows[0] == "omega_s_phz,omega_i_phz,probability"
        assert len(rows) == 1 + n * n

    def test_atexit_handler_runs_after_the_freeze(self):
        out = _fresh_python(
            "-c", "import atexit, gc\n"
                  "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
                  + _MAIN,
            "stats", "g2", "--state", "fock:2")
        *payload, last = out.splitlines()
        assert json.loads("\n".join(payload))["g2"] == 0.5
        assert last == "frozen True"

    def test_run_freezes_nothing(self, capsys):
        before = gc.get_freeze_count()
        assert cli.run(["stats", "g2", "--state", "fock:2"]) == cli.EXIT_OK
        capsys.readouterr()
        assert gc.get_freeze_count() == before


class TestBlasThreads:
    """Importing the CLI before numpy runs BLAS on one thread, unless the user
    set a BLAS thread variable or numpy is already loaded."""

    _PRINT = ("import json, os, photonkit.cli; "
              f"print(json.dumps({{v: os.environ.get(v) for v in {_BLAS_VARS!r}}}))")

    @staticmethod
    def _env(**settings):
        # _fresh_python would otherwise inherit this process's thread settings
        env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
        return dict(env, **settings)

    # WORKBENCH_THREADS has no effect
    @pytest.mark.parametrize("settings", [{}, {"WORKBENCH_THREADS": "2"}],
                             ids=["unset", "workbench_threads"])
    def test_default_one_thread(self, settings):
        out = _fresh_python("-c", self._PRINT, env=self._env(**settings))
        assert json.loads(out) == dict.fromkeys(_BLAS_VARS, "1")

    def test_user_setting_untouched(self):
        out = _fresh_python("-c", self._PRINT,
                            env=self._env(OPENBLAS_NUM_THREADS="3", WORKBENCH_THREADS="2"))
        assert json.loads(out) == {"OPENBLAS_NUM_THREADS": "3",
                                   "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}

    def test_numpy_already_loaded(self):
        out = _fresh_python("-c", "import os, numpy; before = dict(os.environ); "
                                  "import photonkit.cli; print(before == os.environ)",
                            env=self._env())
        assert out.split() == ["True"]


def _key_paths(value, prefix=""):
    """Every key of a JSON document as a slash path; list items share `[]`."""
    if isinstance(value, dict):
        return {path for key, item in value.items()
                for path in {prefix + key} | _key_paths(item, f"{prefix}{key}/")}
    if isinstance(value, list):
        return set().union(*(_key_paths(item, prefix + "[]/") for item in value))
    return set()


_RECT_OK = ("status modes modes/[]/family modes/[]/m modes/[]/n modes/[]/k_x_per_um "
            "modes/[]/k_y_per_um modes/[]/k_z_per_um modes/[]/cutoff_thz")

# Every key of each command's `ok` payload as `run` prints it. A field added
# to a result dataclass that a payload block is built from shows up here.
OK_KEY_PATHS = {
    "dispersion": "status crystal axis wavelength_um refractive_index "
                  "wavevector_per_um poling_period_um",
    "phasematch sweep": "status crystal points points/[]/pump_nm "
                        "points/[]/signal_nm solved",
    "fit-sellmeier": "status fitted uncertainties rss_nm2 rss_start_nm2 "
                     "average_error_nm n_points converged iterations",
    "jsa": "status grid_csv joint_fit joint_fit/signal_center_phz "
           "joint_fit/idler_center_phz joint_fit/signal_sigma_phz "
           "joint_fit/idler_sigma_phz joint_fit/pearson signal_marginal_fit "
           "signal_marginal_fit/center_phz signal_marginal_fit/fwhm_phz",
    "fiber": "status method time_grid_csv dispersion_scale_ns_per_phz "
             "far_field_parameter time_stats time_stats/tau_s_ns "
             "time_stats/tau_i_ns time_stats/pearson_t mapped_frequency_stats "
             "mapped_frequency_stats/tau_s_ns mapped_frequency_stats/tau_i_ns "
             "mapped_frequency_stats/pearson_t",
    "rectguide hollow": _RECT_OK,
    "rectguide dielectric": _RECT_OK,
    "bentguide solve": "status count_estimate modes modes/[]/p modes/[]/q "
                       "modes/[]/parity modes/[]/beta_w_per_um "
                       "modes/[]/beta_s_per_um modes/[]/h_per_um modes/[]/m "
                       "modes/[]/gamma_rad modes/[]/n_eff modes/[]/mean_radius_um "
                       "modes/[]/physical",
    "stats g2": "status state mean variance g2 classification",
    "validate": "status diagnostics",
}


@pytest.mark.parametrize("value,expected", [
    (np.float64(0.1), 0.1), (np.float32(0.5), 0.5), (np.int64(7), 7),
    (np.bool_(True), True), (np.array(2.5), 2.5), (np.array([1, 2]), [1, 2]),
    (np.array([0.25, np.nan]), [0.25, float("nan")]),
], ids=["float64", "float32", "int64", "bool_", "0-d", "1-d", "1-d-nan"])
def test_round_sig_numpy_values(value, expected):
    def types(v):
        return [types(item) for item in v] if isinstance(v, list) else type(v)

    out = cli._round_sig(value)
    assert types(out) == types(expected)  # Python values, not numpy ones
    assert json.dumps(out) == json.dumps(expected)


class TestPayloads:
    """Commands return their payloads; `run` alone prints, once."""

    @staticmethod
    def _argv(case, capsys, tmp_path, jsa_scenario):
        if case == "fit-sellmeier":
            cli.run(_command_argv("phasematch sweep", tmp_path, jsa_scenario))
            capsys.readouterr()
        return _command_argv(case, tmp_path, jsa_scenario)

    @pytest.mark.parametrize("case", list(OK_KEY_PATHS))
    def test_command_returns_payload_and_run_prints_it(self, capsys, tmp_path,
                                                        jsa_scenario, case):
        argv = self._argv(case, capsys, tmp_path, jsa_scenario)
        args = cli._build_parser().parse_args(argv)
        payload = args.func(args)
        assert isinstance(payload, dict)
        assert capsys.readouterr() == ("", "")

        code = cli.run(argv)
        captured = capsys.readouterr()
        assert code == cli.EXIT_OK
        assert captured.err == ""
        printed = json.loads(captured.out)  # exactly one JSON document
        assert printed == json.loads(json.dumps(
            cli._round_sig({"status": "ok", **payload})))
        assert _key_paths(printed) == set(OK_KEY_PATHS[case].split())

    @pytest.mark.parametrize("case,status,code", [
        ("unknown crystal", "validation-error", cli.EXIT_VALIDATION),
        ("zero dispersion", "solver-error", cli.EXIT_SOLVER)])
    def test_errors_raise_and_run_prints_once(self, capsys, tmp_path, jsa_scenario,
                                              case, status, code):
        path, scenario = jsa_scenario
        fiber = tmp_path / "fiber0.json"
        fiber.write_text(json.dumps(dict(scenario, fiber={
            "gvd_2beta_s2_per_m": 0.0, "length_m": 1.0e4})))
        argv = {"unknown crystal": ["dispersion", "--crystal", "nope",
                                    "--wavelength-um", "0.8"],
                "zero dispersion": ["fiber", "--scenario", str(fiber)]}[case]
        args = cli._build_parser().parse_args(argv)
        with pytest.raises(PhotonkitError):
            args.func(args)
        assert capsys.readouterr() == ("", "")

        assert cli.run(argv) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["status"] == status
