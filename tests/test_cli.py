import argparse
import dataclasses
import json

import numpy as np
import pytest

from mtnpass import verify
from mtnpass.cli import build_parser, main
from mtnpass.driver import SolveConfig

CAMEL_A = "0.0898,-0.7126"
CAMEL_B = "-0.0898,0.7126"


def run_cli(*argv):
    return main(list(argv))


class TestSolveCommand:
    def test_camel_solve_success(self, tmp_path):
        code = run_cli("solve", "--function", "six_hump_camel",
                       "--a", CAMEL_A, "--b", CAMEL_B,
                       "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["report"]["status"] == "SaddleFound"
        assert report["report"]["morse_index"] == 1
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert len(trace["records"]) >= 1

    def test_negative_point_values_accepted(self, tmp_path):
        # invocation with a space before the leading minus of the point value
        code = run_cli("solve", "--function", "six_hump_camel",
                       "--a", CAMEL_A, "--b", CAMEL_B, "--out", str(tmp_path))
        assert code == 0

    def test_quadratic_model_solve(self, tmp_path):
        model = {"H": [[1.0, 0.0], [0.0, -1.0]], "g": [0.0, 0.0], "c": 0.0}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code = run_cli("solve", "--function", "quadratic",
                       "--model", str(path), "--a", "1,2", "--b", "1,-2",
                       "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert np.linalg.norm(np.array(report["report"]["x"])) <= 1e-8

    def test_missing_endpoints_is_usage_error(self, tmp_path):
        code = run_cli("solve", "--function", "six_hump_camel",
                       "--out", str(tmp_path))
        assert code == 2

    def test_unknown_function_is_usage_error(self, tmp_path):
        code = run_cli("solve", "--function", "nope", "--a", "0,0",
                       "--b", "1,1", "--out", str(tmp_path))
        assert code == 2

    def test_malformed_point_is_usage_error(self, tmp_path):
        code = run_cli("solve", "--function", "six_hump_camel",
                       "--a", "abc", "--b", "1,1", "--out", str(tmp_path))
        assert code == 2

    @pytest.mark.parametrize("flag", ["--gtol", "--xtol", "--radius"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_nonfinite_tolerance_is_usage_error(self, tmp_path, flag, value):
        code = run_cli("solve", "--function", "six_hump_camel",
                       "--a", CAMEL_A, "--b", CAMEL_B, flag, value,
                       "--out", str(tmp_path))
        assert code == 2
        assert not (tmp_path / "report.json").exists()

    def test_xtol_is_gone(self, tmp_path):
        # The endpoint-gap stop and its tolerance were removed: the flag and
        # the config key are both usage errors.
        assert run_cli("solve", "--function", "six_hump_camel", "--a", CAMEL_A,
                       "--b", CAMEL_B, "--xtol", "1e-6",
                       "--out", str(tmp_path)) == 2
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"function": "six_hump_camel",
                                    "a": CAMEL_A, "b": CAMEL_B, "xtol": 1e-6,
                                    "out": str(tmp_path)}))
        assert run_cli("solve", "--config", str(path)) == 2
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("point", ["nan,0", "inf,0", "0,-inf"])
    def test_nonfinite_endpoint_is_usage_error(self, tmp_path, point):
        for a, b in ((point, CAMEL_B), (CAMEL_A, point)):
            code = run_cli("solve", "--function", "six_hump_camel",
                           "--a", a, "--b", b, "--out", str(tmp_path))
            assert code == 2
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"function": "six_hump_camel",
                                    "a": [float("nan"), 0.0], "b": CAMEL_B,
                                    "out": str(tmp_path)}))
        assert run_cli("solve", "--config", str(path)) == 2

    @pytest.mark.parametrize("point", ["-inf,0", "-nan,0", "-Inf,0"])
    def test_negative_nonfinite_value_joins_its_option(self, tmp_path, capsys,
                                                       point):
        # Unjoined, "--a -inf,0" must reach the coordinate check, not stop
        # argparse with "expected one argument".
        code = run_cli("solve", "--function", "six_hump_camel", "--a", point,
                       "--b", CAMEL_B, "--out", str(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert "coordinates must be finite" in err
        assert "expected one argument" not in err

    def test_nonconvergent_run_exits_one(self, tmp_path):
        # endpoints whose chord chases a local max: honest breakdown
        code = run_cli("solve", "--function", "six_hump_camel",
                       "--a", "0.0898,-0.7126", "--b", "1.6071,0.5687",
                       "--out", str(tmp_path))
        assert code == 1

    def test_endpoints_outside_the_region_exit_one(self, tmp_path, capsys):
        code = run_cli("solve", "--function", "six_hump_camel",
                       "--a", CAMEL_A, "--b", CAMEL_B, "--radius", "0.05",
                       "--out", str(tmp_path))
        assert code == 1
        assert "outside the trust region" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_config_file(self, tmp_path):
        cfg = {"function": "six_hump_camel",
               "a": [0.0898, -0.7126], "b": [-0.0898, 0.7126],
               "out": str(tmp_path),
               "grid": {"bounds": [-2, 2, -1.5, 1.5], "resolution": 21}}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("solve", "--config", str(path)) == 0
        assert (tmp_path / "trace.json").exists()
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert len(lines) == 1 + 21 * 21
        assert (tmp_path / "grid_trace.csv").exists()

    def test_config_bad_grid_rejected(self, tmp_path):
        cfg = {"function": "six_hump_camel", "a": [0.0898, -0.7126],
               "b": [-0.0898, 0.7126], "out": str(tmp_path),
               "grid": {"bounds": [2, -2, -1, 1], "resolution": 21}}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("solve", "--config", str(path)) == 2

    def test_config_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"function": "six_hump_camel",
                                    "a": [0, 0], "b": [1, 1],
                                    "bogus": True}))
        assert run_cli("solve", "--config", str(path)) == 2

    @pytest.mark.parametrize("override", [
        {"a": ["x", 1]},
        {"grid": {"bounds": ["x", 2, -1.5, 1.5], "resolution": 21}},
        {"grid": {"bounds": [-2, 2, -1.5, 1.5], "resolution": "many"}},
        {"out": 5},
        {"function": ["six_hump_camel"]},
        {"max_iter": 2.7},
        {"seed": 1.5},
        {"max_iter": True},
        {"seed": True},
        {"grid": {"bounds": [-2, 2, -1.5, 1.5], "resolution": 21.5}},
        {"gtol": True},
        {"radius": True},
        {"a": [True, -0.7126]},
        {"b": True},
        {"grid": {"bounds": [True, 2, -1.5, 1.5], "resolution": 21}},
    ], ids=["point", "grid-bounds", "grid-resolution", "out", "function",
            "max_iter-fraction", "seed-fraction", "max_iter-bool", "seed-bool",
            "grid-resolution-fraction", "gtol-bool", "radius-bool",
            "point-coordinate-bool", "point-bool", "grid-bounds-bool"])
    def test_config_values_of_wrong_type_are_usage_errors(self, tmp_path, override):
        cfg = {"function": "six_hump_camel", "a": [0.0898, -0.7126],
               "b": [-0.0898, 0.7126], "out": str(tmp_path), **override}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("solve", "--config", str(path)) == 2

    def test_nonfinite_model_is_usage_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"H": [[1.0, 0.0], [0.0, NaN]], "g": [0.0, 0.0], '
                        '"c": 0.0}')
        code = run_cli("solve", "--model", str(path), "--a", "1,2",
                       "--b", "1,-2", "--out", str(tmp_path))
        assert code == 2
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("override", [{"c": [0.0]}, {"g": {"x": 0.0}},
                                          {"H": "identity"}])
    def test_model_coefficient_of_wrong_type_is_usage_error(self, tmp_path,
                                                            override):
        doc = {"H": [[1.0, 0.0], [0.0, -1.0]], "g": [0.0, 0.0], "c": 0.0}
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**doc, **override}))
        code = run_cli("solve", "--model", str(path), "--a", "1,2",
                       "--b", "1,-2", "--out", str(tmp_path))
        assert code == 2

    def test_unset_settings_are_solve_config_defaults(self, tmp_path):
        assert run_cli("solve", "--function", "six_hump_camel", "--a", CAMEL_A,
                       "--b", CAMEL_B, "--out", str(tmp_path)) == 0
        inputs = json.loads((tmp_path / "report.json").read_text())["inputs"]
        settings = {k: inputs[k] for k in ("gtol", "max_iter", "radius", "seed")}
        assert settings == dataclasses.asdict(SolveConfig())

    @pytest.mark.parametrize("key", ["gtol", "max_iter"])
    def test_null_setting_is_usage_error(self, tmp_path, key):
        # A key set to null is not an absent key: it is refused, not
        # replaced by the default.
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"function": "six_hump_camel", "a": CAMEL_A,
                                    "b": CAMEL_B, "out": str(tmp_path),
                                    key: None}))
        assert run_cli("solve", "--config", str(path)) == 2
        assert not (tmp_path / "report.json").exists()

    def test_flags_override_config(self, tmp_path):
        cfg = {"function": "six_hump_camel", "a": [5.0, 5.0], "b": [6.0, 6.0],
               "out": str(tmp_path)}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(cfg))
        code = run_cli("solve", "--config", str(path),
                       "--a", CAMEL_A, "--b", CAMEL_B)
        assert code == 0


class TestContourCommand:
    def test_grid_shape_and_values(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = run_cli("contour", "--function", "six_hump_camel",
                       "--bounds", "-2,2,-2,2", "--resolution", "101",
                       "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x1,x2,f"
        assert len(lines) == 1 + 101 * 101
        row = [l for l in lines[1:] if l.startswith("0.0,0.0,")]
        assert len(row) == 1
        assert float(row[0].split(",")[2]) == 0.0

    def test_tightness_sign(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = run_cli("contour", "--function", "tightness2d",
                       "--bounds", "-1.2,1.2,-1.2,1.2", "--resolution", "25",
                       "--out", str(out))
        assert code == 0
        grid = {}
        for line in out.read_text().splitlines()[1:]:
            x1, x2, f = (float(p) for p in line.split(","))
            grid[(round(x1, 6), round(x2, 6))] = f
        assert grid[(1.0, 0.5)] == pytest.approx(-0.375)

    def test_resolution_one_rejected(self, tmp_path):
        code = run_cli("contour", "--function", "six_hump_camel",
                       "--bounds", "-2,2,-2,2", "--resolution", "1",
                       "--out", str(tmp_path / "grid.csv"))
        assert code == 2

    def test_bad_bounds_rejected(self, tmp_path):
        code = run_cli("contour", "--function", "six_hump_camel",
                       "--bounds", "2,-2,-2,2", "--resolution", "11",
                       "--out", str(tmp_path / "grid.csv"))
        assert code == 2

    @pytest.mark.parametrize("bounds", ["-inf,2,-2,2", "-2,2,-2,nan"])
    def test_nonfinite_bounds_rejected(self, tmp_path, bounds):
        code = run_cli("contour", "--function", "six_hump_camel",
                       f"--bounds={bounds}", "--resolution", "11",
                       "--out", str(tmp_path / "grid.csv"))
        assert code == 2
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize("bounds", ["-inf,2,-2,2", "-nan,2,-2,2"])
    def test_unjoined_nonfinite_bounds_rejected(self, tmp_path, capsys, bounds):
        code = run_cli("contour", "--function", "six_hump_camel",
                       "--bounds", bounds, "--resolution", "11",
                       "--out", str(tmp_path / "grid.csv"))
        assert code == 2
        assert "coordinates must be finite" in capsys.readouterr().err
        assert not (tmp_path / "grid.csv").exists()

    def test_trace_polyline(self, tmp_path):
        assert run_cli("solve", "--function", "six_hump_camel",
                       "--a", CAMEL_A, "--b", CAMEL_B,
                       "--out", str(tmp_path)) == 0
        out = tmp_path / "grid.csv"
        code = run_cli("contour", "--function", "six_hump_camel",
                       "--bounds", "-2,2,-2,2", "--resolution", "11",
                       "--out", str(out),
                       "--trace", str(tmp_path / "trace.json"))
        assert code == 0
        lines = (tmp_path / "grid_trace.csv").read_text().splitlines()
        assert lines[0] == "iter,kind,x1,x2,l,g"
        assert len(lines) >= 2

    @pytest.mark.parametrize("doc", [
        '{"records": [{"step": "Init", "level": 0.0, "gap": 1.0, '
        '"x": [0.0, 0.0]}]}',
        '{"records": 5}',
        '[{"iteration": 0, "step": "Init", "level": 0.0, "gap": 1.0, '
        '"x": [0.0, 0.0]}]',
        '{"records": [{"iteration": 0, "step": "Init", "level": 0.0, '
        '"gap": 1.0, "x": [0.0]}]}',
        '{"records": [{"iteration": 0, "step": "Init", "level": "low", '
        '"gap": 1.0, "x": [0.0, 0.0]}]}',
        '{"inputs": {}}',
        '{"records": [',
    ], ids=["no-iteration", "records-not-a-list", "top-level-list",
            "x-of-length-1", "level-not-a-number", "no-records", "not-json"])
    def test_malformed_trace_is_usage_error_before_writing(self, tmp_path, doc):
        trace = tmp_path / "trace.json"
        trace.write_text(doc)
        out = tmp_path / "grid.csv"
        code = run_cli("contour", "--function", "six_hump_camel",
                       "--bounds", "-2,2,-2,2", "--resolution", "11",
                       "--out", str(out), "--trace", str(trace))
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.json"]


class TestVerifyCommand:
    def test_quadratic_oracle(self, tmp_path):
        code = run_cli("verify", "--suite", "quadratic-oracle", "--seed", "0",
                       "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "quadratic-oracle.json").read_text())
        assert report["failures"] == 0

    def test_suite_choices_are_the_verify_suites(self):
        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction))
        suite = next(a for a in commands.choices["verify"]._actions
                     if a.dest == "suite")
        assert tuple(suite.choices) == verify.SUITES

    def test_unknown_suite_exits_two(self, tmp_path):
        assert run_cli("verify", "--suite", "nope", "--out", str(tmp_path)) == 2


class TestDeterminism:
    def test_solve_reports_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert run_cli("solve", "--function", "six_hump_camel",
                           "--a", CAMEL_A, "--b", CAMEL_B, "--seed", "0",
                           "--out", str(d)) == 0
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
        assert (d1 / "trace.json").read_bytes() == (d2 / "trace.json").read_bytes()

    def test_verify_reports_byte_identical(self, tmp_path):
        d1, d2 = tmp_path / "v1", tmp_path / "v2"
        for d in (d1, d2):
            assert run_cli("verify", "--suite", "quadratic-oracle",
                           "--seed", "3", "--out", str(d)) == 0
        assert (d1 / "quadratic-oracle.json").read_bytes() == \
            (d2 / "quadratic-oracle.json").read_bytes()

    def test_contour_byte_identical(self, tmp_path):
        f1, f2 = tmp_path / "g1.csv", tmp_path / "g2.csv"
        for f in (f1, f2):
            assert run_cli("contour", "--function", "six_hump_camel",
                           "--bounds", "-2,2,-2,2", "--resolution", "31",
                           "--out", str(f)) == 0
        assert f1.read_bytes() == f2.read_bytes()
