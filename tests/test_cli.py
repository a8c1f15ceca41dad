"""CLI dispatch, JSON output, exit codes, and determinism."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from kkpolar import cli
from kkpolar.cli import main
from kkpolar.codes import SphericalCode, catalog, save_code
from kkpolar.errors import NumericalDegeneracyError

from helpers import nearly_flat_code


def run_cli(capsys, argv):
    status = main(argv)
    out = capsys.readouterr().out
    return status, out


def run_json(capsys, argv):
    status, out = run_cli(capsys, argv)
    return status, json.loads(out)


class TestQuad:
    def test_beta_closed_form(self, capsys):
        status, data = run_json(
            capsys, ["quad", "--n", "3", "--k", "1", "--kind", "beta"])
        assert status == 0
        assert data["command"] == "quad"
        assert data["config"]["kind"] == "beta"
        assert data["rule"]["nodes"] == pytest.approx([-1.0, 0.0, 1.0])
        assert data["rule"]["weights"] == pytest.approx(
            [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0])
        assert data["max_monomial_residual"] <= 1e-11

    def test_alpha_closed_form(self, capsys):
        status, data = run_json(
            capsys, ["quad", "--n", "4", "--k", "1", "--kind", "alpha"])
        assert status == 0
        assert data["rule"]["nodes"] == pytest.approx([-0.5, 0.5])

    def test_lambda_needs_s(self, capsys):
        status, data = run_json(
            capsys, ["quad", "--n", "3", "--k", "1", "--kind", "lambda"])
        assert status == 2
        assert "--s" in data["error"]

    def test_lambda_with_s(self, capsys):
        status, data = run_json(
            capsys,
            ["quad", "--n", "3", "--k", "1", "--kind", "lambda", "--s", "0.8"])
        assert status == 0
        assert data["rule"]["s"] == 0.8
        assert data["rule"]["nodes"] == pytest.approx([-0.8, 0.0, 0.8])

    def test_inadmissible_s_is_precondition(self, capsys):
        status, data = run_json(
            capsys,
            ["quad", "--n", "3", "--k", "1", "--kind", "lambda", "--s", "0.5"])
        assert status == 2
        assert "error" in data


class TestVerify:
    def test_catalog_design(self, capsys):
        status, data = run_json(
            capsys, ["verify", "--code", "catalog:cube_half", "--k", "1"])
        assert status == 0
        assert data["is_design"] is True
        assert data["N"] == 4

    def test_file_code(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((5, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        path = tmp_path / "code.json"
        save_code(SphericalCode.from_points(pts), path)
        status, data = run_json(capsys, ["verify", "--code", str(path), "--k", "1"])
        assert status == 0
        assert data["is_design"] is False

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        status, data = run_json(
            capsys, ["verify", "--code", str(tmp_path / "nope.json"), "--k", "1"])
        assert status == 1
        assert "error" in data

    @pytest.mark.parametrize("command", [["verify", "--k", "1"],
                                         ["polarize", "--pot", "cosh"]])
    def test_nan_row_is_format_error(self, capsys, tmp_path, command):
        path = tmp_path / "nan.json"
        path.write_text('{"dim": 3, "points": [[NaN, 0, 0], [0, 1, 0]]}')
        status, data = run_json(capsys, command + ["--code", str(path)])
        assert status == 1
        assert "row 0" in data["error"]

    def test_malformed_file_is_format_error(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        path.write_text("{not json")
        status, data = run_json(capsys, ["verify", "--code", str(path), "--k", "1"])
        assert status == 1
        assert data["error"].startswith("not valid JSON")

    def test_polygon_31_is_a_15_15_design(self, capsys):
        status, data = run_json(
            capsys, ["verify", "--code", "catalog:polygon_half:31", "--k", "15"])
        assert status == 0
        assert data["is_design"] is True
        assert data["certificate"]["max_even_moment_residual"] <= 1e-9

    def test_unknown_catalog_name_is_precondition(self, capsys):
        status, data = run_json(
            capsys, ["verify", "--code", "catalog:dodecahedron", "--k", "1"])
        assert status == 2


class TestBounds:
    def test_pframe2_sandwich_collapses(self, capsys):
        status, data = run_json(capsys, [
            "bounds", "--n", "3", "--k", "1", "--N", "4", "--pot", "pframe:p=2"])
        assert status == 0
        assert data["lower"]["bound_value"] == pytest.approx(4.0 / 3.0)
        assert data["upper"]["bound_value"] == pytest.approx(4.0 / 3.0)
        assert data["upper"]["kind"] == "UUB_BETA"

    def test_anchored_upper_with_s(self, capsys):
        status, data = run_json(capsys, [
            "bounds", "--n", "3", "--k", "1", "--N", "4",
            "--pot", "riesz:m=2", "--s", "0.7"])
        assert status == 0
        assert data["upper"]["kind"] == "UUB_LAMBDA"
        assert data["upper"]["s"] == 0.7

    def test_riesz_without_s_is_precondition(self, capsys):
        status, data = run_json(capsys, [
            "bounds", "--n", "3", "--k", "1", "--N", "4", "--pot", "riesz:m=2"])
        assert status == 2
        assert "upper_bound_s" in data["error"]

    def test_nan_anchor_is_precondition(self, capsys):
        status, data = run_json(capsys, [
            "bounds", "--n", "3", "--k", "1", "--N", "4",
            "--pot", "riesz:m=2", "--s", "nan"])
        assert status == 2
        assert "anchor" in data["error"]

    def test_bad_potential_descriptor(self, capsys):
        status, data = run_json(capsys, [
            "bounds", "--n", "3", "--k", "1", "--N", "4", "--pot", "frobnicate"])
        assert status == 2


class TestPolarize:
    def test_min_max_and_inf_serialization(self, capsys):
        status, data = run_json(capsys, [
            "polarize", "--code", "catalog:cube_half", "--pot", "riesz:m=2"])
        assert status == 0
        assert data["minimum"]["value"] == pytest.approx(6.0, abs=1e-8)
        assert data["maximum"]["value"] == "inf"

    def test_direction_min_only(self, capsys):
        status, data = run_json(capsys, [
            "polarize", "--code", "catalog:onb:3", "--pot", "monomial:k=1",
            "--direction", "min"])
        assert status == 0
        assert "maximum" not in data
        assert data["minimum"]["value"] == pytest.approx(1.0, abs=1e-9)

    def test_seeded_runs_are_byte_identical(self, capsys):
        argv = ["polarize", "--code", "catalog:icosahedron_half",
                "--pot", "pframe:p=3", "--seed", "7"]
        _, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        assert first == second


class TestCertify:
    def test_cube_pframe4(self, capsys):
        status, data = run_json(capsys, [
            "certify", "--code", "catalog:cube_half", "--k", "1",
            "--pot", "pframe:p=4"])
        assert status == 0
        report = data["report"]
        assert report["design"]["is_design"] is True
        assert report["all_passed"] is True
        kinds = [b["kind"] for b in report["bounds"]]
        assert "ULB_ALPHA" in kinds
        assert report["covering_radius_kind"] == "exact"

    def test_nearly_flat_code_reports_upper_estimate(self, capsys, tmp_path):
        path = tmp_path / "flat.json"
        save_code(nearly_flat_code(), path)
        status, data = run_json(capsys, [
            "certify", "--code", str(path), "--k", "1", "--pot", "cosh"])
        assert status == 0
        assert data["report"]["covering_radius_kind"] == "upper_estimate"

    def test_polygon_31_monomial_15_is_certified_as_design(self, capsys):
        status, data = run_json(capsys, [
            "certify", "--code", "catalog:polygon_half:31", "--k", "15",
            "--pot", "monomial:k=15"])
        assert status == 0
        report = data["report"]
        assert report["design"]["is_design"] is True
        assert report["all_passed"] is True
        names = [c["name"] for c in report["checks"]]
        assert "monomial_min_is_average" in names
        assert [b["kind"] for b in report["bounds"]] == [
            "ULB_ALPHA", "UUB_BETA", "UUB_LAMBDA"]

    def test_numerical_failure_exits_1(self, capsys, monkeypatch):
        def fail(*args):
            raise NumericalDegeneracyError("interpolation residual too large")

        monkeypatch.setattr(cli, "lower_bound", fail)
        status, data = run_json(capsys, [
            "bounds", "--n", "3", "--k", "1", "--N", "4", "--pot", "cosh"])
        assert status == 1
        assert data["error"] == "interpolation residual too large"

    def test_seeded_runs_are_byte_identical(self, capsys):
        argv = ["certify", "--code", "catalog:onb:4", "--k", "1",
                "--pot", "monomial:k=1", "--seed", "3"]
        _, first = run_cli(capsys, argv)
        _, second = run_cli(capsys, argv)
        assert first == second


class TestCatalog:
    def test_listing(self, capsys):
        status, data = run_json(capsys, ["catalog"])
        assert status == 0
        names = [e["name"] for e in data["entries"]]
        assert "cube_half" in names and "cell24_half" in names

    def test_dump_round_trip(self, capsys, tmp_path):
        status, out = run_cli(capsys, ["catalog", "--dump", "icosahedron_half"])
        assert status == 0
        path = tmp_path / "dump.json"
        path.write_text(out)
        _, from_file = run_json(capsys, ["verify", "--code", str(path), "--k", "2"])
        _, from_name = run_json(
            capsys, ["verify", "--code", "catalog:icosahedron_half", "--k", "2"])
        del from_file["config"], from_name["config"]
        assert from_file == from_name

    def test_dump_is_the_code_file_schema(self, capsys):
        status, data = run_json(capsys, ["catalog", "--dump", "cube_half"])
        assert status == 0
        del data["command"], data["config"]
        assert data == catalog("cube_half").to_dict()

    def test_dump_unknown_name(self, capsys):
        status, data = run_json(capsys, ["catalog", "--dump", "qux"])
        assert status == 2


class TestReport:
    def test_json_rows_nondecreasing(self, capsys):
        status, data = run_json(capsys, [
            "report", "--n", "3", "--k", "1", "--N", "4", "--pot", "riesz:m=2",
            "--points", "5"])
        assert status == 0
        values = [row["bound_value"] for row in data["rows"]]
        assert values == sorted(values)
        assert "upper_bound_finite_skipped" in data
        assert data["lower_bound"] == pytest.approx(6.0)

    def test_csv_shape(self, capsys):
        status, out = run_cli(capsys, [
            "report", "--n", "3", "--k", "1", "--N", "4", "--pot", "cosh",
            "--points", "3", "--csv"])
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "s,bound_value,one_sided_margin,exactness_residual"
        assert len(lines) == 5
        for line in lines[2:]:
            s, bound, margin, residual = map(float, line.split(","))
            assert margin >= -1e-9

    def test_bad_grid_rejected(self, capsys):
        status, data = run_json(capsys, [
            "report", "--n", "3", "--k", "1", "--N", "4", "--pot", "cosh",
            "--s-min", "0.2", "--s-max", "0.9"])
        assert status == 2


class TestParsing:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["quad", "--n", "3", "--k", "1", "--kind", "beta", "--frob", "1"])
        assert err.value.code == 2

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "kkpolar.cli", "quad", "--n", "2", "--k",
             "1", "--kind", "alpha"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["rule"]["nodes"] == pytest.approx(
            [-math.sqrt(0.5), math.sqrt(0.5)])
