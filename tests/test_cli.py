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


# exponents that are not finite, and the refusal that names each; 1e400
# overflows to inf when parsed
NON_FINITE_EXPONENTS = [
    (f"{head}={value}", f"{name} must be positive and finite, got {parsed}")
    for head, name in (("riesz:m", "riesz exponent m"),
                       ("pframe:p", "p-frame exponent p"))
    for value, parsed in (("nan", "nan"), ("inf", "inf"), ("1e400", "inf"))]


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

    def test_non_utf8_file_is_format_error(self, capsys, tmp_path):
        path = tmp_path / "bin.json"
        path.write_bytes(b"\xff\xfe\x00{\x00}")
        status, data = run_json(capsys, ["verify", "--code", str(path), "--k", "1"])
        assert status == 1
        assert data["error"].startswith("not UTF-8 text")

    @pytest.mark.parametrize("dim", ["3.7", "true", '"3"'])
    def test_dim_not_an_integer_is_format_error(self, capsys, tmp_path, dim):
        path = tmp_path / "code.json"
        path.write_text('{"dim": %s, "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}' % dim)
        status, data = run_json(capsys, ["verify", "--code", str(path), "--k", "1"])
        assert status == 1
        assert data["error"] == '"dim" must be an integer, got %r' % json.loads(dim)

    def test_integral_float_dim_is_accepted(self, capsys, tmp_path):
        path = tmp_path / "code.json"
        path.write_text('{"dim": 3.0, "points": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}')
        status, data = run_json(capsys, ["verify", "--code", str(path), "--k", "1"])
        assert status == 0
        assert data["is_design"] is True

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

    @pytest.mark.parametrize("pot,error", NON_FINITE_EXPONENTS)
    def test_non_finite_exponent_is_precondition(self, capsys, pot, error):
        status, data = run_json(capsys, [
            "bounds", "--n", "3", "--k", "2", "--N", "6", "--pot", pot,
            "--s", "0.9"])
        assert status == 2
        assert data["error"] == error
        assert "lower" not in data and "upper" not in data


class TestPolarize:
    def test_min_max_and_inf_serialization(self, capsys):
        status, data = run_json(capsys, [
            "polarize", "--code", "catalog:cube_half", "--pot", "riesz:m=2"])
        assert status == 0
        assert data["minimum"]["value"] == pytest.approx(6.0, abs=1e-8)
        assert data["maximum"]["value"] == "inf"

    @pytest.mark.parametrize("pot,error", NON_FINITE_EXPONENTS)
    def test_non_finite_exponent_is_precondition(self, capsys, pot, error):
        status, data = run_json(capsys, [
            "polarize", "--code", "catalog:cube_half", "--pot", pot])
        assert status == 2
        assert data["error"] == error
        assert "minimum" not in data and "maximum" not in data

    def test_direction_min_only(self, capsys):
        status, data = run_json(capsys, [
            "polarize", "--code", "catalog:onb:3", "--pot", "monomial:k=1",
            "--direction", "min"])
        assert status == 0
        assert "maximum" not in data
        assert data["minimum"]["value"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("restarts", ["0", "-2"])
    def test_restarts_below_one_refused(self, capsys, restarts):
        status, data = run_json(capsys, [
            "polarize", "--code", "catalog:cube_half", "--pot", "cosh",
            "--restarts", restarts])
        assert status == 2
        assert data["error"] == f"restarts must be >= 1, got {restarts}"
        assert "minimum" not in data and "maximum" not in data

    def test_few_restarts_run_the_default_search(self, capsys):
        # at most 128 random directions are the default 128
        argv = ["polarize", "--code", "catalog:cube_half", "--pot", "cosh"]
        _, default = run_json(capsys, argv)
        status, few = run_json(capsys, argv + ["--restarts", "3"])
        assert status == 0
        assert few.pop("config") == {**default.pop("config"), "restarts": 3}
        assert few == default

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

    @pytest.mark.parametrize("n,k", [(3, 7), (3, 8), (3, 12), (8, 20)])
    def test_default_grid_above_threshold_096(self, capsys, n, k):
        # the top Gauss node exceeds 0.96, so [low + 0.02, 0.98] would not fit
        status, data = run_json(capsys, [
            "report", "--n", str(n), "--k", str(k), "--N", "10", "--pot",
            "cosh", "--points", "3"])
        assert status == 0
        low = data["anchor_threshold"]
        assert low > 0.96
        s = [row["s"] for row in data["rows"]]
        assert low < s[0] < s[-1] < 1.0
        assert all(row["one_sided_margin"] >= -1e-9 for row in data["rows"])

    def test_default_grid_unchanged_where_it_fits(self, capsys):
        argv = ["report", "--n", "3", "--k", "2", "--N", "6", "--pot",
                "riesz:m=1", "--points", "4"]
        status, data = run_json(capsys, argv)
        assert status == 0
        low = data["anchor_threshold"]
        assert [row["s"] for row in data["rows"]] == \
            np.linspace(low + 0.02, 0.98, 4).tolist()
        status, explicit = run_json(capsys, argv + [
            "--s-min", repr(low + 0.02), "--s-max", "0.98"])
        assert status == 0
        assert explicit["rows"] == data["rows"]

    def test_bad_grid_rejected(self, capsys):
        status, data = run_json(capsys, [
            "report", "--n", "3", "--k", "1", "--N", "4", "--pot", "cosh",
            "--s-min", "0.2", "--s-max", "0.9"])
        assert status == 2

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_points_below_one_is_precondition(self, capsys, points):
        status, data = run_json(capsys, [
            "report", "--n", "3", "--k", "2", "--N", "6", "--pot", "cosh",
            "--points", points])
        assert status == 2
        assert "--points" in data["error"]
        assert "rows" not in data


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


# one call of each kind; main shares one parser between all of them
SHARED_PARSER_CALLS = [
    ["quad", "--n", "3", "--k", "2", "--kind", "lambda", "--s", "0.9"],
    ["quad", "--n", "3", "--k", "2", "--kind", "beta"],
    ["verify", "--code", "catalog:cube_half", "--k", "1"],
    ["bounds", "--n", "3", "--k", "2", "--N", "6", "--pot", "cosh",
     "--s", "0.9"],
    ["bounds", "--n", "3", "--k", "2", "--N", "6", "--pot", "cosh"],
    ["polarize", "--code", "catalog:cube_half", "--pot", "cosh",
     "--restarts", "3"],
    ["polarize", "--code", "catalog:cube_half", "--pot", "cosh"],
    ["report", "--n", "3", "--k", "1", "--N", "4", "--pot", "cosh",
     "--points", "3", "--csv"],
    ["report", "--n", "3", "--k", "1", "--N", "4", "--pot", "cosh",
     "--points", "3"],
    ["catalog", "--dump", "cube_half"],
    ["quad", "--n", "3", "--k", "1", "--kind", "lambda"],
    ["quad", "--n", "3", "--k", "1", "--kind", "beta", "--frob", "1"],
]


class TestSharedParser:
    @staticmethod
    def call(capsys, argv):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    def test_built_once(self, monkeypatch, capsys):
        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        cli._parser.cache_clear()
        for argv in SHARED_PARSER_CALLS[:3]:
            self.call(capsys, argv)
        assert len(built) == 1

    def test_calls_leave_no_state(self, capsys):
        forward = {i: self.call(capsys, argv)
                   for i, argv in enumerate(SHARED_PARSER_CALLS)}
        backward = {i: self.call(capsys, SHARED_PARSER_CALLS[i])
                    for i in reversed(range(len(SHARED_PARSER_CALLS)))}
        assert backward == forward
        statuses = [forward[i][0] for i in range(len(SHARED_PARSER_CALLS))]
        assert statuses == [0] * 10 + [2, 2]
        assert "error" in json.loads(forward[10][1])
        assert forward[11][1] == ""
        # after every other call, in-process output matches a fresh process
        for i in (3, 8, 10):
            proc = subprocess.run(
                [sys.executable, "-m", "kkpolar.cli", *SHARED_PARSER_CALLS[i]],
                capture_output=True, text=True)
            assert (proc.returncode, proc.stdout) == forward[i][:2]
