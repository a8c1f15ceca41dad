"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from kkpolar import cli  # noqa: E402


def run_cli(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return json.loads(buf.getvalue())


def bounds_case(s=None):
    params = {"n": 4, "k": 3, "N": 24, "pot": "cosh"}
    argv = ["bounds", "--n", "4", "--k", "3", "--N", "24", "--pot", "cosh"]
    if s is not None:
        params["s"] = s
        argv += ["--s", repr(s)]
    return workloads.Case("bounds", argv, params)


@pytest.fixture(scope="module")
def random_code(tmp_path_factory):
    block = workloads.make_block("random_codes", 3, 0,
                                 tmp_path_factory.mktemp("codes"))
    case = min((c for c in block if c.kind == "polarize_random"),
               key=lambda c: c.params["N"])
    points = worker.load_points(case.params["path"])
    ref = checks.sampled_reference(points, case.params["pot"], 3)
    return case, points, ref


def test_checker_accepts_real_bounds_output():
    for case in (bounds_case(), bounds_case(s=0.95)):
        out = run_cli(case.argv)
        assert checks.check_bounds(out, case.params) == []


def test_checker_flags_perturbed_bound_value():
    case = bounds_case()
    out = run_cli(case.argv)
    out["lower"]["bound_value"] *= 1.0 + 1e-8
    assert any("bound_value" in p for p in checks.check_bounds(out, case.params))


def test_checker_flags_exactness_residual_above_declared_bound():
    case = bounds_case(s=0.95)
    out = run_cli(case.argv)
    out["upper"]["exactness_residual"] = 2e-11
    assert any("exactness residual" in p
               for p in checks.check_bounds(out, case.params))


def test_checker_flags_minimum_above_sampled_minimum(random_code):
    case, points, ref = random_code
    out = run_cli(case.argv)
    assert checks.check_random(out, case.params, points, ref, case.kind, []) == []
    bad = copy.deepcopy(out)
    bad["minimum"]["value"] = ref["min"] + 1e-3 * abs(ref["min"])
    problems = checks.check_random(bad, case.params, points, ref, case.kind, [])
    assert any("above sampled minimum" in p for p in problems)


def test_covering_radius_above_sampled_minimax_is_a_note(random_code):
    case, points, ref = random_code
    certify = workloads.Case("certify_random",
                             ["certify", "--code", case.params["path"], "--k",
                              "1", "--pot", case.params["pot"]], case.params)
    out = run_cli(certify.argv)
    out["report"]["covering_radius"] = ref["minimax"] + 1e-3
    notes = []
    assert checks.check_random(out, certify.params, points, ref,
                               certify.kind, notes) == []
    assert len(notes) == 1 and "covering radius" in notes[0]


def test_checker_flags_nonzero_exit():
    case = bounds_case()
    out = json.dumps(run_cli(case.argv))
    assert checks.check_output(case, 0, out) == []
    assert checks.check_output(case, 2, out) == ["exit status 2"]


def test_polynomial_potentials_hit_the_design_value():
    case = workloads.Case(
        "bounds", ["bounds", "--n", "5", "--k", "3", "--N", "7",
                   "--pot", "pframe:p=4"],
        {"n": 5, "k": 3, "N": 7, "pot": "pframe:p=4"})
    out = run_cli(case.argv)
    assert checks.check_bounds(out, case.params) == []
    out["upper"]["bound_value"] += 1e-6
    assert any("N*c_2j" in p for p in checks.check_bounds(out, case.params))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name, tmp_path):
    def argvs(seed, index, tag):
        (tmp_path / tag).mkdir(exist_ok=True)
        block = workloads.make_block(name, seed, index, tmp_path / tag)
        return [[a.replace(str(tmp_path / tag), "DIR") for a in c.argv]
                for c in block]

    first = argvs(11, 0, "a")
    assert first == argvs(11, 0, "b")
    assert first != argvs(12, 0, "c")
    if name != "certify_catalog":
        assert first != argvs(11, 1, "d")

    for path in sorted((tmp_path / "a").glob("*.json")):
        assert path.read_text() == (tmp_path / "b" / path.name).read_text()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generated_inputs_are_admissible(name, tmp_path):
    for case in workloads.make_block(name, 5, 0, tmp_path):
        p = case.params
        if "s" in p:
            assert workloads.largest_gauss_node(p["n"], p["k"]) < p["s"] < 1.0
        if case.kind == "report":
            low = workloads.largest_gauss_node(p["n"], p["k"])
            assert low < p["s_min"] < p["s_max"] < 1.0
        if p.get("pot", "").startswith(("riesz", "arcsine")) and case.kind == "bounds":
            assert "s" in p


def test_traced_self_times_add_up_to_traced_wall_time(tmp_path):
    from checks import check_output

    pool = [bounds_case(), bounds_case(s=0.95),
            workloads.Case("certify_catalog",
                           ["certify", "--code", "catalog:cube_half", "--k", "1",
                            "--pot", "cosh"],
                           {"code": "cube_half", "k": 1, "pot": "cosh"})]
    class FixedStream(worker.Stream):
        def block(self, index):
            return [(case, None) for case in pool]

    stream = FixedStream("bounds_sweep", 0, tmp_path)
    original_main = cli.main
    result = worker.traced(cli, stream, check_output, 0.0, tmp_path / "spans.json")
    assert cli.main is original_main
    info = result["info"]
    assert info["layer_self_sum_s"] == pytest.approx(
        info["traced_wall_s"] - info["harness_s"], rel=1e-9, abs=1e-9)
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert {span[3] for span in spans} >= {"cli.main", "polarization.extremize",
                                           "sphere_opt.nm_polish",
                                           "quadrature.rule_alpha"}
    metrics = result["metrics"]
    assert metrics["cli.calls"][0] == len(pool)
    assert metrics["sphere_opt.polish_calls"][0] > 0
    assert metrics["potentials.g_scalar_calls"][0] > 0


def test_benchmark_file_names_every_metric_the_run_prints(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    phase = worker.Phase(latencies=[0.01, 0.02], ok=[True, True],
                         calibration=[0.01], busy_s=0.03, wall_s=0.03,
                         cpu_s=0.03, blocks=1)
    end_to_end = set(worker.end_to_end(phase)["metrics"]) | {"setup_s"}
    assert end_to_end == {m["name"] for m in spec["end_to_end"]}
    per_layer = set(tracer.layer_metrics(tracer.Tracer(), 1)) | {"trace_overhead_frac"}
    assert per_layer == {m["name"] for m in spec["per_layer"]}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.LISTED_WORKLOADS)
