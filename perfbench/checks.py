"""Output checks that do not rely on the code under test.

Reference values come from scipy (Gegenbauer roots, beta functions) and
from numpy evaluations of the potentials written out here.  A check returns
a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import roots_gegenbauer

from workloads import SAMPLE_DIRECTIONS, largest_gauss_node, random_unit_rows

NODE_TOL = 1e-12
WEIGHT_SUM_TOL = 1e-11
EXACTNESS_TOL = 1e-11
MARGIN_TOL = -1e-9
VALUE_RTOL = 1e-10
BOUND_RTOL = 1e-9


def h_values(pot: str, t) -> np.ndarray:
    """h(t) for a CLI potential descriptor, evaluated in numpy."""
    t = np.abs(np.asarray(t, dtype=float))
    head, _, arg = pot.partition(":")
    value = float(arg.partition("=")[2]) if arg else None
    with np.errstate(divide="ignore"):
        if head == "monomial":
            return t ** (2 * int(value))
        if head == "pframe":
            return t ** value
        if head == "cosh":
            return np.cosh(t)
        if head == "riesz":
            out = (2.0 - 2.0 * t) ** (-value / 2.0) + (2.0 + 2.0 * t) ** (-value / 2.0)
            return np.where(t >= 1.0, np.inf, out)
        if head == "arcsine":
            return np.where(t >= 1.0, np.inf, 1.0 / np.sqrt(np.maximum(1.0 - t * t, 0.0)))
    raise ValueError(f"unknown potential {pot!r}")


def even_moment(n: int, j: int) -> float:
    """E[t^(2j)] for t the first coordinate of a uniform point on S^(n-1),
    as a ratio of beta functions."""
    return float(beta_fn(j + 0.5, (n - 1) / 2.0) / beta_fn(0.5, (n - 1) / 2.0))


def polynomial_degree(pot: str) -> int | None:
    """j when h(t) = t^(2j) (monomial:k=j or pframe:p=2j), else None."""
    head, _, arg = pot.partition(":")
    value = float(arg.partition("=")[2]) if arg else None
    if head == "monomial":
        return int(value)
    if head == "pframe" and value % 2 == 0:
        return int(value) // 2
    return None


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def check_rule(report: dict, n: int, k: int, label: str) -> list[str]:
    """Nodes against scipy, weight sum, and the report's own residuals."""
    problems = []
    nodes = np.asarray(report["nodes"], dtype=float)
    weights = np.asarray(report["weights"], dtype=float)
    kind = report["kind"]
    if kind == "ULB_ALPHA":
        ref = np.sort(roots_gegenbauer(k + 1, (n - 2) / 2.0)[0])
        if nodes.shape != ref.shape or np.max(np.abs(nodes - ref)) > NODE_TOL:
            problems.append(f"{label}: alpha nodes differ from scipy")
    elif kind in ("ULB_BETA", "UUB_BETA"):
        ref = np.concatenate([[-1.0], np.sort(roots_gegenbauer(k, n / 2.0)[0]), [1.0]])
        if nodes.shape != ref.shape or np.max(np.abs(nodes - ref)) > NODE_TOL:
            problems.append(f"{label}: beta nodes differ from scipy")
    elif kind == "UUB_LAMBDA":
        s = report["s"]
        if nodes.shape != (k + 2,) or nodes[0] != -s or nodes[-1] != s:
            problems.append(f"{label}: anchored rule is not anchored at +-s")
    else:
        problems.append(f"{label}: unknown bound kind {kind}")
    if abs(math.fsum(weights) - 1.0) > WEIGHT_SUM_TOL:
        problems.append(f"{label}: weights sum to {math.fsum(weights)!r}")
    if not float(report["exactness_residual"]) <= EXACTNESS_TOL:
        problems.append(f"{label}: exactness residual {report['exactness_residual']}")
    if not float(report["one_sided_margin"]) >= MARGIN_TOL:
        problems.append(f"{label}: one-sided margin {report['one_sided_margin']}")
    return problems


def check_bounds(out: dict, p: dict) -> list[str]:
    n, k, N, pot = p["n"], p["k"], p["N"], p["pot"]
    problems = []
    values = {}
    for side in ("lower", "upper"):
        rep = out[side]
        problems += check_rule(rep, n, k, side)
        value = float(rep["bound_value"])
        values[side] = value
        recomputed = N * math.fsum(
            np.asarray(rep["weights"]) * h_values(pot, rep["nodes"]))
        if not _close(value, recomputed, VALUE_RTOL):
            problems.append(f"{side}: bound_value {value!r} != N*sum(w*h) "
                            f"{recomputed!r}")
    j = polynomial_degree(pot)
    if j is not None and j <= k:
        target = N * even_moment(n, j)
        for side, value in values.items():
            if not _close(value, target, BOUND_RTOL):
                problems.append(f"{side}: {value!r} != N*c_2j {target!r}")
    if not values["lower"] <= values["upper"] * (1 + BOUND_RTOL):
        problems.append(f"lower {values['lower']!r} > upper {values['upper']!r}")
    return problems


def check_report(out: dict, p: dict) -> list[str]:
    n, k = p["n"], p["k"]
    problems = []
    low = largest_gauss_node(n, k)
    if abs(float(out["anchor_threshold"]) - low) > NODE_TOL:
        problems.append("anchor_threshold differs from scipy")
    rows = out["rows"]
    grid = np.linspace(p["s_min"], p["s_max"], p["points"])
    if len(rows) != p["points"] or any(
            abs(row["s"] - s) > 1e-15 for row, s in zip(rows, grid)):
        problems.append("rows do not follow the requested s grid")
    lower = out.get("lower_bound")
    for i, row in enumerate(rows):
        if not float(row["exactness_residual"]) <= EXACTNESS_TOL:
            problems.append(f"row {i}: exactness residual {row['exactness_residual']}")
        if not float(row["one_sided_margin"]) >= MARGIN_TOL:
            problems.append(f"row {i}: one-sided margin {row['one_sided_margin']}")
        if lower is not None and not lower <= float(row["bound_value"]) * (1 + BOUND_RTOL):
            problems.append(f"row {i}: lower bound {lower!r} above anchored "
                            f"bound {row['bound_value']!r}")
    upper = out.get("upper_bound_finite")
    if lower is not None and upper is not None and not lower <= upper * (1 + BOUND_RTOL):
        problems.append(f"lower bound {lower!r} above upper bound {upper!r}")
    return problems


def check_certify_catalog(out: dict, p: dict) -> list[str]:
    report = out["report"]
    problems = []
    if not report["design"]["is_design"]:
        problems.append(f"{p['code']} not recognised as a ({p['k']},{p['k']})-design")
    if not report["all_passed"]:
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        problems.append(f"certify checks failed: {failed}")
    return problems


def sampled_reference(points: np.ndarray, pot: str, seed: int) -> dict:
    """Potential-sum minimum and maximum, and the minimax depth
    min_x max_i |x . x_i|, over SAMPLE_DIRECTIONS seeded directions."""
    rng = np.random.default_rng([seed, points.shape[0], points.shape[1]])
    dirs = random_unit_rows(rng, SAMPLE_DIRECTIONS, points.shape[1])
    dots = dirs @ points.T
    sums = np.sum(h_values(pot, dots), axis=1)
    return {"min": float(np.min(sums)), "max": float(np.max(sums)),
            "minimax": float(np.min(np.max(np.abs(dots), axis=1)))}


def _check_extremum(result: dict, points: np.ndarray, pot: str, ref: dict,
                    label: str) -> list[str]:
    value = float(result["value"])
    problems = []
    if label == "minimum" and not value <= ref["min"] + 1e-9 * max(1.0, abs(ref["min"])):
        problems.append(f"minimum {value!r} above sampled minimum {ref['min']!r}")
    if label == "maximum" and not value >= ref["max"] - 1e-9 * max(1.0, abs(ref["max"])):
        problems.append(f"maximum {value!r} below sampled maximum {ref['max']!r}")
    if math.isfinite(value):
        x = np.asarray(result["argpoint"], dtype=float)
        recomputed = math.fsum(h_values(pot, points @ x))
        if not _close(value, recomputed, 1e-9):
            problems.append(f"{label} {value!r} != sum at argpoint {recomputed!r}")
    return problems


def check_random(out: dict, p: dict, points: np.ndarray, ref: dict,
                 kind: str, notes: list[str]) -> list[str]:
    """Extremes against the sampled sums and the recomputation at argpoint.

    The covering radius is a heuristic upper estimate of the covering
    depth, so one above the sampled minimax (itself an upper estimate) is
    a note on the estimate's quality, appended to `notes`, not a failure."""
    pot = p["pot"]
    body = out if kind == "polarize_random" else out["report"]
    problems = (_check_extremum(body["minimum"], points, pot, ref, "minimum")
                + _check_extremum(body["maximum"], points, pot, ref, "maximum"))
    if kind == "certify_random":
        radius = float(body["covering_radius"])
        if not radius <= ref["minimax"] + 1e-12:
            notes.append(f"covering radius {radius!r} above sampled "
                         f"minimax {ref['minimax']!r}")
        if not body["all_passed"]:
            failed = [c["name"] for c in body["checks"] if not c["passed"]]
            problems.append(f"certify checks failed: {failed}")
    return problems


def check_output(case, status: int, stdout: str, reference=None,
                 notes=None) -> list[str]:
    """Judge one call: a nonzero exit, unparsable output or any failed
    output check makes it a failure.  Observations that are not failures
    go to `notes`."""
    if status != 0:
        return [f"exit status {status}"]
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return ["stdout is not one JSON document"]
    try:
        if case.kind == "bounds":
            return check_bounds(out, case.params)
        if case.kind == "report":
            return check_report(out, case.params)
        if case.kind == "certify_catalog":
            return check_certify_catalog(out, case.params)
        points, ref = reference
        return check_random(out, case.params, points, ref, case.kind,
                            [] if notes is None else notes)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
