"""Acceptance gate: the nine headline properties of the package, each
printing one PASS/FAIL line (run with -s to see them on success)."""

import math

import numpy as np
import pytest

from kkpolar.codes import (CATALOG_DESIGNS, SphericalCode, catalog,
                           covering_radius_r, is_kk_design, waring_residual)
from kkpolar.interpolants import Side, verify_one_sided
from kkpolar.polarization import (Direction, extremize, upper_bound_finite,
                                  upper_bound_s)
from kkpolar.polynomials import Polynomial, monomial_moment
from kkpolar.potentials import (arcsine, eval_h, gaussian_sym, monomial_2k,
                                p_frame, riesz_sym)
from kkpolar.quadrature import (largest_gauss_node, rule_alpha, rule_beta,
                                verify_exactness)
from kkpolar.signed_measure import rule_lambda

from helpers import build_H2k, build_H2k_s, build_H2k_tilde, integrate_mu


def report_line(index: int, label: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {index} [{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"criterion {index} ({label}): {detail}"


def test_1_quadrature_exactness():
    worst = 0.0
    for n in range(2, 7):
        for k in range(1, 7):
            worst = max(worst, verify_exactness(rule_alpha(n, k), n, 2 * k + 1))
            worst = max(worst, verify_exactness(rule_beta(n, k), n, 2 * k + 1))
            threshold = largest_gauss_node(n, k)
            anchors = {min(threshold + 0.05, 1.0), 1.0}
            if 0.9 > threshold + 1e-6:
                anchors.add(0.9)
            for s in sorted(anchors):
                rule = rule_lambda(n, k, s)
                worst = max(worst, verify_exactness(rule, n, 2 * k + 1))
    report_line(1, "quadrature exactness through degree 2k+1", worst <= 1e-9,
                f"max monomial residual {worst:.3e} over n<=6, k<=6, "
                f"three anchors")


def test_2_closed_form_k1_rules():
    worst = 0.0
    for n in range(2, 11):
        alpha = rule_alpha(n, 1)
        root = 1.0 / math.sqrt(n)
        worst = max(worst, abs(alpha.nodes[0] + root), abs(alpha.nodes[1] - root),
                    abs(alpha.weights[0] - 0.5), abs(alpha.weights[1] - 0.5))
        beta = rule_beta(n, 1)
        worst = max(worst, abs(beta.nodes[0] + 1.0), abs(beta.nodes[1]),
                    abs(beta.nodes[2] - 1.0),
                    abs(beta.weights[0] - 1.0 / (2 * n)),
                    abs(beta.weights[1] - (n - 1.0) / n),
                    abs(beta.weights[2] - 1.0 / (2 * n)))
    report_line(2, "closed-form k=1 rules", worst <= 1e-12,
                f"max constant error {worst:.3e} for n in 2..10")


def test_3_pframe_sandwich_on_tight_frames():
    names = ["onb:2", "onb:3", "onb:4", "cube_half", "simplex_frame:3",
             "polygon_half:2", "polygon_half:3", "polygon_half:4"]
    ok, detail = True, ""
    for name in names:
        code = catalog(name)
        n, size = code.n, code.size
        for p in (2.0, 3.0, 4.0):
            pot = p_frame(p)
            lo = extremize(code, pot, Direction.MIN).value
            hi = extremize(code, pot, Direction.MAX).value
            if not (size / n ** (p / 2.0) - 1e-8 <= lo
                    and hi <= size / n + 1e-8):
                ok, detail = False, f"{name} p={p}: min={lo} max={hi}"
            if p == 2.0 and not (abs(lo - size / n) <= 1e-9
                                 and abs(hi - size / n) <= 1e-9):
                ok, detail = False, f"{name} p=2 extremes not N/n: {lo}, {hi}"
    report_line(3, "p-frame sandwich on (1,1)-designs", ok,
                detail or f"{len(names)} codes, p in {{2,3,4}}")


def test_4_monomial_optimality_and_strictness():
    designs = [("cube_half", 1), ("icosahedron_half", 2), ("cell24_half", 2),
               ("polygon_half:3", 1), ("polygon_half:3", 2),
               ("polygon_half:4", 2), ("polygon_half:4", 3),
               ("polygon_half:5", 3), ("polygon_half:5", 4)]
    ok, detail = True, ""
    for name, k in designs:
        code = catalog(name)
        target = monomial_moment(code.n, 2 * k) * code.size
        lo = extremize(code, monomial_2k(k), Direction.MIN).value
        hi = extremize(code, monomial_2k(k), Direction.MAX).value
        if abs(lo - target) > 1e-8 or abs(hi - target) > 1e-8:
            ok, detail = False, f"{name} k={k}: {lo}, {hi} vs {target}"

    rng = np.random.default_rng(17)
    shapes = ([(3, 4, 1)] * 6 + [(3, 6, 2)] * 6 + [(4, 12, 2)] * 3
              + [(2, 5, 4)] * 5)
    for n, size, k in shapes:
        pts = rng.standard_normal((size, n))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        code = SphericalCode.from_points(pts)
        if is_kk_design(code, k).is_design:
            continue
        target = monomial_moment(n, 2 * k) * size
        lo = extremize(code, monomial_2k(k), Direction.MIN).value
        hi = extremize(code, monomial_2k(k), Direction.MAX).value
        if not (lo < target - 1e-6 and hi > target + 1e-6):
            ok, detail = False, f"random n={n} N={size} k={k}: {lo}, {hi}"
    report_line(4, "monomial extremes: equality on designs, strict straddle off",
                ok, detail or f"{len(designs)} designs, {len(shapes)} random codes")


def test_5_covering_radius_floor():
    ok, detail = True, ""
    for name, k in sorted(CATALOG_DESIGNS.items()):
        code = catalog(name)
        radius, _, _ = covering_radius_r(code)
        floor = largest_gauss_node(code.n, k)
        if radius < floor - 1e-9:
            ok, detail = False, f"{name}: r={radius} < floor={floor}"
    for name in ("onb:3", "onb:4", "cube_half"):
        code = catalog(name)
        radius, _, _ = covering_radius_r(code)
        if abs(radius - 1.0 / math.sqrt(code.n)) > 1e-6:
            ok, detail = False, f"{name}: r={radius} not 1/sqrt(n)"
    report_line(5, "covering radius at least the largest interior node", ok,
                detail or "all catalog designs; equality on axis frames")


def feasible_objective_gap(pot, interpolant, side, interval, k, rng):
    """Best objective over 100 random feasible polynomials minus the
    interpolant's own objective, signed so positive means beaten."""
    n = 3
    grid = np.linspace(interval[0], interval[1], 400_001)
    h_vals = np.array([eval_h(pot, t) for t in grid])
    target = integrate_mu(n, interpolant.expand_t())
    best = -math.inf
    for _ in range(100):
        coeffs = rng.uniform(-1.0, 1.0, 2 * k + 2)
        raw = Polynomial(coeffs)
        vals = raw(grid)
        if side is Side.BELOW:
            cand = raw + Polynomial([-(np.max(vals - h_vals))])
            gap = integrate_mu(n, cand) - target
        else:
            cand = raw + Polynomial([np.max(h_vals - vals)])
            gap = target - integrate_mu(n, cand)
        best = max(best, gap)
    return best


def test_6_interpolant_feasibility_and_optimality():
    n, k = 3, 2
    ok, detail = True, ""
    cases = [
        (build_H2k(n, k, riesz_sym(2)), riesz_sym(2), Side.BELOW, (-1, 1)),
        (build_H2k(n, k, gaussian_sym()), gaussian_sym(), Side.BELOW, (-1, 1)),
        (build_H2k(n, k, arcsine()), arcsine(), Side.BELOW, (-1, 1)),
        (build_H2k(n, k, monomial_2k(k)), monomial_2k(k), Side.BELOW, (-1, 1)),
        (build_H2k_tilde(n, k, p_frame(3)), p_frame(3), Side.BELOW, (-1, 1)),
        (build_H2k_tilde(n, k, monomial_2k(k)), monomial_2k(k), Side.BELOW,
         (-1, 1)),
        (build_H2k_s(n, k, 0.8, riesz_sym(2)), riesz_sym(2), Side.ABOVE, (-0.8, 0.8)),
        (build_H2k_s(n, k, 0.8, gaussian_sym()), gaussian_sym(), Side.ABOVE,
         (-0.8, 0.8)),
        (build_H2k_s(n, k, 0.8, arcsine()), arcsine(), Side.ABOVE, (-0.8, 0.8)),
        (upper_bound_finite(n, k, 1, gaussian_sym()).interpolant,
         gaussian_sym(), Side.ABOVE, (-1, 1)),
        (upper_bound_finite(n, k, 1, monomial_2k(k)).interpolant,
         monomial_2k(k), Side.ABOVE, (-1, 1)),
    ]
    worst_margin = math.inf
    for interpolant, pot, side, interval in cases:
        margin = verify_one_sided(interpolant, pot, side, interval,
                                  grid_size=10_001)
        worst_margin = min(worst_margin, margin)
        if margin < -1e-9:
            ok, detail = False, f"{pot.name} {side.name}: margin {margin:.3e}"

    rng = np.random.default_rng(23)
    k1 = 1
    optimality = [
        (build_H2k(n, k1, riesz_sym(2)), riesz_sym(2), Side.BELOW, (-1, 1)),
        (build_H2k_tilde(n, k1, p_frame(1.0)), p_frame(1.0), Side.BELOW,
         (-1, 1)),
        (build_H2k_s(n, k1, 0.8, gaussian_sym()),
         gaussian_sym(), Side.ABOVE, (-0.8, 0.8)),
    ]
    worst_gap = -math.inf
    for interpolant, pot, side, interval in optimality:
        gap = feasible_objective_gap(pot, interpolant, side, interval, k1, rng)
        worst_gap = max(worst_gap, gap)
        if gap > 1e-9:
            ok, detail = False, f"{pot.name} {side.name} beaten by {gap:.3e}"
    report_line(6, "interpolants one-sided and unbeaten", ok,
                detail or f"min margin {worst_margin:.2e}, "
                          f"best challenger gap {worst_gap:.2e}")


def test_7_anchored_bound_monotone_with_endpoint_limit():
    grid = np.linspace(0.62, 0.98, 7)
    values = [upper_bound_s(3, 1, 4, float(s), riesz_sym(2)).bound_value
              for s in grid]
    monotone = all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    # per-point comparison: the gap scales linearly with N
    finite = upper_bound_finite(3, 1, 1, p_frame(4)).bound_value
    near = upper_bound_s(3, 1, 1, 0.999, p_frame(4)).bound_value
    limit_ok = abs(near - finite) <= 1e-3
    report_line(7, "anchored upper bound monotone in s with endpoint limit",
                monotone and limit_ok,
                f"7-point grid monotone={monotone}, limit gap "
                f"{abs(near - finite):.2e}")


def test_8_monte_carlo_average():
    rng = np.random.default_rng(29)
    samples = 100_000
    ok, detail = True, ""
    for trial in range(5):
        pts = rng.standard_normal((6, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        x = rng.standard_normal((samples, 3))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        dots2 = (x @ pts.T) ** 2
        for k in (1, 2):
            vals = np.sum(dots2**k, axis=1)
            err = abs(float(np.mean(vals)) - monomial_moment(3, 2 * k) * 6)
            allowed = 5.0 * float(np.std(vals)) / math.sqrt(samples)
            if err > allowed:
                ok, detail = False, f"trial {trial} k={k}: {err} > {allowed}"
    report_line(8, "sphere average of monomial sums", ok,
                detail or "5 random codes, k in {1,2}, within 5 standard errors")


def broken(code: SphericalCode) -> SphericalCode:
    # rotate the last point inside the plane of its two largest coordinates
    pts = code.points.copy()
    order = np.argsort(np.abs(pts[-1]))
    i, j = order[-1], order[-2]
    c, s = math.cos(0.2), math.sin(0.2)
    vi, vj = pts[-1][i], pts[-1][j]
    pts[-1][i], pts[-1][j] = c * vi - s * vj, s * vi + c * vj
    pts[-1] /= np.linalg.norm(pts[-1])
    return SphericalCode.from_points(pts)


def test_9_design_test_equivalences():
    rng = np.random.default_rng(31)
    ok, detail = True, ""
    for name, k in sorted(CATALOG_DESIGNS.items()):
        for variant, code in (("catalog", catalog(name)),
                              ("broken", broken(catalog(name)))):
            n, size = code.n, code.size
            tol = 1e-8 * size
            moment_verdict = is_kk_design(code, k).is_design

            x = rng.standard_normal((100, n))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            waring = max(abs(waring_residual(code, row, 2 * k)) for row in x)
            waring_verdict = waring <= tol

            u = (x @ code.points.T) ** 2
            spread = 0.0
            for _ in range(3):
                coeffs = rng.uniform(0.2, 1.0, k + 1)
                vals = np.zeros(len(x))
                for j, c in enumerate(coeffs):
                    vals += c * np.sum(u**j, axis=1)
                spread = max(spread, float(np.max(vals) - np.min(vals)))
            constancy_verdict = spread <= tol

            if not moment_verdict == waring_verdict == constancy_verdict:
                ok, detail = False, (
                    f"{name} k={k} ({variant}): moment={moment_verdict} "
                    f"waring={waring_verdict} "
                    f"constancy={constancy_verdict}")
    report_line(9, "moment, power-sum, and constancy design tests agree", ok,
                detail or "catalog codes and broken twins, tolerance 1e-8*N")
