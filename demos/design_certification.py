"""Certify designs end to end: moment test, bounds, extremes, sandwich.

A (k,k)-design makes every potential sum with a polynomial h of degree
<= 2k constant over the sphere, and the universal bounds sandwich the
extremes of any admissible potential.  Breaking one point of a design
breaks all of that at once.
"""

import math

import numpy as np

from kkpolar import SphericalCode, catalog, certify_design, monomial_2k, riesz_sym

# a margin at or above this passes the one-sided check; the margin itself
# is roundoff, so only its side of the gate is printed
MARGIN_GATE = -1e-9


def show(report):
    design = report.design
    if design.is_design:
        residual = f"max even moment residual within tol {design.tol:.1e}"
    else:
        residual = (f"max even moment residual "
                    f"{design.max_even_moment_residual:.2e} above tol "
                    f"{design.tol:.1e}")
    print(f"  design test: {'pass' if design.is_design else 'FAIL'} ({residual})")
    for b in report.bounds:
        side = ">=" if b.one_sided_margin >= MARGIN_GATE else "<"
        print(f"  {b.kind:<10} bound {b.bound_value:.9f}  "
              f"one-sided margin {side} {MARGIN_GATE:.0e}")
    lo, hi = report.minimum.value, report.maximum.value
    hi_text = f"{hi:.9f}" if math.isfinite(hi) else "inf"
    print(f"  extremes: min {lo:.9f}  max {hi_text}")
    for c in report.checks:
        flag = "ok " if c.passed else "BAD"
        print(f"   [{flag}] {c.name}: {c.detail}")
    print(f"  all checks passed: {report.all_passed}")
    print()


def main():
    print("cube frame, k=1, fourth-power frame potential")
    show(certify_design(catalog("cube_half"), 1, monomial_2k(1)))

    print("icosahedron half, k=2, symmetrized inverse-distance potential")
    show(certify_design(catalog("icosahedron_half"), 2, riesz_sym(2)))

    print("orthonormal basis with one axis tilted by 0.3 rad (not a design)")
    pts = np.eye(3)
    pts[2] = [math.sin(0.3), 0.0, math.cos(0.3)]
    show(certify_design(SphericalCode.from_points(pts), 1, monomial_2k(1)))


if __name__ == "__main__":
    main()
