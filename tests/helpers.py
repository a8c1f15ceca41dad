"""Test-only helpers that the package itself does not need."""

import math

import numpy as np
from scipy import optimize

from kkpolar import polarization
from kkpolar.codes import SphericalCode
from kkpolar.errors import PreconditionError
from kkpolar.interpolants import Side
from kkpolar.polarization import Direction, ExtremizationResult
from kkpolar.polynomials import Polynomial
from kkpolar.potentials import Potential, SignState, certify_sign, eval_h


def negate(pot: Potential) -> Potential:
    """-h, with the sign certificate flipped."""

    def cert(k: int, u_max: float) -> SignState:
        inner = certify_sign(pot, k, u_max)
        if inner is SignState.NONNEGATIVE:
            return SignState.NONPOSITIVE
        if inner is SignState.NONPOSITIVE:
            return SignState.NONNEGATIVE
        return inner

    return Potential(
        name=f"neg({pot.name})",
        eval_g=lambda u: -pot.eval_g(u),
        eval_g_prime=lambda u: -pot.eval_g_prime(u),
        h_at_1=-pot.h_at_1,
        sign_certificate=cert,
        derivative_kind=pot.derivative_kind,
    )


def nearly_flat_code() -> SphericalCode:
    """12 random unit points in R^4 with the fourth coordinate scaled by
    1e-14: full rank by numpy's test, but Qhull finds no initial simplex."""
    pts = np.random.default_rng(0).standard_normal((12, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[:, 3] *= 1e-14
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return SphericalCode.from_points(pts)


def reference_margin(p: Polynomial, pot: Potential, side: Side,
                     interval: tuple[float, float], grid_size: int = 2000) -> float:
    """The one-sided margin by one scalar eval_h call per grid point: the
    loop that verify_one_sided replaced, kept as its reference."""
    if grid_size < 1000:
        raise PreconditionError(f"grid_size must be >= 1000, got {grid_size}")
    a, b = interval
    ts = np.linspace(a, b, grid_size)
    pv = p(ts)
    worst = math.inf
    for t, pval in zip(ts, pv):
        margin = side.value * (eval_h(pot, float(t)) - float(pval))
        if margin < worst:
            worst = margin
    return worst


# ---------------------------------------------------------------------------
# derivative-free reference chain: descent along central-difference
# gradients, then a Nelder-Mead polish, one start at a time


def tangent_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent plane at a unit vector."""
    n = x.shape[0]
    u, sing, _ = np.linalg.svd(np.eye(n) - np.outer(x, x))
    # the projector has n-1 unit singular values; their left vectors span
    # the tangent plane at x
    return u[:, sing > 0.5]


def nm_polish(f, x0: np.ndarray, rounds: int = 2,
              maxiter: int = 600) -> tuple[float, np.ndarray]:
    """Nelder-Mead in tangent coordinates, re-centered between rounds.
    Robust to kinks; returns (value, point) with the point on the sphere."""
    x = x0 / np.linalg.norm(x0)
    for _ in range(rounds):
        tangent = tangent_basis(x)

        def local(z):
            cand = x + tangent @ z
            return f(cand / np.linalg.norm(cand))

        res = optimize.minimize(
            local, np.zeros(x.shape[0] - 1), method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": maxiter})
        cand = x + tangent @ res.x
        x = cand / np.linalg.norm(cand)
    return f(x), x


def projected_gradient_descent(f, x0: np.ndarray, iters: int = 120,
                               grad_step: float = 1e-6) -> tuple[float, np.ndarray]:
    """Numerical-gradient descent along the sphere with backtracking."""
    x = x0 / np.linalg.norm(x0)
    fx = f(x)
    step = 0.1
    for _ in range(iters):
        grad = projected_gradient(f, x, grad_step)
        norm = float(np.linalg.norm(grad))
        if not np.isfinite(norm) or norm < 1e-12:
            break
        moved = False
        while step > 1e-14:
            cand = x - step * grad
            cand /= np.linalg.norm(cand)
            fc = f(cand)
            if fc < fx - 1e-15:
                x, fx = cand, fc
                step = min(step * 2.0, 0.5)
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    return fx, x


def projected_gradient(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient restricted to the tangent plane;
    non-finite differences (next to a pole of f) are zeroed."""
    tangent = tangent_basis(x)
    comps = []
    for j in range(tangent.shape[1]):
        d = tangent[:, j]
        plus = x + step * d
        minus = x - step * d
        fp = f(plus / np.linalg.norm(plus))
        fm = f(minus / np.linalg.norm(minus))
        diff = (fp - fm) / (2.0 * step)
        comps.append(diff if np.isfinite(diff) else 0.0)
    return tangent @ np.asarray(comps)


def stationarity_norm(f, x: np.ndarray, step: float = 1e-6) -> float:
    value = float(np.linalg.norm(projected_gradient(f, x, step)))
    return value


def reference_extremize(code: SphericalCode, pot: Potential,
                        direction: Direction, seed: int = 0) -> ExtremizationResult:
    """extremize with the same seed screen and survivors, each refined by
    the derivative-free chain instead of tangent BFGS; the reference the
    gradient path is compared against (finite extrema only)."""
    sgn = polarization._SIGN[Direction(direction)]
    points = code.points
    mat, u = polarization._screen(code, pot, seed, None)
    survivors = mat[np.argsort(sgn * u)[:polarization._SURVIVORS]]

    def f(x: np.ndarray) -> float:
        return sgn * polarization._u_sum(points, pot, x)

    best_val, best_x = math.inf, survivors[0]
    for x0 in survivors:
        val, x = projected_gradient_descent(f, x0)
        val2, x2 = nm_polish(f, x)
        if val2 < val:
            val, x = val2, x2
        if val < best_val:
            best_val, best_x = val, x
    return ExtremizationResult(
        value=polarization._u_sum(points, pot, best_x), argpoint=tuple(best_x),
        restarts=len(survivors), stationarity_norm=stationarity_norm(f, best_x))
