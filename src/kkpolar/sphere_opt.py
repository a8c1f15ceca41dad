"""Local minimization of scalar objectives over the unit sphere.

Shared by the covering-radius fallback search and potential extremization.
Smooth objectives with an exact gradient are refined by BFGS in tangent
coordinates (tangent_bfgs).  The derivative-free routines (Nelder-Mead, and
descent along central-difference gradients) serve objectives that may be
nonsmooth (max of absolute inner products, fractional powers) or take
infinite values away from the search region.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize


def tangent_basis(x: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the tangent plane at a unit vector."""
    n = x.shape[0]
    u, sing, _ = np.linalg.svd(np.eye(n) - np.outer(x, x))
    # the projector has n-1 unit singular values; their left vectors span
    # the tangent plane at x
    return u[:, sing > 0.5]


def tangent_component(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Projection of v onto the tangent plane at the unit vector x; for a
    Euclidean gradient v this is the Riemannian gradient on the sphere."""
    return v - (v @ x) * x


def tangent_bfgs(fg, x0: np.ndarray) -> tuple[float, np.ndarray]:
    """BFGS in tangent coordinates with an exact gradient, in two rounds,
    the second re-centred at the first one's result.  fg(x) returns the
    objective and its Euclidean gradient at a unit vector x; in the chart
    z -> (x + T z)/|x + T z| the gradient is T^t P grad / |x + T z|, with
    P the tangent projection at the image point.  Returns (value, point)
    with the point on the sphere; a round that does not lower the value is
    discarded."""
    x = x0 / np.linalg.norm(x0)
    fx = fg(x)[0]
    for _ in range(2):
        tangent = tangent_basis(x)

        def local(z):
            cand = x + tangent @ z
            radius = np.linalg.norm(cand)
            point = cand / radius
            value, grad = fg(point)
            return value, tangent.T @ tangent_component(point, grad) / radius

        res = optimize.minimize(local, np.zeros(x.shape[0] - 1), jac=True,
                                method="BFGS", options={"gtol": 1e-12})
        cand = x + tangent @ res.x
        cand /= np.linalg.norm(cand)
        fc = fg(cand)[0]
        if not fc <= fx:
            break
        x, fx = cand, fc
    return fx, x


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
