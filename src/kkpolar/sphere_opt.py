"""Local minimization of scalar objectives over the unit sphere, for
potential extremization, all starts at once: Riemannian Newton
(tangent_newton) for objectives that come with an exact Euclidean Hessian,
and BFGS in tangent coordinates (tangent_bfgs) for those with a gradient
only, which may be a finite-difference estimate or, at the cusps of a
nonsmooth objective, a subgradient.  Both take their steps by one Armijo
line search (_backtrack) over the trial steps 1, 1/2, ..., 2^-20 (Nocedal
& Wright, Numerical Optimization, 2006, section 3.1), in at most two
objective calls.  A row where no step decreases its value stops.
"""

from __future__ import annotations

import numpy as np


def tangent_component(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Projection of v onto the tangent plane at the unit vector x; for a
    Euclidean gradient v this is the Riemannian gradient on the sphere."""
    return v - (v @ x) * x


def _householder_bases(xs: np.ndarray) -> np.ndarray:
    """Orthonormal tangent bases at the unit rows of xs, shape (B, n, n-1):
    columns 2..n of the Householder reflector that maps e_1 to -+x."""
    v = xs.copy()
    v[:, 0] += np.where(xs[:, 0] >= 0.0, 1.0, -1.0)
    scale = 2.0 / np.sum(v * v, axis=1)
    reflector = np.eye(xs.shape[1]) - scale[:, None, None] * (
        v[:, :, None] * v[:, None, :])
    return reflector[:, :, 1:]


_GTOL = 1e-12
_ARMIJO_C1 = 1e-4
_HALVINGS = 20
_LADDER = np.ldexp(1.0, -np.arange(_HALVINGS + 1))
_NEWTON_ITERATIONS = 100
# relative spacing below which values cannot judge a Newton step
_RESOLUTION = 16 * np.finfo(float).eps


def _backtrack(trial, f: np.ndarray, slope: np.ndarray):
    """The line search of both routines: each row takes the largest of
    alpha = 1, 1/2, ..., 2^-_HALVINGS that passes Armijo (_ARMIJO_C1) with
    a strict decrease, which matters where c1 alpha slope is below the
    spacing of floats at f.  trial(at, alphas) evaluates the rows at
    (indices into f) at every alpha in one objective call; it returns their
    values (at.size, alphas.size) and what the caller keeps of a step,
    shaped (at.size, alphas.size, ...).  One call tries alpha = 1, a second
    all the halvings at once for the rows that failed: the steps of
    sequential halving in 2 calls instead of up to _HALVINGS + 1.  Returns
    alpha, the value and the kept data per row; where no step passed,
    alpha is NaN and the rest is that of alpha = 1."""
    alpha = np.full(f.size, np.nan)
    pending = np.arange(f.size)
    for alphas in (_LADDER[:1], _LADDER[1:]):
        value, extra = trial(pending, alphas)
        if alphas.size == 1:
            f_new, kept = value[:, 0].copy(), extra[:, 0].copy()
        ok = ((value <= f[pending, None] + _ARMIJO_C1 * alphas * slope[pending, None])
              & (value < f[pending, None]))
        took = np.any(ok, axis=1)
        hit = np.argmax(ok[took], axis=1)
        chosen = pending[took]
        alpha[chosen] = alphas[hit]
        f_new[chosen] = value[took, hit]
        kept[chosen] = extra[took, hit]
        pending = pending[~took]
        if pending.size == 0:
            break
    return alpha, f_new, kept


def _bfgs_round(fg, xs: np.ndarray) -> np.ndarray:
    """One BFGS run per row in the chart z -> (x + T z)/|x + T z| around the
    unit rows of xs, with T the row's Householder tangent basis; returns
    the unit points reached.  The chart gradient is T^t P grad / |x + T z|,
    with P the tangent projection at the image point.  Each row keeps its
    own inverse Hessian and stops when its largest chart-gradient component
    falls to _GTOL, or when no trial step of _backtrack strictly decreases
    its value."""
    count, n = xs.shape
    m = n - 1
    bases = _householder_bases(xs)

    def points(rows, z):
        cand = xs[rows] + np.einsum("bij,bj->bi", bases[rows], z)
        radius = np.linalg.norm(cand, axis=1)
        return cand / radius[:, None], radius

    def local(rows, z):
        point, radius = points(rows, z)
        value, grad = fg(point)
        tangent = grad - np.sum(grad * point, axis=1)[:, None] * point
        return value, np.einsum("bij,bi->bj", bases[rows], tangent) / radius[:, None]

    everyone = np.arange(count)
    z = np.zeros((count, m))
    f, g = local(everyone, z)
    eye = np.eye(m)
    inv_hess = np.empty((count, m, m))
    fresh = np.empty(count, dtype=bool)

    def restart(rows):
        # the identity, scaled so that the first step has length at most 1
        norms = np.maximum(1.0, np.linalg.norm(g[rows], axis=1))
        inv_hess[rows] = eye / norms[:, None, None]
        fresh[rows] = True

    restart(everyone)

    live = np.isfinite(f) & np.all(np.isfinite(g), axis=1)
    live &= np.max(np.abs(g), axis=1) > _GTOL
    for _ in range(200 * m):
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        step = -np.einsum("bij,bj->bi", inv_hess[rows], g[rows])
        slope = np.sum(step * g[rows], axis=1)
        uphill = ~(slope < 0.0)
        if np.any(uphill):
            # roundoff broke positive definiteness
            restart(rows[uphill])
            step[uphill] = -np.einsum("bij,bj->bi", inv_hess[rows[uphill]],
                                      g[rows[uphill]])
            slope[uphill] = np.sum(step[uphill] * g[rows[uphill]], axis=1)

        def trial(at, alphas):
            # every trial z + alpha step of the rows at, in one call
            trials = z[rows[at]][:, None, :] + alphas[None, :, None] * step[at][:, None, :]
            value, grad = local(np.repeat(rows[at], alphas.size), trials.reshape(-1, m))
            return (value.reshape(at.size, alphas.size),
                    grad.reshape(at.size, alphas.size, m))

        alpha, f_new, g_new = _backtrack(trial, f[rows], slope)
        moved = ~np.isnan(alpha)
        live[rows[~moved]] = False
        rows = rows[moved]
        s = alpha[moved, None] * step[moved]
        y = g_new[moved] - g[rows]
        z[rows] += s
        f[rows] = f_new[moved]
        g[rows] = g_new[moved]
        live[rows] &= np.all(np.isfinite(g[rows]), axis=1)
        live[rows] &= np.max(np.abs(g[rows]), axis=1) > _GTOL

        ys = np.sum(y * s, axis=1)
        curved = ys > 0.0
        rows, s, y, ys = rows[curved], s[curved], y[curved], ys[curved]
        first = fresh[rows]
        # Nocedal & Wright (6.20): rescale the identity before the first update
        inv_hess[rows[first]] = eye * (ys[first] / np.sum(y[first] ** 2, axis=1))[:, None, None]
        fresh[rows] = False
        rho = 1.0 / ys
        hy = np.einsum("bij,bj->bi", inv_hess[rows], y)
        yhy = np.sum(y * hy, axis=1)
        inv_hess[rows] += ((rho * rho * yhy + rho)[:, None, None] * s[:, :, None] * s[:, None, :]
                           - rho[:, None, None] * (s[:, :, None] * hy[:, None, :]
                                                   + hy[:, :, None] * s[:, None, :]))
    return points(everyone, z)[0]


def tangent_bfgs(fg, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched BFGS in tangent coordinates, one independent run per row of
    x0 (B, n).  fg maps unit rows (B', n) to their objective values (B',)
    and Euclidean gradients (B', n).  Each
    row runs two rounds (_bfgs_round), the second re-centred at the first
    one's result; a round that does not lower a row's value is discarded
    for that row.  Returns (values (B,), points (B, n)) with the points on
    the sphere."""
    xs = x0 / np.linalg.norm(x0, axis=1, keepdims=True)
    values = fg(xs)[0]
    live = np.ones(xs.shape[0], dtype=bool)
    for _ in range(2):
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        cand = _bfgs_round(fg, xs[rows])
        fc = fg(cand)[0]
        better = fc <= values[rows]
        xs[rows[better]] = cand[better]
        values[rows[better]] = fc[better]
        live[rows[~better]] = False
    return values, xs


def tangent_newton(fgh, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Riemannian Newton (Absil, Mahony & Sepulchre, Optimization
    Algorithms on Matrix Manifolds, 2008, ch. 5-6), one independent search
    per row of x0 (B, n).  fgh maps unit rows (B', n) to their objective
    values (B',), Euclidean gradients (B', n) and Euclidean Hessians
    (B', n, n), and fgh(xs, values_only=True) to the values alone, which
    is all the line search reads.  Each iteration works in the Householder
    chart at the row's current point x, with tangent basis T: the chart
    gradient is T^t grad and the Riemannian Hessian T^t Hess T - (x . grad) I.
    Its eigenvalues are replaced by max(|lambda|, 1e-8 max |lambda|), so
    that the modified Newton step descends at saddles and maxima too
    (Nocedal & Wright, 2006, section 3.4); the step is capped at length 1,
    and _backtrack picks its length along the retraction
    (x + T z)/|x + T z|.  A row stops when its largest chart-gradient
    component falls to _GTOL, when no trial step strictly decreases its
    value (after a last full step where values are too coarse to judge
    it), or after _NEWTON_ITERATIONS.  Returns (values (B,), points (B, n))
    with the points on the sphere."""
    xs = x0 / np.linalg.norm(x0, axis=1, keepdims=True)
    n = xs.shape[1]
    values, grads, hessians = fgh(xs)
    rows = np.arange(xs.shape[0])
    for _ in range(_NEWTON_ITERATIONS):
        x = xs[rows]
        bases = _householder_bases(x)
        g = np.einsum("bij,bi->bj", bases, grads)
        hess = np.swapaxes(bases, 1, 2) @ hessians @ bases
        hess -= np.sum(x * grads, axis=1)[:, None, None] * np.eye(n - 1)
        live = (np.isfinite(values[rows]) & np.all(np.isfinite(hess), axis=(1, 2))
                & (np.max(np.abs(g), axis=1) > _GTOL))
        if not np.any(live):
            break
        rows, x, bases, g, hess = rows[live], x[live], bases[live], g[live], hess[live]
        lam, vec = np.linalg.eigh(hess)
        lam = np.abs(lam)
        lam = np.maximum(lam, 1e-8 * np.max(lam, axis=1, keepdims=True) + np.finfo(float).tiny)
        z = -np.einsum("bij,bj->bi", vec, np.einsum("bji,bj->bi", vec, g) / lam)
        z /= np.maximum(1.0, np.linalg.norm(z, axis=1))[:, None]
        step = np.einsum("bij,bj->bi", bases, z)

        def trial(at, alphas):
            # the retracted points x + alpha T z of the rows at, in one call
            cand = x[at][:, None, :] + alphas[None, :, None] * step[at][:, None, :]
            cand /= np.linalg.norm(cand, axis=2, keepdims=True)
            value = fgh(cand.reshape(-1, n), values_only=True)
            return value.reshape(at.size, alphas.size), cand

        f, slope = values[rows], np.sum(z * g, axis=1)
        alpha, f_new, ends = _backtrack(trial, f, slope)
        moved = ~np.isnan(alpha)
        # where the model's decrease and the full step's change of value are
        # both below the resolution of f, values cannot judge the step: the
        # row takes it, as Newton brings it closer to the extremum, and stops
        noise = _RESOLUTION * np.abs(f)
        level = ~moved & (-slope <= noise) & (np.abs(f_new - f) <= noise)
        xs[rows[level]] = ends[level]
        values[rows[level]] = f_new[level]
        rows = rows[moved]
        if rows.size == 0:
            break
        xs[rows] = ends[moved]
        # the line search's values, so that each row's values fall strictly
        # even where a call on another batch shape rounds them differently
        values[rows] = f_new[moved]
        _, grads, hessians = fgh(xs[rows])
    return values, xs
