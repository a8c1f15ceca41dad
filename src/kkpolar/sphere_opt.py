"""Local minimization of scalar objectives over the unit sphere, for
potential extremization: BFGS in tangent coordinates, all starts at once
(tangent_bfgs).  Its objectives come with a Euclidean gradient, which may
be a finite-difference estimate or, at the cusps of a nonsmooth
objective, a subgradient.  Each line search backtracks over the trial
steps 1, 1/2, ..., 2^-20 (Nocedal & Wright, Numerical Optimization, 2006,
section 3.1) in at most two objective calls: the full step, then every
halving at once for the rows it did not satisfy.  A row where no step
decreases its value stops.
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


def _bfgs_round(fg, xs: np.ndarray) -> np.ndarray:
    """One BFGS run per row in the chart z -> (x + T z)/|x + T z| around the
    unit rows of xs, with T the row's Householder tangent basis; returns
    the unit points reached.  The chart gradient is T^t P grad / |x + T z|,
    with P the tangent projection at the image point.  Each row keeps its
    own inverse Hessian and stops when its largest chart-gradient component
    falls to _GTOL, or when no trial step strictly decreases its value.
    The trial steps are alpha = 1, 1/2, ..., 2^-_HALVINGS along the BFGS
    direction; a row takes the largest that passes Armijo (_ARMIJO_C1)
    with a strict decrease.  One fg call tries alpha = 1 for every row, a
    second tries all the halvings at once for the rows it failed: the
    step that halving one call at a time would take, in 2 calls instead
    of up to _HALVINGS + 1."""
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
    ladder = np.ldexp(1.0, -np.arange(_HALVINGS + 1))

    def first_passing(at, step, slope, alphas):
        # every trial z + alpha step of the rows at, in one call; per row
        # the index of the largest alpha that passes Armijo and a strict
        # decrease (which matters where c1 alpha slope is below the spacing
        # of floats at f), or -1
        trials = z[at][:, None, :] + alphas[None, :, None] * step[:, None, :]
        value, grad = local(np.repeat(at, alphas.size), trials.reshape(-1, m))
        value = value.reshape(at.size, alphas.size)
        ok = ((value <= f[at, None] + _ARMIJO_C1 * alphas * slope[:, None])
              & (value < f[at, None]))
        hit = np.where(np.any(ok, axis=1), np.argmax(ok, axis=1), -1)
        return value, grad.reshape(at.size, alphas.size, m), hit

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

        alpha = np.ones(rows.size)
        f_new = np.full(rows.size, np.nan)
        g_new = np.empty((rows.size, m))
        pending = np.arange(rows.size)
        for alphas in (ladder[:1], ladder[1:]):
            value, grad, hit = first_passing(
                rows[pending], step[pending], slope[pending], alphas)
            took = hit >= 0
            chosen = pending[took]
            alpha[chosen] = alphas[hit[took]]
            f_new[chosen] = value[took, hit[took]]
            g_new[chosen] = grad[took, hit[took]]
            pending = pending[~took]
            if pending.size == 0:
                break

        moved = ~np.isnan(f_new)
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
