"""Local searches for the minimum of a scalar objective over the unit
sphere, for potential extremization, all starts at once: Riemannian
Newton on the exact Hessian (tangent_newton), whose objective may differ
per start, and, for objectives concave on every cell of the arrangement
of hyperplanes x . x_i = 0, such as sums of |x . x_i|^p with p <= 1,
descent from vertex to vertex of that arrangement on values alone
(vertex_descent), as their minimum lies at a vertex, a point orthogonal
to n - 1 independent normals.
"""

from __future__ import annotations

import numpy as np


def tangent_component(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Projection of v onto the tangent plane at the unit vector x; for a
    Euclidean gradient v this is the Riemannian gradient on the sphere."""
    return v - (v @ x) * x


def _householder_bases(xs: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Orthonormal tangent bases at the unit rows of xs, shape (B, n, n-1):
    columns 2..n of the Householder reflector that maps e_1 to -+x; eye = np.eye(n)."""
    v = xs.copy()
    v[:, 0] += np.where(xs[:, 0] >= 0.0, 1.0, -1.0)
    scale = 2.0 / (v * v).sum(axis=1)
    return eye[:, 1:] - scale[:, None, None] * (v[:, :, None] * v[:, None, 1:])


_GTOL = 1e-12
_ARMIJO_C1 = 1e-4
_HALVINGS = 20
_LADDER = np.ldexp(1.0, -np.arange(_HALVINGS + 1))
_NEWTON_ITERATIONS = 100
# relative spacing below which values cannot judge a Newton step
_RESOLUTION = 16 * np.finfo(float).eps


def _backtrack(fgh, rows: np.ndarray, x: np.ndarray, step: np.ndarray,
               f: np.ndarray, slope: np.ndarray):
    """The line search of tangent_newton along the retractions
    (x + alpha step)/|x + alpha step| of the rows: each takes the largest
    of alpha = 1, 1/2, ..., 2^-_HALVINGS that passes Armijo (_ARMIJO_C1)
    with a strict decrease, which matters where c1 alpha slope is below
    the spacing of floats at f; rows holds the index in x0 of each row.
    One values-only call of fgh tries alpha = 1, a second all the halvings
    at once for the rows that failed: the steps of sequential halving in 2
    calls instead of up to _HALVINGS + 1.  Returns whether each row moved,
    its value and point, those of alpha = 1 where no step passed."""
    ends = x + step
    ends /= np.sqrt((ends * ends).sum(axis=1))[:, None]
    f_new = fgh(ends, rows, values_only=True)
    moved = (f_new <= f + _ARMIJO_C1 * slope) & (f_new < f)
    if moved.all():
        return moved, f_new, ends
    pending = np.flatnonzero(~moved)
    alphas = _LADDER[1:]
    cand = x[pending][:, None, :] + alphas[None, :, None] * step[pending][:, None, :]
    cand /= np.linalg.norm(cand, axis=2, keepdims=True)
    value = fgh(cand.reshape(-1, x.shape[1]), np.repeat(rows[pending], alphas.size),
                values_only=True).reshape(pending.size, alphas.size)
    ok = ((value <= f[pending, None] + _ARMIJO_C1 * alphas * slope[pending, None])
          & (value < f[pending, None]))
    took = ok.any(axis=1)
    hit = ok[took].argmax(axis=1)
    chosen = pending[took]
    moved[chosen] = True
    f_new[chosen] = value[took, hit]
    ends[chosen] = cand[took, hit]
    return moved, f_new, ends


def tangent_newton(fgh, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched Riemannian Newton (Absil, Mahony & Sepulchre, Optimization
    Algorithms on Matrix Manifolds, 2008, ch. 5-6), one independent search
    per row of x0 (B, n).  fgh(xs, rows) maps unit rows xs (B', n), each
    a point of the search from x0[rows[j]], to their objective values
    (B',), Euclidean gradients (B', n) and Euclidean Hessians (B', n, n),
    and fgh(xs, rows, values_only=True) to the values alone, which is all
    the line search reads; the rows let one run minimize a different
    objective per start.  Each iteration works in the Householder
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
    with the points on the sphere.  Rows are gathered only when one stops;
    fgh sees the same batches, and every GEMM, ufunc and reduction the same
    operands, as when all rows are gathered anew each iteration, so the bits
    are those of tests/helpers.reference_tangent_newton."""
    xs = x0 / np.linalg.norm(x0, axis=1, keepdims=True)
    eye = np.eye(xs.shape[1])
    rows = np.arange(xs.shape[0])
    values, grads, hessians = fgh(xs, rows)
    x, f = xs, values  # of the rows still searching
    for _ in range(_NEWTON_ITERATIONS):
        bases = _householder_bases(x, eye)
        g = np.einsum("bij,bi->bj", bases, grads)
        hess = bases.swapaxes(1, 2) @ hessians @ bases
        hess -= (x * grads).sum(axis=1)[:, None, None] * eye[1:, 1:]
        live = (np.isfinite(f) & np.isfinite(hess).all(axis=(1, 2))
                & (np.abs(g).max(axis=1) > _GTOL))
        if not live.any():
            break
        if not live.all():
            rows, x, f, bases, g, hess = (a[live] for a in (rows, x, f, bases, g, hess))
        lam, vec = np.linalg.eigh(hess)
        lam = np.abs(lam)
        lam = np.maximum(lam, 1e-8 * lam.max(axis=1, keepdims=True) + np.finfo(float).tiny)
        z = -np.einsum("bij,bj->bi", vec, np.einsum("bji,bj->bi", vec, g) / lam)
        z /= np.maximum(1.0, np.sqrt((z * z).sum(axis=1)))[:, None]
        step = np.einsum("bij,bj->bi", bases, z)
        slope = (z * g).sum(axis=1)
        moved, f_new, ends = _backtrack(fgh, rows, x, step, f, slope)
        if not moved.all():
            # where the model's decrease and the full step's change of value are
            # both below the resolution of f, values cannot judge the step: the
            # row takes it, as Newton brings it closer to the extremum, and stops
            noise = _RESOLUTION * np.abs(f)
            level = ~moved & (-slope <= noise) & (np.abs(f_new - f) <= noise)
            xs[rows[level]], values[rows[level]] = ends[level], f_new[level]
            rows, ends, f_new = rows[moved], ends[moved], f_new[moved]
            if rows.size == 0:
                break
        # the line search's values, so that each row's values fall strictly
        # even where a call on another batch shape rounds them differently
        xs[rows], values[rows] = ends, f_new
        x, f = ends, f_new
        _, grads, hessians = fgh(x, rows)
    return values, xs


# |x . x_i| and |d . x_i| at or below which a great circle cos t x + sin t d
# passes through, or lies in, the hyperplane x . x_i = 0
_ON = 1e-12
_MAX_PIVOTS = 100


def _first_crossing(normals, xs, frame, through):
    """For unit rows xs (B, n) and each direction d = +-frame[:, :, j] (the
    unit tangent columns of frame, (B, n, D / 2)), the first angle t in
    [0, pi) at which cos t x + sin t d meets a hyperplane x_i . y = 0, the
    i met there (the most transverse of ties) and that point.  A
    hyperplane through x is met at t = through, one holding the whole
    circle never; t is inf where none is met, and the point is x."""
    dirs = np.swapaxes(np.concatenate([frame, -frame], axis=2), 1, 2)
    a = (xs @ normals.T)[:, None, :]
    b = dirs @ normals.T
    on = np.abs(a) <= _ON
    theta = np.where(on, through, np.mod(np.arctan2(a, -b), np.pi))
    theta[on & (np.abs(b) <= _ON)] = np.inf
    first = np.min(theta, axis=2)
    ties = theta <= first[:, :, None] + _ON
    t = np.where(np.isfinite(first), first, 0.0)[:, :, None]
    return (first, np.argmax(np.where(ties, a * a + b * b, -1.0), axis=2),
            np.cos(t) * xs[:, None, :] + np.sin(t) * dirs)


def _vertices(normals, basis, near):
    """The unit vectors orthogonal to the normals indexed by basis (..., n - 1),
    on the side of near (..., n), to roundoff by Householder QR."""
    q = np.linalg.qr(np.swapaxes(normals[basis], -1, -2), mode="complete")[0][..., -1]
    return q * np.where(np.sum(q * near, axis=-1) < 0.0, -1.0, 1.0)[..., None]


def _lowest(values, ends, theta):
    """The index of each row's lowest end (B, D, n) where theta is finite,
    and its value (inf if there is none)."""
    f = values(ends.reshape(-1, ends.shape[2])).reshape(theta.shape)
    f[~np.isfinite(theta)] = np.inf
    pick = np.argmin(f, axis=1)
    return pick, f[np.arange(pick.size), pick]


def vertex_descent(values, normals: np.ndarray, x0: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Batched descent to a vertex of the arrangement x . x_i = 0 on the
    unit sphere, x_i the rows of normals (N, n), one search per row of x0
    (B, n), for an objective concave on every cell; values maps unit rows
    (B', n) to their objective values (B',).  A row first collects n - 1
    independent normals it is orthogonal to: along each of +-d, for d in
    an orthonormal basis of the directions orthogonal to x and to the
    normals collected, it goes to the first hyperplane met (at once, for
    one through x), and takes the lowest end, by concavity no higher than
    x.  At a vertex with normals A the edges leave along +-c_j, the
    columns of [A; x]^-1 but the last (as in codes._vertex_ascent); the row
    pivots to the lowest of the 2(n - 1) vertices at their ends while that
    strictly lowers its value, at most _MAX_PIVOTS times.  A row whose
    normals run out before n - 1 (a code of rank below n - 1) is
    orthogonal to all of them and stays.  Returns (values (B,), points
    (B, n)) with the points on the sphere."""
    xs = x0 / np.linalg.norm(x0, axis=1, keepdims=True)
    count, n = xs.shape
    f = values(xs)
    basis = np.zeros((count, n - 1), dtype=int)
    rows = np.arange(count)
    for k in range(n - 1):
        held = np.concatenate([normals[basis[rows, :k]], xs[rows, None, :]], axis=1)
        frame = np.linalg.qr(np.swapaxes(held, 1, 2), mode="complete")[0][:, :, k + 1:]
        theta, stopper, ends = _first_crossing(normals, xs[rows], frame, 0.0)
        pick, low = _lowest(values, ends, theta)
        at = np.flatnonzero(np.isfinite(low))
        rows, pick = rows[at], pick[at]
        xs[rows], f[rows] = ends[at, pick], low[at]
        basis[rows, k] = stopper[at, pick]
    xs[rows] = _vertices(normals, basis[rows], xs[rows])
    f[rows] = values(xs[rows])

    slot = np.tile(np.arange(n - 1), 2)
    for _ in range(_MAX_PIVOTS):
        if rows.size == 0:
            break
        x = xs[rows]
        edges = np.linalg.inv(np.concatenate([normals[basis[rows]], x[:, None, :]], axis=1))
        edges = edges[:, :, :-1] / np.linalg.norm(edges[:, :, :-1], axis=1, keepdims=True)
        theta, stopper, ends = _first_crossing(normals, x, edges, np.inf)
        swapped = np.repeat(basis[rows, None, :], slot.size, axis=1)
        swapped[:, np.arange(slot.size), slot] = stopper
        ends = _vertices(normals, swapped, ends)
        pick, low = _lowest(values, ends, theta)
        at = np.flatnonzero(low < f[rows])
        rows, pick = rows[at], pick[at]
        xs[rows], f[rows] = ends[at, pick], low[at]
        basis[rows] = swapped[at, pick]
    return f, xs
