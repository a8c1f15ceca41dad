"""Test-only helpers that the package itself does not need."""

import itertools
import math

import numpy as np
from numpy.polynomial import Polynomial
from scipy import optimize

from kkpolar import interpolants, polarization
from kkpolar.codes import (SphericalCode, _fibonacci_sphere, _row_blocks,
                           _structured_seeds)
from kkpolar.errors import PreconditionError
from kkpolar.interpolants import Side
from kkpolar.polarization import Direction, ExtremizationResult
from kkpolar.polynomials import NewtonForm, monomial_moment
from kkpolar.potentials import Potential, SignState, certify_sign, eval_h
from kkpolar.quadrature import QuadratureRule, rule_alpha, rule_beta
from kkpolar.signed_measure import rule_lambda
from kkpolar.sphere_opt import (_ARMIJO_C1, _GTOL, _LADDER, _NEWTON_ITERATIONS,
                                _RESOLUTION)


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


def reference_central_difference(g):
    """g' of a scalar g by the central difference (step 1e-6, stencil
    clipped to [0, 1]) that user_potential built one float at a time
    before Potential derived it on arrays, kept as its reference."""
    step = 1e-6
    return lambda u: (g(min(u + step, 1.0)) - g(max(u - step, 0.0))) / (
        min(u + step, 1.0) - max(u - step, 0.0))


# ---------------------------------------------------------------------------
# monomial-basis toolkit on numpy's Polynomial: the package works in no
# monomial basis, so expansion, differentiation, Gegenbauer polynomials in
# coefficients and exact integration against the measure live here

# trailing coefficients at most this large in absolute value are dropped
# where a test compares coefficient lists
TRIM_TOL = 1e-14


def monomial(j: int, coeff: float = 1.0) -> Polynomial:
    """coeff * t**j."""
    return Polynomial([0.0] * j + [float(coeff)])


def derivative(p: Polynomial, order: int = 1) -> Polynomial:
    return p.deriv(order)


def even_in_t(p_u: Polynomial) -> Polynomial:
    """p(t^2) as a polynomial in t (index doubling)."""
    coeffs = np.zeros(2 * len(p_u.coef))
    coeffs[::2] = p_u.coef
    return Polynomial(coeffs).trim(TRIM_TOL)


def expand_t(form: NewtonForm) -> Polynomial:
    """The expansion of H in powers of t: the Newton recurrence in
    Polynomial arithmetic, then index doubling from u to t.  It loses
    digits as the degree grows, so it serves exact integration at low k."""
    c, z = form.divided_differences, form.u_nodes
    p = Polynomial([c[-1]])
    for j in range(len(c) - 2, -1, -1):
        p = p * Polynomial([-z[j], 1.0]) + c[j]
    return even_in_t(p)


def integrate_mu(n: int, p: Polynomial) -> float:
    """Integral of p against the axis-projection probability measure.

    Exact in formula: a dot product of the coefficients with the
    closed-form monomial moments.  For p expanded in the Gegenbauer basis
    this equals the zeroth Gegenbauer coefficient.
    """
    return math.fsum(
        c * monomial_moment(n, j) for j, c in enumerate(p.coef) if j % 2 == 0
    )


def gegenbauer(n: int, ell: int) -> Polynomial:
    """Degree-ell Gegenbauer polynomial for dimension n, normalized to 1
    at t = 1, in monomial coefficients, by the three-term recurrence
        P_m = ((2m + n - 4) t P_m-1 - (m - 1) P_m-2) / (m + n - 3)."""
    t = Polynomial([0.0, 1.0])
    prev, cur = Polynomial([1.0]), t
    for m in range(2, ell + 1):
        denom = m + n - 3
        prev, cur = cur, (t * cur) * ((2 * m + n - 4) / denom) + \
            prev * (-(m - 1) / denom)
    return cur if ell else prev


def reference_divided_difference(values: list, xs: list) -> float:
    """The top divided difference f[x_0, ..., x_m-1] of distinct nodes by
    the in-place loop that the sampled sign certificate used before it
    shared polynomials._newton_coefficients, kept as its reference."""
    vals = list(values)
    m = len(xs)
    for level in range(1, m):
        for i in range(m - level):
            vals[i] = (vals[i + 1] - vals[i]) / (xs[i + level] - xs[i])
    return vals[0]


# ---------------------------------------------------------------------------
# interpolant builders: each is _interpolate on its rule and side, with the
# sign certificate that polarization._bound computes


def interpolate(rule: QuadratureRule, pot: Potential, side: Side) -> NewtonForm:
    """_interpolate with the certificate of g^(k+1) on (0, top^2), top the
    anchor of the rule or 1."""
    top = 1.0 if rule.s is None else rule.s
    state = certify_sign(pot, rule.k, top * top)
    return interpolants._interpolate(rule, pot, side, state)


def build_H2k(n: int, k: int, pot: Potential) -> NewtonForm:
    """Below-side interpolant at the interior Gauss nodes: touches h at
    every node, tangentially at the nonzero ones.  Needs g^(k+1) >= 0 on
    (0,1); the result lies below h on all of [-1,1]."""
    return interpolate(rule_alpha(n, k), pot, Side.BELOW)


def build_H2k_tilde(n: int, k: int, pot: Potential) -> NewtonForm:
    """Below-side interpolant at the endpoint-augmented nodes.  Needs
    g^(k+1) <= 0 on (0,1) and h(1) finite; the endpoint node carries only
    a function value."""
    return interpolate(rule_beta(n, k), pot, Side.BELOW)


def build_H2k_s(n: int, k: int, s: float, pot: Potential) -> NewtonForm:
    """Above-side interpolant at the nodes of the rule anchored at s,
    dominating h on [-s, s].  The anchor must be admissible for
    rule_lambda, and g^(k+1) >= 0 on (0, s*s)."""
    return interpolate(rule_lambda(n, k, s), pot, Side.ABOVE)


# ---------------------------------------------------------------------------
# code and margin references


def reference_duplicate(pts: np.ndarray):
    """The first pair (i, j), i < j, of rows within 1e-12 of each other, or
    None: the per-row loop that SphericalCode.from_points replaced, kept
    as its reference."""
    for i in range(len(pts)):
        close = np.linalg.norm(pts[i + 1:] - pts[i], axis=1) <= 1e-12
        if np.any(close):
            return i, i + 1 + int(np.argmax(close))
    return None


def reference_screen_seeds(code: SphericalCode, seed: int,
                           restarts) -> np.ndarray:
    """The seed rows of the extremization screen, built as polarization
    built them before both sphere searches shared codes._sphere_seeds,
    kept as its reference."""
    seeds = [_structured_seeds(code.points)]
    if code.n == 2:
        seeds.append(code.points @ np.array([[0.0, 1.0], [-1.0, 0.0]]))
    if code.n == 3:
        seeds.append(_fibonacci_sphere(600))
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((max(128, restarts or 0), code.n))
    seeds.append(raw / np.linalg.norm(raw, axis=1, keepdims=True))
    return np.vstack(seeds)


def reference_covering_seeds(points: np.ndarray, seed: int) -> np.ndarray:
    """The seed rows of the covering search, built as it built them before
    both sphere searches shared codes._sphere_seeds, kept as its reference
    (with no rows of its own on the circle)."""
    n = points.shape[1]
    parts = [_structured_seeds(points)]
    if n == 3:
        parts.append(_fibonacci_sphere(1500))
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((64, n))
    parts.append(raw / np.linalg.norm(raw, axis=1, keepdims=True))
    return np.vstack(parts)


def nearly_flat_code() -> SphericalCode:
    """12 random unit points in R^4 with the fourth coordinate scaled by
    1e-14: full rank by numpy's test, but Qhull finds no initial simplex."""
    pts = np.random.default_rng(0).standard_normal((12, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[:, 3] *= 1e-14
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return SphericalCode.from_points(pts)


def reference_ratio_test(rows: np.ndarray, ys: np.ndarray, dirs: np.ndarray,
                         basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """codes._ratio_test with the np.where select it had before its select
    became branch-free, in the same row blocks, kept as its reference."""
    step = np.empty(dirs.shape[:2])
    stopper = np.empty(dirs.shape[:2], dtype=int)
    for at in _row_blocks(len(ys), dirs.shape[1] * len(rows), rows.shape[1]):
        slack = np.maximum(1.0 - ys[at] @ rows.T, 0.0)[:, None, :]
        rate = dirs[at] @ rows.T
        floor = 8.0 * np.finfo(float).eps * np.linalg.norm(dirs[at], axis=2)
        stops = rate > floor[:, :, None]
        stops[np.arange(len(rate))[:, None], :, basis[at]] = False
        ratio = np.where(stops, slack / np.where(stops, rate, 1.0), np.inf)
        stopper[at] = np.argmin(ratio, axis=2)
        step[at] = np.take_along_axis(ratio, stopper[at, :, None], axis=2)[:, :, 0]
    return step, stopper


# Riemannian Newton as it was before its bookkeeping was trimmed (the same
# fgh calls, GEMMs, ufuncs and reductions on the same operands), kept as
# the reference for sphere_opt.tangent_newton


def _reference_householder_bases(xs: np.ndarray) -> np.ndarray:
    """sphere_opt._householder_bases as it was: the whole n x n reflector
    of each row, built on a fresh np.eye(n), sliced to columns 2..n."""
    v = xs.copy()
    v[:, 0] += np.where(xs[:, 0] >= 0.0, 1.0, -1.0)
    scale = 2.0 / np.sum(v * v, axis=1)
    reflector = np.eye(xs.shape[1]) - scale[:, None, None] * (
        v[:, :, None] * v[:, None, :])
    return reflector[:, :, 1:]


def _reference_backtrack(fgh, rows: np.ndarray, x: np.ndarray, step: np.ndarray,
                         f: np.ndarray, slope: np.ndarray):
    """sphere_opt._backtrack as it was: alpha = 1 on (rows, 1, n) arrays,
    then every halving at once for the rows that failed."""
    alpha = np.full(f.size, np.nan)
    pending = np.arange(f.size)
    for alphas in (_LADDER[:1], _LADDER[1:]):
        cand = x[pending][:, None, :] + alphas[None, :, None] * step[pending][:, None, :]
        cand /= np.linalg.norm(cand, axis=2, keepdims=True)
        value = fgh(cand.reshape(-1, x.shape[1]), np.repeat(rows[pending], alphas.size),
                    values_only=True).reshape(pending.size, alphas.size)
        if alphas.size == 1:
            f_new, ends = value[:, 0].copy(), cand[:, 0].copy()
        ok = ((value <= f[pending, None] + _ARMIJO_C1 * alphas * slope[pending, None])
              & (value < f[pending, None]))
        took = np.any(ok, axis=1)
        hit = np.argmax(ok[took], axis=1)
        chosen = pending[took]
        alpha[chosen] = alphas[hit]
        f_new[chosen] = value[took, hit]
        ends[chosen] = cand[took, hit]
        pending = pending[~took]
        if pending.size == 0:
            break
    return alpha, f_new, ends


def reference_tangent_newton(fgh, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sphere_opt.tangent_newton as it was, with the same contract: every
    row gathered anew each iteration, np.eye built per iteration, the
    step's norms through np.linalg.norm."""
    xs = x0 / np.linalg.norm(x0, axis=1, keepdims=True)
    n = xs.shape[1]
    rows = np.arange(xs.shape[0])
    values, grads, hessians = fgh(xs, rows)
    for _ in range(_NEWTON_ITERATIONS):
        x = xs[rows]
        bases = _reference_householder_bases(x)
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
        f, slope = values[rows], np.sum(z * g, axis=1)
        alpha, f_new, ends = _reference_backtrack(fgh, rows, x, step, f, slope)
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
        _, grads, hessians = fgh(xs[rows], rows)
    return values, xs


def reference_margin(p, pot: Potential, side: Side,
                     interval: tuple[float, float], grid_size: int = 2000) -> float:
    """The one-sided margin by one scalar eval_h call per grid point, with
    the polynomial p called on the whole grid: the loop that
    verify_one_sided replaced, kept as its reference."""
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


def average_check(code: SphericalCode, k: int, samples: int = 10_000,
                  seed: int = 0) -> float:
    """Monte Carlo check of the sphere average of the degree-2k monomial
    potential sum: returns (sample average) - c_2k * N, which should be
    O(N / sqrt(samples)) for any code."""
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    if samples < 10_000:
        raise PreconditionError(
            f"averaging needs at least 10000 samples, got {samples}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, code.n))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    dots = x @ code.points.T
    vals = np.sum(dots ** (2 * k), axis=1)
    return float(np.mean(vals)) - monomial_moment(code.n, 2 * k) * code.size


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


def _u_at(points: np.ndarray, pot: Potential, x: np.ndarray) -> float:
    """U at the unit vector x, by the program's one evaluator of U."""
    return float(polarization._u_batch(points, pot, x[None])[0])


def reference_extremize(code: SphericalCode, pot: Potential,
                        direction: Direction, seed: int = 0) -> ExtremizationResult:
    """extremize with the same seed screen and survivors, each refined by
    the derivative-free chain instead of Riemannian Newton or vertex
    descent; the reference the gradient path is compared against (finite
    extrema only)."""
    sgn = polarization._SIGN[Direction(direction)]
    points = code.points
    mat, u = polarization._screen(code, pot, seed, None)
    survivors = mat[np.argsort(sgn * u)[:polarization._SURVIVORS]]

    def f(x: np.ndarray) -> float:
        return sgn * _u_at(points, pot, x)

    best_val, best_x = math.inf, survivors[0]
    for x0 in survivors:
        val, x = projected_gradient_descent(f, x0)
        val2, x2 = nm_polish(f, x)
        if val2 < val:
            val, x = val2, x2
        if val < best_val:
            best_val, best_x = val, x
    return ExtremizationResult(
        value=_u_at(points, pot, best_x), argpoint=tuple(best_x),
        restarts=len(survivors), stationarity_norm=stationarity_norm(f, best_x))


# ---------------------------------------------------------------------------
# circle reference: angle sweep plus bounded Brent refinement


def reference_extremize_circle(points: np.ndarray, pot: Potential,
                               sgn: float) -> ExtremizationResult:
    """The minimum of sgn U on S^1 by a dense angle sweep plus bounded
    scalar refinement: the reference that extrema on the circle, screened
    and refined like every other dimension, is compared against."""
    angles = np.arctan2(points[:, 1], points[:, 0])
    count = 4096
    phis = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    dots = np.cos(phis[:, None] - angles[None, :])
    vals = sgn * np.sum(
        pot.eval_g(np.minimum(dots * dots, 1.0)), axis=1)
    idx = int(np.argmin(vals))

    def objective(phi: float) -> float:
        d = np.cos(phi - angles)
        return sgn * float(np.sum(pot.eval_g(
            np.minimum(d * d, 1.0))))

    span = 2.0 * np.pi / count
    res = optimize.minimize_scalar(
        objective, bounds=(phis[idx] - span, phis[idx] + span),
        method="bounded", options={"xatol": 1e-13})
    phi = float(res.x) if res.fun <= vals[idx] else float(phis[idx])
    x = np.array([math.cos(phi), math.sin(phi)])
    step = 1e-7
    slope = (objective(phi + step) - objective(phi - step)) / (2.0 * step)
    return ExtremizationResult(
        value=_u_at(points, pot, x), argpoint=tuple(x),
        restarts=1,
        stationarity_norm=abs(slope) if math.isfinite(slope) else math.inf)


# ---------------------------------------------------------------------------
# vertex reference: the arrangement's edges at a vertex, one at a time


def adjacent_vertices(points: np.ndarray, x: np.ndarray, tol: float = 1e-12) -> list:
    """The vertices of the arrangement x . x_i = 0 next to the vertex x
    (n >= 3), by SVD null spaces, one edge at a time: every n - 2
    independent code points orthogonal to x (within tol) are orthogonal to
    an edge's great circle through x, and each way along it the first
    hyperplane of a code point not orthogonal to x ends the edge.  The
    reference for sphere_opt.vertex_descent, which pivots along the
    columns of an inverse instead."""
    n = points.shape[1]
    active = np.flatnonzero(np.abs(points @ x) <= tol)
    ends = []
    for held in map(list, itertools.combinations(active, n - 2)):
        if np.linalg.matrix_rank(points[held]) < n - 2:
            continue
        # the circle's plane is the null space of the held points, and
        # holds x; e is its unit direction orthogonal to x
        plane = np.linalg.svd(points[held])[2][n - 2:]
        c = plane @ x
        e = plane.T @ np.array([-c[1], c[0]])
        for d in (e, -e):
            best, stop = math.inf, None
            for j in range(len(points)):
                a, b = float(x @ points[j]), float(d @ points[j])
                theta = math.atan2(a, -b) % math.pi
                if abs(a) > tol and theta < best:
                    best, stop = theta, j
            v = np.linalg.svd(points[held + [stop]])[2][-1]
            ends.append(v if v @ (math.cos(best) * x + math.sin(best) * d) >= 0.0 else -v)
    return ends
