"""Spherical codes: validated point sets, reference designs, moment tests
by the Gegenbauer recurrence, the squared-inner-product Waring identity,
covering radius, and JSON I/O.

The covering radius is exact: the nearest facet of the convex hull of the
antipodal closure, in every dimension including the circle.  Only codes
whose hull may have more than HULL_FACET_CAP facets, and nearly flat codes
that Qhull rejects, fall back to a multistart search, whose value is an
upper estimate of the true minimum (covering_radius_r returns which
applies).  The search refines its best seeds by exact vertex ascent on the
polar polytope {y : |x_i . y| <= 1} and ends at local minima; nothing here
uses Nelder-Mead.

Both sphere searches, polarization's seed screen and the covering search,
take their seed directions from _sphere_seeds and evaluate them against
the code by _row_reduce.  The covering search screens every seed; the
extremization screen leaves out the O(N^2) pair rows x_i +- x_j unless
the potential may have a cusp at orthogonality (polarization._screen).
Both run in the row blocks of _row_blocks, as does the ratio test of
the covering search's vertex ascent: each temporary holds at most
BLOCK_ENTRIES entries, so it stays in L2 cache and a GEMM on it runs on
one OpenBLAS thread (n <= 16).  The per-row arithmetic does not depend on
the block, so the results are bitwise those of one pass.  The ratio test
selects without a branch: np.where mispredicted on its half-true mask in
no pattern, 340 us per 17 x 8 x 240 block (88 us sorted), half the ascent.
SphericalCode.from_points finds repeated points with a k-d tree.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull, QhullError, cKDTree

from .errors import CodeFormatError, PreconditionError
from .polynomials import monomial_moment

_NORM_TOL = 1e-12
_DUP_TOL = 1e-12
# entries of the float64 temporary of a block of _row_blocks, the one block
# rule of the directions x code kernels: the seed screens of both sphere
# searches (_row_reduce) and the ratio test of the covering search's vertex
# ascent (_ratio_test).  2^15 (256 KB) stay in L2, and OpenBLAS runs
# a GEMM of that size on one thread for n <= 16.  Measured on 2 cores
# (OpenBLAS 0.3.31, Haswell) on the 42,375 x 200 cosh screen of a random
# code in R^3: 4096-row blocks take 63 ms wall and 125 ms CPU, 2^15-entry
# blocks 45 ms of each; at n = 16, 2^16 entries run two threads again.
# Within a block the ratio test selects without a branch: np.where on its
# half-true mask took 340 us of a 17 x 8 x 240 block, 88 us if sorted.
BLOCK_ENTRIES = 2 ** 15
# Qhull is not started when the Upper Bound Theorem allows the hull of +-C
# more facets than this: its time and memory grow with the facet count
# (a random 120-point code in R^8 has about 4e5 facets and takes 15 s).
HULL_FACET_CAP = 100_000
# screened seeds refined by vertex ascent in the covering search, and the
# pivots allowed per seed; with 12 seeds the search missed the hull radius
# on 13 of 4000 random codes (n 3-6, N n-40), with 48 on none of 10000
_ASCENT_STARTS = 48
_MAX_PIVOTS = 100


def _row_blocks(size: int, width: int):
    """Slices covering rows 0..size-1 of a kernel against width columns, in
    order, of at most max(2, BLOCK_ENTRIES // width) rows each."""
    step = max(2, BLOCK_ENTRIES // width)
    for start in range(0, size, step):
        # a lone last row would take numpy's gemv path, whose sums differ
        # from gemm's in the last bits: take it with the row before
        yield slice(min(start, max(size - 2, 0)), start + step)


def _row_reduce(points: np.ndarray, mat: np.ndarray, reduce) -> np.ndarray:
    """reduce(mat[rows] @ points.T) over the row blocks of _row_blocks, one
    value per row, bitwise that of one pass; reduce may overwrite its input."""
    out = np.empty(len(mat))
    for rows in _row_blocks(len(mat), len(points)):
        out[rows] = reduce(mat[rows] @ points.T)
    return out


def _unit_norms(pts: np.ndarray, tol: float, requirement: str) -> np.ndarray:
    """The row norms, or CodeFormatError naming the worst error (the row,
    if that norm is NaN or inf) unless each lies within tol of 1."""
    norms = np.linalg.norm(pts, axis=1)
    off = np.abs(norms - 1.0)
    if not np.all(off <= tol):
        # argmax stops at the first NaN
        row = int(np.argmax(off))
        detail = (f"worst error {off[row]:.3e}" if math.isfinite(off[row])
                  else f"row {row} has norm {norms[row]}")
        raise CodeFormatError(f"{requirement} ({detail})")
    return norms


def _vector_rows(points) -> np.ndarray:
    """points as a new float array of at least one row of dimension >= 2."""
    pts = np.array(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 2:
        raise CodeFormatError(
            f"need a nonempty 2-D array of vectors with dimension >= 2, "
            f"got shape {pts.shape}")
    return pts


@dataclass(frozen=True)
class SphericalCode:
    """N distinct unit vectors in R^n, rows of a read-only array."""

    n: int
    points: np.ndarray

    @classmethod
    def from_points(cls, points) -> "SphericalCode":
        pts = _vector_rows(points)
        _unit_norms(pts, _NORM_TOL, "rows must be unit vectors")
        return cls._distinct(pts)

    @classmethod
    def _distinct(cls, pts: np.ndarray) -> "SphericalCode":
        """The code on rows already checked to be unit vectors, unless two
        lie within _DUP_TOL of each other; the error names the first such
        pair (i, j), i < j, in row order.  The k-d tree measures the
        explicit differences x_j - x_i, not the Gram identity, whose
        cancellation would blur distances near _DUP_TOL."""
        tree = cKDTree(pts)
        # counts, not the N^2/2 pairs of N coinciding rows; each row lies
        # within _DUP_TOL of itself, and the first row with a partner has
        # only later partners
        close = np.flatnonzero(
            tree.query_ball_point(pts, _DUP_TOL, return_length=True) > 1)
        if close.size:
            i = int(close[0])
            j = min(set(tree.query_ball_point(pts[i], _DUP_TOL)) - {i})
            raise CodeFormatError(f"repeated point: rows {i} and {j} coincide")
        pts.setflags(write=False)
        return cls(pts.shape[1], pts)

    @property
    def size(self) -> int:
        return int(self.points.shape[0])

    def gram(self) -> np.ndarray:
        return self.points @ self.points.T

    def to_dict(self) -> dict:
        """The code-file schema that load_code reads."""
        return {"dim": self.n,
                "points": [[float(v) for v in row] for row in self.points]}


@dataclass(frozen=True)
class DesignCertificate:
    """Outcome of the even-moment test through order 2k."""

    k: int
    moments: dict
    max_even_moment_residual: float
    tol: float
    is_design: bool


def _moments(code: SphericalCode, top: int) -> list[float]:
    """The moments of orders 1..top in one pass of the Gegenbauer
    three-term recurrence on the Gram matrix clipped to [-1, 1], where it is
    stable; P_ell's monomial coefficients lose digits from degree 20 on."""
    t = np.clip(code.gram(), -1.0, 1.0)
    prev, cur = 1.0, t
    sums = [float(np.sum(t))]
    for ell in range(2, top + 1):
        step = t * cur
        step *= (2 * ell + code.n - 4) / (ell + code.n - 3)
        step -= (ell - 1) / (ell + code.n - 3) * prev
        prev, cur = cur, step
        sums.append(float(np.sum(cur)))
    return sums


def moment(code: SphericalCode, ell: int) -> float:
    """Sum of the degree-ell Gegenbauer polynomial over all inner-product
    pairs; nonnegative up to roundoff."""
    if ell < 1:
        raise PreconditionError(f"moment order must be >= 1, got {ell}")
    return _moments(code, ell)[-1]


def is_kk_design(code: SphericalCode, k: int, tol: float | None = None) -> DesignCertificate:
    """Even moments 2..2k must all vanish, all computed in one pass;
    tolerance scales with the N^2 terms entering each moment sum."""
    if k < 1:
        raise PreconditionError(f"design order must be >= 1, got {k}")
    if tol is None:
        tol = 1e-9 * code.size**2
    sums = _moments(code, 2 * k)
    moments = {ell: sums[ell - 1] for ell in range(2, 2 * k + 1, 2)}
    residual = max(abs(v) for v in moments.values())
    return DesignCertificate(k, moments, residual, tol, residual <= tol)


def waring_residual(code: SphericalCode, x, ell: int) -> float:
    """Deviation of the power sum over the code from its design value:
    sum_i (x . x_i)^ell - c_ell N."""
    if ell < 2 or ell % 2 != 0:
        raise PreconditionError(f"power must be a positive even integer, got {ell}")
    x = np.asarray(x, dtype=float)
    if not abs(np.linalg.norm(x) - 1.0) <= 1e-9:
        raise PreconditionError("evaluation point must be a unit vector")
    powers = (code.points @ x) ** ell
    return float(np.sum(powers) - monomial_moment(code.n, ell) * code.size)


# ---------------------------------------------------------------------------
# covering radius


def _fibonacci_sphere(count: int) -> np.ndarray:
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    i = np.arange(count)
    z = 1.0 - (2.0 * i + 1.0) / count
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = 2.0 * math.pi * i / golden
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """The rows of norm above 1e-9, normalized (in place if all pass).
    Each norm is a BLAS dot product of the row with itself, the arithmetic
    np.linalg.norm uses on one vector, so rows come out bitwise as a loop's."""
    norms = np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])
    keep = norms > 1e-9
    if np.all(keep):
        return np.divide(rows, norms[:, None], out=rows)
    return rows[keep] / norms[keep, None]


def _structured_seeds(points: np.ndarray, pairs: bool = True) -> np.ndarray:
    """Candidate deep points with exact closed forms on symmetric codes, as
    rows: the code points, coordinate axes, with pairs the normalized
    pairwise sums and differences (pairs i < j in order, sum before
    difference), and (for small codes) all sign combinations of the full
    point sum."""
    m, n = points.shape
    parts = [points, np.eye(n)]
    if pairs:
        i, j = np.triu_indices(m, 1)
        # two gathers into one array: fresh temporaries of 2 N^2 rows page-fault
        x_i, x_j, rows = points[i], points[j], np.empty((len(i), 2, n))
        np.add(x_i, x_j, out=rows[:, 0])
        np.subtract(x_i, x_j, out=rows[:, 1])
        parts.append(_unit_rows(rows.reshape(-1, n)))
    if m <= 10:
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=m - 1)),
                         dtype=float).reshape(2 ** (m - 1), m - 1)
        combos = points[0] + np.matmul(signs[:, None, :], points[1:])[:, 0, :]
        parts.append(_unit_rows(combos))
    return np.vstack(parts)


def _sphere_seeds(points: np.ndarray, grid: int, randoms: int,
                  seed: int, pairs: bool = True) -> np.ndarray:
    """Seed directions of a sphere search, as rows: the structured seeds
    (with the O(N^2) pair rows only when pairs is set), on the circle the
    directions orthogonal to the points, in R^3 a Fibonacci sphere of grid
    points, then randoms seeded random directions.  A negative seed is a
    PreconditionError."""
    if seed < 0:
        raise PreconditionError(f"seed must be >= 0, got {seed}")
    n = points.shape[1]
    parts = [_structured_seeds(points, pairs)]
    if n == 2:
        # the cusps of |t|^p; for p <= 1 U is concave on every arc between
        # them, so its minimum lies at one of these seeds
        parts.append(points @ np.array([[0.0, 1.0], [-1.0, 0.0]]))
    if n == 3:
        parts.append(_fibonacci_sphere(grid))
    raw = np.random.default_rng(seed).standard_normal((randoms, n))
    parts.append(raw / np.linalg.norm(raw, axis=1, keepdims=True))
    return np.vstack(parts)


def _null_direction(points: np.ndarray) -> np.ndarray | None:
    """A unit vector orthogonal to every point when the points do not span
    R^n (numpy's matrix_rank tolerance), else None."""
    m, n = points.shape
    _, sing, vt = np.linalg.svd(points, full_matrices=m < n)
    if m >= n and sing[-1] > sing[0] * m * np.finfo(float).eps:
        return None
    return vt[-1]


def max_hull_facets(n: int, vertices: int) -> int:
    """Upper Bound Theorem: the most facets an n-polytope with this many
    vertices can have, attained by the cyclic polytope (vertices > n)."""
    return (math.comb(vertices - (n + 1) // 2, n // 2)
            + math.comb(vertices - n // 2 - 1, (n + 1) // 2 - 1))


def _ratio_test(rows: np.ndarray, ys: np.ndarray, dirs: np.ndarray,
                basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each start b and direction dirs[b, e], the largest t >= 0 with
    rows . (ys[b] + t dirs[b, e]) <= 1, and the row that stops it; t is inf
    where no row does.  Rows in basis[b] are held at equality by the
    directions and skipped; products below roundoff and NaN rates do not
    stop a step.  The starts run in the row blocks of _row_blocks.  The
    select is branch-free, np.fmax of slack / rate and a bar of +inf (NaN
    where a row stops): an np.where select on that half-true, patternless
    mask mispredicted, 340 us per 17 x 8 x 240 block (88 us sorted)."""
    step = np.empty(dirs.shape[:2])
    stopper = np.empty(dirs.shape[:2], dtype=int)
    with np.errstate(divide="ignore", invalid="ignore"):
        for at in _row_blocks(len(ys), dirs.shape[1] * len(rows)):
            slack = np.maximum(1.0 - ys[at] @ rows.T, 0.0)[:, None, :]
            rate = dirs[at] @ rows.T
            rate[np.arange(len(rate))[:, None], :, basis[at]] = np.nan
            floor = 8.0 * np.finfo(float).eps * np.linalg.norm(dirs[at], axis=2)
            bar = np.logical_not(rate > floor[:, :, None]) * np.inf
            ratio = np.fmax(slack / rate, bar, out=bar)
            stopper[at] = np.argmin(ratio, axis=2)
            step[at] = np.take_along_axis(ratio, stopper[at, :, None], axis=2)[:, :, 0]
    return step, stopper


def _vertex_ascent(points: np.ndarray, starts: np.ndarray) -> tuple[float, np.ndarray]:
    """The best local minimum of max_i |x . x_i| reached from the unit rows
    of starts, by polar duality: 1/r is the largest norm on Q = {y : |x_i . y| <= 1},
    a convex function whose maximum is reached at a vertex of Q.

    Each start w goes to y = w / max_i |x_i . w| on the boundary of Q and
    collects n active rows of +-C, moving along the part of y orthogonal
    to those already active (any direction orthogonal to them when that
    part vanishes), which raises |y|.  At the vertex M y = 1 of active
    rows M, the edges of Q are the columns of -M^-1; the ascent pivots to
    the adjacent vertex of largest norm while |y|^2 strictly increases, at
    most _MAX_PIVOTS times.  An endpoint is the pole of a facet of the hull
    of +-C whose foot lies inside the facet, so the unit witness w = y/|y|
    is a local minimum of max_i |x . x_i|.  Returns the best
    max_i |x_i . w| over the starts, with its witness: an attained value,
    so an upper estimate of the covering radius."""
    count, n = starts.shape
    rows = np.vstack([points, -points])
    ys = starts / np.max(np.abs(starts @ points.T), axis=1)[:, None]
    basis = np.empty((count, n), dtype=int)
    basis[:, 0] = np.argmax(ys @ rows.T, axis=1)
    # a start stays where it is if no row stops it, which happens only for
    # codes within roundoff of a hyperplane
    live = np.ones(count, dtype=bool)
    for k in range(1, n):
        frame = np.linalg.qr(np.swapaxes(rows[basis[:, :k]], 1, 2),
                             mode="complete")[0][:, :, k:]
        away = np.einsum("bij,bj->bi", frame, np.einsum("bij,bi->bj", frame, ys))
        flat = np.linalg.norm(away, axis=1) <= 1e-12 * np.linalg.norm(ys, axis=1)
        away[flat] = frame[flat, :, 0]
        step, stopper = _ratio_test(rows, ys, away[:, None, :], basis[:, :k])
        live &= np.isfinite(step[:, 0])
        ys[live] += step[live] * away[live]
        basis[:, k] = stopper[:, 0]

    every = np.arange(count)
    for _ in range(_MAX_PIVOTS):
        at = every[live]
        if at.size == 0:
            break
        edges = -np.swapaxes(np.linalg.inv(rows[basis[at]]), 1, 2)
        step, stopper = _ratio_test(rows, ys[at], edges, basis[at])
        bounded = np.isfinite(step)
        reached = ys[at, None, :] + np.where(bounded, step, 0.0)[:, :, None] * edges
        gain = np.where(bounded, np.sum(reached * reached, axis=2), -np.inf)
        edge = np.argmax(gain, axis=1)
        pick = np.arange(at.size)
        up = gain[pick, edge] > np.sum(ys[at] ** 2, axis=1)
        live[at[~up]] = False
        at, edge, pick = at[up], edge[up], pick[up]
        ys[at] = reached[pick, edge]
        basis[at, edge] = stopper[pick, edge]

    witnesses = ys / np.linalg.norm(ys, axis=1, keepdims=True)
    best = witnesses[int(np.argmin(np.max(np.abs(witnesses @ points.T), axis=1)))]
    return float(np.max(np.abs(points @ best))), best


def _seed_scores(points: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """max_i |m . x_i| at each row m of mat."""
    return _row_reduce(points, mat, lambda d: np.max(np.abs(d, out=d), axis=1))


def _covering_radius_search(points: np.ndarray, seed: int) -> tuple[float, np.ndarray]:
    """Multistart fallback: the seeds of _sphere_seeds (a 1500-point grid
    in R^3, 64 random directions) screened by max_i |x . x_i|, the best
    _ASCENT_STARTS refined by exact vertex ascent (_vertex_ascent).  An
    upper estimate of the true minimum."""
    mat = _sphere_seeds(points, 1500, 64, seed)
    order = np.argsort(_seed_scores(points, mat))
    return _vertex_ascent(points, mat[order[:_ASCENT_STARTS]])


def covering_radius_r(code: SphericalCode, seed: int = 0
                      ) -> tuple[float, np.ndarray, str]:
    """Depth of the deepest hole: min over the sphere of max_i |x . x_i|,
    as (radius, witness, kind), with the minimizing witness and how the
    radius was obtained.

    kind is "exact" from rank deficiency or the convex hull.  For every
    n >= 2, max_i |x . x_i| is the support function of the convex hull of
    +-C, whose minimum over unit x is the distance from the origin to the
    nearest facet, attained at that facet's normal; on the circle that is
    the midpoint of the largest angular gap of +-C.  The value returned is
    max_i |w . x_i| at the normalized witness w.  Points that do not span
    R^n give 0, attained at a direction orthogonal to all of them.  kind is
    "upper_estimate" from the multistart vertex-ascent search, which runs
    when the hull may have more than HULL_FACET_CAP facets, or when Qhull
    rejects a code that spans R^n by numpy's rank test but lies within
    roundoff of a hyperplane; seed applies only there.
    """
    pts = code.points
    null = _null_direction(pts)
    if null is not None:
        return 0.0, null, "exact"
    if max_hull_facets(code.n, 2 * code.size) <= HULL_FACET_CAP:
        try:
            hull = ConvexHull(np.vstack([pts, -pts]))
        except QhullError:
            hull = None
        if hull is not None:
            # facets satisfy a . y + b <= 0 inside with |a| = 1; the origin
            # is interior, so the nearest facet has the largest b
            normal = hull.equations[int(np.argmax(hull.equations[:, -1])), :-1]
            witness = normal / np.linalg.norm(normal)
            return float(np.max(np.abs(pts @ witness))), witness, "exact"
    return (*_covering_radius_search(pts, seed), "upper_estimate")


# ---------------------------------------------------------------------------
# catalog


def _onb(n: int) -> np.ndarray:
    if n < 2:
        raise PreconditionError(f"dimension must be >= 2, got {n}")
    return np.eye(n)


def _simplex_frame(n: int) -> np.ndarray:
    """n+1 unit vectors in R^n with pairwise inner products -1/n."""
    if n < 2:
        raise PreconditionError(f"dimension must be >= 2, got {n}")
    m = n + 1
    centered = np.eye(m) - np.full((m, m), 1.0 / m)
    centered *= math.sqrt(m / n)
    # reflect the zero-sum hyperplane onto the first n coordinates
    v = np.full(m, 1.0 / math.sqrt(m))
    v = v - np.eye(m)[-1]
    v /= np.linalg.norm(v)
    rotated = centered @ (np.eye(m) - 2.0 * np.outer(v, v))
    pts = rotated[:, :n]
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _cube_half() -> np.ndarray:
    pts = np.array([
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ])
    return pts / math.sqrt(3.0)


def _polygon_half(m: int) -> np.ndarray:
    if m < 1:
        raise PreconditionError(f"polygon half-size must be >= 1, got {m}")
    angles = np.arange(m) * math.pi / m
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _icosahedron_half() -> np.ndarray:
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    pts = np.array([
        [0.0, 1.0, phi], [0.0, -1.0, phi],
        [1.0, phi, 0.0], [-1.0, phi, 0.0],
        [phi, 0.0, 1.0], [phi, 0.0, -1.0],
    ])
    return pts / math.sqrt(1.0 + phi * phi)


def _cell24_half() -> np.ndarray:
    rows = []
    for a in range(4):
        for b in range(a + 1, 4):
            for sign in (1.0, -1.0):
                row = np.zeros(4)
                row[a] = 1.0
                row[b] = sign
                rows.append(row)
    return np.array(rows) / math.sqrt(2.0)


def catalog(name: str) -> SphericalCode:
    """Reference codes by name: onb:<n>, simplex_frame:<n>, cube_half,
    cross_half:<n>, polygon_half:<m>, icosahedron_half, cell24_half."""
    head, _, arg = name.strip().partition(":")
    try:
        if head == "onb" or head == "cross_half":
            return SphericalCode.from_points(_onb(int(arg)))
        if head == "simplex_frame":
            return SphericalCode.from_points(_simplex_frame(int(arg)))
        if head == "cube_half" and not arg:
            return SphericalCode.from_points(_cube_half())
        if head == "polygon_half":
            return SphericalCode.from_points(_polygon_half(int(arg)))
        if head == "icosahedron_half" and not arg:
            return SphericalCode.from_points(_icosahedron_half())
        if head == "cell24_half" and not arg:
            return SphericalCode.from_points(_cell24_half())
    except ValueError as exc:
        raise PreconditionError(f"bad catalog parameter in {name!r}") from exc
    raise PreconditionError(f"unknown catalog name {name!r}")


CATALOG_DESIGNS = {
    # name -> certified design order of the catalog entry
    "onb:3": 1, "onb:4": 1, "simplex_frame:3": 1, "cube_half": 1,
    "cross_half:4": 1, "polygon_half:5": 4, "icosahedron_half": 2,
    "cell24_half": 2,
}


# ---------------------------------------------------------------------------
# file I/O


def save_code(code: SphericalCode, path) -> None:
    Path(path).write_text(json.dumps(code.to_dict(), indent=2) + "\n")


def load_code(path) -> SphericalCode:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise CodeFormatError(f"not UTF-8 text: {path}") from exc
    except json.JSONDecodeError as exc:
        raise CodeFormatError(f"not valid JSON: {path}") from exc
    if not isinstance(data, dict) or "dim" not in data or "points" not in data:
        raise CodeFormatError('code JSON needs keys "dim" and "points"')
    n = data["dim"]
    # exact types, as bool is an int subclass; a float only when integral
    if not (type(n) is int or type(n) is float and n.is_integer()):
        raise CodeFormatError(f'"dim" must be an integer, got {n!r}')
    n = int(n)
    try:
        pts = np.array(data["points"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise CodeFormatError("points must be a rectangular numeric array") from exc
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise CodeFormatError("a code must contain at least one point")
    if pts.shape[1] != n:
        raise CodeFormatError(
            f"dim says {n} but points have {pts.shape[1]} coordinates")
    norms = _unit_norms(pts, 1e-9, "row norms must be within 1e-9 of 1")
    # renormalized, the rows are unit vectors: only the dimension and the
    # duplicate checks of from_points remain
    return SphericalCode._distinct(_vector_rows(pts / norms[:, None]))
