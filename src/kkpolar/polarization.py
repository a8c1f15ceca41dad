"""Universal bounds on the extremes of discrete potentials over spherical
(k,k)-designs, with sphere extremization and design certification.

For a potential h and a code C the quantity of interest is the sum
U(x) = sum_i h(x . x_i) over directions x on the sphere.  Quadrature rules
exact on polynomials of degree 2k+1 turn one-sided Hermite interpolants of
h into bounds on min_x U and max_x U that hold for every (k,k)-design of
the same size, independent of the particular point configuration:

  * interior-node rule, interpolant below h   -> lower bound on the minimum
  * endpoint rule, interpolant below h        -> lower bound, for potentials
    whose relevant derivative is nonpositive (needs finite h(1))
  * endpoint rule, interpolant above h        -> upper bound on the maximum
    (needs finite h(1))
  * anchored rule at s < 1, interpolant above -> upper bound on the minimum,
    valid for codes whose covering radius stays below s

Each bound is N * sum_j w_j h(t_j) over one rule, h read at all nodes in
one array call as everywhere else; _bound builds every one of them from
the rule and the side alone, which fix the interpolant, the certificate
it needs and the interval of the one-sided check.

Extremization is one multistart global search in every dimension: local
searches from screened seeds (on the circle, with the cusps of |t|^p
among them), refined together by batched Riemannian Newton on the exact
Hessian of the potential sum where the potential carries h'', and by
tangent BFGS on its gradient otherwise (p-frames with p < 2, user
potentials); extrema screens the seeds once for both directions.  The
seeds and the blocked kernel that screens them are those of the covering
search (codes._sphere_seeds, codes._row_reduce).
A search can miss the global optimum, so its results are estimates: an
upper estimate of the minimum and a lower estimate of the maximum.
Sandwich checks remain sound with estimates on those sides.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .codes import (DesignCertificate, SphericalCode, _row_reduce,
                    _sphere_seeds, covering_radius_r, is_kk_design)
from .errors import NumericalDegeneracyError, PreconditionError
from .interpolants import Side, _interpolate, verify_one_sided
from .polynomials import NewtonForm, monomial_moment
from .potentials import Potential, SignState, certify_sign, eval_h
from .quadrature import (QuadratureRule, largest_gauss_node, rule_alpha,
                         rule_beta, verify_exactness)
from .signed_measure import rule_lambda
from .sphere_opt import tangent_bfgs, tangent_component, tangent_newton

SANDWICH_SLACK = 1e-8
_MARGIN_GRID = 2001
_ANCHORED_CAVEAT = ("anchored bound is conditional: it limits the minimum "
                    "only for codes whose covering radius lies below s")


class Direction(Enum):
    MIN = "MIN"
    MAX = "MAX"


# each direction minimizes sgn U
_SIGN = {Direction.MIN: 1.0, Direction.MAX: -1.0}
# seeds refined by local search, out of the screened ones
_SURVIVORS = 10
# squared inner products taken as exact orthogonality
_ORTHOGONAL = 2.0 ** -100


@dataclass(frozen=True)
class ExtremizationResult:
    """Outcome of a sphere extremization, in every dimension.  value is
    the potential sum at argpoint; restarts counts local searches run;
    stationarity_norm is the norm of the Riemannian gradient there: exact
    for an analytic g', from central differences for a numeric g', and
    meaningless at cusps (p-frames with p <= 1) and poles; a diagnostic."""

    value: float
    argpoint: tuple[float, ...]
    restarts: int
    stationarity_norm: float

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "argpoint": list(self.argpoint),
            "restarts": self.restarts,
            "stationarity_norm": self.stationarity_norm,
        }


@dataclass(frozen=True)
class BoundReport:
    """A certified bound carrying everything that produced it: the rule
    (nodes/weights copied verbatim), the one-sided interpolant as the
    Newton form its margin is computed on, the sign certificate that
    authorized the branch, whether g' was analytic or a central difference,
    and the numerical checks (one-sided margin, quadrature exactness
    residual) backing it.  to_dict writes the interpolant as its Newton
    data, u_nodes and divided_differences: Horner in u = t*t over them
    rebuilds exactly the H that was checked."""

    kind: str
    n: int
    k: int
    N: int
    s: Optional[float]
    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    bound_value: float
    per_point_value: float
    interpolant: NewtonForm
    sign_state: str
    certificate_kind: str
    derivative_kind: str
    one_sided_margin: float
    exactness_residual: float
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        out = {
            "kind": self.kind,
            "n": self.n,
            "k": self.k,
            "N": self.N,
            "nodes": list(self.nodes),
            "weights": list(self.weights),
            "bound_value": self.bound_value,
            "per_point_value": self.per_point_value,
            "interpolant": asdict(self.interpolant),
            "sign_state": self.sign_state,
            "certificate_kind": self.certificate_kind,
            "derivative_kind": self.derivative_kind,
            "one_sided_margin": self.one_sided_margin,
            "exactness_residual": self.exactness_residual,
            "notes": list(self.notes),
        }
        if self.s is not None:
            out["s"] = self.s
        return out


def _check_problem(n: int, k: int, N: int) -> None:
    if n < 2:
        raise PreconditionError(f"dimension must be >= 2, got {n}")
    if k < 1:
        raise PreconditionError(f"design strength parameter must be >= 1, got {k}")
    if N < 1:
        raise PreconditionError(f"code size must be >= 1, got {N}")


def _bound(N: int, rule: QuadratureRule, pot: Potential, side: Side,
           state: Optional[SignState] = None,
           notes: tuple[str, ...] = ()) -> BoundReport:
    """N times the rule applied to h, with the rule's interpolant admitted
    by _interpolate and checked on its side of h over (-top, top): top is
    the anchor of the rule, or 1 when it has none.  The kind is ULB_ (below)
    or UUB_ (above) and the rule kind; state, when given, is the sign
    certificate on (0, top^2) already computed."""
    top = 1.0 if rule.s is None else rule.s
    if state is None:
        state = certify_sign(pot, rule.k, top * top)
    kind = ("ULB_" if side is Side.BELOW else "UUB_") + rule.kind.upper()
    interpolant = _interpolate(rule, pot, side, state)
    per_point = math.fsum(np.asarray(rule.weights) * eval_h(pot, rule.nodes))
    bound = N * per_point
    if not math.isfinite(bound):
        raise NumericalDegeneracyError(
            f"{kind} bound is not finite; the rule places weight where the "
            f"potential blows up")
    margin = verify_one_sided(interpolant, pot, side, (-top, top),
                              grid_size=_MARGIN_GRID)
    residual = verify_exactness(rule, rule.n, rule.exact_degree)
    return BoundReport(
        kind=kind, n=rule.n, k=rule.k, N=N, s=rule.s,
        nodes=rule.nodes, weights=rule.weights,
        bound_value=bound, per_point_value=per_point,
        interpolant=interpolant,
        sign_state=state.value, certificate_kind=pot.certificate_kind,
        derivative_kind=pot.derivative_kind,
        one_sided_margin=margin, exactness_residual=residual,
        notes=notes)


def lower_bound(n: int, k: int, N: int, pot: Potential) -> BoundReport:
    """Universal lower bound on min_x U(x) over all (k,k)-designs of N
    points on the unit sphere in R^n.

    The sign certificate for g^(k+1) on (0,1) picks the branch: interior
    nodes when nonnegative, endpoint nodes otherwise, which _interpolate
    admits only for a nonpositive certificate and finite h(1).  A
    vanishing certificate admits both; they are cross-checked and the
    interior-node report is returned.
    """
    _check_problem(n, k, N)
    state = certify_sign(pot, k, 1.0)
    if state is SignState.ZERO:
        note = ("vanishing higher derivative: interior-node and "
                "endpoint-node branches cross-checked",)
        report = _bound(N, rule_alpha(n, k), pot, Side.BELOW, state, note)
        twin = _bound(N, rule_beta(n, k), pot, Side.BELOW, state, note)
        if abs(report.bound_value - twin.bound_value) > 1e-10 * max(1.0, N):
            raise NumericalDegeneracyError(
                f"branch disagreement {report.bound_value} vs "
                f"{twin.bound_value} for a polynomial potential")
        return report
    rule = rule_alpha(n, k) if state is SignState.NONNEGATIVE else rule_beta(n, k)
    return _bound(N, rule, pot, Side.BELOW, state)


def upper_bound_finite(n: int, k: int, N: int, pot: Potential) -> BoundReport:
    """Universal upper bound on max_x U(x) over all (k,k)-designs of N
    points: endpoint rule against the above-side interpolant.  Requires a
    nonnegative derivative certificate and finite h(1)."""
    _check_problem(n, k, N)
    if not math.isfinite(pot.h_at_1):
        raise PreconditionError(
            f"{pot.name} is infinite at the endpoints; use upper_bound_s "
            f"with an anchor s < 1 instead")
    return _bound(N, rule_beta(n, k), pot, Side.ABOVE)


def upper_bound_s(n: int, k: int, N: int, s: float, pot: Potential,
                  r_witness: Optional[float] = None) -> BoundReport:
    """Anchored upper bound on min_x U(x) for (k,k)-designs of N points
    whose covering radius stays below the anchor s.

    Requires s admissible for rule_lambda and below 1, and a nonnegative
    derivative certificate on (0, s^2).  When the covering radius of a
    concrete code is supplied it is checked against s; without it the
    report carries the conditional-validity caveat only.
    """
    _check_problem(n, k, N)
    # the rule checks its anchor, so an inadmissible one is the first error
    rule = rule_lambda(n, k, s)
    s = rule.s
    if not s < 1.0:
        raise PreconditionError(
            f"anchor s={s} must lie below 1; at s = 1 use upper_bound_finite")
    notes = [_ANCHORED_CAVEAT]
    if r_witness is not None:
        if s <= r_witness:
            raise PreconditionError(
                f"anchor s={s} does not exceed the code covering radius "
                f"{r_witness}")
        notes.append(f"covering radius {r_witness:.12g} < s confirmed for "
                     f"the supplied code")
    else:
        notes.append("no concrete code supplied; covering radius unchecked")
    return _bound(N, rule, pot, Side.ABOVE, notes=tuple(notes))


# ---------------------------------------------------------------------------
# potential sums and extremization


def _squares(dots: np.ndarray) -> np.ndarray:
    """t^2 clipped to [0, 1], and 0 below 2^-100, in place of the t in
    dots: fused multiply-adds in BLAS leave |t| ~ 1e-17 at x orthogonal to
    x_i, ~1e-9 in |t|^(1/2)."""
    u = np.multiply(dots, dots, out=dots)
    np.minimum(u, 1.0, out=u)
    u[u < _ORTHOGONAL] = 0.0
    return u


def _u_sum(points: np.ndarray, pot: Potential, x: np.ndarray) -> float:
    u = _squares(points @ x)
    return float(np.sum(pot.eval_g(u)))


def _u_batch(points: np.ndarray, pot: Potential, mat: np.ndarray) -> np.ndarray:
    """U at each row of mat, by the blocked kernel codes._row_reduce."""
    return _row_reduce(points, mat,
                       lambda d: np.sum(pot.eval_g(_squares(d)), axis=1))


def potential_U(x, code: SphericalCode, pot: Potential) -> float:
    """Sum of h(x . x_i) over the code, as an extended real (+inf when a
    term blows up).  x must be a unit vector."""
    x = np.asarray(x, dtype=float)
    if x.shape != (code.n,):
        raise PreconditionError(
            f"direction has shape {x.shape}, expected ({code.n},)")
    nrm = float(np.linalg.norm(x))
    if not abs(nrm - 1.0) <= 1e-9:
        raise PreconditionError(f"direction must be a unit vector, |x|={nrm}")
    return _u_sum(code.points, pot, x / nrm)


def _fg(points: np.ndarray, pot: Potential, sgn: float, hessian: bool = False):
    """fg(xs) -> (sgn U, its Euclidean gradient) at each unit row x of xs.
    The gradient is 2 sgn sum_i g'(u_i) (x . x_i) x_i, that is h'(t) =
    2 t g'(t^2) at t = x . x_i.  g' is never called at u = 0, outside the
    (0, 1) that Potential promises; those terms are set to 0, the limit of
    h'(t) for |t|^p with 1 < p < 2 and a subgradient at the cusps of
    p <= 1.  With hessian, for sphere_opt.tangent_newton, fg(xs) also
    returns the Euclidean Hessian sgn sum_i h''(t_i) x_i x_i^t, whose terms
    at u = 0 take h''(0), the limit there as for h', and fg(xs,
    values_only=True) returns sgn U alone."""

    def fg(xs: np.ndarray, values_only: bool = False):
        d = xs @ points.T
        u = _squares(d.copy())
        zero = u == 0.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            values = sgn * np.sum(pot.eval_g(u), axis=1)
            if values_only:
                return values
            if np.count_nonzero(zero):
                slopes = pot.eval_g_prime(np.where(zero, 0.5, u))
                terms = np.where(zero, 0.0, slopes * d)
            else:
                terms = pot.eval_g_prime(u) * d
            grads = (2.0 * sgn) * (terms @ points)
            if not hessian:
                return values, grads
            curvature = sgn * pot.eval_h2(u)
            return values, grads, (curvature[:, None, :] * points.T) @ points

    return fg


def _screen(code: SphericalCode, pot: Potential, seed: int,
            restarts: Optional[int]) -> tuple[np.ndarray, np.ndarray]:
    """Seed directions as rows, and U at each: codes._sphere_seeds with a
    600-point grid in R^3 and max(128, restarts) random directions."""
    mat = _sphere_seeds(code.points, 600, max(128, restarts or 0), seed)
    return mat, _u_batch(code.points, pot, mat)


def _refine(points: np.ndarray, pot: Potential, sgn: float,
             survivors: np.ndarray) -> ExtremizationResult:
    """Local searches from the survivors for the minimum of sgn U, all at
    once: by Riemannian Newton where the potential carries h'', by tangent
    BFGS otherwise; the best endpoint wins."""
    smooth = pot.eval_h2 is not None
    fg = _fg(points, pot, sgn, hessian=smooth)
    values, ends = (tangent_newton if smooth else tangent_bfgs)(fg, survivors)
    best_x = ends[int(np.argmin(np.where(np.isnan(values), np.inf, values)))]
    slope = float(np.linalg.norm(
        tangent_component(best_x, fg(best_x[None])[1][0])))
    return ExtremizationResult(
        value=_u_sum(points, pot, best_x), argpoint=tuple(best_x),
        restarts=len(survivors),
        stationarity_norm=slope if math.isfinite(slope) else math.inf)


def _extremize(code: SphericalCode, pot: Potential,
               directions: tuple[Direction, ...], seed: int,
               restarts: Optional[int]) -> list[ExtremizationResult]:
    """One result per direction; the directions that need a search share
    one seed screen."""
    if restarts is not None and restarts < 1:
        raise PreconditionError(f"restarts must be >= 1, got {restarts}")
    pts = code.points
    found: dict[Direction, ExtremizationResult] = {}
    searched = []
    for direction in directions:
        if direction is Direction.MAX and pot.h_at_1 == math.inf:
            found[direction] = ExtremizationResult(math.inf, tuple(pts[0]), 0, 0.0)
        elif direction is Direction.MIN and pot.h_at_1 == -math.inf:
            found[direction] = ExtremizationResult(-math.inf, tuple(pts[0]), 0, 0.0)
        else:
            searched.append(direction)
    if searched:
        mat, u = _screen(code, pot, seed, restarts)
        for direction in searched:
            sgn = _SIGN[direction]
            survivors = mat[np.argsort(sgn * u)[:_SURVIVORS]]
            found[direction] = _refine(pts, pot, sgn, survivors)
    return [found[direction] for direction in directions]


def extremize(code: SphericalCode, pot: Potential, direction: Direction,
              seed: int = 0, restarts: Optional[int] = None) -> ExtremizationResult:
    """Global extremum of the potential sum over the sphere, by multistart
    local search.

    A potential infinite at the endpoints attains an infinite maximum at
    any code point; that case is reported without search.  In every
    dimension the seeds of _screen (structured seeds, the cusps on the
    circle, a grid in R^3, random directions) are screened, and the ten
    best are refined together: by Riemannian Newton
    (sphere_opt.tangent_newton) with the Hessian sum_i h''(x . x_i) x_i x_i^t
    where the potential carries h'', otherwise by BFGS in tangent
    coordinates (sphere_opt.tangent_bfgs), both with the gradient
    2 sum_i g'(u_i) (x . x_i) x_i.
    Terms with x . x_i = 0 contribute 0, so g' is needed on (0, 1) only;
    for p-frames with p <= 1 that is a subgradient at the cusps.  On the
    circle those cusps are seeds and U is concave between them, so the
    p <= 1 minimum there is exact; elsewhere the search is a heuristic.  A
    numeric g' gives a finite-difference gradient.  MIN results are upper
    estimates of the true minimum, MAX results lower estimates of the true
    maximum.  extrema returns both directions from one screen.  restarts
    sets the number of random seed directions, of which at least 128 are
    screened; below 1 it is a PreconditionError.
    """
    return _extremize(code, pot, (Direction(direction),), seed, restarts)[0]


def extrema(code: SphericalCode, pot: Potential, seed: int = 0,
            restarts: Optional[int] = None
            ) -> tuple[ExtremizationResult, ExtremizationResult]:
    """(minimum, maximum) of the potential sum over the sphere: the same
    results as extremize in each direction, with the seeds screened once;
    the ten lowest-U seeds are the MIN survivors and the ten highest the
    MAX survivors."""
    low, high = _extremize(code, pot, (Direction.MIN, Direction.MAX),
                           seed, restarts)
    return low, high


# ---------------------------------------------------------------------------
# certification


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class CertificationReport:
    """Everything certify_design found: the design test, the applicable
    universal bounds, both extremization estimates, the covering radius
    with how it was obtained ("exact" or "upper_estimate", see
    codes.covering_radius_r), and the list of sandwich and exactness checks
    with their outcomes."""

    n: int
    k: int
    N: int
    potential: str
    design: DesignCertificate
    bounds: tuple[BoundReport, ...]
    minimum: ExtremizationResult
    maximum: ExtremizationResult
    covering_radius: float
    covering_radius_kind: str
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "N": self.N,
            "potential": self.potential,
            "design": self.design.to_dict(),
            "bounds": [b.to_dict() for b in self.bounds],
            "minimum": self.minimum.to_dict(),
            "maximum": self.maximum.to_dict(),
            "covering_radius": self.covering_radius,
            "covering_radius_kind": self.covering_radius_kind,
            "checks": [c.to_dict() for c in self.checks],
            "all_passed": self.all_passed,
        }


def certify_design(code: SphericalCode, k: int, pot: Potential,
                   seed: int = 0) -> CertificationReport:
    """Run the design moment test, compute every applicable bound, and
    compare against extremization estimates.  Findings are reported as
    checks, never raised: a failed sandwich marks the report, and a bound
    whose preconditions fail is recorded as skipped.

    For the pure even monomial of matching degree the extremes of a design
    must equal the average value; non-designs must straddle it by more
    than the sandwich slack on each side.
    """
    cert = is_kk_design(code, k)
    n, size = code.n, code.size
    minimum, maximum = extrema(code, pot, seed=seed)
    radius, _, radius_kind = covering_radius_r(code, seed=seed)
    bounds: list[BoundReport] = []
    checks: list[CheckResult] = [CheckResult(
        "order", minimum.value <= maximum.value + 1e-12,
        f"min={minimum.value:.12g} max={maximum.value:.12g}")]

    if cert.is_design:
        try:
            low = lower_bound(n, k, size, pot)
            bounds.append(low)
            checks.append(CheckResult(
                "lower_sandwich",
                low.bound_value <= minimum.value + SANDWICH_SLACK,
                f"{low.kind}={low.bound_value:.12g} <= min={minimum.value:.12g}"))
        except PreconditionError as exc:
            checks.append(CheckResult("lower_bound_skipped", True, str(exc)))
        try:
            high = upper_bound_finite(n, k, size, pot)
            bounds.append(high)
            checks.append(CheckResult(
                "upper_sandwich",
                maximum.value <= high.bound_value + SANDWICH_SLACK,
                f"max={maximum.value:.12g} <= {high.kind}={high.bound_value:.12g}"))
        except PreconditionError as exc:
            checks.append(CheckResult("upper_finite_skipped", True, str(exc)))
        anchor = max(largest_gauss_node(n, k) + 1e-6, radius + 1e-6)
        if anchor < 1.0:
            try:
                anchored = upper_bound_s(n, k, size, anchor, pot,
                                         r_witness=radius)
                bounds.append(anchored)
                checks.append(CheckResult(
                    "anchored_min_bound",
                    minimum.value <= anchored.bound_value + SANDWICH_SLACK,
                    f"min={minimum.value:.12g} <= "
                    f"{anchored.kind}={anchored.bound_value:.12g} at "
                    f"s={anchor:.12g}"))
            except PreconditionError as exc:
                checks.append(CheckResult("anchored_skipped", True, str(exc)))
        else:
            checks.append(CheckResult(
                "anchored_skipped", True,
                f"covering radius {radius:.6g} admits no anchor below 1"))

    if pot.name == f"monomial:k={k}":
        target = monomial_moment(n, 2 * k) * size
        slack = SANDWICH_SLACK * max(1.0, size)
        if cert.is_design:
            checks.append(CheckResult(
                "monomial_min_is_average",
                abs(minimum.value - target) <= slack,
                f"min={minimum.value:.12g} target={target:.12g}"))
            checks.append(CheckResult(
                "monomial_max_is_average",
                abs(maximum.value - target) <= slack,
                f"max={maximum.value:.12g} target={target:.12g}"))
        else:
            checks.append(CheckResult(
                "monomial_min_below_average", minimum.value < target - slack,
                f"min={minimum.value:.12g} < target={target:.12g}"))
            checks.append(CheckResult(
                "monomial_max_above_average", maximum.value > target + slack,
                f"max={maximum.value:.12g} > target={target:.12g}"))

    return CertificationReport(
        n=n, k=k, N=size, potential=pot.name, design=cert,
        bounds=tuple(bounds), minimum=minimum, maximum=maximum,
        covering_radius=radius,
        covering_radius_kind=radius_kind,
        checks=tuple(checks))
