"""Fixed quadrature rules exact through degree 2k+1 for the axis-projection
measure: the interior Gauss rule ("alpha"), the endpoint-augmented rule
("beta") and the rule anchored at +-s ("lambda").

All three come from one eigenproblem (Golub & Welsch 1969).  The monic
orthogonal polynomials of the measure satisfy
    pi_{j+1}(t) = t * pi_j(t) - b_j * pi_{j-1}(t)
with b_1 = 1/n and b_j = j(j+n-3) / ((2j+n-2)(2j+n-4)) for j >= 2.  The
nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix with
off-diagonal sqrt(b_j), and each weight is the squared first component of
its unit eigenvector.  Pinning the two outer nodes at +-s changes only the
last off-diagonal entry (Golub 1973); the beta rule is the case s = 1.
The same recurrence evaluated at x gives the Sturm sequence pi_0(x), ...,
pi_{k+1}(x), positive exactly when x lies above every alpha node, which
tests an anchor without an eigensolve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import NumericalDegeneracyError, PreconditionError
from .polynomials import monomial_moment


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights, exact through degree exact_degree =
    2k+1.  Nodes are strictly increasing, symmetric about 0; weights sum to
    1 (exactness on constants against a probability measure)."""

    kind: str
    n: int
    k: int
    nodes: tuple[float, ...]
    weights: tuple[float, ...]
    s: float | None = None

    @property
    def exact_degree(self) -> int:
        return 2 * self.k + 1


def _recurrence(n: int, k: int, size: int) -> np.ndarray:
    """b_1, ..., b_{size-1} of the monic recurrence for dimension n."""
    if n < 2 or k < 1:
        raise PreconditionError(f"need n >= 2 and k >= 1, got n={n}, k={k}")
    j = np.arange(2, size, dtype=float)
    return np.concatenate(([1.0 / n], j * (j + n - 3) / ((2 * j + n - 2) * (2 * j + n - 4))))


def _sturm(b: np.ndarray, x: float) -> list[float]:
    """pi_0(x), ..., pi_m(x) with m = len(b) + 1.  This Sturm sequence is
    all positive exactly when x exceeds every root of pi_m."""
    pi_x = [1.0, x]
    for bj in b.tolist():
        pi_x.append(x * pi_x[-1] - bj * pi_x[-2])
    return pi_x


def exceeds_gauss_nodes(n: int, k: int, x: float) -> bool:
    """Whether x lies above the largest node of the alpha rule, decided by
    the Sturm sequence pi_0(x), ..., pi_{k+1}(x) without an eigensolve.
    NaN gives False."""
    return all(p > 0.0 for p in _sturm(_recurrence(n, k, k + 1), x))


def _jacobi_rule(kind: str, n: int, k: int, anchor: float | None = None) -> QuadratureRule:
    """Gauss rule on k+1 nodes, or, with an anchor s, the rule on +-s plus k
    interior nodes.  Both are exact through degree 2k+1.

    The anchored rule replaces the last b of the (k+2)x(k+2) Jacobi matrix
    by s * pi_{k+1}(s) / pi_k(s), which makes +-s eigenvalues.  The anchor
    must exceed the largest Gauss node.
    """
    size = k + 1 if anchor is None else k + 2
    b = _recurrence(n, k, size)
    if anchor is not None:
        s = anchor
        pi_s = _sturm(b[:k], s)
        if not all(p > 0.0 for p in pi_s):
            raise PreconditionError(
                f"anchor s={s} does not exceed the largest Gauss node (n={n}, k={k})")
        b[-1] = s * pi_s[-1] / pi_s[-2]
    nodes, vectors = eigh_tridiagonal(np.zeros(size), np.sqrt(b))
    weights = vectors[0] ** 2
    if anchor is not None:
        nodes[0], nodes[-1] = -anchor, anchor
    # the measure is even: mirror nodes and weights so symmetry is exact
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    if np.any(weights <= 0.0):
        raise NumericalDegeneracyError(f"nonpositive weight in {kind} rule: {weights}")
    if abs(weights.sum() - 1.0) > 1e-11:
        raise NumericalDegeneracyError(f"weights of {kind} rule do not sum to 1")
    return QuadratureRule(kind, n, k, tuple(nodes.tolist()), tuple(weights.tolist()),
                          s=anchor if kind == "lambda" else None)


def rule_alpha(n: int, k: int) -> QuadratureRule:
    """Gauss rule on the k+1 roots of the degree-(k+1) Gegenbauer polynomial
    for dimension n; exact through degree 2k+1.  All nodes interior."""
    return _jacobi_rule("alpha", n, k)


def rule_beta(n: int, k: int) -> QuadratureRule:
    """Endpoint-augmented rule: +-1 plus the k roots of the degree-k
    Gegenbauer polynomial for dimension n+2; exact through degree 2k+1."""
    return _jacobi_rule("beta", n, k, 1.0)


def verify_exactness(rule: QuadratureRule, n: int, max_degree: int) -> float:
    """Max residual of the rule on monomials t^j, j <= max_degree, against
    the closed-form moments.  A passing rule stays below 1e-11 through its
    declared exact_degree."""
    nodes = np.asarray(rule.nodes)
    weights = np.asarray(rule.weights)
    worst = 0.0
    for j in range(max_degree + 1):
        residual = abs(float(weights @ nodes**j) - monomial_moment(n, j))
        worst = max(worst, residual)
    return worst


def largest_gauss_node(n: int, k: int) -> float:
    """Largest root of the degree-(k+1) Gegenbauer polynomial (the top node
    of the alpha rule); admissibility threshold for the anchored rule."""
    return rule_alpha(n, k).nodes[-1]
