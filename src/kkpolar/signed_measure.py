"""The quadrature rule anchored at +-s for the sign-changing weight
(s^2 - t^2) times the axis-projection measure.

The weight is positive on (-s, s) and negative outside, so the induced
bilinear form is positive definite on low-degree polynomials only when the
anchor s is large enough; the threshold is the largest node of the interior
Gauss rule of the same strength.  At s = 1 the construction collapses to the
endpoint-augmented rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .quadrature import QuadratureRule, _jacobi_rule, largest_gauss_node

# below this distance above the threshold the anchored rule has interior
# weights too close to 0 to trust
ADMISSIBILITY_MARGIN = 1e-9


def admissible_range(n: int, k: int) -> tuple[float, float]:
    """Interval (lo, hi] of anchors s for which the degree-k construction
    works: lo is the largest interior Gauss node, hi is 1."""
    return largest_gauss_node(n, k), 1.0


@dataclass(frozen=True)
class SignedMeasureContext:
    """Dimension, strength and an anchor validated by build_context."""

    n: int
    k: int
    s: float


def build_context(n: int, k: int, s: float) -> SignedMeasureContext:
    """Check that the anchor s lies in the admissible range, at least
    ADMISSIBILITY_MARGIN above the threshold."""
    s = float(s)
    lo, hi = admissible_range(n, k)
    if not (lo + ADMISSIBILITY_MARGIN <= s <= hi + 1e-12):
        raise PreconditionError(
            f"anchor s={s} outside admissible range ({lo:.12g}, {hi}] for n={n}, k={k}")
    return SignedMeasureContext(n, k, s)


def rule_lambda(ctx: SignedMeasureContext) -> QuadratureRule:
    """Anchored rule: +-s plus the k roots of the degree-k monic orthogonal
    polynomial of the signed weight; exact through degree 2k+1.

    Interior nodes lie strictly inside (-s, s); at s = 1 the rule agrees
    with the endpoint-augmented rule.
    """
    return _jacobi_rule("lambda", ctx.n, ctx.k, ctx.s)
