"""The quadrature rule anchored at +-s for the sign-changing weight
(s^2 - t^2) times the axis-projection measure.

The weight is positive on (-s, s) and negative outside, so the induced
bilinear form is positive definite on low-degree polynomials only when the
anchor s is large enough; the threshold is the largest node of the interior
Gauss rule of the same strength.  rule_lambda checks its own anchor against
that threshold by the Sturm sequence of the recurrence that builds the rule
(Golub 1973), so an admissible anchor costs no eigensolve beyond its own
rule.  At s = 1 the construction collapses to the endpoint-augmented rule.
"""

from __future__ import annotations

from .errors import PreconditionError
from .quadrature import (QuadratureRule, _jacobi_rule, exceeds_gauss_nodes,
                         largest_gauss_node)

# below this distance above the threshold the anchored rule has interior
# weights too close to 0 to trust
ADMISSIBILITY_MARGIN = 1e-9


def rule_lambda(n: int, k: int, s: float) -> QuadratureRule:
    """Anchored rule: +-s plus the k roots of the degree-k monic orthogonal
    polynomial of the signed weight; exact through degree 2k+1.

    The anchor must lie in [lo + ADMISSIBILITY_MARGIN, 1], where lo is the
    largest interior Gauss node; anything else, NaN included, raises
    PreconditionError.  An anchor above 1 by at most 1e-12 is taken as 1,
    so every node lies in [-1, 1].  Interior nodes lie strictly inside
    (-s, s); at s = 1 the rule agrees with the endpoint-augmented rule.

    An anchor whose Sturm sequence is positive at s - 2 *
    ADMISSIBILITY_MARGIN lies above lo by more than the margin and is
    admitted without computing lo.  lo itself (an alpha eigensolve) is
    computed only for the anchors left: those refused, whose message
    names it, and those within 2 * ADMISSIBILITY_MARGIN above it.
    """
    s = float(s)
    if not (s <= 1 + 1e-12 and exceeds_gauss_nodes(n, k, s - 2 * ADMISSIBILITY_MARGIN)):
        lo = largest_gauss_node(n, k)
        if not (lo + ADMISSIBILITY_MARGIN <= s <= 1 + 1e-12):
            raise PreconditionError(
                f"anchor s={s} outside admissible range ({lo:.12g}, 1.0] for n={n}, k={k}")
    return _jacobi_rule("lambda", n, k, min(s, 1.0))
