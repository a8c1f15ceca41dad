"""One-sided Hermite interpolants to even potentials, the closed-form
optima of the underlying linear programs.

All interpolation runs in the u = t*t variable: the interpolant is the
NewtonForm of the confluent tableau polynomials._newton_coefficients, on
which the node residuals and the one-sided margin are computed, and which
reports write verbatim.  Working in u halves the degree and
avoids the missing derivative of |t|-type potentials at t = 0; a node at
u = 0 therefore only ever carries a function value.  g is read at all
nodes in one array call, g' at the double nodes in another.

The quadrature rule and the side alone fix the interpolant and decide
whether it is admitted.  By the Hermite remainder

    h(t) - H(t) = g^(k+1)(xi) / (k+1)! * prod_j (u - u_j)^(m_j),

the node product is >= 0 on [0, top^2] for the interior Gauss nodes (squares
at the double nodes, u at a node at 0) and <= 0 once the top node is a
simple endpoint or anchor.  So the interpolant lies below h exactly when
g^(k+1) >= 0 at the alpha rule or <= 0 at the beta and lambda rules, and
above h in the other two cases.  _interpolate is the only place that checks
this; polarization._bound hands it the rule, the side and the certificate.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable

import numpy as np

from .errors import NumericalDegeneracyError, PreconditionError
from .polynomials import NewtonForm, _newton_coefficients
from .potentials import Potential, SignState, eval_h
from .quadrature import QuadratureRule


class Side(Enum):
    """Which side of the potential the polynomial must stay on."""

    BELOW = 1
    ABOVE = -1


def _interpolate(rule: QuadratureRule, pot: Potential, side: Side,
                 state: SignState) -> NewtonForm:
    """Interpolant at the nodes of the rule, admitted on its side of h, as
    its Newton form in u at the nodes in increasing order.

    state is the sign certificate of g^(k+1) on (0, top^2), top the anchor
    of the rule or 1.  It must be nonnegative when the side is BELOW at the
    alpha rule or ABOVE at the beta and lambda rules, and nonpositive
    otherwise.  A node at t = 1 needs h(1) finite.  The nodes fix the
    confluent conditions in u = t*t: a node at 0 carries a value only,
    every positive node a value and a slope, except the top node of the
    beta and lambda rules, which carries a value only.  Raises
    PreconditionError when the interpolant is not admitted or a value is
    not finite, NumericalDegeneracyError when the conditions do not number
    k + 1 or a residual exceeds 1e-10 relative.
    """
    top = 1.0 if rule.s is None else rule.s
    nonnegative = (side is Side.BELOW) == (rule.kind == "alpha")
    if not (state.admits_nonnegative() if nonnegative
            else state.admits_nonpositive()):
        raise PreconditionError(
            f"{side.name.lower()}-side interpolant at the {rule.kind} nodes "
            f"needs a {'nonnegative' if nonnegative else 'nonpositive'} "
            f"derivative certificate on (0, {top * top:.6g}); {pot.name} "
            f"gave {state.value} for k={rule.k}")
    if rule.nodes[-1] == 1.0 and not math.isfinite(pot.h_at_1):
        raise PreconditionError(
            f"interpolation at the node t = 1 needs h(1) finite; {pot.name} "
            f"has h(1) = {pot.h_at_1}")

    nodes = [(0.0, 1)] if any(abs(x) <= 1e-14 for x in rule.nodes) else []
    nodes.extend((x * x, 2) for x in sorted(x for x in rule.nodes if x > 1e-14))
    if rule.kind != "alpha":
        nodes[-1] = (nodes[-1][0], 1)
    values = pot.eval_g(np.array([u for u, _ in nodes])).tolist()
    for (u, _), v in zip(nodes, values):
        if not math.isfinite(v):
            raise PreconditionError(f"non-finite interpolation value at u={u}")
    # g' only once every value is admitted, at the double nodes
    double = iter(pot.eval_g_prime(
        np.array([u for u, mult in nodes if mult == 2])).tolist())
    z, table, slopes = [], [], []
    for (u, mult), v in zip(nodes, values):
        d = next(double) if mult == 2 else None
        z += [u] * mult
        table += [v] * mult
        slopes += [d] * mult
    if len(z) != rule.k + 1:
        raise NumericalDegeneracyError(
            f"rule gives {len(z)} conditions, wanted {rule.k + 1}")

    newton = _newton_coefficients(z, table, slopes)
    form = NewtonForm(tuple(map(float, z)), tuple(map(float, newton)))
    for (u, _), v, hv in zip(nodes, values, form.at_u([u for u, _ in nodes])):
        if abs(hv - v) > 1e-10 * (1.0 + abs(v)):
            raise NumericalDegeneracyError(
                f"interpolation residual too large at u={u}: {float(hv)} vs {v}")
    return form


def verify_one_sided(p: Callable, pot: Potential, side: Side,
                     interval: tuple[float, float], grid_size: int = 2000) -> float:
    """Worst signed margin of the side constraint over a uniform grid:
    min of side * (h - p), with h and the polynomial p (a NewtonForm or any
    callable on t arrays) evaluated on the whole grid at once.  Nonnegative
    (within -1e-9) means the polynomial stays on its side of the potential.
    Raises NumericalDegeneracyError if h is NaN anywhere on the grid."""
    if grid_size < 1000:
        raise PreconditionError(f"grid_size must be >= 1000, got {grid_size}")
    a, b = interval
    ts = np.linspace(a, b, grid_size)
    hv = eval_h(pot, ts)
    nan = np.isnan(hv)
    if np.any(nan):
        raise NumericalDegeneracyError(
            f"one-sided margin check: {pot.name} gives h = NaN at "
            f"t={float(ts[nan][0])!r}")
    return float(np.min(side.value * (hv - p(ts))))
