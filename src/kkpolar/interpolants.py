"""One-sided Hermite interpolants to even potentials, the closed-form
optima of the underlying linear programs.

All interpolation runs in the u = t*t variable through a confluent Newton
tableau, then coefficients map back to t by index doubling.  Working in u
halves the degree and avoids the missing derivative of |t|-type potentials
at t = 0; a node at u = 0 therefore only ever carries a function value.

The quadrature rule alone fixes the interpolant: _interpolate reads the
conditions off the rule's nodes and kind, and each build_H2k* is a sign
certificate check followed by _interpolate on its rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import NumericalDegeneracyError, PreconditionError
from .polynomials import Polynomial, substitute_t_squared
from .potentials import Potential, certify_sign, eval_h
from .quadrature import QuadratureRule, rule_alpha, rule_beta
from .signed_measure import rule_lambda


class Side(Enum):
    """Which side of the potential the polynomial must stay on."""

    BELOW = 1
    ABOVE = -1


@dataclass(frozen=True)
class InterpolationScheme:
    """Confluent interpolation data in u: (u, multiplicity) pairs with
    multiplicity 2 only at interior touch points."""

    u_nodes: tuple[tuple[float, int], ...]

    @property
    def condition_count(self) -> int:
        return sum(m for _, m in self.u_nodes)


def hermite_confluent(scheme: InterpolationScheme,
                      values: Sequence[float],
                      derivs: Sequence[Optional[float]]) -> Polynomial:
    """Unique polynomial in u matching every confluent condition.

    values[i] is g at the i-th scheme node; derivs[i] is g' there, needed
    exactly when the multiplicity is 2.  Verifies its own residuals.
    """
    entries = sorted(zip(scheme.u_nodes, values, derivs), key=lambda e: e[0][0])
    us = [u for (u, _), _, _ in entries]
    if len(set(us)) != len(us):
        raise PreconditionError(f"duplicate u-values in interpolation nodes: {us}")
    z: list[float] = []
    vals: list[float] = []
    dvs: list[Optional[float]] = []
    for (u, mult), v, d in entries:
        if mult not in (1, 2):
            raise PreconditionError(f"multiplicity must be 1 or 2, got {mult}")
        if mult == 2 and d is None:
            raise PreconditionError(f"node u={u} has multiplicity 2 but no derivative")
        if not math.isfinite(v):
            raise PreconditionError(f"non-finite interpolation value at u={u}")
        z.extend([u] * mult)
        vals.extend([v] * mult)
        dvs.extend([d] * mult)

    m = len(z)
    table = list(vals)
    newton = [table[0]]
    for level in range(1, m):
        nxt = []
        for i in range(m - level):
            if z[i + level] == z[i]:
                # confluent pair: the first divided difference is g'
                nxt.append(dvs[i])
            else:
                nxt.append((table[i + 1] - table[i]) / (z[i + level] - z[i]))
        table = nxt
        newton.append(table[0])

    poly = Polynomial((newton[-1],))
    for j in range(m - 2, -1, -1):
        poly = poly * Polynomial((-z[j], 1.0)) + Polynomial((newton[j],))

    for (u, _), v, _ in entries:
        if abs(poly(u) - v) > 1e-10 * (1.0 + abs(v)):
            raise NumericalDegeneracyError(
                f"interpolation residual too large at u={u}: {poly(u)} vs {v}")
    return poly


def _interpolate(rule: QuadratureRule, pot: Potential) -> Polynomial:
    """Interpolant in t at the nodes of the rule, which fix the confluent
    conditions in u = t*t: a node at 0 carries a value only, every positive
    node a value and a slope, except the top node of the beta and lambda
    rules, the endpoint of the interval, which carries a value only."""
    entries: list[tuple[float, int]] = []
    if any(abs(x) <= 1e-14 for x in rule.nodes):
        entries.append((0.0, 1))
    pos = sorted(x for x in rule.nodes if x > 1e-14)
    entries.extend((x * x, 2) for x in pos)
    if rule.kind in ("beta", "lambda"):
        entries[-1] = (entries[-1][0], 1)
    scheme = InterpolationScheme(tuple(entries))
    if scheme.condition_count != rule.k + 1:
        raise NumericalDegeneracyError(
            f"scheme carries {scheme.condition_count} conditions, wanted {rule.k + 1}")
    values = [pot.eval_g(u) for u, _ in scheme.u_nodes]
    derivs = [pot.eval_g_prime(u) if mult == 2 else None
              for u, mult in scheme.u_nodes]
    g_poly = hermite_confluent(scheme, values, derivs)
    return substitute_t_squared(g_poly)


def build_H2k(n: int, k: int, pot: Potential) -> Polynomial:
    """Below-side interpolant at the interior Gauss nodes: touches h at
    every node, tangentially at the nonzero ones.  Needs g^(k+1) >= 0 on
    (0,1); the result lies below h on all of [-1,1]."""
    state = certify_sign(pot, k, 1.0)
    if not state.admits_nonnegative():
        raise PreconditionError(
            f"below-side interpolant at interior nodes needs a nonnegative "
            f"derivative certificate; {pot.name} gave {state.value} for k={k}")
    return _interpolate(rule_alpha(n, k), pot)


def build_H2k_tilde(n: int, k: int, pot: Potential) -> Polynomial:
    """Below-side interpolant at the endpoint-augmented nodes.  Needs
    g^(k+1) <= 0 on (0,1), which forces h(1) finite; the endpoint node
    carries only a function value."""
    state = certify_sign(pot, k, 1.0)
    if not state.admits_nonpositive():
        raise PreconditionError(
            f"below-side interpolant with endpoint nodes needs a nonpositive "
            f"derivative certificate; {pot.name} gave {state.value} for k={k}")
    if not math.isfinite(pot.h_at_1):
        raise PreconditionError(
            f"endpoint-node interpolation needs h(1) finite; {pot.name} "
            f"has h(1) = {pot.h_at_1}")
    return _interpolate(rule_beta(n, k), pot)


def build_H2k_s(n: int, k: int, s: float, pot: Potential) -> Polynomial:
    """Above-side interpolant at the nodes of the rule anchored at s,
    dominating h on [-s, s].  The anchor must be admissible for
    rule_lambda, and g^(k+1) >= 0 on (0, s*s)."""
    rule = rule_lambda(n, k, s)
    u_max = rule.s * rule.s
    state = certify_sign(pot, k, u_max)
    if not state.admits_nonnegative():
        raise PreconditionError(
            f"above-side interpolant needs a nonnegative derivative "
            f"certificate on (0, {u_max:.6g}); {pot.name} gave {state.value}")
    return _interpolate(rule, pot)


def verify_one_sided(p: Polynomial, pot: Potential, side: Side,
                     interval: tuple[float, float], grid_size: int = 2000) -> float:
    """Worst signed margin of the side constraint over a uniform grid:
    min of side * (h - p), with h and p evaluated on the whole grid at
    once.  Nonnegative (within -1e-9) means the polynomial stays on its
    side of the potential.  Raises NumericalDegeneracyError if h is NaN
    anywhere on the grid."""
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
