"""The one divided-difference tableau and the Newton form of the
interpolants, and the closed-form monomial moments of the inner-product
distribution of the sphere.

The monomial basis grows ill-conditioned with the degree, so nothing works
in it: the quadrature rules and design moments come from the three-term
recurrence, and the interpolants are NewtonForm objects, the divided
differences of _newton_coefficients evaluated by Horner in u = t*t.  The
tests expand in monomials with numpy.polynomial.Polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError


def monomial_moment(n: int, ell: int) -> float:
    """Moment of t**ell under the projection of uniform surface measure
    onto an axis: 1 for ell = 0, 0 for odd ell, and
    (1*3*...*(ell-1)) / (n*(n+2)*...*(n+ell-2)) for even ell >= 2.
    """
    if n < 2:
        raise PreconditionError(f"dimension must be >= 2, got {n}")
    if ell < 0:
        raise PreconditionError(f"moment order must be >= 0, got {ell}")
    if ell % 2 == 1:
        return 0.0
    value = 1.0
    for j in range(2, ell + 1, 2):
        value *= (j - 1) / (n + j - 2)
    return value


def _newton_coefficients(z, values, slopes=None) -> list[float]:
    """The divided differences f[z_0], f[z_0, z_1], ..., f[z_0, ..., z_m-1]:
    the coefficients of the Newton form at the nodes z, in their order.
    A node may repeat once, next to its twin; the first divided difference
    of such a confluent pair is its entry in slopes, the derivative there.
    Without slopes the nodes must be distinct."""
    table = list(values)
    newton = [table[0]]
    m = len(z)
    for level in range(1, m):
        table = [slopes[i] if z[i + level] == z[i]
                 else (table[i + 1] - table[i]) / (z[i + level] - z[i])
                 for i in range(m - level)]
        newton.append(table[0])
    return newton


@dataclass(frozen=True)
class NewtonForm:
    """H(t) = p(t*t), where p(u) = c_0 + c_1 (u - z_0) + ... +
    c_m-1 (u - z_0)...(u - z_m-2) is the Newton form with the
    divided_differences c of _newton_coefficients at the u_nodes z.  Calls
    evaluate it by Horner in u, which stays accurate where the expansion in
    t does not; reports write both fields verbatim."""

    u_nodes: tuple[float, ...]
    divided_differences: tuple[float, ...]

    def at_u(self, u):
        """p(u) by Horner in the Newton basis; scalars or numpy arrays."""
        c, z = self.divided_differences, self.u_nodes
        u = np.asarray(u, dtype=float)
        result = np.full(u.shape, c[-1])
        for j in range(len(c) - 2, -1, -1):
            result = result * (u - z[j]) + c[j]
        return float(result) if result.ndim == 0 else result

    def __call__(self, t):
        """H(t) = p(t*t); scalars or numpy arrays."""
        return self.at_u(np.square(t, dtype=float))


# empty placeholders, kept only because perfbench/tracer.py patches them by name
class Polynomial:
    pass


class GegenbauerFamily:
    pass
