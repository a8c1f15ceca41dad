"""The one divided-difference tableau and the Newton form of the
interpolants, dense polynomials for display, and the closed-form monomial
moments of the inner-product distribution of the sphere.

The monomial basis grows ill-conditioned with the degree, so nothing that
decides a result works in it: the quadrature rules come from the three-term
recurrence in :mod:`kkpolar.quadrature`, the design moments from the same
recurrence on the Gram matrix, and the interpolants are NewtonForm objects,
the divided differences of _newton_coefficients evaluated by Horner; the
sampled sign certificate of :mod:`kkpolar.potentials` shares the tableau.
A Polynomial holds an interpolant's expansion in t, for reports only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

# Absolute threshold below which trailing coefficients are treated as zero.
TRIM_TOL = 1e-14


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial stored as monomial coefficients.

    ``coeffs[j]`` multiplies ``t**j``.  Trailing coefficients below
    ``TRIM_TOL`` in absolute value are dropped at construction, so the zero
    polynomial has an empty coefficient tuple.
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs=()):
        c = [float(x) for x in coeffs]
        while c and abs(c[-1]) <= TRIM_TOL:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls(())

    @classmethod
    def one(cls) -> "Polynomial":
        return cls((1.0,))

    @classmethod
    def identity(cls) -> "Polynomial":
        """The polynomial t."""
        return cls((0.0, 1.0))

    def __call__(self, t):
        """Horner evaluation; accepts scalars or numpy arrays."""
        result = np.zeros_like(np.asarray(t, dtype=float))
        for c in reversed(self.coeffs):
            result = result * t + c
        if np.ndim(t) == 0:
            return float(result)
        return result

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] += c
        return Polynomial(out)

    def scale(self, factor: float) -> "Polynomial":
        return Polynomial([factor * c for c in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.coeffs or not other.coeffs:
            return Polynomial.zero()
        return Polynomial(np.convolve(self.coeffs, other.coeffs))


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
    t does not; expand_t gives that expansion, for display only."""

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

    def expand_t(self) -> Polynomial:
        """The expansion of H in powers of t: the Newton recurrence in
        Polynomial arithmetic, then index doubling from u to t."""
        c, z = self.divided_differences, self.u_nodes
        p = Polynomial((c[-1],))
        for j in range(len(c) - 2, -1, -1):
            p = p * Polynomial((-z[j], 1.0)) + Polynomial((c[j],))
        coeffs = [0.0] * (2 * len(p.coeffs))
        coeffs[::2] = p.coeffs
        return Polynomial(coeffs)


class GegenbauerFamily:
    """Cached Gegenbauer polynomials for a fixed dimension.

    Built by the three-term recurrence
        P_ell = ((2*ell + n - 4) * t * P_{ell-1} - (ell - 1) * P_{ell-2})
                / (ell + n - 3),
    whose coefficients are chosen so that P_ell(1) = 1 for all ell.
    Nothing in the package calls it; it stays while perfbench/tracer.py
    patches it by name.
    """

    def __init__(self, n: int, max_degree: int = 0):
        if n < 2:
            raise PreconditionError(f"dimension must be >= 2, got {n}")
        self.n = n
        self._cache = [Polynomial.one(), Polynomial.identity()]
        self.poly(max_degree)

    def poly(self, ell: int) -> Polynomial:
        if ell < 0:
            raise PreconditionError(f"degree must be >= 0, got {ell}")
        t = Polynomial.identity()
        while len(self._cache) <= ell:
            m = len(self._cache)
            denom = m + self.n - 3
            p = (t * self._cache[m - 1]).scale((2 * m + self.n - 4) / denom) + \
                self._cache[m - 2].scale(-(m - 1) / denom)
            self._cache.append(p)
        return self._cache[ell]
