"""Dense univariate polynomials, Gegenbauer families, and exact integration
against the inner-product distribution of the sphere.

Everything here works in the monomial basis, where integration reduces to a
dot product with closed-form moments.  That basis grows ill-conditioned
with the degree, so the quadrature rules do not use it: they come from the
three-term recurrence in :mod:`kkpolar.quadrature`.  The weight
normalization constant is never computed explicitly; all integrals go
through :func:`monomial_moment`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

# Absolute threshold below which trailing coefficients are treated as zero.
TRIM_TOL = 1e-14


def _trim(coeffs) -> tuple[float, ...]:
    c = [float(x) for x in coeffs]
    while c and abs(c[-1]) <= TRIM_TOL:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial stored as monomial coefficients.

    ``coeffs[j]`` multiplies ``t**j``.  Trailing coefficients below
    ``TRIM_TOL`` in absolute value are dropped at construction, so the zero
    polynomial has an empty coefficient tuple and degree -1.
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

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

    @classmethod
    def monomial(cls, j: int, coeff: float = 1.0) -> "Polynomial":
        return cls((0.0,) * j + (float(coeff),))

    def __call__(self, t):
        """Horner evaluation; accepts scalars or numpy arrays."""
        result = np.zeros_like(np.asarray(t, dtype=float))
        for c in reversed(self.coeffs):
            result = result * t + c
        if np.ndim(t) == 0:
            return float(result)
        return result

    def derivative(self, order: int = 1) -> "Polynomial":
        c = list(self.coeffs)
        for _ in range(order):
            c = [j * c[j] for j in range(1, len(c))]
        return Polynomial(c)

    def eval_derivative(self, t, order: int = 1):
        return self.derivative(order)(t)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1.0)

    def scale(self, factor: float) -> "Polynomial":
        return Polynomial([factor * c for c in self.coeffs])

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.coeffs or not other.coeffs:
            return Polynomial.zero()
        return Polynomial(np.convolve(self.coeffs, other.coeffs))


def substitute_t_squared(p_u: Polynomial) -> Polynomial:
    """Expand p(t^2) into a polynomial in t (index doubling)."""
    out = [0.0] * (2 * len(p_u.coeffs))
    for j, c in enumerate(p_u.coeffs):
        out[2 * j] = c
    return Polynomial(out)


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


def integrate_mu(n: int, p: Polynomial) -> float:
    """Integral of p against the axis-projection probability measure.

    Exact in formula: a dot product of the coefficients with the
    closed-form monomial moments.  For p expanded in the Gegenbauer basis
    this equals the zeroth Gegenbauer coefficient.
    """
    return math.fsum(
        c * monomial_moment(n, j) for j, c in enumerate(p.coeffs) if j % 2 == 0
    )


def gegenbauer(n: int, ell: int) -> Polynomial:
    """Degree-ell Gegenbauer polynomial for dimension n, normalized to 1
    at t = 1, in monomial coefficients."""
    return GegenbauerFamily(n, ell).poly(ell)


class GegenbauerFamily:
    """Cached Gegenbauer polynomials for a fixed dimension.

    Built by the three-term recurrence
        P_ell = ((2*ell + n - 4) * t * P_{ell-1} - (ell - 1) * P_{ell-2})
                / (ell + n - 3),
    whose coefficients are chosen so that P_ell(1) = 1 for all ell.
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

    def eval(self, ell: int, t):
        return self.poly(ell)(t)
