"""Even potentials h(t) = g(t*t) with endpoint behavior and a certificate
for the sign of g^(k+1), which selects the applicable bound branch.

Built-ins carry analytic certificates.  User potentials fall back to a
divided-difference sampling heuristic; reports record which kind backed a
bound.  Infinite endpoint values use math.inf, and ordinary float
arithmetic gives the needed extended-real convention (x + inf = inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import PreconditionError


class SignState(str, Enum):
    """Asserted sign of g^(k+1) on an interval (0, u_max).

    ZERO means the derivative vanishes identically (polynomial g of low
    degree); it satisfies both the nonnegative and nonpositive hypotheses,
    so both bound branches apply and must agree.
    """

    NONNEGATIVE = "NONNEGATIVE"
    NONPOSITIVE = "NONPOSITIVE"
    ZERO = "ZERO"
    UNKNOWN = "UNKNOWN"

    def admits_nonnegative(self) -> bool:
        return self in (SignState.NONNEGATIVE, SignState.ZERO)

    def admits_nonpositive(self) -> bool:
        return self in (SignState.NONPOSITIVE, SignState.ZERO)


@dataclass(frozen=True)
class Potential:
    """h(t) = g(t*t), so h is even by construction.

    eval_g maps u in [0,1] to an extended real (math.inf allowed only at
    u = 1); eval_g_prime maps u in (0,1) to a real, and the built-in ones
    also act elementwise on arrays and are finite at u = 0 wherever g' has
    a finite limit there.  sign_certificate is the analytic certificate
    (k, u_max) -> SignState, or None for user potentials, which are then
    certified by sampling.
    """

    name: str
    # built-in eval_g callables also act elementwise on ndarrays, which the
    # sphere extremizer exploits; user-supplied ones may be scalar-only
    eval_g: Callable[[float], float]
    eval_g_prime: Callable[[float], float]
    h_at_1: float
    sign_certificate: Optional[Callable[[int, float], SignState]] = None
    derivative_kind: str = field(default="analytic")

    @property
    def certificate_kind(self) -> str:
        return "analytic" if self.sign_certificate is not None else "sampled"


def eval_h(pot: Potential, t: float) -> float:
    """h(t) = g(t*t); +inf is possible only at t = +-1."""
    if abs(t) > 1.0 + 1e-12:
        raise PreconditionError(f"t={t} outside [-1, 1]")
    return float(pot.eval_g(min(t * t, 1.0)))


def monomial_2k(k0: int) -> Potential:
    """h(t) = t^(2*k0), g(u) = u^k0."""
    if k0 < 1:
        raise PreconditionError(f"monomial exponent parameter must be >= 1, got {k0}")

    def cert(k: int, u_max: float) -> SignState:
        # g^(k+1) of u^k0 is identically zero once k+1 exceeds k0
        if k + 1 > k0:
            return SignState.ZERO
        return SignState.NONNEGATIVE

    return Potential(
        name=f"monomial:k={k0}",
        eval_g=lambda u: u**k0,
        eval_g_prime=lambda u: k0 * u ** (k0 - 1),
        h_at_1=1.0,
        sign_certificate=cert,
    )


def p_frame(p: float) -> Potential:
    """h(t) = |t|^p, g(u) = u^(p/2); requires p > 0."""
    p = float(p)
    if p <= 0.0:
        raise PreconditionError(f"p-frame exponent must be positive, got {p}")
    half = p / 2.0

    def cert(k: int, u_max: float) -> SignState:
        sign = 1.0
        for j in range(k + 1):
            f = half - j
            if f == 0.0:
                return SignState.ZERO
            sign *= f
        return SignState.NONNEGATIVE if sign > 0.0 else SignState.NONPOSITIVE

    return Potential(
        name=f"pframe:p={p:g}",
        eval_g=lambda u: u**half,
        eval_g_prime=lambda u: half * u ** (half - 1.0),
        h_at_1=1.0,
        sign_certificate=cert,
    )


def riesz_sym(m: float) -> Potential:
    """h(t) = (2-2t)^(-m/2) + (2+2t)^(-m/2); requires m > 0.

    g is strictly absolutely monotone on (0,1), so every derivative is
    positive and the certificate is NONNEGATIVE for all k; g(1) = +inf.
    """
    m = float(m)
    if m <= 0.0:
        raise PreconditionError(f"riesz exponent must be positive, got {m}")
    a = m / 2.0

    def g(u):
        arr = np.asarray(u, dtype=float)
        r = np.sqrt(np.minimum(arr, 1.0))
        with np.errstate(divide="ignore"):
            val = (2.0 - 2.0 * r) ** (-a) + (2.0 + 2.0 * r) ** (-a)
        out = np.where(arr >= 1.0, np.inf, val)
        return out if arr.ndim else float(out)

    def slope(r):
        return (a / r) * ((2.0 - 2.0 * r) ** (-a - 1.0)
                          - (2.0 + 2.0 * r) ** (-a - 1.0))

    # removable singularity at u = 0: the bracket is 2^(-a) (a+1) r + O(r^3)
    limit = a * (a + 1.0) * 2.0 ** -a

    def gp(u):
        if np.ndim(u) == 0:
            r = math.sqrt(u)
            return slope(r) if r != 0.0 else limit
        r = np.sqrt(np.asarray(u, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(r == 0.0, limit, slope(r))

    return Potential(
        name=f"riesz:m={m:g}",
        eval_g=g,
        eval_g_prime=gp,
        h_at_1=math.inf,
        sign_certificate=lambda k, u_max: SignState.NONNEGATIVE,
    )


def gaussian_sym() -> Potential:
    """h(t) = cosh(t), g(u) = cosh(sqrt(u)); entire in u with positive
    power-series coefficients, so NONNEGATIVE for every k."""

    def g(u):
        arr = np.asarray(u, dtype=float)
        out = np.cosh(np.sqrt(arr))
        return out if arr.ndim else float(out)

    def gp(u):
        if np.ndim(u) == 0:
            r = math.sqrt(u)
            return math.sinh(r) / (2.0 * r) if r != 0.0 else 0.5
        r = np.sqrt(np.asarray(u, dtype=float))
        with np.errstate(invalid="ignore"):
            return np.where(r == 0.0, 0.5, np.sinh(r) / (2.0 * r))

    return Potential(
        name="cosh",
        eval_g=g,
        eval_g_prime=gp,
        h_at_1=math.cosh(1.0),
        sign_certificate=lambda k, u_max: SignState.NONNEGATIVE,
    )


def arcsine() -> Potential:
    """h(t) = 1/sqrt(1-t*t), g(u) = (1-u)^(-1/2); g(1) = +inf."""

    def g(u):
        arr = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore"):
            val = (1.0 - np.minimum(arr, 1.0)) ** -0.5
        out = np.where(arr >= 1.0, np.inf, val)
        return out if arr.ndim else float(out)

    return Potential(
        name="arcsine",
        eval_g=g,
        eval_g_prime=lambda u: 0.5 * (1.0 - u) ** -1.5,
        h_at_1=math.inf,
        sign_certificate=lambda k, u_max: SignState.NONNEGATIVE,
    )


def user_potential(name: str, g: Callable[[float], float],
                   g_prime: Optional[Callable[[float], float]] = None,
                   h_at_1: Optional[float] = None) -> Potential:
    """Wrap a black-box g.  Without an analytic derivative a central
    difference (step 1e-6) stands in, and the sign certificate is left to
    the sampling heuristic; both facts are visible to reports."""
    if g_prime is None:
        step = 1e-6
        g_prime = lambda u: (g(min(u + step, 1.0)) - g(max(u - step, 0.0))) / (
            min(u + step, 1.0) - max(u - step, 0.0))
        derivative_kind = "numeric"
    else:
        derivative_kind = "analytic"
    return Potential(
        name=name,
        eval_g=g,
        eval_g_prime=g_prime,
        h_at_1=g(1.0) if h_at_1 is None else h_at_1,
        sign_certificate=None,
        derivative_kind=derivative_kind,
    )


def _divided_difference(values: list, xs: list) -> float:
    vals = list(values)
    m = len(xs)
    for level in range(1, m):
        for i in range(m - level):
            vals[i] = (vals[i + 1] - vals[i]) / (xs[i + level] - xs[i])
    return vals[0]


def _sampled_sign(g: Callable[[float], float], k: int, u_max: float,
                  samples: int = 200, clear: float = 1e-9) -> SignState:
    """Heuristic certificate: estimate g^(k+1) by confluent-free divided
    differences at `samples` interior centers; a verdict needs every
    estimate on one side of +-clear."""
    order = k + 1
    fact = math.factorial(order)
    # stencils stay inside (0, u_max) with room below any endpoint blowup
    step = 0.05 * u_max / order
    estimates = []
    for i in range(samples):
        c = u_max * (0.05 + 0.9 * (i + 0.5) / samples)
        xs = [c + (j - order / 2.0) * step for j in range(order + 1)]
        if xs[0] <= 0.0 or xs[-1] >= u_max:
            continue
        estimates.append(fact * _divided_difference([g(x) for x in xs], xs))
    if len(estimates) < samples // 2:
        return SignState.UNKNOWN
    if all(e > clear for e in estimates):
        return SignState.NONNEGATIVE
    if all(e < -clear for e in estimates):
        return SignState.NONPOSITIVE
    return SignState.UNKNOWN


def certify_sign(pot: Potential, k: int, u_max: float) -> SignState:
    """Sign of g^(k+1) on (0, u_max): analytic when the potential carries a
    certificate, otherwise the sampling heuristic."""
    if k < 1:
        raise PreconditionError(f"k must be >= 1, got {k}")
    if not (0.0 < u_max <= 1.0):
        raise PreconditionError(f"u_max must lie in (0, 1], got {u_max}")
    if pot.sign_certificate is not None:
        return pot.sign_certificate(k, u_max)
    return _sampled_sign(pot.eval_g, k, u_max)


def parse_potential(text: str) -> Potential:
    """Parse a CLI potential descriptor: "monomial:k=<int>", "pframe:p=<real>",
    "riesz:m=<real>", "cosh", "arcsine"."""
    text = text.strip()
    if text == "cosh":
        return gaussian_sym()
    if text == "arcsine":
        return arcsine()
    head, sep, tail = text.partition(":")
    forms = {"monomial": "k", "pframe": "p", "riesz": "m"}
    if not sep or head not in forms:
        raise PreconditionError(f"unrecognized potential descriptor {text!r}")
    key, sep2, value = tail.partition("=")
    if not sep2 or key != forms[head]:
        raise PreconditionError(f"potential descriptor {text!r} needs {forms[head]}=<value>")
    try:
        if head == "monomial":
            return monomial_2k(int(value))
        if head == "pframe":
            return p_frame(float(value))
        return riesz_sym(float(value))
    except ValueError as exc:
        raise PreconditionError(f"bad numeric value in potential descriptor {text!r}") from exc
