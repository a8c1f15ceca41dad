"""Even potentials h(t) = g(t*t) with endpoint behavior and a certificate
for the sign of g^(k+1), which selects the applicable bound branch.

g and g' are only ever called on float arrays, elementwise; user_potential
adapts scalar callables to that once, at construction.  Built-ins carry
analytic certificates.  User potentials fall back to a divided-difference
sampling heuristic; reports record which kind backed a bound.  Infinite
endpoint values use math.inf, and ordinary float arithmetic gives the
needed extended-real convention (x + inf = inf).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import PreconditionError
from .polynomials import _newton_coefficients


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

    eval_g and eval_g_prime act elementwise on float arrays of any shape,
    the only arguments they get: a Potential built directly must accept
    arrays, and user_potential adapts scalar callables.  eval_g maps u in
    [0,1] to an extended real (math.inf allowed only at u = 1);
    eval_g_prime maps u in (0,1) to a real, and the built-in ones are
    finite at u = 0 wherever g' has a finite limit there.
    sign_certificate is the analytic certificate (k, u_max) -> SignState,
    or None for user potentials, which are then certified by sampling.
    eval_h2 maps u in [0,1) to h''(t) at u = t*t, elementwise on float
    arrays, and may be non-finite only at u = 0 (p-frames with p < 2).
    Only name and eval_g are required; what is not given comes from g:
    g' as a central difference (step 1e-6, stencil clipped to [0, 1],
    derivative_kind "numeric"), h(1) as g(1), and h'' as the central
    second difference of h (step 1e-4 in t, stencil kept inside [-1, 1]).
    """

    name: str
    eval_g: Callable[[np.ndarray], np.ndarray]
    eval_g_prime: Optional[Callable[[np.ndarray], np.ndarray]] = None
    h_at_1: Optional[float] = None
    sign_certificate: Optional[Callable[[int, float], SignState]] = None
    derivative_kind: str = field(default="analytic")
    eval_h2: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        g = self.eval_g
        if self.eval_g_prime is None:
            def g_prime(u):
                hi, lo = np.minimum(u + 1e-6, 1.0), np.maximum(u - 1e-6, 0.0)
                return (g(hi) - g(lo)) / (hi - lo)

            object.__setattr__(self, "eval_g_prime", g_prime)
            object.__setattr__(self, "derivative_kind", "numeric")
        if self.h_at_1 is None:
            object.__setattr__(self, "h_at_1", float(g(np.array(1.0))))
        if self.eval_h2 is None:
            step = 1e-4

            def h2(u):
                t = np.minimum(np.sqrt(u), 1.0 - step)[..., None]
                h = g(np.minimum((t + np.array([-step, 0.0, step])) ** 2, 1.0))
                return (h[..., 0] - 2.0 * h[..., 1] + h[..., 2]) / (step * step)

            object.__setattr__(self, "eval_h2", h2)

    @property
    def certificate_kind(self) -> str:
        return "analytic" if self.sign_certificate is not None else "sampled"


def eval_h(pot: Potential, t):
    """h(t) = g(t*t) elementwise on an array of t, in one call of g, or as
    a float at a scalar t; +inf is possible only at t = +-1.  Raises
    PreconditionError if any |t| > 1 + 1e-12.  A NaN from g passes
    through; verify_one_sided raises on it."""
    ts = np.asarray(t, dtype=float)
    outside = np.abs(ts) > 1.0 + 1e-12
    if outside.any():
        raise PreconditionError(f"t={ts[outside][0]} outside [-1, 1]")
    h = pot.eval_g(np.minimum(ts * ts, 1.0))
    return h if ts.ndim else float(h)


def monomial_2k(k0: int) -> Potential:
    """h(t) = t^(2*k0), g(u) = u^k0: the even p-frame p_frame(2*k0) under
    its own name."""
    if k0 < 1:
        raise PreconditionError(f"monomial exponent parameter must be >= 1, got {k0}")
    return replace(p_frame(2 * k0), name=f"monomial:k={k0}")


def _exponent(x: float) -> str:
    """x in a name, short unless that rounds it: no two exponents share a
    name, and certify_design reads t^(2k) from the name of a p-frame."""
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def p_frame(p: float) -> Potential:
    """h(t) = |t|^p, g(u) = u^(p/2); requires 0 < p < inf."""
    p = float(p)
    if not 0.0 < p < math.inf:
        raise PreconditionError(
            f"p-frame exponent p must be positive and finite, got {p}")
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
        name=f"pframe:p={_exponent(p)}",
        eval_g=lambda u: u**half,
        eval_g_prime=lambda u: half * u ** (half - 1.0),
        sign_certificate=cert,
        eval_h2=lambda u: p * (p - 1.0) * u ** (half - 1.0),
    )


def riesz_sym(m: float) -> Potential:
    """h(t) = (2-2t)^(-m/2) + (2+2t)^(-m/2); requires 0 < m < inf.

    g is strictly absolutely monotone on (0,1), so every derivative is
    positive and the certificate is NONNEGATIVE for all k; g(1) = +inf.
    """
    m = float(m)
    if not 0.0 < m < math.inf:
        raise PreconditionError(
            f"riesz exponent m must be positive and finite, got {m}")
    a = m / 2.0

    def g(u):
        r = np.sqrt(np.minimum(u, 1.0))
        with np.errstate(divide="ignore"):
            return (2.0 - 2.0 * r) ** (-a) + (2.0 + 2.0 * r) ** (-a)

    # removable singularity at u = 0: the bracket is 2^(-a) (a+1) r + O(r^3)
    limit = a * (a + 1.0) * 2.0 ** -a

    def gp(u):
        r = np.sqrt(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = (a / r) * ((2.0 - 2.0 * r) ** (-a - 1.0)
                               - (2.0 + 2.0 * r) ** (-a - 1.0))
        return np.where(r == 0.0, limit, slope)

    def h2(u):
        r = np.sqrt(np.minimum(u, 1.0))
        with np.errstate(divide="ignore"):
            return (4.0 * a * (a + 1.0)) * ((2.0 - 2.0 * r) ** (-a - 2.0)
                                            + (2.0 + 2.0 * r) ** (-a - 2.0))

    return Potential(
        name=f"riesz:m={_exponent(m)}",
        eval_g=g,
        eval_g_prime=gp,
        sign_certificate=lambda k, u_max: SignState.NONNEGATIVE,
        eval_h2=h2,
    )


def gaussian_sym() -> Potential:
    """h(t) = cosh(t), g(u) = cosh(sqrt(u)); entire in u with positive
    power-series coefficients, so NONNEGATIVE for every k."""

    def gp(u):
        r = np.sqrt(u)
        with np.errstate(invalid="ignore"):
            return np.where(r == 0.0, 0.5, np.sinh(r) / (2.0 * r))

    return Potential(
        name="cosh",
        eval_g=lambda u: np.cosh(np.sqrt(u)),
        eval_g_prime=gp,
        sign_certificate=lambda k, u_max: SignState.NONNEGATIVE,
        eval_h2=lambda u: np.cosh(np.sqrt(u)),
    )


def arcsine() -> Potential:
    """h(t) = 1/sqrt(1-t*t), g(u) = (1-u)^(-1/2); g(1) = +inf."""

    def g(u):
        with np.errstate(divide="ignore"):
            return (1.0 - np.minimum(u, 1.0)) ** -0.5

    def h2(u):
        with np.errstate(divide="ignore"):
            return (1.0 + 2.0 * u) * (1.0 - np.minimum(u, 1.0)) ** -2.5

    return Potential(
        name="arcsine",
        eval_g=g,
        eval_g_prime=lambda u: 0.5 * (1.0 - u) ** -1.5,
        sign_certificate=lambda k, u_max: SignState.NONNEGATIVE,
        eval_h2=h2,
    )


def user_potential(name: str, g: Callable[[float], float],
                   g_prime: Optional[Callable[[float], float]] = None,
                   h_at_1: Optional[float] = None) -> Potential:
    """Wrap a black-box g, a callable on one float: g and g_prime are made
    elementwise on arrays by np.vectorize, once, here.  Potential derives
    what is not given (a central difference for g', g(1) for h(1)), and
    the sign certificate is left to the sampling heuristic; both facts are
    visible to reports."""
    # otypes spares vectorize a first call made to guess the output type
    if g_prime is not None:
        g_prime = np.vectorize(g_prime, otypes=[float])
    return Potential(name, np.vectorize(g, otypes=[float]), g_prime, h_at_1)


# stencils of the sampled certificate, and the bar its estimates must clear
_SIGN_SAMPLES = 200
_SIGN_CLEAR = 1e-9


def _sampled_sign(g: Callable[[np.ndarray], np.ndarray], k: int,
                  u_max: float) -> SignState:
    """Heuristic certificate: estimate g^(k+1) by the top divided
    difference of k + 2 distinct nodes around each of _SIGN_SAMPLES
    interior centers, with g evaluated on every stencil in one call; a
    verdict needs every estimate on one side of +-_SIGN_CLEAR."""
    order = k + 1
    fact = math.factorial(order)
    # stencils stay inside (0, u_max) with room below any endpoint blowup
    step = 0.05 * u_max / order
    centers = u_max * (0.05 + 0.9 * (np.arange(_SIGN_SAMPLES) + 0.5)
                       / _SIGN_SAMPLES)
    xs = centers[:, None] + (np.arange(order + 1) - order / 2.0) * step
    xs = xs[(xs[:, 0] > 0.0) & (xs[:, -1] < u_max)]
    if len(xs) < _SIGN_SAMPLES // 2:
        return SignState.UNKNOWN
    estimates = [fact * _newton_coefficients(z, values)[-1]
                 for z, values in zip(xs.tolist(), g(xs).tolist())]
    if all(e > _SIGN_CLEAR for e in estimates):
        return SignState.NONNEGATIVE
    if all(e < -_SIGN_CLEAR for e in estimates):
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
