"""Test-only helpers that the package itself does not need."""

import numpy as np

from kkpolar.codes import SphericalCode
from kkpolar.potentials import Potential, SignState, certify_sign


def negate(pot: Potential) -> Potential:
    """-h, with the sign certificate flipped."""

    def cert(k: int, u_max: float) -> SignState:
        inner = certify_sign(pot, k, u_max)
        if inner is SignState.NONNEGATIVE:
            return SignState.NONPOSITIVE
        if inner is SignState.NONPOSITIVE:
            return SignState.NONNEGATIVE
        return inner

    return Potential(
        name=f"neg({pot.name})",
        eval_g=lambda u: -pot.eval_g(u),
        eval_g_prime=lambda u: -pot.eval_g_prime(u),
        h_at_1=-pot.h_at_1,
        sign_certificate=cert,
        derivative_kind=pot.derivative_kind,
    )


def nearly_flat_code() -> SphericalCode:
    """12 random unit points in R^4 with the fourth coordinate scaled by
    1e-14: full rank by numpy's test, but Qhull finds no initial simplex."""
    pts = np.random.default_rng(0).standard_normal((12, 4))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts[:, 3] *= 1e-14
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return SphericalCode.from_points(pts)
