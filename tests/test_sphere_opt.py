"""Local minimization on the unit sphere."""

import numpy as np
import pytest

from kkpolar.sphere_opt import tangent_bfgs, tangent_component


def test_tangent_component_is_orthogonal():
    x = np.array([0.6, 0.0, 0.8])
    v = np.array([1.0, -2.0, 3.0])
    t = tangent_component(x, v)
    assert t @ x == pytest.approx(0.0, abs=1e-15)
    assert v - t == pytest.approx((v @ x) * x, abs=1e-15)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_bfgs_finds_smallest_rayleigh_quotient(n):
    rng = np.random.default_rng(n)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = np.linspace(1.0, 3.0, n)
    a = (q * eig) @ q.T

    def fg(x):
        ax = a @ x
        return float(x @ ax), 2.0 * ax

    x0 = q[:, 0] + 0.3 * q[:, 1] + 0.2 * q[:, -1]
    value, x = tangent_bfgs(fg, x0)
    assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-15)
    assert value == pytest.approx(1.0, abs=1e-13)
    assert abs(x @ q[:, 0]) == pytest.approx(1.0, abs=1e-7)
