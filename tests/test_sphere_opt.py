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


def rayleigh(n, seed):
    """A symmetric matrix with eigenvalues 1..3, its eigenvectors as
    columns, and the batched objective x . A x with gradient 2 A x."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (q * np.linspace(1.0, 3.0, n)) @ q.T

    def fg(xs):
        axs = xs @ a
        return np.sum(xs * axs, axis=1), 2.0 * axs

    return q, fg


@pytest.mark.parametrize("n", [3, 5, 8])
def test_bfgs_finds_smallest_rayleigh_quotient(n):
    q, fg = rayleigh(n, n)
    x0 = q[:, 0] + 0.3 * q[:, 1] + 0.2 * q[:, -1]
    values, xs = tangent_bfgs(fg, x0[None, :])
    assert values.shape == (1,) and xs.shape == (1, n)
    assert np.linalg.norm(xs[0]) == pytest.approx(1.0, abs=1e-15)
    assert values[0] == pytest.approx(1.0, abs=1e-13)
    assert abs(xs[0] @ q[:, 0]) == pytest.approx(1.0, abs=1e-7)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_batched_rows_converge_independently(n):
    q, fg = rayleigh(n, 10 + n)
    rng = np.random.default_rng(n)
    # one row at the optimum, one next to the top eigenvector (the
    # maximum), the rest random
    starts = np.vstack([q[:, 0], q[:, -1] + 1e-3 * q[:, 0],
                        rng.standard_normal((6, n))])
    values, xs = tangent_bfgs(fg, starts)
    assert values == pytest.approx(np.ones(len(starts)), abs=1e-13)
    assert np.abs(xs @ q[:, 0]) == pytest.approx(np.ones(len(starts)), abs=1e-7)
    for row, x0 in enumerate(starts):
        # rows see fg on different batches, so only roundoff separates a
        # row from its solo run; near a minimum the point is fixed to about
        # sqrt(eps), the value to eps
        solo_values, solo_xs = tangent_bfgs(fg, x0[None, :])
        assert abs(solo_values[0] - values[row]) <= 1e-13
        assert np.max(np.abs(solo_xs[0] - xs[row])) <= 1e-7
