"""Local minimization on the unit sphere."""

import math

import numpy as np
import pytest

from kkpolar import polarization, sphere_opt
from kkpolar.codes import SphericalCode
from kkpolar.potentials import parse_potential, user_potential
from kkpolar.sphere_opt import tangent_bfgs, tangent_component, tangent_newton

from helpers import reference_bfgs_round


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


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_newton_finds_smallest_rayleigh_quotient(n):
    q, fg = rayleigh(n, n)
    a = fg(np.eye(n))[1] / 2.0
    calls = []

    def fgh(xs, values_only=False):
        values, grads = fg(xs)
        if values_only:
            return values
        calls.append(xs.shape[0])
        return values, grads, np.broadcast_to(2.0 * a, (xs.shape[0], n, n))

    # eight rows around the minimizer, at distances up to about 1
    starts = q[:, 0] + 0.3 * np.random.default_rng(n).standard_normal((8, n))
    values, xs = tangent_newton(fgh, starts)
    assert values.shape == (8,) and xs.shape == (8, n)
    np.testing.assert_allclose(np.linalg.norm(xs, axis=1), 1.0, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(values, 1.0, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(np.abs(xs @ q[:, 0]), 1.0, rtol=0.0, atol=1e-7)
    # the start and a handful of Newton iterations
    assert len(calls) <= 8


def counted(fg):
    """fg, and a list that records the batch size of each call to it."""
    calls = []

    def wrapped(xs):
        calls.append(xs.shape[0])
        return fg(xs)

    return wrapped, calls


def flat_objective(xs):
    # constant value, nonzero tangent gradient: no step passes Armijo
    grads = np.zeros_like(xs)
    grads[:, 0] = 1.0
    return np.zeros(xs.shape[0]), grads


def test_failed_line_search_costs_two_calls():
    x0 = np.full((1, 4), 0.5)
    fg, calls = counted(flat_objective)
    end = sphere_opt._bfgs_round(fg, x0)
    # the start, alpha = 1, and every halving 2^-1 .. 2^-20 at once
    assert calls == [1, 1, sphere_opt._HALVINGS]
    assert np.array_equal(end, x0)
    fg, calls = counted(flat_objective)
    assert np.array_equal(reference_bfgs_round(fg, x0), x0)
    assert len(calls) == sphere_opt._HALVINGS + 2


def scalar_only_exp():
    # math.exp rejects arrays, so g and its finite-difference g' run
    # elementwise through user_potential's np.vectorize
    return user_potential("exp", lambda u: math.exp(u))


def survivor_problems(n, size, pot):
    """(fg, starts) of each direction that polarization refines on a seeded
    random (n, size) code (not MAX where h(1) = +inf): its objective and
    its screened survivors."""
    rng = np.random.default_rng(100 * n + size)
    pts = rng.standard_normal((size, n))
    code = SphericalCode.from_points(pts / np.linalg.norm(pts, axis=1, keepdims=True))
    pot = parse_potential(pot) if isinstance(pot, str) else pot()
    mat, u = polarization._screen(code, pot, 0, None)
    for sgn in (1.0, -1.0) if pot.h_at_1 < math.inf else (1.0,):
        starts = mat[np.argsort(sgn * u)[:polarization._SURVIVORS]]
        yield polarization._fg(code.points, pot, sgn), starts


def both_ways(monkeypatch, fg, starts):
    """tangent_bfgs from the same starts with the one-call ladder and with
    the sequential reference round."""
    batched = tangent_bfgs(fg, starts.copy())
    with monkeypatch.context() as patched:
        patched.setattr(sphere_opt, "_bfgs_round", reference_bfgs_round)
        sequential = tangent_bfgs(fg, starts.copy())
    return batched, sequential


def row_by_row(fg):
    """fg one row at a time, so that no row's value or gradient depends on
    the batch it is evaluated in."""

    def wrapped(xs):
        parts = [fg(x[None]) for x in xs]
        return (np.concatenate([value for value, _ in parts]),
                np.concatenate([grad for _, grad in parts]))

    return wrapped


CASES = [
    (3, 200, "cosh"), (5, 40, "riesz:m=1"), (8, 120, "monomial:k=1"),
    (6, 12, "pframe:p=4"), (4, 60, "pframe:p=1"), (5, 16, scalar_only_exp),
]
P_HALF_CASES = [(7, 30, "pframe:p=0.5"), (3, 12, "pframe:p=0.5")]


@pytest.mark.parametrize("n, size, pot", CASES + P_HALF_CASES)
def test_batched_backtracking_takes_the_sequential_steps(monkeypatch, n, size, pot):
    """With an fg that does not depend on batch shape, the one-call ladder
    tries the same steps in the same order as the sequential halvings, so
    every row ends at the same point."""
    for fg, starts in survivor_problems(n, size, pot):
        (values, ends), (ref_values, ref_ends) = both_ways(
            monkeypatch, row_by_row(fg), starts)
        np.testing.assert_array_equal(values, ref_values)
        np.testing.assert_array_equal(ends, ref_ends)


@pytest.mark.parametrize("n, size, pot", CASES)
def test_batched_backtracking_matches_sequential(monkeypatch, n, size, pot):
    """With the batched fg, rows are evaluated in other batch shapes, which
    moves values by roundoff; the best value agrees to 1e-12.  The p = 0.5
    cases are left to the row-by-row test: at their cusps a roundoff change
    in fg sends a row to another cusp, in the sequential round as well."""
    for fg, starts in survivor_problems(n, size, pot):
        (values, _), (ref_values, _) = both_ways(monkeypatch, fg, starts)
        best, reference = np.min(values), np.min(ref_values)
        assert abs(best - reference) <= 1e-12 * abs(reference)
