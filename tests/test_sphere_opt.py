"""Local minimization on the unit sphere."""

import math

import numpy as np
import pytest

from kkpolar import polarization, sphere_opt
from kkpolar.codes import SphericalCode
from kkpolar.potentials import parse_potential, user_potential
from kkpolar.sphere_opt import tangent_component, tangent_newton

from helpers import reference_tangent_newton


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


def with_hessian(fg, n, calls=None):
    """The Rayleigh objective fg as the fgh of tangent_newton, with its
    constant Hessian 2 A; calls, when given, records the batch size of
    each full call.  The row indices are not read: every start has the
    same objective."""
    a = fg(np.eye(n))[1] / 2.0

    def fgh(xs, rows, values_only=False):
        values, grads = fg(xs)
        if values_only:
            return values
        if calls is not None:
            calls.append(xs.shape[0])
        return values, grads, np.broadcast_to(2.0 * a, (xs.shape[0], n, n))

    return fgh


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_newton_finds_smallest_rayleigh_quotient(n):
    q, fg = rayleigh(n, n)
    calls = []
    fgh = with_hessian(fg, n, calls)
    # eight rows around the minimizer, at distances up to about 1
    starts = q[:, 0] + 0.3 * np.random.default_rng(n).standard_normal((8, n))
    values, xs = tangent_newton(fgh, starts)
    assert values.shape == (8,) and xs.shape == (8, n)
    np.testing.assert_allclose(np.linalg.norm(xs, axis=1), 1.0, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(values, 1.0, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(np.abs(xs @ q[:, 0]), 1.0, rtol=0.0, atol=1e-7)
    # the start and a handful of Newton iterations
    assert len(calls) <= 8


@pytest.mark.parametrize("n", [3, 5, 8])
def test_batched_rows_converge_independently(n):
    q, fg = rayleigh(n, 10 + n)
    fgh = with_hessian(fg, n)
    rng = np.random.default_rng(n)
    # one row at the optimum, one next to the top eigenvector (the
    # maximum), the rest random
    starts = np.vstack([q[:, 0], q[:, -1] + 1e-3 * q[:, 0],
                        rng.standard_normal((6, n))])
    values, xs = tangent_newton(fgh, starts)
    np.testing.assert_allclose(values, 1.0, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(np.abs(xs @ q[:, 0]), 1.0, rtol=0.0, atol=1e-7)
    for row, x0 in enumerate(starts):
        # rows see fgh on different batches, so only roundoff separates a
        # row from its solo run; near a minimum the point is fixed to about
        # sqrt(eps), the value to eps
        solo_values, solo_xs = tangent_newton(fgh, x0[None, :])
        assert abs(solo_values[0] - values[row]) <= 1e-14
        assert np.max(np.abs(solo_xs[0] - xs[row])) <= 1e-7


def with_signs(fgh, signs):
    """fgh with the objective of each row times signs[rows]."""

    def signed(xs, rows, values_only=False):
        out = fgh(xs, rows, values_only)
        if values_only:
            return signs[rows] * out
        return tuple(signs[rows].reshape((-1,) + (1,) * (part.ndim - 1)) * part
                     for part in out)

    return signed


@pytest.mark.parametrize("n", [2, 4, 8])
def test_rows_carry_their_own_objective(n):
    # one run minimizes x . A x from some starts and -x . A x from the
    # others: fgh reads each row's sign from the index of its start, in
    # the full calls and in the line search's values-only calls alike
    q, fg = rayleigh(n, 20 + n)
    signs = np.tile([1.0, -1.0], 5)
    fgh = with_signs(with_hessian(fg, n), signs)
    seen = set()

    def signed(xs, rows, values_only=False):
        seen.update(rows.tolist())
        return fgh(xs, rows, values_only)

    starts = np.random.default_rng(n).standard_normal((signs.size, n))
    values, xs = tangent_newton(signed, starts)
    np.testing.assert_allclose(values, np.where(signs > 0, 1.0, -3.0), rtol=0.0, atol=1e-14)
    top = np.where(signs > 0, q[:, 0][:, None], q[:, -1][:, None]).T
    np.testing.assert_allclose(np.abs(np.sum(xs * top, axis=1)), 1.0, rtol=0.0, atol=1e-7)
    assert seen == set(range(signs.size))


def flat_objective(calls):
    """Constant value with a nonzero tangent gradient, so that no step
    passes Armijo, as an fgh that records ("full" | "values", batch size)
    for each call."""

    def fgh(xs, rows, values_only=False):
        calls.append(("values" if values_only else "full", xs.shape[0]))
        if values_only:
            return np.zeros(xs.shape[0])
        grads = np.zeros_like(xs)
        grads[:, 0] = 1.0
        return np.zeros(xs.shape[0]), grads, np.zeros(xs.shape + xs.shape[1:])

    return fgh


def test_failed_line_search_costs_two_calls():
    x0 = np.full((1, 4), 0.5)
    calls = []
    values, ends = tangent_newton(flat_objective(calls), x0)
    # the start, alpha = 1, and every halving 2^-1 .. 2^-20 at once
    assert calls == [("full", 1), ("values", 1), ("values", sphere_opt._HALVINGS)]
    assert np.array_equal(ends, x0) and np.array_equal(values, [0.0])


def scalar_only_exp():
    # math.exp rejects arrays, so g, its finite-difference g' and the
    # second-difference h'' run elementwise through user_potential's
    # np.vectorize
    return user_potential("exp", lambda u: math.exp(u))


def survivor_problems(n, size, pot):
    """(fgh, starts) of each direction that polarization refines on a
    seeded random (n, size) code (not MAX where h(1) = +inf): its objective
    and its screened survivors."""
    rng = np.random.default_rng(100 * n + size)
    pts = rng.standard_normal((size, n))
    code = SphericalCode.from_points(pts / np.linalg.norm(pts, axis=1, keepdims=True))
    pot = parse_potential(pot) if isinstance(pot, str) else pot()
    mat, u = polarization._screen(code, pot, 0, None)
    for sgn in (1.0, -1.0) if pot.h_at_1 < math.inf else (1.0,):
        starts = mat[np.argsort(sgn * u)[:polarization._SURVIVORS]]
        yield polarization._fg(code.points, pot, np.full(len(starts), sgn)), starts


def row_by_row(fgh):
    """fgh one row at a time, so that no row's value, gradient or Hessian
    depends on the batch it is evaluated in."""

    def wrapped(xs, rows, values_only=False):
        parts = [fgh(x[None], rows[j:j + 1], values_only) for j, x in enumerate(xs)]
        if values_only:
            return np.concatenate(parts)
        return tuple(np.concatenate(column) for column in zip(*parts))

    return wrapped


CASES = [
    (3, 200, "cosh"), (5, 40, "riesz:m=1"), (8, 120, "monomial:k=1"),
    (6, 12, "pframe:p=4"), (4, 60, "pframe:p=1"), (5, 16, scalar_only_exp),
    (7, 30, "pframe:p=1.5"),
]
P_HALF_CASES = [(7, 30, "pframe:p=0.5"), (3, 12, "pframe:p=0.5")]


@pytest.mark.parametrize("n, size, pot", CASES + P_HALF_CASES)
def test_batched_rows_take_their_solo_steps(n, size, pot):
    """With an fgh that does not depend on batch shape, each row of a
    batched run takes the steps of its solo run, through the batched line
    search of _backtrack, and ends at the same point."""
    for fgh, starts in survivor_problems(n, size, pot):
        fgh = row_by_row(fgh)
        values, ends = tangent_newton(fgh, starts)
        for row, x0 in enumerate(starts):
            solo_values, solo_ends = tangent_newton(fgh, x0[None])
            assert solo_values[0] == values[row]
            np.testing.assert_array_equal(solo_ends[0], ends[row])


@pytest.mark.parametrize("n, size, pot", CASES)
def test_batched_rows_match_solo_runs(n, size, pot):
    """With the batched fgh, rows are evaluated in other batch shapes, which
    moves values by roundoff; the best value agrees to 1e-12.  The p = 0.5
    cases are left to the row-by-row test: at their cusps a roundoff change
    in fgh can send a row elsewhere."""
    for fgh, starts in survivor_problems(n, size, pot):
        values, _ = tangent_newton(fgh, starts)
        solo = [tangent_newton(fgh, x0[None])[0][0] for x0 in starts]
        best, reference = np.min(values), np.min(solo)
        assert abs(best - reference) <= 1e-12 * abs(reference)


def recording(fgh, calls):
    """fgh that appends (kind, rows) to calls for each call."""

    def wrapped(xs, rows, values_only=False):
        calls.append(("values" if values_only else "full", np.asarray(rows).tolist()))
        return fgh(xs, rows, values_only)

    return wrapped


def assert_same_as_reference(fgh, starts):
    """tangent_newton against the loop whose bookkeeping it trimmed: values
    and points bitwise the same, from the same fgh calls, in kind, batch
    and row order."""
    calls, reference_calls = [], []
    values, xs = tangent_newton(recording(fgh, calls), starts.copy())
    ref_values, ref_xs = reference_tangent_newton(
        recording(fgh, reference_calls), starts.copy())
    assert values.tobytes() == ref_values.tobytes()
    assert xs.tobytes() == ref_xs.tobytes()
    assert calls == reference_calls


def rayleigh_problems():
    """The Rayleigh fixtures above as (fgh, starts): starts around the
    minimizer, next to the maximum, and with a sign per row."""
    for n in (2, 3, 5, 8):
        q, fg = rayleigh(n, n)
        rng = np.random.default_rng(n)
        yield (with_hessian(fg, n),
               q[:, 0] + 0.3 * rng.standard_normal((8, n)))
        yield (with_hessian(fg, n),
               np.vstack([q[:, 0], q[:, -1] + 1e-3 * q[:, 0],
                          rng.standard_normal((6, n))]))
        yield (with_signs(with_hessian(fg, n), np.tile([1.0, -1.0], 5)),
               rng.standard_normal((10, n)))


@pytest.mark.parametrize("n, size, pot", CASES + P_HALF_CASES)
@pytest.mark.parametrize("batching", ["batched", "row_by_row"])
def test_same_as_reference_on_survivors(n, size, pot, batching):
    for fgh, starts in survivor_problems(n, size, pot):
        assert_same_as_reference(fgh if batching == "batched" else row_by_row(fgh),
                                 starts)


def test_same_as_reference_on_rayleigh_quotients():
    for fgh, starts in rayleigh_problems():
        assert_same_as_reference(fgh, starts)
        assert_same_as_reference(row_by_row(fgh), starts)


def test_same_as_reference_when_no_step_passes():
    # every row fails its line search on the first iteration
    for rows in (1, 3):
        assert_same_as_reference(flat_objective([]), np.full((rows, 4), 0.5))
