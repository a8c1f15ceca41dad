import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy import integrate
from scipy.special import eval_gegenbauer

from kkpolar.errors import PreconditionError
from kkpolar.polynomials import NewtonForm, _newton_coefficients, monomial_moment

from helpers import (derivative, even_in_t, expand_t, gegenbauer, integrate_mu,
                     monomial, reference_divided_difference)


def mu_integral_numeric(n, f):
    """Independent oracle: normalized quadrature of f(t)*(1-t^2)^((n-3)/2).

    Uses scipy's algebraic-weight quadrature so the n=2 endpoint
    singularity is handled exactly.
    """
    e = (n - 3) / 2.0
    num, _ = integrate.quad(f, -1.0, 1.0, weight="alg", wvar=(e, e), limit=200)
    den, _ = integrate.quad(lambda t: 1.0, -1.0, 1.0, weight="alg", wvar=(e, e))
    return num / den


class TestMonomialHelpers:
    def test_derivative(self):
        assert derivative(monomial(3))(2.0) == pytest.approx(12.0)
        assert derivative(monomial(3), order=2)(1.0) == pytest.approx(6.0)

    def test_even_in_t_trims(self):
        # trailing coefficients of at most TRIM_TOL drop, as the
        # coefficient-list comparisons of the tests expect
        assert list(even_in_t(Polynomial([1.0, 2.0, 1e-16])).coef) == [1.0, 0.0, 2.0]
        assert list(even_in_t(Polynomial([0.0, 0.0])).coef) == [0.0]

    def test_expand_t_of_the_newton_basis(self):
        # the last Newton basis function (u - z_0)...(u - z_m-2) expands
        # to the monic polynomial with those roots, in u = t*t
        rng = np.random.default_rng(11)
        for m in range(2, 7):
            z = tuple(np.sort(rng.uniform(0.0, 1.0, m)))
            form = NewtonForm(z, (0.0,) * (m - 1) + (1.0,))
            expected = even_in_t(Polynomial.fromroots(z[:-1]))
            assert expand_t(form).coef == pytest.approx(expected.coef,
                                                        rel=1e-12, abs=1e-14)


class TestMoments:
    def test_known_values(self):
        assert monomial_moment(3, 2) == pytest.approx(1.0 / 3.0)
        assert monomial_moment(3, 4) == pytest.approx(1.0 / 5.0)
        assert monomial_moment(5, 3) == 0.0
        assert monomial_moment(2, 0) == 1.0

    def test_rejects_bad_dimension(self):
        with pytest.raises(PreconditionError):
            monomial_moment(1, 2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("ell", [0, 2, 4, 6, 8])
    def test_against_numeric_quadrature(self, n, ell):
        oracle = mu_integral_numeric(n, lambda t: t**ell)
        assert monomial_moment(n, ell) == pytest.approx(oracle, rel=1e-10)

    def test_integrate_mu_examples(self):
        assert integrate_mu(3, monomial(2)) == pytest.approx(1.0 / 3.0)
        assert integrate_mu(5, Polynomial([1.0])) == 1.0
        assert integrate_mu(4, Polynomial([0.0, 7.0, 0.0, 1.0])) == 0.0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_integrate_mu_random_even_polys(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            coeffs = np.zeros(13)
            coeffs[::2] = rng.standard_normal(7)
            p = Polynomial(coeffs)
            oracle = mu_integral_numeric(n, p)
            assert integrate_mu(n, p) == pytest.approx(oracle, rel=1e-8, abs=1e-12)


class TestGegenbauer:
    def test_degree_one_is_t(self):
        for n in (2, 3, 7):
            assert list(gegenbauer(n, 1).coef) == pytest.approx([0.0, 1.0])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_degree_two_closed_form(self, n):
        p = gegenbauer(n, 2)
        assert list(p.coef) == pytest.approx([-1.0 / (n - 1), 0.0, n / (n - 1.0)])

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_value_one_at_one(self, n):
        for ell in range(13):
            assert gegenbauer(n, ell)(1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_orthogonality(self, n):
        for i in range(11):
            for j in range(i + 1, 11):
                ip = integrate_mu(n, gegenbauer(n, i) * gegenbauer(n, j))
                assert abs(ip) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_parity(self, n):
        for ell in range(11):
            p = gegenbauer(n, ell)
            for j, c in enumerate(p.coef):
                if (j - ell) % 2 == 1:
                    assert abs(c) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_against_scipy(self, n):
        # scipy's ultraspherical family with parameter (n-2)/2, renormalized
        # to equal 1 at t = 1, must coincide with ours pointwise.
        lam = (n - 2) / 2.0
        ts = np.linspace(-1, 1, 41)
        for ell in range(9):
            scale = eval_gegenbauer(ell, lam, 1.0)
            expected = eval_gegenbauer(ell, lam, ts) / scale
            assert gegenbauer(n, ell)(ts) == pytest.approx(expected, abs=1e-10)

    def test_n2_is_chebyshev(self):
        ts = np.linspace(-1, 1, 41)
        for ell in range(9):
            expected = np.cos(ell * np.arccos(ts))
            assert gegenbauer(2, ell)(ts) == pytest.approx(expected, abs=1e-10)

    def test_zeroth_gegenbauer_coefficient(self):
        # integrate_mu picks out the constant coefficient of a Gegenbauer
        # expansion: check on 2*P_0 + 0.3*P_2 + 1.7*P_4.
        n = 4
        p = (2.0 * gegenbauer(n, 0) + 0.3 * gegenbauer(n, 2)
             + 1.7 * gegenbauer(n, 4))
        assert integrate_mu(n, p) == pytest.approx(2.0, abs=1e-12)


class TestNewtonCoefficients:
    """The one divided-difference tableau, shared by the interpolants and
    the sampled sign certificate."""

    @pytest.mark.parametrize("seed", range(20))
    def test_bitwise_equal_to_the_in_place_loop(self, seed):
        # every coefficient is the top divided difference of a prefix of
        # the nodes, by the same operations in the same order
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 16))
        xs = list(np.sort(rng.uniform(0.0, 1.0, m)))
        if seed % 2:
            xs = list(rng.permutation(xs))
        values = [math.cosh(x) + float(rng.standard_normal()) for x in xs]
        newton = _newton_coefficients(xs, values)
        assert len(newton) == m
        for j in range(m):
            assert newton[j] == reference_divided_difference(
                values[:j + 1], xs[:j + 1])

    def test_confluent_pair_takes_the_slope(self):
        # g(u) = u^2 at the double node 0.5 and the simple node 1:
        # g[0.5] = 0.25, g[0.5, 0.5] = g'(0.5) = 1, g[0.5, 0.5, 1] = 1
        newton = _newton_coefficients([0.5, 0.5, 1.0], [0.25, 0.25, 1.0],
                                      [1.0, 1.0, None])
        assert newton == [0.25, 1.0, 1.0]


class TestNewtonForm:
    """H(t) = p(t^2) with p in Newton form: Horner in u, against its
    expansion in t by the test helper."""

    def test_expand_t_doubles_the_index(self):
        # u -> 2u^2 + 3, in Newton form at the nodes 0, 0, 1:
        # 3 + 0 (u - 0) + 2 (u - 0)(u - 0), becomes 2t^4 + 3
        form = NewtonForm((0.0, 0.0, 1.0), (3.0, 0.0, 2.0))
        assert list(expand_t(form).coef) == pytest.approx([3.0, 0.0, 0.0, 0.0, 2.0])

    def test_horner_matches_expansion(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(1, 8))
            form = NewtonForm(tuple(np.sort(rng.uniform(0.0, 1.0, m))),
                              tuple(rng.standard_normal(m)))
            ts = rng.uniform(-1.0, 1.0, 9)
            assert form(ts) == pytest.approx(expand_t(form)(ts),
                                             rel=1e-12, abs=1e-12)
            assert form.at_u(ts * ts) == pytest.approx(form(ts), rel=0, abs=0)

    def test_horner_matches_naive_newton_sum(self):
        # the sum of c_j (u - z_0)...(u - z_j-1) term by term, an
        # independent check on Horner in the Newton basis
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = int(rng.integers(1, 13))
            form = NewtonForm(tuple(rng.uniform(0.0, 1.0, m)),
                              tuple(rng.standard_normal(m)))
            u = float(rng.uniform(0.0, 1.0))
            naive = math.fsum(
                c * math.prod(u - z for z in form.u_nodes[:j])
                for j, c in enumerate(form.divided_differences))
            assert form.at_u(u) == pytest.approx(naive, rel=1e-12, abs=1e-12)

    def test_vectorized_eval(self):
        # an array of any shape evaluates entry by entry, bitwise as scalars
        form = NewtonForm((0.1, 0.4, 0.4, 0.9), (1.0, -0.5, 2.0, 0.25))
        ts = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        values = form(ts)
        assert values.shape == ts.shape
        assert values.ravel().tolist() == [form(float(t)) for t in ts.ravel()]

    def test_scalar_and_array_evaluation(self):
        form = NewtonForm((0.25, 0.25, 1.0), (1.0, -2.0, 0.5))
        value = form(0.5)
        assert type(value) is float
        assert form(np.array([0.5, -0.5])).tolist() == [value, value]
        assert type(form.at_u(0.25)) is float

    def test_compares_by_value(self):
        assert NewtonForm((0.0, 1.0), (2.0, 3.0)) == NewtonForm((0.0, 1.0), (2.0, 3.0))
        assert NewtonForm((0.0, 1.0), (2.0, 3.0)) != NewtonForm((0.0, 1.0), (2.0, 3.5))
