import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import eval_gegenbauer

from kkpolar.errors import PreconditionError
from kkpolar.polynomials import (
    GegenbauerFamily,
    Polynomial,
    gegenbauer,
    integrate_mu,
    monomial_moment,
    substitute_t_squared,
)


def mu_integral_numeric(n, f):
    """Independent oracle: normalized quadrature of f(t)*(1-t^2)^((n-3)/2).

    Uses scipy's algebraic-weight quadrature so the n=2 endpoint
    singularity is handled exactly.
    """
    e = (n - 3) / 2.0
    num, _ = integrate.quad(f, -1.0, 1.0, weight="alg", wvar=(e, e), limit=200)
    den, _ = integrate.quad(lambda t: 1.0, -1.0, 1.0, weight="alg", wvar=(e, e))
    return num / den


def eval_naive(p, t):
    """Sum of monomials, an independent check on Horner evaluation."""
    return math.fsum(c * t**j for j, c in enumerate(p.coeffs))


class TestPolynomial:
    def test_trim_and_degree(self):
        p = Polynomial([1.0, 2.0, 0.0, 1e-16])
        assert p.degree == 1
        assert Polynomial([0.0, 0.0]).degree == -1
        assert Polynomial.zero().coeffs == ()

    def test_multiply(self):
        p = Polynomial([-1.0, 1.0]) * Polynomial([1.0, 1.0])
        assert p.coeffs == pytest.approx((-1.0, 0.0, 1.0))

    def test_eval_derivative(self):
        assert Polynomial.monomial(3).eval_derivative(2.0) == pytest.approx(12.0)
        assert Polynomial.monomial(3).eval_derivative(1.0, order=2) == pytest.approx(6.0)

    def test_horner_matches_naive(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            p = Polynomial(rng.standard_normal(13))
            t = rng.uniform(-1.0, 1.0)
            a, b = p(t), eval_naive(p, t)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)

    def test_vectorized_eval(self):
        p = Polynomial([1.0, 0.0, -2.0])
        t = np.array([0.0, 0.5, 1.0])
        assert p(t) == pytest.approx([1.0, 0.5, -1.0])

    def test_substitute_t_squared(self):
        # u -> 2u^2 + 3 becomes 2t^4 + 3
        p = substitute_t_squared(Polynomial([3.0, 0.0, 2.0]))
        assert p.coeffs == pytest.approx((3.0, 0.0, 0.0, 0.0, 2.0))


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
        assert integrate_mu(3, Polynomial.monomial(2)) == pytest.approx(1.0 / 3.0)
        assert integrate_mu(5, Polynomial.one()) == 1.0
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
            assert gegenbauer(n, 1).coeffs == pytest.approx((0.0, 1.0))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_degree_two_closed_form(self, n):
        p = gegenbauer(n, 2)
        assert p.coeffs == pytest.approx((-1.0 / (n - 1), 0.0, n / (n - 1.0)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_value_one_at_one(self, n):
        fam = GegenbauerFamily(n, 12)
        for ell in range(13):
            assert fam.eval(ell, 1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_orthogonality(self, n):
        fam = GegenbauerFamily(n, 10)
        for i in range(11):
            for j in range(i + 1, 11):
                ip = integrate_mu(n, fam.poly(i) * fam.poly(j))
                assert abs(ip) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_parity(self, n):
        for ell in range(11):
            p = gegenbauer(n, ell)
            for j, c in enumerate(p.coeffs):
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
        fam = GegenbauerFamily(n, 4)
        p = fam.poly(0).scale(2.0) + fam.poly(2).scale(0.3) + fam.poly(4).scale(1.7)
        assert integrate_mu(n, p) == pytest.approx(2.0, abs=1e-12)
