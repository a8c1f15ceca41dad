import math

import numpy as np
import pytest

from kkpolar.errors import PreconditionError
from kkpolar.interpolants import (
    InterpolationScheme,
    Side,
    build_H2k,
    build_H2k_s,
    build_H2k_tilde,
    hermite_confluent,
    verify_one_sided,
)
from kkpolar.polynomials import Polynomial, integrate_mu, substitute_t_squared
from kkpolar.potentials import (
    arcsine,
    gaussian_sym,
    monomial_2k,
    p_frame,
    riesz_sym,
)
from kkpolar.quadrature import rule_alpha, rule_beta
from kkpolar.signed_measure import admissible_range, build_context

from helpers import negate


def anchor(n, k, frac=0.6):
    lo, hi = admissible_range(n, k)
    return lo + frac * (hi - lo)


class TestHermiteConfluent:
    def test_tangent_line(self):
        # single double node: first-order Taylor polynomial
        a = 1.0 / 3.0
        scheme = InterpolationScheme(((a, 2),))
        g = hermite_confluent(scheme, [a * a], [2 * a])
        assert list(g.coeffs) == pytest.approx([-1.0 / 9.0, 2.0 / 3.0], abs=1e-14)

    def test_reproduces_low_degree_polynomial(self):
        rng = np.random.default_rng(3)
        target = Polynomial(rng.standard_normal(4))  # degree 3
        dtarget = target.derivative()
        scheme = InterpolationScheme(((0.1, 2), (0.6, 2)))
        got = hermite_confluent(
            scheme, [target(0.1), target(0.6)], [dtarget(0.1), dtarget(0.6)])
        assert list(got.coeffs) == pytest.approx(list(target.coeffs), abs=1e-11)

    def test_two_simple_nodes_on_square(self):
        # interpolating u^2 at u=0,1 gives u, which dominates u^2 inside [0,1]
        scheme = InterpolationScheme(((0.0, 1), (1.0, 1)))
        g = hermite_confluent(scheme, [0.0, 1.0], [None, None])
        assert list(g.coeffs) == pytest.approx([0.0, 1.0], abs=1e-15)
        us = np.linspace(0, 1, 101)
        assert np.all(g(us) - us**2 >= -1e-15)

    def test_duplicate_nodes_rejected(self):
        scheme = InterpolationScheme(((0.3, 2), (0.3, 1)))
        with pytest.raises(PreconditionError):
            hermite_confluent(scheme, [1.0, 1.0], [0.0, None])

    def test_missing_derivative_rejected(self):
        scheme = InterpolationScheme(((0.3, 2),))
        with pytest.raises(PreconditionError):
            hermite_confluent(scheme, [1.0], [None])


class TestBuildBelowInterior:
    def test_tangent_line_n3_pframe4(self):
        H = build_H2k(3, 1, p_frame(4))
        # in u this is (2/n) u - 1/n^2 at n=3
        assert list(H.coeffs) == pytest.approx([-1.0 / 9.0, 0.0, 2.0 / 3.0], abs=1e-13)

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 3), (5, 4)])
    def test_monomial_reproduced(self, n, k):
        H = build_H2k(n, k, monomial_2k(k))
        want = [0.0] * (2 * k) + [1.0]
        assert list(H.coeffs) == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("n,k,pot", [
        (3, 1, p_frame(4)), (3, 1, p_frame(3)), (4, 2, riesz_sym(2)),
        (2, 2, gaussian_sym()), (5, 3, arcsine()),
    ], ids=["pf4", "pf3", "riesz2", "cosh", "arcsine"])
    def test_below_everywhere(self, n, k, pot):
        H = build_H2k(n, k, pot)
        assert verify_one_sided(H, pot, Side.BELOW, (-1.0, 1.0), 5000) >= -1e-9

    @pytest.mark.parametrize("n,k,pot", [
        (3, 1, p_frame(4)), (4, 2, riesz_sym(2)), (2, 2, gaussian_sym()),
    ], ids=["pf4", "riesz2", "cosh"])
    def test_interpolation_residuals(self, n, k, pot):
        H = build_H2k(n, k, pot)
        Hp = H.derivative()
        for t in rule_alpha(n, k).nodes:
            hv = pot.eval_g(t * t)
            assert H(t) == pytest.approx(hv, rel=1e-9)
            if abs(t) > 1e-12:
                hp = 2.0 * t * pot.eval_g_prime(t * t)
                assert Hp(t) == pytest.approx(hp, rel=1e-9)

    def test_even_parity_exact(self):
        H = build_H2k(4, 3, riesz_sym(1))
        assert all(c == 0.0 for c in H.coeffs[1::2])

    def test_refuses_wrong_certificate(self):
        # g''' < 0 for the 3-frame potential
        with pytest.raises(PreconditionError):
            build_H2k(3, 2, p_frame(3))


class TestBuildBelowEndpoint:
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_negated_frame_k1(self, p):
        H = build_H2k_tilde(3, 1, negate(p_frame(p)))
        assert list(H.coeffs) == pytest.approx([0.0, 0.0, -1.0], abs=1e-13)

    @pytest.mark.parametrize("n,k", [(3, 1), (2, 2), (4, 3)])
    def test_monomial_reproduced(self, n, k):
        H = build_H2k_tilde(n, k, monomial_2k(k))
        want = [0.0] * (2 * k) + [1.0]
        assert list(H.coeffs) == pytest.approx(want, abs=1e-10)

    def test_pframe1_square(self):
        H = build_H2k_tilde(3, 1, p_frame(1))
        assert list(H.coeffs) == pytest.approx([0.0, 0.0, 1.0], abs=1e-14)
        assert verify_one_sided(H, p_frame(1), Side.BELOW, (-1.0, 1.0), 2000) >= -1e-12

    @pytest.mark.parametrize("n,k,pot", [
        (3, 2, p_frame(3)), (4, 1, p_frame(1.5)), (2, 3, p_frame(5)),
    ], ids=["pf3", "pf15", "pf5"])
    def test_below_everywhere(self, n, k, pot):
        H = build_H2k_tilde(n, k, pot)
        assert verify_one_sided(H, pot, Side.BELOW, (-1.0, 1.0), 5000) >= -1e-9

    def test_touches_endpoint_value(self):
        pot = p_frame(3)
        H = build_H2k_tilde(3, 2, pot)
        assert H(1.0) == pytest.approx(1.0, rel=1e-10)
        assert H(-1.0) == pytest.approx(1.0, rel=1e-10)

    def test_refuses_wrong_certificate(self):
        with pytest.raises(PreconditionError):
            build_H2k_tilde(3, 1, p_frame(4))  # g'' > 0, wrong side

    def test_refuses_infinite_endpoint(self):
        # negated riesz has a nonpositive certificate but h(1) = -inf
        with pytest.raises(PreconditionError):
            build_H2k_tilde(3, 2, negate(riesz_sym(2)))


class TestBuildAboveAnchored:
    @pytest.mark.parametrize("n,k", [(3, 1), (2, 2), (4, 2)])
    def test_monomial_reproduced(self, n, k):
        ctx = build_context(n, k, anchor(n, k))
        H = build_H2k_s(ctx, monomial_2k(k))
        want = [0.0] * (2 * k) + [1.0]
        assert list(H.coeffs) == pytest.approx(want, abs=1e-10)

    def test_riesz_above_on_grid(self):
        ctx = build_context(3, 1, 0.8)
        H = build_H2k_s(ctx, riesz_sym(2))
        assert verify_one_sided(H, riesz_sym(2), Side.ABOVE, (-0.8, 0.8), 10000) >= -1e-9

    @pytest.mark.parametrize("n,k,pot", [
        (3, 2, riesz_sym(1)), (4, 3, gaussian_sym()), (2, 2, arcsine()),
        (5, 1, p_frame(4)),
    ], ids=["riesz1", "cosh", "arcsine", "pf4"])
    def test_above_on_anchor_interval(self, n, k, pot):
        s = anchor(n, k, 0.5)
        H = build_H2k_s(build_context(n, k, s), pot)
        assert verify_one_sided(H, pot, Side.ABOVE, (-s, s), 5000) >= -1e-9

    def test_anchor_one_interpolates_endpoint_nodes(self):
        # at s=1 the anchored nodes coincide with the endpoint-augmented ones
        pot = gaussian_sym()
        H = build_H2k_s(build_context(3, 2, 1.0), pot)
        for t in rule_beta(3, 2).nodes:
            assert H(t) == pytest.approx(math.cosh(t), rel=1e-10)
        assert verify_one_sided(H, pot, Side.ABOVE, (-1.0, 1.0), 2000) >= -1e-9

    def test_refuses_wrong_certificate(self):
        ctx = build_context(3, 2, anchor(3, 2))
        with pytest.raises(PreconditionError):
            build_H2k_s(ctx, p_frame(3))  # g''' < 0


class TestVerifyOneSided:
    def test_margin_of_true_interpolant(self):
        H = build_H2k(3, 1, p_frame(4))
        assert verify_one_sided(H, p_frame(4), Side.BELOW, (-1.0, 1.0), 2000) >= -1e-12

    def test_exact_polynomial_zero_margin(self):
        pot = monomial_2k(1)
        p = Polynomial((0.0, 0.0, 1.0))
        assert verify_one_sided(p, pot, Side.BELOW, (-1.0, 1.0), 1500) == 0.0
        assert verify_one_sided(p, pot, Side.ABOVE, (-1.0, 1.0), 1500) == 0.0

    def test_shifted_violation_detected(self):
        H = build_H2k(3, 1, p_frame(4)) + Polynomial((0.01,))
        margin = verify_one_sided(H, p_frame(4), Side.BELOW, (-1.0, 1.0), 2000)
        assert margin == pytest.approx(-0.01, abs=1e-4)
        assert margin < -1e-9

    def test_small_grid_rejected(self):
        with pytest.raises(PreconditionError):
            verify_one_sided(Polynomial.one(), p_frame(2), Side.BELOW, (-1, 1), 500)


class TestLinearProgramOptimality:
    """The interpolants beat every feasible polynomial of the same degree."""

    @pytest.mark.parametrize("n,k,pot,h_vec", [
        (3, 1, p_frame(3), lambda t: np.abs(t) ** 3),
        (4, 2, gaussian_sym(), np.cosh),
        (2, 2, riesz_sym(2), lambda t: 1.0 / (2.0 - 2.0 * t) + 1.0 / (2.0 + 2.0 * t)),
    ], ids=["pf3", "cosh", "riesz2"])
    def test_below_side_maximizes_mean(self, n, k, pot, h_vec):
        H = build_H2k(n, k, pot)
        best = integrate_mu(n, H)
        ts = np.linspace(-1.0, 1.0, 1_000_001)
        with np.errstate(divide="ignore"):
            hv = h_vec(ts)
        rng = np.random.default_rng(11)
        for _ in range(100):
            q = substitute_t_squared(Polynomial(rng.standard_normal(k + 1)))
            shift = float(np.max(q(ts) - hv))
            feasible = q - Polynomial((shift,))
            assert integrate_mu(n, feasible) <= best + 1e-9

    @pytest.mark.parametrize("n,k,pot,h_vec", [
        (3, 1, riesz_sym(2), lambda t: 1.0 / (2.0 - 2.0 * t) + 1.0 / (2.0 + 2.0 * t)),
        (4, 2, gaussian_sym(), np.cosh),
    ], ids=["riesz2", "cosh"])
    def test_above_side_minimizes_mean(self, n, k, pot, h_vec):
        s = anchor(n, k, 0.5)
        H = build_H2k_s(build_context(n, k, s), pot)
        best = integrate_mu(n, H)
        ts = np.linspace(-s, s, 1_000_001)
        hv = h_vec(ts)
        rng = np.random.default_rng(12)
        for _ in range(100):
            q = substitute_t_squared(Polynomial(rng.standard_normal(k + 1)))
            lift = float(np.max(hv - q(ts)))
            feasible = q + Polynomial((lift,))
            assert integrate_mu(n, feasible) >= best - 1e-9
