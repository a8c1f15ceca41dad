import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from scipy import integrate

from kkpolar.cli import _jsonable
from kkpolar.errors import PreconditionError
from kkpolar.potentials import gaussian_sym
from kkpolar.quadrature import largest_gauss_node, rule_beta, verify_exactness
from kkpolar.signed_measure import ADMISSIBILITY_MARGIN, rule_lambda

from helpers import build_H2k_s, gegenbauer, integrate_mu, monomial

_T_SQUARED = Polynomial([0.0, 0.0, 1.0])


def signed_inner_product(n, s, p, q):
    """Oracle: integral of p*q*(s^2 - t^2) against the axis-projection
    measure, assembled from closed-form moments."""
    pq = p * q
    return s * s * integrate_mu(n, pq) - integrate_mu(n, pq * _T_SQUARED)


def signed_orthogonal_polys(n, k, s):
    """Oracle: monic orthogonal polynomials of degrees 0..k for the signed
    weight and their squared norms, by Gram-Schmidt on the monomials with
    a second projection pass."""
    polys, norms = [], []
    for j in range(k + 1):
        q = monomial(j)
        for _ in range(2):
            for prev, nrm in zip(polys, norms):
                q = q - prev * (signed_inner_product(n, s, q, prev) / nrm)
        polys.append(q)
        norms.append(signed_inner_product(n, s, q, q))
    return polys, norms


def signed_inner_numeric(n, s, p, q):
    """Numeric oracle for the signed inner product."""
    e = (n - 3) / 2.0

    def f(t):
        return p(t) * q(t) * (s * s - t * t)

    num, _ = integrate.quad(f, -1, 1, weight="alg", wvar=(e, e), limit=200)
    den, _ = integrate.quad(lambda t: 1.0, -1, 1, weight="alg", wvar=(e, e))
    return num / den


def mid_anchor(n, k, frac=0.6):
    lo, hi = largest_gauss_node(n, k), 1.0
    return lo + frac * (hi - lo)


def lambda_rule(n, k, s):
    return rule_lambda(n, k, s)


class TestInnerProduct:
    @pytest.mark.parametrize("n,s", [(2, 0.9), (3, 0.8), (4, 0.95), (7, 0.7)])
    def test_matches_numeric_oracle(self, n, s):
        p = Polynomial([0.5, -1.0, 2.0])
        q = Polynomial([0.0, 1.0, 0.0, 3.0])
        got = signed_inner_product(n, s, p, q)
        assert got == pytest.approx(signed_inner_numeric(n, s, p, q), abs=1e-10)

    def test_constants_n3(self):
        one = Polynomial([1.0])
        assert signed_inner_product(3, 1.0, one, one) == pytest.approx(2 / 3, abs=1e-14)

    def test_odd_integrand_vanishes(self):
        assert signed_inner_product(5, 0.77, Polynomial([1.0]), Polynomial([0.0, 1.0])) == 0.0

    def test_t_with_t_n3(self):
        t = Polynomial([0.0, 1.0])
        assert signed_inner_product(3, 1.0, t, t) == pytest.approx(2 / 15, abs=1e-14)

    def test_constant_norm_closed_form(self):
        # <1,1> = s^2 - 1/n
        one = Polynomial([1.0])
        assert signed_inner_product(5, 0.9, one, one) == pytest.approx(
            0.81 - 0.2, abs=1e-14)


class TestBuildContext:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_orthogonality_and_positive_norms(self, n, k):
        # cross-check against Gram-Schmidt: at an admissible anchor the
        # signed form is positive definite below degree k, and the interior
        # nodes are the roots of the monic degree-k orthogonal polynomial
        s = mid_anchor(n, k)
        polys, norms = signed_orthogonal_polys(n, k, s)
        assert all(nrm > 0.0 for nrm in norms[:k])
        for i in range(k + 1):
            for j in range(i + 1, k + 1):
                assert abs(signed_inner_product(n, s, polys[i], polys[j])) <= 1e-10
        interior = lambda_rule(n, k, s).nodes[1:-1]
        assert len(interior) == k
        assert max(abs(polys[k](x)) for x in interior) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_parity(self, n, k):
        # the signed weight is even, so its orthogonal polynomials have
        # parity k and the rule is symmetric, with a node at 0 for odd k
        rule = lambda_rule(n, k, mid_anchor(n, k, 0.35))
        assert rule.nodes == tuple(-x for x in reversed(rule.nodes))
        assert rule.weights == tuple(reversed(rule.weights))
        assert (0.0 in rule.nodes) == (k % 2 == 1)

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_degree_one_is_identity(self, n):
        # pi_1 = t, so the one interior node of the k = 1 rule is 0
        rule = lambda_rule(n, 1, mid_anchor(n, 1, 0.5))
        assert rule.nodes[1] == 0.0

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 1), (3, 3), (5, 2)])
    def test_anchor_one_gives_shifted_dimension_gegenbauer(self, n, k):
        ref = gegenbauer(n + 2, k)
        interior = lambda_rule(n, k, 1.0).nodes[1:-1]
        assert max(abs(ref(x)) for x in interior) <= 1e-12 * max(abs(c) for c in ref.coef)

    def test_n3_k2_example(self):
        # top polynomial at s=1 has the roots of 5t^2 - 1
        rule = lambda_rule(3, 2, 1.0)
        assert rule.nodes[1:3] == pytest.approx([-1 / np.sqrt(5), 1 / np.sqrt(5)], abs=1e-14)

    @pytest.mark.parametrize("n,k", [(2, 1), (2, 4), (3, 2), (4, 3), (5, 5)])
    def test_positive_definite_below_top_degree(self, n, k):
        # random polynomials of degree <= k-1 all have positive signed norm
        rng = np.random.default_rng(7)
        for frac in (0.2, 0.6, 1.0):
            s = mid_anchor(n, k, frac)
            for _ in range(200):
                q = Polynomial(rng.standard_normal(k))
                assert signed_inner_product(n, s, q, q) > 0.0

    def test_inadmissible_anchor_rejected(self):
        lo = largest_gauss_node(3, 2)
        with pytest.raises(PreconditionError):
            rule_lambda(3, 2, lo - 0.01)
        with pytest.raises(PreconditionError):
            rule_lambda(3, 2, lo)  # boundary itself is excluded
        with pytest.raises(PreconditionError):
            rule_lambda(3, 2, 1.001)

    def test_bad_dimension_rejected(self):
        with pytest.raises(PreconditionError):
            rule_lambda(1, 1, 0.9)


class TestRuleLambda:
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("s", [0.7, 0.85, 1.0])
    def test_k1_closed_form(self, n, s):
        if s <= largest_gauss_node(n, 1):
            pytest.skip("anchor below threshold for this n")
        rule = lambda_rule(n, 1, s)
        assert rule.nodes == pytest.approx([-s, 0.0, s], abs=1e-12)
        w_end = 1.0 / (2 * n * s * s)
        assert rule.weights == pytest.approx([w_end, 1.0 - 2 * w_end, w_end], abs=1e-12)

    def test_exact_on_t2_example(self):
        rule = lambda_rule(3, 1, 0.8)
        value = sum(w * x**2 for x, w in zip(rule.nodes, rule.weights))
        assert value == pytest.approx(1.0 / 3.0, abs=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_anchor_one_reproduces_endpoint_rule(self, n, k):
        lam = lambda_rule(n, k, 1.0)
        bet = rule_beta(n, k)
        assert lam.nodes == pytest.approx(bet.nodes, abs=1e-10)
        assert lam.weights == pytest.approx(bet.weights, abs=1e-10)
        assert lam.kind == "lambda"
        assert lam.s == 1.0

    def test_anchor_within_tolerance_above_one_is_one(self):
        # anchors up to 1 + 1e-12 are admitted; the rule keeps its nodes
        # in [-1, 1] and the anchored interpolant is the one at s = 1
        s = 1.0000000000009
        rule = lambda_rule(3, 1, s)
        assert rule == lambda_rule(3, 1, 1.0)
        assert max(abs(x) for x in rule.nodes) == 1.0
        pot = gaussian_sym()
        assert build_H2k_s(3, 1, s, pot) == build_H2k_s(3, 1, 1.0, pot)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("anchor", ["near", 0.9, 1.0])
    def test_exact_through_2k_plus_1(self, n, k, anchor):
        lo = largest_gauss_node(n, k)
        s = min(lo + 0.05, 1.0) if anchor == "near" else anchor
        if s <= lo:
            pytest.skip("anchor below threshold")
        rule = lambda_rule(n, k, s)
        assert verify_exactness(rule, n, 2 * k + 1) <= 1e-9

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_interior_nodes_strictly_inside_anchor(self, n, k):
        s = mid_anchor(n, k, 0.5)
        rule = lambda_rule(n, k, s)
        interior = np.asarray(rule.nodes[1:-1])
        assert len(interior) == k
        assert np.all(np.abs(interior) < s - 1e-12)
        assert np.all(np.diff(rule.nodes) > 0)

    def test_weights_positive_and_normalized(self):
        rule = lambda_rule(4, 3, mid_anchor(4, 3, 0.4))
        w = np.asarray(rule.weights)
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_document_carries_anchor(self):
        s = mid_anchor(3, 2)
        d = _jsonable(lambda_rule(3, 2, s))
        assert d["kind"] == "lambda"
        assert d["s"] == pytest.approx(s)


class TestAnchorVerdict:
    """rule_lambda admits most anchors by the Sturm sequence alone; its
    verdict and its refusal message must still be those of the direct
    comparison with the top Gauss node, at the edges of the range too."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 10), k=st.integers(1, 40), data=st.data())
    def test_accepts_exactly_the_admissible_range(self, n, k, data):
        lo = largest_gauss_node(n, k)
        s = data.draw(st.one_of(
            # lo + j * margin for j = -3, -2.75, ..., 3
            st.integers(-12, 12).map(lambda i: lo + i / 4 * ADMISSIBILITY_MARGIN),
            st.floats(lo, 1.0, exclude_min=True),
            st.floats(1.0, 1.0 + 1e-11, exclude_min=True),
            st.sampled_from([math.nan, math.inf, -math.inf])))
        if lo + ADMISSIBILITY_MARGIN <= s <= 1 + 1e-12:
            assert rule_lambda(n, k, s).s == min(s, 1.0)
        else:
            with pytest.raises(PreconditionError) as err:
                rule_lambda(n, k, s)
            assert str(err.value) == (
                f"anchor s={s} outside admissible range ({lo:.12g}, 1.0] "
                f"for n={n}, k={k}")
