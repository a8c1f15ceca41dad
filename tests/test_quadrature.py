import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_gegenbauer

from kkpolar.errors import PreconditionError
from kkpolar.quadrature import (
    _jacobi_rule,
    largest_gauss_node,
    rule_alpha,
    rule_beta,
    verify_exactness,
)
from kkpolar.signed_measure import ADMISSIBILITY_MARGIN, rule_lambda

from helpers import gegenbauer


class TestRootFinding:
    """Rule nodes are the roots of the orthogonal polynomials: alpha nodes
    of the degree-(k+1) Gegenbauer polynomial for dimension n, beta interior
    nodes of the degree-k one for dimension n+2."""

    def test_quadratic(self):
        # degree-2 Gegenbauer polynomial for dimension 5 is (5t^2 - 1)/4
        interior = rule_beta(3, 2).nodes[1:-1]
        assert interior == pytest.approx([-1 / math.sqrt(5), 1 / math.sqrt(5)], abs=1e-13)

    def test_linear(self):
        assert rule_beta(4, 1).nodes[1] == 0.0

    def test_against_companion_matrix(self):
        p = gegenbauer(3, 3)
        oracle = sorted(np.roots(list(reversed(p.coef))).real)
        assert rule_alpha(3, 2).nodes == pytest.approx(oracle, abs=1e-12)

    def test_residual_small(self):
        p = gegenbauer(4, 7)
        scale = max(abs(c) for c in p.coef)
        for r in rule_alpha(4, 6).nodes:
            assert abs(p(r)) <= 1e-13 * scale

    def test_expected_count_enforced(self):
        # below the largest Gauss node fewer than k roots of the
        # signed-weight polynomial lie inside (-s, s); the engine refuses
        lo = largest_gauss_node(3, 2)
        for s in (lo - 0.01, 0.5 * lo):
            with pytest.raises(PreconditionError):
                _jacobi_rule("lambda", 3, 2, s)


def gegenbauer_roots(n, degree, shift=0):
    """Roots of the degree-`degree` Gegenbauer polynomial for dimension
    n + shift, from scipy."""
    return roots_gegenbauer(degree, (n + shift - 2) / 2.0)[0]


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 10), k=st.integers(1, 40),
       frac=st.floats(0.0, 1.0, exclude_min=True))
def test_rules_against_scipy_and_exactness(n, k, frac):
    alpha, beta = rule_alpha(n, k), rule_beta(n, k)
    assert alpha.nodes == pytest.approx(gegenbauer_roots(n, k + 1), abs=1e-12)
    assert beta.nodes[1:-1] == pytest.approx(gegenbauer_roots(n, k, 2), abs=1e-12)
    assert (beta.nodes[0], beta.nodes[-1]) == (-1.0, 1.0)

    lo, hi = largest_gauss_node(n, k), 1.0
    s = max(lo + frac * (hi - lo), lo + ADMISSIBILITY_MARGIN)
    lam = rule_lambda(n, k, s)
    assert (lam.nodes[0], lam.nodes[-1]) == (-s, s)
    assert np.all(np.abs(lam.nodes[1:-1]) < s)
    for rule in (alpha, beta, lam):
        assert len(rule.nodes) == len(rule.weights)
        assert np.all(np.diff(rule.nodes) > 0)
        assert min(rule.weights) > 0.0
        assert verify_exactness(rule, n, 2 * k + 1) <= 1e-11


class TestRuleAlpha:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_k1_closed_form(self, n):
        rule = rule_alpha(n, 1)
        root = 1.0 / math.sqrt(n)
        assert rule.nodes == pytest.approx([-root, root], abs=1e-12)
        assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_exact_on_t2(self):
        rule = rule_alpha(3, 1)
        value = sum(w * x**2 for x, w in zip(rule.nodes, rule.weights))
        assert value == pytest.approx(1.0 / 3.0, abs=1e-13)

    def test_exact_on_t4_n2_k2(self):
        rule = rule_alpha(2, 2)
        value = sum(w * x**4 for x, w in zip(rule.nodes, rule.weights))
        assert value == pytest.approx(3.0 / 8.0, abs=1e-13)

    def test_rejects_bad_args(self):
        with pytest.raises(PreconditionError):
            rule_alpha(1, 1)
        with pytest.raises(PreconditionError):
            rule_alpha(3, 0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_nodes_interior_and_symmetric(self, n, k):
        rule = rule_alpha(n, k)
        nodes = np.asarray(rule.nodes)
        assert len(nodes) == k + 1
        assert np.all(np.diff(nodes) > 0)
        assert np.all(np.abs(nodes) < 1.0)
        assert nodes == pytest.approx(-nodes[::-1], abs=1e-12)


class TestRuleBeta:
    @pytest.mark.parametrize("n", range(2, 11))
    def test_k1_closed_form(self, n):
        rule = rule_beta(n, 1)
        assert rule.nodes == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)
        assert rule.weights == pytest.approx(
            [1.0 / (2 * n), (n - 1) / n, 1.0 / (2 * n)], abs=1e-12)

    def test_exact_on_t2(self):
        rule = rule_beta(3, 1)
        value = sum(w * x**2 for x, w in zip(rule.nodes, rule.weights))
        assert value == pytest.approx(1.0 / 3.0, abs=1e-13)

    def test_interior_nodes_n4_k2(self):
        rule = rule_beta(4, 2)
        assert rule.nodes[1:3] == pytest.approx(
            [-1.0 / math.sqrt(6), 1.0 / math.sqrt(6)], abs=1e-12)

    def test_endpoints_present(self):
        rule = rule_beta(5, 4)
        assert rule.nodes[0] == -1.0
        assert rule.nodes[-1] == 1.0
        assert len(rule.nodes) == 6


class TestExactness:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_alpha_beta_through_2k_plus_1(self, n, k):
        assert verify_exactness(rule_alpha(n, k), n, 2 * k + 1) <= 1e-10
        assert verify_exactness(rule_beta(n, k), n, 2 * k + 1) <= 1e-10

    def test_exactness_ceiling(self):
        # the 2-node rule integrates t^4 as 1/9 while the true moment is 1/5
        rule = rule_alpha(3, 1)
        assert verify_exactness(rule, 3, 4) == pytest.approx(4.0 / 45.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_weights_positive_symmetric_normalized(self, n, k):
        for rule in (rule_alpha(n, k), rule_beta(n, k)):
            w = np.asarray(rule.weights)
            assert np.all(w > 0)
            assert w == pytest.approx(w[::-1], abs=1e-12)
            assert w.sum() == pytest.approx(1.0, abs=1e-12)


def test_largest_gauss_node_matches_rule():
    for n, k in [(2, 1), (3, 2), (5, 4)]:
        assert largest_gauss_node(n, k) == pytest.approx(rule_alpha(n, k).nodes[-1], abs=1e-14)
