import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkpolar.errors import NumericalDegeneracyError, PreconditionError
from kkpolar.interpolants import Side, _interpolate, verify_one_sided
from kkpolar.polarization import (_MARGIN_GRID, lower_bound, upper_bound_finite,
                                  upper_bound_s)
from kkpolar.polynomials import NewtonForm, Polynomial, _newton_coefficients
from kkpolar.potentials import (
    SignState,
    arcsine,
    certify_sign,
    eval_h,
    gaussian_sym,
    monomial_2k,
    p_frame,
    riesz_sym,
    user_potential,
)
from kkpolar.quadrature import largest_gauss_node, rule_alpha, rule_beta
from kkpolar.signed_measure import rule_lambda

from helpers import (build_H2k, build_H2k_s, build_H2k_tilde, derivative,
                     even_in_t, integrate_mu, interpolate, negate,
                     reference_margin)


def anchor(n, k, frac=0.6):
    lo, hi = largest_gauss_node(n, k), 1.0
    return lo + frac * (hi - lo)


class TestHermiteConfluent:
    """The confluent Newton tableau of _interpolate, driven by rules whose
    nodes fix the conditions."""

    def test_tangent_line(self):
        # the alpha rule for n = 5, k = 1 has one double node at u = 1/5:
        # the tangent line 2u/5 - 1/25 to g(u) = u^2
        H = interpolate(rule_alpha(5, 1), p_frame(4), Side.BELOW)
        assert list(H.expand_t().coeffs) == pytest.approx(
            [-1.0 / 25.0, 0.0, 2.0 / 5.0], abs=1e-14)

    def test_reproduces_low_degree_polynomial(self):
        # two double nodes in u (the alpha rule for k = 3) fix a cubic in u
        rng = np.random.default_rng(3)
        target = Polynomial(rng.standard_normal(4))
        dtarget = derivative(target)
        pot = user_potential("cubic", target, dtarget, h_at_1=target(1.0))
        H = _interpolate(rule_alpha(3, 3), pot, Side.BELOW, SignState.ZERO)
        want = even_in_t(target)
        assert list(H.expand_t().coeffs) == pytest.approx(list(want.coeffs),
                                                          abs=1e-11)

    def test_two_simple_nodes_on_square(self):
        # the beta rule for k = 1 puts simple nodes at u = 0 and u = 1:
        # interpolating u^2 there gives u, which dominates u^2 inside [0,1]
        H = interpolate(rule_beta(3, 1), p_frame(4), Side.ABOVE)
        assert list(H.expand_t().coeffs) == pytest.approx([0.0, 0.0, 1.0],
                                                          abs=1e-15)
        ts = np.linspace(-1, 1, 201)
        assert np.all(H(ts) - ts**4 >= -1e-15)


class TestBuildBelowInterior:
    def test_tangent_line_n3_pframe4(self):
        H = build_H2k(3, 1, p_frame(4))
        # in u this is (2/n) u - 1/n^2 at n=3
        assert list(H.expand_t().coeffs) == pytest.approx(
            [-1.0 / 9.0, 0.0, 2.0 / 3.0], abs=1e-13)

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 3), (5, 4)])
    def test_monomial_reproduced(self, n, k):
        H = build_H2k(n, k, monomial_2k(k))
        want = [0.0] * (2 * k) + [1.0]
        assert list(H.expand_t().coeffs) == pytest.approx(want, abs=1e-10)

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
        Hp = derivative(H.expand_t())
        for t in rule_alpha(n, k).nodes:
            hv = pot.eval_g(t * t)
            assert H(t) == pytest.approx(hv, rel=1e-9)
            if abs(t) > 1e-12:
                hp = 2.0 * t * pot.eval_g_prime(t * t)
                assert Hp(t) == pytest.approx(hp, rel=1e-9)

    def test_even_parity_exact(self):
        H = build_H2k(4, 3, riesz_sym(1))
        assert all(c == 0.0 for c in H.expand_t().coeffs[1::2])

    def test_refuses_wrong_certificate(self):
        # g''' < 0 for the 3-frame potential
        with pytest.raises(PreconditionError):
            build_H2k(3, 2, p_frame(3))


class TestBuildBelowEndpoint:
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_negated_frame_k1(self, p):
        H = build_H2k_tilde(3, 1, negate(p_frame(p)))
        assert list(H.expand_t().coeffs) == pytest.approx([0.0, 0.0, -1.0], abs=1e-13)

    @pytest.mark.parametrize("n,k", [(3, 1), (2, 2), (4, 3)])
    def test_monomial_reproduced(self, n, k):
        H = build_H2k_tilde(n, k, monomial_2k(k))
        want = [0.0] * (2 * k) + [1.0]
        assert list(H.expand_t().coeffs) == pytest.approx(want, abs=1e-10)

    def test_pframe1_square(self):
        H = build_H2k_tilde(3, 1, p_frame(1))
        assert list(H.expand_t().coeffs) == pytest.approx([0.0, 0.0, 1.0], abs=1e-14)
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
        H = build_H2k_s(n, k, anchor(n, k), monomial_2k(k))
        want = [0.0] * (2 * k) + [1.0]
        assert list(H.expand_t().coeffs) == pytest.approx(want, abs=1e-10)

    def test_riesz_above_on_grid(self):
        H = build_H2k_s(3, 1, 0.8, riesz_sym(2))
        assert verify_one_sided(H, riesz_sym(2), Side.ABOVE, (-0.8, 0.8), 10000) >= -1e-9

    @pytest.mark.parametrize("n,k,pot", [
        (3, 2, riesz_sym(1)), (4, 3, gaussian_sym()), (2, 2, arcsine()),
        (5, 1, p_frame(4)),
    ], ids=["riesz1", "cosh", "arcsine", "pf4"])
    def test_above_on_anchor_interval(self, n, k, pot):
        s = anchor(n, k, 0.5)
        H = build_H2k_s(n, k, s, pot)
        assert verify_one_sided(H, pot, Side.ABOVE, (-s, s), 5000) >= -1e-9

    def test_anchor_one_interpolates_endpoint_nodes(self):
        # at s=1 the anchored nodes coincide with the endpoint-augmented ones
        pot = gaussian_sym()
        H = build_H2k_s(3, 2, 1.0, pot)
        for t in rule_beta(3, 2).nodes:
            assert H(t) == pytest.approx(math.cosh(t), rel=1e-10)
        assert verify_one_sided(H, pot, Side.ABOVE, (-1.0, 1.0), 2000) >= -1e-9

    def test_refuses_wrong_certificate(self):
        s = anchor(3, 2)
        with pytest.raises(PreconditionError, match="certificate"):
            build_H2k_s(3, 2, s, p_frame(3))  # g''' < 0


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
        H = build_H2k(3, 1, p_frame(4))
        margin = verify_one_sided(lambda t: H(t) + 0.01, p_frame(4), Side.BELOW,
                                  (-1.0, 1.0), 2000)
        assert margin == pytest.approx(-0.01, abs=1e-4)
        assert margin < -1e-9

    def test_small_grid_rejected(self):
        with pytest.raises(PreconditionError):
            verify_one_sided(Polynomial.one(), p_frame(2), Side.BELOW, (-1, 1), 500)

    def test_nan_everywhere_raises(self):
        pot = user_potential("nan", lambda u: math.nan, h_at_1=1.0)
        with pytest.raises(NumericalDegeneracyError,
                           match=r"one-sided margin check.* t=-1\.0$"):
            verify_one_sided(Polynomial.one(), pot, Side.BELOW, (-1.0, 1.0), 2001)

    @pytest.mark.parametrize("g", [
        lambda u: math.nan if 0.04 < u < 0.36 else u,
        lambda u: np.where((u > 0.04) & (u < 0.36), np.nan, u),
    ], ids=["scalar_only", "array"])
    def test_nan_band_raises(self, g):
        # h = t^2 except on 0.2 < |t| < 0.6, where it is NaN
        pot = user_potential("band", g, h_at_1=1.0)
        ts = np.linspace(-1.0, 1.0, 2001)
        first = float(ts[(ts * ts > 0.04) & (ts * ts < 0.36)][0])
        with pytest.raises(NumericalDegeneracyError) as info:
            verify_one_sided(Polynomial.one(), pot, Side.BELOW, (-1.0, 1.0), 2001)
        assert "one-sided margin check" in str(info.value)
        assert str(info.value).endswith(f"t={first!r}")


def _bound_reports(n, k, pot):
    """Every bound whose preconditions hold for (n, k, pot), with the side
    and interval its interpolant is checked on."""
    s = anchor(n, k)
    calls = [
        (lambda: lower_bound(n, k, 50, pot), Side.BELOW, (-1.0, 1.0)),
        (lambda: upper_bound_finite(n, k, 50, pot), Side.ABOVE, (-1.0, 1.0)),
        (lambda: upper_bound_s(n, k, 50, s, pot), Side.ABOVE, (-s, s)),
    ]
    for call, side, interval in calls:
        try:
            yield call(), side, interval
        except PreconditionError:
            continue


def _margin_tolerance(pot, interval):
    hv = eval_h(pot, np.linspace(*interval, _MARGIN_GRID))
    return 1e-15 * max(1.0, float(np.max(np.abs(hv[np.isfinite(hv)]))))


class TestMarginMatchesScalarLoop:
    """verify_one_sided evaluates h on the whole grid at once; it agrees
    with the scalar loop it replaced to within ulps of h."""

    @pytest.mark.parametrize("pot,kinds", [
        (riesz_sym(1.5), {"ULB_ALPHA", "UUB_LAMBDA"}),
        (p_frame(3.0), {"ULB_ALPHA", "ULB_BETA", "UUB_BETA", "UUB_LAMBDA"}),
        (gaussian_sym(), {"ULB_ALPHA", "UUB_BETA", "UUB_LAMBDA"}),
        (arcsine(), {"ULB_ALPHA", "UUB_LAMBDA"}),
        (monomial_2k(3), {"ULB_ALPHA", "UUB_BETA", "UUB_LAMBDA"}),
    ], ids=["riesz", "pframe3", "cosh", "arcsine", "monomial3"])
    def test_builtin_families(self, pot, kinds):
        seen = set()
        for n in range(3, 9):
            for k in range(1, 11):
                for report, side, interval in _bound_reports(n, k, pot):
                    want = reference_margin(report.interpolant, pot, side,
                                            interval, _MARGIN_GRID)
                    assert abs(report.one_sided_margin - want) <= \
                        _margin_tolerance(pot, interval), (report.kind, n, k)
                    seen.add(report.kind)
        assert seen == kinds

    def test_scalar_only_user_potential(self):
        # math.exp rejects arrays, so h runs through user_potential's
        # np.vectorize
        pot = user_potential("exp", lambda u: math.exp(u))
        seen = set()
        for n in range(3, 6):
            for k in range(1, 4):
                for report, side, interval in _bound_reports(n, k, pot):
                    want = reference_margin(report.interpolant, pot, side,
                                            interval, _MARGIN_GRID)
                    assert report.one_sided_margin == want, (report.kind, n, k)
                    seen.add(report.kind)
        assert seen == {"ULB_ALPHA", "UUB_BETA", "UUB_LAMBDA"}


class TestBoundInterpolantMatchesBuilder:
    """A bound report carries the interpolant of the builder for its rule
    (helpers), coefficient for coefficient."""

    @pytest.mark.parametrize("pot,kinds", [
        (riesz_sym(1.5), {"ULB_ALPHA", "UUB_LAMBDA"}),
        (p_frame(3.0), {"ULB_ALPHA", "ULB_BETA", "UUB_LAMBDA"}),
        (gaussian_sym(), {"ULB_ALPHA", "UUB_LAMBDA"}),
        (arcsine(), {"ULB_ALPHA", "UUB_LAMBDA"}),
        (monomial_2k(3), {"ULB_ALPHA", "UUB_LAMBDA"}),
    ], ids=["riesz", "pframe3", "cosh", "arcsine", "monomial3"])
    def test_builtin_families(self, pot, kinds):
        builders = {
            "ULB_ALPHA": lambda n, k, s: build_H2k(n, k, pot),
            "ULB_BETA": lambda n, k, s: build_H2k_tilde(n, k, pot),
            "UUB_LAMBDA": lambda n, k, s: build_H2k_s(n, k, s, pot),
        }
        seen = set()
        for n in range(3, 9):
            for k in range(1, 9):
                for report, _, _ in _bound_reports(n, k, pot):
                    if report.kind not in builders:
                        continue
                    want = builders[report.kind](n, k, report.s)
                    assert report.interpolant == want, \
                        (report.kind, n, k)
                    seen.add(report.kind)
        assert seen == kinds


class TestLinearProgramOptimality:
    """The interpolants beat every feasible polynomial of the same degree."""

    @pytest.mark.parametrize("n,k,pot,h_vec", [
        (3, 1, p_frame(3), lambda t: np.abs(t) ** 3),
        (4, 2, gaussian_sym(), np.cosh),
        (2, 2, riesz_sym(2), lambda t: 1.0 / (2.0 - 2.0 * t) + 1.0 / (2.0 + 2.0 * t)),
    ], ids=["pf3", "cosh", "riesz2"])
    def test_below_side_maximizes_mean(self, n, k, pot, h_vec):
        H = build_H2k(n, k, pot)
        best = integrate_mu(n, H.expand_t())
        ts = np.linspace(-1.0, 1.0, 1_000_001)
        with np.errstate(divide="ignore"):
            hv = h_vec(ts)
        rng = np.random.default_rng(11)
        for _ in range(100):
            q = even_in_t(Polynomial(rng.standard_normal(k + 1)))
            shift = float(np.max(q(ts) - hv))
            feasible = q + Polynomial((shift,)).scale(-1.0)
            assert integrate_mu(n, feasible) <= best + 1e-9

    @pytest.mark.parametrize("n,k,pot,h_vec", [
        (3, 1, riesz_sym(2), lambda t: 1.0 / (2.0 - 2.0 * t) + 1.0 / (2.0 + 2.0 * t)),
        (4, 2, gaussian_sym(), np.cosh),
    ], ids=["riesz2", "cosh"])
    def test_above_side_minimizes_mean(self, n, k, pot, h_vec):
        s = anchor(n, k, 0.5)
        H = build_H2k_s(n, k, s, pot)
        best = integrate_mu(n, H.expand_t())
        ts = np.linspace(-s, s, 1_000_001)
        hv = h_vec(ts)
        rng = np.random.default_rng(12)
        for _ in range(100):
            q = even_in_t(Polynomial(rng.standard_normal(k + 1)))
            lift = float(np.max(hv - q(ts)))
            feasible = q + Polynomial((lift,))
            assert integrate_mu(n, feasible) >= best - 1e-9


# (potential, sign of g''' on (0, u_max) for every u_max <= 1, h(1) finite)
# at k = 2: built-in families, their negations, and sampled certificates
_K = 2
_STATE_TABLE = [
    (gaussian_sym(), "NONNEGATIVE", True),
    (negate(gaussian_sym()), "NONPOSITIVE", True),
    (p_frame(3), "NONPOSITIVE", True),
    (negate(p_frame(3)), "NONNEGATIVE", True),
    (p_frame(4), "ZERO", True),
    (p_frame(5), "NONNEGATIVE", True),
    (monomial_2k(2), "ZERO", True),
    (negate(monomial_2k(3)), "NONPOSITIVE", True),
    (riesz_sym(1), "NONNEGATIVE", False),
    (negate(riesz_sym(1)), "NONPOSITIVE", False),
    (arcsine(), "NONNEGATIVE", False),
    (negate(arcsine()), "NONPOSITIVE", False),
    (user_potential("exp", lambda u: math.exp(u)), "NONNEGATIVE", True),
    (user_potential("affine", lambda u: 3.0 * u + 1.0), "UNKNOWN", True),
]
_TABLE_IDS = [pot.name for pot, _, _ in _STATE_TABLE]

# the sign of g^(k+1) that puts the Hermite remainder on each side: the
# node product is >= 0 at the interior Gauss nodes and <= 0 once the top
# node is a simple endpoint or anchor
_NEEDED = {
    ("alpha", Side.BELOW): "NONNEGATIVE", ("alpha", Side.ABOVE): "NONPOSITIVE",
    ("beta", Side.BELOW): "NONPOSITIVE", ("beta", Side.ABOVE): "NONNEGATIVE",
    ("lambda", Side.BELOW): "NONPOSITIVE", ("lambda", Side.ABOVE): "NONNEGATIVE",
}


def _table_rules(n):
    """The rules of the table, by label: the lambda rule at an anchor below
    1 and at 1, where it has a node at t = 1 like the beta rule."""
    return {"alpha": rule_alpha(n, _K), "beta": rule_beta(n, _K),
            "lambda": rule_lambda(n, _K, anchor(n, _K)),
            "lambda@1": rule_lambda(n, _K, 1.0)}


def _allowed(rule, side, state, finite):
    sign_ok = state in (_NEEDED[rule.kind, side], "ZERO")
    return sign_ok and (finite or rule.nodes[-1] < 1.0)


def _refused(call):
    try:
        call()
    except PreconditionError:
        return True
    return False


class TestAdmission:
    """_interpolate admits a rule, side and certificate exactly when the
    Hermite remainder keeps the interpolant on that side, and every
    builder and bound refuses the same inputs."""

    @pytest.mark.parametrize("pot,state,finite", _STATE_TABLE, ids=_TABLE_IDS)
    def test_certificate_states(self, pot, state, finite):
        for rule in _table_rules(3).values():
            top = rule.s or 1.0
            assert certify_sign(pot, _K, top * top).value == state

    @pytest.mark.parametrize("pot,state,finite", _STATE_TABLE, ids=_TABLE_IDS)
    def test_interpolate_admits_the_remainder_rule(self, pot, state, finite):
        for label, rule in _table_rules(3).items():
            top = rule.s or 1.0
            for side in Side:
                allowed = _allowed(rule, side, state, finite)
                assert _refused(lambda: interpolate(rule, pot, side)) \
                    is not allowed, (label, side)
                if allowed:
                    H = interpolate(rule, pot, side)
                    margin = verify_one_sided(H, pot, side, (-top, top), 4001)
                    assert margin >= -1e-9, (label, side)
                elif state in ("NONNEGATIVE", "NONPOSITIVE") and \
                        (finite or rule.nodes[-1] < 1.0):
                    # a strict certificate of the wrong sign: the same
                    # interpolant crosses to the other side of h
                    H = _interpolate(rule, pot, side, SignState.ZERO)
                    margin = verify_one_sided(H, pot, side, (-top, top), 4001)
                    assert margin < -1e-12, (label, side)

    @pytest.mark.parametrize("pot,state,finite", _STATE_TABLE, ids=_TABLE_IDS)
    def test_builders_and_bounds_refuse_the_same(self, pot, state, finite):
        n = 3
        rules = _table_rules(n)
        s = rules["lambda"].s
        allowed = {
            (label, side): _allowed(rule, side, state, finite)
            for label, rule in rules.items() for side in Side}
        calls = [
            (lambda: build_H2k(n, _K, pot), allowed["alpha", Side.BELOW]),
            (lambda: build_H2k_tilde(n, _K, pot), allowed["beta", Side.BELOW]),
            (lambda: build_H2k_s(n, _K, s, pot), allowed["lambda", Side.ABOVE]),
            (lambda: build_H2k_s(n, _K, 1.0, pot),
             allowed["lambda@1", Side.ABOVE]),
            (lambda: lower_bound(n, _K, 10, pot),
             allowed["alpha", Side.BELOW] or allowed["beta", Side.BELOW]),
            (lambda: upper_bound_finite(n, _K, 10, pot),
             allowed["beta", Side.ABOVE]),
            (lambda: upper_bound_s(n, _K, 10, s, pot),
             allowed["lambda", Side.ABOVE]),
        ]
        for i, (call, ok) in enumerate(calls):
            assert _refused(call) is not ok, i


def _admitted_bounds(n, k, frac, pot):
    """Every bound for (n, k, pot) whose certificate admits it, the anchored
    one at s = lo + frac (1 - lo), lo the largest interior Gauss node."""
    lo = largest_gauss_node(n, k)
    s = lo + frac * (1.0 - lo)
    for call in (lambda: lower_bound(n, k, 10, pot),
                 lambda: upper_bound_finite(n, k, 10, pot),
                 lambda: upper_bound_s(n, k, 10, s, pot)):
        try:
            yield call()
        except PreconditionError:
            continue


_EXACT_FAMILIES = st.one_of(
    st.just(gaussian_sym()), st.just(arcsine()),
    st.floats(0.0, 3.0, exclude_min=True).map(riesz_sym),
    st.integers(1, 42).map(monomial_2k),
    st.integers(1, 21).map(lambda j: p_frame(2.0 * j)))


class TestHighDegree:
    """The Newton form decides: node residuals and margins stay within
    their gates up to k = 40."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 10), k=st.integers(1, 40),
           frac=st.floats(0.0, 0.9, exclude_min=True), pot=_EXACT_FAMILIES)
    def test_every_admitted_bound_holds(self, n, k, frac, pot):
        for report in _admitted_bounds(n, k, frac, pot):
            assert report.one_sided_margin >= -1e-9, (report.kind, pot.name)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 10), k=st.integers(1, 40),
           frac=st.floats(0.0, 0.9, exclude_min=True),
           p=st.floats(0.05, 12.0).filter(lambda p: (p / 2.0) % 1.0 != 0.0))
    def test_fractional_pframes_hold_or_refuse(self, n, k, frac, p):
        # |t|^p with p/2 not an integer has unbounded derivatives of g at
        # u = 0, and from k near 20 its residual at the nodes is refused
        try:
            for report in _admitted_bounds(n, k, frac, p_frame(p)):
                assert report.one_sided_margin >= -1e-9, report.kind
        except NumericalDegeneracyError as exc:
            assert "interpolation residual too large" in str(exc)

    def test_nodes_increase(self):
        # in decreasing order the same conditions miss Riesz at k = 40 by
        # 0.7 relative at the nodes
        pot = riesz_sym(1)
        H = interpolate(rule_alpha(4, 40), pot, Side.BELOW)
        z = list(H.u_nodes)
        assert z == sorted(z) and len(z) == 41
        us = np.array(sorted(set(z)))
        gv = pot.eval_g(us)

        def residual(form):
            return float(np.max(np.abs(form.at_u(us) - gv) / (1.0 + np.abs(gv))))

        down = z[::-1]
        slopes = [pot.eval_g_prime(u) if down.count(u) == 2 else None
                  for u in down]
        reverse = NewtonForm(tuple(down), tuple(_newton_coefficients(
            down, [pot.eval_g(u) for u in down], slopes)))
        assert residual(H) <= 1e-13
        assert residual(reverse) > 1e-2

    def test_riesz_bound_for_polygon_half_12(self):
        # the expansion in t missed the node u = 0.8535... by 1.2e-10
        # relative and refused this bound
        report = lower_bound(2, 11, 12, riesz_sym(3))
        assert report.kind == "ULB_ALPHA"
        assert report.one_sided_margin >= -1e-9
        assert math.isfinite(report.bound_value)
