import math

import numpy as np
import pytest

from kkpolar.errors import PreconditionError
from kkpolar.potentials import (
    Potential,
    SignState,
    arcsine,
    certify_sign,
    eval_h,
    gaussian_sym,
    monomial_2k,
    p_frame,
    parse_potential,
    riesz_sym,
    user_potential,
)

from helpers import negate, reference_central_difference

ALL_BUILTINS = [
    monomial_2k(1), monomial_2k(3),
    p_frame(2.0), p_frame(3.0), p_frame(4.0), p_frame(5.5),
    riesz_sym(1.0), riesz_sym(2.0),
    gaussian_sym(), arcsine(),
]


class TestEvalH:
    def test_pframe_example(self):
        assert eval_h(p_frame(3), -0.5) == pytest.approx(0.125, abs=1e-15)

    def test_monomial_example(self):
        assert eval_h(monomial_2k(2), 1 / math.sqrt(3)) == pytest.approx(1 / 9, abs=1e-15)

    def test_riesz_example(self):
        assert eval_h(riesz_sym(2), 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(PreconditionError):
            eval_h(p_frame(2), 1.01)

    @pytest.mark.parametrize("pot", ALL_BUILTINS, ids=lambda p: p.name)
    def test_evenness_exact(self, pot):
        for t in np.linspace(0.0, 0.999, 37):
            assert eval_h(pot, t) == eval_h(pot, -t)

    def test_infinite_endpoints(self):
        assert eval_h(riesz_sym(1), 1.0) == math.inf
        assert eval_h(arcsine(), -1.0) == math.inf
        assert riesz_sym(3).h_at_1 == arcsine().h_at_1 == math.inf
        assert gaussian_sym().h_at_1 == pytest.approx(math.cosh(1.0))
        assert p_frame(7).h_at_1 == monomial_2k(4).h_at_1 == 1.0

    def test_pframe2_matches_monomial(self):
        a, b = p_frame(2.0), monomial_2k(1)
        for t in np.linspace(-1, 1, 41):
            assert abs(eval_h(a, t) - eval_h(b, t)) <= 1e-15

    @pytest.mark.parametrize("pot", ALL_BUILTINS + [
        user_potential("exp", lambda u: math.exp(u))], ids=lambda p: p.name)
    def test_array_matches_scalar_calls(self, pot):
        ts = np.linspace(-1.0, 1.0, 2001)
        got = eval_h(pot, ts)
        want = np.array([eval_h(pot, float(t)) for t in ts])
        assert got.shape == ts.shape
        finite = np.isfinite(want)
        assert np.array_equal(got[~finite], want[~finite])
        # array and scalar numpy math may round one operation differently;
        # the Riesz g adds two such results, which can land 3 ulps apart
        ulps = 3 if pot.name.startswith("riesz") else 1
        assert np.all(np.abs(got[finite] - want[finite])
                      <= ulps * np.spacing(np.abs(want[finite])))

    def test_array_keeps_shape(self):
        ts = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
        got = eval_h(gaussian_sym(), ts)
        assert got.shape == (3, 4)
        assert got[2, 3] == eval_h(gaussian_sym(), 1.0)

    def test_array_domain_error(self):
        with pytest.raises(PreconditionError, match="outside"):
            eval_h(p_frame(2), np.array([0.0, 0.5, -1.0 - 1e-11, 0.2]))

    def test_array_domain_tolerance(self):
        got = eval_h(p_frame(2), np.array([-1.0 - 5e-13, 1.0 + 5e-13]))
        assert list(got) == [1.0, 1.0]


class TestDerivatives:
    @pytest.mark.parametrize("pot", ALL_BUILTINS, ids=lambda p: p.name)
    def test_g_prime_matches_finite_difference(self, pot):
        for u in (0.07, 0.3, 0.55, 0.82):
            step = 1e-7
            fd = (pot.eval_g(u + step) - pot.eval_g(u - step)) / (2 * step)
            assert pot.eval_g_prime(u) == pytest.approx(fd, rel=1e-6)


class TestArrayDerivatives:
    """g' is evaluated on arrays; a scalar call must agree with it (to a
    few ulps: numpy's vectorized pow and sinh round differently from
    libm's)."""

    @pytest.mark.parametrize("pot", ALL_BUILTINS, ids=lambda p: p.name)
    def test_scalar_and_array_agree(self, pot):
        u = np.linspace(0.01, 0.99, 99)
        arr = np.asarray(pot.eval_g_prime(u))
        assert arr.shape == u.shape
        scalar = np.array([pot.eval_g_prime(float(v)) for v in u])
        np.testing.assert_allclose(arr, scalar, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("pot", ALL_BUILTINS, ids=lambda p: p.name)
    def test_array_matches_central_difference(self, pot):
        u = np.linspace(0.02, 0.95, 48)
        step = 1e-6
        fd = (pot.eval_g(u + step) - pot.eval_g(u - step)) / (2 * step)
        np.testing.assert_allclose(pot.eval_g_prime(u), fd, rtol=1e-6)

    @pytest.mark.parametrize("pot,limit", [
        (riesz_sym(1.0), 0.5 * 1.5 * 2.0 ** -0.5),
        (riesz_sym(2.0), 2.0 / 2.0),
        (riesz_sym(3.0), 1.5 * 2.5 * 2.0 ** -1.5),
        (gaussian_sym(), 0.5),
    ], ids=lambda v: getattr(v, "name", ""))
    def test_removable_limit_at_zero(self, pot, limit):
        assert pot.eval_g_prime(0.0) == pytest.approx(limit, rel=1e-15)
        assert pot.eval_g_prime(np.array([0.0]))[0] == pytest.approx(limit, rel=1e-15)
        assert pot.eval_g_prime(1e-12) == pytest.approx(limit, rel=1e-9)


class TestSecondDerivative:
    """eval_h2 is h'' at u = t*t, checked against a central difference of
    h'(t) = 2 t g'(t*t); it may be non-finite only at u = 0."""

    @pytest.mark.parametrize("pot", ALL_BUILTINS + [
        monomial_2k(5), p_frame(6.0), riesz_sym(3.5),
    ], ids=lambda p: p.name)
    def test_matches_central_difference_of_h_prime(self, pot):
        t = np.linspace(-0.99, 0.99, 200)
        step = 1e-6

        def h_prime(t):
            return 2.0 * t * pot.eval_g_prime(t * t)

        fd = (h_prime(t + step) - h_prime(t - step)) / (2 * step)
        np.testing.assert_allclose(pot.eval_h2(t * t), fd, rtol=1e-6)

    @pytest.mark.parametrize("pot", ALL_BUILTINS, ids=lambda p: p.name)
    def test_finite_at_zero_for_smooth_builtins(self, pot):
        assert np.all(np.isfinite(pot.eval_h2(np.zeros(3))))

    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5])
    def test_pframe_below_two_unbounded_only_at_zero(self, p):
        # h'' = p (p - 1) |t|^(p - 2); for p = 1 the central difference of
        # h' = sign(t) is roundoff, hence the absolute tolerance
        pot = p_frame(p)
        t = np.linspace(-0.99, 0.99, 200)
        step = 1e-6

        def h_prime(t):
            return 2.0 * t * pot.eval_g_prime(t * t)

        fd = (h_prime(t + step) - h_prime(t - step)) / (2 * step)
        np.testing.assert_allclose(pot.eval_h2(t * t), fd, rtol=1e-6, atol=1e-9)
        with np.errstate(divide="ignore", invalid="ignore"):
            assert not np.isfinite(pot.eval_h2(np.zeros(1))[0])

    @pytest.mark.parametrize("pot", [
        user_potential("exp", math.exp),
        user_potential("exp_analytic", math.exp, math.exp),
        Potential("exp_positional", np.exp, np.exp, math.e),
        negate(gaussian_sym()),
    ], ids=lambda p: p.name)
    def test_default_is_a_second_difference(self, pot):
        # h(t) = +-exp(t^2) or -cosh(t): h'' = (2 + 4 t^2) exp(t^2) or -cosh(t)
        t = np.linspace(0.0, 0.999, 50)
        if pot.name == "neg(cosh)":
            exact = -np.cosh(t)
        else:
            exact = (2.0 + 4.0 * t * t) * np.exp(t * t)
        np.testing.assert_allclose(pot.eval_h2(t * t), exact, rtol=1e-6)

    def test_default_calls_g_only(self):
        # g' raises at u = 0, which the second difference never needs
        pot = user_potential("cosh_scalar", lambda u: math.cosh(math.sqrt(u)),
                             lambda u: math.sinh(math.sqrt(u)) / (2 * math.sqrt(u)))
        assert pot.eval_h2(np.zeros(2)) == pytest.approx(1.0, rel=1e-6)
        with pytest.raises(ZeroDivisionError):
            pot.eval_g_prime(np.zeros(1))


def assert_bitwise(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


# u in [0, 1] with both ends, the orthogonality threshold 2^-100 and the
# points where the central-difference stencil is clipped
U_GRID = np.concatenate([np.linspace(0.0, 1.0, 100_001),
                         [2.0 ** -100, 5e-7, 1.0 - 5e-7, 1.0 - 2.0 ** -53]])


class TestMonomialIsEvenPFrame:
    """monomial_2k(k0) is p_frame(2 k0) under its own name, and both carry
    bitwise the closed forms monomial_2k had of its own."""

    @pytest.mark.parametrize("k0", range(1, 21))
    def test_g_g_prime_h2_bitwise(self, k0):
        mono, frame = monomial_2k(k0), p_frame(2 * k0)
        assert mono.name == f"monomial:k={k0}"
        assert frame.name == f"pframe:p={2 * k0}"
        u = U_GRID
        for field in ("eval_g", "eval_g_prime", "eval_h2"):
            assert_bitwise(getattr(mono, field)(u), getattr(frame, field)(u))
        assert_bitwise(mono.eval_g(u), u ** k0)
        assert_bitwise(mono.eval_g_prime(u), k0 * u ** (k0 - 1))
        assert_bitwise(mono.eval_h2(u), (2 * k0) * (2 * k0 - 1) * u ** (k0 - 1))

    @pytest.mark.parametrize("k0", range(1, 21))
    def test_certificates_and_h_at_1(self, k0):
        mono, frame = monomial_2k(k0), p_frame(2 * k0)
        assert mono.h_at_1 == frame.h_at_1 == 1.0
        for k in range(1, 41):
            want = SignState.ZERO if k + 1 > k0 else SignState.NONNEGATIVE
            assert certify_sign(mono, k, 1.0) is want
            assert certify_sign(frame, k, 1.0) is want


USER_GS = {
    "exp": math.exp,
    "cosh_sqrt": lambda u: math.cosh(math.sqrt(u)),
    "pole_at_2": lambda u: 1.0 / (2.0 - u),
    "u_to_1.5": lambda u: u ** 1.5,
    "sqrt_1_minus_u": lambda u: math.sqrt(1.0 - u),
    "neg_log1p": lambda u: -math.log1p(u),
}


class TestDerivedFromG:
    """A Potential derives g' (a central difference on arrays) and h(1)
    (g(1)) from g; user_potential only vectorizes what it is given."""

    @pytest.mark.parametrize("name", sorted(USER_GS))
    def test_user_g_prime_matches_scalar_reference(self, name):
        g = USER_GS[name]
        reference = reference_central_difference(g)
        want = [reference(u) for u in U_GRID.tolist()]
        for pot in (user_potential(name, g), user_potential(name, g, h_at_1=7.5)):
            assert pot.derivative_kind == "numeric"
            assert_bitwise(pot.eval_g_prime(U_GRID), want)
        assert user_potential(name, g).h_at_1 == g(1.0)
        assert user_potential(name, g, h_at_1=7.5).h_at_1 == 7.5

    def test_given_g_prime_is_analytic(self):
        pot = user_potential("exp", math.exp, math.exp)
        assert pot.derivative_kind == "analytic"
        assert_bitwise(pot.eval_g_prime(U_GRID),
                       [math.exp(u) for u in U_GRID.tolist()])

    def test_potential_from_an_array_g_alone(self):
        pot = Potential("exp", np.exp)
        assert pot.derivative_kind == "numeric"
        assert pot.certificate_kind == "sampled"
        assert pot.h_at_1 == math.e
        hi, lo = np.minimum(U_GRID + 1e-6, 1.0), np.maximum(U_GRID - 1e-6, 0.0)
        assert_bitwise(pot.eval_g_prime(U_GRID), (np.exp(hi) - np.exp(lo)) / (hi - lo))


class TestCertifySign:
    def test_pframe4_k1(self):
        assert certify_sign(p_frame(4), 1, 1.0) is SignState.NONNEGATIVE

    def test_pframe3_k2(self):
        # g'''(u) = (3/2)(1/2)(-1/2) u^(-3/2) < 0
        assert certify_sign(p_frame(3), 2, 1.0) is SignState.NONPOSITIVE

    def test_riesz_all_k(self):
        assert certify_sign(riesz_sym(1), 5, 1.0) is SignState.NONNEGATIVE

    def test_monomial_zero_branch(self):
        pot = monomial_2k(2)
        assert certify_sign(pot, 1, 1.0) is SignState.NONNEGATIVE
        state = certify_sign(pot, 2, 1.0)
        assert state is SignState.ZERO
        assert state.admits_nonnegative() and state.admits_nonpositive()

    def test_pframe_even_integer_zero(self):
        assert certify_sign(p_frame(4), 2, 1.0) is SignState.ZERO

    def test_pframe_alternating_signs(self):
        # product of (p/2 - j) factors: p=3 gives +, -, then back to + at k=5
        assert certify_sign(p_frame(3), 1, 1.0) is SignState.NONNEGATIVE
        assert certify_sign(p_frame(3), 5, 1.0) is SignState.NONNEGATIVE

    def test_bad_args(self):
        with pytest.raises(PreconditionError):
            certify_sign(p_frame(2), 0, 1.0)
        with pytest.raises(PreconditionError):
            certify_sign(p_frame(2), 1, 0.0)
        with pytest.raises(PreconditionError):
            certify_sign(p_frame(2), 1, 1.5)

    def test_certificate_kind_flag(self):
        assert p_frame(3).certificate_kind == "analytic"
        assert user_potential("box", lambda u: u * u).certificate_kind == "sampled"


class TestSampledFallback:
    def test_exp_is_nonnegative(self):
        pot = user_potential("expu", math.exp)
        for k in (1, 2, 3):
            assert certify_sign(pot, k, 1.0) is SignState.NONNEGATIVE

    def test_negated_exp_is_nonpositive(self):
        pot = user_potential("negexp", lambda u: -math.exp(u))
        assert certify_sign(pot, 2, 1.0) is SignState.NONPOSITIVE

    def test_degenerate_returns_unknown(self):
        # linear g: third derivative identically 0, samples cannot clear the bar
        pot = user_potential("lin", lambda u: 2.0 * u + 1.0)
        assert certify_sign(pot, 2, 1.0) is SignState.UNKNOWN

    @pytest.mark.parametrize("m", [1.0, 2.0])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_riesz_sampling_agrees_with_analytic(self, m, k):
        pot = riesz_sym(m)
        stripped = Potential(pot.name, pot.eval_g, pot.eval_g_prime, pot.h_at_1)
        assert certify_sign(stripped, k, 1.0) is certify_sign(pot, k, 1.0)


class TestNegate:
    def test_values_and_certificate_flip(self):
        pot = negate(p_frame(4))
        assert eval_h(pot, 0.5) == pytest.approx(-0.0625)
        assert pot.h_at_1 == -1.0
        assert certify_sign(pot, 1, 1.0) is SignState.NONPOSITIVE
        assert certify_sign(negate(p_frame(3)), 2, 1.0) is SignState.NONNEGATIVE

    def test_zero_stays_zero(self):
        assert certify_sign(negate(monomial_2k(1)), 2, 1.0) is SignState.ZERO


class TestParse:
    @pytest.mark.parametrize("text,name", [
        ("monomial:k=3", "monomial:k=3"),
        ("pframe:p=2.5", "pframe:p=2.5"),
        ("pframe:p=4.000001", "pframe:p=4.000001"),
        ("riesz:m=1", "riesz:m=1"),
        # a workload's Riesz name, 3 decimals, keeps its short form; an m
        # that the short form rounds is named by repr, apart from m = 2
        ("riesz:m=1.234", "riesz:m=1.234"),
        ("riesz:m=2.0000001", "riesz:m=2.0000001"),
        ("cosh", "cosh"),
        ("arcsine", "arcsine"),
    ])
    def test_round_trip_names(self, text, name):
        assert parse_potential(text).name == name

    def test_parsed_pframe_evaluates(self):
        pot = parse_potential("pframe:p=4")
        assert eval_h(pot, 0.5) == pytest.approx(0.0625)

    @pytest.mark.parametrize("bad", [
        "monomial", "pframe:q=2", "riesz:m=abc", "gauss", "pframe:p=-1",
        "monomial:k=0",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(PreconditionError):
            parse_potential(bad)
