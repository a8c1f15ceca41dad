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

from helpers import negate

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
        assert riesz_sym(3).h_at_1 == math.inf
        assert gaussian_sym().h_at_1 == pytest.approx(math.cosh(1.0))
        assert p_frame(7).h_at_1 == 1.0

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
    """The sphere extremizer evaluates g' on arrays; the interpolants call
    it on scalars, so both forms must agree (to a few ulps: numpy's
    vectorized pow and sinh round differently from libm's)."""

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
        ("riesz:m=1", "riesz:m=1"),
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
