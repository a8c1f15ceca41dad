"""Bound assembly, sphere extremization, and design certification."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from kkpolar.codes import CATALOG_DESIGNS, SphericalCode, catalog
from kkpolar.errors import NumericalDegeneracyError, PreconditionError
from kkpolar import codes, polarization, quadrature, signed_measure
from kkpolar.polarization import (BoundReport, Direction, certify_design,
                                  extrema, extremize, lower_bound,
                                  potential_U, upper_bound_finite,
                                  upper_bound_s)
from kkpolar.polynomials import NewtonForm, monomial_moment
from kkpolar.potentials import (arcsine, eval_h, gaussian_sym, monomial_2k,
                                p_frame, parse_potential, riesz_sym,
                                user_potential)
from kkpolar.quadrature import largest_gauss_node, rule_alpha, rule_beta
from kkpolar.signed_measure import ADMISSIBILITY_MARGIN

from helpers import (average_check, expand_t, integrate_mu, negate,
                     reference_extremize, reference_extremize_circle,
                     reference_screen_seeds)


def perturbed_onb3() -> SphericalCode:
    # rotate the third axis vector by 0.3 rad: breaks the (1,1) moment test
    pts = np.eye(3)
    pts[2] = [math.sin(0.3), 0.0, math.cos(0.3)]
    return SphericalCode.from_points(pts)


class TestPotentialU:
    def test_onb_monomial_is_one_everywhere(self):
        code = catalog("onb:3")
        pot = monomial_2k(1)
        assert potential_U([1.0, 0.0, 0.0], code, pot) == pytest.approx(1.0)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            assert potential_U(x, code, pot) == pytest.approx(1.0, abs=1e-12)

    def test_riesz_blows_up_at_code_point(self):
        code = catalog("cube_half")
        assert potential_U(code.points[0], code, riesz_sym(2)) == math.inf

    def test_non_unit_direction_rejected(self):
        code = catalog("onb:3")
        with pytest.raises(PreconditionError):
            potential_U([1.0, 1.0, 0.0], code, monomial_2k(1))

    def test_wrong_shape_rejected(self):
        code = catalog("onb:3")
        with pytest.raises(PreconditionError):
            potential_U([1.0, 0.0], code, monomial_2k(1))

    def test_nan_direction_rejected(self):
        code = catalog("onb:3")
        with pytest.raises(PreconditionError):
            potential_U([math.nan, 0.0, 0.0], code, monomial_2k(1))


class TestExtremize:
    def test_onb_monomial_constant(self):
        code = catalog("onb:3")
        pot = monomial_2k(1)
        lo = extremize(code, pot, Direction.MIN)
        hi = extremize(code, pot, Direction.MAX)
        assert lo.value == pytest.approx(1.0, abs=1e-10)
        assert hi.value == pytest.approx(1.0, abs=1e-10)

    def test_cube_pframe4_min_at_axis(self):
        res = extremize(catalog("cube_half"), p_frame(4), Direction.MIN)
        assert res.value == pytest.approx(4.0 / 9.0, abs=1e-9)
        assert np.max(np.abs(res.argpoint)) == pytest.approx(1.0, abs=1e-6)

    def test_triangle_monomial_constant(self):
        code = catalog("polygon_half:3")
        pot = monomial_2k(2)
        expected = 3.0 * monomial_moment(2, 4)  # 9/8
        lo = extremize(code, pot, Direction.MIN)
        hi = extremize(code, pot, Direction.MAX)
        assert expected == pytest.approx(9.0 / 8.0)
        assert lo.value == pytest.approx(expected, abs=1e-9)
        assert hi.value == pytest.approx(expected, abs=1e-9)

    def test_infinite_max_reported_without_search(self):
        code = catalog("cube_half")
        res = extremize(code, riesz_sym(2), Direction.MAX)
        assert res.value == math.inf
        assert res.restarts == 0
        assert potential_U(res.argpoint, code, riesz_sym(2)) == math.inf

    def test_infinite_min_of_negated_potential(self):
        res = extremize(catalog("onb:3"), negate(riesz_sym(2)), Direction.MIN)
        assert res.value == -math.inf

    def test_cube_riesz_min_is_six(self):
        # deepest point of the tetrahedral frame: all squared dots 1/3
        res = extremize(catalog("cube_half"), riesz_sym(2), Direction.MIN)
        assert res.value == pytest.approx(6.0, abs=1e-8)

    def test_value_matches_argpoint(self):
        code = catalog("icosahedron_half")
        for direction in (Direction.MIN, Direction.MAX):
            res = extremize(code, p_frame(4), direction)
            again = potential_U(res.argpoint, code, p_frame(4))
            assert res.value == pytest.approx(again, abs=1e-12)

    def test_direction_accepts_value_string(self):
        res = extremize(catalog("onb:3"), monomial_2k(1), "MIN")
        assert res.value == pytest.approx(1.0, abs=1e-10)


def random_code(n, size, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((size, n))
    return SphericalCode.from_points(pts / np.linalg.norm(pts, axis=1, keepdims=True))


def seeded_code(seed):
    """The seeded random codes of the gradient-path tests: n 3-8, N n-60,
    each with one of four smooth potentials."""
    n = 3 + seed % 6
    size = int(np.random.default_rng(seed).integers(n, 61))
    pot = [riesz_sym(1), p_frame(4), gaussian_sym(), monomial_2k(2)][seed % 4]
    return random_code(n, size, seed), pot


def assert_not_worse(fast, slow, direction, rel=1e-12):
    sgn = 1.0 if direction is Direction.MIN else -1.0
    assert sgn * (fast.value - slow.value) <= rel * max(1.0, abs(slow.value))


def cosh_numeric():
    return user_potential("cosh_fd", lambda u: np.cosh(np.sqrt(u)))


def cosh_scalar():
    # g' divides by sqrt(u): a g' called at u = 0 raises ZeroDivisionError
    return user_potential("cosh_scalar", lambda u: math.cosh(math.sqrt(u)),
                          lambda u: math.sinh(math.sqrt(u)) / (2 * math.sqrt(u)))


SPHERE_CATALOG = sorted(name for name in CATALOG_DESIGNS if catalog(name).n >= 3)


class TestGradientPath:
    """Tangent BFGS against the derivative-free reference chain (descent
    along central differences, then Nelder-Mead) from the same survivors."""

    @pytest.mark.parametrize("name,k", sorted(CATALOG_DESIGNS.items()))
    def test_catalog_extrema_match_derivative_free_chain(self, name, k):
        code = catalog(name)
        for text in ("riesz:m=2", "pframe:p=4", "cosh", f"monomial:k={k}",
                     "pframe:p=1.5"):
            pot = parse_potential(text)
            for direction in Direction:
                fast = extremize(code, pot, direction)
                if math.isinf(fast.value):
                    continue
                slow = reference_extremize(code, pot, direction)
                assert fast.value == pytest.approx(slow.value, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_codes_never_worse_and_stationary(self, seed):
        code, own = seeded_code(seed)
        for pot in (own, p_frame(1.5)):
            for direction in Direction:
                fast = extremize(code, pot, direction, seed=seed)
                if math.isinf(fast.value):
                    continue
                slow = reference_extremize(code, pot, direction, seed=seed)
                assert_not_worse(fast, slow, direction)
                assert fast.stationarity_norm <= 1e-6

    @pytest.mark.parametrize("code", [
        pytest.param(catalog(name), id=name) for name in SPHERE_CATALOG
    ] + [
        pytest.param(code, id=f"seeded{seed}")
        for seed, (code, _) in enumerate(map(seeded_code, range(8)))
        if code.size <= 40
    ])
    def test_user_potentials_never_worse(self, code):
        # structured seeds on onb:n, cross_half:4 and cell24_half have exact
        # zero inner products, where cosh_scalar's g' would raise
        for pot in (cosh_numeric(), cosh_scalar()):
            low, high = extrema(code, pot)
            assert_not_worse(low, reference_extremize(code, pot, Direction.MIN),
                             Direction.MIN)
            assert_not_worse(high, reference_extremize(code, pot, Direction.MAX),
                             Direction.MAX)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("p", [0.5, 1.0, 1.5])
    def test_pframe_cusps_closed_form(self, n, p):
        # sum_i |x_i|^p over unit x: 1 at an axis, n^(1 - p/2) on a diagonal
        low, high = extrema(catalog(f"onb:{n}"), p_frame(p))
        assert low.value == pytest.approx(1.0, rel=0.0, abs=1e-12)
        assert high.value == pytest.approx(n ** (1.0 - p / 2.0), rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("pot", [
        riesz_sym(2), p_frame(4), p_frame(1.5), cosh_numeric(), cosh_scalar(),
    ], ids=lambda v: v.name)
    def test_every_potential_runs_tangent_bfgs(self, pot, monkeypatch):
        # the refinement path: tangent_newton where the potential carries
        # h'', tangent_bfgs for p < 2 and user potentials
        calls = []
        for name in ("tangent_bfgs", "tangent_newton"):
            def counting(fg, x0, name=name, original=getattr(polarization, name)):
                calls.append(name)
                return original(fg, x0)

            monkeypatch.setattr(polarization, name, counting)
        res = extremize(catalog("cube_half"), pot, Direction.MIN)
        want = "tangent_newton" if pot.name in ("riesz:m=2", "pframe:p=4") else "tangent_bfgs"
        assert calls == [want]
        assert res.value == pytest.approx(
            potential_U(np.array(res.argpoint), catalog("cube_half"), pot), rel=1e-15)


class TestNewtonPath:
    """Riemannian Newton against tangent BFGS from the same survivors."""

    @pytest.mark.parametrize("code,k", [
        pytest.param(catalog(name), k, id=name)
        for name, k in sorted(CATALOG_DESIGNS.items())
    ] + [
        pytest.param(seeded_code(seed)[0], 2, id=f"seeded{seed}") for seed in range(8)
    ])
    def test_never_worse_than_bfgs(self, code, k):
        for text in ("riesz:m=2", "pframe:p=3", "pframe:p=4", "cosh", "arcsine",
                     f"monomial:k={k}"):
            pot = parse_potential(text)
            mat, u = polarization._screen(code, pot, 0, None)
            for sgn in (1.0, -1.0) if pot.h_at_1 < math.inf else (1.0,):
                starts = mat[np.argsort(sgn * u)[:polarization._SURVIVORS]]
                newton, _ = polarization.tangent_newton(
                    polarization._fg(code.points, pot, sgn, hessian=True), starts)
                bfgs, _ = polarization.tangent_bfgs(
                    polarization._fg(code.points, pot, sgn), starts)
                best = np.min(bfgs)
                assert np.min(newton) - best <= 1e-12 * abs(best)

    @pytest.mark.parametrize("seed", range(6))
    def test_quadratic_extrema_are_eigenvalues(self, seed):
        # sum_i (x . x_i)^2 = x^t S x with S = sum_i x_i x_i^t: its extrema are
        # the extreme eigenvalues of S, reached to the roundoff of the gradient
        code = random_code(5, 40, seed)
        low, high = extrema(code, monomial_2k(1))
        eigen = np.linalg.eigvalsh(code.points.T @ code.points)
        assert low.value == pytest.approx(eigen[0], rel=1e-12, abs=0.0)
        assert high.value == pytest.approx(eigen[-1], rel=1e-12, abs=0.0)
        assert max(low.stationarity_norm, high.stationarity_norm) <= 1e-10


def assert_same_result(shared, alone):
    assert shared.value == pytest.approx(alone.value, rel=1e-13, abs=1e-13)
    assert shared.restarts == alone.restarts


class TestExtrema:
    @pytest.mark.parametrize("name,k", sorted(CATALOG_DESIGNS.items()))
    def test_catalog_matches_extremize(self, name, k):
        code = catalog(name)
        for text in ("riesz:m=2", "pframe:p=4", "cosh", f"monomial:k={k}"):
            pot = parse_potential(text)
            low, high = extrema(code, pot)
            assert_same_result(low, extremize(code, pot, Direction.MIN))
            assert_same_result(high, extremize(code, pot, Direction.MAX))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_codes_match_extremize(self, seed):
        code, pot = seeded_code(seed)
        low, high = extrema(code, pot, seed=seed)
        assert_same_result(low, extremize(code, pot, Direction.MIN, seed=seed))
        assert_same_result(high, extremize(code, pot, Direction.MAX, seed=seed))

    def test_screen_spanning_several_chunks(self):
        code = random_code(4, 30, 5)
        pot = gaussian_sym()
        mat = np.random.default_rng(6).standard_normal(
            (2 * (codes.BLOCK_ENTRIES // code.size) + 3, 4))
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        dots = mat @ code.points.T
        whole = np.sum(pot.eval_g(np.minimum(dots * dots, 1.0)), axis=1)
        np.testing.assert_allclose(polarization._u_batch(code.points, pot, mat),
                                   whole, rtol=1e-15, atol=0.0)


class TestScreenBlocks:
    """The blocked screen is bitwise one pass over all rows, including a
    partial last block and a lone last row."""

    @pytest.mark.parametrize("size", [12, 120, 200, 1000])
    @pytest.mark.parametrize("n", [3, 8])
    def test_one_pass_values(self, n, size):
        code = random_code(n, size, size + n)
        rng = np.random.default_rng(size)
        step = codes.BLOCK_ENTRIES // size
        for pot in (parse_potential("cosh"), riesz_sym(1.0)):
            for count in (step - 1, 2 * step + 1, 3 * step + 5):
                mat = rng.standard_normal((count, n))
                mat /= np.linalg.norm(mat, axis=1, keepdims=True)
                u = polarization._squares(mat @ code.points.T)
                whole = np.sum(pot.eval_g(u), axis=1)
                assert np.array_equal(
                    polarization._u_batch(code.points, pot, mat), whole)

    @pytest.mark.parametrize("entries", [2, 40, 2 ** 62])
    def test_extrema_independent_of_blocks(self, monkeypatch, entries):
        code = random_code(3, 200, 9)
        pot = parse_potential("cosh")
        blocked = extrema(code, pot, seed=3)
        monkeypatch.setattr(codes, "BLOCK_ENTRIES", entries)
        blocks = []
        row_blocks = codes._row_blocks

        def recording(size, width):
            new = list(row_blocks(size, width))
            blocks.extend(new)
            return iter(new)

        monkeypatch.setattr(codes, "_row_blocks", recording)
        assert extrema(code, pot, seed=3) == blocked
        # 2 and 40 entries give blocks of 2 rows, 2^62 one block
        assert (len(blocks) > 1) is (entries < 2 ** 62)


class TestScreenSeeds:
    @pytest.mark.parametrize("restarts", [None, 300])
    @pytest.mark.parametrize("n,size", [(n, n + 4) for n in range(2, 9)]
                             + [(3, 200), (8, 120), (5, 40), (6, 12)])
    def test_screen_rows_pinned(self, n, size, restarts):
        # the rows _screen built itself before it shared codes._sphere_seeds:
        # argsort orders tied U values by row
        code = random_code(n, size, size)
        for seed in (0, 3):
            mat, _ = polarization._screen(code, parse_potential("cosh"), seed,
                                          restarts)
            assert np.array_equal(mat, reference_screen_seeds(code, seed, restarts))


class TestRestarts:
    @pytest.mark.parametrize("restarts", [0, -2])
    def test_below_one_refused_before_screening(self, monkeypatch, restarts):
        def screen(*args):
            raise AssertionError("screened")

        monkeypatch.setattr(polarization, "_screen", screen)
        code = catalog("cube_half")
        for pot in (parse_potential("cosh"), riesz_sym(2)):
            with pytest.raises(PreconditionError, match="restarts must be >= 1"):
                extrema(code, pot, restarts=restarts)
            for direction in Direction:
                with pytest.raises(PreconditionError, match="restarts"):
                    extremize(code, pot, direction, restarts=restarts)


def circle_code(seed):
    """N 1-40 seeded random points on the circle."""
    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, math.pi, int(rng.integers(1, 41)))
    return SphericalCode.from_points(np.column_stack([np.cos(angles), np.sin(angles)]))


CIRCLE_CODES = ([catalog(f"polygon_half:{m}") for m in range(2, 42)]
                + [circle_code(seed) for seed in range(30)])
CIRCLE_POTENTIALS = (["cosh"] + [f"pframe:p={p:g}" for p in (0.5, 1, 1.5, 3, 4)]
                     + [f"monomial:k={k}" for k in (1, 3, 5)]
                     + ["riesz:m=1", "riesz:m=2", "arcsine"])


class TestCircle:
    """The circle is screened and refined like every other dimension; the
    angle sweep plus Brent refinement is its reference."""

    @pytest.mark.parametrize("text", CIRCLE_POTENTIALS)
    def test_never_worse_than_angle_sweep(self, text):
        pot = parse_potential(text)
        for code in CIRCLE_CODES:
            low, high = extrema(code, pot)
            ref_low = reference_extremize_circle(code.points, pot, 1.0)
            assert low.value <= ref_low.value + 1e-13 * abs(ref_low.value)
            if text in ("pframe:p=0.5", "pframe:p=1"):
                # U is concave on every arc between the directions orthogonal
                # to the code points, so its minimum is the least value there
                cusps = code.points @ np.array([[0.0, 1.0], [-1.0, 0.0]])
                best = min(potential_U(x, code, pot) for x in cusps)
                assert low.value == pytest.approx(best, rel=1e-14, abs=0.0)
            if math.isinf(pot.h_at_1):
                assert high.value == math.inf
                continue
            ref_high = reference_extremize_circle(code.points, pot, -1.0)
            assert high.value >= ref_high.value - 1e-13 * abs(ref_high.value)

    def test_pentagon_pframe1_closed_form(self):
        # the cusps give cot(pi/10), a code point gives csc(pi/10) = 1 + sqrt(5)
        low, high = extrema(catalog("polygon_half:5"), p_frame(1))
        assert low.value == pytest.approx(1.0 / math.tan(math.pi / 10), rel=1e-12)
        assert high.value == pytest.approx(1.0 + math.sqrt(5.0), rel=1e-12)

    def test_runs_tangent_bfgs(self, monkeypatch):
        # cosh carries h'', so the circle is refined by tangent_newton
        calls = []
        original = polarization.tangent_newton

        def counting(fg, x0):
            calls.append(x0.shape)
            return original(fg, x0)

        monkeypatch.setattr(polarization, "tangent_newton", counting)
        low, high = extrema(catalog("polygon_half:7"), gaussian_sym())
        assert calls == [(polarization._SURVIVORS, 2)] * 2
        assert low.restarts == high.restarts == polarization._SURVIVORS
        # the exact Riemannian gradient norm at a smooth extremum
        assert low.stationarity_norm <= 1e-12 and high.stationarity_norm <= 1e-12


class TestLowerBound:
    @pytest.mark.parametrize("n,N,p", [(3, 4, 2.0), (3, 6, 4.0), (4, 7, 3.0)])
    def test_pframe_closed_form(self, n, N, p):
        rep = lower_bound(n, 1, N, p_frame(p))
        assert rep.bound_value == pytest.approx(N / n ** (p / 2.0), rel=1e-12)
        if p > 2.0:
            assert rep.kind == "ULB_ALPHA"

    @pytest.mark.parametrize("n,k,N", [(3, 1, 4), (3, 2, 12), (4, 2, 9), (2, 3, 8)])
    def test_monomial_both_branches_agree(self, n, k, N):
        rep = lower_bound(n, k, N, monomial_2k(k))
        assert rep.bound_value == pytest.approx(
            monomial_moment(n, 2 * k) * N, rel=1e-12)
        assert rep.sign_state == "ZERO"
        assert any("cross-checked" in note for note in rep.notes)

    def test_subquadratic_pframe_uses_endpoint_branch(self):
        rep = lower_bound(3, 1, 5, p_frame(1.0))
        assert rep.kind == "ULB_BETA"
        assert rep.bound_value == pytest.approx(5.0 / 3.0, rel=1e-12)

    def test_riesz_uses_interior_branch(self):
        rep = lower_bound(3, 1, 4, riesz_sym(2))
        assert rep.kind == "ULB_ALPHA"
        # tangent line at u = 1/3: bound N * h(alpha) = 4 * 3/2
        assert rep.bound_value == pytest.approx(6.0, rel=1e-12)

    def test_nonpositive_with_infinite_endpoint_refused(self):
        with pytest.raises(PreconditionError):
            lower_bound(3, 1, 4, negate(riesz_sym(2)))

    def test_uncertifiable_potential_refused(self):
        flat = user_potential("affine", lambda u: 3.0 * u + 1.0)
        with pytest.raises(PreconditionError):
            lower_bound(3, 2, 5, flat)

    def test_bad_problem_parameters_rejected(self):
        with pytest.raises(PreconditionError):
            lower_bound(1, 1, 4, p_frame(2))
        with pytest.raises(PreconditionError):
            lower_bound(3, 0, 4, p_frame(2))
        with pytest.raises(PreconditionError):
            lower_bound(3, 1, 0, p_frame(2))


class TestUpperBoundFinite:
    @pytest.mark.parametrize("n,N", [(3, 4), (4, 5), (2, 7)])
    def test_pframe_closed_form(self, n, N):
        # above-side tangent-chord construction meets h at the endpoints
        rep = upper_bound_finite(n, 1, N, p_frame(4))
        assert rep.kind == "UUB_BETA"
        assert rep.bound_value == pytest.approx(N / n, rel=1e-12)

    def test_matches_attained_maximum(self):
        rep = upper_bound_finite(3, 1, 4, p_frame(2))
        hi = extremize(catalog("cube_half"), p_frame(2), Direction.MAX)
        assert rep.bound_value == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert hi.value == pytest.approx(rep.bound_value, abs=1e-9)

    @pytest.mark.parametrize("n,k,N", [(3, 1, 4), (3, 2, 12), (4, 2, 9)])
    def test_monomial_gives_average(self, n, k, N):
        rep = upper_bound_finite(n, k, N, monomial_2k(k))
        assert rep.bound_value == pytest.approx(
            monomial_moment(n, 2 * k) * N, rel=1e-12)

    def test_infinite_endpoint_directed_to_anchored_variant(self):
        with pytest.raises(PreconditionError, match="upper_bound_s"):
            upper_bound_finite(3, 1, 4, riesz_sym(2))

    def test_nonpositive_certificate_refused(self):
        with pytest.raises(PreconditionError):
            upper_bound_finite(3, 1, 4, p_frame(1.0))


class TestUpperBoundS:
    def test_riesz_example(self):
        rep = upper_bound_s(3, 1, 4, 0.7, riesz_sym(2))
        assert rep.kind == "UUB_LAMBDA"
        assert rep.s == 0.7
        assert rep.nodes == pytest.approx((-0.7, 0.0, 0.7), abs=1e-12)
        assert math.isfinite(rep.bound_value)
        lo = extremize(catalog("cube_half"), riesz_sym(2), Direction.MIN)
        assert rep.bound_value >= lo.value - 1e-9

    @pytest.mark.parametrize("s", [0.7, 0.8, 0.95])
    def test_monomial_gives_average(self, s):
        rep = upper_bound_s(3, 1, 4, s, monomial_2k(1))
        assert rep.bound_value == pytest.approx(4.0 / 3.0, rel=1e-11)

    def test_nondecreasing_in_s(self):
        values = [upper_bound_s(3, 1, 4, s, riesz_sym(2)).bound_value
                  for s in np.arange(0.65, 0.96, 0.05)]
        for a, b in zip(values, values[1:]):
            assert b >= a - 1e-12

    def test_limit_approaches_endpoint_bound(self):
        pot = gaussian_sym()
        finite = upper_bound_finite(3, 1, 4, pot).bound_value
        near = [upper_bound_s(3, 1, 4, s, pot).bound_value
                for s in (0.99, 0.999)]
        assert near[0] <= near[1] <= finite + 1e-9
        assert finite - near[1] < 1e-3

    def test_anchor_range_enforced(self):
        low = largest_gauss_node(3, 1)
        for s in (low - 0.01, 1.0, 1.0 + 5e-13, math.nan, math.inf,
                  low + ADMISSIBILITY_MARGIN / 2):
            with pytest.raises(PreconditionError):
                upper_bound_s(3, 1, 4, s, riesz_sym(2))
        edge = low + ADMISSIBILITY_MARGIN
        assert upper_bound_s(3, 1, 4, edge, riesz_sym(2)).s == edge

    def test_covering_radius_witness_checked(self):
        with pytest.raises(PreconditionError, match="covering radius"):
            upper_bound_s(3, 1, 4, 0.7, riesz_sym(2), r_witness=0.75)
        rep = upper_bound_s(3, 1, 4, 0.7, riesz_sym(2),
                            r_witness=1.0 / math.sqrt(3.0))
        assert any("confirmed" in note for note in rep.notes)

    def test_unchecked_caveat_recorded(self):
        rep = upper_bound_s(3, 1, 4, 0.8, riesz_sym(2))
        assert any("conditional" in note for note in rep.notes)
        assert any("unchecked" in note for note in rep.notes)

    def test_nonpositive_certificate_refused(self):
        with pytest.raises(PreconditionError):
            upper_bound_s(3, 1, 4, 0.8, p_frame(1.0))


class TestOneRulePerBound:
    """Each bound builds its rule once and no other; the anchored bound
    admits its anchor by the Sturm sequence, so away from the threshold it
    builds no alpha rule to find the top Gauss node."""

    @pytest.fixture
    def kinds(self, monkeypatch):
        seen = []
        real = quadrature._jacobi_rule

        def counting(kind, *args, **kwargs):
            seen.append(kind)
            return real(kind, *args, **kwargs)

        monkeypatch.setattr(quadrature, "_jacobi_rule", counting)
        monkeypatch.setattr(signed_measure, "_jacobi_rule", counting)
        return seen

    def test_upper_bound_s(self, kinds):
        upper_bound_s(3, 2, 10, 0.9, riesz_sym(2))
        assert sorted(kinds) == ["lambda"]

    @pytest.mark.parametrize("k,pot,want", [
        (2, riesz_sym(2), ["alpha"]),
        (1, p_frame(1.0), ["beta"]),
        (2, monomial_2k(2), ["alpha", "beta"]),
    ], ids=["nonnegative", "nonpositive", "zero"])
    def test_lower_bound(self, kinds, k, pot, want):
        lower_bound(3, k, 10, pot)
        assert sorted(kinds) == want

    def test_upper_bound_finite(self, kinds):
        upper_bound_finite(3, 2, 10, gaussian_sym())
        assert kinds == ["beta"]


class TestReportInvariants:
    def test_nodes_weights_match_generating_rule(self):
        rep = lower_bound(3, 2, 5, riesz_sym(2))
        rule = rule_alpha(3, 2)
        assert rep.nodes == rule.nodes
        assert rep.weights == rule.weights
        rep = lower_bound(3, 1, 5, p_frame(1.0))
        rule = rule_beta(3, 1)
        assert rep.nodes == rule.nodes
        assert rep.weights == rule.weights

    @pytest.mark.parametrize("make", [
        lambda: lower_bound(3, 2, 5, riesz_sym(2)),
        lambda: lower_bound(4, 1, 6, p_frame(1.0)),
        lambda: upper_bound_finite(3, 2, 5, gaussian_sym()),
        lambda: upper_bound_s(3, 2, 7, 0.85, riesz_sym(2)),
    ])
    def test_bound_equals_measure_integral_of_interpolant(self, make):
        rep = make()
        integral = integrate_mu(rep.n, expand_t(rep.interpolant))
        assert rep.bound_value == pytest.approx(rep.N * integral, abs=1e-9)

    def test_margin_and_residual_within_tolerance(self):
        rep = upper_bound_s(3, 1, 4, 0.7, riesz_sym(2))
        assert rep.one_sided_margin >= -1e-9
        assert rep.exactness_residual <= 1e-9
        assert rep.per_point_value == pytest.approx(rep.bound_value / rep.N)

    def test_to_dict_round_trip_fields(self):
        rep = upper_bound_s(3, 1, 4, 0.7, riesz_sym(2))
        data = rep.to_dict()
        assert data["kind"] == "UUB_LAMBDA"
        assert data["s"] == 0.7
        assert data["nodes"] == list(rep.nodes)
        assert data["certificate_kind"] == "analytic"
        data = lower_bound(3, 1, 4, p_frame(2)).to_dict()
        assert "s" not in data

    @pytest.mark.parametrize("pot,kind", [
        (monomial_2k(2), "analytic"), (p_frame(3.0), "analytic"),
        (riesz_sym(2.0), "analytic"), (gaussian_sym(), "analytic"),
        (arcsine(), "analytic"),
        (user_potential("exp", math.exp), "numeric"),
        (user_potential("exp", math.exp, math.exp), "analytic"),
    ], ids=lambda v: getattr(v, "name", v))
    def test_derivative_kind_written_after_certificate_kind(self, pot, kind):
        keys = list(lower_bound(3, 2, 6, pot).to_dict().items())
        names = [name for name, _ in keys]
        at = names.index("certificate_kind") + 1
        assert keys[at] == ("derivative_kind", kind)


REBUILD_FAMILIES = ["monomial:k=3", "pframe:p=1", "pframe:p=1.5",
                    "pframe:p=3", "pframe:p=4", "cosh", "riesz:m=1",
                    "riesz:m=3", "arcsine"]


class TestReportedInterpolant:
    """The document's interpolant is the checked NewtonForm: its JSON round
    trip rebuilds the same form, bitwise the same on the margin grid."""

    @pytest.mark.parametrize("k", [1, 5, 10, 20, 30, 40])
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    @pytest.mark.parametrize("family", REBUILD_FAMILIES)
    def test_json_round_trip_rebuilds_the_checked_form(self, family, n, k):
        pot = parse_potential(family)
        low = largest_gauss_node(n, k)
        makers = [lambda: lower_bound(n, k, 3, pot),
                  lambda: upper_bound_s(n, k, 3, low + 0.5 * (1.0 - low), pot)]
        if math.isfinite(pot.h_at_1):
            makers.append(lambda: upper_bound_finite(n, k, 3, pot))
        refusals = []
        for make in makers:
            try:
                rep = make()
            except (PreconditionError, NumericalDegeneracyError) as exc:
                # p-frames refuse from k near 20, and on one side by the
                # parity of their derivative certificate
                refusals.append(str(exc))
                continue
            data = json.loads(json.dumps(rep.to_dict()))
            assert "interpolant_t_coeffs" not in data
            keys = list(data)
            assert keys[keys.index("per_point_value") + 1] == "interpolant"
            form = NewtonForm(**{key: tuple(value) for key, value
                                 in data["interpolant"].items()})
            assert form == rep.interpolant
            top = 1.0 if rep.s is None else rep.s
            ts = np.linspace(-top, top, polarization._MARGIN_GRID)
            assert form(ts).tobytes() == rep.interpolant(ts).tobytes()
        if len(refusals) == len(makers):
            pytest.skip("; ".join(refusals))


def recording(pot):
    """pot with its g and g' wrapped to record every argument they get."""
    calls = []

    def record(fn):
        def wrapped(u):
            calls.append(u)
            return fn(u)
        return wrapped

    return replace(pot, eval_g=record(pot.eval_g),
                   eval_g_prime=record(pot.eval_g_prime)), calls


class TestOneEvaluationPath:
    """g and g' get only arrays, on every path to a bound, an extremum or a
    certificate; user_potential adapts a scalar g to that at construction."""

    @pytest.mark.parametrize("make", [gaussian_sym, lambda: riesz_sym(2.0)],
                             ids=["cosh", "riesz2"])
    def test_every_call_gets_an_array(self, make):
        pot, calls = recording(make())
        lower_bound(3, 2, 6, pot)
        if math.isfinite(pot.h_at_1):
            upper_bound_finite(3, 2, 6, pot)
        upper_bound_s(3, 2, 6, 0.85, pot)
        extrema(catalog("cube_half"), pot)
        certify_design(catalog("icosahedron_half"), 2, pot)
        assert len(calls) > 10
        assert all(isinstance(u, np.ndarray) and u.ndim >= 1 for u in calls)

    def test_scalar_only_g_matches_array_g(self):
        scalar = user_potential("exp", math.exp)
        array = user_potential("exp", lambda u: np.exp(u))
        for bound in (lambda pot: lower_bound(4, 3, 12, pot),
                      lambda pot: upper_bound_finite(4, 3, 12, pot),
                      lambda pot: upper_bound_s(4, 3, 12, 0.9, pot)):
            assert bound(scalar).bound_value == pytest.approx(
                bound(array).bound_value, rel=1e-15, abs=0.0)

    def test_constant_g(self):
        # a g that ignores its argument's shape still acts elementwise
        pot = user_potential("two", lambda u: 2.0)
        low, high = extrema(catalog("cube_half"), pot)
        assert (low.value, high.value) == (8.0, 8.0)
        got = eval_h(pot, np.zeros((2, 3)))
        assert got.shape == (2, 3)
        assert np.all(got == 2.0)


def sweep_potentials(k):
    return [monomial_2k(k), p_frame(3), riesz_sym(2)]


class TestCertifyDesign:
    def test_cube_pframe4_lower_bound_attained(self):
        rep = certify_design(catalog("cube_half"), 1, p_frame(4))
        assert rep.design.is_design
        assert rep.all_passed
        low = next(b for b in rep.bounds if b.kind == "ULB_ALPHA")
        assert low.bound_value == pytest.approx(4.0 / 9.0, rel=1e-12)
        assert rep.minimum.value == pytest.approx(low.bound_value, abs=1e-8)

    def test_perturbed_onb_straddles_average(self):
        rep = certify_design(perturbed_onb3(), 1, monomial_2k(1))
        assert not rep.design.is_design
        assert rep.minimum.value < 1.0 < rep.maximum.value
        names = [c.name for c in rep.checks]
        assert "monomial_min_below_average" in names
        assert rep.all_passed

    def test_zero_width_straddle_fails(self, monkeypatch):
        # a design misread as a non-design: its monomial extremes equal the
        # average to roundoff, which must not pass as a straddle
        cert = codes.is_kk_design(catalog("cube_half"), 1)
        monkeypatch.setattr(polarization, "is_kk_design", lambda code, k: replace(
            cert, is_design=False))
        rep = certify_design(catalog("cube_half"), 1, monomial_2k(1))
        failed = {c.name for c in rep.checks if not c.passed}
        assert failed == {"monomial_min_below_average", "monomial_max_above_average"}

    def test_cell24_monomial_extremes_equal_average(self):
        rep = certify_design(catalog("cell24_half"), 2, monomial_2k(2))
        assert rep.design.is_design
        assert rep.all_passed
        assert rep.minimum.value == pytest.approx(1.5, abs=1e-8)
        assert rep.maximum.value == pytest.approx(1.5, abs=1e-8)

    def test_infinite_endpoint_skips_finite_upper_bound(self):
        rep = certify_design(catalog("onb:3"), 1, riesz_sym(2))
        assert rep.maximum.value == math.inf
        names = [c.name for c in rep.checks]
        assert "upper_finite_skipped" in names
        assert rep.all_passed

    def test_polygon_half_12_riesz_at_high_degree(self):
        # the 12-gon half is an (11,11)-design; its Riesz lower bound at
        # k = 11 needs the interpolant evaluated in Newton form
        rep = certify_design(catalog("polygon_half:12"), 11, riesz_sym(3))
        assert rep.design.is_design
        assert [b.kind for b in rep.bounds] == ["ULB_ALPHA", "UUB_LAMBDA"]
        assert rep.all_passed

    def test_convex_hull_built_once(self, monkeypatch):
        calls = []
        original = codes.ConvexHull

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(codes, "ConvexHull", counting)
        rep = certify_design(catalog("icosahedron_half"), 2, p_frame(4))
        assert rep.covering_radius_kind == "exact"
        assert len(calls) == 1

    @pytest.mark.parametrize("name,k", sorted(CATALOG_DESIGNS.items()))
    def test_catalog_sandwich(self, name, k):
        code = catalog(name)
        for pot in sweep_potentials(k):
            rep = certify_design(code, k, pot)
            assert rep.design.is_design
            failed = [c for c in rep.checks if not c.passed]
            assert rep.all_passed, (pot.name, failed)


class TestDesignEquivalence:
    """Designs are exactly the codes whose monomial extremes collapse to
    the average value; non-designs straddle it strictly."""

    @pytest.mark.parametrize("name,k", sorted(CATALOG_DESIGNS.items()))
    def test_designs_collapse(self, name, k):
        code = catalog(name)
        target = monomial_moment(code.n, 2 * k) * code.size
        pot = monomial_2k(k)
        lo = extremize(code, pot, Direction.MIN)
        hi = extremize(code, pot, Direction.MAX)
        tol = 1e-8 * max(1.0, code.size)
        assert abs(lo.value - target) <= tol
        assert abs(hi.value - target) <= tol

    def test_random_non_designs_straddle(self):
        rng = np.random.default_rng(21)
        checked = 0
        while checked < 20:
            n = 2 if checked < 15 else 3
            pts = rng.standard_normal((5, n))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            code = SphericalCode.from_points(pts)
            rep = certify_design(code, 1, monomial_2k(1))
            if rep.design.is_design:
                continue
            assert rep.minimum.value < code.size * monomial_moment(n, 2)
            assert rep.maximum.value > code.size * monomial_moment(n, 2)
            checked += 1


class TestDesignConstancy:
    @pytest.mark.parametrize("name,k", [
        ("cube_half", 1), ("icosahedron_half", 2), ("cell24_half", 2)])
    def test_low_degree_even_potential_is_constant(self, name, k):
        code = catalog(name)
        rng = np.random.default_rng(9)
        x = rng.standard_normal((10_000, code.n))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        u = (x @ code.points.T) ** 2
        # random even polynomial of degree at most 2k in t
        coeffs = rng.uniform(0.2, 1.0, k + 1)
        vals = np.zeros(len(x))
        for j, c in enumerate(coeffs):
            vals += c * np.sum(u**j, axis=1)
        assert np.max(vals) - np.min(vals) <= 1e-9 * code.size


class TestAverageCheck:
    def test_design_average_is_exact(self):
        assert abs(average_check(catalog("cube_half"), 1)) <= 1e-12

    def test_single_point_average(self):
        code = SphericalCode.from_points([[0.0, 0.0, 1.0]])
        diff = average_check(code, 1, samples=20_000)
        assert abs(diff) <= 0.02
        assert diff + monomial_moment(3, 2) == pytest.approx(1.0 / 3.0, abs=0.02)

    def test_random_code_error_scales_with_samples(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((8, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        code = SphericalCode.from_points(pts)
        diff = average_check(code, 2, samples=40_000)
        assert abs(diff) <= 5.0 * code.size / math.sqrt(40_000)

    def test_sample_floor_enforced(self):
        with pytest.raises(PreconditionError):
            average_check(catalog("onb:3"), 1, samples=500)
