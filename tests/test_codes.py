import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.special import eval_gegenbauer
from scipy.spatial import ConvexHull, QhullError

from kkpolar import codes
from kkpolar.codes import (
    BLOCK_ENTRIES,
    CATALOG_DESIGNS,
    HULL_FACET_CAP,
    SphericalCode,
    _covering_radius_search,
    _ratio_test,
    _seed_scores,
    _structured_seeds,
    catalog,
    covering_radius_r,
    is_kk_design,
    max_hull_facets,
    load_code,
    moment,
    save_code,
    waring_residual,
)
from kkpolar.errors import CodeFormatError, PreconditionError
from kkpolar.quadrature import largest_gauss_node

from helpers import (gegenbauer, nearly_flat_code, reference_covering_seeds,
                     reference_duplicate, reference_ratio_test)


def random_code(n, size, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((size, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return SphericalCode.from_points(pts)


def single_point(n=3):
    row = [0.0] * n
    row[0] = 1.0
    return SphericalCode.from_points([row])


class TestConstruction:
    def test_rejects_non_unit(self):
        with pytest.raises(CodeFormatError):
            SphericalCode.from_points([[0.5, 0.0, 0.0]])

    def test_rejects_duplicates(self):
        with pytest.raises(CodeFormatError):
            SphericalCode.from_points([[1.0, 0.0], [1.0, 0.0]])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_row(self, bad):
        # NaN fails every comparison, so a gate written as "error > tol"
        # let it through
        with pytest.raises(CodeFormatError, match="row 1 has norm"):
            SphericalCode.from_points([[1.0, 0.0, 0.0], [bad, 0.0, 0.0]])

    def test_antipodes_allowed(self):
        code = SphericalCode.from_points([[1.0, 0.0], [-1.0, 0.0]])
        assert code.size == 2

    def test_points_read_only(self):
        code = catalog("onb:3")
        with pytest.raises(ValueError):
            code.points[0, 0] = 2.0


def unit_rows(rng, count, n):
    rows = rng.standard_normal((count, n))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestDuplicateCheck:
    """The duplicate check against the per-row loop it replaced: same
    verdict, same first pair in the message."""

    @pytest.mark.parametrize("gap", [0.0, 5e-13, 2e-12])
    @pytest.mark.parametrize("size", [12, 120, 200, 1000])
    @pytest.mark.parametrize("n", [3, 8])
    def test_matches_row_loop(self, n, size, gap):
        rng = np.random.default_rng(1000 * n + size)
        pts = unit_rows(rng, size, n)
        for _ in range(3):
            i, j = sorted(rng.choice(size, 2, replace=False))
            # a step of length gap orthogonal to x_i keeps the norm within
            # roundoff of 1
            away = rng.standard_normal(n)
            away -= (away @ pts[i]) * pts[i]
            pts[j] = pts[i] + gap * away / np.linalg.norm(away)
        expected = reference_duplicate(pts)
        if gap < 1e-12:
            assert expected is not None
        if expected is None:
            assert SphericalCode.from_points(pts).size == size
        else:
            with pytest.raises(CodeFormatError) as err:
                SphericalCode.from_points(pts)
            assert str(err.value) == (
                f"repeated point: rows {expected[0]} and {expected[1]} coincide")

    @pytest.mark.parametrize("entries", [1, 120, 420])
    def test_pairs_across_small_blocks(self, entries):
        # adjacent and distant pairs of the 20 x 3 code, at the first and
        # the last row
        rng = np.random.default_rng(entries)
        for i, j in [(0, 1), (2, 3), (4, 17), (5, 18), (18, 19), (0, 19)]:
            pts = unit_rows(rng, 20, 3)
            pts[j] = pts[i]
            with pytest.raises(CodeFormatError, match=f"rows {i} and {j} "):
                SphericalCode.from_points(pts)
        assert SphericalCode.from_points(unit_rows(rng, 20, 3)).size == 20


    GAPS = [0.0, 5e-13, 9.99e-13, 1.001e-12, 2e-12]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("gap", GAPS)
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_first_of_several_pairs(self, tmp_path, n, gap, seed):
        # the k-d tree returns close rows unordered; the message names the
        # first pair in row order, through both constructors
        rng = np.random.default_rng([n, self.GAPS.index(gap), seed])
        size = int(rng.integers(2, 2001))
        pts = unit_rows(rng, size, n)
        # pairs among five random rows often share a row, which then has
        # several close partners
        pool = rng.choice(size, min(size, 5), replace=False)
        for _ in range(int(rng.integers(1, 5))):
            i, j = rng.choice(pool, 2, replace=False)
            away = rng.standard_normal(n)
            away -= (away @ pts[i]) * pts[i]
            pts[j] = pts[i] + gap * away / np.linalg.norm(away)
        path = tmp_path / "code.json"
        path.write_text(json.dumps({"dim": n, "points": pts.tolist()}))
        # load_code renormalizes the rows before the check
        loaded = pts / np.linalg.norm(pts, axis=1, keepdims=True)
        for rows, build in ((pts, lambda: SphericalCode.from_points(pts)),
                            (loaded, lambda: load_code(path))):
            expected = reference_duplicate(rows)
            if gap < 1e-12:
                assert expected is not None
            if expected is None:
                assert build().size == size
            else:
                with pytest.raises(CodeFormatError) as err:
                    build()
                assert str(err.value) == (
                    f"repeated point: rows {expected[0]} and {expected[1]} coincide")


class TestSeedScores:
    """The covering search's blocked seed scores are bitwise those of one
    pass, including a partial last block and a lone last row."""

    @pytest.mark.parametrize("size", [12, 120, 200, 1000])
    @pytest.mark.parametrize("n", [3, 8])
    def test_one_pass_values(self, n, size):
        rng = np.random.default_rng(7 * size + n)
        points = unit_rows(rng, size, n)
        step = BLOCK_ENTRIES // size
        for count in (step - 1, 2 * step + 1, 3 * step + 5):
            mat = unit_rows(rng, count, n)
            assert np.array_equal(_seed_scores(points, mat),
                                  np.max(np.abs(mat @ points.T), axis=1))

    @pytest.mark.parametrize("n,size", [(3, 200), (8, 120), (5, 40), (6, 12)])
    def test_search_independent_of_blocks(self, monkeypatch, n, size):
        points = unit_rows(np.random.default_rng(size), size, n)
        blocked = _covering_radius_search(points, 3)
        monkeypatch.setattr(codes, "BLOCK_ENTRIES", 2 ** 62)
        whole = _covering_radius_search(points, 3)
        assert blocked[0] == whole[0]
        assert np.array_equal(blocked[1], whole[1])

    @pytest.mark.parametrize("n,size", [(3, 200), (8, 120), (5, 40), (6, 12)])
    def test_ratio_test_in_blocks_of_two_starts(self, monkeypatch, n, size):
        # the vertex ascent's ratio test runs in the row blocks of the seed
        # scores; 2 entries give blocks of 2 starts and fold a lone last one
        points = unit_rows(np.random.default_rng(size), size, n)
        blocked = _covering_radius_search(points, 3)
        monkeypatch.setattr(codes, "BLOCK_ENTRIES", 2)
        small = _covering_radius_search(points, 3)
        assert blocked[0] == small[0]
        assert np.array_equal(blocked[1], small[1])


class TestMoment:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_onb_second_moment_vanishes(self, n):
        assert moment(catalog(f"onb:{n}"), 2) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("ell", [1, 2, 3, 5, 8])
    def test_single_point(self, ell):
        assert moment(single_point(), ell) == pytest.approx(1.0, abs=1e-12)

    def test_cube_half_second_moment(self):
        assert moment(catalog("cube_half"), 2) == pytest.approx(0.0, abs=1e-12)

    def test_bad_order(self):
        with pytest.raises(PreconditionError):
            moment(single_point(), 0)

    @pytest.mark.parametrize("n,size,seed", [(2, 12, 0), (3, 9, 1), (4, 20, 2), (6, 15, 3)])
    def test_nonnegative_on_random_codes(self, n, size, seed):
        code = random_code(n, size, seed)
        for ell in range(1, 13):
            assert moment(code, ell) >= -1e-9 * size**2


class TestDesignTest:
    def test_cell24_is_22_design(self):
        cert = is_kk_design(catalog("cell24_half"), 2)
        assert cert.is_design
        assert cert.max_even_moment_residual <= 1e-9 * 144

    def test_onb_is_11_but_not_22(self):
        for n in (2, 3, 5):
            code = catalog(f"onb:{n}")
            assert is_kk_design(code, 1).is_design
            cert = is_kk_design(code, 2)
            assert not cert.is_design
            # M_4 = n + (n^2 - n) P_4(0)
            expect = n + (n * n - n) * gegenbauer(n, 4)(0.0)
            assert cert.moments[4] == pytest.approx(expect, abs=1e-10)

    def test_single_point_not_design(self):
        cert = is_kk_design(single_point(), 1)
        assert not cert.is_design
        assert cert.moments[2] == pytest.approx(1.0, abs=1e-12)

    def test_polygon_design_order_sharp(self):
        code = catalog("polygon_half:4")
        assert is_kk_design(code, 3).is_design
        assert not is_kk_design(code, 4).is_design

    def test_icosahedron_22(self):
        cert = is_kk_design(catalog("icosahedron_half"), 2)
        assert cert.is_design
        assert not is_kk_design(catalog("icosahedron_half"), 3).is_design

    @pytest.mark.parametrize("name,k", sorted(CATALOG_DESIGNS.items()))
    def test_catalog_orders_certified(self, name, k):
        assert is_kk_design(catalog(name), k).is_design

    @pytest.mark.parametrize("n,size,seed", [(3, 10, 4), (4, 7, 5)])
    def test_antipodal_closure_equivalence(self, n, size, seed):
        code = random_code(n, size, seed)
        flipped = SphericalCode.from_points(-code.points)
        for k in (1, 2):
            assert is_kk_design(code, k).is_design == is_kk_design(flipped, k).is_design
            assert is_kk_design(code, k).max_even_moment_residual == pytest.approx(
                is_kk_design(flipped, k).max_even_moment_residual, rel=1e-12)


def scipy_moment(code, ell):
    """The degree-ell moment from scipy's Gegenbauer polynomials (Chebyshev
    on the circle), normalized to 1 at t = 1."""
    t = np.clip(code.gram(), -1.0, 1.0)
    if code.n == 2:
        return float(np.sum(np.cos(ell * np.arccos(t))))
    lam = (code.n - 2) / 2.0
    return float(np.sum(eval_gegenbauer(ell, lam, t)) / eval_gegenbauer(ell, lam, 1.0))


CATALOG_CODES = ([f"onb:{n}" for n in range(2, 7)] + [f"cross_half:{n}" for n in range(2, 6)]
                 + [f"simplex_frame:{n}" for n in range(2, 7)]
                 + [f"polygon_half:{m}" for m in range(1, 10)]
                 + ["cube_half", "icosahedron_half", "cell24_half"])


class TestRecurrenceMoments:
    """Moments by the three-term recurrence on the Gram matrix, which holds
    its accuracy where the monomial coefficients of P_ell do not."""

    @pytest.mark.parametrize("n,size,seed", [(2, 30, 6), (3, 25, 7), (5, 40, 8)])
    def test_matches_scipy_to_degree_40(self, n, size, seed):
        code = random_code(n, size, seed)
        for ell in (1, 2, 7, 10, 25, 40):
            assert moment(code, ell) == pytest.approx(
                scipy_moment(code, ell), rel=0.0, abs=1e-11 * size**2)

    def test_polygons_are_designs_below_their_size(self):
        # polygon_half:m is a (k,k)-design exactly for k < m; the monomial
        # coefficients read 1.26e-5 at m = 31, k = 15, above the 9.61e-7
        # tolerance.  The test at k = m - 1 covers every k < m: its moments
        # extend theirs (test_moments_from_one_pass) under the same tol.
        for m in range(3, 82):
            code = catalog(f"polygon_half:{m}")
            cert = is_kk_design(code, m - 1)
            assert cert.is_design, (m, cert.max_even_moment_residual)
            assert not is_kk_design(code, m).is_design

    @pytest.mark.parametrize("name", CATALOG_CODES)
    def test_catalog_verdicts_match_monomial_basis(self, name):
        # at degree <= 10 the monomial coefficients are accurate to ~1e-13
        code = catalog(name)
        gram = code.gram()
        for k in range(1, 6):
            by_coeffs = max(abs(float(np.sum(gegenbauer(code.n, ell)(gram))))
                            for ell in range(2, 2 * k + 1, 2))
            cert = is_kk_design(code, k)
            assert cert.is_design == (by_coeffs <= cert.tol)
            assert cert.max_even_moment_residual == pytest.approx(
                by_coeffs, rel=1e-9, abs=1e-11)

    def test_moments_from_one_pass(self):
        code = random_code(3, 12, 9)
        cert = is_kk_design(code, 4)
        assert sorted(cert.moments) == [2, 4, 6, 8]
        for ell, value in cert.moments.items():
            assert value == moment(code, ell)
        for k in (1, 2, 3):
            lower = is_kk_design(code, k)
            assert lower.tol == cert.tol
            assert lower.moments == {ell: cert.moments[ell] for ell in lower.moments}


class TestWaring:
    def test_onb_example(self):
        code = catalog("onb:4")
        x = np.array([1.0, 0.0, 0.0, 0.0])
        assert waring_residual(code, x, 2) == pytest.approx(0.0, abs=1e-12)

    def test_cube_half_example(self):
        code = catalog("cube_half")
        assert waring_residual(code, [1.0, 0.0, 0.0], 2) == pytest.approx(0.0, abs=1e-12)

    def test_single_point(self):
        code = single_point(3)
        got = waring_residual(code, [1.0, 0.0, 0.0], 2)
        assert got == pytest.approx(1.0 - 1.0 / 3.0, abs=1e-12)

    def test_design_constancy_random_directions(self):
        # (2,2)-design: degree-4 power sums are direction independent
        code = catalog("cell24_half")
        rng = np.random.default_rng(8)
        for _ in range(25):
            x = rng.standard_normal(4)
            x /= np.linalg.norm(x)
            assert abs(waring_residual(code, x, 4)) <= 1e-9 * code.size

    def test_rejects_odd_power(self):
        with pytest.raises(PreconditionError):
            waring_residual(single_point(), [1.0, 0.0, 0.0], 3)

    def test_rejects_off_sphere_point(self):
        with pytest.raises(PreconditionError):
            waring_residual(single_point(), [0.5, 0.0, 0.0], 2)

    def test_rejects_nan_point(self):
        with pytest.raises(PreconditionError):
            waring_residual(single_point(), [math.nan, 0.0, 0.0], 2)


class TestCoveringRadius:
    def test_cube_half(self):
        r, witness, _ = covering_radius_r(catalog("cube_half"))
        assert r == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)
        assert np.max(np.abs(witness)) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_onb(self, n):
        r, witness, _ = covering_radius_r(catalog(f"onb:{n}"))
        assert r == pytest.approx(1.0 / math.sqrt(n), abs=1e-9)
        assert np.abs(witness) == pytest.approx(np.full(n, 1.0 / math.sqrt(n)), abs=1e-6)

    @pytest.mark.parametrize("m", [3, 5, 8])
    def test_polygon_exact(self, m):
        r, witness, _ = covering_radius_r(catalog(f"polygon_half:{m}"))
        assert r == pytest.approx(math.cos(math.pi / (2 * m)), abs=1e-12)
        assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("size", [2, 3, 7, 40, 500])
    def test_circle_is_mid_gap(self, size):
        # on S^1 the deepest hole of +-C sits mid-gap, at depth cos(half
        # the largest angular gap); the hull finds it
        rng = np.random.default_rng(size)
        phis = rng.uniform(0.0, math.pi, size)
        code = SphericalCode.from_points(np.column_stack([np.cos(phis), np.sin(phis)]))
        angles = np.sort(np.concatenate([phis, phis + math.pi]))
        gaps = np.diff(np.append(angles, angles[0] + 2.0 * math.pi))
        r, witness, kind = covering_radius_r(code)
        assert kind == "exact"
        assert r == pytest.approx(math.cos(0.5 * float(np.max(gaps))), abs=1e-14)
        assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-12)

    def test_cell24(self):
        r, _, _ = covering_radius_r(catalog("cell24_half"))
        assert r == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)

    def test_single_point_high_dim(self):
        r, witness, _ = covering_radius_r(single_point(3))
        assert r <= 1e-4
        assert abs(witness[0]) <= 1e-4

    @pytest.mark.parametrize("name,k", sorted(CATALOG_DESIGNS.items()))
    def test_fazekas_levenshtein_floor(self, name, k):
        code = catalog(name)
        r, _, _ = covering_radius_r(code)
        assert r >= largest_gauss_node(code.n, k) - 1e-9

    @pytest.mark.parametrize("name", sorted(n for n in CATALOG_DESIGNS
                                            if catalog(n).n >= 3))
    def test_hull_matches_search_on_catalog(self, name):
        code = catalog(name)
        r, _, kind = covering_radius_r(code)
        searched, _ = _covering_radius_search(code.points, 0)
        assert r == pytest.approx(searched, abs=1e-12)
        assert kind == "exact"

    @settings(max_examples=12, deadline=None)
    @given(n=st.integers(3, 6), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_hull_radius_property(self, n, data, seed):
        code = random_code(n, data.draw(st.integers(n, 40)), seed)
        r, witness, _ = covering_radius_r(code)
        assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-12)
        assert r == pytest.approx(np.max(np.abs(code.points @ witness)), abs=1e-12)
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((4096, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        sampled = np.min(np.max(np.abs(dirs @ code.points.T), axis=1))
        assert r <= sampled + 1e-12
        searched, _ = _covering_radius_search(code.points, 0)
        assert searched == pytest.approx(r, abs=1e-12)

    @pytest.mark.parametrize("points", [
        [[1.0, 0.0, 0.0, 0.0], [0.0, 0.6, 0.8, 0.0]],
        random_code(3, 10, 7).points @ np.eye(3, 4),
    ], ids=["fewer_points_than_dimensions", "coordinate_hyperplane"])
    def test_rank_deficient_is_zero(self, points):
        code = SphericalCode.from_points(points)
        r, witness, kind = covering_radius_r(code)
        assert r == 0.0
        assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(code.points @ witness)) <= 1e-12
        assert kind == "exact"

    def test_nearly_flat_code_falls_back_to_search(self):
        code = nearly_flat_code()
        with pytest.raises(QhullError):
            ConvexHull(np.vstack([code.points, -code.points]))
        r, witness, kind = covering_radius_r(code)
        assert kind == "upper_estimate"
        assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-12)
        assert r == pytest.approx(np.max(np.abs(code.points @ witness)), abs=1e-15)
        # the deepest hole sits at the flattened axis, where |x . x_i| ~ 1e-14
        assert r <= 1e-12

    @pytest.mark.parametrize("code", [
        catalog(name) for name in sorted(CATALOG_DESIGNS) if catalog(name).n >= 3
    ] + [random_code(4, 9, 1), random_code(5, 30, 2), random_code(8, 120, 3)],
        ids=lambda c: f"{c.n}x{c.size}")
    def test_search_witness_is_a_facet_pole(self, code):
        r, witness = _covering_radius_search(code.points, 0)
        assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-12)
        dots = code.points @ witness
        assert r == np.max(np.abs(dots))
        on_facet = np.abs(dots) >= r - 1e-12
        assert np.count_nonzero(on_facet) >= code.n
        # the foot r w is a convex combination of the facet's points
        facet = np.sign(dots[on_facet])[:, None] * code.points[on_facet]
        system = np.vstack([facet.T, np.ones(len(facet))])
        _, residual = optimize.nnls(system, np.append(r * witness, 1.0))
        assert residual <= 1e-10

    def test_capped_search_beats_sampled_minimax(self):
        code = random_code(8, 120, 4)
        r, witness, kind = covering_radius_r(code, seed=4)
        assert kind == "upper_estimate"
        assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-12)
        assert r == np.max(np.abs(code.points @ witness))
        dirs = np.random.default_rng(4).standard_normal((4096, 8))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        assert r <= np.min(np.max(np.abs(dirs @ code.points.T), axis=1))

    def test_upper_bound_theorem_counts(self):
        assert max_hull_facets(2, 7) == 7
        assert max_hull_facets(3, 12) == 20
        # the cyclic 4-polytope with 8 vertices has 20 facets
        assert max_hull_facets(4, 8) == 20

    def test_facet_cap_sends_large_codes_to_search(self):
        assert max_hull_facets(8, 240) > HULL_FACET_CAP
        assert covering_radius_r(random_code(8, 120, 0))[2] == "upper_estimate"
        for n, size in [(3, 200), (5, 40), (6, 12), (6, 40)]:
            assert max_hull_facets(n, 2 * size) <= HULL_FACET_CAP


def structured_seeds_loop(points):
    """Per-row reference for the vectorized _structured_seeds."""
    m, n = points.shape
    seeds = [points[i] for i in range(m)]
    seeds.extend(np.eye(n))
    for i in range(m):
        for j in range(i + 1, m):
            for combo in (points[i] + points[j], points[i] - points[j]):
                nrm = np.linalg.norm(combo)
                if nrm > 1e-9:
                    seeds.append(combo / nrm)
    if m <= 10:
        for signs in itertools.product((1.0, -1.0), repeat=m - 1):
            combo = points[0] + np.tensordot(np.array(signs), points[1:], axes=1)
            nrm = np.linalg.norm(combo)
            if nrm > 1e-9:
                seeds.append(combo / nrm)
    return np.vstack(seeds)


def antipodal_code():
    """A random code in R^4 with an antipodal pair: x_0 + x_7 = 0, so
    _unit_rows drops that pair row and copies the rows it keeps."""
    points = random_code(4, 7, 5).points
    return SphericalCode.from_points(np.vstack([points, -points[:1]]))


class TestStructuredSeeds:
    @pytest.mark.parametrize("code", [
        catalog("cube_half"), catalog("onb:4"), catalog("cell24_half"),
        catalog("icosahedron_half"), catalog("polygon_half:5"),
        random_code(3, 1, 0), random_code(5, 10, 1), random_code(8, 11, 2),
        random_code(3, 40, 3), antipodal_code(),
    ], ids=lambda c: f"{c.n}x{c.size}")
    def test_same_rows_as_loop(self, code):
        assert np.array_equal(_structured_seeds(code.points),
                              structured_seeds_loop(code.points))


# the (n, N) shapes of the random_codes benchmark workload
RANDOM_CODE_SHAPES = [(3, 200), (8, 120), (5, 40), (6, 12)]
SEED_CODES = ([random_code(n, n + 4, n) for n in range(2, 9)]
              + [random_code(n, size, size) for n, size in RANDOM_CODE_SHAPES])


class TestSphereSeeds:
    """The covering search gets bitwise the seed rows it built for itself
    before it shared _sphere_seeds with the extremization screen (pinned in
    test_polarization): argsort orders tied scores by row."""

    @pytest.mark.parametrize("code", SEED_CODES, ids=lambda c: f"{c.n}x{c.size}")
    def test_covering_search_rows(self, monkeypatch, code):
        built = []
        sphere_seeds = codes._sphere_seeds

        def recording(*args):
            built.append(sphere_seeds(*args))
            return built[-1]

        monkeypatch.setattr(codes, "_sphere_seeds", recording)
        _covering_radius_search(code.points, 3)
        expected = reference_covering_seeds(code.points, 3)
        if code.n == 2:
            # the circle rows, which the covering search gained with the
            # shared seeds; the hull handles every code on the circle
            cut = len(_structured_seeds(code.points))
            circle = code.points @ np.array([[0.0, 1.0], [-1.0, 0.0]])
            expected = np.vstack([expected[:cut], circle, expected[cut:]])
        assert len(built) == 1
        assert np.array_equal(built[0], expected)


def ratio_case(rows, direction, basis, ys=(0.0, 0.0)):
    """One start, as three copies (so blocks of two starts fold a lone
    last one), in R^2 with one direction."""
    return (np.array(rows, dtype=float), np.tile(ys, (3, 1)),
            np.tile(direction, (3, 1, 1)), np.tile(basis, (3, 1)))


# a unit direction's floor, below which a rate does not stop a step
FLOOR = 8.0 * np.finfo(float).eps
ABOVE_FLOOR = np.nextafter(FLOOR, 1.0)

# (rows, direction, basis, ys) -> (step, stopper); at ys = 0 every finite
# row has slack 1, so a stopping row's ratio is 1 / rate
RATIO_CASES = {
    "rate_at_floor": (ratio_case([[0, 1], [FLOOR, 0]], [1, 0], [0]), (math.inf, 0)),
    "rate_above_floor": (ratio_case([[0, 1], [ABOVE_FLOOR, 0]], [1, 0], [0]),
                         (1.0 / ABOVE_FLOOR, 1)),
    "rate_zero_or_negative": (ratio_case([[0, 1], [0, 1], [-1, 0], [0.5, 0]], [1, 0], [0]),
                              (2.0, 3)),
    "nan_rate": (ratio_case([[0, 1], [math.nan, 0], [0.25, 0]], [1, 0], [0]), (4.0, 2)),
    "nan_direction": (ratio_case([[0, 1], [0.5, 0]], [math.nan, 0], [0]), (math.inf, 0)),
    "basis_row_with_positive_rate": (ratio_case([[0.5, 0], [0.25, 0]], [1, 0], [0]), (4.0, 1)),
    "no_row_stops": (ratio_case([[0, 1], [FLOOR, 0], [0, -1], [-1, 0], [math.nan, 0]],
                                [1, 0], [0]), (math.inf, 0)),
    "tie": (ratio_case([[0, 1], [0.25, 0], [0.5, 0], [0.5, 0]], [1, 0], [0]), (2.0, 2)),
    "tie_at_zero_slack": (ratio_case([[0, 1], [0.5, 0.5], [1, 0], [1, 0]], [1, 0], [0],
                                     ys=(1.0, 0.0)), (0.0, 2)),
}


def random_ratio_block(rng, n, size, starts, edges):
    """A ratio test on +-C of a random code: starts on the boundary of
    {y : |x_i . y| <= 1}, random directions, edges distinct basis rows."""
    points = unit_rows(rng, size, n)
    rows = np.vstack([points, -points])
    ys = unit_rows(rng, starts, n)
    ys /= np.max(np.abs(ys @ points.T), axis=1)[:, None]
    dirs = rng.standard_normal((starts, edges, n))
    basis = np.array([rng.choice(2 * size, edges, replace=False) for _ in range(starts)])
    return rows, ys, dirs, basis


class TestRatioTest:
    """The branch-free ratio test against the np.where select it replaced:
    step and stopper bitwise the same, in any row blocks."""

    @pytest.fixture(params=[BLOCK_ENTRIES, 2], ids=["default_blocks", "blocks_of_2"])
    def blocks(self, request, monkeypatch):
        monkeypatch.setattr(codes, "BLOCK_ENTRIES", request.param)

    @staticmethod
    def assert_bitwise(args):
        step, stopper = _ratio_test(*args)
        ref_step, ref_stopper = reference_ratio_test(*args)
        assert step.tobytes() == ref_step.tobytes()
        assert np.array_equal(stopper, ref_stopper)
        return step, stopper

    @pytest.mark.parametrize("n,size,starts,edges", [
        (8, 120, 17, 8), (8, 120, 48, 1), (3, 200, 5, 3), (5, 40, 33, 5), (6, 12, 1, 6)])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_blocks(self, blocks, n, size, starts, edges, seed):
        rng = np.random.default_rng(1000 * seed + 10 * n + edges)
        args = random_ratio_block(rng, n, size, starts, edges)
        step, _ = self.assert_bitwise(args)
        # +-C surrounds the origin, so some row stops nearly every step
        assert np.mean(np.isfinite(step)) > 0.5

    @pytest.mark.parametrize("case", sorted(RATIO_CASES))
    def test_hand_built_rows(self, blocks, case):
        args, (expected_step, expected_stopper) = RATIO_CASES[case]
        step, stopper = self.assert_bitwise(args)
        assert np.all(step == expected_step)
        assert np.all(stopper == expected_stopper)

    @pytest.mark.parametrize("code", [
        pytest.param(random_code(n, size, size), id=f"{n}x{size}")
        for n, size in RANDOM_CODE_SHAPES
    ] + [pytest.param(random_code(8, 120, 100 + seed), id=f"8x120_seed{100 + seed}")
         for seed in range(20)] + [pytest.param(nearly_flat_code(), id="nearly_flat")] + [
        pytest.param(catalog(name), id=name)
        for name in sorted(CATALOG_DESIGNS) if catalog(name).n >= 3])
    def test_search_same_as_reference(self, monkeypatch, code):
        radius, witness = _covering_radius_search(code.points, 3)
        monkeypatch.setattr(codes, "_ratio_test", reference_ratio_test)
        ref_radius, ref_witness = _covering_radius_search(code.points, 3)
        assert radius == ref_radius
        assert witness.tobytes() == ref_witness.tobytes()


class TestDeepRowBlocks:
    """Above n = 16 a row block holds BLOCK_ENTRIES * 16 / n entries, so
    that its GEMM runs on one OpenBLAS thread, and a short last block takes
    rows of the block before up to a full block; _row_reduce and the ratio
    test stay bitwise those of one pass."""

    @pytest.mark.parametrize("n", [3, 8, 16, 24, 32])
    def test_blocks_shrink_only_above_16(self, n):
        step = BLOCK_ENTRIES * 16 // max(n, 16) // 200
        assert list(codes._row_blocks(2 * step + 1, 200, n)) == [
            slice(0, step), slice(step, 2 * step), slice(step + 1, 3 * step)]

    @pytest.mark.parametrize("n", [24, 32])
    @pytest.mark.parametrize("last", [1, 2, 5, 40])
    def test_row_reduce_one_pass(self, monkeypatch, n, last):
        # last: the rows past the last full block
        rng = np.random.default_rng(n + last)
        points = unit_rows(rng, 200, n)
        mat = unit_rows(rng, 3 * (BLOCK_ENTRIES * 16 // n // 200) + last, n)
        whole = mat @ points.T
        for reduce in (lambda d: np.sum(d, axis=1), lambda d: np.max(d, axis=1)):
            blocked = codes._row_reduce(points, mat, reduce)
            assert blocked.tobytes() == reduce(whole.copy()).tobytes()
            with monkeypatch.context() as one_block:
                one_block.setattr(codes, "BLOCK_ENTRIES", 2 ** 62)
                single = codes._row_reduce(points, mat, reduce)
            assert blocked.tobytes() == single.tobytes()

    @pytest.mark.parametrize("n", [24, 32])
    @pytest.mark.parametrize("edges", [1, "n"])
    def test_ratio_test_one_pass(self, monkeypatch, n, edges):
        # the vertex ascent's two shapes: one direction per start while it
        # collects its basis, n edges per start at a vertex
        edges = n if edges == "n" else edges
        rng = np.random.default_rng(100 + n + edges)
        size = 120 if edges > 1 else 1000
        args = random_ratio_block(rng, n, size, 17, edges)
        assert len(list(codes._row_blocks(17, edges * 2 * size, n))) > 1
        step, stopper = _ratio_test(*args)
        monkeypatch.setattr(codes, "BLOCK_ENTRIES", 2 ** 62)
        whole_step, whole_stopper = _ratio_test(*args)
        assert step.tobytes() == whole_step.tobytes()
        assert np.array_equal(stopper, whole_stopper)
        assert np.mean(np.isfinite(step)) > 0.5


class TestWelch:
    @pytest.mark.parametrize("n,size,seed", [(2, 9, 10), (3, 14, 11), (5, 30, 12)])
    def test_lower_bound_random(self, n, size, seed):
        code = random_code(n, size, seed)
        frob = float(np.sum(code.gram() ** 2))
        assert frob >= size**2 / n - 1e-9

    @pytest.mark.parametrize("name", sorted(CATALOG_DESIGNS))
    def test_equality_on_designs(self, name):
        code = catalog(name)
        frob = float(np.sum(code.gram() ** 2))
        assert frob == pytest.approx(code.size**2 / code.n, abs=1e-9)


class TestCatalog:
    def test_cube_half_inner_products(self):
        code = catalog("cube_half")
        assert code.size == 4
        gram = code.gram()
        off = gram[~np.eye(4, dtype=bool)]
        assert np.abs(off) == pytest.approx(np.full(12, 1.0 / 3.0), abs=1e-14)

    def test_simplex_frame_inner_products(self):
        for n in (2, 3, 6):
            code = catalog(f"simplex_frame:{n}")
            assert code.size == n + 1
            gram = code.gram()
            off = gram[~np.eye(n + 1, dtype=bool)]
            assert off == pytest.approx(np.full(n * (n + 1), -1.0 / n), abs=1e-12)

    def test_cross_half_equals_onb(self):
        assert np.array_equal(catalog("cross_half:4").points, catalog("onb:4").points)

    def test_sizes(self):
        assert catalog("icosahedron_half").size == 6
        assert catalog("cell24_half").size == 12
        assert catalog("polygon_half:7").size == 7
        assert catalog("cell24_half").n == 4

    @pytest.mark.parametrize("bad", [
        "onb", "onb:1", "cube_half:3", "dodecahedron", "polygon_half:x",
        "simplex_frame:-2",
    ])
    def test_unknown_or_malformed(self, bad):
        with pytest.raises(PreconditionError):
            catalog(bad)


class TestIO:
    def test_round_trip(self, tmp_path):
        code = catalog("cube_half")
        path = tmp_path / "cube.json"
        save_code(code, path)
        again = load_code(path)
        assert again.n == 3
        assert np.max(np.abs(again.points - code.points)) <= 1e-15

    def test_save_writes_the_code_file_schema(self, tmp_path):
        code = catalog("cube_half")
        path = tmp_path / "cube.json"
        save_code(code, path)
        payload = {"dim": code.n,
                   "points": [[float(v) for v in row] for row in code.points]}
        assert path.read_text() == json.dumps(payload, indent=2) + "\n"

    def test_rejects_nan_row(self, tmp_path):
        # Python's json reads NaN; the row must not pass the norm test
        path = tmp_path / "nan.json"
        path.write_text('{"dim": 3, "points": [[NaN, 0, 0], [0, 1, 0]]}')
        with pytest.raises(CodeFormatError) as err:
            load_code(path)
        assert str(err.value) == (
            "row norms must be within 1e-9 of 1 (row 0 has norm nan)")

    def test_rejects_short_norm(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dim": 3, "points": [[0.5, 0.0, 0.0]]}))
        with pytest.raises(CodeFormatError):
            load_code(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"dim": 3, "points": []}))
        with pytest.raises(CodeFormatError):
            load_code(path)

    def test_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(CodeFormatError):
            load_code(path)

    def test_rejects_dim_mismatch(self, tmp_path):
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps({"dim": 4, "points": [[1.0, 0.0, 0.0]]}))
        with pytest.raises(CodeFormatError):
            load_code(path)

    def test_rejects_duplicates(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(
            {"dim": 2, "points": [[1.0, 0.0], [1.0, 0.0]]}))
        with pytest.raises(CodeFormatError):
            load_code(path)

    @pytest.mark.parametrize("payload,message", [
        ({"dim": 3, "points": [[0.5, 0.0, 0.0]]},
         "row norms must be within 1e-9 of 1 (worst error 5.000e-01)"),
        ({"dim": 1, "points": [[1.0], [-1.0]]},
         "need a nonempty 2-D array of vectors with dimension >= 2, "
         "got shape (2, 1)"),
        ({"dim": 1, "points": [[0.5]]},
         "row norms must be within 1e-9 of 1 (worst error 5.000e-01)"),
        ({"dim": 2, "points": [[1.0, 0.0], [0.0, 1.0], [1.0 + 5e-10, 0.0]]},
         "repeated point: rows 0 and 2 coincide"),
        ({"dim": 2, "points": [1.0, 0.0]},
         "a code must contain at least one point"),
        ({"dim": 3, "points": [[1.0, 0.0]]},
         "dim says 3 but points have 2 coordinates"),
        ({"dim": 2, "points": [[1.0, 0.0], [0.0]]},
         "points must be a rectangular numeric array"),
    ])
    def test_error_messages(self, tmp_path, payload, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CodeFormatError) as err:
            load_code(path)
        assert str(err.value) == message

    def test_renormalizes_slightly_off_rows(self, tmp_path):
        path = tmp_path / "off.json"
        path.write_text(json.dumps(
            {"dim": 2, "points": [[1.0 + 5e-10, 0.0], [0.0, 1.0]]}))
        code = load_code(path)
        assert np.linalg.norm(code.points[0]) == pytest.approx(1.0, abs=1e-15)
