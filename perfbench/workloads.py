"""Seeded input generation for the benchmark workloads.

Every workload is a stream of blocks of CLI calls.  The same seed gives the
same argv lists and the same code files.  Only inputs that the theory admits are
emitted: anchors sit strictly inside (largest Gauss node, 1), p-frame
exponents are even so both bound branches apply, report grids lie inside
the admissible range, and potentials that blow up at t = +-1 only get the
anchored upper bound.

Cost-relevant structure (call type, potential family, k band, code size) is
balanced within every block, so blocks drawn from different seeds load the
program about equally; the seed draws everything else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import roots_gegenbauer

WORKLOADS = ("bounds_sweep", "high_k", "certify_catalog", "random_codes")

# Workloads on which every call passes at the seed; high_k is run on demand
# and records the share of calls the monomial-basis route gets wrong.
LISTED_WORKLOADS = ("bounds_sweep", "certify_catalog", "random_codes")

# (n, N) of the random codes: N spans 12..200 and n spans 3..8, uncorrelated.
RANDOM_CODE_SHAPES = ((3, 200), (8, 120), (5, 40), (6, 12))
RANDOM_CODE_POTENTIALS = ("cosh", "monomial:k=1", "riesz:m=1", "pframe:p=4")

# Riesz exponents: bounds_sweep stays where m < n - 1 for every n it draws,
# so the potential is integrable on the sphere.  Above that, at k 8-10 and
# anchors near 1, the anchored bound's one-sided margin falls below the
# declared -1e-9 (a finding, see README.md); high_k keeps that range.
RIESZ_M_MAX = 2.0
HYPERSINGULAR_RIESZ_M_MAX = 4.0

SAMPLE_DIRECTIONS = 10_000
REPLICATES = 5


@dataclass
class Case:
    """One CLI call and what the checker needs to judge its output."""

    kind: str
    argv: list[str]
    params: dict = field(default_factory=dict)


def largest_gauss_node(n: int, k: int) -> float:
    """Top root of the degree-(k+1) Gegenbauer polynomial for dimension n,
    from scipy, independent of the program under test."""
    nodes, _ = roots_gegenbauer(k + 1, (n - 2) / 2.0)
    return float(np.max(nodes))


def _strata(rng, count: int, lo: int, hi: int) -> list[int]:
    """One integer from each of `count` equal bins of [lo, hi], shuffled."""
    edges = np.linspace(lo, hi + 1, count + 1)
    vals = [min(hi, int(np.floor(rng.uniform(edges[i], edges[i + 1]))))
            for i in range(count)]
    rng.shuffle(vals)
    return vals


def _potential(rng, family: str, k: int, riesz_max: float) -> str:
    if family == "monomial":
        return f"monomial:k={int(rng.integers(1, k + 3))}"
    if family == "pframe":
        return f"pframe:p={2 * int(rng.integers(1, k + 3))}"
    if family == "riesz":
        return f"riesz:m={round(float(rng.uniform(0.5, riesz_max)), 3):g}"
    return family


def _anchor(rng, n: int, k: int, lo: float, hi: float) -> float:
    low = largest_gauss_node(n, k)
    return low + float(rng.uniform(lo, hi)) * (1.0 - low)


def bounds_block(rng, k_lo: int, k_hi: int, riesz_max: float) -> list[Case]:
    """`bounds` (finite and anchored) and `report` calls.  Per replicate:
    finite bounds for the three potentials with finite h(1), anchored
    bounds for all five families, and one report sweep whose family
    rotates, so a block holds each family's report once.  Each cell's k
    values cover [k_lo, k_hi] in equal bands across the replicates; a
    report's grid has 4 points in the lowest k band and one more per band,
    so every block holds the same spread of report sizes."""
    families = ("monomial", "pframe", "cosh", "riesz", "arcsine")
    cells = ([("finite", f) for f in families[:3]]
             + [("anchored", f) for f in families]
             + [("report", None)])
    ks = {cell: _strata(rng, REPLICATES, k_lo, k_hi) for cell in cells}
    report_families = list(rng.permutation(families))
    report_ks = ks[("report", None)]
    report_points = [4 + sorted(report_ks).index(k) for k in report_ks]
    block = []
    for rep in range(REPLICATES):
        for cell in cells:
            call, family = cell
            k = ks[cell][rep]
            n = int(rng.integers(3, 9))
            N = int(rng.integers(2, 1001))
            if call == "report":
                family = report_families[rep]
            pot = _potential(rng, family, k, riesz_max)
            argv = ["--n", str(n), "--k", str(k), "--N", str(N), "--pot", pot]
            params = {"n": n, "k": k, "N": N, "pot": pot}
            if call == "finite":
                block.append(Case("bounds", ["bounds"] + argv, params))
            elif call == "anchored":
                s = _anchor(rng, n, k, 0.1, 0.9)
                block.append(Case("bounds", ["bounds"] + argv + ["--s", repr(s)],
                                  dict(params, s=s)))
            else:
                s_min = _anchor(rng, n, k, 0.05, 0.5)
                s_max = _anchor(rng, n, k, 0.55, 0.95)
                points = report_points[rep]
                block.append(Case(
                    "report",
                    ["report"] + argv + ["--s-min", repr(s_min), "--s-max",
                                         repr(s_max), "--points", str(points)],
                    dict(params, s_min=s_min, s_max=s_max, points=points)))
    return [block[i] for i in rng.permutation(len(block))]


def certify_catalog_block(rng, seed: int) -> list[Case]:
    """Every catalog design against Riesz, p-frame, cosh and the monomial of
    matching degree, at the design's own order."""
    from kkpolar.codes import CATALOG_DESIGNS

    block = []
    for name, order in sorted(CATALOG_DESIGNS.items()):
        for pot in ("riesz:m=2", "pframe:p=4", "cosh", f"monomial:k={order}"):
            block.append(Case(
                "certify_catalog",
                ["certify", "--code", f"catalog:{name}", "--k", str(order),
                 "--pot", pot, "--seed", str(seed)],
                {"code": name, "k": order, "pot": pot}))
    return [block[i] for i in rng.permutation(len(block))]


def random_unit_rows(rng, count: int, n: int) -> np.ndarray:
    raw = rng.standard_normal((count, n))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def random_codes_block(rng, seed: int, index: int, workdir: Path) -> list[Case]:
    """`polarize --direction both` and `certify --k 1` on fresh seeded random
    codes written to `workdir`, one per shape.  Shapes and potentials are
    fixed per slot; the seed draws the points."""
    block = []
    for slot, ((n, N), pot) in enumerate(zip(RANDOM_CODE_SHAPES,
                                             RANDOM_CODE_POTENTIALS)):
        points = random_unit_rows(rng, N, n)
        path = workdir / f"code{index}-{slot}.json"
        path.write_text(json.dumps({"dim": n, "points": points.tolist()}))
        params = {"n": n, "N": N, "pot": pot, "path": str(path)}
        block.append(Case("polarize_random",
                          ["polarize", "--code", str(path), "--pot", pot,
                           "--direction", "both", "--seed", str(seed)], params))
        block.append(Case("certify_random",
                          ["certify", "--code", str(path), "--k", "1",
                           "--pot", pot, "--seed", str(seed)], params))
    return [block[i] for i in rng.permutation(len(block))]


def make_block(workload: str, seed: int, index: int, workdir: Path) -> list[Case]:
    """Block `index` of the workload's call stream.  A run makes whole
    blocks; each block is balanced on its own, so any number of blocks
    loads the program alike.  Catalog blocks repeat the same calls."""
    rng = np.random.default_rng([seed, index])
    if workload == "bounds_sweep":
        return bounds_block(rng, 1, 10, RIESZ_M_MAX)
    if workload == "high_k":
        return bounds_block(rng, 11, 24, HYPERSINGULAR_RIESZ_M_MAX)
    if workload == "certify_catalog":
        return certify_catalog_block(np.random.default_rng(seed), seed)
    if workload == "random_codes":
        return random_codes_block(rng, seed, index, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# One fixed call per subcommand, run once before timing so lazy set-up in
# numpy, scipy and the program has finished.  Fixed, not seeded, so set-up
# time does not depend on the seed.
WARMUP = {
    "bounds_sweep": (["bounds", "--n", "3", "--k", "2", "--N", "6",
                      "--pot", "cosh"],
                     ["report", "--n", "3", "--k", "2", "--N", "6",
                      "--pot", "riesz:m=2", "--points", "4"]),
    "certify_catalog": (["certify", "--code", "catalog:cube_half", "--k", "1",
                         "--pot", "pframe:p=4"],),
    "random_codes": (["polarize", "--code", "catalog:cube_half",
                      "--pot", "cosh"],
                     ["certify", "--code", "catalog:cube_half", "--k", "1",
                      "--pot", "cosh"]),
}
WARMUP["high_k"] = WARMUP["bounds_sweep"]
