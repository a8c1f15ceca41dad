"""Command-line front end.

Every subcommand prints a single JSON document to stdout whose header
echoes the resolved configuration, so runs are self-describing and, with
--seed fixed, byte-identical.  The report objects go into the document as
they are: a dataclass is written as its fields in declaration order, those
whose value is None left out, so each report's fields are its schema.
Exit codes: 0 success, 2 precondition violation (inadmissible anchor,
missing sign certificate, bad parameter), 1 I/O, parse, or internal
numerical failure, or exhausted memory.
`report --csv` swaps the JSON body for CSV rows, keeping the config echo
as a leading comment.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from .codes import CATALOG_DESIGNS, catalog, is_kk_design, load_code
from .errors import KkpolarError, PreconditionError
from .polarization import (Direction, certify_design, extrema, extremize,
                           lower_bound, upper_bound_finite, upper_bound_s)
from .potentials import parse_potential
from .quadrature import (largest_gauss_node, rule_alpha, rule_beta,
                         verify_exactness)
from .signed_measure import rule_lambda


def _jsonable(value):
    """Plain-JSON view of nested results: dataclasses as their fields in
    declaration order without those that are None, numpy scalars/arrays
    unwrapped, non-finite floats rendered as strings (strict JSON has no
    Infinity)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isfinite(value):
            return value
        return "inf" if value > 0 else ("-inf" if value < 0 else "nan")
    if dataclasses.is_dataclass(value):
        fields = ((f.name, getattr(value, f.name))
                  for f in dataclasses.fields(value))
        return {name: _jsonable(v) for name, v in fields if v is not None}
    return value


def _dumps(payload: dict) -> str:
    return json.dumps(_jsonable(payload), indent=2, allow_nan=False)


def _resolve_code(text: str):
    """A code argument is either catalog:<name> or a path to a code JSON."""
    if text.startswith("catalog:"):
        return catalog(text[len("catalog:"):])
    return load_code(text)


def _cmd_quad(args) -> dict:
    if args.kind == "lambda":
        if args.s is None:
            raise PreconditionError("kind=lambda requires --s")
        rule = rule_lambda(args.n, args.k, args.s)
    else:
        if args.s is not None:
            raise PreconditionError("--s only applies to kind=lambda")
        maker = rule_alpha if args.kind == "alpha" else rule_beta
        rule = maker(args.n, args.k)
    return {"rule": rule,
            "max_monomial_residual": verify_exactness(rule, args.n,
                                                      rule.exact_degree)}


def _cmd_verify(args) -> dict:
    code = _resolve_code(args.code)
    cert = is_kk_design(code, args.k)
    return {"n": code.n, "N": code.size, "is_design": cert.is_design,
            "certificate": cert}


def _cmd_bounds(args) -> dict:
    pot = parse_potential(args.pot)
    lower = lower_bound(args.n, args.k, args.N, pot)
    if args.s is not None:
        upper = upper_bound_s(args.n, args.k, args.N, args.s, pot)
    else:
        upper = upper_bound_finite(args.n, args.k, args.N, pot)
    return {"potential": pot.name, "lower": lower, "upper": upper}


def _cmd_polarize(args) -> dict:
    code = _resolve_code(args.code)
    pot = parse_potential(args.pot)
    out: dict = {"n": code.n, "N": code.size, "potential": pot.name}
    if args.direction == "both":
        low, high = extrema(code, pot, seed=args.seed, restarts=args.restarts)
        out["minimum"], out["maximum"] = low, high
    elif args.direction == "min":
        out["minimum"] = extremize(code, pot, Direction.MIN, seed=args.seed,
                                   restarts=args.restarts)
    else:
        out["maximum"] = extremize(code, pot, Direction.MAX, seed=args.seed,
                                   restarts=args.restarts)
    return out


def _cmd_certify(args) -> dict:
    code = _resolve_code(args.code)
    pot = parse_potential(args.pot)
    return {"report": certify_design(code, args.k, pot, seed=args.seed)}


def _cmd_catalog(args) -> dict:
    if args.dump is not None:
        # dim/points at top level keep the dump loadable as a code file
        return catalog(args.dump).to_dict()
    entries = []
    for name, order in sorted(CATALOG_DESIGNS.items()):
        code = catalog(name)
        entries.append({"name": name, "n": code.n, "N": code.size,
                        "design_order": order})
    return {"entries": entries}


def _cmd_report(args) -> dict:
    if args.points < 1:
        raise PreconditionError(f"--points must be at least 1, got {args.points}")
    pot = parse_potential(args.pot)
    low = largest_gauss_node(args.n, args.k)
    # [low + 0.02, 0.98] where it fits, else the middle half of (low, 1)
    default_min, default_max = ((low + 0.02, 0.98) if low <= 0.96 else
                                (low + 0.25 * (1.0 - low), low + 0.75 * (1.0 - low)))
    s_min = args.s_min if args.s_min is not None else default_min
    s_max = args.s_max if args.s_max is not None else default_max
    if not (low < s_min <= s_max < 1.0):
        raise PreconditionError(
            f"s grid [{s_min}, {s_max}] must sit inside ({low:.12g}, 1)")
    rows = []
    for s in np.linspace(s_min, s_max, args.points):
        rep = upper_bound_s(args.n, args.k, args.N, float(s), pot)
        rows.append({"s": float(s), "bound_value": rep.bound_value,
                     "one_sided_margin": rep.one_sided_margin,
                     "exactness_residual": rep.exactness_residual})
    out: dict = {"potential": pot.name, "anchor_threshold": low, "rows": rows}
    try:
        out["lower_bound"] = lower_bound(args.n, args.k, args.N,
                                         pot).bound_value
    except PreconditionError as exc:
        out["lower_bound_skipped"] = str(exc)
    try:
        out["upper_bound_finite"] = upper_bound_finite(
            args.n, args.k, args.N, pot).bound_value
    except PreconditionError as exc:
        out["upper_bound_finite_skipped"] = str(exc)
    return out


def _csv_lines(payload: dict) -> list[str]:
    header = ["s", "bound_value", "one_sided_margin", "exactness_residual"]
    lines = ["# " + json.dumps(_jsonable({"command": payload["command"],
                                          "config": payload["config"]})),
             ",".join(header)]
    for row in payload["rows"]:
        lines.append(",".join(repr(float(row[col])) for col in header))
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kkpolar",
        description="Universal polarization bounds for spherical designs")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    quad = sub.add_parser("quad", help="build a quadrature rule")
    quad.add_argument("--n", type=int, required=True)
    quad.add_argument("--k", type=int, required=True)
    quad.add_argument("--kind", choices=["alpha", "beta", "lambda"],
                      required=True)
    quad.add_argument("--s", type=float, default=None,
                      help="anchor for kind=lambda")
    quad.set_defaults(func=_cmd_quad)

    verify = sub.add_parser("verify", help="run the design moment test")
    verify.add_argument("--code", required=True,
                        help="catalog:<name> or path to a code JSON file")
    verify.add_argument("--k", type=int, required=True)
    verify.set_defaults(func=_cmd_verify)

    bounds = sub.add_parser(
        "bounds", help="universal lower and upper bounds for (k,k)-designs")
    bounds.add_argument("--n", type=int, required=True)
    bounds.add_argument("--k", type=int, required=True)
    bounds.add_argument("--N", type=int, required=True)
    bounds.add_argument("--pot", required=True,
                        help="monomial:k=.., pframe:p=.., riesz:m=.., cosh, arcsine")
    bounds.add_argument("--s", type=float, default=None,
                        help="use the anchored upper bound at this s")
    bounds.set_defaults(func=_cmd_bounds)

    polarize = sub.add_parser(
        "polarize", help="extremize the potential sum over the sphere")
    polarize.add_argument("--code", required=True)
    polarize.add_argument("--pot", required=True)
    polarize.add_argument("--direction", choices=["min", "max", "both"],
                          default="both")
    polarize.add_argument("--seed", type=int, default=0)
    polarize.add_argument("--restarts", type=int, default=None,
                          help="random seed directions (>= 1); at least 128, "
                               "and min(1024, 2^15 / N) for a potential "
                               "smooth at orthogonality, are screened")
    polarize.set_defaults(func=_cmd_polarize)

    certify = sub.add_parser(
        "certify", help="design test plus bound/extremum cross-checks")
    certify.add_argument("--code", required=True)
    certify.add_argument("--k", type=int, required=True)
    certify.add_argument("--pot", required=True)
    certify.add_argument("--seed", type=int, default=0)
    certify.set_defaults(func=_cmd_certify)

    cat = sub.add_parser("catalog", help="list or dump reference codes")
    cat.add_argument("--dump", default=None, metavar="NAME",
                     help="print the named code in the code-file schema")
    cat.set_defaults(func=_cmd_catalog)

    report = sub.add_parser(
        "report", help="anchored upper bound swept over s (plot-ready)")
    report.add_argument("--n", type=int, required=True)
    report.add_argument("--k", type=int, required=True)
    report.add_argument("--N", type=int, required=True)
    report.add_argument("--pot", required=True)
    report.add_argument("--points", type=int, default=8)
    report.add_argument("--s-min", dest="s_min", type=float, default=None)
    report.add_argument("--s-max", dest="s_max", type=float, default=None)
    report.add_argument("--csv", action="store_true")
    report.set_defaults(func=_cmd_report)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one:
    parsing leaves no state in it, and each handler looks up what it calls
    when it runs."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    config = {key: value for key, value in sorted(vars(args).items())
              if key not in ("func", "subcommand")}
    payload: dict = {"command": args.subcommand, "config": config}
    try:
        payload.update(args.func(args))
        status = 0
    except PreconditionError as exc:
        payload["error"] = str(exc)
        status = 2
    except (KkpolarError, OSError) as exc:
        payload["error"] = str(exc)
        status = 1
    except MemoryError as exc:
        payload["error"] = f"out of memory: {exc}"
        status = 1
    if status == 0 and args.subcommand == "report" and args.csv:
        print("\n".join(_csv_lines(payload)))
    else:
        print(_dumps(payload))
    return status


if __name__ == "__main__":
    sys.exit(main())
