"""Universal lower and upper bounds on discrete potentials of spherical
(k,k)-designs: quadrature rules, one-sided Hermite interpolants, design
tests, exact covering radius, and multistart sphere extremization, plus a
CLI front end.

Typical use:

    from kkpolar import catalog, certify_design, p_frame
    report = certify_design(catalog("cube_half"), 1, p_frame(4))
    assert report.all_passed
"""

from .codes import (CATALOG_DESIGNS, DesignCertificate, SphericalCode,
                    catalog, covering_radius_r, is_kk_design, load_code,
                    moment, save_code, waring_residual)
from .errors import (CodeFormatError, KkpolarError, NumericalDegeneracyError,
                     PreconditionError)
from .interpolants import Side, verify_one_sided
from .polarization import (BoundReport, CertificationReport, CheckResult,
                           Direction, ExtremizationResult, certify_design,
                           extrema, extremize, lower_bound, potential_U,
                           upper_bound_finite, upper_bound_s)
from .polynomials import monomial_moment
from .potentials import (Potential, SignState, arcsine, certify_sign, eval_h,
                         gaussian_sym, monomial_2k, p_frame,
                         parse_potential, riesz_sym, user_potential)
from .quadrature import (QuadratureRule, largest_gauss_node, rule_alpha,
                         rule_beta, verify_exactness)
from .signed_measure import rule_lambda

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "CATALOG_DESIGNS", "CertificationReport", "CheckResult",
    "CodeFormatError", "DesignCertificate", "Direction", "ExtremizationResult",
    "KkpolarError", "NumericalDegeneracyError", "Potential",
    "PreconditionError", "QuadratureRule", "Side",
    "SignState", "SphericalCode", "arcsine", "catalog", "certify_design",
    "certify_sign", "covering_radius_r", "eval_h", "extrema", "extremize",
    "gaussian_sym", "is_kk_design", "largest_gauss_node", "load_code",
    "lower_bound", "moment", "monomial_2k", "monomial_moment", "p_frame",
    "parse_potential", "potential_U", "riesz_sym", "rule_alpha", "rule_beta",
    "rule_lambda", "save_code", "upper_bound_finite", "upper_bound_s",
    "user_potential", "verify_exactness", "verify_one_sided", "waring_residual",
]
