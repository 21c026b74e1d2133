"""Exact preimages of subvarieties under diagonal isogenies on products
of elliptic curves, with transversality certificates, degree and height
bookkeeping, and a finite-field oracle."""

from .polynomials import (ExactDivisionError, MultiPoly, ParseError,
                          exact_divide, exact_divide_univariate,
                          integer_primitive, parse_poly,
                          reduce_weierstrass, substitute)
from .curves import (CurvePoint, KernelPointError, MultiplicationMaps,
                     SingularCurveError, WeierstrassCurve, add_points,
                     division_polynomial, evaluate_multiplication_map,
                     evaluate_via_formula, multiplication_maps, negate_point,
                     scalar_mul_point)
from .products import (MultiDegreeTable, ProductSystem, SubvarietyPresentation,
                       make_cn_curve, preimage_degree, preimage_degree_curve,
                       preimage_multidegrees, product_ring, subvariety_from_dict,
                       subvariety_to_dict, total_degree)
from .isogenies import DiagonalIsogeny
from .certificates import (CERTIFIED, INCONCLUSIVE, TransversalityCertificate,
                           certify_auto, check_corollary_curves,
                           check_corollary_identity, check_theorem_a,
                           check_theorem_main, check_theorem_weak,
                           verify_certificate)
from .preimages import (ExcludedLocusError, PreimageDegenerateError,
                        PreimagePresentation, apply_isogeny, generate_preimage,
                        membership_test)
from .heights import (BoundReport, bezout_intersection_bounds, c0, c1_c2_curve,
                      curve_c3, essential_minimum_image_bounds, galateau_lambda,
                      weil_height_rational, zhang_special_bound)
from .oracle import (BadReductionError, PrimeFieldCtx, enumerate_points,
                     verify_maps_vs_group_law, verify_preimage_membership)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
