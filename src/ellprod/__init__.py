"""Exact preimages of subvarieties under diagonal isogenies on products
of elliptic curves, with transversality certificates, degree and height
bookkeeping, and a finite-field oracle.

The public names below resolve on first use: ``import ellprod`` loads no
submodule, and ``ellprod.generate_preimage`` imports ``ellprod.preimages``
(and what it needs) the first time it is looked up.  A command-line call
thus pays only for the modules its subcommand runs; ``mpmath`` in
particular is loaded by ``ellprod.heights`` alone.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it exports at package level
_EXPORTS = {
    "arith": (),
    "polynomials": ("MultiPoly", "ParseError", "integer_primitive",
                    "parse_poly", "reduce_weierstrass"),
    "curves": ("CurvePoint", "KernelPointError", "MultiplicationMaps",
               "SingularCurveError", "WeierstrassCurve", "add_points",
               "division_polynomial", "evaluate_multiplication_map",
               "evaluate_via_formula", "multiplication_maps", "negate_point",
               "scalar_mul_point"),
    "products": ("MultiDegreeTable", "ProductSystem", "SubvarietyPresentation",
                 "make_cn_curve", "preimage_degree", "preimage_degree_curve",
                 "preimage_multidegrees", "product_ring", "subvariety_from_dict",
                 "subvariety_to_dict", "total_degree"),
    "isogenies": ("DiagonalIsogeny",),
    "certificates": ("CERTIFIED", "INCONCLUSIVE", "TransversalityCertificate",
                     "certify_auto", "check_corollary_curves",
                     "check_corollary_identity", "check_theorem_a",
                     "check_theorem_main", "check_theorem_weak",
                     "verify_certificate"),
    "preimages": ("ExcludedLocusError", "PreimageDegenerateError",
                  "PreimagePresentation", "apply_isogeny", "generate_preimage",
                  "membership_test"),
    "heights": ("BoundReport", "bezout_intersection_bounds", "c0",
                "c1_c2_curve", "curve_c3", "essential_minimum_image_bounds",
                "galateau_lambda", "weil_height_rational",
                "zhang_special_bound"),
    "oracle": ("BadReductionError", "PrimeFieldCtx", "enumerate_points",
               "verify_maps_vs_group_law", "verify_preimage_membership"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it here as well
        return importlib.import_module("." + name, __name__)
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(importlib.import_module("." + _HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
