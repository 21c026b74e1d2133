"""Tests for the package namespace: names resolve on first use, and a
command-line call loads only the modules its subcommand runs."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import ellprod
from ellprod.curves import WeierstrassCurve
from ellprod.products import make_cn_curve, subvariety_to_dict

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

# The public surface of the eagerly importing package: submodule -> the
# names it exported (68 names with the nine submodules themselves).
PUBLIC = {
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
NAMES = set(PUBLIC).union(*PUBLIC.values())


def test_lazy_namespace_keeps_every_public_name():
    assert len(NAMES) == 68
    assert set(ellprod.__all__) == NAMES
    for module, names in PUBLIC.items():
        home = importlib.import_module("ellprod." + module)
        assert getattr(ellprod, module) is home
        for name in names:
            assert getattr(ellprod, name) is getattr(home, name), name
    star = {}
    exec("from ellprod import *", star)
    assert NAMES <= set(star)
    assert all(star[name] is getattr(ellprod, name) for name in NAMES)
    assert NAMES <= set(dir(ellprod))
    with pytest.raises(AttributeError):
        ellprod.no_such_name
    assert not hasattr(ellprod, "cli_main")


def test_division_and_substitution_live_in_the_tests_alone():
    # the library divides and substitutes nothing; these routes are the
    # tests' own references (tests/reference.py)
    for name in ("ExactDivisionError", "exact_divide", "exact_divide_univariate", "substitute"):
        assert not hasattr(ellprod.polynomials, name), name
    assert not hasattr(ellprod.polynomials.MultiPoly, "specialize")
    assert not hasattr(ellprod.polynomials.MultiPoly, "embed")
    assert not hasattr(ellprod.oracle, "eval_mod")


def _loaded(cwd, argv):
    """Modules loaded by a fresh interpreter that imports ellprod and, given
    arguments, runs the command line on them."""
    code = "import sys\nimport ellprod\n"
    if argv:
        code += "from ellprod.cli import main\nassert main(sys.argv[1:]) == 0\n"
    code += "sys.stdout.flush()\nprint(' '.join(sorted(sys.modules)), file=sys.stderr)\n"
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code] + argv, cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_cold_start_imports_only_what_the_subcommand_runs(tmp_path):
    c3 = make_cn_curve(WeierstrassCurve(0, 1), WeierstrassCurve(0, 1), 3)
    (tmp_path / "c3.json").write_text(json.dumps(subvariety_to_dict(c3)))
    mods = _loaded(tmp_path, [])
    assert "ellprod" in mods
    assert not [m for m in mods if m.startswith("ellprod.")]
    common = ["--variety", "c3.json", "--isogeny", "[2,1]"]
    for argv in (["degree"] + common, ["preimage"] + common,
                 ["certify"] + common):
        mods = _loaded(tmp_path, argv)
        assert "ellprod.cli" in mods, argv
        assert "mpmath" not in mods and "ellprod.heights" not in mods, argv
        assert "ellprod.oracle" not in mods, argv
    mods = _loaded(tmp_path, ["constants", "--curves", '[{"A":0,"B":1}]'])
    assert "mpmath" in mods and "ellprod.heights" in mods
    for kind in (["zhang", "--h2q", "1.5", "--c3", "2"], ["essential-minimum"]):
        mods = _loaded(tmp_path, ["bounds", "--kind"] + kind)
        assert "mpmath" in mods and "ellprod.heights" in mods, kind
        for name in ("polynomials", "curves", "products", "isogenies"):
            assert "ellprod." + name not in mods, (kind, name)
