"""Golden corpus: canonical outputs frozen as a fixture.

Refactors of the preimage path and the oracle must leave every entry
byte-identical: the equations and excluded loci of generate_preimage(C_3,
phi) for the eight corpus isogenies, of the surface y3 = x1*x2 in
E x F x E for three more and of two curves in E x F (one equation in
all four coordinates, one in the x's alone) for four more and of curves
in E x F whose equations have y-degree 2 or more for five more, the printed
symbolic multiplication maps, the printed maps of two concrete curves
(small and 30-digit coefficients) for alpha = +-2..9, the
certify_auto dicts of the C_3 cases the certificate tests use, and the
full oracle reports (maps check per factor, then membership scan) of
fixed scans: exhaustive and both sampled scales, three factors, and a
wrong presentation with mismatches of both kinds.  Texts up to
TEXT_LIMIT characters are stored whole; longer ones as sha256 plus term
count.

The fixture was written by the code it now guards.  Rewrite it only for
a deliberate change of output, and record that change:

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

import hashlib
import json
import os
import sys

import pytest

from ellprod.certificates import certify_auto
from ellprod.curves import WeierstrassCurve, multiplication_maps
from ellprod.isogenies import DiagonalIsogeny
from ellprod.oracle import (PrimeFieldCtx, verify_maps_vs_group_law,
                            verify_preimage_membership)
from ellprod.polynomials import parse_poly
from ellprod.preimages import PreimagePresentation, generate_preimage
from ellprod.products import (MultiDegreeTable, ProductSystem,
                              SubvarietyPresentation, make_cn_curve)

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "data", "golden_corpus.json")
TEXT_LIMIT = 2048

E = WeierstrassCurve(0, 1)
F = WeierstrassCurve(-1, 0)
C3 = make_cn_curve(E, E, 3)
PREIMAGE_ALPHAS = [[2, 1], [1, 5], [3, 3], [2, 2], [4, 1], [5, 5], [1, 7], [7, 7]]
MAPS_ALPHAS = [a for k in range(2, 6) for a in (k, -k)]
# curve-specific maps: benchmark-sized and 30-digit coefficients
MAP_CURVES = [WeierstrassCurve(-45, 53),
              WeierstrassCurve(314159265358979323846264338327,
                               -271828182845904523536028747135)]
CURVE_MAPS_CASES = [(E_, a) for E_ in MAP_CURVES
                    for k in range(2, 10) for a in (k, -k)]
CERTIFY_ALPHAS = [[2, 1], [3, 3], [1, 1]]

# y3 = x1*x2 in E x F x E; its table is the one the norm of the equation
# gives (deg_I = 9 * deg_{x_k} N_k at the zero k of I)
SYS3 = ProductSystem([E, F, E])
SURFACE = SubvarietyPresentation(
    SYS3, [parse_poly("y3 - x1*x2", SYS3.ring)], 2,
    MultiDegreeTable(2, {(1, 1, 0): 27, (1, 0, 1): 18, (0, 1, 1): 18}), True)
SURFACE_ALPHAS = [[2, 3, 1], [3, 3, 3], [5, 5, 5]]

# curves in E x F whose equations use all four coordinates or no y; the
# tables are the ones the norms give (deg_I = 3 * deg_{x_k} N_k)
SYS2 = ProductSystem([E, F])
PLANE_CURVES = {
    "y1*y2 - x1*x2 - 1": MultiDegreeTable(1, {(1, 0): 9, (0, 1): 9}),
    "x2 - x1^2": MultiDegreeTable(1, {(1, 0): 6, (0, 1): 12}),
}
PLANE_CASES = [("y1*y2 - x1*x2 - 1", [2, 3]), ("y1*y2 - x1*x2 - 1", [-3, 2]),
               ("x2 - x1^2", [3, 2]), ("x2 - x1^2", [2, 2])]
# curves in E x F whose equations have y-degree 2 or more, so that the
# Weierstrass relations rewrite them; the first two are one curve
PLANE_CURVES.update({
    "y1^2 - y2^2": MultiDegreeTable(1, {(1, 0): 18, (0, 1): 18}),
    "y2^2 - x1^3 - 1": MultiDegreeTable(1, {(1, 0): 18, (0, 1): 18}),
    "y1^2*y2 - x2": MultiDegreeTable(1, {(1, 0): 9, (0, 1): 18}),
})
Y_POWER_CASES = [("y1^2 - y2^2", [3, 3]), ("y1^2 - y2^2", [5, 3]),
                 ("y1^2 - y2^2", [2, 2]), ("y2^2 - x1^3 - 1", [2, 3]),
                 ("y1^2*y2 - x2", [3, 2])]


def _plane_curve(eq):
    return SubvarietyPresentation(SYS2, [parse_poly(eq, SYS2.ring)], 1,
                                  PLANE_CURVES[eq], False)


def _three_factor_preimage():
    # the system of test_oracle.test_scan_matches_reference_on_three_factors
    V = SubvarietyPresentation(
        SYS3, [parse_poly("y1 - y3", SYS3.ring), parse_poly("x2 - x3", SYS3.ring)], 1,
        MultiDegreeTable(1, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}), False)
    return generate_preimage(V, DiagonalIsogeny([2, 1, -1]))


def _wrong_presentation():
    # the equations of [1,2] for [2,1], with no excluded locus: tuples
    # with an image at infinity and tuples where the two sides disagree
    pre = generate_preimage(C3, DiagonalIsogeny([2, 1]))
    other = generate_preimage(C3, DiagonalIsogeny([1, 2]))
    return PreimagePresentation(pre.base, pre.isogeny, other.equations, [],
                                pre.degrees)


# name -> (presentation builder, prime); 17 is exhaustive, 101 and 1009
# are sampled
ORACLE_SCANS = {
    "2,1@%d" % p: (lambda: generate_preimage(C3, DiagonalIsogeny([2, 1])), p)
    for p in (17, 101, 1009)}
ORACLE_SCANS.update({
    "1,-3@%d" % p: (lambda: generate_preimage(C3, DiagonalIsogeny([1, -3])), p)
    for p in (17, 101, 1009)})
ORACLE_SCANS["three-factor 2,1,-1@101"] = (_three_factor_preimage, 101)
ORACLE_SCANS.update({"wrong 2,1@%d" % p: (_wrong_presentation, p) for p in (17, 101)})


def _key(alphas):
    return ",".join(str(a) for a in alphas)


def _curve_maps_key(case):
    E_, alpha = case
    return "%d,%d @ %d" % (E_.A, E_.B, alpha)


def _plane_key(case):
    eq, alphas = case
    return "%s @ %s" % (eq, _key(alphas))


def _frozen(p):
    text = str(p)
    if len(text) <= TEXT_LIMIT:
        return text
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "terms": len(p.terms)}


def preimage_entry(alphas, V=C3):
    pre = generate_preimage(V, DiagonalIsogeny(alphas))
    return {"equations": [_frozen(eq) for eq in pre.equations],
            "excluded_locus": [{"j": row["j"], "alpha": row["alpha"],
                                "t": _frozen(row["t"])}
                               for row in pre.excluded_locus]}


def oracle_entry(name):
    """The reports ``ellprod oracle`` prints for one prime, through JSON."""
    build, p = ORACLE_SCANS[name]
    pre = build()
    ctx = PrimeFieldCtx(p, pre.system)
    reports = [verify_maps_vs_group_law(ctx, idx, alpha)
               for idx, alpha in enumerate(pre.isogeny.alphas)]
    reports.append(verify_preimage_membership(ctx, pre))
    return json.loads(json.dumps(reports))


def maps_entry(alpha, curve=None):
    maps = multiplication_maps(alpha, curve)
    return {f: _frozen(getattr(maps, f))
            for f in ("r", "s", "t", "r_tilde", "t_tilde")
            if getattr(maps, f) is not None}


def certify_entry(alphas):
    return certify_auto(C3, DiagonalIsogeny(alphas)).to_dict()


def build_corpus():
    return {
        "preimages": {_key(a): preimage_entry(a) for a in PREIMAGE_ALPHAS},
        "surface_preimages": {_key(a): preimage_entry(a, SURFACE) for a in SURFACE_ALPHAS},
        "plane_curve_preimages": {_plane_key(c): preimage_entry(c[1], _plane_curve(c[0]))
                                  for c in PLANE_CASES},
        "y_power_preimages": {_plane_key(c): preimage_entry(c[1], _plane_curve(c[0]))
                              for c in Y_POWER_CASES},
        "oracle": {name: oracle_entry(name) for name in ORACLE_SCANS},
        "maps": {str(a): maps_entry(a) for a in MAPS_ALPHAS},
        "curve_maps": {_curve_maps_key(c): maps_entry(c[1], c[0]) for c in CURVE_MAPS_CASES},
        "certify_auto": {_key(a): certify_entry(a) for a in CERTIFY_ALPHAS},
    }


def _load():
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("alphas", PREIMAGE_ALPHAS, ids=_key)
def test_preimage_matches_golden(alphas):
    assert preimage_entry(alphas) == _load()["preimages"][_key(alphas)]


@pytest.mark.parametrize("alphas", SURFACE_ALPHAS, ids=_key)
def test_surface_preimage_matches_golden(alphas):
    assert preimage_entry(alphas, SURFACE) == _load()["surface_preimages"][_key(alphas)]


@pytest.mark.parametrize("case", PLANE_CASES, ids=_plane_key)
def test_plane_curve_preimage_matches_golden(case):
    eq, alphas = case
    assert (preimage_entry(alphas, _plane_curve(eq))
            == _load()["plane_curve_preimages"][_plane_key(case)])


@pytest.mark.parametrize("case", Y_POWER_CASES, ids=_plane_key)
def test_y_power_preimage_matches_golden(case):
    eq, alphas = case
    assert (preimage_entry(alphas, _plane_curve(eq))
            == _load()["y_power_preimages"][_plane_key(case)])


@pytest.mark.parametrize("name", list(ORACLE_SCANS))
def test_oracle_reports_match_golden(name):
    assert oracle_entry(name) == _load()["oracle"][name]


@pytest.mark.parametrize("alpha", MAPS_ALPHAS)
def test_symbolic_maps_match_golden(alpha):
    assert maps_entry(alpha) == _load()["maps"][str(alpha)]


@pytest.mark.parametrize("case", CURVE_MAPS_CASES, ids=_curve_maps_key)
def test_curve_maps_match_golden(case):
    E_, alpha = case
    assert maps_entry(alpha, E_) == _load()["curve_maps"][_curve_maps_key(case)]


@pytest.mark.parametrize("alphas", CERTIFY_ALPHAS, ids=_key)
def test_certify_auto_matches_golden(alphas):
    # through JSON, as the CLI prints it
    got = json.loads(json.dumps(certify_entry(alphas)))
    assert got == _load()["certify_auto"][_key(alphas)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python3 tests/test_golden.py --write")
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as fh:
        json.dump(build_corpus(), fh, indent=1, sort_keys=True)
        fh.write("\n")
