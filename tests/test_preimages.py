"""Tests for explicit preimage generation under diagonal isogenies."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from ellprod.curves import CurvePoint, WeierstrassCurve, multiplication_maps
from ellprod.isogenies import DiagonalIsogeny
from ellprod.oracle import PrimeFieldCtx, verify_preimage_membership
from ellprod.polynomials import (
    MultiPoly,
    integer_primitive,
    parse_poly,
    reduce_weierstrass,
)
from ellprod import preimages
from ellprod.preimages import (
    ExcludedLocusError,
    PreimageDegenerateError,
    apply_isogeny,
    generate_preimage,
    membership_test,
)
from ellprod.products import (
    MultiDegreeTable,
    ProductSystem,
    SubvarietyPresentation,
    make_cn_curve,
    preimage_multidegrees,
)
from reference import (
    ExactDivisionError,
    embed,
    exact_divide,
    exact_divide_univariate,
    substitute,
)
from strategies import nonsingular_curves
from test_golden import (PLANE_CASES, PREIMAGE_ALPHAS, SURFACE, SURFACE_ALPHAS,
                         Y_POWER_CASES, _load, _plane_curve, _plane_key, preimage_entry)

E01 = WeierstrassCurve(0, 1)
C3 = make_cn_curve(E01, E01, 3)
RING = C3.system.ring
X1 = MultiPoly.var(RING, "x1")
Y2 = MultiPoly.var(RING, "y2")

# affine points of y^2 = x^3 + 1 with small coordinates: the 6-torsion
AFFINE6 = [CurvePoint(2, 3), CurvePoint(0, 1), CurvePoint(-1, 0),
           CurvePoint(0, -1), CurvePoint(2, -3)]


def test_preimage_2_1_equation():
    pre = generate_preimage(C3, DiagonalIsogeny([2, 1]))
    assert len(pre.equations) == 1
    # y2 = x1^3 pulled back along ([2] x id): the x-map of [2] on
    # y^2 = x^3 + 1 is (x^4 - 8x) / (4(x^3 + 1)), so clearing cubes gives
    # 64*y2*(x1^3+1)^3 = (x1^4 - 8*x1)^3
    expected = integer_primitive(
        64 * Y2 * (X1 ** 3 + 1) ** 3 - (X1 ** 4 - 8 * X1) ** 3)[1]
    assert pre.equations[0] == expected
    assert pre.total_degree() == 81
    assert pre.degrees == preimage_multidegrees(C3.degrees,
                                                DiagonalIsogeny([2, 1]))


def test_preimage_2_1_excluded_locus():
    pre = generate_preimage(C3, DiagonalIsogeny([2, 1]))
    assert len(pre.excluded_locus) == 1
    row = pre.excluded_locus[0]
    assert row["j"] == 1 and row["alpha"] == 2
    # primitive part of t_2 = 2(x^3 + 1) embedded at x1
    assert row["t"] == X1 ** 3 + 1


def test_preimage_1_5_equation():
    pre = generate_preimage(C3, DiagonalIsogeny([1, 5]))
    maps = multiplication_maps(5, E01)
    t5 = embed(maps.t, RING, {"x": "x2"})
    s5 = embed(maps.s, RING, {"x": "x2"})
    expected = integer_primitive(X1 ** 3 * t5 ** 3 - Y2 * s5)[1]
    assert pre.equations[0] == expected
    assert pre.total_degree() == 243
    assert [row["j"] for row in pre.excluded_locus] == [2]


@pytest.mark.parametrize("alphas, built", [
    # the products of parts of y2 - x1^3 come from the packed recurrence,
    # so each factor builds only t, the field of its excluded locus
    ([3, 5], [{"t"}, {"t"}]),
    ([2, 4], [{"t"}, {"t"}]),
    ([-3, 2], [{"t"}, {"t"}]),
])
def test_preimage_builds_only_the_map_fields_its_bindings_use(monkeypatch, alphas, built):
    from ellprod import preimages

    factors = []
    build = preimages.multiplication_maps

    def recording(alpha, curve):
        factors.append(build(alpha, curve))
        return factors[-1]

    monkeypatch.setattr(preimages, "multiplication_maps", recording)
    generate_preimage(C3, DiagonalIsogeny(alphas))
    assert [maps.alpha for maps in factors] == alphas
    fields = {"r", "s", "t", "r_tilde", "t_tilde"}
    assert [set(vars(maps)) & fields for maps in factors] == built


def test_preimage_equation_not_divisible_by_denominators():
    for alphas in ([2, 1], [-2, 1], [3, 1], [4, 1], [1, 2], [1, -2], [1, 3], [1, 4]):
        pre = generate_preimage(C3, DiagonalIsogeny(alphas))
        eq = pre.equations[0]
        for row in pre.excluded_locus:
            cubic = C3.system.coordinate_cubic(row["j"])
            for factor in (cubic, row["t"]):
                with pytest.raises(ExactDivisionError):
                    exact_divide(eq, factor)


# E x F with E: y^2 = x^3 + 1 and F: y^2 = x^3 - x
EF = ProductSystem([E01, WeierstrassCurve(-1, 0)])


@pytest.mark.parametrize("alpha, degree", [(3, 27), (5, 75)])
def test_odd_multiplier_keeps_the_fibres_over_2_torsion(alpha, degree):
    # V = {x1^3 + 1 = 0} is the affine 2-torsion of E times F.  [alpha]T = T
    # for T in E[2] and odd alpha, so phi^(-1)(V) holds those fibres, off
    # the excluded locus; the cubic is no factor of t_alpha, and dividing
    # it out of the equation would delete them
    V = SubvarietyPresentation(EF, [parse_poly("x1^3 + 1", EF.ring)], 1,
                               MultiDegreeTable(1, {(1, 0): 0, (0, 1): 18}), False)
    pre = generate_preimage(V, DiagonalIsogeny([alpha, 1]))
    assert membership_test(pre, [CurvePoint(-1, 0), CurvePoint(0, 0)])
    assert pre.equations[0].degree() == degree
    for p in (13, 17, 19):
        assert verify_preimage_membership(PrimeFieldCtx(p, EF), pre)["ok"], p


def _parts(maps):
    """(n, u) of [alpha], read from the fields: (r, t) for odd alpha and
    (r~, t~) for even alpha; the x-map is n/(u*t)."""
    return (maps.r, maps.t) if maps.alpha % 2 else (maps.r_tilde, maps.t_tilde)


def _trial_division_reference(V, isogeny):
    """The equations of phi^(-1)(V) by trial division: clear the substituted
    equation, then divide it by prim(u_j), and by the cubic for even
    alpha_j, for as long as the division is exact."""
    ring = V.system.ring
    relations = V.system.weierstrass_relations()
    bindings, candidates = {}, []
    for j, (alpha, curve) in enumerate(zip(isogeny.alphas, V.system.curves), start=1):
        maps = multiplication_maps(alpha, curve)
        n, u, t, s = (embed(f, ring, {"x": "x%d" % j})
                      for f in _parts(maps) + (maps.t, maps.s))
        bindings["x%d" % j] = (n, u * t)
        bindings["y%d" % j] = (s * MultiPoly.var(ring, "y%d" % j), t ** 3)
        candidates.append(integer_primitive(u)[1])
        if alpha % 2 == 0:
            candidates.append(relations[j - 1][1])
    equations = []
    for f in V.equations:
        num = integer_primitive(substitute(reduce_weierstrass(f, relations), bindings)[0])[1]
        for q in candidates:
            while not q.is_constant() and not num.is_constant():
                try:
                    num = exact_divide_univariate(num, q)
                except ExactDivisionError:
                    break
        equations.append(num)
    return equations


def test_lowest_terms_agree_with_trial_division():
    # seeded random equations in E x F of 1 to 5 terms, each exponent at
    # most 2 (so y^2 is reduced first), under multipliers in +-1..4
    rng = random.Random(2023)
    table = MultiDegreeTable(1, {(1, 0): 1, (0, 1): 1})
    multipliers = [a for k in range(1, 5) for a in (k, -k)]
    for _ in range(60):
        terms = {tuple(rng.randint(0, 2) for _ in EF.ring): rng.choice([-3, -2, -1, 1, 2, 3])
                 for _ in range(rng.randint(1, 5))}
        V = SubvarietyPresentation(EF, [MultiPoly(EF.ring, terms)], 1, table, False)
        phi = DiagonalIsogeny([rng.choice(multipliers), rng.choice(multipliers)])
        assert list(generate_preimage(V, phi).equations) == _trial_division_reference(V, phi), \
            (terms, phi.alphas)


def _substitution_reference(V, isogeny):
    """(equation texts, excluded-locus texts) of phi^(-1)(V) by substitution:
    bind x_j to n_j/(u_j t_j) and y_j to s_j*y_j/t_j^3, products of the maps'
    fields, take the primitive part of substitute's numerator, then divide
    out each q^k by the exponent rule."""
    ring = V.system.ring
    relations = V.system.weierstrass_relations()
    bindings, factors, excluded = {}, [], []
    for j, (alpha, curve) in enumerate(zip(isogeny.alphas, V.system.curves), start=1):
        maps = multiplication_maps(alpha, curve)
        xj, yj = "x%d" % j, "y%d" % j
        n, u, t, s = (embed(f, ring, {"x": xj}) for f in _parts(maps) + (maps.t, maps.s))
        bindings[xj] = (n, u * t)
        bindings[yj] = (s * MultiPoly.var(ring, yj), t ** 3)
        if abs(alpha) != 1:
            prim_t = integer_primitive(t)[1]
            excluded.append("%d %d %s" % (j, alpha, prim_t))
            at = (ring.index(xj), ring.index(yj))
            if alpha % 2:
                factors.append((at, prim_t, (2, 3, 0)))
                continue
            if not u.is_constant():
                factors.append((at, integer_primitive(u)[1], (2, 3, 0)))
            factors.append((at, relations[j - 1][1], (1, 3, 1)))
    equations = []
    for f in V.equations:
        f = reduce_weierstrass(f, relations)
        num = integer_primitive(substitute(f, bindings)[0])[1]
        for (ix, iy), q, (dx, dy, ds) in factors:
            A, B = (max(e[i] for e in f.terms) for i in (ix, iy))
            k = min(dx * (A - e[ix]) + dy * (B - e[iy]) + ds * e[iy] for e in f.terms)
            num = exact_divide_univariate(num, q ** k) if k else num
        equations.append(str(num))
    return equations, excluded


def _check_against_substitution(V, phi):
    pre = generate_preimage(V, phi)
    got = ([str(eq) for eq in pre.equations],
           ["%d %d %s" % (row["j"], row["alpha"], row["t"]) for row in pre.excluded_locus])
    assert got == _substitution_reference(V, phi), ([str(f) for f in V.equations], phi.alphas)


def _variety(system, texts):
    # the table is not read by the equations
    n = system.n_factors
    table = MultiDegreeTable(n - 1, {tuple(int(i != k) for i in range(n)): 1 for k in range(n)})
    return SubvarietyPresentation(system, [parse_poly(t, system.ring) for t in texts],
                                  n - 1, table, False)


ALPHAS_TO_7 = [a for k in range(1, 8) for a in (k, -k)]
# y-degree 2 and 3, coordinates omitted, a factor left out, two equations
SUBSTITUTION_EQUATIONS = [["y1^2*x2 - x1 + 2*y2"], ["y2^3 + x1"], ["x1*y1 - 3"],
                          ["y1*y2 - x2^2", "x1 - 2*x2"], ["1/2*y1 + x2*y2"]]


def test_preimage_matches_substitution_for_multipliers_to_7():
    # every multiplier in +-1..7 on each factor of E x F
    for i, alpha in enumerate(ALPHAS_TO_7):
        phi = DiagonalIsogeny([alpha, ALPHAS_TO_7[(i + 5) % len(ALPHAS_TO_7)]])
        _check_against_substitution(_variety(EF, SUBSTITUTION_EQUATIONS[i % 5]), phi)
        phi = DiagonalIsogeny(phi.alphas[::-1])
        _check_against_substitution(_variety(EF, SUBSTITUTION_EQUATIONS[(i + 2) % 5]), phi)


EFE = ProductSystem([E01, WeierstrassCurve(-1, 0), WeierstrassCurve(-45, 53)])


@pytest.mark.parametrize("texts", [["x1*y2*x3 + y3^2"], ["y2^2 - x3", "x1*y1 + y3"],
                                   ["y1^3 + x3 - 1"]])
def test_preimage_matches_substitution_on_three_factors(texts):
    for alphas in ([2, -3, 1], [-1, 4, -2], [3, 1, 3], [-5, 2, 4]):
        _check_against_substitution(_variety(EFE, texts), DiagonalIsogeny(alphas))


_terms = st.dictionaries(st.tuples(*(st.integers(0, k) for k in (1, 2, 1, 2))),
                         st.integers(-3, 3).filter(bool), min_size=1, max_size=3)


@settings(max_examples=20, deadline=None)
@given(nonsingular_curves, nonsingular_curves,
       st.lists(st.sampled_from([a for k in range(1, 4) for a in (k, -k)]), min_size=2,
                max_size=2), _terms)
def test_curve_preimage_matches_substitution(E, F, alphas, terms):
    # 40-digit coefficients too; exponents up to 1 in x and 2 in y
    system = ProductSystem([E, F])
    f = MultiPoly(system.ring, terms)
    if reduce_weierstrass(f, system.weierstrass_relations()):
        _check_against_substitution(
            SubvarietyPresentation(system, [f], 1, MultiDegreeTable(1, {(1, 0): 1, (0, 1): 1}),
                                   False), DiagonalIsogeny(alphas))


def test_preimage_identity_is_sign_normalized_input():
    pre = generate_preimage(C3, DiagonalIsogeny([1, 1]))
    assert pre.equations[0] == X1 ** 3 - Y2  # primitive, positive leading
    assert pre.excluded_locus == []
    assert pre.total_degree() == C3.total_degree()


def test_preimage_arity_and_types():
    with pytest.raises(ValueError):
        generate_preimage(C3, DiagonalIsogeny([2, 1, 1]))
    with pytest.raises(TypeError):
        generate_preimage(C3, [2, 1])
    with pytest.raises(TypeError):
        generate_preimage("C3", DiagonalIsogeny([2, 1]))


def test_degenerate_equation_detected():
    # an "equation" lying in the Weierstrass ideal presents the whole
    # product, and reduces to 0
    rel = parse_poly("y1^2 - x1^3 - 1", RING)
    V = SubvarietyPresentation(C3.system, [rel], 1, C3.degrees, True)
    with pytest.raises(PreimageDegenerateError):
        generate_preimage(V, DiagonalIsogeny([1, 1]))


def test_reduction_runs_only_on_an_equation_of_y_degree_two_or_more(monkeypatch):
    # y2 - x1^3 is its own reduction and skips it; the golden y2^2 - x1^3 - 1
    # goes through it, and its preimage is the golden one
    calls = []

    def counted(p, relations):
        calls.append(p)
        return reduce_weierstrass(p, relations)
    monkeypatch.setattr(preimages, "reduce_weierstrass", counted)
    generate_preimage(C3, DiagonalIsogeny([2, 3]))
    assert calls == []
    case = ("y2^2 - x1^3 - 1", [2, 3])
    assert (preimage_entry(case[1], _plane_curve(case[0]))
            == _load()["y_power_preimages"][_plane_key(case)])
    assert calls == list(_plane_curve(case[0]).equations)


def test_excluded_locus_is_t_written_at_its_coordinate():
    # each t_j, a polynomial in x alone, lands on x_j of the product ring
    pre = generate_preimage(SURFACE, DiagonalIsogeny([2, 3, 5]))
    assert [row["j"] for row in pre.excluded_locus] == [1, 2, 3]
    for row, curve in zip(pre.excluded_locus, SURFACE.system.curves):
        t = integer_primitive(multiplication_maps(row["alpha"], curve).t)[1]
        assert row["t"] == embed(t, SURFACE.system.ring, {"x": "x%d" % row["j"]})


def test_derived_tables_equal_validated_ones():
    # preimage_multidegrees skips the validation of a table derived from a
    # checked one; the table is the one the validating constructor builds
    cases = ([(C3, a) for a in PREIMAGE_ALPHAS] + [(SURFACE, a) for a in SURFACE_ALPHAS]
             + [(_plane_curve(eq), a) for eq, a in PLANE_CASES + Y_POWER_CASES])
    for V, alphas in cases:
        got = preimage_multidegrees(V, DiagonalIsogeny(alphas))
        want = MultiDegreeTable(V.dim, {
            I: d * prod(a * a for a, i in zip(alphas, I) if i == 0)
            for I, d in V.degrees.entries.items()})
        assert vars(got) == vars(want), (V, alphas)
        assert got.rows() == want.rows() and repr(got) == repr(want)


def test_apply_isogeny():
    sysm = C3.system
    phi = DiagonalIsogeny([2, 1])
    P, Q = CurvePoint(2, 3), CurvePoint(0, 1)
    img = apply_isogeny(sysm, phi, [P, Q])
    assert img[0] == CurvePoint(0, 1)  # [2](2,3) = (0,1) in the 6-torsion
    assert img[1] == Q
    with pytest.raises(ValueError):
        apply_isogeny(sysm, phi, [P])
    # an isogeny of another arity is refused, neither indexed past its end
    # nor cut short
    for alphas in ([2], [2, 1, 5]):
        with pytest.raises(ValueError, match="isogeny has %d components, product has 2 "
                                             "factors" % len(alphas)):
            apply_isogeny(sysm, DiagonalIsogeny(alphas), [P, Q])


def test_apply_isogeny_refuses_points_off_their_curves():
    # membership_test's point-tuple rule, except that the point at infinity
    # is mapped (membership_test refuses it: test_membership_validation)
    phi = DiagonalIsogeny([2, 3])
    for points in ([CurvePoint(1, 1), CurvePoint(5, 7)],
                   [CurvePoint(2, 3), CurvePoint(5, 7)]):
        with pytest.raises(ValueError, match="is not on"):
            apply_isogeny(EF, phi, points)
    Q = CurvePoint(0, 0)  # 2-torsion on y^2 = x^3 - x, so [3]Q = Q
    assert apply_isogeny(EF, phi, [CurvePoint.infinity(), Q]) == [CurvePoint.infinity(), Q]


def test_membership_matches_semantic_preimage():
    # x in phi^(-1)(V) iff phi(x) in V, across the full affine 6-torsion
    # grid, whenever the test point avoids the excluded locus and the
    # image stays affine
    for phi in (DiagonalIsogeny([2, 1]), DiagonalIsogeny([1, 5]),
                DiagonalIsogeny([2, 3])):
        pre = generate_preimage(C3, phi)
        decided = 0
        for P in AFFINE6:
            for Q in AFFINE6:
                img = apply_isogeny(C3.system, phi, [P, Q])
                try:
                    got = membership_test(pre, [P, Q])
                except ExcludedLocusError:
                    continue
                assert not any(R.is_infinity() for R in img), \
                    "affine non-kernel points cannot map to infinity"
                want = (img[1].y == img[0].x ** 3)
                assert got == want, (phi, P, Q)
                decided += 1
        assert decided > 10


def test_membership_validation():
    pre = generate_preimage(C3, DiagonalIsogeny([2, 1]))
    with pytest.raises(ValueError):
        membership_test(pre, [CurvePoint(2, 3)])  # arity
    with pytest.raises(ValueError):
        membership_test(pre, [CurvePoint.infinity(), CurvePoint(2, 3)])
    with pytest.raises(ValueError):
        membership_test(pre, [CurvePoint(1, 1), CurvePoint(2, 3)])  # off curve
    # x1 = -1 zeroes t_2's primitive part x1^3 + 1
    with pytest.raises(ExcludedLocusError):
        membership_test(pre, [CurvePoint(-1, 0), CurvePoint(2, 3)])


def test_membership_known_points():
    # (0,1) = [2](2,3) and y2 = x1^3 needs y2 = 8 at x1 = 2; check one
    # explicit member and one explicit non-member of [2,1]^(-1)(C_3)
    pre = generate_preimage(C3, DiagonalIsogeny([2, 1]))
    # phi(2,3),(q) = ((0,1), q): member iff q.y = 0^3 = 0, i.e. q = (-1, 0)
    assert membership_test(pre, [CurvePoint(2, 3), CurvePoint(-1, 0)])
    assert not membership_test(pre, [CurvePoint(2, 3), CurvePoint(0, 1)])
