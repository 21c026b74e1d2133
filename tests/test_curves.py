"""Tests for elliptic curve arithmetic, division polynomials, and the
coordinate formulas of scalar multiplication."""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from ellprod.curves import (
    RING_XAB,
    CurvePoint,
    KernelPointError,
    SingularCurveError,
    SymbolicMapsError,
    WeierstrassCurve,
    _Packed,
    _product,
    add_points,
    division_polynomial,
    evaluate_multiplication_map,
    evaluate_via_formula,
    multiplication_maps,
    negate_point,
    scalar_mul_point,
)
from ellprod.polynomials import MultiPoly, integer_primitive, parse_poly
from reference import exact_divide, specialize
from strategies import nonsingular_curves

E01 = WeierstrassCurve(0, 1)
# the curve-specific maps of the golden corpus (tests/test_golden.py)
MAP_CURVES = [WeierstrassCurve(-45, 53),
              WeierstrassCurve(314159265358979323846264338327,
                               -271828182845904523536028747135)]
X = MultiPoly.var(RING_XAB, "x")
A = MultiPoly.var(RING_XAB, "A")
B = MultiPoly.var(RING_XAB, "B")
C3 = X ** 3 + A * X + B


def _parts(maps):
    """(n, u) of [alpha], read from the fields: (r, t) for odd alpha, where
    c = 1, and (r~, t~) for even alpha; the x-map is n/(u*t)."""
    return (maps.r, maps.t) if maps.alpha % 2 else (maps.r_tilde, maps.t_tilde)


# ---------------------------------------------------------------------------
# curve basics
# ---------------------------------------------------------------------------

def test_discriminant_and_j():
    assert E01.discriminant() == -432
    assert E01.j_invariant() == 0
    E = WeierstrassCurve(-1, 0)
    assert E.discriminant() == 64
    assert E.j_invariant() == 1728


def test_singular_rejected():
    with pytest.raises(SingularCurveError):
        WeierstrassCurve(0, 0)
    with pytest.raises(SingularCurveError):
        WeierstrassCurve(-3, 2)


@pytest.mark.parametrize("A, B", [(0.9, 1), (0, 1.0), (False, 1), (0, Fraction(1))])
def test_coefficients_are_read_exactly(A, B):
    # WeierstrassCurve(0.9, 1) used to be y^2 = x^3 + 1
    with pytest.raises(TypeError):
        WeierstrassCurve(A, B)


def test_contains():
    assert E01.contains(2, 3)
    assert E01.contains(-1, 0)
    assert not E01.contains(1, 1)
    assert E01.rhs(2) == 9


def test_curve_equality_and_immutability():
    assert E01 == WeierstrassCurve(0, 1)
    assert E01 != WeierstrassCurve(0, 2)
    with pytest.raises(AttributeError):
        E01.A = 5


# ---------------------------------------------------------------------------
# points and the group law
# ---------------------------------------------------------------------------

def test_point_construction():
    o = CurvePoint.infinity()
    assert o.is_infinity()
    p = CurvePoint(2, 3)
    assert not p.is_infinity()
    assert p.x == 2 and p.y == 3
    with pytest.raises(ValueError):
        CurvePoint(2, None)
    with pytest.raises(AttributeError):
        p.x = 4


# the affine 6-torsion of y^2 = x^3 + 1: (2,3) generates Z/6
P6 = CurvePoint(2, 3)
SUBGROUP = [CurvePoint.infinity(), CurvePoint(2, 3), CurvePoint(0, 1),
            CurvePoint(-1, 0), CurvePoint(0, -1), CurvePoint(2, -3)]


def test_known_multiples():
    acc = CurvePoint.infinity()
    for k in range(6):
        assert acc == SUBGROUP[k]
        acc = add_points(E01, acc, P6)
    assert acc.is_infinity()  # order exactly 6


def test_group_law_properties():
    o = CurvePoint.infinity()
    for P in SUBGROUP:
        assert add_points(E01, P, o) == P
        assert add_points(E01, P, negate_point(P)).is_infinity()
        for Q in SUBGROUP:
            assert add_points(E01, P, Q) == add_points(E01, Q, P)
            for R in SUBGROUP:
                lhs = add_points(E01, add_points(E01, P, Q), R)
                rhs = add_points(E01, P, add_points(E01, Q, R))
                assert lhs == rhs


def test_scalar_mul_matches_repeated_addition():
    cases = [(E01, P6),
             # rational points of infinite order
             (WeierstrassCurve(0, -2), CurvePoint(3, 5)),
             (WeierstrassCurve(0, 17), CurvePoint(-2, 3))]
    for curve, P in cases:
        for step in (P, negate_point(P)):
            sign = 1 if step is P else -1
            expected = CurvePoint.infinity()
            for n in range(41):
                assert scalar_mul_point(curve, sign * n, P) == expected
                expected = add_points(curve, expected, step)


def test_points_stay_on_curve():
    E = WeierstrassCurve(-2, 1)
    P = CurvePoint(1, 0)  # 1 - 2 + 1 = 0
    Q = scalar_mul_point(E, 1, P)
    assert E.contains(Q.x, Q.y)
    # tangent doubling at a y=0 point is infinity
    assert scalar_mul_point(E, 2, P).is_infinity()


# ---------------------------------------------------------------------------
# division polynomials
# ---------------------------------------------------------------------------

def test_divpoly_base_cases():
    assert not division_polynomial(0)
    assert division_polynomial(1) == MultiPoly.const(RING_XAB, 1)
    assert division_polynomial(2) == MultiPoly.const(RING_XAB, 2)
    assert division_polynomial(3) == parse_poly(
        "3*x^4 + 6*A*x^2 + 12*B*x - A^2", RING_XAB)
    assert division_polynomial(4) == parse_poly(
        "4*x^6 + 20*A*x^4 + 80*B*x^3 - 20*A^2*x^2 - 16*A*B*x"
        " - 32*B^2 - 4*A^3", RING_XAB)


def test_divpoly_degrees_and_leading():
    # x-part of psi_m has degree (m^2-1)/2 (odd m) or (m^2-4)/2 (even m)
    # and leading coefficient m
    for m in range(2, 11):
        p = division_polynomial(m)
        want = (m * m - 1) // 2 if m % 2 else (m * m - 4) // 2
        assert p.degree_in("x") == want
        lead = [e for e in p.terms if e[0] == want]
        coeff = sum(p.terms[e] for e in lead if sum(e[1:]) == 0)
        assert coeff == m


def test_divpoly_rejects_negative():
    with pytest.raises(ValueError):
        division_polynomial(-1)


def test_divpoly_curve_specialization():
    p = division_polynomial(3, E01)
    assert p == parse_poly("3*x^4 + 12*x", RING_XAB)
    # roots of P_3 are x-coordinates of 3-torsion: (0, +-1) has order 3
    assert p.evaluate({"x": Fraction(0)}) == 0
    assert scalar_mul_point(E01, 3, CurvePoint(0, 1)).is_infinity()


def test_divpoly_vanishes_exactly_on_torsion_x():
    # on y^2 = x^3 + 1 the full 6-torsion is known; for each m, the x-part
    # of psi_m vanishes at x(P) iff [m]P = infinity for the affine points
    for m in range(2, 7):
        pm = division_polynomial(m, E01)
        for P in SUBGROUP[1:]:
            in_kernel = scalar_mul_point(E01, m, P).is_infinity()
            value = pm.evaluate({"x": P.x})
            if m % 2 == 1:
                assert (value == 0) == in_kernel
            else:
                # even m: psi_m = y * P_m, so the y = 0 points are always
                # in the kernel regardless of P_m
                assert (value == 0 or P.y == 0) == in_kernel


# ---------------------------------------------------------------------------
# multiplication maps: structure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("curve", [None, E01, MAP_CURVES[1]], ids=repr)
@pytest.mark.parametrize("alpha", [1, -1])
def test_alpha_one_is_identity(alpha, curve):
    # n = x, u = c = 1 and w = +-1 from the seed P_-1 = -1
    maps = multiplication_maps(alpha, curve)
    one = MultiPoly.const(RING_XAB, 1)
    assert (maps.r, maps.s, maps.t, maps.r_tilde, maps.t_tilde) == (X, alpha * one, one,
                                                                   None, None)
    assert (maps.product(1, 0, 0, 0), maps.product(0, 0, 1, 0)) == (X, one)
    assert maps.product(2, 1, 3, 2) == alpha * X ** 2
    assert maps.alpha % 2


def test_alpha_zero_rejected():
    with pytest.raises(ValueError):
        multiplication_maps(0)


def test_maps_entry_points_check_their_inputs_before_the_cache():
    # with [2] and [1] on y^2 = x^3 + 1 cached, 2.0 and True, which hash
    # like 2 and 1, must still be refused
    for alpha in (2, 1):
        evaluate_via_formula(E01, alpha, P6)
    for alpha in (2.0, True, Fraction(2)):
        for P in (P6, CurvePoint.infinity()):
            with pytest.raises(TypeError):
                evaluate_via_formula(E01, alpha, P)
            with pytest.raises(TypeError):
                evaluate_multiplication_map(E01, alpha, P)
    with pytest.raises(ValueError, match="nonzero"):
        evaluate_via_formula(E01, 0, P6)
    # a curve that is not a WeierstrassCurve is a TypeError, not an
    # AttributeError from inside the recurrence
    with pytest.raises(TypeError, match="WeierstrassCurve"):
        multiplication_maps(2, (0, 1))
    with pytest.raises(TypeError, match="WeierstrassCurve"):
        division_polynomial(3, "E")
    with pytest.raises(TypeError, match="WeierstrassCurve"):
        evaluate_via_formula((0, 1), 2, P6)


def test_evaluators_refuse_a_missing_curve():
    # None means the symbolic maps to multiplication_maps, but a point has
    # coordinates on a concrete curve: no ValueError from MultiPoly.evaluate
    P = CurvePoint(2, 3)
    for evaluate in (evaluate_via_formula, evaluate_multiplication_map):
        for alpha in (2, -3):
            with pytest.raises(TypeError, match="WeierstrassCurve"):
                evaluate(None, alpha, P)
    assert multiplication_maps(2, None).t == multiplication_maps(2).t
    assert division_polynomial(3, None) == division_polynomial(3)


def test_negative_alpha_flips_s_only():
    for a in (1, 2, 3, 5):
        plus = multiplication_maps(a)
        minus = multiplication_maps(-a)
        assert minus.r == plus.r
        assert minus.t == plus.t
        assert minus.s == -plus.s


def test_even_maps_structure():
    maps = multiplication_maps(2)
    assert maps.alpha % 2 == 0
    assert maps.t_tilde == MultiPoly.const(RING_XAB, 2)
    assert maps.t == 2 * C3
    assert exact_divide(maps.r, C3) == maps.r_tilde
    assert maps.r_tilde == parse_poly("x^4 - 2*A*x^2 - 8*B*x + A^2", RING_XAB)


def test_odd_maps_structure():
    maps = multiplication_maps(3)
    assert maps.alpha % 2
    assert maps.r_tilde is None and maps.t_tilde is None
    assert maps.t == division_polynomial(3)


def test_x_map_degrees():
    # the x-coordinate map of [alpha] has degree alpha^2: numerator degree
    # alpha^2, denominator degree alpha^2 - 1
    for a in range(2, 7):
        maps = multiplication_maps(a)
        if a % 2 == 0:
            num, den = maps.r_tilde, maps.t_tilde * maps.t
        else:
            num, den = maps.r, maps.t ** 2
        assert num.degree_in("x") == a * a
        assert den.degree_in("x") == a * a - 1
    # the parts n = product(1, 0, 0, 0) and u = product(0, 0, 1, 0) give the
    # same x-map, n/(u*t), for either sign and parity
    for a in [a for k in range(1, 8) for a in (k, -k)]:
        maps = multiplication_maps(a)
        n, u = maps.product(1, 0, 0, 0), maps.product(0, 0, 1, 0)
        if a % 2 == 0:
            assert (n, u) == (maps.r_tilde, maps.t_tilde)
        else:
            assert (n, u) == (maps.r, maps.t)
        assert n.degree_in("x") == a * a
        assert (u * maps.t).degree_in("x") == a * a - 1


@pytest.mark.parametrize("curve", MAP_CURVES + [None], ids=repr)
def test_fields_are_the_parts_times_c(curve):
    # r = c*n and t = c*u, so the x-map r/t^2 is n/(c*u^2) for either parity
    for alpha in [a for k in range(1, 10) for a in (k, -k)]:
        maps = multiplication_maps(alpha, curve)
        n, u, c = (maps.product(*e) for e in ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
        assert maps.r * u == n * maps.t, alpha
        assert maps.t == c * u, alpha


# ---------------------------------------------------------------------------
# curve-built maps against the symbolic ones
# ---------------------------------------------------------------------------

MAP_FIELDS = ("r", "s", "t", "r_tilde", "t_tilde")
_SYMBOLIC_MAPS = {}


def _symbolic_maps(alpha):
    if alpha not in _SYMBOLIC_MAPS:
        _SYMBOLIC_MAPS[alpha] = multiplication_maps(alpha)
    return _SYMBOLIC_MAPS[alpha]


# the curves of tools/output_hashes.py for alpha in +-1..9, then the
# symbolic maps for alpha in +-1..7 (its symbolic-maps range; +-8 and +-9
# would add about 2 s)
LAZY_CURVES = [WeierstrassCurve(*ab) for ab in [(-1, 0), (0, 1), (2, 3), (-7, 6), (5, -3)]]
LAZY_ORDERS = {
    "r first": ("r", "t_tilde", "s", "r_tilde", "t"),
    "s first": ("s", "r_tilde", "t", "r", "t_tilde"),
    "parts first": ("parts", "s", "t", "r", "r_tilde", "t_tilde"),
    "t~ first": ("t_tilde", "t", "r", "r_tilde", "s"),
    "product first": ("product", "s", "t", "parts"),
}


@pytest.mark.parametrize("curve", LAZY_CURVES + [None], ids=repr)
def test_lazy_fields_do_not_depend_on_the_order_of_reading(curve):
    top = 9 if curve else 7
    for alpha in [a for k in range(1, top + 1) for a in (k, -k)]:
        ref = multiplication_maps(alpha, curve)
        want = {f: getattr(ref, f) for f in MAP_FIELDS}  # the default order
        for order in LAZY_ORDERS.values():
            maps = multiplication_maps(alpha, curve)
            for f in order:
                if f == "product":  # builds n, w, u and c at widths of their own
                    maps.product(2, 1, 3, 2)
                else:
                    _parts(maps) if f == "parts" else getattr(maps, f)
            assert {f: getattr(maps, f) for f in MAP_FIELDS} == want, (alpha, order)
            assert _parts(maps) == _parts(ref)


_P61 = (1 << 61) - 1


def _coprime(a, b):
    """gcd(a, b) = 1 over F_p, p = 2^61 - 1, for univariate a, b in x whose
    leading coefficients p does not divide; a common factor over Q would
    survive reduction mod p, so then gcd(a, b) = 1 over Q as well."""
    def dense(f):
        c = [0] * (f.degree() + 1)
        for e, v in f.terms.items():
            c[e[0]] = v % _P61
        assert c[-1]
        return c

    a, b = dense(a), dense(b)
    while len(b) > 1:
        inv = pow(b[-1], -1, _P61)
        while len(a) >= len(b):
            m, k = a[-1] * inv % _P61, len(a) - len(b)
            for i, c in enumerate(b):
                a[k + i] = (a[k + i] - m * c) % _P61
            while a and not a[-1]:
                a.pop()
        if not a:
            return False
        a, b = b, a
    return True


@pytest.mark.parametrize("curve", LAZY_CURVES + [WeierstrassCurve(-45, 53)], ids=repr)
def test_maps_are_in_lowest_terms_at_each_factor_of_t(curve):
    # the facts behind the lowest terms of generate_preimage: prim(u) is
    # coprime to n and s, so to w, and for even alpha the cubic c divides s
    # exactly once and is coprime to n and u (the 30-digit golden curve is left
    # out: its maps up to alpha = 12 take seconds to build)
    c3 = specialize(C3, {"A": curve.A, "B": curve.B})
    for alpha in [a for k in range(2, 13) for a in (k, -k)]:
        maps = multiplication_maps(alpha, curve)
        n, u = _parts(maps)
        q = integer_primitive(u)[1]
        if not q.is_constant():
            assert _coprime(n, q) and _coprime(maps.s, q), alpha
        if alpha % 2 == 0:
            assert _coprime(exact_divide(maps.s, c3), c3), alpha
            assert _coprime(n, c3) and _coprime(u, c3), alpha


@settings(max_examples=25, deadline=None)
@given(nonsingular_curves, st.sampled_from([a for k in range(2, 8) for a in (k, -k)]))
def test_curve_maps_equal_specialized_symbolic_maps(E, alpha):
    coeffs = {"A": E.A, "B": E.B}
    got = multiplication_maps(alpha, E)
    for f in MAP_FIELDS:
        want = getattr(_symbolic_maps(alpha), f)
        want = None if want is None else specialize(want, coeffs)
        assert getattr(got, f) == want, f
    # s by the division the bracket formula replaces: P_2a / (2 P_a),
    # times the cubic for even a
    a = abs(alpha)
    core = exact_divide(division_polynomial(2 * a, E), 2 * division_polynomial(a, E))
    if a % 2 == 0:
        core = core * specialize(C3, coeffs)
    assert got.s == (core if alpha > 0 else -core)


@settings(max_examples=25, deadline=None)
@given(nonsingular_curves)
def test_curve_divpolys_equal_specialized_symbolic_ones(E):
    coeffs = {"A": E.A, "B": E.B}
    for m in range(15):
        assert division_polynomial(m, E) == specialize(division_polynomial(m), coeffs), m


ALPHAS_TO_9 = [a for k in range(1, 10) for a in (k, -k)]
# (a, b, i, j) for the product n^a w^b u^i c^j: first the denominators c*u^2
# of the x-map and c^2*u^3 of the y-map, then products that clear a term
# x^a y^b of a small equation.  Only the first five are cheap to check on
# symbolic maps, and the first seven on curves with 30- and 40-digit
# coefficients: the others multiply out powers of u of degree up to 8*40.
DENOMINATORS = [(0, 0, 2, 1), (0, 0, 3, 2)]
PRODUCT_CASES = DENOMINATORS + [
    (0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 1, 2, 1),
    (0, 0, 7, 4), (2, 1, 0, 0), (1, 0, 5, 3), (3, 0, 0, 0), (0, 0, 8, 5)]


def _check_product(maps, cases):
    # maps.product against the MultiPoly product of the parts read from the
    # fields: n and u by the parity of alpha, c = t/u and w = s/c
    n, u = _parts(maps)
    c = exact_divide(maps.t, u)
    w = exact_divide(maps.s, c)
    for a, b, i, j in cases:
        want = n ** a * w ** b * u ** i * c ** j
        assert maps.product(a, b, i, j) == want, (maps.alpha, a, b, i, j)


@pytest.mark.parametrize("curve", [E01] + MAP_CURVES + [None], ids=repr)
def test_denominators_are_u_t_and_t_cubed(curve):
    for alpha in ALPHAS_TO_9:
        maps = multiplication_maps(alpha, curve)
        _check_product(maps, DENOMINATORS)
        # c*u^2 = u*t, and c^2*u^3 is t^3 over c, which s = c*w carries
        assert maps.product(0, 0, 2, 1) == _parts(maps)[1] * maps.t, alpha
        assert maps.product(0, 0, 3, 3) == maps.t ** 3, alpha


@settings(max_examples=25, deadline=None)
@given(nonsingular_curves, st.sampled_from(ALPHAS_TO_9))
def test_curve_denominators_are_u_t_and_t_cubed(E, alpha):
    _check_product(multiplication_maps(alpha, E), DENOMINATORS)


@pytest.mark.parametrize("curve", [E01, MAP_CURVES[0], None], ids=repr)
def test_products_of_parts_match_the_fields(curve):
    for alpha in ALPHAS_TO_9:
        _check_product(multiplication_maps(alpha, curve), PRODUCT_CASES[2:5] if curve is None
                       else PRODUCT_CASES[2:])


def test_products_of_parts_on_the_30_digit_golden_curve():
    # one case per multiplier: the products of the parts take seconds here
    for i, alpha in enumerate(ALPHAS_TO_9):
        _check_product(multiplication_maps(alpha, MAP_CURVES[1]), [PRODUCT_CASES[2 + i % 5]])


def test_product_reads_no_field_of_a_curve_map():
    # the packed route builds each product from the x-parts alone
    for alpha in (3, -4):
        maps = multiplication_maps(alpha, E01)
        want = _parts(maps)[0], maps.s
        maps = multiplication_maps(alpha, E01)
        assert (maps.product(1, 0, 0, 0), maps.product(0, 1, 0, 1)) == want
        assert not set(vars(maps)) & set(MAP_FIELDS)


# the curve-specific maps that tools/output_hashes.py hashes
HASHED_MAP_CURVES = [WeierstrassCurve(A, B) for A, B in ((-1, 0), (0, 1), (2, 3), (-7, 6), (5, -3))]


@pytest.mark.parametrize("curve", HASHED_MAP_CURVES + [MAP_CURVES[1]], ids=repr)
def test_coefficients_are_the_terms_of_the_product(curve):
    # {k: c} in order of k, read off the packed value, is product's terms
    # (each read on maps of its own, so that neither sees the other's widths);
    # on the 30-digit curve only the first five cases, as the others take seconds
    cases = PRODUCT_CASES[:5] if curve is MAP_CURVES[1] else PRODUCT_CASES
    for alpha in ALPHAS_TO_9:
        for case in cases:
            got = multiplication_maps(alpha, curve).coefficients(*case)
            want = multiplication_maps(alpha, curve).product(*case)
            assert list(got) == sorted(got) and all(got.values()), (alpha, case)
            assert {(k, 0, 0): c for k, c in got.items()} == want.terms, (alpha, case)


def test_symbolic_maps_have_no_integer_coefficients():
    # their coefficients are polynomials in A and B; product gives them
    maps = multiplication_maps(3)
    with pytest.raises(SymbolicMapsError):
        maps.coefficients(0, 0, 1, 1)
    assert isinstance(SymbolicMapsError(), TypeError)
    assert maps.product(0, 0, 1, 1) == maps.t


@pytest.mark.parametrize("alpha", [2, -2, 3, 4, -5, 6])
def test_clearing_clears_a_term_at_a_point(alpha):
    # at P = (3, 5) on y^2 = x^3 - 2, of infinite order: x^a*y^b at [alpha]P
    # (by the group law) times D^(2a + 3b + k), with D = u(x) for odd alpha
    # and y*u(x) for even alpha, is y^e * product(a, b, i, j) at P
    E, P = WeierstrassCurve(0, -2), CurvePoint(3, 5)
    maps = multiplication_maps(alpha, E)
    Q = scalar_mul_point(E, alpha, P)
    D = maps.product(0, 0, 1, 0).evaluate({"x": P.x}) * (P.y if alpha % 2 == 0 else 1)
    for a, b, k in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 0, 3), (0, 1, 2), (2, 1, 5)]:
        i, j, e = maps.clearing(a, b, k)
        assert Q.x ** a * Q.y ** b * D ** (2 * a + 3 * b + k) == \
            P.y ** e * maps.product(a, b, i, j).evaluate({"x": P.x}), (a, b, k)


@settings(max_examples=20, deadline=None)
@given(nonsingular_curves, st.sampled_from(ALPHAS_TO_9), st.sampled_from(PRODUCT_CASES[2:7]))
def test_curve_products_of_parts_match_the_fields(E, alpha, case):
    # 40-digit coefficients stress the width proven from the L1 norms
    _check_product(multiplication_maps(alpha, E), [case])


def _l1(p):
    return sum(abs(c) for c in p.terms.values())


# (a, b, i, j): the parts one at a time, w (floor-halved twice) first, then
# r = c*n and the denominators
NORM_CASES = [(0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 1)] + DENOMINATORS


@cache
def _symbolic_product(alpha, case):
    return _symbolic_maps(alpha).product(*case)


@pytest.mark.parametrize("curve", MAP_CURVES + [
    E01, WeierstrassCurve(-1, 0), WeierstrassCurve(-7, -6),
    WeierstrassCurve(10 ** 40 - 3, -(10 ** 40) + 7)], ids=repr)
def test_slot_widths_are_proven_by_the_norms(curve):
    # the norm recurrence bounds the L1 norm of every value it unpacks: each
    # P_m the maps read, and each product of parts at its own width
    coeffs = {"A": curve.A, "B": curve.B}
    for alpha in ALPHAS_TO_9:
        k = abs(alpha)
        packed = _Packed(curve, k - 2, k + 2)
        for m in range(k - 2, k + 3):
            got = packed.poly(lambda P: P(m))
            assert packed.norms(m) >= _l1(got), (alpha, m)
            want = (specialize(division_polynomial(m), coeffs) if m >= 0
                    else MultiPoly.const(RING_XAB, -1))
            assert got == want, (alpha, m)
        for case in NORM_CASES:
            got = packed.poly(lambda P: _product(P, alpha, *case))
            assert _product(packed.norms, alpha, *case) >= _l1(got), (alpha, case)
            assert got == specialize(_symbolic_product(alpha, case), coeffs), (alpha, case)


def test_a_new_width_repacks_only_the_parts_a_formula_reads():
    # u^3 c^2 of an odd alpha is P_k^3: at its own width only P_k is
    # repacked, and a part outside P_low..P_high is refused there
    curve, k = MAP_CURVES[0], 7
    packed = _Packed(curve, k - 2, k + 2)
    got = packed.poly(lambda P: _product(P, k, 0, 0, 3, 2))
    assert got == specialize(_symbolic_product(k, (0, 0, 3, 2)), {"A": curve.A, "B": curve.B})
    (rec,) = [rec for w, rec in packed.recs.items() if w != packed.w1]
    assert set(rec.memo) == {k}
    with pytest.raises(KeyError):
        rec(k + 3)


@pytest.mark.parametrize("alpha", [4, 7, -9])
def test_products_read_in_either_order_agree(alpha):
    # each width repacks what its first formula reads, so the results do
    # not depend on which product comes first
    cases = NORM_CASES + [(2, 0, 0, 0), (0, 2, 0, 1), (1, 1, 1, 1), (0, 0, 6, 3)]
    k = abs(alpha)
    forward, backward = (_Packed(MAP_CURVES[0], k - 2, k + 2) for _ in range(2))
    got = [forward.poly(lambda P: _product(P, alpha, *case)) for case in cases]
    back = [backward.poly(lambda P: _product(P, alpha, *case)) for case in reversed(cases)]
    assert got == back[::-1]
    assert len(forward.recs) >= 4  # several widths besides w1


# ---------------------------------------------------------------------------
# multiplication maps: agreement with the group law over Q
# ---------------------------------------------------------------------------

@st.composite
def curve_and_point(draw):
    # choose the point first, then a curve through it, so that rational
    # test points exist in abundance
    x0 = draw(st.fractions(min_value=-8, max_value=8, max_denominator=4))
    y0 = draw(st.fractions(min_value=-8, max_value=8, max_denominator=4))
    a = draw(st.integers(min_value=-10, max_value=10))
    b = y0 * y0 - x0 ** 3 - a * x0
    if b.denominator != 1:
        # clear denominators by scaling (x, y) -> (u^2 x, u^3 y)
        u = b.denominator
        x0, y0 = x0 * u ** 2, y0 * u ** 3
        a = a * u ** 4
        b = y0 * y0 - x0 ** 3 - a * x0
    if -16 * (4 * a ** 3 + 27 * int(b) ** 2) == 0:
        b = int(b) + 1
        y0 = None  # point no longer on curve; skip the point checks
        return WeierstrassCurve(a, int(b)), None
    return WeierstrassCurve(a, int(b)), CurvePoint(x0, y0)


@settings(max_examples=60, deadline=None)
@given(curve_and_point(), st.integers(min_value=-5, max_value=5))
def test_formula_matches_group_law(cp, alpha):
    E, P = cp
    if P is None or alpha == 0:
        return
    assert E.contains(P.x, P.y)
    assert evaluate_multiplication_map(E, alpha, P) == \
        scalar_mul_point(E, alpha, P)


def test_formula_on_infinity():
    assert evaluate_multiplication_map(E01, 4, CurvePoint.infinity()) \
        .is_infinity()
    assert evaluate_via_formula(E01, 4, CurvePoint.infinity()).is_infinity()


def test_kernel_points_raise_and_fall_back():
    # (-1, 0) is 2-torsion on y^2 = x^3 + 1: even formula undefined (y = 0)
    with pytest.raises(KernelPointError):
        evaluate_via_formula(E01, 2, CurvePoint(-1, 0))
    assert evaluate_multiplication_map(E01, 2, CurvePoint(-1, 0)).is_infinity()
    # (0, 1) is 3-torsion: t_3(0) = 0
    with pytest.raises(KernelPointError):
        evaluate_via_formula(E01, 3, CurvePoint(0, 1))
    assert evaluate_multiplication_map(E01, 3, CurvePoint(0, 1)).is_infinity()
    # 2-torsion under [4]: t~_4(x) = 0 or y = 0
    with pytest.raises(KernelPointError):
        evaluate_via_formula(E01, 4, CurvePoint(-1, 0))


def test_kernel_of_formula_is_exactly_affine_kernel():
    # over the 6-torsion of y^2 = x^3 + 1 the formula is undefined exactly
    # on the affine kernel of [alpha]
    for alpha in (2, 3, 4, 5, 6, -2, -3, -4, -5, -6):
        for P in SUBGROUP[1:]:
            in_kernel = scalar_mul_point(E01, alpha, P).is_infinity()
            try:
                evaluate_via_formula(E01, alpha, P)
                undefined = False
            except KernelPointError:
                undefined = True
            assert undefined == in_kernel
