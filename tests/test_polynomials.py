"""Tests for the sparse multivariate polynomial core."""

import random
import time
import timeit
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ellprod.polynomials import (
    MultiPoly,
    ParseError,
    integer_primitive,
    parse_poly,
    reduce_weierstrass,
)
from reference import (
    ExactDivisionError,
    embed,
    exact_divide,
    exact_divide_univariate,
    specialize,
    substitute,
)

RING = ("x", "y")
X = MultiPoly.var(RING, "x")
Y = MultiPoly.var(RING, "y")
ONE = MultiPoly.const(RING, 1)
ZERO = MultiPoly.zero(RING)


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------

coeffs = st.fractions(
    min_value=-30, max_value=30, max_denominator=7
)


@st.composite
def polys(draw, ring=RING, max_terms=5, max_exp=4):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    p = MultiPoly.zero(ring)
    for _ in range(n):
        c = draw(coeffs)
        exps = tuple(
            draw(st.integers(min_value=0, max_value=max_exp))
            for _ in ring
        )
        p = p + MultiPoly(ring, {exps: c})
    return p


def assert_domain(*ps):
    """Every coefficient is nonzero, an int when integral and a Fraction
    otherwise (never a float or a bool)."""
    for p in ps:
        for c in p.terms.values():
            assert c != 0, repr(p.terms)
            if type(c) is not int:
                assert type(c) is Fraction and c.denominator != 1, repr(c)


def convolve(a, b):
    """The product of two term dicts by plain convolution, the reference
    for MultiPoly products."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = out.get(e, 0) + Fraction(c1) * Fraction(c2)
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# construction and basic queries
# ---------------------------------------------------------------------------

def test_zero_and_const():
    assert not ZERO
    assert bool(ONE)
    assert ONE.is_constant()
    assert ONE.constant_value() == 1
    assert MultiPoly.const(RING, Fraction(3, 2)).constant_value() == Fraction(3, 2)
    assert ZERO.degree() == -1
    assert ONE.degree() == 0


def test_var_and_degree():
    p = X ** 3 * Y + Y ** 2
    assert p.degree() == 4
    assert p.degree_in("x") == 3
    assert p.degree_in("y") == 2
    assert p.variables() == {"x", "y"}
    assert (X * 0 + ONE).variables() == set()


def test_unknown_variable_rejected():
    with pytest.raises(ValueError):
        MultiPoly.var(RING, "z")


def test_immutability():
    with pytest.raises(AttributeError):
        X.terms = {}


def test_coefficient_lookup():
    p = 3 * X ** 2 - Y
    assert p.coefficient((2, 0)) == 3
    assert p.coefficient((0, 1)) == -1
    assert p.coefficient((5, 5)) == 0


def test_eq_and_hash():
    assert X + Y == Y + X
    assert hash(X + Y) == hash(Y + X)
    assert X != Y
    assert X != MultiPoly.var(("x",), "x")  # different rings never compare equal


def test_integral_coefficients_are_ints():
    p = parse_poly("1/2*x + 1/2", RING) * 2
    assert p.terms == {(1, 0): 1, (0, 0): 1}
    assert all(type(c) is int for c in p.terms.values())
    built = MultiPoly(RING, {(1, 0): Fraction(1), (0, 0): Fraction(2, 2)})
    assert p == built and hash(p) == hash(built)
    # equality and hashing do not depend on the coefficient representation
    raw = MultiPoly._trusted(RING, {(1, 0): Fraction(1), (0, 0): Fraction(1)})
    assert p == raw and hash(p) == hash(raw)
    assert str(p) == str(raw) == "x + 1"


def test_constructor_checks_every_exponent_tuple():
    # a zero coefficient used to skip the check and give the zero polynomial
    for terms in ({(1,): 0}, {(1, -2, 5): Fraction(0)}, {(1,): 3}, {(0, -1): 0}):
        with pytest.raises(ValueError, match="bad exponent tuple"):
            MultiPoly(RING, terms)
    # the coefficient is still read first
    with pytest.raises(TypeError):
        MultiPoly(RING, {(1,): 0.5})


@given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                       st.sampled_from([0, Fraction(0), 3, Fraction(6, 2), Fraction(-1, 2)])))
def test_constructor_keeps_the_domain(terms):
    p = MultiPoly(RING, terms)
    assert_domain(p)
    assert p.terms == {e: c for e, c in terms.items() if c}


def test_exact_divide_keeps_a_proper_fraction():
    q = exact_divide(3 * X, 2)
    assert q.terms == {(1, 0): Fraction(3, 2)}
    assert type(q.terms[(1, 0)]) is Fraction


def test_coefficient_queries_return_fractions():
    p = 3 * X ** 2 - Y
    assert type(p.leading()[1]) is Fraction
    assert type(p.coefficient((2, 0))) is Fraction
    assert type(p.coefficient((5, 5))) is Fraction
    assert type((7 * ONE).constant_value()) is Fraction
    assert type(ZERO.constant_value()) is Fraction


def test_cross_ring_arithmetic_rejected():
    other = MultiPoly.var(("x", "z"), "x")
    with pytest.raises(ValueError):
        X + other


# ---------------------------------------------------------------------------
# arithmetic: ring laws (hypothesis)
# ---------------------------------------------------------------------------

@settings(max_examples=200)
@given(polys(), polys(), polys())
def test_add_mul_laws(p, q, r):
    assert_domain(p + q, p - q, p * q, p * q * r, -p, p ** 2)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert p + ZERO == p
    assert p * ONE == p
    assert p * ZERO == ZERO
    assert p - p == ZERO
    assert p + (-p) == ZERO


@settings(max_examples=100)
@given(polys(), st.integers(min_value=0, max_value=5))
def test_pow_matches_repeated_mul(p, k):
    expected = ONE
    reference = {(0, 0): 1}
    for _ in range(k):
        expected = expected * p
        reference = convolve(reference, p.terms)
    assert p ** k == expected
    assert_domain(p ** k)
    assert (p ** k).terms == reference


def test_pow_by_binary_powering_matches_repeated_mul():
    p, expected = X + Y + ONE, ONE
    for n in range(10):  # every bit pattern up to 1001
        assert p ** n == expected
        expected = expected * p


def test_pow_of_zero_takes_no_time():
    start = time.perf_counter()
    assert ZERO ** (1 << 2000) == 0
    assert time.perf_counter() - start < 1


@settings(max_examples=100)
@given(polys())
def test_degree_of_product(p):
    q = X ** 2 + ONE
    if p:
        assert (p * q).degree() == p.degree() + 2


# ---------------------------------------------------------------------------
# scalar products against a plain dict convolution
# ---------------------------------------------------------------------------

scalars = st.one_of(st.just(0), st.integers(min_value=-30, max_value=30), coeffs)
FRACTIONAL = MultiPoly(RING, {(1, 0): Fraction(1, 2), (0, 1): Fraction(3, 4)})


@settings(max_examples=200)
@given(polys(), scalars)
@example(FRACTIONAL, 4)
@example(FRACTIONAL, Fraction(4, 3))
def test_scalar_products_match_convolution(p, k):
    const = MultiPoly(RING, {(0, 0): k})
    expected = convolve(p.terms, const.terms)
    for r in (p * k, k * p, p * MultiPoly.const(RING, k), MultiPoly.const(RING, k) * p,
              p * const):
        assert_domain(r)
        assert r.terms == expected
        assert r.ring == RING


@st.composite
def one_term(draw):
    exps = tuple(draw(st.integers(min_value=0, max_value=4)) for _ in RING)
    return MultiPoly(RING, {exps: draw(scalars)})


@settings(max_examples=200)
@given(polys(), one_term())
@example(FRACTIONAL, MultiPoly(RING, {(2, 1): 4}))
@example(FRACTIONAL, MultiPoly(RING, {(0, 3): Fraction(4, 3)}))
@example(X + Y, MultiPoly(RING, {(1, 0): 1}))
def test_one_term_products_match_convolution(p, m):
    expected = convolve(p.terms, m.terms)
    for r in (p * m, m * p):
        assert_domain(r)
        assert r.terms == expected
        assert r.ring == RING


@settings(max_examples=100)
@given(scalars, scalars)
def test_constant_times_constant(a, b):
    r = MultiPoly.const(RING, a) * MultiPoly.const(RING, b)
    assert_domain(r)
    assert r.terms == convolve({(0, 0): a}, {(0, 0): b})
    assert r == MultiPoly.const(RING, a * b)


def test_const_rejects_non_numbers():
    with pytest.raises(ValueError):
        MultiPoly.const(RING, "x")
    assert MultiPoly.const(RING, 0).terms == {}
    assert MultiPoly.const(RING, Fraction(6, 3)).terms == {(0, 0): 2}


# ---------------------------------------------------------------------------
# evaluation and specialization
# ---------------------------------------------------------------------------

def test_evaluate():
    p = X ** 2 * Y - 3 * Y + Fraction(1, 2)
    v = p.evaluate({"x": 2, "y": Fraction(1, 3)})
    assert v == Fraction(4, 3) - 1 + Fraction(1, 2)


def test_evaluate_requires_all_variables():
    p = X * Y
    with pytest.raises(ValueError):
        p.evaluate({"x": 1})


@settings(max_examples=150)
@given(polys(), polys(),
       st.fractions(min_value=-9, max_value=9, max_denominator=5),
       st.fractions(min_value=-9, max_value=9, max_denominator=5))
def test_evaluate_is_ring_hom(p, q, a, b):
    vals = {"x": a, "y": b}
    assert (p + q).evaluate(vals) == p.evaluate(vals) + q.evaluate(vals)
    assert (p * q).evaluate(vals) == p.evaluate(vals) * q.evaluate(vals)


def test_specialize_keeps_ring():
    p = X ** 2 + Y
    s = specialize(p, {"y": 5})
    assert s.ring == RING
    assert s == X ** 2 + 5 * ONE


@settings(max_examples=150)
@given(polys(), st.fractions(min_value=-9, max_value=9, max_denominator=5),
       st.fractions(min_value=-9, max_value=9, max_denominator=5))
def test_specialize_and_embed_keep_the_domain(p, a, b):
    s = specialize(p, {"y": b})
    assert_domain(s)
    assert s.degree_in("y") <= 0
    assert s.evaluate({"x": a}) == p.evaluate({"x": a, "y": b})
    # renaming both variables to one merges terms, which may cancel
    merged = embed(p, ("t",), {"x": "t", "y": "t"})
    assert_domain(merged)
    assert merged.evaluate({"t": a}) == p.evaluate({"x": a, "y": a})


def test_specialize_and_embed_drop_what_cancels():
    # specialize at a root, and rename x and y to one variable
    p = X ** 2 * Y - 4 * Y + X * Y ** 2 - 2 * Y ** 2 + Fraction(1, 2) * X
    s = specialize(p, {"x": 2})
    assert s == ONE and type(s.terms[(0, 0)]) is int
    assert specialize(X ** 2 - 4, {"x": -2}) == ZERO
    merged = embed(X - Y + Fraction(1, 3) * X * Y, ("t",), {"x": "t", "y": "t"})
    assert merged.terms == {(2,): Fraction(1, 3)}
    assert_domain(s, merged)
    assert embed(3 * X - 3 * Y, ("t",), {"x": "t", "y": "t"}).terms == {}


def test_embed_rename():
    big = ("x1", "y1", "x2", "y2")
    p = X ** 2 + 2 * Y
    q = embed(p, big, {"x": "x2", "y": "y2"})
    x2 = MultiPoly.var(big, "x2")
    y2 = MultiPoly.var(big, "y2")
    assert q == x2 ** 2 + 2 * y2


def test_embed_moves_merges_and_refuses():
    big = ("x1", "y1", "x2", "y2")
    p = 3 * X ** 2 * Y - Fraction(1, 2) * Y + 5
    # no two variables land on one: the terms move as they are
    assert embed(p, ("y", "x")) == MultiPoly(("y", "x"), {(1, 2): 3, (1, 0): Fraction(-1, 2),
                                                          (0, 0): 5})
    assert embed(p, big, {"x": "y2", "y": "x1"}).terms == {
        (1, 0, 0, 2): 3, (1, 0, 0, 0): Fraction(-1, 2), (0, 0, 0, 0): 5}
    # a variable that does not occur needs no image
    assert embed(X ** 2 + 1, ("x", "z")).terms == {(2, 0): 1, (0, 0): 1}
    # two variables renamed to one merge their terms, which may cancel,
    # into a ring of one variable or of more
    for ring in (("t",), ("s", "t", "u")):
        merged = embed(X - Y + Fraction(1, 3) * X * Y, ring, {"x": "t", "y": "t"})
        t2 = tuple(2 if v == "t" else 0 for v in ring)
        assert merged == MultiPoly(ring, {t2: Fraction(1, 3)})
        assert embed(3 * X - 3 * Y, ring, {"x": "t", "y": "t"}).terms == {}
    # an occurring variable with no image is an error
    for ring, rename in ((("x", "z"), None), (("x1", "y1"), {"x": "x1"}), (("x",), None)):
        with pytest.raises(ValueError, match="variable 'y' has no image"):
            embed(X + X * Y, ring, rename)


# ---------------------------------------------------------------------------
# printing and parsing
# ---------------------------------------------------------------------------

def test_str_canonical_forms():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-ONE) == "-1"
    assert str(X) == "x"
    assert str(-X) == "-x"
    assert str(X ** 2) == "x^2"
    assert str(2 * X * Y) == "2*x*y"
    assert str(X + Y) == "x + y"
    assert str(X - Y) == "x - y"
    assert str(-X + Y) == "-x + y"
    assert str(Y ** 2 - X ** 3) == "-x^3 + y^2"
    assert str(MultiPoly.const(RING, Fraction(-3, 4))) == "-3/4"
    assert str(Fraction(1, 2) * X + ONE) == "1/2*x + 1"


def test_str_graded_lex_order():
    p = X + Y ** 3 + X * Y
    # degree 3 term first, then degree 2, then degree 1
    assert str(p) == "y^3 + x*y + x"


def test_parse_simple():
    assert parse_poly("x + y", RING) == X + Y
    assert parse_poly("x^2*y - 3", RING) == X ** 2 * Y - 3 * ONE
    assert parse_poly("-x", RING) == -X
    assert parse_poly("0", RING) == ZERO
    assert parse_poly("2/3", RING) == MultiPoly.const(RING, Fraction(2, 3))
    assert parse_poly("(x + y)^2", RING) == X ** 2 + 2 * X * Y + Y ** 2
    assert parse_poly("3/2*x", RING) == Fraction(3, 2) * X
    assert parse_poly("- x + y", RING) == -X + Y  # optional leading sign


def test_parse_whitespace_insensitive():
    assert parse_poly(" x ^ 2 + 1 ", RING) == X ** 2 + ONE


PARSE_ERRORS = [
    ("x +", "unexpected token 'END' at offset 3"),
    ("x^", "expected integer exponent at offset 2"),
    ("x^-1", "expected integer exponent at offset 2"),
    ("(x", "expected ')' at offset 2"),
    ("x)", "trailing input ')' at offset 1"),
    ("z", "unknown variable 'z' at offset 0"),
    ("x**2", "unexpected token '*' at offset 2"),
    ("1.5", "unexpected character '.' at offset 1"),
    ("x^y", "expected integer exponent at offset 2"),
    ("", "unexpected token 'END' at offset 0"),
    ("   ", "unexpected token 'END' at offset 3"),
    ("-", "unexpected token 'END' at offset 1"),
    ("x + + y", "unexpected token '+' at offset 4"),
    ("x $ y", "unexpected character '$' at offset 2"),
    ("x + + $", "unexpected character '$' at offset 6"),
    ("x/2", "trailing input '/' at offset 1"),
    ("1/0", "zero denominator at offset 2"),
    ("1/00", "zero denominator at offset 2"),
    ("1/x", "expected integer denominator at offset 2"),
    ("1/", "expected integer denominator at offset 2"),
    ("3/-2", "expected integer denominator at offset 2"),
    ("1/2/3", "trailing input '/' at offset 3"),
    ("2x", "trailing input 'x' at offset 1"),
    ("x y", "trailing input 'y' at offset 2"),
    ("()", "unexpected token ')' at offset 1"),
    ("(x + y", "expected ')' at offset 6"),
    ("(x + y))", "trailing input ')' at offset 7"),
    ("-(x", "expected ')' at offset 3"),
    ("x + (y * )", "unexpected token ')' at offset 9"),
    ("x^(2)", "expected integer exponent at offset 2"),
    ("*x", "unexpected token '*' at offset 0"),
    ("x^2^3", "trailing input '^' at offset 3"),
    ("x*", "unexpected token 'END' at offset 2"),
    ("x\t+\n y @", "unexpected character '@' at offset 7"),
    ("\u00b2", "unexpected character '\u00b2' at offset 0"),
    ("x^\u00b2", "unexpected character '\u00b2' at offset 2"),
    # past the interpreter's default limit of 4300 digits for int()
    pytest.param("9" * 4301, "integer literal too long at offset 0", id="long-int"),
    pytest.param("x^" + "9" * 4301, "integer literal too long at offset 2", id="long-exp"),
    pytest.param("1/" + "9" * 4301, "integer literal too long at offset 2", id="long-den"),
]


@pytest.mark.parametrize("bad, message", PARSE_ERRORS)
def test_parse_errors(bad, message):
    with pytest.raises(ParseError) as info:
        parse_poly(bad, RING)
    assert str(info.value) == message


DISTINCT = "(%s)*(%s)" % tuple("+".join("%s^%d" % (v, i) for i in range(1000))
                              for v in ("x1", "y1"))


@pytest.mark.parametrize("text, message", [
    ("(x1+y1+x2+1)^50", "power too large at offset 12"),
    ("(x1+1)^3000", "power too large at offset 6"),
    ("3^1000000000", "power too large at offset 1"),
    ("(x1+y1+x2+1)^25*(x1+y1+x2+1)^25", "product too large at offset 15"),
    ("(x1+1)^1000000", "power too large at offset 6"),
    ("x1^1000001", "power too large at offset 2"),
    ("x1^1000*x2^999001", "product too large at offset 7"),
    pytest.param("(((x1^N)^N)^N + 1)^999".replace("N", "9" * 4000),
                 "power too large at offset 5", id="nested-long-exp"),
    # 10^6 pairs that make 10^6 distinct terms
    pytest.param(DISTINCT, "product too large at offset %d" % DISTINCT.index("*"),
                 id="distinct-terms"),
    # results that str() cannot print, past the 4300-digit int->str limit
    ("3^900000", "power too large at offset 1"),
    pytest.param("9" * 4300 + " + " + "9" * 4300, "sum too large at offset 4301",
                 id="long-sum"),
])
def test_parse_refuses_costly_work_before_doing_it(text, message):
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse_poly(text, ("x1", "y1", "x2"))
    assert time.perf_counter() - start < 1
    assert str(info.value) == message


def test_parse_refuses_nesting_past_the_recursion_limit():
    assert parse_poly("(" * 100 + "x" + ")" * 100, RING) == X
    with pytest.raises(ParseError, match="^nesting too deep at offset [0-9]+$"):
        parse_poly("(" * 5000 + "x" + ")" * 5000, RING)


def test_parse_takes_cheap_powers_up_to_the_degree_bound():
    assert parse_poly("(x + 1)^999", RING) == (X + 1) ** 999
    assert parse_poly("-x^500000*y^500000", RING) == -X ** 500000 * Y ** 500000


def test_parse_keeps_coefficients_up_to_the_digit_limit():
    p = parse_poly("9" * 4300 + "*x*y", RING)
    assert parse_poly(str(p), RING) == p


def test_parse_sum_is_linear_in_its_terms():
    texts = [str(MultiPoly(RING, {(i, 0): 1 for i in range(n)})) for n in (5000, 20000)]
    times = [[], []]
    for _ in range(3):  # the two sizes in turn, so that both see the same load
        for text, seen in zip(texts, times):
            seen.append(timeit.timeit(lambda: parse_poly(text, RING), number=1))
    # four times the terms: about four times as long, where a quadratic
    # parse takes about sixteen
    assert min(times[1]) < 8 * min(times[0])
    assert min(times[1]) < 1


@settings(max_examples=300)
@given(polys())
def test_parse_roundtrip(p):
    q = parse_poly(str(p), RING)
    assert q == p
    assert_domain(q)


def test_parse_sums_drop_what_cancels():
    p = parse_poly("1/2*x + 1/2*x + y - (y + 1/3) + 1/3", RING)
    assert p.terms == {(1, 0): 1} and type(p.terms[(1, 0)]) is int
    assert parse_poly("x*y - y*x", RING) == ZERO
    assert_domain(p)


# ---------------------------------------------------------------------------
# exact division
# ---------------------------------------------------------------------------

def test_exact_divide_recovers_factor():
    p = (X + Y) * (X ** 2 - Y + 1)
    assert exact_divide(p, X + Y) == X ** 2 - Y + 1
    assert exact_divide(p, X ** 2 - Y + 1) == X + Y


def test_exact_divide_failure():
    with pytest.raises(ExactDivisionError):
        exact_divide(X ** 2 + Y, X + ONE)
    with pytest.raises(ExactDivisionError):
        exact_divide(X, ZERO)


def test_exact_divide_zero_numerator():
    assert exact_divide(ZERO, X + ONE) == ZERO


@settings(max_examples=200)
@given(polys(), polys())
def test_exact_divide_inverts_mul(p, q):
    if not q:
        return
    quotient = exact_divide(p * q, q)
    assert_domain(quotient)
    assert quotient == p


def _primitive(p):
    return integer_primitive(p)[1]


@st.composite
def x_divisors(draw):
    """Primitive integer polynomials in x of degree 1 to 3."""
    lead = draw(st.integers(min_value=1, max_value=6))
    rest = draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=3))
    return _primitive(sum((c * X ** k for k, c in enumerate(rest + [lead])), ZERO))


@settings(max_examples=150, deadline=None)
@given(polys(), x_divisors(), st.integers(min_value=1, max_value=3))
def test_exact_divide_univariate_matches_exact_divide(f, c, k):
    p = _primitive(f) * c ** k
    assert exact_divide_univariate(p, c) == exact_divide(p, c)
    # a nonzero term free of x cannot be absorbed by a divisor in x
    off = p + Y ** (1 + p.degree_in("y"))
    with pytest.raises(ExactDivisionError):
        exact_divide_univariate(off, c)
    with pytest.raises(ExactDivisionError):
        exact_divide(off, c)


@settings(max_examples=150, deadline=None)
@given(polys(), x_divisors())
def test_exact_divide_univariate_fails_exactly_when_exact_divide_does(f, c):
    p = _primitive(f)
    try:
        want = exact_divide(p, c)
    except ExactDivisionError:
        with pytest.raises(ExactDivisionError):
            exact_divide_univariate(p, c)
    else:
        assert exact_divide_univariate(p, c) == want


def test_exact_divide_univariate_rejects_unsuitable_input():
    with pytest.raises(ValueError):
        exact_divide_univariate(X * Y, 2 * X + 2)  # not primitive
    with pytest.raises(ValueError):
        exact_divide_univariate(X * Y, X + Y)  # not univariate
    with pytest.raises(ValueError):
        exact_divide_univariate(Fraction(1, 2) * X, X)  # not integral
    with pytest.raises(ValueError):
        exact_divide_univariate(X * Y, ONE)  # constant


# ---------------------------------------------------------------------------
# substitution with denominator clearing
# ---------------------------------------------------------------------------

def test_substitute_clears_denominators():
    p = X ** 2 + Y
    num, den = substitute(p, {"x": (Y, X)})  # x -> y/x
    # x^2 -> y^2/x^2, clear by x^2: y^2 + y*x^2
    assert den == X ** 2
    assert num == Y ** 2 + Y * X ** 2


def test_substitute_identity():
    p = X ** 2 * Y + 1
    num, den = substitute(p, {})
    assert num == p and den == ONE


def test_substitute_consistency():
    # num/den must equal p composed with the rational maps, checked by
    # cross-multiplied evaluation at a sample point
    p = X ** 3 - 2 * X * Y + 5
    num, den = substitute(p, {"x": (X + Y, Y), "y": (X, ONE)})
    vals = {"x": Fraction(3), "y": Fraction(2)}
    lhs = num.evaluate(vals)
    cval = p.evaluate({"x": Fraction(5, 2), "y": Fraction(3)})
    assert lhs == cval * den.evaluate(vals)
    assert_domain(num, den)


@settings(max_examples=100)
@given(polys(), polys(max_terms=3, max_exp=2), polys(max_terms=3, max_exp=2))
def test_substitute_keeps_the_domain(p, num, den):
    assume(den)
    q, d = substitute(p, {"x": (num, den), "y": (X, ONE)})
    assert_domain(q, d)
    vals = {"x": Fraction(1, 3), "y": Fraction(-2)}
    if den.evaluate(vals):  # den = y/2 + 1, say, vanishes there
        inner = {"x": num.evaluate(vals) / den.evaluate(vals), "y": vals["x"]}
        assert q.evaluate(vals) == p.evaluate(inner) * d.evaluate(vals)


def test_substitute_drops_what_cancels():
    # x*y - y^2 at x = y is 0, and 1/2*x*y + 1/2*y^2 is y^2
    num, den = substitute(X * Y - Y ** 2, {"x": (Y, ONE)})
    assert num == ZERO and den == ONE
    num, _ = substitute(Fraction(1, 2) * X * Y + Fraction(1, 2) * Y ** 2, {"x": (Y, ONE)})
    assert num.terms == {(0, 2): 1} and type(num.terms[(0, 2)]) is int


def test_substitute_is_linear_in_its_terms():
    # dense p of about 5 000 and 20 000 terms, y -> y/1
    ps = [MultiPoly(RING, {(i, j): i - j or 1 for i in range(n) for j in range(n)})
          for n in (71, 141)]
    times = [[], []]
    for _ in range(3):  # the two sizes in turn, so that both see the same load
        for p, seen in zip(ps, times):
            seen.append(timeit.timeit(lambda: substitute(p, {"y": (Y, ONE)}), number=1))
    # four times the terms: about four times as long, where a sum that is
    # copied for each term takes about sixteen
    assert min(times[1]) < 8 * min(times[0])
    assert min(times[1]) < 1


def test_substitute_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        substitute(X, {"x": (ONE, ZERO)})


# ---------------------------------------------------------------------------
# Weierstrass reduction
# ---------------------------------------------------------------------------

W_RING = ("x", "y")
WX = MultiPoly.var(W_RING, "x")
WY = MultiPoly.var(W_RING, "y")


def test_reduce_weierstrass_basic():
    rhs = WX ** 3 + 1  # y^2 = x^3 + 1
    p = WY ** 2
    assert reduce_weierstrass(p, [("y", rhs)]) == rhs
    p = WY ** 3
    assert reduce_weierstrass(p, [("y", rhs)]) == WY * rhs
    p = WY ** 2 + WY + 1
    assert reduce_weierstrass(p, [("y", rhs)]) == rhs + WY + 1


def test_reduce_weierstrass_drops_what_cancels():
    rhs = WX ** 3 + Fraction(1, 2) * WX
    assert reduce_weierstrass(WY ** 2 - rhs, [("y", rhs)]) == ZERO
    r = reduce_weierstrass(WY ** 4 - WX ** 6 + WX * WY, [("y", rhs)])
    assert r == WX ** 4 + Fraction(1, 4) * WX ** 2 + WX * WY
    assert_domain(r)


def test_reduce_weierstrass_idempotent_example():
    rhs = WX ** 3 - WX + 4
    p = (WY ** 2 + WY) ** 3 + WX * WY ** 4
    r1 = reduce_weierstrass(p, [("y", rhs)])
    assert r1.degree_in("y") <= 1
    assert reduce_weierstrass(r1, [("y", rhs)]) == r1


@settings(max_examples=150)
@given(polys(max_terms=4, max_exp=5))
def test_reduce_weierstrass_preserves_evaluation(p):
    rhs = WX ** 3 + 2 * WX + 3
    r = reduce_weierstrass(p, [("y", rhs)])
    assert r.degree_in("y") <= 1
    assert_domain(r)
    # on the curve y^2 = rhs(x), p and r agree: pick x, set y^2 = rhs
    x0 = Fraction(2)
    y2 = rhs.evaluate({"x": x0, "y": 0})
    # evaluate both as polynomials in y at a symbolic square root:
    # compare p(x0, y) mod (y^2 - y2) with r(x0, y)
    u = ("y",)
    yv = MultiPoly.var(u, "y")
    pu = sum(
        (MultiPoly.const(u, c) * yv ** e[1] *
         MultiPoly.const(u, x0 ** e[0]) for e, c in p.terms.items()),
        MultiPoly.zero(u))
    ru = sum(
        (MultiPoly.const(u, c) * yv ** e[1] *
         MultiPoly.const(u, x0 ** e[0]) for e, c in r.terms.items()),
        MultiPoly.zero(u))
    # reduce pu mod y^2 - y2 by hand
    red = MultiPoly.zero(u)
    for e, c in pu.terms.items():
        k = e[0]
        red = red + MultiPoly.const(u, c * y2 ** (k // 2)) * yv ** (k % 2)
    assert red == ru


# ---------------------------------------------------------------------------
# integer primitive normalization
# ---------------------------------------------------------------------------

def test_integer_primitive_basic():
    p = Fraction(2, 3) * X ** 2 - Fraction(4, 3) * Y
    scale, prim = integer_primitive(p)
    assert prim == X ** 2 - 2 * Y
    assert scale * prim == p  # scale = 2/3
    assert scale == Fraction(2, 3)


def test_integer_primitive_sign():
    scale, prim = integer_primitive(-2 * X)
    assert prim == X
    assert scale == -2


def test_integer_primitive_zero():
    scale, prim = integer_primitive(ZERO)
    assert not prim
    assert scale == 1


@st.composite
def primitive_polys(draw):
    """Nonzero integer polynomials with content 1 and a positive leading
    coefficient, built without integer_primitive."""
    terms = draw(st.dictionaries(
        st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4)),
        st.integers(min_value=-30, max_value=30).filter(bool), min_size=1, max_size=5))
    g = gcd(*terms.values())
    q = MultiPoly(RING, {e: c // g for e, c in terms.items()})
    return -q if q.leading()[1] < 0 else q


@settings(max_examples=200)
@given(primitive_polys(), st.integers(min_value=-12, max_value=12).filter(bool),
       st.integers(min_value=1, max_value=12))
def test_integer_primitive_on_integral_and_fractional_input(q, m, d):
    cases = [(1, q), (-1, -q), (m, m * q), (Fraction(m, d), Fraction(m, d) * q)]
    for scale, p in cases:
        got_scale, prim = integer_primitive(p)
        assert_domain(prim)
        assert type(got_scale) is Fraction
        assert got_scale == scale
        assert prim.terms == q.terms


@settings(max_examples=200)
@given(primitive_polys(), st.integers(min_value=-12, max_value=12).filter(bool),
       st.integers(min_value=2, max_value=12))
def test_integer_primitive_int_path_equals_fraction_path(q, m, d):
    # m*q has int coefficients only, of content |m| and leading sign that
    # of m; m*q/d has Fraction ones, or a mix of int and Fraction
    p = m * q
    assert Fraction not in map(type, p.terms.values())
    scale, prim = integer_primitive(p)
    scale_d, prim_d = integer_primitive(Fraction(1, d) * p)
    assert prim.terms == prim_d.terms == q.terms
    assert scale == m and scale_d == Fraction(m, d)
    assert_domain(prim, prim_d)


def test_integer_primitive_on_mixed_coefficients():
    # x leads: -6x + 9/2 y has content 3/2 and leads negative
    mixed = MultiPoly(RING, {(1, 0): -6, (0, 1): Fraction(9, 2)})
    assert integer_primitive(mixed) == (Fraction(-3, 2), 4 * X - 3 * Y)
    assert integer_primitive(2 * mixed) == (-3, 4 * X - 3 * Y)
    prim = 4 * X - 3 * Y
    assert integer_primitive(prim)[1] is prim  # already primitive


@settings(max_examples=200)
@given(polys())
def test_integer_primitive_properties(p):
    scale, prim = integer_primitive(p)
    assert_domain(prim)
    assert scale * prim == p
    if not p:
        return
    assert scale != 0
    cs = list(prim.terms.values())
    assert all(type(c) is int for c in cs)
    g = 0
    for c in cs:
        g = gcd(g, abs(c.numerator))
    assert g == 1
    assert prim.leading()[1] > 0
