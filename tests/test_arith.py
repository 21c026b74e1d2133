"""Tests for the shared number theory: Miller-Rabin is_prime and
prime_factors, and the int->str digit-limit lift."""

import sys
import time
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from ellprod.arith import (MR_LIMIT, TRIAL_LIMIT, is_prime, prime_factors,
                           unlimited_int_str)


def trial_division_is_prime(n):
    n = abs(n)
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_agrees_with_trial_division_below_1e5():
    assert all(is_prime(n) == trial_division_is_prime(n)
               for n in range(-10 ** 5 + 1, 10 ** 5))


@pytest.mark.parametrize("n", [
    3215031751,                  # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,         # strong pseudoprime to bases 2..23
    318665857834031151167461,    # strong pseudoprime to bases 2..37
])
def test_strong_pseudoprimes_are_composite(n):
    assert not is_prime(n)
    assert not is_prime(-n)


def test_is_prime_refuses_beyond_the_proven_range():
    assert MR_LIMIT == 3317044064679887385961981
    with pytest.raises(ValueError):
        is_prime(MR_LIMIT)
    with pytest.raises(ValueError):
        is_prime(-MR_LIMIT)
    assert not is_prime(MR_LIMIT - 1)


def test_large_prime_is_fast():
    t0 = time.perf_counter()
    assert is_prime(10 ** 18 + 3)
    assert not is_prime(10 ** 18 + 1)
    assert time.perf_counter() - t0 < 0.1


_SMALL_PRIMES = [p for p in range(2, 2000) if trial_division_is_prime(p)]


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.sampled_from(_SMALL_PRIMES), st.integers(1, 3),
                       max_size=4),
       st.sampled_from([1, 1000003, 10 ** 9 + 7, 10 ** 18 + 3]),
       st.sampled_from([1, -1]))
def test_prime_factors_round_trip(exponents, large, sign):
    # at most one prime factor above the trial limit, as documented
    n = sign * large * prod(p ** e for p, e in exponents.items())
    assert prime_factors(n) == sorted(exponents) + ([large] if large > 1 else [])


def test_prime_factors_edge_cases():
    assert prime_factors(1) == [] and prime_factors(-1) == []
    assert prime_factors(-12) == [2, 3]
    assert prime_factors(10 ** 18 + 3) == [10 ** 18 + 3]
    with pytest.raises(ValueError):
        prime_factors(0)


def test_prime_factors_refuses_a_composite_cofactor():
    # both factors exceed the trial limit, so the cofactor stays composite
    assert TRIAL_LIMIT == 10 ** 6
    with pytest.raises(ValueError):
        prime_factors(1000036000099)  # 1000003 * 1000033


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no int->str digit limit in this interpreter")
def test_unlimited_int_str_lifts_the_limit_inside_the_block_only():
    before = sys.get_int_max_str_digits()
    big = 10 ** (before + 10) if before else 10 ** 5000
    with unlimited_int_str():
        assert len(str(big)) > before
    assert sys.get_int_max_str_digits() == before
    with pytest.raises(KeyError):
        with unlimited_int_str():
            raise KeyError("restored on the way out")
    assert sys.get_int_max_str_digits() == before


def _entry_point_calls():
    from ellprod import arith, certificates, curves, heights, polynomials, products

    E = curves.WeierstrassCurve(0, 1)
    C3 = products.make_cn_curve(E, E, 3)
    P = curves.CurvePoint(2, 3)
    ring = ("x", "y")
    x = polynomials.MultiPoly.var(ring, "x")
    return {
        # each used to truncate: y2 = x1^2, [2], 81, P_3, [2]P, c0(2,1,1),
        # primes [101, 103]; then 7 is prime, [2, 3], lambda(2, 1) = 400,
        # N = 2, alpha = 5, deg_C = 3 echoed, x^2, x, 3*x, dim 1, and
        # transverse True from "no"
        "is_prime": lambda: arith.is_prime(7.9),
        "prime_factors": lambda: arith.prime_factors(12.5),
        "galateau_lambda": lambda: heights.galateau_lambda(2.7, 1.2),
        "essential_minimum_image_bounds": lambda: heights.essential_minimum_image_bounds(
            2.9, 2, 1, 5.5, 3.2),
        "poly_pow": lambda: x ** 2.5,
        "poly_pow_bool": lambda: x ** True,
        "exponent_tuple": lambda: polynomials.MultiPoly(ring, {(1.9, 0): 3}),
        "make_cn_curve": lambda: products.make_cn_curve(E, E, 2.5),
        "multiplication_maps": lambda: curves.multiplication_maps(2.9, E),
        "preimage_degree_curve": lambda: products.preimage_degree_curve([9, 18.7], 1, 2.2),
        "division_polynomial": lambda: curves.division_polynomial(3.7, E),
        "scalar_mul_point": lambda: curves.scalar_mul_point(E, 2.5, P),
        "c0": lambda: heights.c0(2.9, 1, 1),
        "prec": lambda: heights.c0(1, 1, 1, prec=100.7),  # used to run at 100 bits
        "check_theorem_a": lambda: certificates.check_theorem_a(C3, [101.7, 103.2]),
        "zhang_special_bound": lambda: heights.zhang_special_bound(2.5, 1, 1),
        "bezout_intersection_bounds": lambda: heights.bezout_intersection_bounds(
            1, 1, 1, 1, 1, 2, 1.5),
        "bool": lambda: curves.multiplication_maps(True, E),
        "subvariety_dim": lambda: products.SubvarietyPresentation(
            C3.system, C3.equations, 1.9, C3.degrees, True),
        "subvariety_transverse": lambda: products.SubvarietyPresentation(
            C3.system, C3.equations, 1, C3.degrees, "no"),
    }


@pytest.mark.parametrize("name", list(_entry_point_calls()))
def test_entry_points_read_integers_exactly(name):
    with pytest.raises(TypeError):
        _entry_point_calls()[name]()


def _rational_entry_point_calls():
    from ellprod import curves, heights, polynomials

    E = curves.WeierstrassCurve(0, 1)
    ring = ("x", "y")
    x = polynomials.MultiPoly.var(ring, "x")
    return {
        # each used to read the float as its binary fraction:
        # 3602879701896397/36028797018963968, 1/2*x, and so on
        "const": lambda: polynomials.MultiPoly.const(ring, 0.1),
        "const_bool": lambda: polynomials.MultiPoly.const(ring, True),
        "coefficient": lambda: polynomials.MultiPoly(ring, {(1, 0): 0.5}),
        "evaluate": lambda: x.evaluate({"x": 0.5}),
        "point_x": lambda: curves.CurvePoint(0.1, 2),
        "point_y": lambda: curves.CurvePoint(2, 3.0),
        "rhs": lambda: E.rhs(0.5),
        "contains": lambda: E.contains(2, 3.0),
        # the height of that binary fraction, 38.12, not log 10; and the
        # text was parsed
        "weil_height_rational": lambda: heights.weil_height_rational(0.1),
        "weil_height_rational_text": lambda: heights.weil_height_rational("1/3"),
    }


@pytest.mark.parametrize("name", list(_rational_entry_point_calls()))
def test_entry_points_read_rationals_exactly(name):
    # text gets the ValueError of malformed numeric text, other types a
    # TypeError
    with pytest.raises(ValueError if name.endswith("_text") else TypeError):
        _rational_entry_point_calls()[name]()
