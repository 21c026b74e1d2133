"""Tests for the finite-field brute-force oracle."""

import random
from fractions import Fraction

import pytest

from ellprod import oracle
from ellprod.curves import WeierstrassCurve
from ellprod.isogenies import DiagonalIsogeny
from ellprod.oracle import (
    BadReductionError,
    PrimeFieldCtx,
    add_points_mod,
    degree_spot_check,
    enumerate_points,
    eval_mod,
    poly_mod,
    scalar_mul_mod,
    verify_maps_vs_group_law,
    verify_preimage_membership,
)
from ellprod.polynomials import parse_poly
from ellprod.preimages import generate_preimage
from ellprod.products import (
    MultiDegreeTable,
    ProductSystem,
    SubvarietyPresentation,
    make_cn_curve,
)

E01 = WeierstrassCurve(0, 1)
C3 = make_cn_curve(E01, E01, 3)
SYS = C3.system


def test_scale_policy_constants_frozen():
    assert oracle.EXHAUSTIVE_MAX_P == 31
    assert oracle.SAMPLE_SEED == 20260815
    assert oracle.SAMPLE_COUNT == 2000


def test_ctx_validation():
    with pytest.raises(BadReductionError):
        PrimeFieldCtx(6, SYS)
    with pytest.raises(BadReductionError):
        PrimeFieldCtx(2, SYS)
    with pytest.raises(BadReductionError):
        PrimeFieldCtx(3, SYS)
    # disc(y^2 = x^3 + 5) = -16*27*25 is divisible by 5
    bad = ProductSystem([WeierstrassCurve(0, 5)])
    with pytest.raises(BadReductionError):
        PrimeFieldCtx(5, bad)
    ctx = PrimeFieldCtx(7, SYS)
    assert ctx.p == 7 and ctx.curves_mod == [(0, 1), (0, 1)]
    with pytest.raises(BadReductionError):
        ctx.require_separable([3, 7])
    ctx.require_separable([2, 5])


def test_enumerate_points():
    ctx = PrimeFieldCtx(7, SYS)
    pts = enumerate_points(ctx, 0)
    assert pts[0] is None
    assert len(pts) == 12  # y^2 = x^3 + 1 has 12 points over F_7
    for P in pts[1:]:
        x, y = P
        assert (y * y - x ** 3 - 1) % 7 == 0
    # Hasse window for a couple of larger primes
    for p in (11, 13, 37):
        n = len(enumerate_points(PrimeFieldCtx(p, SYS), 1))
        assert (n - (p + 1)) ** 2 <= 4 * p


def test_group_law_mod_matches_rational():
    # 6-torsion arithmetic on y^2 = x^3 + 1 reduces faithfully mod 7
    p, A = 7, 0
    assert add_points_mod(p, A, (2, 3), (0, 1)) == (6, 0)  # (-1,0) mod 7
    assert add_points_mod(p, A, (2, 3), None) == (2, 3)
    assert add_points_mod(p, A, (2, 3), (2, 4)) is None  # inverse pair
    assert scalar_mul_mod(p, A, 0, (2, 3)) is None
    assert scalar_mul_mod(p, A, 6, (2, 3)) is None  # order 6
    assert scalar_mul_mod(p, A, 2, (2, 3)) == (0, 1)
    assert scalar_mul_mod(p, A, -1, (2, 3)) == (2, 4)
    assert scalar_mul_mod(p, A, -2, (2, 3)) == (0, 6)


def test_group_axioms_sampled():
    ctx = PrimeFieldCtx(11, SYS)
    pts = enumerate_points(ctx, 0)
    rng = random.Random(3)
    for _ in range(150):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        assert add_points_mod(11, 0, P, Q) == add_points_mod(11, 0, Q, P)
        assert add_points_mod(11, 0, add_points_mod(11, 0, P, Q), R) == \
            add_points_mod(11, 0, P, add_points_mod(11, 0, Q, R))
        assert add_points_mod(11, 0, P, Q) is None or \
            add_points_mod(11, 0, P, Q) in pts


def test_poly_mod_and_eval():
    ring = ("x", "y")
    p = parse_poly("x^2*y - 3*x + 5", ring) * Fraction(1, 2)
    reduced = poly_mod(p, 7, ring)
    # 1/2 = 4 mod 7
    assert sorted(reduced) == sorted([(4, (2, 1)), (4 * -3 % 7, (1, 0)),
                                      (4 * 5 % 7, (0, 0))])
    # evaluate both ways at (x, y) = (3, 2)
    want = p.evaluate({"x": 3, "y": 2}) % 7  # Fraction % int -> Fraction
    assert eval_mod(reduced, (3, 2), 7) == want
    with pytest.raises(BadReductionError):
        poly_mod(parse_poly("1", ring) * Fraction(1, 7), 7, ring)


def test_maps_vs_group_law():
    for p in (5, 7, 13):
        ctx = PrimeFieldCtx(p, SYS)
        for alpha in (2, 3, 5):
            if alpha % p == 0:
                continue
            rep = verify_maps_vs_group_law(ctx, 0, alpha)
            assert rep["ok"], rep
            assert rep["exceptional_equals_kernel"]
            assert rep["checked"] > 0
            assert rep["mismatches"] == []
            assert rep["p"] == p and rep["alpha"] == alpha
    with pytest.raises(BadReductionError):
        verify_maps_vs_group_law(PrimeFieldCtx(5, SYS), 0, 5)


def test_maps_vs_group_law_large_alpha():
    for p in (13, 101):
        ctx = PrimeFieldCtx(p, SYS)
        for alpha in (8, 9, 11):
            rep = verify_maps_vs_group_law(ctx, 0, alpha)
            assert rep["ok"], rep
            assert rep["checked"] > 0


def test_maps_exceptional_counts():
    # over F_7 the affine kernel of [2] on y^2 = x^3 + 1 is the full
    # 2-torsion (x^3 + 1 splits), so 3 points are exceptional of the 11
    rep = verify_maps_vs_group_law(PrimeFieldCtx(7, SYS), 0, 2)
    assert sorted(rep["exceptional"]) == [(3, 0), (5, 0), (6, 0)]
    assert rep["checked"] == 8


def test_membership_exhaustive():
    pre = generate_preimage(C3, DiagonalIsogeny([2, 1]))
    rep = verify_preimage_membership(PrimeFieldCtx(7, SYS), pre)
    assert rep["ok"]
    assert rep["mode"] == "exhaustive"
    assert rep["iterated"] == 121  # 11 affine points on each factor
    assert rep["excluded"] == 33   # x1 in {3,5,6} kills t_2
    assert rep["equations_vanish"] == rep["image_on_subvariety"]
    assert rep["mismatches"] == []


def test_membership_sampled_large_prime():
    pre = generate_preimage(C3, DiagonalIsogeny([2, 1]))
    rep = verify_preimage_membership(PrimeFieldCtx(37, SYS), pre)
    assert rep["ok"]
    assert rep["mode"] == "sampled"
    assert rep["iterated"] <= oracle.SAMPLE_COUNT
    # fixed-seed sampling is reproducible
    rep2 = verify_preimage_membership(PrimeFieldCtx(37, SYS), pre)
    assert rep == rep2


def test_membership_sampled_three_factors():
    # three factors force sampling even at desk-scale primes
    sys3 = ProductSystem([E01, E01, E01])
    table = MultiDegreeTable(1, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    eqs = [parse_poly("y1 - y2", sys3.ring), parse_poly("x2 - x3", sys3.ring)]
    V = SubvarietyPresentation(sys3, eqs, 1, table, False)
    pre = generate_preimage(V, DiagonalIsogeny([1, 1, 1]))
    rep = verify_preimage_membership(PrimeFieldCtx(7, sys3), pre)
    assert rep["mode"] == "sampled"
    assert rep["iterated"] == min(oracle.SAMPLE_COUNT, 11 ** 3)
    assert rep["ok"]


def test_membership_system_mismatch():
    pre = generate_preimage(C3, DiagonalIsogeny([2, 1]))
    other = ProductSystem([WeierstrassCurve(-1, 0), WeierstrassCurve(-1, 0)])
    with pytest.raises(ValueError):
        verify_preimage_membership(PrimeFieldCtx(7, other), pre)


def test_degree_spot_check():
    pre = generate_preimage(C3, DiagonalIsogeny([2, 1]))
    rep = degree_spot_check(PrimeFieldCtx(7, SYS), pre, "x1")
    assert rep["informational"] is True
    assert rep["fiber_coordinate"] == "x1"
    assert rep["max_fiber_size"] >= 1
    assert rep["equation_degrees"] == [{"x1": 12, "y2": 1}]
    rep2 = degree_spot_check(PrimeFieldCtx(7, SYS), pre, "x2")
    assert rep2["fiber_count"] >= 1
