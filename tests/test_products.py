"""Tests for product coordinate rings, multidegree tables, and the
preimage degree formulas."""

import random

import pytest

from ellprod.curves import WeierstrassCurve
from ellprod.isogenies import DiagonalIsogeny
from ellprod.polynomials import MultiPoly, parse_poly
from ellprod.products import (
    MultiDegreeTable,
    ProductSystem,
    SubvarietyPresentation,
    make_cn_curve,
    preimage_degree,
    preimage_degree_curve,
    preimage_multidegrees,
    product_ring,
    read_multidegree_rows,
    subvariety_from_dict,
    subvariety_to_dict,
    total_degree,
)

E01 = WeierstrassCurve(0, 1)


def test_product_ring_names():
    assert product_ring(1) == ("x1", "y1")
    assert product_ring(3) == ("x1", "y1", "x2", "y2", "x3", "y3")


def test_product_system():
    sys2 = ProductSystem([E01, WeierstrassCurve(-1, 0)])
    assert sys2.n_factors == 2
    assert sys2.ring == ("x1", "y1", "x2", "y2")
    cub = sys2.coordinate_cubic(2)
    assert cub == parse_poly("x2^3 - x2", sys2.ring)
    rels = sys2.weierstrass_relations()
    assert [name for name, _ in rels] == ["y1", "y2"]
    assert rels[0][1] == parse_poly("x1^3 + 1", sys2.ring)
    assert sys2.coordinate_poly(2, {4: 3, 0: -7}) == parse_poly("3*x2^4 - 7", sys2.ring)
    for j in (0, 3):
        with pytest.raises(ValueError):
            sys2.coordinate_poly(j, {1: 1})
    with pytest.raises(ValueError):
        ProductSystem([])
    with pytest.raises(TypeError):
        ProductSystem([E01, "not a curve"])


# ---------------------------------------------------------------------------
# multidegree tables
# ---------------------------------------------------------------------------

def test_table_validation():
    t = MultiDegreeTable(1, {(1, 0): 9, (0, 1): 18})
    assert t.n_factors == 2
    assert t.get((1, 0)) == 9
    with pytest.raises(ValueError):
        MultiDegreeTable(1, {(1, 0): 9})  # incomplete
    with pytest.raises(ValueError):
        MultiDegreeTable(1, {(1, 0): 9, (0, 1): 6, (1, 1): 1})  # wrong weight
    with pytest.raises(ValueError):
        MultiDegreeTable(1, {(1, 0): 9, (0, 1): -1})  # negative entry
    with pytest.raises(ValueError):
        MultiDegreeTable(0, {})  # empty
    with pytest.raises(ValueError, match="no factors"):
        MultiDegreeTable(0, {(): 1})
    with pytest.raises(ValueError, match="no factors"):
        read_multidegree_rows([{"I": [], "deg": 7}], 0, 0)


@pytest.mark.parametrize("dim, entries", [
    (1, {(1, 0): 9.9, (0, 1): 18}),
    (1, {(1, 0): True, (0, 1): 18}),
    (1.0, {(1, 0): 9, (0, 1): 18}),
    (1, {(1.0, 0): 9, (0, 1): 18}),
])
def test_table_values_are_read_exactly(dim, entries):
    # {(1,0): 9.9, ...} used to store 9
    with pytest.raises(TypeError):
        MultiDegreeTable(dim, entries)


def test_index_order_is_position_lexicographic():
    t = MultiDegreeTable(1, {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): 3})
    assert t.index_order() == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    t2 = MultiDegreeTable(2, {(1, 1, 0): 1, (1, 0, 1): 2, (0, 1, 1): 3})
    assert t2.index_order() == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]


def test_total_degree_formula():
    # dim! * sum of entries
    t = MultiDegreeTable(1, {(1, 0): 9, (0, 1): 18})
    assert t.total_degree() == 27
    t2 = MultiDegreeTable(2, {(1, 1, 0): 1, (1, 0, 1): 2, (0, 1, 1): 3})
    assert t2.total_degree() == 2 * 6


# ---------------------------------------------------------------------------
# subvariety presentations
# ---------------------------------------------------------------------------

def test_make_cn_curve():
    for n in range(1, 11):
        V = make_cn_curve(E01, E01, n)
        assert V.dim == 1
        assert V.transverse
        assert V.degrees.get((1, 0)) == 9
        assert V.degrees.get((0, 1)) == 6 * n
        assert total_degree(V) == 6 * n + 9
        ring = V.system.ring
        want = (MultiPoly.var(ring, "y2")
                - MultiPoly.var(ring, "x1") ** n)
        assert V.equations == (want,)
    with pytest.raises(ValueError):
        make_cn_curve(E01, E01, 0)


def test_presentation_validation():
    sys2 = ProductSystem([E01, E01])
    table = MultiDegreeTable(1, {(1, 0): 9, (0, 1): 6})
    eq = parse_poly("y2 - x1", sys2.ring)
    V = SubvarietyPresentation(sys2, [eq], 1, table, True)
    assert V.n_factors == 2
    with pytest.raises(ValueError):  # dim mismatch with table
        SubvarietyPresentation(sys2, [eq], 2, table, True)
    with pytest.raises(ValueError):  # zero equation
        SubvarietyPresentation(sys2, [MultiPoly.zero(sys2.ring)], 1, table, True)
    with pytest.raises(ValueError):  # wrong ring
        SubvarietyPresentation(sys2, [parse_poly("x", ("x",))], 1, table, True)
    with pytest.raises(TypeError):
        SubvarietyPresentation("nope", [eq], 1, table, True)


# ---------------------------------------------------------------------------
# preimage degrees
# ---------------------------------------------------------------------------

def test_preimage_multidegrees_cn():
    V = make_cn_curve(E01, E01, 3)
    pre = preimage_multidegrees(V, DiagonalIsogeny([2, 1]))
    # entry at I gains alpha_k^2 for every k outside the support of I
    assert pre.get((1, 0)) == 9 * 1  # alpha_2^2 = 1
    assert pre.get((0, 1)) == 18 * 4  # alpha_1^2 = 4
    assert pre.total_degree() == 81
    pre5 = preimage_multidegrees(V, DiagonalIsogeny([1, 5]))
    assert pre5.get((1, 0)) == 9 * 25
    assert pre5.get((0, 1)) == 18
    assert pre5.total_degree() == 243


def test_preimage_degree_arity_check():
    V = make_cn_curve(E01, E01, 3)
    with pytest.raises(ValueError):
        preimage_degree(V, DiagonalIsogeny([2, 1, 1]))


def test_preimage_degree_curve_shortcut():
    # d_j + alpha^2 * sum_{i != j} d_i
    assert preimage_degree_curve([9, 18], 1, 2) == 9 + 4 * 18
    assert preimage_degree_curve([9, 18], 2, 5) == 18 + 25 * 9
    with pytest.raises(ValueError):
        preimage_degree_curve([9, 18], 3, 2)
    # the inputs MultiDegreeTable and DiagonalIsogeny refuse, refused alike
    with pytest.raises(ValueError, match="zero component is not an isogeny"):
        preimage_degree_curve([9, 6], 1, 0)
    with pytest.raises(ValueError, match=r"negative multidegree at \(1, 0\)"):
        preimage_degree_curve([-5, 6], 1, 2)


def test_both_degree_paths_agree():
    # table path vs curve shortcut for single-slot isogenies
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(2, 5)
        d = [rng.randint(0, 20) for _ in range(n)]
        entries = {tuple(1 if i == k else 0 for i in range(n)): d[k]
                   for k in range(n)}
        table = MultiDegreeTable(1, entries)
        j = rng.randint(1, n)
        alpha = rng.choice([-7, -3, -2, 1, 2, 3, 5, 10])
        alphas = [1] * n
        alphas[j - 1] = alpha
        assert (preimage_degree(table, DiagonalIsogeny(alphas))
                == preimage_degree_curve(d, j, alpha))


def test_preimage_functorial_under_composition():
    V = make_cn_curve(E01, E01, 2)
    f = DiagonalIsogeny([2, 3])
    g = DiagonalIsogeny([5, 1])
    once = preimage_multidegrees(preimage_multidegrees(V.degrees, f), g)
    composed = preimage_multidegrees(V.degrees, f.compose(g))
    assert once == composed


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_dict_roundtrip():
    V = make_cn_curve(WeierstrassCurve(0, 1), WeierstrassCurve(-1, 0), 4)
    d = subvariety_to_dict(V)
    assert d["dim"] == 1
    assert d["curves"] == [{"A": 0, "B": 1}, {"A": -1, "B": 0}]
    assert d["transverse"] is True
    assert d["multidegrees"] == [{"I": [1, 0], "deg": 9},
                                 {"I": [0, 1], "deg": 24}]
    W = subvariety_from_dict(d)
    assert W.system == V.system
    assert W.equations == V.equations
    assert W.degrees == V.degrees
    assert W.transverse == V.transverse
    # and the round trip is stable
    assert subvariety_to_dict(W) == d
