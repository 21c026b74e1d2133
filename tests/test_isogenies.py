"""Tests for diagonal isogenies."""

import pytest

from ellprod.isogenies import DiagonalIsogeny


def test_construction():
    phi = DiagonalIsogeny([2, -1, 5])
    assert phi.alphas == (2, -1, 5)
    assert phi.n_factors == 3
    with pytest.raises(ValueError):
        DiagonalIsogeny([])
    with pytest.raises(ValueError):
        DiagonalIsogeny([2, 0])


@pytest.mark.parametrize("alphas", [[2.9, 1], [2, 1.0], [True, 1], ["2", 1]])
def test_multipliers_are_read_exactly(alphas):
    # a float, bool or str multiplier is refused, never truncated
    with pytest.raises(TypeError):
        DiagonalIsogeny(alphas)


def test_degree():
    assert DiagonalIsogeny([1, 1]).degree() == 1
    assert DiagonalIsogeny([2, 1]).degree() == 4
    assert DiagonalIsogeny([1, 5]).degree() == 25
    assert DiagonalIsogeny([-2, 3]).degree() == 36


def test_compose():
    f = DiagonalIsogeny([2, 3])
    g = DiagonalIsogeny([5, -1])
    assert f.compose(g).alphas == (10, -3)
    assert f.compose(g) == g.compose(f)
    assert f.compose(g).degree() == f.degree() * g.degree()
    with pytest.raises(ValueError):
        f.compose(DiagonalIsogeny([1]))
    with pytest.raises(TypeError):
        f.compose([1, 1])


def test_factor_degree_primes():
    assert DiagonalIsogeny([2, 1]).factor_degree_primes() == [2]
    assert DiagonalIsogeny([6, 35]).factor_degree_primes() == [2, 3, 5, 7]
    assert DiagonalIsogeny([1, 1]).factor_degree_primes() == []
    assert DiagonalIsogeny([-15, 1]).factor_degree_primes() == [3, 5]
    # primes of the degree = primes of the components (degree is the square)
    phi = DiagonalIsogeny([12, 9])
    deg = phi.degree()
    for p in phi.factor_degree_primes():
        assert deg % p == 0
    leftover = deg
    for p in phi.factor_degree_primes():
        while leftover % p == 0:
            leftover //= p
    assert leftover == 1


def test_eq_hash_repr():
    assert DiagonalIsogeny([2, 1]) == DiagonalIsogeny([2, 1])
    assert DiagonalIsogeny([2, 1]) != DiagonalIsogeny([1, 2])
    assert len({DiagonalIsogeny([2, 1]), DiagonalIsogeny([2, 1])}) == 1
    assert "2" in repr(DiagonalIsogeny([2, 1]))
