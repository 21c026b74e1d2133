"""Diagonal isogenies [alpha_1, ..., alpha_N] on products of elliptic curves.

The map acts as scalar multiplication by alpha_j on the j-th factor; its
degree is prod alpha_j^2.  Composition is componentwise multiplication of
the integer vectors.
"""

from .arith import prime_factors, require_int


class DiagonalIsogeny:
    """Componentwise scalar multiplication with nonzero integer multipliers."""

    def __init__(self, alphas):
        alphas = tuple(require_int(a, "multiplier") for a in alphas)
        if not alphas:
            raise ValueError("need at least one component")
        if any(a == 0 for a in alphas):
            raise ValueError("zero component is not an isogeny")
        self.alphas = alphas

    @property
    def n_factors(self):
        return len(self.alphas)

    def degree(self):
        d = 1
        for a in self.alphas:
            d *= a * a
        return d

    def compose(self, other):
        """self o other (the order is immaterial: components multiply)."""
        if not isinstance(other, DiagonalIsogeny):
            raise TypeError("can only compose with another DiagonalIsogeny")
        if self.n_factors != other.n_factors:
            raise ValueError("component count mismatch")
        return DiagonalIsogeny([a * b for a, b in zip(self.alphas, other.alphas)])

    def factor_degree_primes(self):
        """Sorted primes dividing the degree (arith.prime_factors of the
        alpha_j; ValueError where that cannot factor)."""
        return sorted({p for a in self.alphas for p in prime_factors(a)})

    def __eq__(self, other):
        return isinstance(other, DiagonalIsogeny) and self.alphas == other.alphas

    def __hash__(self):
        return hash(("DiagonalIsogeny", self.alphas))

    def __repr__(self):
        return "DiagonalIsogeny(%r)" % (list(self.alphas),)
