"""Products of elliptic curves, subvarieties, and multidegree bookkeeping.

A product E_1 x ... x E_N carries affine coordinates (x1, y1, ..., xN, yN).
Subvarieties are presented by exact polynomial equations in those
coordinates together with their dimension and the table of multidegrees
deg_I indexed by 0/1 tuples I of weight dim (the choice of |I| hyperplane
classes pulled back from the factors).  The (total) degree of a
dimension-d subvariety is d! times the sum of the table.

Pulling back along a diagonal isogeny [alpha_1, ..., alpha_N] multiplies
the entry at I by prod_{k: i_k = 0} alpha_k^2, because the class of a
coordinate hyperplane pulls back to alpha_k^2 times itself on the k-th
factor and the entries with i_k = 1 cap that factor away.
"""

from itertools import combinations
from math import comb, factorial

from .arith import require_int
from .polynomials import MultiPoly, parse_poly
from .curves import WeierstrassCurve


def product_ring(n):
    """Coordinate ring variable names (x1, y1, ..., xn, yn)."""
    names = []
    for j in range(1, n + 1):
        names.append("x%d" % j)
        names.append("y%d" % j)
    return tuple(names)


class ProductSystem:
    """An ordered tuple of short Weierstrass curves."""

    def __init__(self, curves):
        curves = tuple(curves)
        if not curves:
            raise ValueError("need at least one curve")
        for E in curves:
            if not isinstance(E, WeierstrassCurve):
                raise TypeError("expected WeierstrassCurve, got %r" % (E,))
        self.curves = curves
        self.ring = product_ring(len(curves))

    @property
    def n_factors(self):
        return len(self.curves)

    def coordinate_poly(self, j, coeffs):
        """The sum of c*x_j^k over coeffs {k: nonzero c} in the product
        coordinate ring (j 1-based), its terms written by position in
        the order of coeffs."""
        x = "x%d" % j
        if x not in self.ring:
            raise ValueError("variable %r not in ring %r" % (x, self.ring))
        i = self.ring.index(x)
        head, tail = (0,) * i, (0,) * (len(self.ring) - i - 1)
        return MultiPoly._trusted(self.ring, {head + (k,) + tail: c for k, c in coeffs.items()})

    def coordinate_cubic(self, j):
        """x_j^3 + A_j*x_j + B_j in the product coordinate ring (j 1-based)."""
        E = self.curves[j - 1]
        # in the order x^3 + A*x + B makes them
        return self.coordinate_poly(j, {k: c for k, c in ((3, 1), (1, E.A), (0, E.B)) if c})

    def weierstrass_relations(self):
        """[(y_j name, cubic in x_j)] for reduce_weierstrass."""
        return [("y%d" % j, self.coordinate_cubic(j))
                for j in range(1, self.n_factors + 1)]

    def __eq__(self, other):
        return isinstance(other, ProductSystem) and self.curves == other.curves

    def __repr__(self):
        return "ProductSystem(%r)" % (list(self.curves),)


def _weight_dim_indices(n, dim):
    out = []
    for combo in combinations(range(n), dim):
        I = [0] * n
        for i in combo:
            I[i] = 1
        out.append(tuple(I))
    return out


def _complete_table(entries, n_factors, dim):
    """entries if each I is a 0/1 tuple of length n_factors and weight dim,
    every such I is present, no degree is negative and there is at least
    one factor; ValueError if not."""
    for I, d in entries.items():
        if len(I) != n_factors or any(i not in (0, 1) for i in I) or sum(I) != dim:
            raise ValueError("bad multidegree index %r" % (I,))
        if d < 0:
            raise ValueError("negative multidegree at %r" % (I,))
    if not entries or len(entries) != comb(n_factors, dim):
        raise ValueError("incomplete multidegree table")
    if n_factors < 1:
        raise ValueError("multidegree table over no factors")
    return entries


class MultiDegreeTable:
    """Complete table {I: deg_I} over 0/1 tuples I of weight dim."""

    def __init__(self, dim, entries):
        dim = require_int(dim, "dim")
        entries = {tuple(require_int(i, "index entry") for i in I): require_int(d, "degree")
                   for I, d in entries.items()}
        self.dim = dim
        self.n_factors = len(next(iter(entries), ()))
        self.entries = _complete_table(entries, self.n_factors, dim)

    @classmethod
    def _trusted(cls, dim, n_factors, entries):
        """A table derived from a checked one, skipping the checks of
        __init__: entries must already satisfy them."""
        table = object.__new__(cls)
        table.dim, table.n_factors, table.entries = dim, n_factors, entries
        return table

    def index_order(self):
        """Deterministic index order (position-subset lexicographic)."""
        return _weight_dim_indices(self.n_factors, self.dim)

    def get(self, I):
        return self.entries[tuple(I)]

    def rows(self):
        """JSON form: [{"I": [...], "deg": d}, ...] in index_order."""
        return [{"I": list(I), "deg": self.entries[I]} for I in self.index_order()]

    def total_degree(self):
        return factorial(self.dim) * sum(self.entries.values())

    def __eq__(self, other):
        return (isinstance(other, MultiDegreeTable)
                and self.dim == other.dim and self.entries == other.entries)

    def __repr__(self):
        body = ", ".join("%r: %d" % (I, self.entries[I]) for I in self.index_order())
        return "MultiDegreeTable(dim=%d, {%s})" % (self.dim, body)


class SubvarietyPresentation:
    """Equations + dimension + multidegree table + transversality flag.

    The transverse flag is an input hypothesis carried along verbatim; the
    certification layer restates it in every certificate it emits.
    """

    def __init__(self, system, equations, dim, degrees, transverse):
        if not isinstance(system, ProductSystem):
            raise TypeError("system must be a ProductSystem")
        if not isinstance(degrees, MultiDegreeTable):
            raise TypeError("degrees must be a MultiDegreeTable")
        if degrees.n_factors != system.n_factors:
            raise ValueError("multidegree table is for %d factors, system has %d"
                             % (degrees.n_factors, system.n_factors))
        dim = require_int(dim, "dim")
        if not isinstance(transverse, bool):
            raise TypeError("transverse must be a bool, got %r" % (transverse,))
        if degrees.dim != dim:
            raise ValueError("table dimension %d != stated dimension %d"
                             % (degrees.dim, dim))
        equations = tuple(equations)
        for eq in equations:
            if eq.ring != system.ring:
                raise ValueError("equation ring %r does not match product ring %r"
                                 % (eq.ring, system.ring))
            if not eq:
                raise ValueError("zero polynomial is not a defining equation")
        self.system = system
        self.equations = equations
        self.dim = dim
        self.degrees = degrees
        self.transverse = transverse

    @property
    def n_factors(self):
        return self.system.n_factors

    def total_degree(self):
        return self.degrees.total_degree()

    def __repr__(self):
        return ("SubvarietyPresentation(dim=%d, equations=[%s], transverse=%r)"
                % (self.dim, "; ".join(str(e) for e in self.equations),
                   self.transverse))


def make_cn_curve(E1, E2, n):
    """The curve y2 = x1^n inside E1 x E2, with its multidegree table
    {deg_(1,0) = 9, deg_(0,1) = 6n} and total degree 6n + 9."""
    n = require_int(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    system = ProductSystem([E1, E2])
    ring = system.ring
    eq = MultiPoly.var(ring, "y2") - MultiPoly.var(ring, "x1") ** n
    table = MultiDegreeTable(1, {(1, 0): 9, (0, 1): 6 * n})
    return SubvarietyPresentation(system, [eq], 1, table, True)


def _table_of(V):
    """V's multidegree table; a bare MultiDegreeTable stands for itself."""
    return V.degrees if isinstance(V, SubvarietyPresentation) else V


def total_degree(V):
    """dim! times the sum of the multidegree table."""
    return _table_of(V).total_degree()


def preimage_multidegrees(V, isogeny):
    """Multidegree table of the preimage under a diagonal isogeny."""
    table = _table_of(V)
    alphas = isogeny.alphas
    if len(alphas) != table.n_factors:
        raise ValueError("isogeny has %d components, table has %d factors"
                         % (len(alphas), table.n_factors))
    out = {}
    for I, d in table.entries.items():
        mult = 1
        for k, ik in enumerate(I):
            if ik == 0:
                mult *= alphas[k] ** 2
        out[I] = d * mult
    # the same indices as the checked table, each degree times a square
    return MultiDegreeTable._trusted(table.dim, table.n_factors, out)


def preimage_degree(V, isogeny):
    """Total degree of the preimage: dim! * sum_I deg_I * prod_{k: i_k=0} alpha_k^2."""
    return preimage_multidegrees(V, isogeny).total_degree()


def preimage_degree_curve(d, j, alpha):
    """Curve shortcut: preimage of a curve with multidegrees (d_1, ..., d_N)
    under [1, ..., alpha, ..., 1] (alpha in slot j, 1-based) has degree
    d_j + alpha^2 * sum_{i != j} d_i.  A negative d_i and alpha = 0 are
    refused, as MultiDegreeTable and DiagonalIsogeny refuse them."""
    d = [require_int(v, "degree") for v in d]
    j = require_int(j, "j")
    if not 1 <= j <= len(d):
        raise ValueError("slot j=%d out of range 1..%d" % (j, len(d)))
    _complete_table({tuple(int(i == k) for i in range(len(d))): v for k, v in enumerate(d)},
                    len(d), 1)
    alpha = require_int(alpha, "alpha")
    if alpha == 0:
        raise ValueError("zero component is not an isogeny")
    return d[j - 1] + alpha ** 2 * (sum(d) - d[j - 1])


# -- JSON-facing dict forms ----------------------------------------------


def exact_int(v):
    """An exact integer read from JSON.  bool, float, str and every other
    type are malformed, never truncated or parsed."""
    if type(v) is not int:
        raise ValueError("expected an integer, got %r" % (v,))
    return v


def read_multidegree_rows(rows, n_factors, dim):
    """The entries {I: deg_I} of JSON rows [{"I": [...], "deg": d}, ...]
    for a table of n_factors factors and dimension dim: exact ints, each I
    given once, and the rules of a MultiDegreeTable.  ValueError (or the
    KeyError or TypeError of a malformed row) otherwise."""
    entries = {}
    for row in rows:
        I = tuple(exact_int(i) for i in row["I"])
        if I in entries:
            raise ValueError("duplicate multidegree index %r" % (I,))
        entries[I] = exact_int(row["deg"])
    return _complete_table(entries, n_factors, dim)


def subvariety_to_dict(V):
    return {
        "curves": [{"A": E.A, "B": E.B} for E in V.system.curves],
        "equations": [str(eq) for eq in V.equations],
        "dim": V.dim,
        "multidegrees": V.degrees.rows(),
        "transverse": V.transverse,
    }


def subvariety_from_dict(data):
    """The inverse of subvariety_to_dict.  Integers must be JSON integers
    and the flag a JSON bool: ValueError or TypeError otherwise."""
    curves = [WeierstrassCurve(exact_int(c["A"]), exact_int(c["B"]))
              for c in data["curves"]]
    system = ProductSystem(curves)
    equations = [parse_poly(s, system.ring) for s in data["equations"]]
    dim = exact_int(data["dim"])
    table = MultiDegreeTable(dim, read_multidegree_rows(data["multidegrees"],
                                                        len(curves), dim))
    return SubvarietyPresentation(system, equations, dim, table, data["transverse"])
