"""Finite-field brute-force oracle for the symbolic constructions.

Everything here is plain modular integer arithmetic, independent of the
exact-arithmetic layers it checks: points are enumerated by scanning x
and reading square roots off a residue table, scalar multiplication is
double-and-add, and the reports compare that ground truth against the
polynomial formulas reduced mod p.

Scale policy: exhaustive product scans run only for p <= 31 and two
factors; anything larger is sampled with the fixed seed 20260815 (2000
tuples).  Primes above MAX_P are refused, since enumeration is O(p).
Good primes avoid 2, 3, the curve discriminants, and the isogeny
multipliers, so reductions stay nonsingular and separable.

Cost model: a PrimeFieldCtx keeps one square-root table, each factor's
affine point list (-P next to P), per multiplier alpha the table of
[alpha]P over them (one double-and-add per pair +-P, as [alpha](-P) =
-[alpha]P), and each factor's x table (_XTable): its distinct x's by
position, with the columns x^k built on first use.  A factor of more
than SAMPLE_COUNT points keeps none: each call builds its own over the
x's it reads (a scan: the drawn points', and their images').  A
polynomial in x is evaluated at every x of a table as one combination
of the packed columns (Kronecker substitution, a 64-bit slot per x).
The maps check evaluates r, t and s so and compares once per pair +-P,
as r = X*t^2 and s*y = Y*t^3 mod p, inverting only to report a mismatch.
The membership scan holds its tuples as one column of point indices per
factor (every tuple when exhaustive, the SAMPLE_COUNT draws when
sampled) and works column by column: it flags the points with image at
infinity and those on the excluded locus (each t_j evaluated once per
x); ORs the flags into each tuple's kind; and gives the live tuples
positions into their distinct factor-1 points (firsts) and distinct
points of the other factors (rests), shared by the preimage and the base
equations.  Each equation is grouped by its factor-1 monomials m, with a
row of monomial values per first and each inner sum R_m packed with a
slot per rest, exact (and checked) while terms * (p-1)^2 < 2^64; x^k is
read off an x table at the point's x (its image's, for the base
equations).  Where the firsts times the rests, at 1/8 of a tuple's head
each, are no more than the tuples times the heads (always in an
exhaustive scan), the whole grid is one combination of the packed R_m
per first, read at each tuple's slot, as long as terms * (p-1)^3 < 2^64;
else each tuple costs one dot product as long as its heads.  Only tuples
to report are turned back into points, and a sampled scan evaluates
nothing at a point it did not draw.
"""

import random
import sys
from array import array
from functools import partial, reduce
from itertools import chain, compress, count, product as iter_product, repeat
from math import prod
from operator import add, eq, floordiv, is_, itemgetter, mod, mul, ne, not_, or_

from .arith import is_prime, require_int

EXHAUSTIVE_MAX_P = 31
SAMPLE_SEED = 20260815
SAMPLE_COUNT = 2000
# Bound on the primes a context accepts: point enumeration and the
# tables cost O(p), so a much larger p would not finish in bounded time.
MAX_P = 1 << 17


class BadReductionError(ValueError):
    """p is not a good prime for the given data."""


class PrimeFieldCtx:
    """A good odd prime together with the reduced curve coefficients.

    The context also holds the tables the checks share: each factor's
    affine points, per (factor, alpha) their images under [alpha], and
    each small factor's x table.  They are built on first use and live as
    long as the context.
    """

    def __init__(self, p, system):
        p = require_int(p, "p")
        if p > MAX_P:
            raise BadReductionError("p = %d exceeds the oracle's limit %d"
                                    % (p, MAX_P))
        if p < 2 or not is_prime(p):  # is_prime reads |p|
            raise BadReductionError("%d is not prime" % p)
        if p in (2, 3):
            raise BadReductionError("p must avoid 2 and 3")
        for E in system.curves:
            if E.discriminant() % p == 0:
                raise BadReductionError("p = %d divides the discriminant of %r"
                                        % (p, E))
        self.p = p
        self.system = system
        self.curves_mod = [(E.A % p, E.B % p) for E in system.curves]
        self._roots = None
        self._points = {}
        self._images = {}
        self._xs = {}

    def require_separable(self, alphas):
        for a in alphas:
            if a % self.p == 0:
                raise BadReductionError("p = %d divides multiplier %d"
                                        % (self.p, a))

    def reduced(self, curve_index):
        """(A mod p, B mod p) of one factor.  A curve_index that is not an
        int in range(len(curves)) is refused; every lookup by factor runs
        this first."""
        if not 0 <= require_int(curve_index, "curve_index") < len(self.curves_mod):
            raise ValueError("no factor %d in a product of %d curves"
                             % (curve_index, len(self.curves_mod)))
        return self.curves_mod[curve_index]

    def affine_points(self, curve_index):
        """The affine F_p points of one factor, in enumerate_points order."""
        self.reduced(curve_index)  # checks curve_index
        pts = self._points.get(curve_index)
        if pts is None:
            pts = [P for P in enumerate_points(self, curve_index) if P is not None]
            self._points[curve_index] = pts
        return pts

    def image_table(self, curve_index, alpha):
        """[alpha]P for every affine point P of one factor, by index (None
        on the kernel); -P follows P in the list and gets -[alpha]P."""
        key = (curve_index, require_int(alpha, "alpha"))
        points = self.affine_points(curve_index)  # checks curve_index
        table = self._images.get(key)
        if table is None:
            A, _ = self.reduced(curve_index)
            table = []
            for k, P in enumerate(points):
                if k and points[k - 1][0] == P[0]:  # P = -points[k - 1]
                    Q = table[-1]
                    table.append(None if Q is None else (Q[0], -Q[1] % self.p))
                else:
                    table.append(scalar_mul_mod(self.p, A, alpha, P))
            self._images[key] = table
        return table

    def x_table(self, curve_index, xs=None):
        """One factor's _XTable, kept if it has at most SAMPLE_COUNT affine
        points; else a new one over xs (default: all its x's) per call."""
        points = self.affine_points(curve_index)  # checks curve_index
        if len(points) > SAMPLE_COUNT:
            return _XTable(self.p, map(itemgetter(0), points) if xs is None else xs)
        if curve_index not in self._xs:
            self._xs[curve_index] = _XTable(self.p, map(itemgetter(0), points))
        return self._xs[curve_index]


def enumerate_points(ctx, curve_index):
    """All F_p points of the reduced curve, None (infinity) first.

    Enumerates by x-scan against the context's square-root table (y < p-y)
    and asserts the Hasse window |#E - (p+1)| <= 2*sqrt(p) as a guard.
    """
    p = ctx.p
    A, B = ctx.reduced(curve_index)
    roots = ctx._roots
    if roots is None:
        roots = ctx._roots = {y * y % p: (y, p - y) for y in range(1, p // 2 + 1)}
        roots[0] = (0,)
    pts = [None]
    for x in range(p):
        for y in roots.get((x * x * x + A * x + B) % p, ()):
            pts.append((x, y))
    if abs(len(pts) - (p + 1)) ** 2 > 4 * p:
        raise AssertionError("point count %d outside the Hasse window for p=%d"
                             % (len(pts), p))
    return pts


def add_points_mod(p, A, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2 and (y1 + y2) % p == 0:
        return None
    if P == Q:
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return (x3, (lam * (x1 - x3) - y1) % p)


def scalar_mul_mod(p, A, n, P):
    if n < 0:
        n, P = -n, (None if P is None else (P[0], (-P[1]) % p))
    acc = None
    while n:
        if n & 1:
            acc = add_points_mod(p, A, acc, P)
        n >>= 1
        if n:  # no doubling past the top bit
            P = add_points_mod(p, A, P, P)
    return acc


def poly_mod(poly, p, names):
    """Reduce a MultiPoly to a list of (coeff mod p, exponents) aligned
    with the given variable names; requires denominators prime to p."""
    idx = [poly.ring.index(n) for n in names]
    same = idx == list(range(len(poly.ring)))
    out = []
    for e, c in poly.terms.items():
        if type(c) is not int:  # a Fraction
            if c.denominator % p == 0:
                raise BadReductionError("coefficient denominator divisible by %d" % p)
            c = c.numerator * pow(c.denominator, -1, p)
        out.append((c % p, e if same else tuple(e[i] for i in idx)))
    return out


def _check_slot(largest, what):
    """Raise before a packed 64-bit slot could wrap: largest bounds its value."""
    if largest >> 64:
        raise ValueError("%s overflow a 64-bit slot" % what)


def _pack(col):
    """A column of integers below 2^64 as one integer, a 64-bit slot each
    (Kronecker substitution): a linear combination of packed columns is
    the column of the combinations, as long as no slot wraps."""
    return int.from_bytes(array("Q", col), sys.byteorder)


def _slots(packed, size):
    """The size 64-bit slots of a packed column, as a sequence of ints."""
    return memoryview(packed.to_bytes(8 * size, sys.byteorder)).cast("Q")


class _XTable:
    """Distinct x's mod p (index: each x's position, in first-seen order)
    with the columns x^k over them, built on first use."""

    def __init__(self, p, xs):
        self.p = p
        self.index = dict(zip(dict.fromkeys(xs), count()))
        self.cols = [[1] * len(self.index)]

    def col(self, k):
        """x^k mod p at each position."""
        cols = self.cols
        while len(cols) <= k:
            cols.append(list(map(mod, map(mul, cols[-1], self.index), repeat(self.p))))
        return cols[k]

    def values(self, polys):
        """Each of polys (poly_mod lists in x alone) at each position, not
        reduced mod p: the slots of one combination of the packed columns
        per polynomial, each below len(poly) * (p - 1)^2."""
        _check_slot(max(map(len, polys), default=0) * (self.p - 1) ** 2,
                    "polynomial values mod %d" % self.p)
        d = max((k for poly in polys for _, (k,) in poly), default=0)
        self.col(d)  # every column before any is packed, for a lower peak
        packed = list(map(_pack, self.cols[:d + 1]))
        return [_slots(sum(c * packed[k] for c, (k,) in poly), len(self.index))
                for poly in polys]


def verify_maps_vs_group_law(ctx, curve_index, alpha):
    """Exhaustively compare the coordinate formulas of [alpha] with
    double-and-add over F_p.

    The formulas x = r/t^2, y = s*y/t^3 of curves.MultiplicationMaps are
    evaluated wherever t does not vanish; the exceptional points, where it
    does, are reported and checked to coincide exactly with the affine
    kernel of [alpha].
    """
    from .curves import _maps_for, _require_alpha

    ctx.require_separable([_require_alpha(alpha)])
    p = ctx.p
    points = ctx.affine_points(curve_index)  # checks curve_index
    maps = _maps_for(ctx.system.curves[curve_index], alpha)
    table = ctx.x_table(curve_index)
    r, t, s = table.values([poly_mod(f, p, ("x",)) for f in (maps.r, maps.t, maps.s)])
    mismatches = []
    exceptional = []
    kernel = []
    checked = 0
    images = ctx.image_table(curve_index, alpha)
    i = None
    for P, expected in zip(points, images):
        if expected is None:
            kernel.append(P)
        if table.index[P[0]] != i:  # else P is -(the point before): same verdict
            i = table.index[P[0]]
            rv, sv, t2 = r[i], s[i], t[i] * t[i] % p  # r and s not reduced mod p
            t3 = t2 * t[i] % p
            # x = r/t^2 and y = s*y/t^3, compared without dividing
            bad = expected is None or (expected[0] * t2 - rv) % p or \
                (expected[1] * t3 - sv * P[1]) % p
        if t3 == 0:
            exceptional.append(P)
            continue
        checked += 1
        if bad:
            got = (rv * pow(t2, -1, p) % p, sv * P[1] % p * pow(t3, -1, p) % p)
            mismatches.append({"point": P, "formula": got, "group_law": expected})
    report = {
        "p": p,
        "curve_index": curve_index,
        "alpha": alpha,
        "checked": checked,
        "exceptional": exceptional,
        "exceptional_equals_kernel": sorted(exceptional) == sorted(kernel),
        "mismatches": mismatches,
        "ok": not mismatches and sorted(exceptional) == sorted(kernel),
    }
    return report


class _GroupedEquations:
    """Reduced equations on E_1 x ... x E_N, evaluated at tuples of point
    indices.  firsts is the pair (the distinct factor-1 indices, each
    tuple's position among them); rests is the same pair for the indices
    in the other factors, each rest written as one integer i_2 + s_2*(i_3
    + s_3*(...)) where s_j is the number of points of factor j.  coords[j]
    maps a point index of factor j to its (x, y), and tables[j] is an
    _XTable holding the x's of the points read.

    Each equation is written as sum_m m(P_1) * R_m(P_2, ..., P_N) over its
    distinct factor-1 monomials m = x1^a*y1^b.  Per equation, rows holds
    the values of its monomials m at each distinct first, and sums its
    inner sums R_m, each packed with an unreduced 64-bit slot per
    distinct rest.
    """

    def __init__(self, reduced, coords, tables, p, firsts, rests):
        reduced = list(filter(None, reduced))  # an empty equation vanishes everywhere
        self.p = p
        keys, self.fpos = firsts
        rkeys, self.rpos = rests
        self.width = len(rkeys)
        self.terms = list(map(len, reduced))
        heads = {}   # factor-1 exponents -> column
        tails = {}   # exponents in the other factors -> column
        groups = []  # per equation: head column -> (tail columns, coefficients)
        for eq in reduced:
            group = {}
            for c, e in eq:
                cols, coeffs = group.setdefault(heads.setdefault(e[:2], len(heads)),
                                                ([], []))
                cols.append(tails.setdefault(e[2:], len(tails)))
                coeffs.append(c)
            groups.append(group)
        at = _monomials(coords[:1], tables, [keys], heads, p, len(keys)).__getitem__
        self.rows = [list(zip(*map(at, group))) for group in groups]
        # a slot of an inner sum holds at most (terms of its equation) * (p - 1)^2
        _check_slot(max(self.terms, default=0) * (p - 1) ** 2, "inner sums mod %d" % p)
        ids = []  # per other factor, its point index at each distinct rest
        for pts in coords[1:]:
            ids.append(list(map(mod, rkeys, repeat(len(pts)))))
            rkeys = list(map(floordiv, rkeys, repeat(len(pts))))
        at = list(map(_pack, _monomials(coords[1:], tables[1:], ids, tails, p,
                                        self.width))).__getitem__
        self.sums = [[sum(map(mul, coeffs, map(at, cols))) for cols, coeffs in group.values()]
                     for group in groups]

    def evaluate(self, grid=None):
        """Each equation's values mod p at the tuples, one list per equation.

        An equation is evaluated over the whole grid of distinct firsts
        and rests when its cells, at 1/8 of a tuple's head term each, are
        no more than the tuples' head terms (always when the tuples fill
        it): per first, one combination of the packed R_m, whose slot per
        rest holds at most terms * (p - 1)^3.  Else, or if that could
        wrap, it is one dot product per tuple.  grid=True or False forces
        the one way or the other; a forced grid raises ValueError where a
        slot could wrap.
        """
        p, size = self.p, len(self.fpos)
        cells = None
        for rows, sums, terms in zip(self.rows, self.sums, self.terms):
            largest = terms * (p - 1) ** 3  # in a slot of the grid
            # a cell is a slot read in C, a head a multiply-add in a map:
            # at T*heads/(F*R) = 0.27..2.0 (sampled, p ~ 100) the grid took
            # 0.55..1.29 of the per-tuple time (median 0.82), and at
            # 0.005..0.028 (p ~ 1009) 13..32 times it
            if grid or grid is None and not largest >> 64 and \
                    len(rows) * self.width <= 8 * size * len(sums):
                _check_slot(largest, "grid sums mod %d" % p)
                if cells is None:
                    cells = list(map(add, map(mul, self.fpos, repeat(self.width)), self.rpos))
                at = memoryview(b"".join([
                    sum(map(mul, row, sums)).to_bytes(8 * self.width, sys.byteorder)
                    for row in rows])).cast("Q").__getitem__
                yield list(map(mod, map(at, cells), repeat(p)))
            else:
                inner = list(zip(*[_slots(col, self.width) for col in sums]))
                # sum(map(mul, row, inner sums)) % p per tuple, all in C
                yield list(map(mod, map(sum, map(map, repeat(mul),
                                                 map(rows.__getitem__, self.fpos),
                                                 map(inner.__getitem__, self.rpos))),
                               repeat(p)))

    def vanish(self, grid=None):
        """For each tuple: do all equations vanish there?"""
        nonzero = reduce(partial(map, or_), self.evaluate(grid), repeat(0, len(self.fpos)))
        return list(map(not_, nonzero))


def _monomials(coords, tables, ids, exps, p, size):
    """Each monomial of exps (exponents of x_1, y_1, x_2, ... over the
    factors of coords) as a column of size values mod p; ids[f] lists the
    point index of factor f at each place of the column.  x^k is read
    from the table of its factor at the x's position, y^k is pow."""
    places = []  # per coordinate: the x positions, or the y's, at the places
    for pts, table, col in zip(coords, tables, ids):
        pts = list(map(pts.__getitem__, col))
        places.append(list(map(table.index.__getitem__, map(itemgetter(0), pts))))
        places.append(list(map(itemgetter(1), pts)))
    powers = {}  # (coordinate, k) -> column of its k-th powers at the places
    for pos, k in {(pos, k) for e in exps for pos, k in enumerate(e) if k}:
        if pos % 2:
            powers[pos, k] = list(map(pow, places[pos], repeat(k), repeat(p)))
        else:
            powers[pos, k] = list(map(tables[pos // 2].col(k).__getitem__, places[pos]))
    out = []
    for e in exps:
        factors = [powers[pos, k] for pos, k in enumerate(e) if k]
        col = factors.pop() if factors else [1] * size
        for f in factors:
            col = list(map(mod, map(mul, col, f), repeat(p)))
        out.append(col)
    return out


def _positions(keys):
    """The distinct keys in first-seen order, and each key's position
    among them."""
    distinct = list(dict.fromkeys(keys))
    return distinct, list(map(dict(zip(distinct, count())).__getitem__, keys))


def _split(cols, sizes):
    """The firsts and rests of _GroupedEquations for tuples given as one
    column of point indices per factor, sizes[j] points in factor j."""
    first, *rest = cols
    key = rest[-1] if rest else [0] * len(first)  # i_2 + s_2*(i_3 + s_3*(...))
    for col, size in zip(rest[-2::-1], sizes[-2:0:-1]):
        key = list(map(add, col, map(mul, key, repeat(size))))
    return _positions(first), _positions(key)


def _draw(rng, sizes, count):
    """count tuples of indices below sizes, flattened, from the stream
    that tuple(map(rng.choice, map(range, sizes))) would draw."""
    bits = rng.getrandbits
    flat = []
    for size, k in [(size, size.bit_length()) for size in sizes] * count:
        r = bits(k)
        while r >= size:
            r = bits(k)
        flat.append(r)
    return flat


def verify_preimage_membership(ctx, pre):
    """Over F_p, for every affine point tuple outside the excluded locus:
    the generated equations vanish iff the isogeny image satisfies the
    base equations.  Exhaustive at desk scale, sampled beyond it."""
    system = pre.system
    if system is not ctx.system and system.curves != ctx.system.curves:
        raise ValueError("context and presentation use different curve systems")
    p = ctx.p
    alphas = pre.isogeny.alphas
    ctx.require_separable(alphas)
    n = system.n_factors
    names = system.ring
    eqs = [poly_mod(f, p, names) for f in pre.equations]
    base_eqs = [poly_mod(f, p, names) for f in pre.base.equations]
    excl = [(row["j"] - 1, poly_mod(row["t"], p, ("x%d" % row["j"],)))
            for row in pre.excluded_locus]
    affine = [ctx.affine_points(idx) for idx in range(n)]
    images = [ctx.image_table(idx, alphas[idx]) for idx in range(n)]
    sizes = [len(pts) for pts in affine]
    exhaustive = (p <= EXHAUSTIVE_MAX_P and n == 2)
    # the tuples, as one column of point indices per factor
    if exhaustive:
        cols = list(zip(*iter_product(*map(range, sizes))))
    else:
        flat = _draw(random.Random(SAMPLE_SEED), sizes, min(SAMPLE_COUNT, prod(sizes)))
        cols = [flat[j::n] for j in range(n)]
    # per factor and point index, bit 1 if the image is at infinity and
    # bit 2 on the excluded locus (evaluated at the points the tuples use); a
    # tuple's kind is the OR over its factors: 0 live, 1 with an image at
    # infinity, 2 or 3 excluded
    per_factor, lhs_x, rhs_x = [], [], []  # x tables over the drawn points, their images
    for j, (pts, col, table) in enumerate(zip(affine, cols, images)):
        flag = [0] * len(pts)
        for i in compress(count(), map(is_, table, repeat(None))):
            flag[i] = 1
        drawn = list(set(col))
        xs = [pts[i][0] for i in drawn]
        lhs_x.append(ctx.x_table(j, xs))
        rhs_x.append(ctx.x_table(j, [Q[0] for Q in map(table.__getitem__, drawn) if Q]))
        polys = [t for k, t in excl if k == j]
        if polys:
            at = list(map(lhs_x[j].index.__getitem__, xs))
            for values in lhs_x[j].values(polys):
                zero = map(not_, map(mod, map(values.__getitem__, at), repeat(p)))
                for i in compress(drawn, zero):
                    flag[i] |= 2
        per_factor.append(map(flag.__getitem__, col))
    kinds = list(reduce(partial(map, or_), per_factor))
    live = list(map(not_, kinds))
    firsts, rests = _split([list(compress(col, live)) for col in cols], sizes)
    lhs = _GroupedEquations(eqs, affine, lhs_x, p, firsts, rests).vanish()
    rhs = _GroupedEquations(base_eqs, images, rhs_x, p, firsts, rests).vanish()
    # only the tuples to report are turned back into points, in order:
    # those with an image at infinity (outside the excluded locus it must
    # be affine) and the live ones where the two sides disagree
    differ = {}
    if lhs != rhs:
        differ = dict(compress(zip(compress(count(), live), lhs), map(ne, lhs, rhs)))
    at_infinity = compress(count(), map(eq, kinds, repeat(1))) if 1 in kinds else ()
    mismatches = []
    for i in sorted(chain(at_infinity, differ)):
        tup = tuple(pts[col[i]] for pts, col in zip(affine, cols))
        if i in differ:
            mismatches.append({"tuple": tup, "equations_vanish": differ[i],
                               "image_on_subvariety": not differ[i]})
        else:
            mismatches.append({"tuple": tup, "problem": "image at infinity"})
    return {
        "p": p,
        "mode": "exhaustive" if exhaustive else "sampled",
        "affine_counts": sizes,
        "iterated": len(kinds),
        "excluded": len(kinds) - len(lhs) - kinds.count(1),
        "equations_vanish": lhs.count(True),
        "image_on_subvariety": rhs.count(True),
        "mismatches": mismatches,
        "ok": not mismatches,
    }
