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

Cost model: a PrimeFieldCtx keeps one square-root table and, per reduced
curve (factors with equal A, B mod p share them), the affine points (-P
next to P), per alpha the table of [alpha]P over them (the point list
itself for alpha = 1; else one left-to-right double-and-add per pair +-P,
as [alpha](-P) = -[alpha]P, and scalar_mul_mod for a pair whose chain
meets a vertical line), the x table (_XTable: the distinct x's by
position, with the columns x^k built on first use), and per point the
position of its x and its y, for the points and for each table of
images.  A factor of more than SAMPLE_COUNT points keeps no x table or
columns: each call builds its own over the x's it reads (a scan: its
distinct drawn points' and their images') and drops the powers once
read.  A polynomial in x is evaluated at every x of a table as one
combination of the packed columns (Kronecker substitution, a 64-bit slot
per x).  The maps check evaluates r, t and s so and compares once per
pair +-P, as r = X*t^2 and s*y = Y*t^3 mod p, inverting only to report a
mismatch; verify_factor_maps runs it once per distinct (curve, alpha).
The membership scan holds its tuples as one column of positions per
factor (every tuple when exhaustive, the SAMPLE_COUNT draws when
sampled): point indices, or in a larger factor positions among its
distinct drawn points.  Column by column, it flags the positions with
image at infinity and those on the excluded locus (each t_j evaluated
once per x) and ORs the flags into each tuple's kind.  Each equation is
grouped by the monomials m of one factor, the row factor: of two
factors, the one with fewer distinct monomials over both sides (factor
1 on a tie), else factor 1.  It has a row of monomial values per
row-factor position and each inner sum R_m packed with a slot per
position of the other factor (per distinct rest of three or more),
exact (and checked) while terms * (p-1)^2 < 2^64; x^k and y are read off
the columns (the images', for the base equations).  Where the rows times
the slots, at 1/8 of a tuple's head each, are no more than the live
tuples times the heads (always in an exhaustive scan), the whole grid is
one combination of the packed R_m per row, read at each tuple's cell
(one column of cells for both sides), as long as terms * (p-1)^3 < 2^64;
else each tuple costs one dot product as long as its heads.  A side of
one equation reads its values without an OR over equations.  Only tuples
to report are turned back into points.
"""

import random
import sys
from array import array
from copy import deepcopy
from functools import partial, reduce
from itertools import chain, compress, count, repeat
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

    The context also holds the tables the checks share, keyed by the
    reduced curve (A mod p, B mod p), so that factors with the same
    reduction share them: its affine points, per alpha their images under
    [alpha], and for at most SAMPLE_COUNT points its x table and coordinate
    columns.  They are built on first use and live as long as the context.
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
        self._coords = {}

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
        key = self.reduced(curve_index)  # checks curve_index
        pts = self._points.get(key)
        if pts is None:
            pts = [P for P in enumerate_points(self, curve_index) if P is not None]
            self._points[key] = pts
        return pts

    def image_table(self, curve_index, alpha):
        """[alpha]P for every affine point P of one factor, by index (None
        on the kernel); -P follows P in the list and gets -[alpha]P.  For
        alpha = 1 it is the point list itself."""
        points = self.affine_points(curve_index)  # checks curve_index
        key = (self.reduced(curve_index), require_int(alpha, "alpha"))
        table = self._images.get(key)
        if table is None and alpha in (0, 1):
            table = self._images[key] = points if alpha else [None] * len(points)
        elif table is None:
            p, (A, _) = self.p, key[0]
            bits = bin(abs(alpha))[3:]  # below the top bit, highest first
            table = []
            for k, P in enumerate(points):
                if k and points[k - 1][0] == P[0]:  # P = -points[k - 1]
                    Q = table[-1]
                    table.append(None if Q is None else (Q[0], -Q[1] % p))
                    continue
                # left-to-right double-and-add from P, while no step meets
                # a vertical line (doubling at y = 0, adding at x = x_P)
                (x1, y1), (x, y) = P, P
                for bit in bits:
                    if not y:
                        break
                    lam = (3 * x * x + A) * pow(2 * y, -1, p) % p
                    x3 = (lam * lam - 2 * x) % p
                    x, y = x3, (lam * (x - x3) - y) % p
                    if bit == "1":
                        if x == x1:
                            break
                        lam = (y - y1) * pow(x - x1, -1, p) % p
                        x3 = (lam * lam - x - x1) % p
                        x, y = x3, (lam * (x - x3) - y) % p
                else:
                    table.append((x, y if alpha > 0 else -y % p))
                    continue
                table.append(scalar_mul_mod(p, A, alpha, P))
            self._images[key] = table
        return table

    def x_table(self, curve_index):
        """One factor's _XTable over its x's in point order, kept if it has
        at most SAMPLE_COUNT affine points, else a new one per call."""
        points = self.affine_points(curve_index)  # checks curve_index
        table = self._xs.get(self.reduced(curve_index))
        if table is None:
            table = _XTable(self.p, map(itemgetter(0), points), len(points) <= SAMPLE_COUNT)
            if table.kept:
                self._xs[self.reduced(curve_index)] = table
        return table

    def coordinates(self, curve_index, alpha=None, ids=None):
        """(x table, x positions, y's) of one factor's points, or with alpha
        of their images [alpha]P (the first point's on the kernel), as
        lists by point index on x_table: kept for a factor of at most
        SAMPLE_COUNT points.  A larger one gets them per call, by position
        in ids, on a table over the x's read."""
        points = self.affine_points(curve_index)  # checks curve_index
        if alpha == 1:  # the images are the points
            alpha = None
        key = (self.reduced(curve_index), alpha)
        if key in self._coords:
            return self._coords[key]
        keep = len(points) <= SAMPLE_COUNT
        pts = points if alpha is None else self.image_table(curve_index, alpha)
        if not keep:
            pts = list(map(pts.__getitem__, ids))
        if alpha is not None:
            pts = [Q or points[0] for Q in pts]
        table = self.x_table(curve_index) if keep else _XTable(self.p, map(itemgetter(0), pts))
        coords = (table, list(map(table.index.__getitem__, map(itemgetter(0), pts))),
                  list(map(itemgetter(1), pts)))
        if keep:
            self._coords[key] = coords
        return coords


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
    with the columns x^k over them, built on first use.  A table that is
    not kept has its columns dropped once _monomials has read them."""

    def __init__(self, p, xs, kept=False):
        self.p = p
        self.kept = kept
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
    i, x = -1, None  # the table holds the x's in point order
    for P, expected in zip(points, images):
        if expected is None:
            kernel.append(P)
        if P[0] != x:  # else P is -(the point before): same verdict
            i, x = i + 1, P[0]
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


def verify_factor_maps(ctx, alphas):
    """verify_maps_vs_group_law of every factor with its alpha, in factor
    order.  Each distinct (factor curve, alpha) is checked once: a factor
    equal to an earlier one (E x E with equal multipliers) gets a copy of
    its report with its own curve_index."""
    done = {}
    reports = []
    for idx, alpha in enumerate(alphas):
        key = (ctx.system.curves[idx], alpha)
        if key in done:
            reports.append(dict(deepcopy(done[key]), curve_index=idx))
        else:
            reports.append(done.setdefault(key, verify_maps_vs_group_law(ctx, idx, alpha)))
    return reports


class _GroupedEquations:
    """Reduced equations on E_1 x ... x E_N, evaluated at tuples of point
    positions.  coords[j] is the triple (x table, x positions, y's) of
    factor j by position, as PrimeFieldCtx.coordinates gives it; factor 1
    here is the row factor, whose exponents come first in each exponent
    tuple.  firsts is the pair (the row-factor position of each row, each
    tuple's row); rests is the triple (per other factor, its position at
    each slot; each tuple's slot; each tuple's grid cell, a list filled on
    first use and shared by every side built on these rests), as _split
    gives them.

    Each equation is written as sum_m m(P_1) * R_m(P_2, ..., P_N) over its
    distinct row-factor monomials m = x1^a*y1^b.  Per equation, rows holds
    the values of its monomials m at each row, and sums its inner sums
    R_m, each packed with an unreduced 64-bit slot per slot.
    """

    def __init__(self, reduced, coords, p, firsts, rests):
        reduced = list(filter(None, reduced))  # an empty equation vanishes everywhere
        self.p = p
        keys, self.fpos = firsts
        ids, self.rpos, self.cells = rests
        self.width = len(ids[0])
        self.terms = list(map(len, reduced))
        heads = {}   # row-factor exponents -> column
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
        at = _monomials(coords[:1], [keys], heads, p, len(keys)).__getitem__
        self.rows = [list(zip(*map(at, group))) for group in groups]
        # a slot of an inner sum holds at most (terms of its equation) * (p - 1)^2
        _check_slot(max(self.terms, default=0) * (p - 1) ** 2, "inner sums mod %d" % p)
        at = list(map(_pack, _monomials(coords[1:], ids, tails, p, self.width))).__getitem__
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
        p, size, cells = self.p, len(self.fpos), self.cells
        for rows, sums, terms in zip(self.rows, self.sums, self.terms):
            largest = terms * (p - 1) ** 3  # in a slot of the grid
            # a cell is a slot read in C, a head a multiply-add in a map:
            # at T*heads/(F*R) = 0.27..2.0 (sampled, p ~ 100) the grid took
            # 0.55..1.29 of the per-tuple time (median 0.82), and at
            # 0.005..0.028 (p ~ 1009) 13..32 times it
            if grid or grid is None and not largest >> 64 and \
                    len(rows) * self.width <= 8 * size * len(sums):
                _check_slot(largest, "grid sums mod %d" % p)
                if not cells:  # shared with every side over the same tuples
                    cells += map(add, map(mul, self.fpos, repeat(self.width)), self.rpos)
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
        values = list(self.evaluate(grid)) or [[0] * len(self.fpos)]
        return list(map(not_, reduce(partial(map, or_), values)))


def _monomials(coords, ids, exps, p, size):
    """Each monomial of exps (exponents of x_1, y_1, x_2, ... over the
    factors of coords) as a column of size values mod p; ids[f] lists the
    position in factor f at each place of the column, and a range (every
    position, in order) reads its columns as they are.  x^k is read from
    the table of its factor at the x position, y^k is pow."""
    places = []  # per coordinate: the x positions, or the y's, at the places
    for (_, xs, ys), col in zip(coords, ids):
        if type(col) is not range:
            xs, ys = list(map(xs.__getitem__, col)), list(map(ys.__getitem__, col))
        places += (xs, ys)
    powers = {}  # (coordinate, k) -> column of its k-th powers at the places
    for pos, k in {(pos, k) for e in exps for pos, k in enumerate(e) if k}:
        if pos % 2:
            powers[pos, k] = list(map(pow, places[pos], repeat(k), repeat(p)))
        else:
            powers[pos, k] = list(map(coords[pos // 2][0].col(k).__getitem__, places[pos]))
    for table, _, _ in coords:
        if not table.kept:
            del table.cols[1:]
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
    column of point positions per factor, sizes[j] positions in factor j.
    The row factor, the first column, has a row per position, and with two
    factors the other a slot per position: a tuple's row or slot is its
    position.  The rest of three or more factors, written as one key
    i_2 + s_2*(i_3 + s_3*(...)), has a slot per distinct key, in
    first-seen order.  The grid cells start as an empty list."""
    first, *rest = cols
    if len(rest) == 1:
        return (range(sizes[0]), first), ([range(sizes[1])], rest[0], [])
    key = rest[-1] if rest else [0] * len(first)
    for col, size in zip(rest[-2::-1], sizes[-2:0:-1]):
        key = list(map(add, col, map(mul, key, repeat(size))))
    key, rpos = _positions(key)
    ids = []  # per other factor, its position at each distinct rest
    for size in sizes[1:]:
        ids.append(list(map(mod, key, repeat(size))))
        key = list(map(floordiv, key, repeat(size)))
    # with one factor, the slots are the distinct empty rests (none or one)
    return (range(sizes[0]), first), (ids or [key], rpos, [])


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
    if exhaustive:  # in itertools.product order: each i of factor 1 with every k
        cols = [list(chain.from_iterable(map(repeat, range(sizes[0]), repeat(sizes[1])))),
                list(range(sizes[1])) * sizes[0]]
    else:
        flat = _draw(random.Random(SAMPLE_SEED), sizes, min(SAMPLE_COUNT, prod(sizes)))
        cols = [flat[j::n] for j in range(n)]
    # per factor and position, bit 1 if the image is at infinity and bit 2
    # on the excluded locus; a tuple's kind is the OR over its factors: 0
    # live, 1 with an image at infinity, 2 or 3 excluded.  A position is a
    # point index, except in a factor of more than SAMPLE_COUNT points:
    # there it is a position among the distinct drawn points
    per_factor, lhs_at, rhs_at = [], [], []  # coordinates of the points, of their images
    for j in range(n):
        ids = None
        if sizes[j] > SAMPLE_COUNT:
            ids, cols[j] = _positions(cols[j])
            affine[j] = list(map(affine[j].__getitem__, ids))
            images[j] = list(map(images[j].__getitem__, ids))
        lhs_at.append(ctx.coordinates(j, None, ids))
        rhs_at.append(ctx.coordinates(j, alphas[j], ids))
        flag = list(map(is_, images[j], repeat(None)))  # 1 (True) at infinity
        polys = [t for k, t in excl if k == j]
        if polys:
            xs, at = lhs_at[j][:2]
            for values in xs.values(polys):
                zero = map(not_, map(mod, map(values.__getitem__, at), repeat(p)))
                for i in compress(count(), zero):
                    flag[i] |= 2
        per_factor.append(map(flag.__getitem__, cols[j]))
    kinds = list(reduce(partial(map, or_), per_factor))
    live = list(map(not_, kinds))
    # with two factors the rows come from the one with fewer distinct
    # monomials over both sides (factor 1 on a tie): each is a term of
    # every tuple's dot product or of every grid row
    order = list(range(n))
    if n == 2 and len({e[2:] for f in eqs + base_eqs for _, e in f}) < \
            len({e[:2] for f in eqs + base_eqs for _, e in f}):
        order = [1, 0]
        eqs, base_eqs = ([[(c, e[2:] + e[:2]) for c, e in f] for f in side]
                         for side in (eqs, base_eqs))
    firsts, rests = _split([list(compress(cols[j], live)) for j in order],
                           [len(affine[j]) for j in order])
    lhs, rhs = (_GroupedEquations(side, [at[j] for j in order], p, firsts, rests).vanish()
                for side, at in ((eqs, lhs_at), (base_eqs, rhs_at)))
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
