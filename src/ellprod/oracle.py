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

Cost model: a PrimeFieldCtx keeps, for the life of the context, one
square-root table, each factor's affine point list (-P next to P) and,
per multiplier alpha, the table of [alpha]P over those points, made with
one double-and-add per pair +-P ([alpha](-P) = -[alpha]P) and shared by
both checks.  Both evaluate over whole point lists.  The maps check runs
Horner's rule once per distinct x and compares cross-multiplied, n =
X*u*t and s*y = Y*t^3 mod p, so it inverts only to report a mismatch.
The membership scan first fixes its tuples (every tuple when exhaustive,
the SAMPLE_COUNT draws when sampled), then flags their points on the
excluded locus or with image at infinity, groups each equation by its
factor-1 monomials x1^a*y1^b and builds two tables over the unflagged
tuples only: the monomial row of each distinct factor-1 point and the
inner sums R_m over the other factors at each distinct tuple of their
points.  Those are packed (Kronecker substitution): a monomial column
over the rests is one integer with a 64-bit slot per rest, and R_m is
one big-integer combination of columns, exact (and checked) while the
equation's terms times (p-1)^2 stay below 2^64.  A tuple then costs two
lookups and one dot product per equation, as long as its number of
distinct factor-1 monomials; a sampled scan evaluates nothing at a
point it did not draw.
"""

import random
import sys
from array import array
from itertools import product as iter_product
from math import prod
from operator import getitem, mul

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
    affine points and, per (factor, alpha), their images under [alpha].
    They are built on first use and live as long as the context.
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

    def require_separable(self, alphas):
        for a in alphas:
            if a % self.p == 0:
                raise BadReductionError("p = %d divides multiplier %d"
                                        % (self.p, a))

    def affine_points(self, curve_index):
        """The affine F_p points of one factor, in enumerate_points order."""
        pts = self._points.get(curve_index)
        if pts is None:
            pts = [P for P in enumerate_points(self, curve_index) if P is not None]
            self._points[curve_index] = pts
        return pts

    def image_table(self, curve_index, alpha):
        """[alpha]P for every affine point P of one factor, by index (None
        on the kernel); -P follows P in the list and gets -[alpha]P."""
        key = (curve_index, require_int(alpha, "alpha"))
        table = self._images.get(key)
        if table is None:
            A, _ = self.curves_mod[curve_index]
            points = self.affine_points(curve_index)
            table = []
            for k, P in enumerate(points):
                if k and points[k - 1][0] == P[0]:  # P = -points[k - 1]
                    Q = table[-1]
                    table.append(None if Q is None else (Q[0], -Q[1] % self.p))
                else:
                    table.append(scalar_mul_mod(self.p, A, alpha, P))
            self._images[key] = table
        return table


def enumerate_points(ctx, curve_index):
    """All F_p points of the reduced curve, None (infinity) first.

    Enumerates by x-scan against the context's square-root table (y < p-y)
    and asserts the Hasse window |#E - (p+1)| <= 2*sqrt(p) as a guard.
    """
    p = ctx.p
    A, B = ctx.curves_mod[curve_index]
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
    out = []
    for e, c in poly.terms.items():
        if c.denominator % p == 0:
            raise BadReductionError("coefficient denominator divisible by %d" % p)
        cm = c.numerator * pow(c.denominator, -1, p) % p
        out.append((cm, tuple(e[i] for i in idx)))
    return out


def eval_mod(reduced, values, p):
    acc = 0
    for c, e in reduced:
        t = c
        for v, k in zip(values, e):
            if k:
                t = t * pow(v, k, p) % p
        acc = (acc + t) % p
    return acc


def _dense_mod(poly, p, name):
    """A polynomial in one variable as a mod-p coefficient list, leading
    coefficient first, for _horner."""
    reduced = poly_mod(poly, p, (name,))
    coeffs = [0] * (max((e[0] for _, e in reduced), default=-1) + 1)
    for c, (k,) in reduced:
        coeffs[k] = (coeffs[k] + c) % p
    return coeffs[::-1]


def _horner(coeffs, xs, p):
    """A _dense_mod polynomial at every x of the list xs."""
    acc = [0] * len(xs)
    for c in coeffs:
        acc = [(a * x + c) % p for a, x in zip(acc, xs)]
    return acc


def verify_maps_vs_group_law(ctx, curve_index, alpha):
    """Exhaustively compare the coordinate formulas of [alpha] with
    double-and-add over F_p.

    The formulas x = n/(u*t), y = s*y/t^3 (curves.MultiplicationMaps, the
    pairs generate_preimage substitutes) are evaluated wherever t does
    not vanish; the exceptional points, where it does, are reported and
    checked to coincide exactly with the affine kernel of [alpha].
    """
    from .curves import _maps_for

    require_int(alpha, "alpha")
    ctx.require_separable([alpha])
    p = ctx.p
    maps = _maps_for(ctx.system.curves[curve_index], alpha)
    points = ctx.affine_points(curve_index)
    xs = list(dict.fromkeys(x for x, _ in points))  # -P shares x with P

    def values(f):
        return _horner(_dense_mod(f, p, "x"), xs, p)

    n, u = maps.x_parts()
    t = values(maps.t)
    u = t if u is maps.t else values(u)
    at = dict(zip(xs, zip(values(n), [a * b % p for a, b in zip(u, t)],
                          [v * v * v % p for v in t], values(maps.s))))
    mismatches = []
    exceptional = []
    kernel = []
    checked = 0
    images = ctx.image_table(curve_index, alpha)
    for P, expected in zip(points, images):
        if expected is None:
            kernel.append(P)
        nv, ut, t3, sv = at[P[0]]
        if t3 == 0:
            exceptional.append(P)
            continue
        checked += 1
        # x = n/(u*t) and y = s*y/t^3, compared without dividing
        if expected is None or (expected[0] * ut - nv) % p or \
                (expected[1] * t3 - sv * P[1]) % p:
            got = (nv * pow(ut, -1, p) % p, sv * P[1] % p * pow(t3, -1, p) % p)
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
    """Reduced equations on E_1 x ... x E_N, evaluated over a list of
    tuples of point indices, each given as its first index (a 1-tuple)
    and the rest.

    Each equation is written as sum_m m(P_1) * R_m(P_2, ..., P_N) over its
    distinct factor-1 monomials m = x1^a*y1^b.  The tables are built list
    by list over the given tuples only: per equation, the values of its
    monomials m at each distinct first index (rows) and of its inner sums
    R_m, unreduced below 2^64, at each distinct rest (sums).  A tuple then
    costs two lookups and one short dot product per equation.  coords[j]
    maps a point index of factor j to its (x, y).
    """

    def __init__(self, reduced, coords, p, firsts, rests):
        self.p = p
        self.firsts = firsts
        self.rests = rests
        heads = {}   # factor-1 exponents -> column
        tails = {}   # exponents in the other factors -> column
        groups = []  # per equation: head column -> (tail columns, coefficients)
        for eq in filter(None, reduced):  # an empty equation vanishes everywhere
            group = {}
            for c, e in eq:
                cols, coeffs = group.setdefault(heads.setdefault(e[:2], len(heads)),
                                                ([], []))
                cols.append(tails.setdefault(e[2:], len(tails)))
                coeffs.append(c)
            groups.append(group)
        keys = list(dict.fromkeys(firsts))
        at = self._monomials(coords[:1], keys, heads).__getitem__
        self.rows = [dict(zip(keys, zip(*map(at, group)))) for group in groups]
        keys = list(dict.fromkeys(rests))
        # tail columns packed into one 64-bit slot per rest; a slot of an
        # inner sum holds at most (terms of its equation) * (p - 1)^2
        if max(map(len, reduced), default=0) * (p - 1) ** 2 >> 64:
            raise ValueError("inner sums mod %d overflow a 64-bit slot" % p)
        at = [int.from_bytes(array("Q", col), sys.byteorder)
              for col in self._monomials(coords[1:], keys, tails)].__getitem__
        self.sums = [dict(zip(keys, zip(*[
            memoryview(sum(map(mul, coeffs, map(at, cols))).to_bytes(
                8 * len(keys), sys.byteorder)).cast("Q")
            for cols, coeffs in group.values()]))) for group in groups]

    def _monomials(self, coords, keys, exps):
        """Each monomial of exps (exponents of x_1, y_1, x_2, ... over the
        factors of coords) as a column over keys (tuples of point indices)."""
        p = self.p
        powers = []  # per coordinate: [v^0, v^1, ...] as columns
        for pos, d in enumerate(max(col) for col in zip(*exps)):
            v = [coords[pos // 2][key[pos // 2]][pos % 2] for key in keys]
            powers.append([[1] * len(keys)])
            for _ in range(d):
                powers[-1].append([a * b % p for a, b in zip(powers[-1][-1], v)])
        out = []
        for e in exps:
            factors = [powers[pos][k] for pos, k in enumerate(e) if k] or [[1] * len(keys)]
            col = factors.pop()
            for f in factors:
                col = [a * b % p for a, b in zip(col, f)]
            out.append(col)
        return out

    def vanish(self):
        """For each of the tuples: do all equations vanish there?"""
        p = self.p
        out = [True] * len(self.firsts)
        for rows, sums in zip(self.rows, self.sums):
            out = [ok and not sum(map(mul, a, b)) % p for ok, a, b in
                   zip(out, map(rows.__getitem__, self.firsts),
                       map(sums.__getitem__, self.rests))]
        return out


def _draw(rng, sizes, count):
    """count tuples of indices below sizes, from the stream that
    tuple(map(rng.choice, map(range, sizes))) would draw."""
    bits = rng.getrandbits
    flat = []
    for size, k in [(size, size.bit_length()) for size in sizes] * count:
        r = bits(k)
        while r >= size:
            r = bits(k)
        flat.append(r)
    return list(zip(*[iter(flat)] * len(sizes)))


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
    eqs = [poly_mod(eq, p, names) for eq in pre.equations]
    base_eqs = [poly_mod(eq, p, names) for eq in pre.base.equations]
    excl = [(row["j"] - 1, _dense_mod(row["t"], p, "x%d" % row["j"]))
            for row in pre.excluded_locus]
    affine = [ctx.affine_points(idx) for idx in range(n)]
    images = [ctx.image_table(idx, alphas[idx]) for idx in range(n)]
    sizes = [len(pts) for pts in affine]
    exhaustive = (p <= EXHAUSTIVE_MAX_P and n == 2)
    if exhaustive:
        tuples = list(iter_product(*map(range, sizes)))
    else:
        tuples = _draw(random.Random(SAMPLE_SEED), sizes, min(SAMPLE_COUNT, prod(sizes)))
    # per factor and point index in the tuples: 2 on the excluded locus,
    # else 1 if the image is at infinity, else 0; a tuple's kind is the
    # largest of these
    kind = []
    for j, table in enumerate(images):
        ids = sorted({idx[j] for idx in tuples})
        kind.append(dict(zip(ids, [int(table[i] is None) for i in ids])))
    for j, t in excl:
        ids = list(kind[j])
        for i, v in zip(ids, _horner(t, [affine[j][i][0] for i in ids], p)):
            if v == 0:
                kind[j][i] = 2
    kinds = [max(map(getitem, kind, idx)) for idx in tuples]
    live = [idx for idx, k in zip(tuples, kinds) if not k]
    firsts = [idx[:1] for idx in live]
    rests = [idx[1:] for idx in live]
    lhs = _GroupedEquations(eqs, affine, p, firsts, rests).vanish()
    rhs = _GroupedEquations(base_eqs, images, p, firsts, rests).vanish()
    results = zip(lhs, rhs)
    mismatches = []
    for idx, k in zip(tuples, kinds):
        if k == 1:
            # outside the excluded locus the image must be affine
            tup = tuple(pts[i] for pts, i in zip(affine, idx))
            mismatches.append({"tuple": tup, "problem": "image at infinity"})
        elif not k:
            vanish, member = next(results)
            if vanish != member:
                tup = tuple(pts[i] for pts, i in zip(affine, idx))
                mismatches.append({"tuple": tup, "equations_vanish": vanish,
                                   "image_on_subvariety": member})
    return {
        "p": p,
        "mode": "exhaustive" if exhaustive else "sampled",
        "affine_counts": sizes,
        "iterated": len(tuples),
        "excluded": kinds.count(2),
        "equations_vanish": lhs.count(True),
        "image_on_subvariety": rhs.count(True),
        "mismatches": mismatches,
        "ok": not mismatches,
    }
