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

Cost model: a PrimeFieldCtx keeps, for the life of the context, each
factor's affine point list and, per multiplier alpha, the table of
[alpha]P over those points, so each factor costs O(#E_j) group-law
scalar multiplications per prime and multiplier, shared by the maps
check and the membership scan.  The maps check evaluates its formulas
by Horner's rule.  The membership scan groups each equation by its
factor-1 monomials x1^a*y1^b; it builds the monomial row of a point on
first use and the inner sums over the other factors once per tuple of
their points, so a tuple costs one dot product per equation, as long
as its number of distinct factor-1 monomials.
"""

import random
from array import array
from itertools import product as iter_product
from operator import getitem, mul

from .arith import is_prime

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
        p = int(p)
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
        """[alpha]P for every affine point P of one factor, by index;
        None where P lies in the kernel."""
        alpha = int(alpha)
        key = (curve_index, alpha)
        table = self._images.get(key)
        if table is None:
            A, _ = self.curves_mod[curve_index]
            table = [scalar_mul_mod(self.p, A, alpha, P)
                     for P in self.affine_points(curve_index)]
            self._images[key] = table
        return table


def enumerate_points(ctx, curve_index):
    """All F_p points of the reduced curve, None (infinity) first.

    Enumerates by x-scan against a square table and asserts the Hasse
    window |#E - (p+1)| <= 2*sqrt(p) as a cheap correctness guard.
    """
    p = ctx.p
    A, B = ctx.curves_mod[curve_index]
    roots = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
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


def _horner(coeffs, x, p):
    acc = 0
    for c in coeffs:
        acc = (acc * x + c) % p
    return acc


def verify_maps_vs_group_law(ctx, curve_index, alpha):
    """Exhaustively compare the coordinate formulas of [alpha] with
    double-and-add over F_p.

    The formulas are evaluated wherever they are defined; the exceptional
    (undefined) points are reported and checked to coincide exactly with
    the affine kernel of [alpha], which for the stored normalization is
    the zero locus of t_alpha (odd) resp. of t~ and y (even).
    """
    from .curves import _maps_for

    alpha = int(alpha)
    ctx.require_separable([alpha])
    p = ctx.p
    maps = _maps_for(ctx.system.curves[curve_index], alpha)
    r = _dense_mod(maps.r, p, "x")
    s = _dense_mod(maps.s, p, "x")
    t = _dense_mod(maps.t, p, "x")
    even = maps.is_even()
    if even:
        rt = _dense_mod(maps.r_tilde, p, "x")
        tt = _dense_mod(maps.t_tilde, p, "x")
    mismatches = []
    exceptional = []
    kernel = []
    checked = 0
    images = ctx.image_table(curve_index, alpha)
    for P, expected in zip(ctx.affine_points(curve_index), images):
        x, y = P
        if expected is None:
            kernel.append(P)
        tv = _horner(t, x, p)
        if even:
            ttv = _horner(tt, x, p)
            defined = ttv != 0 and y != 0
        else:
            defined = tv != 0
        if not defined:
            exceptional.append(P)
            continue
        checked += 1
        if even:
            got = (_horner(rt, x, p) * pow(ttv * tv % p, -1, p) % p,
                   _horner(s, x, p) * pow(ttv * tv * tv % p * y % p, -1, p) % p)
        else:
            got = (_horner(r, x, p) * pow(tv * tv % p, -1, p) % p,
                   _horner(s, x, p) * y % p * pow(tv * tv * tv % p, -1, p) % p)
        if got != expected:
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
    indices.

    Each equation is written as sum_m m(P_1) * R_m(P_2, ..., P_N) over its
    distinct factor-1 monomials m = x1^a*y1^b.  The monomial row of a
    factor-1 point and the inner sums R_m of a tuple of the other points
    are built on first use and kept for the life of the scan, so a tuple
    costs one short dot product per equation.  Rows and sums hold all
    equations side by side in one flat array each, which keeps a scan
    that touches many points small.  coords[j] maps a point index of
    factor j to its (x, y).
    """

    def __init__(self, reduced, coords, p):
        self.p = p
        self.coords = coords
        degs = [0] * (2 * len(coords))
        for eq in reduced:
            for _, e in eq:
                degs = [max(d, k) for d, k in zip(degs, e)]
        self.degs = degs
        columns = {}     # exponents in the other factors -> column
        self.heads = []  # factor-1 exponents (a, b), equation after equation
        self.tails = []  # per head: (columns, coefficients)
        self.spans = []  # per equation: its slice of heads
        for eq in reduced:
            groups = {}
            for c, e in eq:
                cols, coeffs = groups.setdefault(e[:2], ([], []))
                cols.append(columns.setdefault(e[2:], len(columns)))
                coeffs.append(c)
            self.spans.append(slice(len(self.heads), len(self.heads) + len(groups)))
            self.heads.extend(groups)
            self.tails.extend(groups.values())
        # a column's monomial as ((position among the other coordinates, k), ...)
        self.columns = [tuple((pos, k) for pos, k in enumerate(e) if k)
                        for e in columns]
        self.rows = [None] * len(coords[0])
        self.sums = {}

    def _powers(self, j, i):
        """[x^0, x^1, ...] and [y^0, y^1, ...] at point i of factor j, up
        to the equations' degrees in x_j and y_j."""
        p = self.p
        out = []
        for v, d in zip(self.coords[j][i], self.degs[2 * j:2 * j + 2]):
            vp = [1]
            for _ in range(d):
                vp.append(vp[-1] * v % p)
            out.append(vp)
        return out

    def _row(self, i):
        p = self.p
        xp, yp = self._powers(0, i)
        return array("l", [xp[a] * yp[b] % p for a, b in self.heads])

    def _sums(self, rest):
        p = self.p
        pw = []
        for j, i in enumerate(rest, 1):
            pw.extend(self._powers(j, i))
        values = []
        for factors in self.columns:
            v = 1
            for pos, k in factors:
                v *= pw[pos][k]
            values.append(v % p)
        at = values.__getitem__
        return array("l", [sum(map(mul, coeffs, map(at, cols))) % p
                           for cols, coeffs in self.tails])

    def vanish(self, idx):
        """Do all equations vanish at the tuple of point indices idx?"""
        row = self.rows[idx[0]]
        if row is None:
            row = self.rows[idx[0]] = self._row(idx[0])
        rest = idx[1:]
        sums = self.sums.get(rest)
        if sums is None:
            sums = self.sums[rest] = self._sums(rest)
        p = self.p
        for span in self.spans:
            if sum(map(mul, row[span], sums[span])) % p:
                return False
        return True


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
    # per factor and point index: on the excluded locus; image at infinity
    off = [[False] * len(pts) for pts in affine]
    for j, t in excl:
        off[j] = [flag or _horner(t, x, p) == 0
                  for flag, (x, _) in zip(off[j], affine[j])]
    at_infinity = [[Q is None for Q in table] for table in images]
    total = 1
    for pts in affine:
        total *= len(pts)
    ranges = [range(len(pts)) for pts in affine]
    exhaustive = (p <= EXHAUSTIVE_MAX_P and n == 2)
    if exhaustive:
        tuples = iter_product(*ranges)
        planned = total
    else:
        rng = random.Random(SAMPLE_SEED)
        planned = min(SAMPLE_COUNT, total)
        # choice over an index range draws the same stream as over the points
        tuples = (tuple(map(rng.choice, ranges)) for _ in range(planned))
    on_preimage = _GroupedEquations(eqs, affine, p)
    on_base = _GroupedEquations(base_eqs, images, p)
    iterated = 0
    excluded = 0
    members = 0
    vanishing = 0
    mismatches = []
    for idx in tuples:
        iterated += 1
        if any(map(getitem, off, idx)):
            excluded += 1
            continue
        if any(map(getitem, at_infinity, idx)):
            # outside the excluded locus the image must be affine
            tup = tuple(pts[i] for pts, i in zip(affine, idx))
            mismatches.append({"tuple": tup, "problem": "image at infinity"})
            continue
        lhs = on_preimage.vanish(idx)
        rhs = on_base.vanish(idx)
        if lhs:
            vanishing += 1
        if rhs:
            members += 1
        if lhs != rhs:
            tup = tuple(pts[i] for pts, i in zip(affine, idx))
            mismatches.append({"tuple": tup, "equations_vanish": lhs,
                               "image_on_subvariety": rhs})
    if exhaustive and iterated != total:
        raise AssertionError("exhaustive scan iterated %d of %d tuples"
                             % (iterated, total))
    return {
        "p": p,
        "mode": "exhaustive" if exhaustive else "sampled",
        "affine_counts": [len(pts) for pts in affine],
        "iterated": iterated,
        "excluded": excluded,
        "equations_vanish": vanishing,
        "image_on_subvariety": members,
        "mismatches": mismatches,
        "ok": not mismatches,
    }
