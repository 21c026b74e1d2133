"""Short Weierstrass curves y^2 = x^3 + A*x + B over Q.

Provides the exact chord-and-tangent group law, the x-parts of the
division polynomials, and scalar multiplication in coordinates, written
once for every alpha in four parts n, u, c and w of x:

    [alpha](x, y) = ( n(x) / (c(x)*u(x)^2) , w(x)*y / (c(x)^2*u(x)^3) )

with c the curve cubic x^3 + A*x + B for even alpha and 1 for odd alpha.
The fields of the maps are products of the parts: r, s, t = c*n, c*w, c*u,
and for even alpha r~, t~ = n, u; so x = r/t^2 = n/(c*u^2) and y = s*y/t^3
for either parity, and only _product and the fields r~ and t~ test the
parity of alpha.
Division polynomials are stored with y^2 eliminated: psi_m = y^(m+1 mod 2)
* P_m(x, A, B), and this module works with the x-parts P_m throughout.

One psi recurrence, its seeds P_-1..P_4, the formulas of the parts and
their products n^a w^b u^i c^j are each written once, generic over the
element type and its subtraction, and build the maps of every alpha !=
0.  Symbolic maps run the recurrence on MultiPoly in (x, A, B).  The maps
of a given curve run it on Python ints, each the value at x = 2^w of a
polynomial in Z[x] (A and B the curve's integers).  That evaluation is a
ring homomorphism Z[x] -> Z (Kronecker substitution), so each product of
polynomials is one product of ints and the exact halvings are shifts.  A
value is unpacked into a MultiPoly once, when a caller reads it, from
slots of w bits, a multiple of 8, proven from an upper bound on its L1
norm that the same formula computes on plain ints from |A| and |B|, with
add for subtract (|fg| <= |f||g|, |f - g| <= |f| + |g|); intermediate
values need no width, since evaluation is exact.
The recurrence runs at the width of the x-parts a map reads, and a value
that needs more is built at its own width from the x-parts it reads,
each repacked there on its first read.  The packed int never leaves this
module: MultiPoly stays the one polynomial type callers see.  Neither
path divides: w = P_2alpha / (2 P_alpha) is taken from the bracket
(P_{alpha+2} P_{alpha-1}^2 - P_{alpha-2} P_{alpha+1}^2) / 4 of the
recurrence (Washington, Elliptic Curves: Number Theory and Cryptography,
section 3.2).  The maps build each field on first access
and keep it, and build each product of parts without any field, so a
caller pays only for what it reads.

The coordinate formulas are undefined exactly where t(x) = 0, on the
affine kernel of [alpha]; evaluation there raises KernelPointError, and
the public evaluator falls back to the group law, which is total.
"""

import operator
from fractions import Fraction
from functools import cache, cached_property, partial

from .arith import require_int, require_rational
from .polynomials import MultiPoly

RING_XAB = ("x", "A", "B")


class SingularCurveError(ValueError):
    """Raised for coefficients with vanishing discriminant."""


class KernelPointError(ArithmeticError):
    """Raised when a coordinate formula is evaluated on the kernel."""


class WeierstrassCurve:
    """y^2 = x^3 + A*x + B with integer coefficients and Delta != 0."""

    __slots__ = ("A", "B")

    def __init__(self, A, B):
        A, B = require_int(A, "A"), require_int(B, "B")
        if -16 * (4 * A ** 3 + 27 * B ** 2) == 0:
            raise SingularCurveError("singular curve: A=%d, B=%d" % (A, B))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    def __setattr__(self, name, value):
        raise AttributeError("WeierstrassCurve is immutable")

    def discriminant(self):
        return -16 * (4 * self.A ** 3 + 27 * self.B ** 2)

    def j_invariant(self):
        return Fraction(-1728 * (4 * self.A) ** 3, self.discriminant())

    def rhs(self, x):
        x = Fraction(require_rational(x, "x"))
        return x ** 3 + self.A * x + self.B

    def contains(self, x, y):
        return Fraction(require_rational(y, "y")) ** 2 == self.rhs(x)

    def __eq__(self, other):
        return (isinstance(other, WeierstrassCurve)
                and (self.A, self.B) == (other.A, other.B))

    def __hash__(self):
        return hash(("WeierstrassCurve", self.A, self.B))

    def __repr__(self):
        return "WeierstrassCurve(A=%d, B=%d)" % (self.A, self.B)


class CurvePoint:
    """Affine point or the point at infinity (x = y = None)."""

    __slots__ = ("x", "y")

    def __init__(self, x=None, y=None):
        if (x is None) != (y is None):
            raise ValueError("both coordinates or neither")
        if x is not None:
            x, y = Fraction(require_rational(x, "x")), Fraction(require_rational(y, "y"))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("CurvePoint is immutable")

    @classmethod
    def infinity(cls):
        return cls()

    def is_infinity(self):
        return self.x is None

    def __eq__(self, other):
        return (isinstance(other, CurvePoint)
                and (self.x, self.y) == (other.x, other.y))

    def __hash__(self):
        return hash(("CurvePoint", self.x, self.y))

    def __repr__(self):
        if self.is_infinity():
            return "CurvePoint(infinity)"
        return "CurvePoint(%s, %s)" % (self.x, self.y)


def negate_point(P):
    if P.is_infinity():
        return P
    return CurvePoint(P.x, -P.y)


def add_points(curve, P, Q):
    """Chord-and-tangent addition; inputs assumed on the curve."""
    if P.is_infinity():
        return Q
    if Q.is_infinity():
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return CurvePoint.infinity()
        lam = (3 * P.x ** 2 + curve.A) / (2 * P.y)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam ** 2 - P.x - Q.x
    y3 = lam * (P.x - x3) - P.y
    return CurvePoint(x3, y3)


def scalar_mul_point(curve, n, P):
    """[n]P by double-and-add; total, exact, any integer n."""
    n = require_int(n, "n")
    if n < 0:
        return scalar_mul_point(curve, -n, negate_point(P))
    acc = CurvePoint.infinity()
    addend = P
    while n:
        if n & 1:
            acc = add_points(curve, acc, addend)
        n >>= 1
        if n:  # no doubling past the top bit
            addend = add_points(curve, addend, addend)
    return acc


# -- division polynomials (x-parts) -------------------------------------
#
# The seeds, the recurrence and the part formulas are written once and
# run on two element types, each with its own subtraction: MultiPoly in
# (x, A, B), and a Python int, the value at x = 2^w of a polynomial in
# Z[x] (Kronecker substitution; Schönhage, ICALP 1982).  Run on plain ints
# with add for subtract, the same formulas give an upper bound on the L1
# norm (sum of absolute coefficients) of each polynomial, from which w is
# taken: |f g| <= |f| |g| and |f - g| <= |f| + |g|.  An exact halving may
# floor its bound: for g in 2^k Z[x] with N >= |g|, |g / 2^k| is an
# integer at most N / 2^k, so at most N >> k.


def _shr(v, k):
    """v / 2^k for a v that the division leaves in Z[x, A, B]: a shift on
    an int (exact, since evaluation at x = 2^w is a ring homomorphism, and
    a floor of a norm, as above), a scaling on a MultiPoly."""
    return v >> k if isinstance(v, int) else Fraction(1, 1 << k) * v


def _seeds(x, A, B, sub):
    """{m: P_m} for m = -1..4, in the element type of x: P_-1 = -1, since
    psi_-m = -psi_m, lets the part formulas run at |alpha| = 1."""
    one = x ** 0
    return {-1: sub(0, one), 0: 0 * x, 1: one, 2: 2 * one,
            3: sub(3 * x ** 4 + 6 * A * x ** 2 + 12 * B * x, A ** 2),
            4: 4 * sub(x ** 6 + 5 * A * x ** 4 + 20 * B * x ** 3,
                       5 * A ** 2 * x ** 2 + 4 * A * B * x + 8 * B ** 2 + A ** 3)}


class _Recurrence:
    """The x-parts P_m on one element type, from the seeds at (x, A, B) by
    the psi recurrence, memoised: P(m) is P_m, P.x is x, P.c3 the curve
    cubic x^3 + A*x + B and P.sub the subtraction of the element type
    (add, for norms).  With fill given there are no seeds and no
    recurrence: P_m is fill(m), taken on its first read."""

    __slots__ = ("x", "c3", "c3_sq", "sub", "memo", "fill")

    def __init__(self, x, A, B, sub=operator.sub, fill=None):
        self.x, self.c3, self.sub, self.fill = x, x ** 3 + A * x + B, sub, fill
        self.c3_sq = self.c3 * self.c3
        self.memo = _seeds(x, A, B, sub) if fill is None else {}

    def __call__(self, m):
        if m in self.memo:
            return self.memo[m]
        if self.fill is not None:
            p = self.memo[m] = self.fill(m)
            return p
        k, odd = divmod(m, 2)
        P, sub = self, self.sub
        if odd:
            # psi_{2k+1} = psi_{k+2} psi_k^3 - psi_{k-1} psi_{k+1}^3, with the
            # even-index entries each contributing a factor y; y^4 = c3^2.
            if k % 2 == 1:
                p = sub(P(k + 2) * P(k) ** 3, self.c3_sq * P(k - 1) * P(k + 1) ** 3)
            else:
                p = sub(self.c3_sq * P(k + 2) * P(k) ** 3, P(k - 1) * P(k + 1) ** 3)
        else:
            # psi_{2k} = psi_k (psi_{k+2} psi_{k-1}^2 - psi_{k-2} psi_{k+1}^2) / (2y);
            # the y factors cancel identically for either parity of k, and the
            # halving is exact because every P_m lies in Z[x, A, B].
            p = _shr(P(k) * sub(P(k + 2) * P(k - 1) ** 2, P(k - 2) * P(k + 1) ** 2), 1)
        self.memo[m] = p
        return p

    def poly(self, formula):
        """formula(P) (a MultiPoly, on a MultiPoly recurrence)."""
        return formula(self)


def _width(norm):
    """The least multiple of 8 that is a slot width w with every integer
    of absolute value at most norm in (-2^(w-1), 2^(w-1))."""
    return (norm.bit_length() + 8) // 8 * 8


def _offset(n, b, stride):
    # 2^(8b-1) in each of n slots of stride >= b bytes
    return int.from_bytes((bytes(b - 1) + b"\x80" + bytes(stride - b)) * n, "little")


def _slots(v, w):
    """(bytes, n): v plus 2^(w-1) in each of n slots of w bits, so that slot
    i holds c_i + 2^(w-1) for v the value at x = 2^w of sum c_i x^i with
    each c_i in (-2^(w-1), 2^(w-1)); w is a multiple of 8, so that each
    slot is a whole number of bytes."""
    b = w >> 3
    n = v.bit_length() // w + 2  # at least the degree plus one
    return (v + _offset(n, b, b)).to_bytes(n * b, "little"), n


def _coeffs(v, w):
    """The coefficients c_0, c_1, ... of v (as in _slots)."""
    data, n = _slots(v, w)
    b, half = w >> 3, 1 << (w - 1)
    return [int.from_bytes(data[i:i + b], "little") - half for i in range(0, n * b, b)]


def _repack(v, w, w2):
    """The value at x = 2^w2, w2 >= w, of the polynomial whose value at
    x = 2^w is v (as in _slots): each slot's bytes move to a wider slot."""
    (data, n), b, b2 = _slots(v, w), w >> 3, w2 >> 3
    out = bytearray(n * b2)
    for j in range(b):
        out[j::b2] = data[j::b]
    return int.from_bytes(out, "little") - _offset(n, b, b2)


class _Packed:
    """The x-parts of one curve as ints, each the value of P_m at x = 2^w
    (Kronecker substitution), and the MultiPoly in x of a formula in them.

    The recurrence runs at the least width w1 that unpacks P_low..P_high:
    intermediate values need no width, because evaluation is exact.  A
    formula whose L1 bound needs more gets a width of its own, kept in
    recs, one per width: there each of P_low..P_high is repacked from its
    value at w1 when a formula first reads it, and any other P_m is
    refused with KeyError.
    """

    __slots__ = ("A", "B", "low", "high", "norms", "w1", "recs")

    def __init__(self, curve, low, high):
        self.A, self.B, self.low, self.high = curve.A, curve.B, low, high
        self.norms = _Recurrence(1, abs(curve.A), abs(curve.B), operator.add)
        self.w1 = _width(max(map(self.norms, range(low, high + 1))))
        self.recs = {self.w1: _Recurrence(1 << self.w1, self.A, self.B)}

    def poly(self, formula):
        """formula(P) as a MultiPoly in x, for a formula that is a
        polynomial in x, c3 and P_low..P_high."""
        w = max(self.w1, _width(formula(self.norms)))
        if w not in self.recs:
            self.recs[w] = _Recurrence(1 << w, self.A, self.B, fill=partial(
                _repacked, self.recs[self.w1], self.w1, self.low, self.high, w))
        return MultiPoly._trusted(RING_XAB, {
            (i, 0, 0): c for i, c in enumerate(_coeffs(formula(self.recs[w]), w)) if c})


def _repacked(base, w1, low, high, w, m):
    """P_m at width w, repacked from base, the recurrence at width w1;
    only P_low..P_high.  A module function, so that a wider recurrence's
    fill holds no reference back to its _Packed."""
    if not low <= m <= high:
        raise KeyError("P_%d is not among P_%d..P_%d" % (m, low, high))
    return _repack(base(m), w1, w)


@cache
def _symbolic():
    """The x-parts in Z[x, A, B], built on first use and memoised for the
    process."""
    return _Recurrence(*(MultiPoly.var(RING_XAB, v) for v in RING_XAB))


def _require_curve(curve):
    if curve is None or isinstance(curve, WeierstrassCurve):
        return curve
    raise TypeError("curve must be a WeierstrassCurve or None, got %r" % (curve,))


def _require_alpha(alpha):
    if require_int(alpha, "alpha") == 0:
        raise ValueError("alpha must be nonzero")
    return alpha


def _divpolys(curve, low, high):
    """The x-parts, with poly(formula): symbolic in Z[x, A, B] when curve
    is None, else packed for that curve with P_low..P_high unpackable."""
    return _symbolic() if _require_curve(curve) is None else _Packed(curve, low, high)


def division_polynomial(m, curve=None):
    """x-part P_m of the m-th division polynomial, in Z[x, A, B].

    psi_m = y * P_m for even m and psi_m = P_m for odd m; callers track
    the parity (the implicit factor y) themselves.  With a curve given,
    the recurrence runs on the curve's own integer coefficients and the
    result lies in the same ring with A and B absent.
    """
    m = require_int(m, "m")
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _divpolys(curve, m, m).poly(lambda P: P(m))


# -- scalar multiplication in coordinates --------------------------------


def _product(P, alpha, a, b, i, j):
    """n^a w^b u^i c^j of [alpha], alpha != 0 and k = |alpha|, in the
    x-parts P, x and the cubic c3: u = P_k; c = c3 for even k, else 1; n
    as below; and w from the bracket, with the sign of alpha (a
    subtraction from 0, so that a norm stays positive).  n, w and u are
    built only at a positive power."""
    k, sub = abs(alpha), P.sub
    out = (P.x ** 0 if k % 2 else P.c3) ** j
    if a:
        n = (sub(P.x * P(k) ** 2, P.c3 * P(k - 1) * P(k + 1)) if k % 2
             else sub(P.x * P.c3 * P(k) ** 2, P(k - 1) * P(k + 1)))
        out = out * n ** a
    if b:
        w = _shr(sub(P(k + 2) * P(k - 1) ** 2, P(k - 2) * P(k + 1) ** 2), 2)
        out = out * (sub(0, w) if alpha < 0 else w) ** b
    if i:
        out = out * P(k) ** i
    return out


class MultiplicationMaps:
    """Coordinate functions of [alpha] on a short Weierstrass curve.

    Fields r, s, t (and r_tilde, t_tilde when alpha is even, None when it
    is odd) are MultiPoly in the ring (x, A, B); when built for a concrete
    curve the symbols A, B do not occur.  The x-map is r/t^2 and the y-map
    s*y/t^3 for either parity of alpha.

    Each field is a cached_property over its product of the parts n, u, c
    and w (module docstring): built on first access and kept, so the
    values do not depend on the order of reading.
    """

    def __init__(self, alpha, divpolys):
        """[alpha], alpha != 0, on x-parts holding P_|alpha|-2..P_|alpha|+2."""
        self.alpha = alpha
        self._divpolys = divpolys

    # r, s, t = c*n, c*w, c*u and r~, t~ = n, u, as product(a, b, i, j)
    r = cached_property(lambda self: self.product(1, 0, 0, 1))
    s = cached_property(lambda self: self.product(0, 1, 0, 1))
    t = cached_property(lambda self: self.product(0, 0, 1, 1))
    r_tilde = cached_property(
        lambda self: None if self.alpha % 2 else self.product(1, 0, 0, 0))
    t_tilde = cached_property(
        lambda self: None if self.alpha % 2 else self.product(0, 0, 1, 0))

    def product(self, a, b, i, j):
        """n^a * w^b * u^i * c^j, a MultiPoly in x: a term c0*x^a*y^b of an
        equation clears, after x -> n/(c*u^2) and y -> w*y/(c^2*u^3), to
        c0*y^b times such a product, with i and j set by the other terms
        (preimages module docstring).  It is built from the x-parts
        (module docstring), reading no field."""
        return self._divpolys.poly(lambda P: _product(P, self.alpha, a, b, i, j))


def multiplication_maps(alpha, curve=None):
    """The (r, s, t) data for [alpha], symbolic or curve-specific.

    Symbolic maps come from the division polynomials in Z[x, A, B]; a
    curve's maps are built on its own integer coefficients, and equal the
    symbolic ones with A and B specialized.  Every alpha != 0 runs the
    same recurrence from the seeds P_-1..P_4, alpha = +-1 included (n = x,
    u = c = 1, w = +-1).  Each field is built when first read.  alpha = 0
    has no coordinate description (constant infinity) and is rejected.
    Negative alpha flips the sign of s only.
    """
    k = abs(_require_alpha(alpha))
    return MultiplicationMaps(alpha, _divpolys(curve, k - 2, k + 2))


@cache
def _maps_for(curve, alpha):
    return multiplication_maps(alpha, curve)


def evaluate_via_formula(curve, alpha, P):
    """Apply the coordinate formulas of [alpha] at an affine point.

    Raises KernelPointError on the affine kernel, where t(x) = 0 and the
    formulas are undefined.  alpha and the curve are checked before the
    maps cache is read; None, the symbolic maps elsewhere, is refused.
    """
    if not isinstance(curve, WeierstrassCurve):
        raise TypeError("curve must be a WeierstrassCurve, got %r" % (curve,))
    alpha = _require_alpha(alpha)
    if P.is_infinity():
        return CurvePoint.infinity()
    maps, at = _maps_for(curve, alpha), {"x": P.x}
    tv = maps.t.evaluate(at)
    if tv == 0:
        raise KernelPointError("t_%d vanishes at x = %s" % (alpha, P.x))
    return CurvePoint(maps.r.evaluate(at) / tv ** 2, maps.s.evaluate(at) * P.y / tv ** 3)


def evaluate_multiplication_map(curve, alpha, P):
    """[alpha]P via the coordinate formulas, falling back to the group
    law on the affine kernel.  Total on the whole curve."""
    try:
        return evaluate_via_formula(curve, alpha, P)
    except KernelPointError:
        return scalar_mul_point(curve, alpha, P)
