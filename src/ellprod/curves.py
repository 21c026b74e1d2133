"""Short Weierstrass curves y^2 = x^3 + A*x + B over Q.

Provides the exact chord-and-tangent group law, the x-parts of the
division polynomials, and the rational functions (r, s, t) — plus the
cofactor-free pair (r~, t~) for even multipliers — that express scalar
multiplication in coordinates by one formula for every alpha:

    [alpha](x, y) = ( n(x) / (u(x)*t(x)) , s(x)*y / t(x)^3 )

with (n, u) = (r, t) for odd alpha and (r~, t~) for even alpha, where
t = (x^3 + A*x + B)*t~ and r = (x^3 + A*x + B)*r~ (on the curve the even
y-map also reads s/(t~*t^2*y)).  MultiplicationMaps.x_parts() makes this
parity choice for this module and its callers alike.
Division polynomials are stored with y^2 eliminated: psi_m = y^(m+1 mod 2)
* P_m(x, A, B), and this module works with the x-parts P_m throughout.

One psi recurrence on MultiPoly in (x, A, B) serves both kinds of maps.
Symbolic maps seed it with P_0..P_4 and the cubic in Z[x, A, B]; the
maps of a given curve seed it with the same polynomials with A and B
specialized to the curve's integers, so they are never built
symbolically and then specialized.  Neither path divides: s = P_2alpha /
(2 P_alpha) is taken from the bracket (P_{alpha+2} P_{alpha-1}^2 -
P_{alpha-2} P_{alpha+1}^2) / 4 of the recurrence, for either parity of
alpha (Washington, Elliptic Curves: Number Theory and Cryptography,
section 3.2).  The maps multiplication_maps returns build each of r, s,
t, r~ and t~ from the recurrence on first access and keep it, so a
caller that reads only some fields (the preimage of an equation that
omits a coordinate) never pays for the others.

The coordinate formulas are undefined exactly where t(x) = 0, on the
affine kernel of [alpha]; evaluation there raises KernelPointError, and
the public evaluator falls back to the group law, which is total.
"""

from fractions import Fraction

from .arith import require_int
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
        x = Fraction(x)
        return x ** 3 + self.A * x + self.B

    def contains(self, x, y):
        return Fraction(y) ** 2 == self.rhs(x)

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
        object.__setattr__(self, "x", None if x is None else Fraction(x))
        object.__setattr__(self, "y", None if y is None else Fraction(y))

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

_X = MultiPoly.var(RING_XAB, "x")
_A = MultiPoly.var(RING_XAB, "A")
_B = MultiPoly.var(RING_XAB, "B")
_C3 = _X ** 3 + _A * _X + _B  # the curve cubic, i.e. y^2

_SEEDS = {
    0: MultiPoly.zero(RING_XAB),
    1: MultiPoly.const(RING_XAB, 1),
    2: MultiPoly.const(RING_XAB, 2),
    3: 3 * _X ** 4 + 6 * _A * _X ** 2 + 12 * _B * _X - _A ** 2,
    4: 4 * (_X ** 6 + 5 * _A * _X ** 4 + 20 * _B * _X ** 3
            - 5 * _A ** 2 * _X ** 2 - 4 * _A * _B * _X
            - 8 * _B ** 2 - _A ** 3),
}
_DIVPOLY_CACHE = dict(_SEEDS)


def _psi_x(m, memo, c3_sq):
    """x-part P_m by the psi recurrence from the seeds P_0..P_4 in memo
    (which caches every P_m computed); c3_sq is the squared curve cubic."""
    if m in memo:
        return memo[m]
    k, odd = divmod(m, 2)

    def P(i):
        return _psi_x(i, memo, c3_sq)

    if odd:
        # psi_{2k+1} = psi_{k+2} psi_k^3 - psi_{k-1} psi_{k+1}^3, with the
        # even-index entries each contributing a factor y; y^4 = c3^2.
        if k % 2 == 1:
            p = P(k + 2) * P(k) ** 3 - c3_sq * P(k - 1) * P(k + 1) ** 3
        else:
            p = c3_sq * P(k + 2) * P(k) ** 3 - P(k - 1) * P(k + 1) ** 3
    else:
        # psi_{2k} = psi_k (psi_{k+2} psi_{k-1}^2 - psi_{k-2} psi_{k+1}^2) / (2y);
        # the y factors cancel identically for either parity of k, and the
        # halving is exact because every P_m lies in Z[x, A, B].
        p = Fraction(1, 2) * (P(k) * (P(k + 2) * P(k - 1) ** 2 - P(k - 2) * P(k + 1) ** 2))
    memo[m] = p
    return p


def _divpolys(curve):
    """(P, c3) with P(m) the x-part P_m and c3 the curve cubic: symbolic
    in Z[x, A, B] (memoised for the process) when curve is None, else by
    the recurrence seeded with that curve's integer coefficients."""
    if curve is None:
        memo, c3 = _DIVPOLY_CACHE, _C3
    else:
        coeffs = {"A": curve.A, "B": curve.B}
        memo = {m: p.specialize(coeffs) for m, p in _SEEDS.items()}
        c3 = _C3.specialize(coeffs)
    c3_sq = c3 * c3
    return (lambda m: _psi_x(m, memo, c3_sq)), c3


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
    return _divpolys(curve)[0](m)


# -- scalar multiplication in coordinates --------------------------------


_FIELDS = ("r", "s", "t", "r_tilde", "t_tilde")


class MultiplicationMaps:
    """Coordinate functions of [alpha] on a short Weierstrass curve.

    Fields r, s, t (and r_tilde, t_tilde when alpha is even) are
    MultiPoly in the ring (x, A, B); when built for a concrete curve the
    symbols A, B do not occur.  With (n, u) = x_parts(), the x-map is
    n/(u*t) and the y-map s*y/t^3 for either parity of alpha.

    The constructor takes the fields themselves.  The maps that
    multiplication_maps returns build each field from the psi recurrence
    on first access and keep it, so a caller pays only for the fields it
    reads; the values do not depend on the order of reading.
    """

    __slots__ = ("alpha",) + _FIELDS + ("_divpolys",)

    def __init__(self, alpha, r, s, t, r_tilde=None, t_tilde=None):
        self.alpha = alpha
        self.r = r
        self.s = s
        self.t = t
        self.r_tilde = r_tilde
        self.t_tilde = t_tilde

    @classmethod
    def _from_divpolys(cls, alpha, P, c3):
        """Maps of [alpha], |alpha| >= 2, whose fields are built on first
        access from the x-parts P and the curve cubic c3."""
        maps = object.__new__(cls)
        maps.alpha = alpha
        maps._divpolys = P, c3
        return maps

    def __getattr__(self, name):
        # reached only for a field not built yet (or an unknown name)
        if name not in _FIELDS:
            raise AttributeError(name)
        value = self._field(name)
        setattr(self, name, value)
        return value

    def _field(self, name):
        """One field of [a], a = |alpha| >= 2.

        s = P_2a / (2 P_a) is taken from the bracket of the psi
        recurrence, (P_{a+2} P_{a-1}^2 - P_{a-2} P_{a+1}^2) / 4, so no
        division occurs.  For even a, t = c3 * t~ and r = c3 * r~.
        """
        P, c3 = self._divpolys
        a = abs(self.alpha)
        even = a % 2 == 0
        if name == "s":
            s4 = P(a + 2) * P(a - 1) ** 2 - P(a - 2) * P(a + 1) ** 2
            s = Fraction(1, 4) * (c3 * s4 if even else s4)
            return -s if self.alpha < 0 else s
        if name == "t":
            return c3 * P(a) if even else P(a)
        if not even:
            if name == "r":
                return _X * P(a) ** 2 - c3 * P(a - 1) * P(a + 1)
            return None  # r~ and t~ exist for even a only
        if name == "r":
            return c3 * self.r_tilde
        if name == "r_tilde":
            return _X * c3 * P(a) ** 2 - P(a - 1) * P(a + 1)
        return P(a)  # t~

    def is_even(self):
        return self.alpha % 2 == 0

    def x_parts(self):
        """(n, u) with x-map n/(u*t): (r, t) for odd alpha, so that u is
        the field t itself, and (r~, t~) for even alpha."""
        if self.is_even():
            return self.r_tilde, self.t_tilde
        return self.r, self.t

    def u_part(self):
        """u of x_parts() alone, so that a caller that does not need the
        x-map never builds n."""
        return self.t_tilde if self.is_even() else self.t

    def degrees(self):
        return {"r": self.r.degree(), "s": self.s.degree(), "t": self.t.degree()}


def multiplication_maps(alpha, curve=None):
    """The (r, s, t) data for [alpha], symbolic or curve-specific.

    Symbolic maps come from the division polynomials in Z[x, A, B]; a
    curve's maps are built on its own integer coefficients, and equal the
    symbolic ones with A and B specialized.  Each field is built when
    first read.  alpha = 0 has no coordinate description (constant
    infinity) and is rejected.  Negative alpha flips the sign of s only.
    """
    alpha = require_int(alpha, "alpha")
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if abs(alpha) == 1:
        s, t = MultiPoly.const(RING_XAB, 1), MultiPoly.const(RING_XAB, 1)
        return MultiplicationMaps(alpha, _X, s if alpha > 0 else -s, t)
    return MultiplicationMaps._from_divpolys(alpha, *_divpolys(curve))


_MAPS_CACHE = {}


def _maps_for(curve, alpha):
    key = (curve.A, curve.B, alpha)
    if key not in _MAPS_CACHE:
        _MAPS_CACHE[key] = multiplication_maps(alpha, curve)
    return _MAPS_CACHE[key]


def evaluate_via_formula(curve, alpha, P):
    """Apply the coordinate formulas of [alpha] at an affine point.

    Raises KernelPointError on the affine kernel, where t(x) = 0 and the
    formulas are undefined.
    """
    if P.is_infinity():
        return CurvePoint.infinity()
    maps = _maps_for(curve, alpha)
    n, u = maps.x_parts()
    at = {"x": P.x}
    tv = maps.t.evaluate(at)
    if tv == 0:
        raise KernelPointError("t_%d vanishes at x = %s" % (alpha, P.x))
    uv = tv if u is maps.t else u.evaluate(at)
    return CurvePoint(n.evaluate(at) / (uv * tv), maps.s.evaluate(at) * P.y / tv ** 3)


def evaluate_multiplication_map(curve, alpha, P):
    """[alpha]P via the coordinate formulas, falling back to the group
    law on the affine kernel.  Total on the whole curve."""
    try:
        return evaluate_via_formula(curve, alpha, P)
    except KernelPointError:
        return scalar_mul_point(curve, alpha, P)
