"""Explicit equations for preimages of subvarieties under diagonal isogenies.

Given V inside E_1 x ... x E_N cut out by polynomial equations and a
diagonal isogeny phi = [alpha_1, ..., alpha_N], the preimage phi^(-1)(V)
satisfies the equations obtained by rewriting y_j^2 via the Weierstrass
relations, then substituting the coordinate form of scalar
multiplication, one form for either parity of alpha_j,

    x_j -> n_j(x_j) / (c_j u_j^2)(x_j)
    y_j -> w_j(x_j)*y_j / (c_j^2 u_j^3)(x_j)

in the parts n_j, u_j, c_j, w_j of the maps (curves module docstring; c_j
is the curve cubic for even alpha_j and 1 for odd alpha_j), which is
linear in y_j, then clearing denominators and content in lowest terms.
The rewriting runs only when some equation has degree 2 or more in some
y_j; an equation of degree at most 1 in every y_j is its own reduction.
The denominators of a term c*prod_j x_j^a_j y_j^b_j are powers of u_j
for odd alpha_j (c_j = 1), and of y_j*u_j for even alpha_j, where c_j
equals y_j^2 on the curve, so that x_j -> n_j/(y_j u_j)^2 and
y_j -> w_j/(y_j u_j)^3; either way of weight 2a_j + 3b_j.  With k_j the
amount by which that weight falls short of its greatest value over the
terms, the term clears to c times the product over j of n_j^a_j w_j^b_j
u_j^k_j and y_j^b_j for odd alpha_j, or (y_j u_j)^k_j =
u_j^k_j c_j^(k_j//2) y_j^(k_j mod 2) for even alpha_j: the powers that
MultiplicationMaps.clearing gives, of a product that
MultiplicationMaps.coefficients reads as ints in x_j alone.  The least
k_j is 0, and no factor of u_j (or of y_j, for even alpha_j) divides the
sum: n_j and w_j are coprime to u_j and do not vanish at the x of the
2-torsion (Washington, Elliptic Curves, 3.2), so the terms where k_j = 0
do not vanish there.  The equation is the primitive part of the sum,
with integer coefficients and a positive leading one; nothing is
divided.

The equations present the preimage away from the excluded locus
{t_j(x_j) = 0 for some j} — the x-coordinates of the kernel of [alpha_j]
on the j-th factor, where the substituted rational maps degenerate.  Each
t_j, read the same way, is divided by its content and written into the
product ring at the position of x_j.  membership_test refuses points on
that locus rather than answer wrongly.
"""

from math import gcd

from .curves import evaluate_multiplication_map, multiplication_maps
from .isogenies import DiagonalIsogeny
from .polynomials import MultiPoly, _merge, integer_primitive, reduce_weierstrass
from .products import (SubvarietyPresentation, preimage_multidegrees)


class PreimageDegenerateError(ValueError):
    """An input equation lies in the Weierstrass ideal: it vanishes on the
    whole product and presents no subvariety."""


class ExcludedLocusError(ValueError):
    """membership_test was asked about a point on the excluded locus."""


class PreimagePresentation:
    """Cleared, normalized equations for phi^(-1)(V) plus bookkeeping."""

    def __init__(self, base, isogeny, equations, excluded_locus, degrees):
        self.base = base
        self.isogeny = isogeny
        self.equations = tuple(equations)
        self.excluded_locus = list(excluded_locus)
        self.degrees = degrees

    @property
    def system(self):
        return self.base.system

    def total_degree(self):
        return self.degrees.total_degree()

    def __repr__(self):
        return ("PreimagePresentation(alphas=%r, %d equation(s))"
                % (list(self.isogeny.alphas), len(self.equations)))


def _require_arity(system, isogeny):
    if isogeny.n_factors != system.n_factors:
        raise ValueError("isogeny has %d components, product has %d factors"
                         % (isogeny.n_factors, system.n_factors))


def generate_preimage(V, isogeny):
    """Equations, excluded locus, and multidegrees of phi^(-1)(V)."""
    if not isinstance(V, SubvarietyPresentation):
        raise TypeError("V must be a SubvarietyPresentation")
    if not isinstance(isogeny, DiagonalIsogeny):
        raise TypeError("isogeny must be a DiagonalIsogeny")
    system = V.system
    _require_arity(system, isogeny)
    ring = system.ring
    reduced = V.equations
    # the ring is (x1, y1, x2, y2, ...): an equation of y_j-degree <= 1 in
    # every j is its own reduction, and is nonzero
    if any(max(e[1::2]) >= 2 for f in reduced for e in f.terms):
        relations = system.weierstrass_relations()
        reduced = [reduce_weierstrass(f, relations) for f in V.equations]
        for f, g in zip(V.equations, reduced):
            if not g:
                raise PreimageDegenerateError("equation %s lies in the Weierstrass ideal" % (f,))
    maps_of = []  # (x_j and y_j indices, maps) per factor
    excluded = []
    for j, (alpha, curve) in enumerate(zip(isogeny.alphas, system.curves), start=1):
        maps = multiplication_maps(alpha, curve)
        ix = 2 * j - 2
        maps_of.append(((ix, ix + 1), maps))
        if abs(alpha) != 1:
            # t_j(x_j) over the gcd of its coefficients, written into the ring
            # at x_j's position: t = c*u leads with |alpha| or |alpha|/2 times
            # a monic c (Washington, Elliptic Curves, 3.2), so it stays positive
            t = maps.coefficients(0, 0, 1, 1)
            g = gcd(*t.values())
            excluded.append({"j": j, "alpha": alpha,
                             "t": system.coordinate_poly(j, {k: c // g for k, c in t.items()})})

    # products: (x_j index, a, b, k) -> (y_j exponent, (x_j exponent, coefficient) pairs)
    equations, products = [], {}
    for f in reduced:
        # the greatest weight 2a_j + 3b_j of f's terms (module docstring)
        tops = [max(2 * e[ix] + 3 * e[iy] for e in f.terms) for (ix, iy), _ in maps_of]
        num = {}
        for e, c in f.terms.items():
            # c * prod_j x_j^a_j y_j^b_j clears to c times the outer product
            # over j of the products of parts in x_j times y_j^e_j (ring order)
            rows = [((), c)]
            for ((ix, iy), maps), top in zip(maps_of, tops):
                a, b = e[ix], e[iy]
                key = (ix, a, b, top - 2 * a - 3 * b)
                if key not in products:
                    i, j, y = maps.clearing(*key[1:])
                    products[key] = y, list(maps.coefficients(a, b, i, j).items())
                y, terms = products[key]
                rows = [(r + (k, y), c1 * d) for r, c1 in rows for k, d in terms]
            _merge(num, rows)
        # never 0: the images of the x_j and y_j are algebraically independent
        equations.append(integer_primitive(MultiPoly._trusted(ring, num))[1])
    table = preimage_multidegrees(V.degrees, isogeny)
    return PreimagePresentation(V, isogeny, equations, excluded, table)


def _require_points(system, points, affine):
    """The point-tuple rule: one point per factor, each on its factor's
    curve; the point at infinity only when affine is False."""
    if len(points) != system.n_factors:
        raise ValueError("expected %d points, got %d"
                         % (system.n_factors, len(points)))
    for j, (E, P) in enumerate(zip(system.curves, points), start=1):
        if P.is_infinity():
            if affine:
                raise ValueError("component %d is the point at infinity; the "
                                 "presentation is affine" % j)
        elif not E.contains(P.x, P.y):
            raise ValueError("component %d: (%s, %s) is not on %r"
                             % (j, P.x, P.y, E))


def apply_isogeny(system, isogeny, points):
    """Image of a tuple of points, one on each factor's curve, under
    [alpha_1, ..., alpha_N], using the coordinate formulas with group-law
    fallback on the kernel."""
    _require_arity(system, isogeny)
    _require_points(system, points, affine=False)
    return [evaluate_multiplication_map(system.curves[j], isogeny.alphas[j], P)
            for j, P in enumerate(points)]


def membership_test(pre, points):
    """Do the generated equations vanish at an affine point tuple?

    points: one affine CurvePoint per factor, each on its curve.  Raises
    ExcludedLocusError on the locus {some t_j(x_j) = 0}, where vanishing
    of the cleared equations does not decide membership.
    """
    _require_points(pre.system, points, affine=True)
    values = {}
    for j, P in enumerate(points, start=1):
        values["x%d" % j] = P.x
        values["y%d" % j] = P.y
    for row in pre.excluded_locus:
        if row["t"].evaluate(values) == 0:
            raise ExcludedLocusError(
                "component %d lies on the kernel locus t_%d(x_%d) = 0"
                % (row["j"], row["alpha"], row["j"]))
    return all(eq.evaluate(values) == 0 for eq in pre.equations)
