"""Explicit equations for preimages of subvarieties under diagonal isogenies.

Given V inside E_1 x ... x E_N cut out by polynomial equations and a
diagonal isogeny phi = [alpha_1, ..., alpha_N], the preimage phi^(-1)(V)
satisfies the equations obtained by rewriting y_j^2 via the Weierstrass
relations, then substituting the coordinate form of scalar
multiplication, one form for either parity of alpha_j,

    x_j -> n_j(x_j) / (u_j t_j)(x_j)
    y_j -> s_j(x_j)*y_j / t_j(x_j)^3

with (n_j, u_j) = (r_j, t_j) for odd alpha_j and (r~_j, t~_j) for even
alpha_j (curves.MultiplicationMaps.x_parts), which is linear in y_j, then
clearing denominators and content.  Cleared, a term c*prod_j x_j^a_j y_j^b_j
of an equation of top degrees A_j, B_j is c times the product over j of
y_j^b_j and n_j^a_j (u_j t_j)^(A_j-a_j) s_j^b_j (t_j^3)^(B_j-b_j), which
MultiplicationMaps.cleared builds in x_j alone.  The term so gains a factor
q of t_j to the power dx*(A-a) + dy*(B-b) + ds*b, (dx, dy, ds) being the
powers of q in u_j*t_j, t_j^3 and s_j: (2, 3, 0) for q = prim(u_j), and
(1, 3, 1) for the cubic, a factor of t_j for even alpha_j only.  q^k, k
least over the terms, is divided out once.  No higher power divides: the
terms of least power differ in y_j-degree, and the maps are in lowest terms
(Washington, Elliptic Curves, 3.2).  The result has primitive integer
coefficients and leads positive.

The equations present the preimage away from the excluded locus
{t_j(x_j) = 0 for some j} — the x-coordinates of the kernel of [alpha_j]
on the j-th factor, where the substituted rational maps degenerate.
membership_test refuses points on that locus rather than answer wrongly.
"""

from .curves import evaluate_multiplication_map, multiplication_maps
from .isogenies import DiagonalIsogeny
from .polynomials import (MultiPoly, _merge, exact_divide_univariate, integer_primitive,
                          reduce_weierstrass)
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

    def as_subvariety(self, transverse=False):
        """Repackage as a SubvarietyPresentation; transversality of the
        preimage is NOT established here (that is the certification
        layer's job), so the flag defaults to False."""
        return SubvarietyPresentation(self.system, self.equations,
                                      self.base.dim, self.degrees, transverse)

    def __repr__(self):
        return ("PreimagePresentation(alphas=%r, %d equation(s))"
                % (list(self.isogeny.alphas), len(self.equations)))


def generate_preimage(V, isogeny):
    """Equations, excluded locus, and multidegrees of phi^(-1)(V)."""
    if not isinstance(V, SubvarietyPresentation):
        raise TypeError("V must be a SubvarietyPresentation")
    if not isinstance(isogeny, DiagonalIsogeny):
        raise TypeError("isogeny must be a DiagonalIsogeny")
    system = V.system
    if isogeny.n_factors != system.n_factors:
        raise ValueError("isogeny has %d components, product has %d factors"
                         % (isogeny.n_factors, system.n_factors))
    ring = system.ring
    relations = system.weierstrass_relations()
    reduced = [reduce_weierstrass(f, relations) for f in V.equations]
    for f, g in zip(V.equations, reduced):
        if not g:
            raise PreimageDegenerateError("equation %s lies in the Weierstrass ideal" % (f,))
    maps_of = []  # (x_j and y_j indices, maps) per factor
    factors = []  # (x_j and y_j indices, q, powers of q in u_j*t_j, t_j^3, s_j)
    excluded = []
    for j, (alpha, curve) in enumerate(zip(isogeny.alphas, system.curves), start=1):
        maps = multiplication_maps(alpha, curve)
        xj = "x%d" % j
        at = (ring.index(xj), ring.index("y%d" % j))
        maps_of.append((at, maps))
        if abs(alpha) != 1:
            t = integer_primitive(maps.t)[1].embed(ring, {"x": xj})
            excluded.append({"j": j, "alpha": alpha, "t": t})
            # t is u (odd alpha) or the cubic times u (even alpha, where the
            # two are coprime); u is constant only for alpha = +-2
            u = maps.u_part()
            if u is maps.t:
                factors.append((at, t, (2, 3, 0)))
            else:
                if not u.is_constant():
                    factors.append((at, integer_primitive(u)[1].embed(ring, {"x": xj}),
                                    (2, 3, 0)))
                factors.append((at, relations[j - 1][1], (1, 3, 1)))

    equations, cleared = [], {}  # cleared: (x_j index, a, b, A, B) -> terms
    for f in reduced:
        top = list(map(max, zip(*f.terms)))  # f's top degree in each variable
        num = {}
        for e, c in f.terms.items():
            # c * prod_j x_j^a_j y_j^b_j clears to c times the outer product
            # over j of the cleared products in x_j times y_j^b_j (ring order)
            rows = [((), c)]
            for (ix, iy), maps in maps_of:
                key = (ix, e[ix], e[iy], top[ix], top[iy])
                if key not in cleared:
                    cleared[key] = [(i, d) for (i, _, _), d in
                                    maps.cleared(*key[1:]).terms.items()]
                rows = [(k + (i, e[iy]), c1 * d) for k, c1 in rows for i, d in cleared[key]]
            _merge(num, rows)
        # never 0: the images of the x_j and y_j are algebraically independent
        num = integer_primitive(MultiPoly._trusted(ring, num))[1]
        # divide out q^k, the power the terms force (module docstring); the
        # quotient stays primitive and leads positive, as q does (Gauss)
        for (ix, iy), q, (dx, dy, ds) in factors:
            k = min(dx * (top[ix] - e[ix]) + dy * (top[iy] - e[iy]) + ds * e[iy]
                    for e in f.terms)
            num = exact_divide_univariate(num, q ** k) if k else num
        equations.append(num)
    table = preimage_multidegrees(V.degrees, isogeny)
    return PreimagePresentation(V, isogeny, equations, excluded, table)


def apply_isogeny(system, isogeny, points):
    """Image of a tuple of points under [alpha_1, ..., alpha_N], using the
    coordinate formulas with group-law fallback on the kernel."""
    if len(points) != system.n_factors:
        raise ValueError("expected %d points, got %d"
                         % (system.n_factors, len(points)))
    return [evaluate_multiplication_map(system.curves[j], isogeny.alphas[j], P)
            for j, P in enumerate(points)]


def membership_test(pre, points):
    """Do the generated equations vanish at an affine point tuple?

    points: one affine CurvePoint per factor, each on its curve.  Raises
    ExcludedLocusError on the locus {some t_j(x_j) = 0}, where vanishing
    of the cleared equations does not decide membership.
    """
    system = pre.system
    if len(points) != system.n_factors:
        raise ValueError("expected %d points, got %d"
                         % (system.n_factors, len(points)))
    values = {}
    for j, P in enumerate(points, start=1):
        if P.is_infinity():
            raise ValueError("component %d is the point at infinity; the "
                             "presentation is affine" % j)
        E = system.curves[j - 1]
        if not E.contains(P.x, P.y):
            raise ValueError("component %d: (%s, %s) is not on %r"
                             % (j, P.x, P.y, E))
        values["x%d" % j] = P.x
        values["y%d" % j] = P.y
    for row in pre.excluded_locus:
        if row["t"].evaluate(values) == 0:
            raise ExcludedLocusError(
                "component %d lies on the kernel locus t_%d(x_%d) = 0"
                % (row["j"], row["alpha"], row["j"]))
    return all(eq.evaluate(values) == 0 for eq in pre.equations)
