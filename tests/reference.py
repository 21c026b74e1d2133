"""Reference routes that the tests compare the library against.

The library builds each preimage equation in lowest terms from products
of the map parts and divides nothing.  These routes reach the same
results by dividing and substituting instead, and stay apart from the
library on purpose, so that a fault in its construction cannot hide in
the check as well:

- exact_divide_univariate, substitute and ExactDivisionError are the
  trial-division and substitution preimage routes of test_preimages
  (_trial_division_reference and _substitution_reference): substitute
  the maps into each equation, clear denominators, then divide out what
  the library never multiplies in;
- exact_divide divides the map fields of test_curves back into their
  parts (_check_product, test_even_maps_structure, P_2a / (2 P_a) in
  test_curve_maps_equal_specialized_symbolic_maps), and shows in
  test_preimages that no equation keeps a denominator factor;
- specialize plugs curve coefficients into the symbolic maps and
  division polynomials of test_curves, to compare them with the ones
  built for that curve;
- embed renames a polynomial's variables into another ring, the route
  test_preimages checks the excluded locus against, where the library
  writes each t_j's exponents at the position of x_j;
- eval_mod is the per-tuple oracle of test_oracle (reference_maps and
  reference_membership): one formula at one point at a time, against
  the column scans of ellprod.oracle.

test_polynomials checks the routes themselves.  Tests import them as
``from reference import ...``, as they import the strategies module.
"""

from fractions import Fraction
from math import gcd, prod

from ellprod.arith import require_rational
from ellprod.polynomials import MultiPoly, _merge, _norm, _powers


class ExactDivisionError(ArithmeticError):
    """Raised when exact_divide is asked for a quotient that does not exist."""


def specialize(p, values):
    """Plug in constants for a subset of variables; result stays in
    the same ring (the specialized variables simply no longer occur)."""
    idx = {p.ring.index(n): _norm(Fraction(require_rational(v, n)))
           for n, v in values.items()}
    return MultiPoly._trusted(p.ring, _merge({}, (
        (tuple(0 if i in idx else k for i, k in enumerate(e)),
         c * prod(v ** e[i] for i, v in idx.items() if e[i]))
        for e, c in p.terms.items())))


def embed(p, new_ring, rename=None):
    """p reinterpreted in another ring, optionally renaming variables.
    Every occurring variable must land in new_ring."""
    rename = rename or {}
    new_ring = tuple(new_ring)
    pos = [new_ring.index(t) if t in new_ring else None
           for t in map(rename.get, p.ring, p.ring)]

    def moved():
        for e, c in p.terms.items():
            e2 = [0] * len(new_ring)
            for i, k in enumerate(e):
                if k:
                    if pos[i] is None:
                        raise ValueError("variable %r has no image in ring %r"
                                         % (p.ring[i], new_ring))
                    e2[pos[i]] += k
            yield tuple(e2), c
    # two variables renamed to one can merge terms that cancel
    return MultiPoly._trusted(new_ring, _merge({}, moved()))


def exact_divide(a, b):
    """Return q with a = q*b, or raise ExactDivisionError.

    Single-divisor multivariate division in graded-lex order: because the
    order is graded, an exact quotient is found without ever shunting a
    term to a remainder, and any failure to cancel the leading term
    certifies that no exact quotient exists.
    """
    if not isinstance(b, MultiPoly):
        b = MultiPoly.const(a.ring, b)
    a._check_ring(b)
    if not b:
        raise ExactDivisionError("division by zero polynomial")
    if not a:
        return MultiPoly.zero(a.ring)
    lb_e, lb_c = b.leading()
    q = {}
    r = a
    while r:
        lr_e, lr_c = r.leading()
        diff = tuple(i - j for i, j in zip(lr_e, lb_e))
        if any(k < 0 for k in diff):
            raise ExactDivisionError("not exactly divisible")
        coeff = _norm(lr_c / lb_c)
        q[diff] = _norm(q.get(diff, 0) + coeff)
        r = r - MultiPoly._trusted(a.ring, {diff: coeff}) * b
    return MultiPoly._trusted(a.ring, q)


def exact_divide_univariate(a, b):
    """Return q with a = q*b for b univariate, or raise ExactDivisionError.

    a and b must have integer coefficients and b must be primitive and
    non-constant in a single variable v.  The terms of a are grouped into
    slices that agree outside v, and each slice is divided by b with dense
    integer long division.  By Gauss's lemma b divides a slice over Q
    exactly when it does over Z, so the first quotient coefficient that
    is not an integer, or the first nonzero remainder, shows that b does
    not divide a.  The quotient is the one exact_divide returns.
    """
    a._check_ring(b)
    used = b.variables()
    if len(used) != 1:
        raise ValueError("divisor must involve exactly one variable, got %s"
                         % sorted(used))
    i = a.ring.index(used.pop())
    fb = [0] * (b.degree() + 1)
    for e, c in b.terms.items():
        if c.denominator != 1:
            raise ValueError("divisor must have integer coefficients")
        fb[e[i]] = c.numerator
    if gcd(*fb) != 1:
        raise ValueError("divisor must be primitive")
    slices = {}
    for e, c in a.terms.items():
        if c.denominator != 1:
            raise ValueError("dividend must have integer coefficients")
        slices.setdefault(e[:i] + (0,) + e[i + 1:], {})[e[i]] = c.numerator
    n, lead = len(fb) - 1, fb[-1]
    q = {}
    for rest, piece in slices.items():
        top = max(piece)
        if top < n:
            raise ExactDivisionError("not exactly divisible")
        r = [0] * (top + 1)
        for k, c in piece.items():
            r[k] = c
        for k in range(top - n, -1, -1):
            c = r[k + n]
            if not c:
                continue
            qk, rem = divmod(c, lead)
            if rem:
                raise ExactDivisionError("not exactly divisible")
            for j in range(n):
                r[k + j] -= qk * fb[j]
            q[rest[:i] + (k,) + rest[i + 1:]] = qk
        if any(r[:n]):
            raise ExactDivisionError("not exactly divisible")
    return MultiPoly._trusted(a.ring, q)


def substitute(p, bindings):
    """Substitute rational expressions num/den for variables and clear
    denominators.

    bindings maps variable name -> (num, den) with num, den MultiPoly in
    p's ring.  Returns (q, d) where d = prod den_v^(deg_v p) and
    q = d * p(substituted).  No common factor is cancelled from (q, d);
    callers that want a reduced presentation do their own stripping.
    """
    ring = p.ring
    for name, (num, den) in bindings.items():
        if name not in ring:
            raise ValueError("binding for unknown variable %r" % (name,))
        p._check_ring(num)
        p._check_ring(den)
        if not den:
            raise ZeroDivisionError("zero denominator binding for %r" % (name,))
    maxdeg = {name: max(p.degree_in(name), 0) for name in bindings}
    # the powers of each num and den up to the degree actually used
    pows = {name: (_powers(num, maxdeg[name]), _powers(den, maxdeg[name]))
            for name, (num, den) in bindings.items()}
    bound_idx = {ring.index(name): name for name in bindings}
    acc = {}  # one running sum, so the cost is linear in the terms of p
    for e, c in p.terms.items():
        # c times the unbound part of the monomial, then the powers
        piece = MultiPoly._trusted(ring, {tuple(0 if i in bound_idx else k
                                                for i, k in enumerate(e)): c})
        for i, name in bound_idx.items():
            nums, dens = pows[name]
            piece = piece * nums[e[i]] * dens[maxdeg[name] - e[i]]
        _merge(acc, piece.terms.items())
    d = prod((pows[name][1][-1] for name in sorted(bindings)), start=MultiPoly.const(ring, 1))
    return MultiPoly._trusted(ring, acc), d


def eval_mod(reduced, values, p):
    acc = 0
    for c, e in reduced:
        t = c
        for v, k in zip(values, e):
            if k:
                t = t * pow(v, k, p) % p
        acc = (acc + t) % p
    return acc
