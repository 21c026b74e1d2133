"""Exact sparse multivariate polynomial arithmetic over the rationals.

Polynomials are stored as a map from exponent tuples to nonzero
coefficients, relative to a fixed ordered tuple of variable names (the
"ring").  A coefficient is an int when it is integral and a Fraction
otherwise, so integral arithmetic never pays for Fraction normalisation;
since 3 == Fraction(3) and the two hash alike, printing, equality and
hashing do not depend on the representation.  The canonical term order
everywhere is graded lexicographic: compare total degree first, then the
exponent tuple lexicographically (both descending when printing).

The string form produced by str() is canonical and is accepted back by
parse_poly, so text round-trips exactly.  Grammar:

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := base ('^' nat)?
    base   := rational | variable | '(' expr ')'

with rational := int ('/' int)?.  Multiplication is always explicit,
exponents are nonnegative integers, and '/' occurs only inside rational
literals.
"""

import re
import sys
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, mul

from .arith import require_int, require_rational


class ParseError(ValueError):
    """Raised on malformed polynomial text; message carries the offset."""


def _gl_key(expts):
    # Graded-lex sort key: total degree first, then lex on the tuple.
    return (sum(expts), expts)


def _norm(c):
    # the coefficient domain: an int when integral, else a Fraction
    return c if type(c) is int else c.numerator if c.denominator == 1 else c


def _merge(out, pairs):
    # add (exponents, coefficient) pairs into the terms dict out, in place:
    # each sum an int when integral, and dropped when it cancels
    get = out.get
    for e, c in pairs:
        s = _norm(get(e, 0) + c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _power(b, n, times):
    # b^n for n >= 1 by left-to-right binary powering, from b itself
    acc = b
    for bit in bin(n)[3:]:
        acc = times(acc, acc)
        if bit == "1":
            acc = times(acc, b)
    return acc


class MultiPoly:
    """Immutable sparse polynomial over Q in a fixed ordered variable ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms=None):
        ring = tuple(ring)
        object.__setattr__(self, "ring", ring)

        def checked():
            # each coefficient is read first, then its exponent tuple checked
            for e, c in (terms or {}).items():
                c = require_rational(c, "coefficient")
                e = tuple(require_int(k, "exponent") for k in e)
                if len(e) != len(ring) or any(k < 0 for k in e):
                    raise ValueError("bad exponent tuple %r for ring %r" % (e, ring))
                yield e, c
        object.__setattr__(self, "terms", _merge({}, checked()))

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def _trusted(cls, ring, terms):
        """Constructor for arithmetic results, skipping the validation of
        __init__: ring is a tuple and terms maps exponent tuples of its
        length to nonzero coefficients, each an int when integral and a
        Fraction otherwise."""
        p = object.__new__(cls)
        object.__setattr__(p, "ring", ring)
        object.__setattr__(p, "terms", terms)
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ring):
        return cls(ring, {})

    @classmethod
    def const(cls, ring, c):
        ring = tuple(ring)
        c = _norm(Fraction(require_rational(c, "coefficient")))
        return cls._trusted(ring, {(0,) * len(ring): c} if c else {})

    @classmethod
    def var(cls, ring, name, power=1):
        ring = tuple(ring)
        if name not in ring:
            raise ValueError("variable %r not in ring %r" % (name, ring))
        power = require_int(power, "power")
        if power < 0:
            raise ValueError("negative exponent")
        e = [0] * len(ring)
        e[ring.index(name)] = power
        return cls._trusted(ring, {tuple(e): 1})

    # -- basic queries ------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        if not self.terms:
            return Fraction(0)
        return Fraction(next(iter(self.terms.values())))

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(map(sum, self.terms))

    def degree_in(self, name):
        if not self.terms:
            return -1
        i = self.ring.index(name)
        return max(e[i] for e in self.terms)

    def variables(self):
        """Names of variables that actually occur."""
        return {self.ring[i] for e in self.terms for i, k in enumerate(e) if k}

    def leading(self):
        """(exponent tuple, coefficient) of the graded-lex leading term."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        # the max of (total degree, exponents) pairs, as _gl_key orders them;
        # exponent tuples are distinct, so no tie reaches the term
        t = self.terms
        e = max(zip(map(sum, t), t))[1]
        return e, Fraction(self.terms[e])

    def coefficient(self, expts):
        return Fraction(self.terms.get(tuple(expts), 0))

    # -- ring operations ----------------------------------------------

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise ValueError("ring mismatch: %r vs %r" % (self.ring, other.ring))

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            self._check_ring(other)
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.ring, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly._trusted(self.ring, _merge(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._trusted(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def _term(self):
        # (c, e) for a polynomial c*x^e of at most one term (zero gives
        # c = 0), else None
        terms = self.terms
        if not terms:
            return 0, None
        if len(terms) == 1:
            (e, c), = terms.items()
            return c, e
        return None

    def _times(self, c, e=None):
        # c * x^e * self for an int or Fraction c, in one pass over the
        # terms: scale each coefficient and shift each exponent by e
        if not c:
            return MultiPoly._trusted(self.ring, {})
        if e is None or not any(e):
            return MultiPoly._trusted(self.ring, {f: _norm(d * c)
                                                  for f, d in self.terms.items()})
        return MultiPoly._trusted(self.ring, {tuple(map(add, f, e)): _norm(d * c)
                                              for f, d in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._times(other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_ring(other)
        term = other._term()
        if term is not None:
            return self._times(*term)
        term = self._term()
        if term is not None:
            return other._times(*term)
        # Pack each exponent tuple into one int, with a field per variable
        # wide enough for the product's total degree, so that multiplying
        # two monomials is a single integer addition.
        w = (self.degree() + other.degree()).bit_length()
        shifts = [w * i for i in range(len(self.ring))]
        weights = [1 << s for s in shifts]

        def packed(terms):
            return [(sum(map(mul, e, weights)), c) for e, c in terms.items()]

        right = packed(other.terms)
        out = {}
        get = out.get
        for k1, c1 in packed(self.terms):
            for k2, c2 in right:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        mask = (1 << w) - 1
        # normalise each sum once, not each partial sum
        return MultiPoly._trusted(self.ring, {
            tuple([k >> s & mask for s in shifts]): _norm(c) for k, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n):
        n = require_int(n, "exponent")
        if n < 0:
            raise ValueError("negative exponent")
        if n <= 1:
            return self if n else MultiPoly.const(self.ring, 1)
        if len(self.terms) == 1:
            # one term: raise its coefficient and scale its exponent
            (e, c), = self.terms.items()
            return MultiPoly._trusted(self.ring, {tuple(k * n for k in e): c ** n})
        return _power(self, n, mul)

    def __eq__(self, other):
        if type(other) is int or isinstance(other, Fraction):  # not a bool
            other = MultiPoly.const(self.ring, other)
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- evaluation and rewriting ---------------------------------------

    def evaluate(self, values):
        """Evaluate at a dict {name: Fraction}; every occurring variable
        must be bound.  Returns a Fraction."""
        vals = [Fraction(require_rational(values[name], name)) if name in values else None
                for name in self.ring]
        acc = Fraction(0)
        for e, c in self.terms.items():
            t = c
            for i, k in enumerate(e):
                if k:
                    if vals[i] is None:
                        raise ValueError("unbound variable %r" % (self.ring[i],))
                    t *= vals[i] ** k
            acc += t
        return acc

    # -- printing -------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms, key=_gl_key, reverse=True):
            c = self.terms[e]
            mono = []
            for name, k in zip(self.ring, e):
                if k == 1:
                    mono.append(name)
                elif k >= 2:
                    mono.append("%s^%d" % (name, k))
            a = abs(c)
            if not mono:
                body = str(a)
            elif a == 1:
                body = "*".join(mono)
            else:
                body = str(a) + "*" + "*".join(mono)
            pieces.append(("-" if c < 0 else "+", body))
        sign, body = pieces[0]
        text = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __repr__(self):
        return "MultiPoly(%r, %s)" % (self.ring, str(self))


# -- parsing -----------------------------------------------------------

# Bounds on one product or power in parse_poly, whose docstring has the
# model; MAX_DEGREE keeps exponents short to print and to pack in __mul__.
MAX_WORK = MAX_DEGREE = 1_000_000

# An integer, a name, an operator, or any other character but whitespace.
_TOKEN = re.compile(r"(?P<INT>\d+)|(?P<NAME>[^\W\d]\w*)|(?P<OP>[-+*^()/])|(?P<BAD>\S)")


def _size(p):
    # the largest floor(log2 |numerator|) + floor(log2 denominator) in p
    return max((abs(c.numerator).bit_length() + c.denominator.bit_length() - 2
                for c in p.terms.values()), default=0)


def _bounded(degree, work, bits, compute, what, off):
    # compute() if degree and work are in bounds and str() prints it, else
    # ParseError.  bits bounds the bit lengths of its numerators and
    # denominators (None if unknown); as 8^L < 10^L, only one of more than
    # 3L bits can pass the int->str digit limit L (0: none, before 3.10.7).
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if degree <= MAX_DEGREE and work <= MAX_WORK:
        p = compute()
        if not limit or bits is not None and bits <= 3 * limit or all(
                k.bit_length() <= 3 * limit or abs(k) < 10 ** limit
                for c in p.terms.values() for k in (c.numerator, c.denominator)):
            return p
    raise ParseError("%s too large at offset %d" % (what, off))


def _product(a, b, what, off):
    # a*b in parse_poly, priced by the rule its docstring states
    k = min(len(a.terms), len(b.terms))
    pairs = terms = len(a.terms) * len(b.terms)
    if k > 1:  # else each pair is a term
        da, db = (map(max, zip(*p.terms)) for p in (a, b))
        terms = min(pairs, prod(i + j + 1 for i, j in zip(da, db)))
    # a product of Fractions, with its gcds, costs some 32 times one of ints
    rate = 32 if any(type(c) is Fraction for p in (a, b) for c in p.terms.values()) else 1
    s1, s2 = _size(a), _size(b)
    work = (pairs + 10 * terms) * (1 + (s1 * s2 >> 18)) * rate
    # a coefficient sums at most k fractions, each of numerator and
    # denominator lengths adding to at most s1 + s2 + 4 bits
    bits = k * (s1 + s2 + 4) + k.bit_length()
    return _bounded(a.degree() + b.degree(), work, bits, lambda: a * b, what, off)


def parse_poly(text, ring):
    """Parse canonical (or hand-written) polynomial text into a MultiPoly,
    in time linear in the terms of each sum.

    Malformed text raises ParseError, its message ending "at offset i" for
    the index i of the fault; so do an integer literal past the int()
    digit limit, nesting past the recursion limit, a sum, product or power
    that str() cannot print, and a product or power of total degree past
    MAX_DEGREE or work past MAX_WORK, refused before it is computed.  Each
    product a*b, for '*' and in the binary powering of a b^n of two or more
    terms, has work (P + 10*T) * (1 + s1*s2/2^18), 32 times that if a
    Fraction takes part, for its P = |a|*|b| pairs, the T terms it can make
    (at most P and the product over the variables v of deg_v(a) + deg_v(b)
    + 1) and the sizes s1, s2 that _size gives.  A one-term c^n is one
    product, of two c^(n//2) of size (n//2)*_size(c), at the rate of ints.
    """
    ring = tuple(ring)
    names = {name: MultiPoly.var(ring, name) for name in ring}
    toks = [(m.lastgroup, m.group(), m.start()) for m in _TOKEN.finditer(text)]
    for kind, val, off in toks:
        # \w also takes numerals that are not letters, such as '²'
        if kind == "BAD" or kind == "NAME" and not (val[0].isalpha() or val[0] == "_"):
            raise ParseError("unexpected character %r at offset %d" % (val[0], off))
    toks = [("END", "", len(text))] + toks[::-1]  # the next token last
    take = toks.pop

    def nat(what):
        kind, val, off = take()
        if kind != "INT":
            raise ParseError("expected integer %s at offset %d" % (what, off))
        try:
            return int(val)
        except ValueError:  # past the digit limit: \d+ matched the rest
            raise ParseError("integer literal too long at offset %d" % off) from None

    def expr():
        out = {}
        _, op, off = take() if toks[-1][1] in ("+", "-") else (0, "+", 0)
        while True:
            _merge(out, (-term() if op == "-" else term()).terms.items())
            if toks[-1][1] not in ("+", "-"):  # off is then at the last sign
                return _bounded(0, 0, None, lambda: MultiPoly._trusted(ring, out), "sum", off)
            _, op, off = take()

    def term():
        acc = factor()
        while toks[-1][1] == "*":
            off = take()[2]
            acc = _product(acc, factor(), "product", off)
        return acc

    def factor():
        b = base()
        if toks[-1][1] != "^":
            return b
        off = take()[2]
        n = nat("exponent")
        if n and len(b.terms) > 1:
            return _power(b, n, lambda p, q: _product(p, q, "power", off))
        s = _size(b)
        h = n // 2 * s  # c^n is one product of two c^(n//2)
        return _bounded(n * b.degree(), 1 + (h * h >> 18), n * (s + 1), lambda: b ** n,
                        "power", off)

    def base():
        kind, val, off = toks[-1]
        if kind == "INT":
            num = nat("literal")
            if toks[-1][1] != "/":
                return MultiPoly.const(ring, num)
            take()
            off = toks[-1][2]
            den = nat("denominator")
            if den == 0:
                raise ParseError("zero denominator at offset %d" % off)
            return MultiPoly.const(ring, Fraction(num, den))
        take()
        if kind == "NAME":
            if val not in names:
                raise ParseError("unknown variable %r at offset %d" % (val, off))
            return names[val]
        if val == "(":
            inner = expr()
            kind, val, off = take()
            if val != ")":
                raise ParseError("expected ')' at offset %d" % off)
            return inner
        raise ParseError("unexpected token %r at offset %d" % (val or kind, off))

    try:
        p = expr()
    except RecursionError:
        raise ParseError("nesting too deep at offset %d" % toks[-1][2]) from None
    if toks[-1][0] != "END":
        raise ParseError("trailing input %r at offset %d" % toks[-1][1:])
    return p


# -- reduction --------------------------------------------------------


def _powers(f, m):
    # [1, f, f^2, ..., f^m]
    out = [MultiPoly.const(f.ring, 1), f]
    for _ in range(m - 1):
        out.append(out[-1] * f)
    return out[:m + 1]


def reduce_weierstrass(p, relations):
    """Rewrite powers y^k with k >= 2 using y^2 = rhs(x) for each
    (y_name, rhs) relation; the result has degree <= 1 in every listed y.

    rhs must not involve any of the listed y variables.
    """
    ynames = [name for name, _ in relations]
    for name, rhs in relations:
        p._check_ring(rhs)
        for other in ynames:
            if rhs.degree_in(other) > 0:
                raise ValueError("relation for %r involves reduced variable %r"
                                 % (name, other))
    for name, rhs in relations:
        yi = p.ring.index(name)
        if p.degree_in(name) <= 1:
            continue
        # sum c * x^base * rhs^half over the terms into one dict
        powers = _powers(rhs, p.degree_in(name) // 2)
        out = {}
        for e, c in p.terms.items():
            half, parity = divmod(e[yi], 2)
            base = e[:yi] + (parity,) + e[yi + 1:]
            _merge(out, ((tuple(map(add, base, f)), c * d)
                         for f, d in powers[half].terms.items()))
        p = MultiPoly._trusted(p.ring, out)
    return p


def integer_primitive(p):
    """Write p = scale * q with q having coprime integer coefficients and
    positive graded-lex leading coefficient.  Returns (scale, q)."""
    if not p:
        return Fraction(1), p
    den, nums = 1, p.terms
    if Fraction in map(type, nums.values()):
        # integer numerators over the common denominator
        den = lcm(*(c.denominator for c in nums.values()))
        nums = {e: c.numerator * (den // c.denominator) for e, c in nums.items()}
    # divided by their content signed like the leading term
    g = gcd(*nums.values())
    if p.leading()[1] < 0:
        g = -g
    if den == g == 1:
        return Fraction(1), p
    return Fraction(g, den), MultiPoly._trusted(p.ring, {e: c // g for e, c in nums.items()})
