"""Explicit height-inequality constants, with directed rounding.

All transcendental evaluation goes through mpmath interval arithmetic at
a caller-selectable working precision (default 80 significand bits, from
the 64-bit floor the bounds require to MAX_PREC).  Quantities on the
upper-bound side of an inequality are reported as the upper interval
endpoint ("up"); multipliers on the lower-bound side are reported as the
lower endpoint ("down"); integer degree bounds are exact.  Every report
names its rounding direction, and directed_str prints each value as
decimal text rounded the same way.  A caller-supplied real may be a
Fraction (the CLI reads decimal options so), which is enclosed exactly,
or an mpmath number, which is taken as it is.

Rational bookkeeping (harmonic sums, the c0 rational part) is done in
exact Fractions and only converted to intervals at the very end, so the
two evaluation branches of c0 share bit-identical rational parts.

The Galateau-style constants c6, c7, c8 are effectively computable but
not numerically specified; they stay symbolic with multiplier 1 and the
reports carry the computed cofactor that multiplies them.
"""

import math
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

from mpmath import iv, mp, nstr
from mpmath.libmp import to_int

from .arith import require_int, require_rational, unlimited_int_str

DEFAULT_PREC = 80

# Bounds on a caller's input, whose cost grows faster than linearly: at a
# working precision of MAX_PREC bits the slowest CLI run measured took
# 0.75 s, and c0 with d1 + d2 = MAX_C0_DEGREE (its exact rational part has
# a denominator of about 1.44 (d1 + d2) bits) 0.61 s, on a 2-core Xeon.
MAX_PREC = MAX_C0_DEGREE = 20_000

# Exact integers are printed in full, and CPython's int->str takes time
# quadratic in the length (0.2 s at 10^5 digits, 19 s at 10^6 on a 2-core
# Xeon), so galateau_lambda, essential_minimum_image_bounds and
# bezout_intersection_bounds (for 3^N - 1) refuse an exact value longer
# than this before computing it.  Just under it, whole CLI processes took
# 0.37 s for galateau-lambda at N = 2, k = 18 899, 0.20 s for bezout at
# N = 209 590 and 6.3 s for essential-minimum at N = 11 000, most of it
# raising an interval to the integer lambda.
MAX_EXACT_DIGITS = 100_000


@contextmanager
def _prec(bits):
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def _checked(prec):
    # a caller's working precision: an int of 64 to MAX_PREC bits
    if not 64 <= require_int(prec, "prec") <= MAX_PREC:
        raise ValueError("working precision must be 64 to %d bits" % MAX_PREC)
    return prec


def _refuse_long(what, base, exponent, factor=1):
    """Refuse a request whose exact value factor * base**exponent (base
    and factor nonzero) would have more than MAX_EXACT_DIGITS digits."""
    try:
        digits = exponent * math.log10(abs(base)) + math.log10(abs(factor))
    except OverflowError:  # an exponent beyond the range of a float
        digits = math.inf
    if digits > MAX_EXACT_DIGITS:
        raise ValueError("%s would have about %.3g decimal digits; reports "
                         "print at most %d" % (what, digits, MAX_EXACT_DIGITS))


def upper_endpoint(x):
    """Right endpoint of an interval as an exact mpf (no re-rounding)."""
    return mp.make_mpf(x._mpi_[1])


def lower_endpoint(x):
    """Left endpoint of an interval as an exact mpf (no re-rounding)."""
    return mp.make_mpf(x._mpi_[0])


def _ivq(q):
    """Enclosing interval of a real.  An int, float or Fraction is enclosed
    as the exact rational it stands for (a Fraction not as its nearest
    float); anything else, an mpf or an interval, goes through iv.mpf."""
    if not isinstance(q, (int, float, Fraction)):
        return iv.mpf(q)
    q = Fraction(q)
    return iv.mpf(q.numerator) / iv.mpf(q.denominator)


def _exact(x):
    """An mpf as the exact Fraction it stands for (its size grows with the
    exponent of x)."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


# Past this many bits of binary exponent, nstr raises 10 to the decimal
# exponent at a precision of four times its bit length (seconds at a
# 5600-bit exponent, minutes at 76 000), and Decimal refuses exponents
# of more than 18 digits; directed_str then finds the decimal grid point
# through log10|x| and prints it itself.
NSTR_EXP_BITS = 3500


def directed_str(x, rounding):
    """nstr(x, 20), moved one unit in the last digit when nstr's
    round-to-nearest went the wrong way for a reported bound: the text is
    >= x for rounding "up" and <= x for "down".

    The text d * 10^k is compared with x through an interval enclosure of
    |x| / 10^k, not through exact rationals, so the cost stays small for
    any exponent of x.  Beyond NSTR_EXP_BITS the enclosure comes from
    log10|x| and the text is written in nstr's scientific notation."""
    digits = 20
    sign, man, exp, bc = x._mpf_
    if not man:  # zero, inf and nan print as they are
        return nstr(x, digits)
    away = (rounding == "up") != bool(sign)  # |text| must be >= |x|
    huge = abs(exp + bc) > NSTR_EXP_BITS
    if huge:
        # log10|x| = exp * log10(2) + log10(man): only the first term
        # needs as many bits as exp has
        with _prec(exp.bit_length() + 100):
            t = exp * (iv.ln2 / iv.ln10)
            k = to_int(t._mpi_[0], "f")
            t -= k
        with _prec(bc + 200):
            lx = t + iv.log(iv.mpf(man)) / iv.log(10)  # log10|x| - k
            j = to_int(lx._mpi_[0], "f") - digits + 1  # floor, exactly
            k += j
            y = iv.mpf(10) ** (lx - j)  # |x| / 10^k, in [10^19, 10^20] up to rounding
            d = to_int(y._mpi_[0], "n")
            if d == 10 ** digits:
                d, k, y = d // 10, k + 1, y / 10
    else:
        text = nstr(x, digits)
        _, ds, k = Decimal(text).as_tuple()
        # d: exactly `digits` digits; an integer text "...6.0" carries one more
        shift = digits - len(ds)
        d = int("".join(map(str, ds)))
        d = d * 10 ** shift if shift >= 0 else d // 10 ** -shift
        k -= shift
        # |x| = d * 10^k needs 5^k | man for k >= 0 and 5^-k <= d for k < 0,
        # so at bc + 200 bits the enclosure of an exact text is a point
        with _prec(bc + 200):
            ax = iv.mpf(mp.make_mpf((0, man, exp, bc)))
            ten = iv.mpf(10) ** abs(k)
            y = ax / ten if k >= 0 else ax * ten
    if not ((d >= upper_endpoint(y)) if away else (d <= lower_endpoint(y))):
        # a step on the 20-digit grid of x's decade; the text was rounded
        # to nearest, so one unit is enough (also where the enclosure left
        # it undecided)
        if away:
            d += 1
            if d == 10 ** digits:
                d, k = 10 ** (digits - 1), k + 1
        else:
            d -= 1
            if d < 10 ** (digits - 1):
                d, k = 10 ** digits - 1, k - 1
    elif not huge:
        return text
    if huge:
        return _sci_str(sign, d, k + digits - 1)
    with mp.workprec(4 * digits + 64):
        y = mp.mpf(d) * mp.mpf(10) ** k
        return nstr(-y if sign else y, digits)


def _sci_str(sign, d, e):
    """The digits of d with the point after the first and decimal exponent
    e, as nstr writes a number in scientific notation."""
    ds = str(d).rstrip("0")
    # the exponent may be longer than the interpreter's int->str digit limit
    with unlimited_int_str():
        es = str(e)
    return "%s%s.%se%s%s" % ("-" if sign else "", ds[0], ds[1:] or "0",
                             "" if e < 0 else "+", es)


def _log_max1(q):
    """Interval for log max(|q|, 1); exact zero when |q| <= 1."""
    q = abs(Fraction(q))
    if q <= 1:
        return iv.mpf(0)
    return iv.log(_ivq(q))


def _weil_height(q):
    """Interval for h(q) = log max(|num|, den) of a Fraction; 0 if that is 1."""
    m = max(abs(q.numerator), q.denominator)
    return iv.mpf(0) if m == 1 else iv.log(iv.mpf(m))


def weil_height_rational(q, prec=DEFAULT_PREC):
    """h(q) = log max(|num|, den) of the reduced fraction, rounded up."""
    q = Fraction(require_rational(q, "q"))
    with _prec(_checked(prec)):
        return upper_endpoint(_weil_height(q))


def _harmonic(k):
    return sum((Fraction(1, i) for i in range(1, k + 1)), Fraction(0))


def _c0_rational(d1, d2, method):
    if method == "double_sum":
        # group the terms by s = i + j: 1/(2(s+1)) occurs once for each
        # i in [max(0, s-d2), min(s, d1)], so the sum takes O(d1+d2) steps
        acc = Fraction(0)
        for s in range(d1 + d2 + 1):
            acc += Fraction(min(s, d1) - max(0, s - d2) + 1, 2 * (s + 1))
        return acc
    if method == "harmonic":
        # Double-sum identity:
        #   sum_{i<=d1} sum_{j<=d2} 1/(i+j+1)
        #     = (d1+d2+2) H_{d1+d2+2} - (d1+1) H_{d1+1} - (d2+1) H_{d2+1}
        return Fraction(1, 2) * ((d1 + d2 + 2) * _harmonic(d1 + d2 + 2)
                                 - (d1 + 1) * _harmonic(d1 + 1)
                                 - (d2 + 1) * _harmonic(d2 + 1))
    raise ValueError("unknown c0 method %r" % (method,))


def c0(d1, d2, m, method="double_sum", prec=DEFAULT_PREC):
    """c0(d1, d2, m) = sum_{i<=d1} sum_{j<=d2} 1/(2(i+j+1))
    + (m - (d1+d2)/2) * log 2, rounded up.

    Both evaluation methods produce the identical exact Fraction for the
    rational part, so they agree bit for bit.
    """
    d1, d2, m = require_int(d1, "d1"), require_int(d2, "d2"), require_int(m, "m")
    prec = _checked(prec)
    if d1 < 0 or d2 < 0 or m < 0:
        raise ValueError("arguments must be nonnegative")
    if d1 + d2 > MAX_C0_DEGREE:
        raise ValueError("c0 takes d1 + d2 up to %d, got %d" % (MAX_C0_DEGREE, d1 + d2))
    rational = _c0_rational(d1, d2, method)
    logcoeff = Fraction(m) - Fraction(d1 + d2, 2)
    with _prec(prec):
        return upper_endpoint(_ivq(rational) + _ivq(logcoeff) * iv.log(iv.mpf(2)))


def c1_c2_curve(E, use_better=False, prec=DEFAULT_PREC):
    """Per-curve constants (c1, c2) comparing Weil and Faltings heights,
    both rounded up.

    General branch: c1 = (h(A)+h(B))/2 + (h(Delta)+h_inf(j))/4 + h(j)/8
    + 3.724 and c2 the same without the h(j)/8 term, with 4.015.  Better
    branch: the minimum of the sharpened expression (constants 2.919 /
    3.21) and 3*h(1:|A|^(1/2):|B|^(1/3)) + 4.709 (resp. times 3/2, with
    2.427).
    """
    from .curves import WeierstrassCurve  # not at the top: bounds never reads a curve
    if not isinstance(E, WeierstrassCurve):
        raise TypeError("expected WeierstrassCurve")
    A, B = E.A, E.B
    disc = E.discriminant()
    j = E.j_invariant()
    with _prec(_checked(prec)):
        hA = _log_max1(A)
        hB = _log_max1(B)
        hD = _log_max1(disc)  # Delta is a nonzero integer, so h = log|Delta|
        hj = _weil_height(j)
        hj_inf = _log_max1(j)
        if not use_better:
            base = (hA + hB) / 2 + (hD + hj_inf) / 4
            c1 = base + hj / 8 + iv.mpf("3.724")
            c2 = base + iv.mpf("4.015")
            return upper_endpoint(c1), upper_endpoint(c2)
        first = iv.log(iv.mpf(abs(A) + abs(B) + 3)) / 2 + (hD + hj_inf) / 4
        # h(1 : |A|^(1/2) : |B|^(1/3)) = max(0, log|A|/2, log|B|/3)
        h_abc = _iv_max(hA / 2, hB / 3)
        c1_first = first + hj / 8 + iv.mpf("2.919")
        c1_second = 3 * h_abc + iv.mpf("4.709")
        c2_first = first + iv.mpf("3.21")
        c2_second = 3 * h_abc / 2 + iv.mpf("2.427")
        c1 = min(upper_endpoint(c1_first), upper_endpoint(c1_second))
        c2 = min(upper_endpoint(c2_first), upper_endpoint(c2_second))
        return c1, c2


def _iv_max(a, b):
    # max of two intervals as an interval enclosure
    lo = max(lower_endpoint(a), lower_endpoint(b))
    hi = max(upper_endpoint(a), upper_endpoint(b))
    return iv.mpf([lo, hi])


def curve_constants(curves, use_better=False, prec=DEFAULT_PREC):
    """Each curve's (c1, c2, c3) and the sums (c1_sum, c2_sum, c3_sum) over
    the curves, all rounded up at the working precision; c3 = c1 + c2, and
    the sums accumulate in curve order."""
    def c3(c1, c2):
        return upper_endpoint(iv.mpf(c1) + iv.mpf(c2))

    with _prec(_checked(prec)):
        rows = [c1_c2_curve(E, use_better, prec) for E in curves]
        sums = [upper_endpoint(sum((iv.mpf(row[i]) for row in rows), iv.mpf(0)))
                for i in (0, 1)]
        return [(c1, c2, c3(c1, c2)) for c1, c2 in rows], (*sums, c3(*sums))


def curve_c3(E, use_better=False, prec=DEFAULT_PREC):
    """c3 = c1 + c2 at the working precision."""
    return curve_constants([E], use_better, prec)[0][0][2]


def zhang_special_bound(n_factors, h2_q, c3_product, prec=DEFAULT_PREC):
    """N * 3^(N-1) * (h2(Q) + c3), rounded up.  h2_q and c3_product are
    caller-supplied reals (no algorithm for them at this scale), enclosed
    by _ivq: a Fraction exactly, not as its nearest float."""
    n_factors = require_int(n_factors, "n_factors")
    if n_factors < 1:
        raise ValueError("need at least one factor")
    with _prec(_checked(prec)):
        h2 = _ivq(h2_q)
        if h2 < 0:
            raise ValueError("h2_q must be nonnegative")
        coeff = iv.mpf(n_factors) * iv.mpf(3) ** (n_factors - 1)
        return upper_endpoint(coeff * (h2 + _ivq(c3_product)))


def bezout_intersection_bounds(deg_pre, h2_pre, deg_b, h2_b, dim_b, n_factors,
                               deg_phi, prec=DEFAULT_PREC):
    """(trivial, improved) intersection-height bounds, both rounded up.

    trivial = deg_pre*h2_B + deg_B*h2_pre + c0(1, dim_B, 3^N - 1)*deg_pre*deg_B;
    improved = trivial / deg_phi, computed from the *reported* trivial
    value so improved*deg_phi >= trivial always holds at the reported
    precision.
    """
    deg_pre, deg_b = require_int(deg_pre, "deg_pre"), require_int(deg_b, "deg_b")
    dim_b, n_factors = require_int(dim_b, "dim_b"), require_int(n_factors, "n_factors")
    deg_phi = require_int(deg_phi, "deg_phi")
    if deg_phi < 1:
        raise ValueError("deg_phi must be >= 1")
    if deg_pre < 1 or deg_b < 1:
        raise ValueError("deg_pre and deg_b must be >= 1")
    if n_factors < 1:  # 3^N - 1 is no integer for N < 0
        raise ValueError("need at least one factor")
    _refuse_long("3^N - 1", 3, n_factors)
    with _prec(_checked(prec)):
        h2_pre, h2_b = _ivq(h2_pre), _ivq(h2_b)
        if h2_pre < 0 or h2_b < 0:
            raise ValueError("h2_pre and h2_b must be nonnegative")
        c = c0(1, dim_b, 3 ** n_factors - 1, prec=prec)
        trivial = upper_endpoint(iv.mpf(deg_pre) * h2_b + iv.mpf(deg_b) * h2_pre
                                 + iv.mpf(c) * iv.mpf(deg_pre) * iv.mpf(deg_b))
        improved = upper_endpoint(iv.mpf(trivial) / iv.mpf(deg_phi))
        return trivial, improved


def galateau_lambda(n_factors, k):
    """lambda(N, k) = (5N(k+1))^(k+1), exact integer."""
    n_factors, k = require_int(n_factors, "n_factors"), require_int(k, "k")
    if n_factors < 1 or k < 0:
        raise ValueError("need N >= 1 and k >= 0")
    _refuse_long("lambda(N, k)", 5 * n_factors * (k + 1), k + 1)
    return (5 * n_factors * (k + 1)) ** (k + 1)


class BoundReport:
    """A named bound with echoed inputs and per-value rounding direction.

    entries is a list of dicts {label, value, rounding, symbolic_constant?};
    values stay numeric here and are stringified by to_dict for reports.
    """

    def __init__(self, name, inputs, entries):
        self.name = name
        self.inputs = inputs
        self.entries = entries

    def value(self, label):
        for row in self.entries:
            if row["label"] == label:
                return row["value"]
        raise KeyError(label)

    def to_dict(self):
        rows = []
        for row in self.entries:
            out = {"label": row["label"],
                   "value": row["value"] if isinstance(row["value"], int)
                   else directed_str(row["value"], row["rounding"]),
                   "rounding": row["rounding"]}
            if row.get("symbolic_constant"):
                out["symbolic_constant"] = row["symbolic_constant"]
            rows.append(out)
        return {"name": self.name, "inputs": self.inputs, "entries": rows}

    def __repr__(self):
        return "BoundReport(%s, %d entries)" % (self.name, len(self.entries))


def essential_minimum_image_bounds(n_factors, r, d_l, alpha, deg_c,
                                   mode="smart", prec=DEFAULT_PREC):
    """Multipliers for the essential-minimum lower bounds on isogeny
    images of curves, and the associated image-degree upper bounds.

    smart mode: multiplier of the symbolic constant c7, in the strong
    form (alpha^(2(r-1))/d_L)^(1/(N-1)) / log(d_L*|alpha|)^lambda and the
    weaker alpha^(2(r-2)/(N-1)) / log(d_L*|alpha|)^lambda, both rounded
    down.  naive mode: multiplier of c8, alpha^(-2/(N-1)) *
    log(|alpha|)^(-lambda), rounded down.  lambda = lambda(N, N-1).

    Degree bounds (exact integers): 3N^2*d_L*deg_pre with
    deg_pre = N*alpha^(2(N-r))*deg_C, then 3N^3*d_L*alpha^(2(N-r))*deg_C,
    then 3N^3*alpha^(2(N+1-r))*deg_C.
    """
    n_factors, r, alpha = (require_int(n_factors, "n_factors"), require_int(r, "r"),
                           require_int(alpha, "alpha"))
    d_l, deg_c = require_int(d_l, "d_l"), require_int(deg_c, "deg_c")
    prec = _checked(prec)
    if n_factors < 2:
        raise ValueError("need N >= 2")
    if not 2 <= r <= n_factors:
        raise ValueError("need 2 <= r <= N")
    if d_l < 1 or deg_c < 1:
        raise ValueError("d_L and deg_C must be positive")
    if alpha ** 2 < d_l:
        raise ValueError("hypothesis alpha^2 >= d_L violated")
    # the final degree bound is the largest exact value
    _refuse_long("lambda(N, N-1)", 5 * n_factors ** 2, n_factors)
    _refuse_long("the image degree bound", alpha, 2 * (n_factors + 1 - r),
                 3 * n_factors ** 3 * deg_c)
    if mode == "smart":  # the strong multiplier takes alpha^(2(r-1)) exactly
        _refuse_long("alpha^(2(r-1))", alpha, 2 * (r - 1))
    lam = galateau_lambda(n_factors, n_factors - 1)
    deg_pre = n_factors * alpha ** (2 * (n_factors - r)) * deg_c
    degree_entries = [
        {"label": "image_degree_bound_ambient",
         "value": 3 * n_factors ** 2 * d_l * deg_pre, "rounding": "exact"},
        {"label": "image_degree_bound_pullback",
         "value": 3 * n_factors ** 3 * d_l * alpha ** (2 * (n_factors - r)) * deg_c,
         "rounding": "exact"},
        {"label": "image_degree_bound_final",
         "value": 3 * n_factors ** 3 * alpha ** (2 * (n_factors + 1 - r)) * deg_c,
         "rounding": "exact"},
    ]
    inputs = {"N": n_factors, "r": r, "d_L": d_l, "alpha": alpha,
              "deg_C": deg_c, "mode": mode, "lambda": lam,
              "deg_pre_bound": deg_pre}
    with _prec(prec):
        if mode == "smart":
            if d_l * abs(alpha) < 2:
                raise ValueError("smart mode needs d_L * |alpha| >= 2 "
                                 "(log factor would vanish)")
            logterm = iv.log(iv.mpf(d_l * abs(alpha))) ** lam
            # (alpha^(2(r-1)) / d_L)^(1/(N-1)) via exp(log(...)/(N-1))
            num = iv.exp((iv.log(iv.mpf(alpha ** (2 * (r - 1))))
                          - iv.log(iv.mpf(d_l))) / (n_factors - 1))
            strong = lower_endpoint(num / logterm)
            weak_pow = iv.exp(iv.log(iv.mpf(alpha * alpha))
                              * _ivq(Fraction(r - 2, n_factors - 1)))
            weak = lower_endpoint(weak_pow / logterm)
            entries = [
                {"label": "smart_multiplier_strong", "value": strong,
                 "rounding": "down", "symbolic_constant": "c7"},
                {"label": "smart_multiplier_weak", "value": weak,
                 "rounding": "down", "symbolic_constant": "c7"},
            ] + degree_entries
            return BoundReport("essential_minimum_image_smart", inputs, entries)
        if mode == "naive":
            if abs(alpha) < 2:
                raise ValueError("naive mode needs |alpha| >= 2 "
                                 "(log factor would vanish)")
            mult = lower_endpoint(
                iv.exp(-iv.log(iv.mpf(alpha * alpha)) / (n_factors - 1))
                / iv.log(iv.mpf(abs(alpha))) ** lam)
            entries = [
                {"label": "naive_multiplier", "value": mult,
                 "rounding": "down", "symbolic_constant": "c8"},
            ] + degree_entries
            return BoundReport("essential_minimum_image_naive", inputs, entries)
    raise ValueError("mode must be 'smart' or 'naive'")
