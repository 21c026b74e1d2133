"""Tests for the explicit height-bound constants and their rounding."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import iv, mp

from ellprod import heights
from ellprod.curves import WeierstrassCurve
from ellprod.heights import (
    BoundReport,
    bezout_intersection_bounds,
    c0,
    c1_c2_curve,
    curve_c3,
    essential_minimum_image_bounds,
    galateau_lambda,
    lower_endpoint,
    upper_endpoint,
    weil_height_rational,
    zhang_special_bound,
)

E01 = WeierstrassCurve(0, 1)


def _ref(expr_fn, dps=60):
    """Evaluate a plain-mpf expression at high precision for references."""
    old = mp.dps
    mp.dps = dps
    try:
        return expr_fn()
    finally:
        mp.dps = old


# ---------------------------------------------------------------- weil height

def test_weil_height_small():
    assert weil_height_rational(0) == 0
    assert weil_height_rational(1) == 0
    assert weil_height_rational(-1) == 0
    assert weil_height_rational(Fraction(1, 2)) == weil_height_rational(2)
    # unreduced input is reduced first
    assert weil_height_rational(Fraction(4, 6)) == weil_height_rational(3)


def test_weil_height_rounds_up():
    for q in (2, 3, Fraction(-7, 5), Fraction(123456, 789)):
        h = weil_height_rational(q)
        qr = Fraction(q)
        true = _ref(lambda: mp.log(max(abs(qr.numerator), qr.denominator)))
        assert h >= true
        assert abs(h - true) < 1e-20


# ------------------------------------------------------------------------- c0

def test_c0_pinned_value():
    # c0(1,1,8) = 7/6 + 7 log 2
    v = c0(1, 1, 8)
    true = _ref(lambda: mp.mpf(7) / 6 + 7 * mp.log(2))
    assert v >= true
    assert abs(v - true) < 1e-20
    assert abs(v - 6.0186969305862838326) < 1e-15


def test_c0_degenerate():
    assert c0(0, 0, 0) == 0.5  # rational part 1/2, no log term


def test_c0_methods_agree_exactly():
    rng = random.Random(7)
    for _ in range(100):
        d1, d2, m = rng.randint(0, 10), rng.randint(0, 10), rng.randint(0, 100)
        assert heights._c0_rational(d1, d2, "double_sum") == \
            heights._c0_rational(d1, d2, "harmonic")
        assert c0(d1, d2, m, method="double_sum") == \
            c0(d1, d2, m, method="harmonic")


def test_c0_double_sum_is_prompt_at_large_degrees():
    t0 = time.perf_counter()
    v = c0(3000, 3000, 1)
    assert time.perf_counter() - t0 < 2.0
    assert v == c0(3000, 3000, 1, method="harmonic")
    assert heights._c0_rational(3000, 3000, "double_sum") == \
        heights._c0_rational(3000, 3000, "harmonic")


def test_c0_validation():
    with pytest.raises(ValueError):
        c0(-1, 0, 0)
    with pytest.raises(ValueError):
        c0(0, 0, 0, method="simpson")
    with pytest.raises(ValueError):
        c0(1, 1, 8, prec=63)


@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_c0_nondecreasing_in_m(d1, d2, m):
    assert c0(d1, d2, m + 1) >= c0(d1, d2, m)


# -------------------------------------------------------------------- c1 / c2

def test_c1_c2_pinned():
    c1, c2 = c1_c2_curve(E01)
    # A = B-height terms vanish; Delta = -432, j = 0:
    # c1 = log(432)/4 + 3.724, c2 = log(432)/4 + 4.015
    true1 = _ref(lambda: mp.log(432) / 4 + mp.mpf("3.724"))
    true2 = _ref(lambda: mp.log(432) / 4 + mp.mpf("4.015"))
    assert c1 >= true1 and c2 >= true2
    assert abs(c1 - 5.241106397061027578) < 1e-14
    assert abs(c2 - 5.532106397061027578) < 1e-14


def test_c1_c2_better_branch_pinned():
    # for (0,1) the h(1:|A|^1/2:|B|^1/3) term vanishes and the additive
    # constants win the min
    c1, c2 = c1_c2_curve(E01, use_better=True)
    assert abs(c1 - 4.709) < 1e-15
    assert abs(c2 - 2.427) < 1e-15


def test_better_branch_never_worse():
    rng = random.Random(11)
    pairs = [(0, 1), (-1, 0), (1, 1), (-4, 4)]
    while len(pairs) < 60:
        A, B = rng.randint(-100, 100), rng.randint(-100, 100)
        if 4 * A ** 3 + 27 * B ** 2 != 0:
            pairs.append((A, B))
    for A, B in pairs:
        E = WeierstrassCurve(A, B)
        g1, g2 = c1_c2_curve(E)
        b1, b2 = c1_c2_curve(E, use_better=True)
        assert b1 <= g1 and b2 <= g2, (A, B)


def test_c3_pinned():
    assert abs(curve_c3(E01) - 10.773212794122055156) < 1e-14
    assert curve_c3(E01) >= c1_c2_curve(E01)[0]
    with pytest.raises(TypeError):
        c1_c2_curve((0, 1))


# ---------------------------------------------------------------------- zhang

def test_zhang_exact_cases():
    # dyadic inputs with integer coefficients evaluate exactly
    assert zhang_special_bound(3, 0, 1) == 27.0  # 3 * 3^2 * 1
    assert zhang_special_bound(1, 0.5, 0.25) == 0.75


def test_real_inputs_may_be_mpf():
    """An mpf real, as curve_c3 returns it, is enclosed as it is."""
    c3 = curve_c3(E01)
    assert zhang_special_bound(2, 0, c3) == zhang_special_bound(2, 0, heights._exact(c3))
    assert zhang_special_bound(2, mp.mpf(0.5), 1) == zhang_special_bound(2, 0.5, 1)
    assert (bezout_intersection_bounds(3, c3, 2, mp.mpf(1), 1, 2, 5)
            == bezout_intersection_bounds(3, heights._exact(c3), 2, 1, 1, 2, 5))


def test_zhang_validation():
    with pytest.raises(ValueError):
        zhang_special_bound(0, 1, 1)
    with pytest.raises(ValueError):
        zhang_special_bound(2, -0.5, 1)


@given(st.integers(1, 6), st.integers(1, 6),
       st.fractions(0, 50, max_denominator=16),
       st.fractions(0, 50, max_denominator=16),
       st.fractions(0, 5, max_denominator=16))
@settings(max_examples=200, deadline=None)
def test_zhang_monotone(n1, n2, h2, c3v, bump):
    lo_n, hi_n = sorted((n1, n2))
    base = zhang_special_bound(lo_n, float(h2), float(c3v))
    assert zhang_special_bound(hi_n, float(h2), float(c3v)) >= base
    assert zhang_special_bound(lo_n, float(h2 + bump), float(c3v)) >= base
    assert zhang_special_bound(lo_n, float(h2), float(c3v + bump)) >= base


# --------------------------------------------------------------------- bezout

def test_bezout_pinned():
    trivial, improved = bezout_intersection_bounds(
        deg_pre=243, h2_pre=1, deg_b=3, h2_b=1, dim_b=1, n_factors=2,
        deg_phi=25)
    # 243*1 + 3*1 + c0(1,1,8)*729, then /25
    assert abs(trivial - 4633.630062397400914) < 1e-9
    assert abs(improved - 185.34520249589603656) < 1e-9
    assert abs(trivial - (246 + c0(1, 1, 8) * 729)) < 1e-12
    assert improved * 25 >= trivial  # conservative division
    assert improved <= trivial


def test_bezout_identity_division():
    trivial, improved = bezout_intersection_bounds(10, 2.5, 4, 0.5, 2, 3, 1)
    assert improved == trivial


def test_bezout_validation():
    with pytest.raises(ValueError):
        bezout_intersection_bounds(1, 1, 1, 1, 1, 2, 0)
    for n in (0, -1):  # N = -1 used to raise TypeError from c0
        with pytest.raises(ValueError, match="need at least one factor"):
            bezout_intersection_bounds(1, 1, 1, 1, 1, n, 1)
    # degrees below 1 and negative heights used to give negative "upper
    # bounds", printed by the CLI with exit code 0
    for args in [(-5, -3, 2, 0, 1, 2, 1), (0, 1, 1, 1, 1, 2, 1), (1, 1, 0, 1, 1, 2, 1)]:
        with pytest.raises(ValueError, match="deg_pre and deg_b must be >= 1"):
            bezout_intersection_bounds(*args)
    for args in [(1, -1, 1, 0, 1, 2, 1), (1, 0, 1, Fraction(-1, 3), 1, 2, 1)]:
        with pytest.raises(ValueError, match="h2_pre and h2_b must be nonnegative"):
            bezout_intersection_bounds(*args)


def test_bezout_refuses_an_overlong_multiplier_at_once():
    # 3^N - 1 in c0 past MAX_EXACT_DIGITS digits; N = 20 000 000 used to
    # take about 10 s and return a value
    start = time.perf_counter()
    with pytest.raises(ValueError, match="3\\^N - 1 would have about 9.54e\\+06 "
                                         "decimal digits"):
        bezout_intersection_bounds(1, 0, 1, 0, 1, 20_000_000, 1)
    assert time.perf_counter() - start < 1
    bezout_intersection_bounds(1, 0, 1, 0, 1, 209_590, 1)  # the largest N accepted
    with pytest.raises(ValueError):
        bezout_intersection_bounds(1, 0, 1, 0, 1, 209_591, 1)


@given(st.integers(1, 50), st.integers(1, 50), st.integers(1, 4),
       st.integers(1, 3), st.integers(1, 100))
@settings(max_examples=150, deadline=None)
def test_bezout_improved_le_trivial(deg_pre, deg_b, dim_b, n, deg_phi):
    trivial, improved = bezout_intersection_bounds(
        deg_pre, 1.25, deg_b, 0.75, dim_b, n, deg_phi)
    assert improved <= trivial


# ------------------------------------------------------------ galateau lambda

def test_galateau_lambda_values():
    assert galateau_lambda(1, 0) == 5
    assert galateau_lambda(2, 1) == 400
    assert galateau_lambda(3, 2) == 91125
    assert isinstance(galateau_lambda(2, 1), int)
    with pytest.raises(ValueError):
        galateau_lambda(0, 1)
    with pytest.raises(ValueError):
        galateau_lambda(1, -1)


@pytest.mark.parametrize("k", [10 ** 6, int("9" * 400)])
def test_galateau_lambda_refuses_overlong_results_at_once(k):
    # lambda(2, 10^6) has about 7 million digits and took 4.7 s to compute
    start = time.perf_counter()
    with pytest.raises(ValueError, match="lambda\\(N, k\\) would have about .* "
                                         "decimal digits; reports print at most 100000"):
        galateau_lambda(2, k)
    assert time.perf_counter() - start < 1


def test_curve_constants_sum_the_per_curve_constants():
    F = WeierstrassCurve(-1, 0)
    rows, sums = heights.curve_constants([E01, F, E01], use_better=True)
    assert rows[0] == (*c1_c2_curve(E01, True), curve_c3(E01, True))
    assert rows[1][2] == curve_c3(F, True) and rows[2] == rows[0]
    with heights._prec(heights.DEFAULT_PREC):
        for i in (0, 1):
            assert sums[i] == upper_endpoint(
                sum((iv.mpf(row[i]) for row in rows), iv.mpf(0)))
        assert sums[2] == upper_endpoint(iv.mpf(sums[0]) + iv.mpf(sums[1]))
    assert heights.curve_constants([]) == ([], (0, 0, 0))


# ---------------------------------------------------------- essential minimum

def test_essential_minimum_smart_pinned():
    rep = essential_minimum_image_bounds(2, 2, 1, 5, 27, mode="smart")
    strong = rep.value("smart_multiplier_strong")
    weak = rep.value("smart_multiplier_weak")
    assert abs(strong / 5.3487095143241665944e-82 - 1) < 1e-12
    assert abs(weak / 2.1394838057296666377e-83 - 1) < 1e-12
    # strong/weak = alpha^2/d_L here
    assert abs(strong / weak - 25) < 1e-15
    assert rep.value("image_degree_bound_ambient") == 648
    assert rep.value("image_degree_bound_pullback") == 648
    assert rep.value("image_degree_bound_final") == 16200
    assert rep.inputs["lambda"] == 400
    assert rep.inputs["deg_pre_bound"] == 54


def test_essential_minimum_naive_pinned():
    rep = essential_minimum_image_bounds(2, 2, 1, 5, 27, mode="naive")
    naive = rep.value("naive_multiplier")
    assert abs(naive / 8.557935222918666551e-85 - 1) < 1e-12
    assert rep.value("image_degree_bound_final") == 16200
    # smart strictly beats naive at r = 2, d_L = 1: alpha^0 vs alpha^(-2),
    # but against a log(d_L*alpha) = log(alpha) denominator, so exactly 25x
    smart = essential_minimum_image_bounds(2, 2, 1, 5, 27, mode="smart")
    assert smart.value("smart_multiplier_weak") > naive
    assert abs(smart.value("smart_multiplier_weak") / naive - 25) < 1e-15


def test_essential_minimum_r2_weak_power_vanishes():
    # 2(r-2) = 0: the weak multiplier is 1/log(d_L*|alpha|)^lambda
    rep = essential_minimum_image_bounds(3, 2, 1, 3, 4, mode="smart")
    lam = galateau_lambda(3, 2)
    true = _ref(lambda: 1 / mp.log(3) ** lam, dps=120)
    weak = rep.value("smart_multiplier_weak")
    assert weak <= true  # rounded down
    assert abs(weak / true - 1) < 1e-18


def test_essential_minimum_validation():
    with pytest.raises(ValueError):
        essential_minimum_image_bounds(1, 2, 1, 5, 27)  # N < 2
    with pytest.raises(ValueError):
        essential_minimum_image_bounds(2, 1, 1, 5, 27)  # r < 2
    with pytest.raises(ValueError):
        essential_minimum_image_bounds(2, 3, 1, 5, 27)  # r > N
    with pytest.raises(ValueError):
        essential_minimum_image_bounds(2, 2, 0, 5, 27)  # d_L < 1
    with pytest.raises(ValueError):
        essential_minimum_image_bounds(2, 2, 1, 5, 0)   # deg_C < 1
    with pytest.raises(ValueError):
        essential_minimum_image_bounds(2, 2, 2, 1, 27)  # alpha^2 < d_L
    with pytest.raises(ValueError):
        essential_minimum_image_bounds(2, 2, 1, 1, 27, mode="smart")
    with pytest.raises(ValueError):
        essential_minimum_image_bounds(2, 2, 1, 1, 27, mode="naive")
    with pytest.raises(ValueError):
        essential_minimum_image_bounds(2, 2, 1, 5, 27, mode="bogus")


def test_essential_minimum_smart_refuses_an_overlong_exact_power():
    # alpha^(2(r-1)) is taken exactly in smart mode: 10^24999 to the 4th has
    # 99 997 digits and is computed, 10^25001 to the 4th (100 005) refused
    # before anything is computed, in either case below a second
    for e, refused in ((24999, False), (25001, True)):
        start = time.perf_counter()
        if refused:
            with pytest.raises(ValueError, match=r"alpha\^\(2\(r-1\)\) would have"):
                essential_minimum_image_bounds(3, 3, 1, 10 ** e, 1, mode="smart")
        else:
            rep = essential_minimum_image_bounds(3, 3, 1, 10 ** e, 1, mode="smart")
            assert rep.value("smart_multiplier_strong") > 0
        assert time.perf_counter() - start < 1


# --------------------------------------------------------------- BoundReport

def test_bound_report_shape():
    rep = essential_minimum_image_bounds(2, 2, 1, 5, 27, mode="smart")
    with pytest.raises(KeyError):
        rep.value("no_such_label")
    d = rep.to_dict()
    assert d["name"] == "essential_minimum_image_smart"
    assert d["inputs"]["alpha"] == 5
    by_label = {row["label"]: row for row in d["entries"]}
    # multipliers are 20-digit strings tagged with their symbolic constant
    srow = by_label["smart_multiplier_strong"]
    assert isinstance(srow["value"], str) and srow["rounding"] == "down"
    assert srow["symbolic_constant"] == "c7"
    # integer degree bounds stay integers, no symbolic tag
    drow = by_label["image_degree_bound_final"]
    assert drow["value"] == 16200 and isinstance(drow["value"], int)
    assert drow["rounding"] == "exact"
    assert "symbolic_constant" not in drow
    nrep = essential_minimum_image_bounds(2, 2, 1, 5, 27, mode="naive")
    nrow = {r["label"]: r for r in nrep.to_dict()["entries"]}["naive_multiplier"]
    assert nrow["symbolic_constant"] == "c8"
    assert repr(BoundReport("x", {}, [])) == "BoundReport(x, 0 entries)"


# ----------------------------------------------------- precision and rounding

def test_precision_floor_and_restoration():
    before = iv.prec
    for call in (lambda: c0(1, 1, 8, prec=63),
                 lambda: weil_height_rational(2, prec=10),
                 lambda: c1_c2_curve(E01, prec=0),
                 lambda: zhang_special_bound(2, 1, 1, prec=32),
                 lambda: essential_minimum_image_bounds(2, 2, 1, 5, 27,
                                                        prec=63)):
        with pytest.raises(ValueError):
            call()
    c0(1, 1, 8, prec=64)
    c0(1, 1, 8, prec=256)
    assert iv.prec == before


def test_costly_input_is_refused():
    # each used to run: 10^6 bits for minutes, d1 + d2 = 10^7 past 30 s
    top = heights.MAX_PREC + 1
    for call in (lambda: c0(1, 1, 8, prec=top),
                 lambda: weil_height_rational(2, prec=top),
                 lambda: c1_c2_curve(E01, prec=top),
                 lambda: curve_c3(E01, True, prec=top),
                 lambda: zhang_special_bound(2, 1, 1, prec=top),
                 lambda: bezout_intersection_bounds(1, 1, 1, 1, 1, 2, 1, prec=top),
                 lambda: essential_minimum_image_bounds(2, 2, 1, 5, 27, prec=top)):
        with pytest.raises(ValueError, match="working precision must be 64 to 20000 bits"):
            call()
    for call in (lambda: c0(heights.MAX_C0_DEGREE, 1, 1, method="harmonic"),
                 lambda: bezout_intersection_bounds(1, 1, 1, 1, heights.MAX_C0_DEGREE, 2, 1)):
        with pytest.raises(ValueError, match="c0 takes d1 \\+ d2 up to 20000, got 20001"):
            call()
    # the bounds themselves are accepted
    assert c0(1, 1, 8, prec=heights.MAX_PREC) <= c0(1, 1, 8)  # tighter
    assert c0(heights.MAX_C0_DEGREE - 5, 5, heights.MAX_C0_DEGREE) > 0


def _c0_enclosure(d1, d2, m, prec):
    rational = heights._c0_rational(d1, d2, "harmonic")
    logcoeff = Fraction(m) - Fraction(d1 + d2, 2)
    with heights._prec(prec):
        enc = heights._ivq(rational) + heights._ivq(logcoeff) * iv.log(iv.mpf(2))
        return lower_endpoint(enc), upper_endpoint(enc)


def test_directed_rounding_cross_evaluation():
    # an upper-rounded output at working precision is never below the
    # lower endpoint of the doubled-precision enclosure of the same
    # quantity, and a lower-rounded output never exceeds its upper one
    rng = random.Random(13)
    for _ in range(200):
        d1, d2, m = rng.randint(0, 10), rng.randint(0, 10), rng.randint(0, 60)
        prec = rng.choice([64, 80, 96])
        lo2, hi2 = _c0_enclosure(d1, d2, m, 2 * prec)
        v = c0(d1, d2, m, prec=prec)
        assert lo2 <= v
        with mp.workprec(300):
            # tightness: the coarse upper bound overshoots the refined one
            # by at most a few ulps of the working precision
            assert v - hi2 <= (abs(hi2) + 1) * mp.mpf(2) ** (-prec + 4)
    for _ in range(60):
        n = rng.randint(2, 4)
        r = rng.randint(2, n)
        alpha = rng.randint(2, 9)
        d_l = rng.randint(1, alpha * alpha)
        deg_c = rng.randint(1, 30)
        prec = rng.choice([64, 80])
        lam = galateau_lambda(n, n - 1)
        down = essential_minimum_image_bounds(
            n, r, d_l, alpha, deg_c, mode="smart",
            prec=prec).value("smart_multiplier_strong")
        with heights._prec(2 * prec):
            logterm = iv.log(iv.mpf(d_l * alpha)) ** lam
            num = iv.exp((iv.log(iv.mpf(alpha ** (2 * (r - 1))))
                          - iv.log(iv.mpf(d_l))) / (n - 1))
            hi2 = upper_endpoint(num / logterm)
        assert down <= hi2


def test_large_exponents_print_as_through_nstr(monkeypatch):
    """Past NSTR_EXP_BITS the decimal grid point comes from log10|x|; on a
    band where nstr is still quick, the texts equal those of the nstr
    route, in both directions and for both signs."""
    rng = random.Random(11)
    with mp.workprec(80):
        values = [(-1) ** k * mp.mpf(rng.getrandbits(rng.randint(1, 80)))
                  * mp.mpf(2) ** (rng.choice((-1, 1)) * rng.randint(3500, 40000))
                  for k in range(200)]
    values = [x for x in values if abs(x._mpf_[2] + x._mpf_[3]) > heights.NSTR_EXP_BITS]
    assert len(values) > 150
    texts = [(heights.directed_str(x, "up"), heights.directed_str(x, "down"))
             for x in values]
    monkeypatch.setattr(heights, "NSTR_EXP_BITS", 10 ** 9)
    assert texts == [(heights.directed_str(x, "up"), heights.directed_str(x, "down"))
                     for x in values]


def test_printed_values_round_the_reported_way():
    """A printed bound is on its rounding side of the value it prints,
    within one unit in the 20th digit, and exact values print as nstr."""
    rng = random.Random(7)
    with mp.workprec(80):
        values = [mp.mpf(1) / 3, -mp.mpf(2) / 3, 10 - mp.mpf(2) ** -70,
                  1 + mp.mpf(2) ** -70, mp.mpf("1e-30") * 27]
        values += [mp.mpf(rng.getrandbits(80)) * mp.mpf(2) ** rng.randint(-150, 50)
                   for _ in range(300)]
    for x in values:
        exact = heights._exact(x)
        up = Fraction(heights.directed_str(x, "up"))
        down = Fraction(heights.directed_str(x, "down"))
        assert down <= exact <= up
        assert up - down <= abs(exact) * Fraction(2, 10 ** 19)
    with mp.workprec(80):  # exponents far past 4300 decimal digits
        values = [mp.mpf(rng.getrandbits(80)) * mp.mpf(2) ** rng.randint(-70000, 70000)
                  for _ in range(20)]
    for x in values:
        exact = heights._exact(x)
        up = Fraction(heights.directed_str(x, "up"))
        down = Fraction(heights.directed_str(x, "down"))
        assert down <= exact <= up
        assert up - down <= abs(exact) * Fraction(2, 10 ** 19)
    assert heights.directed_str(mp.mpf(27), "up") == "27.0"
    assert heights.directed_str(mp.mpf(27), "down") == "27.0"
    rep = essential_minimum_image_bounds(2, 2, 1, 5, 27, mode="smart")
    for row in rep.to_dict()["entries"]:
        if row["rounding"] == "down":
            assert Fraction(row["value"]) <= heights._exact(rep.value(row["label"]))
