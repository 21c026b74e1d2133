"""End-to-end acceptance suite.

One test per numbered criterion; each line of `pytest -v` output is the
pass/fail verdict for that criterion.  Scalar discrepancies against the
reference display forms of the worked examples are printed, never
silently absorbed.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

from mpmath import iv, mp

from ellprod import heights
from ellprod.certificates import (
    certify_auto,
    check_corollary_curves,
    check_corollary_identity,
    check_theorem_a,
    check_theorem_main,
    check_theorem_weak,
    is_prime,
    verify_certificate,
)
from ellprod.curves import WeierstrassCurve, multiplication_maps
from ellprod.isogenies import DiagonalIsogeny
from ellprod.oracle import PrimeFieldCtx, verify_maps_vs_group_law, \
    verify_preimage_membership
from ellprod.polynomials import MultiPoly, parse_poly, reduce_weierstrass
from ellprod.preimages import generate_preimage
from ellprod.products import (
    MultiDegreeTable,
    ProductSystem,
    make_cn_curve,
    preimage_degree,
    preimage_degree_curve,
    preimage_multidegrees,
)
from reference import embed

E01 = WeierstrassCurve(0, 1)
EM10 = WeierstrassCurve(-1, 0)
C3 = make_cn_curve(E01, E01, 3)
RING = C3.system.ring
X1 = MultiPoly.var(RING, "x1")
Y2 = MultiPoly.var(RING, "y2")
X2 = MultiPoly.var(RING, "x2")

SEED = 20260815


def _proportional(a, b):
    """The scalar lam with a == lam * b, or None."""
    if not a or not b:
        return None
    ea, ca = a.leading()
    eb, cb = b.leading()
    if ea != eb:
        return None
    lam = ca / cb
    return lam if a == b * lam else None


# --------------------------------------------------------------- criterion 1

def test_criterion_1_printed_multiplication_polynomials():
    t0 = time.perf_counter()
    m2 = multiplication_maps(2)
    m3 = multiplication_maps(3)
    ring = m2.r.ring  # ("x", "A", "B"), symbolic coefficients
    expected = {
        "r2": "x^7 - A*x^5 - 7*B*x^4 - A^2*x^3 - 10*A*B*x^2 + A^3*x"
              " - 8*B^2*x + A^2*B",
        "s2": "x^9 + 6*A*x^7 + 21*B*x^6 + 21*A*B*x^4 + 12*B^2*x^3"
              " - 6*A^3*x^3 - 9*A^2*B*x^2 - A^4*x - 12*A*B^2*x"
              " - A^3*B - 8*B^3",
        "t2": "2*x^3 + 2*A*x + 2*B",
        "r3": "x^9 - 12*A*x^7 - 96*B*x^6 + 30*A^2*x^5 - 24*A*B*x^4"
              " + 36*A^3*x^3 + 48*B^2*x^3 + 48*A^2*B*x^2 + 9*A^4*x"
              " + 96*A*B^2*x + 8*A^3*B + 64*B^3",
        "s3": "x^12 + 22*A*x^10 + 220*B*x^9 - 165*A^2*x^8 - 528*A*B*x^7"
              " - 92*A^3*x^6 - 1776*B^2*x^6 + 264*A^2*B*x^5 - 185*A^4*x^4"
              " - 960*A*B^2*x^4 - 80*A^3*B*x^3 - 320*B^3*x^3 - 90*A^5*x^2"
              " - 624*A^2*B^2*x^2 - 132*A^4*B*x - 896*A*B^3*x - 3*A^6"
              " - 96*A^3*B^2 - 512*B^4",
        "t3": "3*x^4 + 6*A*x^2 + 12*B*x - A^2",
    }
    got = {"r2": m2.r, "s2": m2.s, "t2": m2.t,
           "r3": m3.r, "s3": m3.s, "t3": m3.t}
    for name, text in expected.items():
        assert got[name] == parse_poly(text, ring), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, "took %.3f s" % elapsed
    print("criterion 1: six reference polynomials reproduced exactly "
          "in %.3f s" % elapsed)


# --------------------------------------------------------------- criterion 2

# reference display brackets of the [1,5] pullback (degree 36 and 12)
_P36_COEFFS = {36: 1, 33: 4692, 30: -884544, 27: 1880320, 24: -94222080,
               21: -1437769728, 18: -3534606336, 15: -8883929088,
               12: -6868500480, 9: -1853358080, 6: -497025024,
               3: -742391808, 0: 16777216}


def test_criterion_2_example_preimage_reproduction():
    t0 = time.perf_counter()
    pre21 = generate_preimage(C3, DiagonalIsogeny([2, 1]))
    pre15 = generate_preimage(C3, DiagonalIsogeny([1, 5]))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, "took %.3f s" % elapsed

    # [2,1]: correct up-to-scalar form carries 64 on the y2 term
    eq21 = pre21.equations[0]
    scaled = 64 * Y2 * (X1 ** 3 + 1) ** 3 - (X1 ** 4 - 8 * X1) ** 3
    unscaled = Y2 * (X1 ** 3 + 1) ** 3 - (X1 ** 4 - 8 * X1) ** 3
    lam = _proportional(eq21, scaled)
    assert lam is not None and lam != 0
    assert _proportional(eq21, unscaled) is None
    print("criterion 2: [2,1] equation == %s * (64*y2*(x1^3+1)^3 - "
          "(x1^4-8*x1)^3); the display form without the 64 is NOT "
          "proportional to it (reported, not hidden)" % lam)

    # [1,5]: equation is x1^3*t5(x2)^3 - y2*s5(x2) up to scalar
    maps5 = multiplication_maps(5, E01)
    t5 = embed(maps5.t, RING, {"x": "x2"})
    s5 = embed(maps5.s, RING, {"x": "x2"})
    eq15 = pre15.equations[0]
    assert _proportional(eq15, X1 ** 3 * t5 ** 3 - Y2 * s5) is not None

    # per-bracket comparison with the display forms
    p36 = sum((c * X2 ** k for k, c in _P36_COEFFS.items()),
              0 * X2)
    p12 = (X2 ** 12 + 76 * X2 ** 9 - 48 * X2 ** 6 - 320 * X2 ** 3
           - Fraction(256, 5))
    mu_s = _proportional(s5, p36)
    mu_t = _proportional(t5, p12)
    assert mu_s == 1, "degree-36 bracket mismatch"
    assert mu_t == 5, "degree-12 bracket mismatch"
    # the bracket scalars differ, so the displays disagree at equation
    # level by mu_t^3 = 125 on the x1^3 term (and the degree-36 display
    # additionally shows that bracket cubed)
    assert _proportional(eq15, X1 ** 3 * p12 ** 3 - Y2 * p36) is None
    print("criterion 2: [1,5] brackets match the degree-36/degree-12 "
          "display polynomials with per-bracket scalars %s and %s; the "
          "assembled display differs by %s^3 = 125 on one term "
          "(reported, not hidden)" % (mu_s, mu_t, mu_t))
    print("criterion 2: exact symbolic comparisons finished in %.3f s"
          % elapsed)


# --------------------------------------------------------------- criterion 3

def test_criterion_3_degree_formulas():
    for n in range(1, 11):
        assert make_cn_curve(E01, E01, n).total_degree() == 6 * n + 9
    # both degree paths for the worked preimages
    table = C3.degrees  # {(1,0): 9, (0,1): 18}
    for alphas, slot, alpha, want in (((2, 1), 1, 2, 81),
                                      ((1, 5), 2, 5, 243)):
        phi = DiagonalIsogeny(alphas)
        general = preimage_degree(C3, phi)
        curve = preimage_degree_curve([table.get((1, 0)),
                                       table.get((0, 1))], slot, alpha)
        assert general == curve == want
        assert generate_preimage(C3, phi).total_degree() == want
    print("criterion 3: deg(C_n) = 6n+9 for n = 1..10; preimage degrees "
          "81 and 243 agree along both formulas")


# --------------------------------------------------------------- criterion 4

def _random_table(rng, dim=None, max_n=4, max_entry=30):
    n = rng.randint(2, max_n)
    d = dim if dim is not None else rng.randint(1, n)
    entries = {}
    for combo in combinations(range(n), d):
        I = tuple(1 if i in combo else 0 for i in range(n))
        entries[I] = rng.randint(1, max_entry)
    return MultiDegreeTable(d, entries)


def _next_prime(n):
    n += 1
    while not is_prime(n):
        n += 1
    return n


def test_criterion_4_certificates_and_reverification():
    assert check_corollary_curves(C3, DiagonalIsogeny([2, 1])).certified()
    assert check_corollary_curves(C3, DiagonalIsogeny([1, 5])).certified()
    cert_a = check_theorem_a(C3, [167, 167])
    assert cert_a.certified()
    assert all(row["threshold"] == 162 for row in cert_a.witness)

    phi33 = DiagonalIsogeny([3, 3])
    assert not check_corollary_curves(C3, phi33).certified()
    assert not check_theorem_main(C3, phi33).certified()
    assert not check_theorem_weak(C3, phi33).certified()
    assert not check_theorem_a(C3, [3, 3]).certified()
    assert not check_corollary_identity(C3, n=3).certified()
    assert not check_corollary_identity(C3, p=3).certified()
    assert not certify_auto(C3, phi33).certified()

    # 1000 randomized certified instances re-verify from their own payload
    rng = random.Random(SEED)
    alpha_pool = [1, -1, 2, 3, 5, 7, 11, 13, -5, 97, 101]
    verified = 0
    criteria_seen = set()
    attempts = 0
    while verified < 1000:
        attempts += 1
        assert attempts < 40000, "certified instances too rare"
        kind = rng.randrange(4)
        if kind == 0:
            table = _random_table(rng, dim=1)
            thr = (table.total_degree() * table.n_factors
                   * 3 ** (table.n_factors - 1))
            primes = [_next_prime(thr + rng.randint(0, 400))
                      * rng.choice([1, -1]) for _ in range(table.n_factors)]
            cert = check_theorem_a(table, primes)
        elif kind == 1:
            table = _random_table(rng)
            cert = check_corollary_identity(table, n=rng.choice(
                [2, 3, 5, 7, 11, 13]))
        elif kind == 2:
            table = _random_table(rng)
            cert = check_corollary_identity(table, p=rng.choice(
                [2, 3, 5, 7, 11, 13]))
        else:
            table = _random_table(rng)
            phi = DiagonalIsogeny([rng.choice(alpha_pool)
                                   for _ in range(table.n_factors)])
            cert = certify_auto(table, phi)
        if not cert.certified():
            continue
        ok, problems = verify_certificate(cert)
        assert ok, problems
        ok, problems = verify_certificate(cert.to_dict())
        assert ok, problems
        criteria_seen.add(cert.criterion)
        verified += 1
    assert len(criteria_seen) >= 3, criteria_seen
    print("criterion 4: worked certificates as expected; 1000 randomized "
          "certified instances re-verified (criteria seen: %s)"
          % sorted(criteria_seen))


# --------------------------------------------------------------- criterion 5

def test_criterion_5_criterion_strength_invariants():
    rng = random.Random(SEED + 1)
    weak_pool = [1, -1, 2, 3, 5, 7, 11, 97, 101, 997, 1009, -997]
    weak_hits = 0
    for _ in range(1000):
        table = _random_table(rng)
        phi = DiagonalIsogeny([rng.choice(weak_pool)
                               for _ in range(table.n_factors)])
        if check_theorem_weak(table, phi).certified():
            weak_hits += 1
            assert check_theorem_main(table, phi).certified(), \
                (table, phi)
    assert weak_hits >= 50

    a_hits = 0
    small = [2, 3, 5, 7, 11, 13, 17]
    for _ in range(1000):
        table = _random_table(rng, dim=1, max_n=5, max_entry=40)
        n = table.n_factors
        if rng.random() < 0.5:
            thr = table.total_degree() * n * 3 ** (n - 1)
            primes = [_next_prime(thr + rng.randint(0, 300))
                      * rng.choice([1, -1]) for _ in range(n)]
        else:
            primes = [rng.choice(small) * rng.choice([1, -1])
                      for _ in range(n)]
        if check_theorem_a(table, primes).certified():
            a_hits += 1
            assert check_corollary_curves(
                table, DiagonalIsogeny(primes)).certified(), (table, primes)
    assert a_hits >= 100
    print("criterion 5: zero violations (TheoremWeak => TheoremMain on "
          "%d certified of 1000; TheoremA => CorollaryCurves on %d "
          "certified of 1000)" % (weak_hits, a_hits))


# --------------------------------------------------------------- criterion 6

def test_criterion_6_finite_field_oracle():
    t0 = time.perf_counter()
    curves = [E01, EM10]
    checked_maps = 0
    for E in curves:
        system = ProductSystem([E, E])
        for p in (5, 7, 11, 13):
            if E.discriminant() % p == 0:
                continue  # bad reduction
            ctx = PrimeFieldCtx(p, system)
            for alpha in (2, 3, 5, 7):
                if alpha % p == 0:
                    continue  # inseparable multiplier mod p
                rep = verify_maps_vs_group_law(ctx, 0, alpha)
                assert rep["ok"], rep
                assert rep["exceptional_equals_kernel"]
                checked_maps += 1
    assert checked_maps >= 28

    memberships = 0
    for alphas in ([2, 1], [1, 5]):
        pre = generate_preimage(C3, DiagonalIsogeny(alphas))
        for p in (7, 11, 13):
            rep = verify_preimage_membership(PrimeFieldCtx(p, C3.system), pre)
            assert rep["mode"] == "exhaustive"
            assert rep["ok"], rep
            memberships += 1
    assert memberships == 6
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, "took %.1f s" % elapsed
    print("criterion 6: %d map comparisons and %d exhaustive membership "
          "scans passed in %.1f s" % (checked_maps, memberships, elapsed))


# --------------------------------------------------------------- criterion 7

def test_criterion_7_constants():
    with mp.workprec(200):
        ref = mp.mpf(7) / 6 + 7 * mp.log(2)
        v_double = heights.c0(1, 1, 8, method="double_sum")
        assert abs(v_double - ref) < 1e-12
        v_harm = heights.c0(1, 1, 8, method="harmonic")
        ulp = mp.mpf(2) ** (mp.mag(v_double) - heights.DEFAULT_PREC)
        assert abs(v_harm - v_double) <= ulp

        c1, c2 = heights.c1_c2_curve(E01)
        assert abs(c1 - (mp.log(432) / 4 + mp.mpf("3.724"))) < 1e-9
        assert abs(c2 - (mp.log(432) / 4 + mp.mpf("4.015"))) < 1e-9

    assert heights.galateau_lambda(2, 1) == 400

    trivial, improved = heights.bezout_intersection_bounds(
        243, 1, 3, 1, 1, 2, 25)
    with heights._prec(heights.DEFAULT_PREC):
        expect = heights.upper_endpoint(iv.mpf(trivial) / iv.mpf(25))
    assert improved == expect  # exactly trivial/deg_phi at working precision
    t1, i1 = heights.bezout_intersection_bounds(10, 0.5, 4, 0.25, 1, 2, 1)
    assert i1 == t1
    print("criterion 7: c0(1,1,8), c1/c2(0,1), lambda(2,1) = 400 and the "
          "improved intersection bound all at stated tolerances")


# --------------------------------------------------------------- criterion 8

def _random_poly(rng, ring, max_terms=4, max_exp=3, denom=4):
    p = 0 * MultiPoly.var(ring, ring[0])
    for _ in range(rng.randint(0, max_terms)):
        term = MultiPoly.const(ring, Fraction(rng.randint(-9, 9),
                                              rng.randint(1, denom)))
        for name in ring:
            term *= MultiPoly.var(ring, name) ** rng.randint(0, max_exp)
        p += term
    return p


def test_criterion_8_property_suites():
    cases = 10000

    # (1) ring laws
    rng = random.Random(SEED + 2)
    ring = ("x", "y")
    one = MultiPoly.const(ring, 1)
    for _ in range(cases):
        a = _random_poly(rng, ring)
        b = _random_poly(rng, ring)
        c = _random_poly(rng, ring)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        assert not a - a
    print("criterion 8: ring laws hold on %d cases" % cases)

    # (2) round-trip parsing
    rng = random.Random(SEED + 3)
    rings = [("x",), ("x", "y"), ("x", "y", "z"), ("x1", "y1", "x2", "y2")]
    for _ in range(cases):
        ring = rng.choice(rings)
        p = _random_poly(rng, ring, max_terms=5, denom=7)
        assert parse_poly(str(p), ring) == p
    print("criterion 8: parse/str round-trip holds on %d cases" % cases)

    # (3) reduce_weierstrass idempotence and evaluation preservation
    rng = random.Random(SEED + 4)
    ring4 = ("x1", "y1", "x2", "y2")
    for _ in range(cases):
        point = {}
        relations = []
        for j in (1, 2):
            xv = Fraction(rng.randint(-5, 5), rng.randint(1, 2))
            yv = Fraction(rng.randint(-5, 5), rng.randint(1, 2))
            Av = rng.randint(-4, 4)
            Bv = yv * yv - xv ** 3 - Av * xv  # place the point on the curve
            xj = MultiPoly.var(ring4, "x%d" % j)
            relations.append(("y%d" % j, xj ** 3 + Av * xj
                              + MultiPoly.const(ring4, Bv)))
            point["x%d" % j] = xv
            point["y%d" % j] = yv
        p = _random_poly(rng, ring4, max_terms=4, max_exp=3, denom=2)
        r = reduce_weierstrass(p, relations)
        assert r.degree_in("y1") <= 1 and r.degree_in("y2") <= 1
        assert reduce_weierstrass(r, relations) == r
        assert not reduce_weierstrass(p - r, relations)
        assert p.evaluate(point) == r.evaluate(point)
    print("criterion 8: reduction idempotence and on-curve evaluation "
          "preservation hold on %d cases" % cases)

    # (4) multidegree functoriality
    rng = random.Random(SEED + 5)
    pool = [1, -1, 2, 3, 5, -4, 7]
    for _ in range(cases):
        table = _random_table(rng)
        n = table.n_factors
        phi = DiagonalIsogeny([rng.choice(pool) for _ in range(n)])
        psi = DiagonalIsogeny([rng.choice(pool) for _ in range(n)])
        step = preimage_multidegrees(preimage_multidegrees(table, phi), psi)
        assert step == preimage_multidegrees(table, phi.compose(psi))
        assert preimage_multidegrees(
            table, DiagonalIsogeny([1] * n)) == table
        assert preimage_degree(table, phi) == \
            preimage_multidegrees(table, phi).total_degree()
        if table.dim == 1:
            j = rng.randint(1, n)
            alphas = [1] * n
            alphas[j - 1] = rng.choice([2, 3, 5, -4])
            d = [table.get(tuple(1 if i == k else 0 for i in range(n)))
                 for k in range(n)]
            assert preimage_degree(table, DiagonalIsogeny(alphas)) == \
                preimage_degree_curve(d, j, alphas[j - 1])
    print("criterion 8: multidegree functoriality holds on %d cases" % cases)

    # (5) directed-rounding monotonicity
    rng = random.Random(SEED + 6)
    for i in range(cases):
        d1, d2, m = rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 40)
        prec = rng.choice([64, 80])
        v = heights.c0(d1, d2, m, method="harmonic", prec=prec)
        rational = heights._c0_rational(d1, d2, "harmonic")
        with heights._prec(2 * prec):
            enc = (heights._ivq(rational)
                   + heights._ivq(m - Fraction(d1 + d2, 2))
                   * iv.log(iv.mpf(2)))
            lo2 = heights.lower_endpoint(enc)
            hi2 = heights.upper_endpoint(enc)
        assert lo2 <= v  # upper-bound output never rounds down
        with mp.workprec(300):
            assert v - hi2 <= (abs(hi2) + 1) * mp.mpf(2) ** (-prec + 4)
        assert heights.c0(d1, d2, m + 1, method="harmonic", prec=prec) >= v
        if i % 20 == 0:
            trivial, improved = heights.bezout_intersection_bounds(
                rng.randint(1, 40), 0.5, rng.randint(1, 40), 0.75,
                rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 30))
            assert improved <= trivial
        if i % 100 == 0:
            assert heights.c0(d1, d2, m, method="double_sum", prec=prec) == v
    print("criterion 8: directed rounding and bound monotonicity hold on "
          "%d cases" % cases)
