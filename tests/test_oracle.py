"""Tests for the finite-field brute-force oracle."""

import random
import time
from fractions import Fraction
from itertools import product as iter_product

import pytest

from ellprod import oracle
from ellprod.curves import WeierstrassCurve, multiplication_maps
from ellprod.isogenies import DiagonalIsogeny
from ellprod.oracle import (
    BadReductionError,
    PrimeFieldCtx,
    add_points_mod,
    enumerate_points,
    poly_mod,
    scalar_mul_mod,
    verify_maps_vs_group_law,
    verify_preimage_membership,
)
from ellprod.polynomials import parse_poly
from ellprod.preimages import PreimagePresentation, generate_preimage
from ellprod.products import (
    MultiDegreeTable,
    ProductSystem,
    SubvarietyPresentation,
    make_cn_curve,
)
from reference import eval_mod

E01 = WeierstrassCurve(0, 1)
C3 = make_cn_curve(E01, E01, 3)
SYS = C3.system


def test_scale_policy_constants_frozen():
    assert oracle.EXHAUSTIVE_MAX_P == 31
    assert oracle.SAMPLE_SEED == 20260815
    assert oracle.SAMPLE_COUNT == 2000


def test_ctx_validation():
    with pytest.raises(BadReductionError):
        PrimeFieldCtx(6, SYS)
    with pytest.raises(BadReductionError):
        PrimeFieldCtx(2, SYS)
    with pytest.raises(BadReductionError):
        PrimeFieldCtx(3, SYS)
    with pytest.raises(BadReductionError):
        PrimeFieldCtx(-7, SYS)  # |-7| is prime, but a field needs p >= 2
    # disc(y^2 = x^3 + 5) = -16*27*25 is divisible by 5
    bad = ProductSystem([WeierstrassCurve(0, 5)])
    with pytest.raises(BadReductionError):
        PrimeFieldCtx(5, bad)
    ctx = PrimeFieldCtx(7, SYS)
    assert ctx.p == 7 and ctx.curves_mod == [(0, 1), (0, 1)]
    with pytest.raises(BadReductionError):
        ctx.require_separable([3, 7])
    ctx.require_separable([2, 5])


@pytest.mark.parametrize("call", [
    lambda: PrimeFieldCtx(17.9, SYS),  # used to be p = 17
    lambda: PrimeFieldCtx(True, SYS),
    lambda: verify_maps_vs_group_law(PrimeFieldCtx(7, SYS), 0, 2.7),  # checked 2
    lambda: PrimeFieldCtx(7, SYS).image_table(0, 2.5),
    lambda: PrimeFieldCtx(7, SYS).image_table(0, False),
], ids=["p-float", "p-bool", "maps-alpha", "table-alpha", "table-alpha-bool"])
def test_oracle_reads_integers_exactly(call):
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("index, error", [(-1, ValueError), (2, ValueError), (True, TypeError)])
def test_oracle_refuses_a_bad_factor_index(index, error):
    # -1 used to check the last factor and report "curve_index": -1, 2 to
    # raise a bare IndexError, and True to be taken as 1
    ctx = PrimeFieldCtx(7, SYS)
    for call in (lambda: verify_maps_vs_group_law(ctx, index, 2),
                 lambda: ctx.affine_points(index), lambda: ctx.image_table(index, 2),
                 lambda: enumerate_points(ctx, index)):
        with pytest.raises(error, match=None if error is TypeError else "no factor"):
            call()
    assert ctx._points == {} and ctx._images == {}


def test_enumerate_points():
    ctx = PrimeFieldCtx(7, SYS)
    pts = enumerate_points(ctx, 0)
    assert pts[0] is None
    assert len(pts) == 12  # y^2 = x^3 + 1 has 12 points over F_7
    for P in pts[1:]:
        x, y = P
        assert (y * y - x ** 3 - 1) % 7 == 0
    # Hasse window for a couple of larger primes
    for p in (11, 13, 37):
        n = len(enumerate_points(PrimeFieldCtx(p, SYS), 1))
        assert (n - (p + 1)) ** 2 <= 4 * p


def test_group_law_mod_matches_rational():
    # 6-torsion arithmetic on y^2 = x^3 + 1 reduces faithfully mod 7
    p, A = 7, 0
    assert add_points_mod(p, A, (2, 3), (0, 1)) == (6, 0)  # (-1,0) mod 7
    assert add_points_mod(p, A, (2, 3), None) == (2, 3)
    assert add_points_mod(p, A, (2, 3), (2, 4)) is None  # inverse pair
    assert scalar_mul_mod(p, A, 0, (2, 3)) is None
    assert scalar_mul_mod(p, A, 6, (2, 3)) is None  # order 6
    assert scalar_mul_mod(p, A, 2, (2, 3)) == (0, 1)
    assert scalar_mul_mod(p, A, -1, (2, 3)) == (2, 4)
    assert scalar_mul_mod(p, A, -2, (2, 3)) == (0, 6)


@pytest.mark.parametrize("p", [13, 101])
def test_scalar_mul_mod_matches_repeated_addition(p):
    A, B = 2, 3
    points = [(x, y) for x in range(p) for y in range(p)
              if (y * y - x ** 3 - A * x - B) % p == 0]
    assert points
    for P in points:
        for step in (P, (P[0], -P[1] % p)):
            sign = 1 if step is P else -1
            expected = None
            for n in range(41):
                assert scalar_mul_mod(p, A, sign * n, P) == expected
                expected = add_points_mod(p, A, expected, step)


def test_group_axioms_sampled():
    ctx = PrimeFieldCtx(11, SYS)
    pts = enumerate_points(ctx, 0)
    rng = random.Random(3)
    for _ in range(150):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        assert add_points_mod(11, 0, P, Q) == add_points_mod(11, 0, Q, P)
        assert add_points_mod(11, 0, add_points_mod(11, 0, P, Q), R) == \
            add_points_mod(11, 0, P, add_points_mod(11, 0, Q, R))
        assert add_points_mod(11, 0, P, Q) is None or \
            add_points_mod(11, 0, P, Q) in pts


def test_poly_mod_and_eval():
    ring = ("x", "y")
    p = parse_poly("x^2*y - 3*x + 5", ring) * Fraction(1, 2)
    reduced = poly_mod(p, 7, ring)
    # 1/2 = 4 mod 7
    assert sorted(reduced) == sorted([(4, (2, 1)), (4 * -3 % 7, (1, 0)),
                                      (4 * 5 % 7, (0, 0))])
    # evaluate both ways at (x, y) = (3, 2)
    want = p.evaluate({"x": 3, "y": 2}) % 7  # Fraction % int -> Fraction
    assert eval_mod(reduced, (3, 2), 7) == want
    with pytest.raises(BadReductionError):
        poly_mod(parse_poly("1", ring) * Fraction(1, 7), 7, ring)


def test_maps_vs_group_law():
    for p in (5, 7, 13):
        ctx = PrimeFieldCtx(p, SYS)
        for alpha in (2, 3, 5):
            if alpha % p == 0:
                continue
            rep = verify_maps_vs_group_law(ctx, 0, alpha)
            assert rep["ok"], rep
            assert rep["exceptional_equals_kernel"]
            assert rep["checked"] > 0
            assert rep["mismatches"] == []
            assert rep["p"] == p and rep["alpha"] == alpha
    with pytest.raises(BadReductionError):
        verify_maps_vs_group_law(PrimeFieldCtx(5, SYS), 0, 5)


def test_maps_check_refuses_alpha_zero_before_separability():
    with pytest.raises(ValueError, match="nonzero") as info:
        verify_maps_vs_group_law(PrimeFieldCtx(13, SYS), 0, 0)
    assert not isinstance(info.value, BadReductionError)


def test_maps_vs_group_law_large_alpha():
    for p in (13, 101):
        ctx = PrimeFieldCtx(p, SYS)
        for alpha in (8, 9, 11):
            rep = verify_maps_vs_group_law(ctx, 0, alpha)
            assert rep["ok"], rep
            assert rep["checked"] > 0


def test_maps_exceptional_counts():
    # over F_7 the affine kernel of [2] on y^2 = x^3 + 1 is the full
    # 2-torsion (x^3 + 1 splits), so 3 points are exceptional of the 11
    rep = verify_maps_vs_group_law(PrimeFieldCtx(7, SYS), 0, 2)
    assert sorted(rep["exceptional"]) == [(3, 0), (5, 0), (6, 0)]
    assert rep["checked"] == 8


def test_membership_exhaustive():
    pre = generate_preimage(C3, DiagonalIsogeny([2, 1]))
    rep = verify_preimage_membership(PrimeFieldCtx(7, SYS), pre)
    assert rep["ok"]
    assert rep["mode"] == "exhaustive"
    assert rep["iterated"] == 121  # 11 affine points on each factor
    assert rep["excluded"] == 33   # x1 in {3,5,6} kills t_2
    assert rep["equations_vanish"] == rep["image_on_subvariety"]
    assert rep["mismatches"] == []


def test_membership_sampled_large_prime():
    pre = generate_preimage(C3, DiagonalIsogeny([2, 1]))
    rep = verify_preimage_membership(PrimeFieldCtx(37, SYS), pre)
    assert rep["ok"]
    assert rep["mode"] == "sampled"
    assert rep["iterated"] <= oracle.SAMPLE_COUNT
    # fixed-seed sampling is reproducible
    rep2 = verify_preimage_membership(PrimeFieldCtx(37, SYS), pre)
    assert rep == rep2


def test_membership_sampled_three_factors():
    # three factors force sampling even at desk-scale primes
    sys3 = ProductSystem([E01, E01, E01])
    table = MultiDegreeTable(1, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    eqs = [parse_poly("y1 - y2", sys3.ring), parse_poly("x2 - x3", sys3.ring)]
    V = SubvarietyPresentation(sys3, eqs, 1, table, False)
    pre = generate_preimage(V, DiagonalIsogeny([1, 1, 1]))
    rep = verify_preimage_membership(PrimeFieldCtx(7, sys3), pre)
    assert rep["mode"] == "sampled"
    assert rep["iterated"] == min(oracle.SAMPLE_COUNT, 11 ** 3)
    assert rep["ok"]


def test_membership_system_mismatch():
    pre = generate_preimage(C3, DiagonalIsogeny([2, 1]))
    other = ProductSystem([WeierstrassCurve(-1, 0), WeierstrassCurve(-1, 0)])
    with pytest.raises(ValueError):
        verify_preimage_membership(PrimeFieldCtx(7, other), pre)


def test_ctx_rejects_primes_above_max_p():
    # 2^17 - 1 is prime and the largest prime the oracle accepts
    assert oracle.MAX_P == 1 << 17
    assert PrimeFieldCtx(oracle.MAX_P - 1, SYS).p == oracle.MAX_P - 1
    t0 = time.perf_counter()
    with pytest.raises(BadReductionError):
        PrimeFieldCtx(10 ** 18 + 3, SYS)
    assert time.perf_counter() - t0 < 1.0


# -- differential tests against a plain per-tuple reference -----------------


def reference_maps(ctx, curve_index, alpha, maps=None):
    """verify_maps_vs_group_law as a plain loop: eval_mod per formula and
    scalar_mul_mod per point, dividing as the formulas do; maps are those
    of alpha on the curve unless given."""
    alpha = int(alpha)
    ctx.require_separable([alpha])
    p = ctx.p
    A, _ = ctx.curves_mod[curve_index]
    if maps is None:
        maps = multiplication_maps(alpha, ctx.system.curves[curve_index])
    # the x-map n/(u*t), in the parts n and u (the library divides r by t^2)
    n, u, s, t = (poly_mod(f, p, ("x",)) for f in (
        maps.product(1, 0, 0, 0), maps.product(0, 0, 1, 0), maps.s, maps.t))
    even = alpha % 2 == 0
    mismatches, exceptional, kernel = [], [], []
    checked = 0
    for P in enumerate_points(ctx, curve_index)[1:]:
        x, y = P
        expected = scalar_mul_mod(p, A, alpha, P)
        if expected is None:
            kernel.append(P)
        tv, uv = eval_mod(t, (x,), p), eval_mod(u, (x,), p)
        if not (uv != 0 and y != 0 if even else tv != 0):
            exceptional.append(P)
            continue
        checked += 1
        xv = eval_mod(n, (x,), p) * pow(uv * tv % p, -1, p) % p
        if even:
            got = (xv, eval_mod(s, (x,), p) * pow(uv * tv * tv % p * y % p, -1, p) % p)
        else:
            got = (xv, eval_mod(s, (x,), p) * y % p * pow(tv * tv * tv % p, -1, p) % p)
        if got != expected:
            mismatches.append({"point": P, "formula": got, "group_law": expected})
    same = sorted(exceptional) == sorted(kernel)
    return {"p": p, "curve_index": curve_index, "alpha": alpha,
            "checked": checked, "exceptional": exceptional,
            "exceptional_equals_kernel": same, "mismatches": mismatches,
            "ok": not mismatches and same}


def reference_membership(ctx, pre):
    """verify_preimage_membership as a plain loop over point tuples:
    eval_mod per equation and scalar_mul_mod per factor and tuple."""
    p = ctx.p
    alphas = pre.isogeny.alphas
    ctx.require_separable(alphas)
    ring = pre.system.ring
    n = pre.system.n_factors
    eqs = [poly_mod(eq, p, ring) for eq in pre.equations]
    base_eqs = [poly_mod(eq, p, ring) for eq in pre.base.equations]
    excl = [(row["j"], poly_mod(row["t"], p, ("x%d" % row["j"],)))
            for row in pre.excluded_locus]
    affine = [enumerate_points(ctx, idx)[1:] for idx in range(n)]
    total = 1
    for pts in affine:
        total *= len(pts)
    exhaustive = p <= oracle.EXHAUSTIVE_MAX_P and n == 2
    if exhaustive:
        tuples = iter_product(*affine)
    else:
        rng = random.Random(oracle.SAMPLE_SEED)
        tuples = [tuple(rng.choice(pts) for pts in affine)
                  for _ in range(min(oracle.SAMPLE_COUNT, total))]
    iterated = excluded = members = vanishing = 0
    mismatches = []
    for tup in tuples:
        iterated += 1
        if any(eval_mod(t, (tup[j - 1][0],), p) == 0 for j, t in excl):
            excluded += 1
            continue
        values = [v for P in tup for v in P]
        lhs = all(eval_mod(eq, values, p) == 0 for eq in eqs)
        images = [scalar_mul_mod(p, ctx.curves_mod[idx][0], alphas[idx], P)
                  for idx, P in enumerate(tup)]
        if None in images:
            mismatches.append({"tuple": tup, "problem": "image at infinity"})
            continue
        image_values = [v for Q in images for v in Q]
        rhs = all(eval_mod(eq, image_values, p) == 0 for eq in base_eqs)
        vanishing += lhs
        members += rhs
        if lhs != rhs:
            mismatches.append({"tuple": tup, "equations_vanish": lhs,
                               "image_on_subvariety": rhs})
    return {"p": p, "mode": "exhaustive" if exhaustive else "sampled",
            "affine_counts": [len(pts) for pts in affine],
            "iterated": iterated, "excluded": excluded,
            "equations_vanish": vanishing, "image_on_subvariety": members,
            "mismatches": mismatches, "ok": not mismatches}


def _good_primes(system, alphas, candidates):
    out = []
    for p in candidates:
        try:
            PrimeFieldCtx(p, system).require_separable(alphas)
        except BadReductionError:
            continue
        out.append(p)
    return out


def _assert_scans_match(pre, primes):
    for p in primes:
        ctx = PrimeFieldCtx(p, pre.system)
        for idx, alpha in enumerate(pre.isogeny.alphas):
            assert verify_maps_vs_group_law(ctx, idx, alpha) == \
                reference_maps(PrimeFieldCtx(p, pre.system), idx, alpha)
        got = verify_preimage_membership(ctx, pre)
        assert got == reference_membership(PrimeFieldCtx(p, pre.system), pre)


def test_scan_matches_reference_on_c3():
    primes = [13, 17, 19, 23, 29, 31, 101, 1009]
    # -4 and -6 have a t~ of positive degree (t~ is constant for -2)
    for alphas in ([2, 1], [1, -3], [3, 2], [-2, 2], [-4, 1], [1, -6]):
        pre = generate_preimage(C3, DiagonalIsogeny(alphas))
        _assert_scans_match(pre, _good_primes(C3.system, alphas, primes))


def test_scan_matches_reference_on_random_pairs():
    rng = random.Random(4)
    pairs = 0
    while pairs < 3:
        E1, E2 = (WeierstrassCurve(rng.randint(-9, 9), rng.randint(-9, 9))
                  for _ in range(2))
        if E1.discriminant() == 0 or E2.discriminant() == 0:
            continue
        pairs += 1
        V = make_cn_curve(E1, E2, rng.choice((1, 2)))
        alphas = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(2)]
        pre = generate_preimage(V, DiagonalIsogeny(alphas))
        exhaustive = _good_primes(V.system, alphas, range(13, 32))
        sampled = (_good_primes(V.system, alphas, range(101, 150))[:1]
                   + _good_primes(V.system, alphas, range(1009, 1110))[:1])
        _assert_scans_match(pre, [exhaustive[0], exhaustive[-1]] + sampled)


def _three_factor_preimage():
    sys3 = ProductSystem([E01, WeierstrassCurve(-1, 0), E01])
    table = MultiDegreeTable(1, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    eqs = [parse_poly("y1 - y3", sys3.ring), parse_poly("x2 - x3", sys3.ring)]
    V = SubvarietyPresentation(sys3, eqs, 1, table, False)
    return generate_preimage(V, DiagonalIsogeny([2, 1, -1]))


def test_scan_matches_reference_on_three_factors():
    pre = _three_factor_preimage()
    _assert_scans_match(pre, [7, 13, 101])
    rep = verify_preimage_membership(PrimeFieldCtx(101, pre.system), pre)
    assert rep["mode"] == "sampled" and rep["iterated"] == oracle.SAMPLE_COUNT


def test_scan_matches_reference_on_wrong_presentations():
    pre = generate_preimage(C3, DiagonalIsogeny([2, 1]))
    other = generate_preimage(C3, DiagonalIsogeny([1, 2]))
    # the equations of another isogeny, and the right ones with the
    # excluded locus dropped (kernel tuples then map to infinity)
    wrong_eqs = PreimagePresentation(pre.base, pre.isogeny, other.equations,
                                     pre.excluded_locus, pre.degrees)
    no_locus = PreimagePresentation(pre.base, pre.isogeny, pre.equations,
                                    [], pre.degrees)
    for bad in (wrong_eqs, no_locus):
        for p in (7, 17, 101):
            got = verify_preimage_membership(PrimeFieldCtx(p, SYS), bad)
            assert got == reference_membership(PrimeFieldCtx(p, SYS), bad)
            assert got["mismatches"] and not got["ok"]
    problems = {m.get("problem") for m in verify_preimage_membership(
        PrimeFieldCtx(13, SYS), no_locus)["mismatches"]}
    assert problems == {"image at infinity"}


def test_scan_matches_reference_with_powers_of_y():
    # equations not reduced by the Weierstrass equations, so the tables
    # need powers of y_j above the first: a base curve x1^3 = x2^3 written
    # with y2^2, and its preimage times y1^2*y2^3 + y2^2
    ring = SYS.ring
    V = SubvarietyPresentation(SYS, [parse_poly("y2^2 - x1^3 - 1", ring)], 1,
                               MultiDegreeTable(1, {(1, 0): 18, (0, 1): 18}), False)
    pre = generate_preimage(V, DiagonalIsogeny([2, 1]))
    factor = parse_poly("y1^2*y2^3 + y2^2", ring)
    unreduced = PreimagePresentation(pre.base, pre.isogeny,
                                     [eq * factor for eq in pre.equations],
                                     pre.excluded_locus, pre.degrees)
    for presentation in (pre, unreduced):
        _assert_scans_match(presentation, [13, 17, 101, 1009])
    rep = verify_preimage_membership(PrimeFieldCtx(17, SYS), pre)
    assert rep["ok"] and rep["equations_vanish"] > 0


def test_sampled_scan_builds_tables_over_drawn_points_only(monkeypatch):
    # at the largest prime the oracle accepts, the rows and sums of a
    # sampled scan cover at most the SAMPLE_COUNT drawn tuples, not the
    # 131 000 points of a factor; per factor, one x table holds the x's of
    # the drawn points and one those of their images, at most 2 *
    # SAMPLE_COUNT x's in all, and none is kept on the context
    built = []
    tables = []

    class Recorded(oracle._GroupedEquations):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    class RecordedTable(oracle._XTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

    monkeypatch.setattr(oracle, "_GroupedEquations", Recorded)
    monkeypatch.setattr(oracle, "_XTable", RecordedTable)
    pre = generate_preimage(C3, DiagonalIsogeny([2, 1]))
    ctx = PrimeFieldCtx(oracle.MAX_P - 1, SYS)
    rep = verify_preimage_membership(ctx, pre)
    assert ctx._xs == {}
    assert len(tables) == 4
    assert all(0 < len(t.index) <= oracle.SAMPLE_COUNT for t in tables)
    assert rep["mode"] == "sampled" and rep["iterated"] == oracle.SAMPLE_COUNT
    assert min(rep["affine_counts"]) > 60 * oracle.SAMPLE_COUNT
    assert len(built) == 2  # the preimage and the base equations
    for grouped in built:
        assert grouped.rows and grouped.sums
        assert 0 < grouped.width <= oracle.SAMPLE_COUNT
        for rows in grouped.rows:
            assert 0 < len(rows) <= oracle.SAMPLE_COUNT
        for sums in grouped.sums:  # one 64-bit slot per distinct rest
            assert all(s.bit_length() <= 64 * grouped.width for s in sums)


# -- tables shared on one context ------------------------------------------


@pytest.mark.parametrize("p", [13, 101, 1009])
def test_x_table_positions_and_columns(p):
    # each point's position holds its own x, -P (listed right after P)
    # shares P's, every affine image [alpha]P finds its x in the same
    # table, and the columns are the powers x^k mod p
    system = ProductSystem([E01, WeierstrassCurve(-1, 0)])
    ctx = PrimeFieldCtx(p, system)
    for idx in range(2):
        points = ctx.affine_points(idx)
        table = ctx.x_table(idx)
        assert table is ctx.x_table(idx)  # kept on the context
        xs = table.col(1)
        at = [table.index[x] for x, _ in points]
        assert [xs[i] for i in at] == [x for x, _ in points]
        assert sorted(set(at)) == list(range(len(xs)))
        pairs = 0
        for k in range(1, len(points)):
            if points[k][0] == points[k - 1][0]:
                assert points[k][1] == p - points[k - 1][1] and at[k] == at[k - 1]
                pairs += 1
        assert pairs == len(points) - len(xs)
        for alpha in (2, -2, 3, 5):
            images = [Q for Q in ctx.image_table(idx, alpha) if Q is not None]
            assert images and all(xs[table.index[x]] == x for x, _ in images)
        for k in range(13):
            assert table.col(k) == [pow(x, k, p) for x in xs]


@pytest.mark.parametrize("p", [1009, 4099])
def test_scan_first_then_maps_match_fresh_contexts(p):
    # the membership scan first, then maps checks, on one context: at 1009
    # the x tables stay on the context, and [5] on the first factor needs
    # powers of x far above the scan's; at 4099 each factor has more than
    # SAMPLE_COUNT points, so every call builds and drops its own tables
    pre = generate_preimage(C3, DiagonalIsogeny([2, 1]))
    shared = PrimeFieldCtx(p, SYS)
    got = verify_preimage_membership(shared, pre)
    assert got == reference_membership(PrimeFieldCtx(p, SYS), pre)
    large = min(len(shared.affine_points(j)) for j in range(2)) > oracle.SAMPLE_COUNT
    assert large == (p == 4099)
    degrees = [len(table.cols) for _, table in sorted(shared._xs.items())]
    for idx, alpha in ((0, 2), (1, 1), (0, 5), (1, -3)):
        got = verify_maps_vs_group_law(shared, idx, alpha)
        assert got == verify_maps_vs_group_law(PrimeFieldCtx(p, SYS), idx, alpha)
        assert got == reference_maps(PrimeFieldCtx(p, SYS), idx, alpha)
    if large:
        assert shared._xs == {}
    else:
        assert len(shared._xs[0].cols) > degrees[0] + 20


def test_shared_context_maps_match_fresh_contexts():
    for p in (13, 101):
        shared = PrimeFieldCtx(p, SYS)
        for alpha in (3, -3, 2, -2, 4, 3):
            assert verify_maps_vs_group_law(shared, 1, alpha) == \
                verify_maps_vs_group_law(PrimeFieldCtx(p, SYS), 1, alpha)


def test_maps_check_first_leaves_membership_unchanged():
    for alphas in ([2, 1], [-3, 2]):
        pre = generate_preimage(C3, DiagonalIsogeny(alphas))
        for p in (13, 101):
            shared = PrimeFieldCtx(p, SYS)
            for idx, alpha in enumerate(alphas):
                verify_maps_vs_group_law(shared, idx, alpha)
                verify_maps_vs_group_law(shared, idx, -alpha)
            assert verify_preimage_membership(shared, pre) == \
                verify_preimage_membership(PrimeFieldCtx(p, SYS), pre)


def test_separability_checked_before_any_table(monkeypatch):
    def no_tables(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(oracle, "enumerate_points", no_tables)
    monkeypatch.setattr(oracle, "scalar_mul_mod", no_tables)
    pre = generate_preimage(C3, DiagonalIsogeny([2, 5]))
    ctx = PrimeFieldCtx(5, SYS)
    with pytest.raises(BadReductionError):
        verify_maps_vs_group_law(ctx, 1, 5)
    with pytest.raises(BadReductionError):
        verify_preimage_membership(ctx, pre)


# -- the table and scan kernels against per-point arithmetic ----------------


@pytest.mark.parametrize("p", [13, 101, 1009])
def test_image_table_equals_per_point_scalar_mul(p):
    # y^2 = x^3 + 1 and y^2 = x^3 - x have 2-torsion over every F_p, so
    # even alpha has kernel points, listed once each (y = 0 is its own -P)
    system = ProductSystem([E01, WeierstrassCurve(-1, 0)])
    ctx = PrimeFieldCtx(p, system)
    for idx in range(2):
        A, _ = ctx.curves_mod[idx]
        points = enumerate_points(ctx, idx)[1:]
        assert ctx.affine_points(idx) == points
        for alpha in (2, -2, 3, -3, 4, 5):
            table = ctx.image_table(idx, alpha)
            assert table == [scalar_mul_mod(p, A, alpha, P) for P in points]
            if alpha % 2 == 0:
                assert None in table


def _corrupted(curve, alpha):
    # fresh maps with s + 1 for s: the cached maps of _maps_for keep theirs
    maps = multiplication_maps(alpha, curve)
    maps.s = maps.s + 1
    return maps


@pytest.mark.parametrize("alpha", [2, -3, 4, 5])
def test_maps_check_reports_mismatches_as_divided_formulas(monkeypatch, alpha):
    # with s + 1 for s, the division-free check must report the same
    # points, formula values and group-law values as dividing does
    from ellprod import curves

    monkeypatch.setattr(curves, "_maps_for", _corrupted)
    for p in (13, 101, 1009):
        ctx = PrimeFieldCtx(p, SYS)
        maps = _corrupted(SYS.curves[0], alpha)
        got = verify_maps_vs_group_law(ctx, 0, alpha)
        assert got == reference_maps(PrimeFieldCtx(p, SYS), 0, alpha, maps)
        assert got["mismatches"] and not got["ok"]
        assert all(set(m) == {"point", "formula", "group_law"}
                   for m in got["mismatches"])


def _grouped(eqs, coords, p, tuples):
    """_GroupedEquations over tuples of point indices, as the scan builds
    it, with one x table per factor over the x's of its coords."""
    firsts, rests = oracle._split([list(col) for col in zip(*tuples)],
                                  [len(pts) for pts in coords])
    tables = [oracle._XTable(p, [x for x, _ in pts]) for pts in coords]
    return oracle._GroupedEquations(eqs, coords, tables, p, firsts, rests)


def test_packed_inner_sums_agree_with_eval_mod_at_max_p():
    # every tuple's value, rebuilt from the rows and the unpacked inner
    # sums, equals eval_mod of the equation: slots reach about
    # terms * (p - 1)^2 / 4 > 2^32 at the largest prime the oracle takes
    pre = generate_preimage(C3, DiagonalIsogeny([5, 5]))
    p = oracle.MAX_P - 1
    eqs = [poly_mod(eq, p, SYS.ring) for eq in pre.equations]
    assert sum(map(len, eqs)) >= 300
    rng = random.Random(11)
    coords = [[(rng.randrange(p), rng.randrange(p)) for _ in range(400)]
              for _ in range(2)]
    tuples = [(rng.randrange(400), rng.randrange(400)) for _ in range(300)]
    grouped = _grouped(eqs, coords, p, tuples)
    inner = [list(zip(*[oracle._slots(s, grouped.width) for s in sums]))
             for sums in grouped.sums]
    assert max(v for table in inner for row in table for v in row) >> 32
    firsts, rests = oracle._split([list(col) for col in zip(*tuples)], [400, 400])
    for eq, rows, table in zip(eqs, grouped.rows, inner):
        for (i, j), f, r in zip(tuples, firsts[1], rests[1]):
            value = sum(a * b for a, b in zip(rows[f], table[r])) % p
            assert value == eval_mod(eq, coords[0][i] + coords[1][j], p)
    # both ways of evaluating give those values
    want = [[eval_mod(eq, coords[0][i] + coords[1][j], p) for i, j in tuples]
            for eq in eqs]
    for grid in (False, True):
        assert list(grouped.evaluate(grid)) == want


def test_packed_inner_sums_refuse_a_wrapping_slot():
    # at the largest prime below 2^32 one term fits a 64-bit slot and two
    # under one head may not
    p = (1 << 32) - 5
    eq = [(p - 1, (0, 0, 1, 0)), (p - 1, (0, 0, 0, 1))]
    coords = [[(1, 1)], [(2, 3)]]
    _grouped([eq[:1]], coords, p, [(0, 0)])
    with pytest.raises(ValueError):
        _grouped([eq], coords, p, [(0, 0)])


@pytest.mark.parametrize("p", [13, 1009, oracle.MAX_P - 1])
def test_values_equal_horner_per_x(p):
    rng = random.Random(p)
    xs = [0, 1, p - 1] + [rng.randrange(p) for _ in range(200)]
    polys = [[], [0], [p - 1], [rng.randrange(p) for _ in range(30)],
             [p - 1] * 17, [rng.randrange(p) for _ in range(5)]]

    def horner(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc

    # the table holds each distinct x once; every x reads its position
    table = oracle._XTable(p, xs)
    at = [table.index[x] for x in xs]
    terms = [[(c, (k,)) for k, c in enumerate(coeffs)] for coeffs in polys]
    assert [[v[i] % p for i in at] for v in table.values(terms)] == \
        [[horner(c, x) for x in xs] for c in polys]
    assert [list(v) for v in oracle._XTable(p, []).values(terms)] == [[] for _ in polys]


def _on_base(coords, p):
    """The tuples of point indices where the base equations of C_3 (two
    factors) or of _three_factor_preimage (three) vanish."""
    by_y, by_x = {}, {}
    for k, (x, y) in enumerate(coords[-1]):
        by_y.setdefault(y, []).append(k)
    if len(coords) == 2:  # y2 = x1^3
        return [(i, k) for i, (x, _) in enumerate(coords[0])
                for k in by_y.get(x ** 3 % p, ())]
    for k, (x, _) in enumerate(coords[1]):  # y1 = y3 and x2 = x3
        by_x.setdefault(x, []).append(k)
    return [(i, k, m) for i, (_, y) in enumerate(coords[0]) for m in by_y.get(y, ())
            for k in by_x.get(coords[2][m][0], ())]


def test_sampled_scan_near_100_takes_the_grid(monkeypatch):
    # at p = 101 the grid of about 100 x 100 distinct points has more
    # cells than the 2000 sampled tuples have head terms, but at 1/8 of a
    # head per cell it costs less, so both equation sets are read off the
    # grid, which unpacks no inner sum per rest
    unpacked = []
    evaluated = []
    slots = oracle._slots
    monkeypatch.setattr(oracle, "_slots", lambda *args: unpacked.append(args) or slots(*args))

    class Recorded(oracle._GroupedEquations):
        def evaluate(self, grid=None):
            del unpacked[:]
            yield from super().evaluate(grid)
            heads = [len(sums) for sums in self.sums]
            evaluated.append((len(unpacked), len(self.rows[0]) * self.width,
                              len(self.fpos) * max(heads)))

    monkeypatch.setattr(oracle, "_GroupedEquations", Recorded)
    pre = generate_preimage(C3, DiagonalIsogeny([2, 1]))
    rep = verify_preimage_membership(PrimeFieldCtx(101, SYS), pre)
    assert rep["mode"] == "sampled" and rep["ok"]
    assert len(evaluated) == 2  # the preimage and the base equations
    for unpacks, cells, head_terms in evaluated:
        assert unpacks == 0 and head_terms < cells <= 8 * head_terms


@pytest.mark.parametrize("n", [2, 3])
def test_grid_and_per_tuple_paths_agree(n):
    # on the same tuples (a full grid, and a sample that does not fill
    # it) the grid and the per-tuple evaluation give the same values,
    # those of eval_mod, and so the same vanish lists
    p = 101
    if n == 2:
        pre = generate_preimage(C3, DiagonalIsogeny([3, 2]))
    else:
        pre = _three_factor_preimage()
    ctx = PrimeFieldCtx(p, pre.system)
    coords = [ctx.affine_points(j) for j in range(n)]
    sizes = [len(pts) for pts in coords]
    rng = random.Random(n)
    full = list(iter_product(*[rng.sample(range(size), 9) for size in sizes]))
    sample = [tuple(rng.randrange(size) for size in sizes) for _ in range(300)]
    sample[::15] = _on_base(coords, p)[:20]
    seen = set()
    for equations in (pre.equations, pre.base.equations):
        eqs = [poly_mod(eq, p, pre.system.ring) for eq in equations]
        for tuples in (full, sample):
            grouped = _grouped(eqs, coords, p, tuples)
            want = [[eval_mod(eq, [v for j, i in enumerate(t) for v in coords[j][i]], p)
                     for t in tuples] for eq in eqs]
            assert list(grouped.evaluate(True)) == list(grouped.evaluate(False)) == want
            vanish = grouped.vanish(True)
            assert vanish == grouped.vanish(False) == grouped.vanish()
            assert vanish == [not any(v) for v in zip(*want)]
            seen.update(vanish)
    assert seen == {True, False}


def test_grid_refuses_a_wrapping_slot():
    # at p near 2^22 an inner sum of one term fits its slot, (p - 1)^2 <
    # 2^64, but a grid slot, up to (p - 1)^3, may not: a forced grid
    # raises, and the default takes the per-tuple path
    p = (1 << 22) - 3
    eq = [(p - 1, (1, 0, 1, 0))]
    coords = [[(p - 1, 1), (2, 1)], [(p - 1, 2), (3, 1)]]
    tuples = list(iter_product(range(2), range(2)))
    grouped = _grouped([eq], coords, p, tuples)
    with pytest.raises(ValueError):
        list(grouped.evaluate(True))
    want = [[eval_mod(eq, coords[0][i] + coords[1][j], p) for i, j in tuples]]
    assert list(grouped.evaluate()) == list(grouped.evaluate(False)) == want


def test_grid_taken_where_the_tuples_fill_it(monkeypatch):
    # tuples that fill the grid of their firsts and rests, as an
    # exhaustive scan's do, are read off the grid, and so are tuples
    # whose grid has fewer cells than they have head terms (10 per tuple
    # here); a sparse sample over many points is evaluated tuple by
    # tuple, which unpacks the inner sums per rest
    pre = generate_preimage(C3, DiagonalIsogeny([3, 2]))
    p = 1009
    ctx = PrimeFieldCtx(p, SYS)
    coords = [ctx.affine_points(j) for j in range(2)]
    eqs = [poly_mod(eq, p, SYS.ring) for eq in pre.equations]
    rng = random.Random(5)
    full = list(iter_product(range(40), range(50)))
    dense = [(rng.randrange(60), rng.randrange(60)) for _ in range(1000)]
    sparse = [(rng.randrange(len(coords[0])), rng.randrange(len(coords[1])))
              for _ in range(300)]
    unpacked = []
    slots = oracle._slots
    monkeypatch.setattr(oracle, "_slots", lambda *args: unpacked.append(args) or slots(*args))
    assert all(len(rows[0]) == 10 for rows in _grouped(eqs, coords, p, dense).rows)
    for tuples, per_tuple in ((full, False), (dense, False), (sparse, True)):
        del unpacked[:]
        want = [[eval_mod(eq, coords[0][i] + coords[1][j], p) for i, j in tuples]
                for eq in eqs]
        assert list(_grouped(eqs, coords, p, tuples).evaluate()) == want
        assert bool(unpacked) == per_tuple
