"""Tests for transversality certificates and their independent verifier."""

import copy
import random

import pytest

from ellprod import certificates
from ellprod.certificates import (
    AUTO_ORDER,
    CERTIFIED,
    INCONCLUSIVE,
    certify_auto,
    check_corollary_curves,
    check_corollary_identity,
    check_theorem_a,
    check_theorem_main,
    check_theorem_weak,
    is_prime,
    verify_certificate,
)
from ellprod.curves import WeierstrassCurve
from ellprod.isogenies import DiagonalIsogeny
from ellprod.products import (
    MultiDegreeTable,
    ProductSystem,
    SubvarietyPresentation,
    make_cn_curve,
)
from ellprod.polynomials import parse_poly

E01 = WeierstrassCurve(0, 1)
C3 = make_cn_curve(E01, E01, 3)  # multidegrees (9, 18), total degree 27


def _untransverse(V):
    return SubvarietyPresentation(V.system, V.equations, V.dim, V.degrees, False)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert is_prime(-7)
    assert not is_prime(-8)
    assert is_prime(167)
    assert not is_prime(165)


# ---------------------------------------------------------------------------
# CorollaryCurves
# ---------------------------------------------------------------------------

def test_corollary_curves_certifies_known_cases():
    cert = check_corollary_curves(C3, DiagonalIsogeny([2, 1]))
    assert cert.certified()
    assert cert.criterion == "CorollaryCurves"
    assert cert.witness == [
        {"j": 1, "d_j": 9, "deg_alpha": 4, "gcd": 1},
        {"j": 2, "d_j": 18, "deg_alpha": 1, "gcd": 1},
    ]
    cert5 = check_corollary_curves(C3, DiagonalIsogeny([1, 5]))
    assert cert5.certified()
    assert cert5.witness[1] == {"j": 2, "d_j": 18, "deg_alpha": 25, "gcd": 1}


def test_corollary_curves_inconclusive():
    cert = check_corollary_curves(C3, DiagonalIsogeny([1, 2]))
    assert cert.verdict == INCONCLUSIVE
    assert not cert.certified()
    assert any("gcd" in r for r in cert.reasons)
    # witness still reports the failing gcd
    assert cert.witness[1]["gcd"] == 2


def test_corollary_curves_needs_dim_one():
    table = MultiDegreeTable(2, {(1, 1): 4})
    with pytest.raises(ValueError):
        check_corollary_curves(table, DiagonalIsogeny([2, 2]))


def test_corollary_curves_arity():
    with pytest.raises(ValueError):
        check_corollary_curves(C3, DiagonalIsogeny([2, 1, 1]))


def test_untransverse_input_is_never_certified():
    V = _untransverse(C3)
    cert = check_corollary_curves(V, DiagonalIsogeny([2, 1]))
    assert cert.verdict == INCONCLUSIVE
    assert cert.hypotheses == {"transverse_input": False}
    assert any("not flagged transverse" in r for r in cert.reasons)


def test_bare_table_treated_as_transverse():
    cert = check_corollary_curves(C3.degrees, DiagonalIsogeny([2, 1]))
    assert cert.certified()
    assert cert.hypotheses == {"transverse_input": True}


# ---------------------------------------------------------------------------
# TheoremMain
# ---------------------------------------------------------------------------

def test_theorem_main_certifies():
    cert = check_theorem_main(C3, DiagonalIsogeny([2, 1]))
    assert cert.certified()
    # j=1 witnessed by J={1} (gcd(4, 9)=1), j=2 by J={2} (gcd(1, 18)=1)
    assert cert.witness[0]["J"] == [1] and cert.witness[0]["deg_I"] == 9
    assert cert.witness[1]["J"] == [2]


def test_theorem_main_inconclusive():
    cert = check_theorem_main(C3, DiagonalIsogeny([3, 1]))
    assert cert.verdict == INCONCLUSIVE  # gcd(9, 9) = 9 and no other J contains 1


def test_theorem_main_identity_certifies():
    cert = check_theorem_main(C3, DiagonalIsogeny([1, 1]))
    assert cert.certified()


def test_theorem_main_witness_uses_first_J_in_combination_order():
    # dim-2 subvariety of a 3-fold product where several J qualify
    table = MultiDegreeTable(2, {(1, 1, 0): 1, (1, 0, 1): 5, (0, 1, 1): 7})
    cert = check_theorem_main(table, DiagonalIsogeny([3, 3, 3]))
    assert cert.certified()
    # for j=1 both {1,2} (deg 1 -> 2!*1=2) and {1,3} (deg 5 -> 10) are
    # coprime to 9; the first in combination order must be chosen
    assert cert.witness[0]["J"] == [1, 2]
    assert cert.witness[0]["dim_factorial"] == 2


# ---------------------------------------------------------------------------
# TheoremWeak
# ---------------------------------------------------------------------------

def test_theorem_weak():
    cert = check_theorem_weak(C3, DiagonalIsogeny([29, 1]))
    assert cert.certified()
    assert cert.witness["degree_primes"] == [29]
    assert cert.witness["bound"] == 27
    bad = check_theorem_weak(C3, DiagonalIsogeny([2, 1]))
    assert bad.verdict == INCONCLUSIVE


def test_theorem_weak_identity_certifies_vacuously():
    cert = check_theorem_weak(C3, DiagonalIsogeny([1, 1]))
    assert cert.certified()
    assert cert.witness["degree_primes"] == []


def test_theorem_weak_bound_includes_dim_factorial():
    # dim 2, three entries of 1: total degree 2!*3 = 6, bound 2!*6 = 12
    table = MultiDegreeTable(2, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    assert check_theorem_weak(table, DiagonalIsogeny([7, 7, 7])).verdict \
        == INCONCLUSIVE  # 7 <= 12
    assert check_theorem_weak(table, DiagonalIsogeny([13, 13, 13])).certified()


# ---------------------------------------------------------------------------
# TheoremA
# ---------------------------------------------------------------------------

def test_theorem_a_threshold():
    cert = check_theorem_a(C3, [167, 167])
    assert cert.certified()
    assert cert.witness[0]["threshold"] == 162  # 27 * 2 * 3
    assert check_theorem_a(C3, [163, 167]).certified()
    assert check_theorem_a(C3, [157, 167]).verdict == INCONCLUSIVE  # below
    assert check_theorem_a(C3, [165, 167]).verdict == INCONCLUSIVE  # composite


def test_theorem_a_accepts_negative_primes():
    cert = check_theorem_a(C3, [-167, 167])
    assert cert.certified()


def test_theorem_a_validation():
    with pytest.raises(ValueError):
        check_theorem_a(MultiDegreeTable(2, {(1, 1): 4}), [5, 5])
    with pytest.raises(ValueError):
        check_theorem_a(C3, [167])


# ---------------------------------------------------------------------------
# CorollaryIdentity
# ---------------------------------------------------------------------------

def test_corollary_identity_integer_mode():
    cert = check_corollary_identity(C3, n=5)
    assert cert.certified()
    assert cert.inputs["mode"] == "integer"
    assert [row["I"] for row in cert.witness] == [[1, 0], [0, 1]]
    assert check_corollary_identity(C3, n=2).verdict == INCONCLUSIVE


def test_corollary_identity_prime_mode():
    cert = check_corollary_identity(C3, p=5)
    assert cert.certified()
    assert cert.witness["components"] == [
        {"j": 1, "gcd_of_degrees": 9, "p_divides": False},
        {"j": 2, "gcd_of_degrees": 18, "p_divides": False},
    ]
    assert check_corollary_identity(C3, p=3).verdict == INCONCLUSIVE


def test_corollary_identity_validation():
    with pytest.raises(ValueError):
        check_corollary_identity(C3)  # neither
    with pytest.raises(ValueError):
        check_corollary_identity(C3, n=5, p=5)  # both
    with pytest.raises(ValueError):
        check_corollary_identity(C3, n=0)
    with pytest.raises(ValueError):
        check_corollary_identity(C3, p=6)  # composite


@pytest.mark.parametrize("mode", [{"n": 5.5}, {"n": True}, {"p": 5.5}, {"p": 5.0}])
def test_corollary_identity_reads_n_and_p_exactly(mode):
    # n=5.5 used to certify as n=5
    with pytest.raises(TypeError):
        check_corollary_identity(C3, **mode)


# ---------------------------------------------------------------------------
# certify_auto
# ---------------------------------------------------------------------------

def test_auto_order_constant():
    assert AUTO_ORDER == ("CorollaryCurves", "TheoremMain", "TheoremWeak",
                          "TheoremA")


def test_certify_auto_first_success():
    cert = certify_auto(C3, DiagonalIsogeny([2, 1]))
    assert cert.certified()
    assert cert.criterion == "CorollaryCurves"
    assert cert.strategy["order"] == ["CorollaryCurves"]
    assert cert.strategy["attempts"][0]["verdict"] == CERTIFIED


def test_certify_auto_all_fail():
    cert = certify_auto(C3, DiagonalIsogeny([3, 3]))
    assert cert.verdict == INCONCLUSIVE
    assert cert.strategy["order"] == list(AUTO_ORDER)
    assert all(a["verdict"] == INCONCLUSIVE for a in cert.strategy["attempts"])
    assert all(a["reasons"] for a in cert.strategy["attempts"])


def test_certify_auto_skips_curve_criteria_beyond_dim_one():
    table = MultiDegreeTable(2, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})
    cert = certify_auto(table, DiagonalIsogeny([2, 2, 2]))
    assert "CorollaryCurves" not in cert.strategy["order"]
    assert "TheoremA" not in cert.strategy["order"]


def test_certify_auto_identity():
    cert = certify_auto(C3, DiagonalIsogeny([1, 1]))
    assert cert.certified()


# ---------------------------------------------------------------------------
# independent verification
# ---------------------------------------------------------------------------

def _multi_attempt():
    """A TheoremWeak certificate from certify_auto after two Inconclusive
    attempts: d_1 = 0 leaves no gcd of 1 for CorollaryCurves or TheoremMain."""
    return certify_auto(MultiDegreeTable(1, {(1, 0): 0, (0, 1): 1}), DiagonalIsogeny([7, 11]))


def _all_certified_examples():
    return [
        check_corollary_curves(C3, DiagonalIsogeny([2, 1])),
        check_corollary_curves(C3, DiagonalIsogeny([1, 5])),
        check_theorem_main(C3, DiagonalIsogeny([2, 1])),
        check_theorem_weak(C3, DiagonalIsogeny([29, 31])),
        check_theorem_a(C3, [167, 167]),
        check_corollary_identity(C3, n=5),
        check_corollary_identity(C3, p=5),
        certify_auto(C3, DiagonalIsogeny([2, 1])),
    ]


def test_verify_accepts_genuine_certificates():
    for cert in _all_certified_examples():
        ok, problems = verify_certificate(cert)
        assert ok, problems
        ok, problems = verify_certificate(cert.to_dict())
        assert ok, problems


def _inconclusive_examples():
    """An Inconclusive certificate from each checker, one for an input not
    flagged transverse, and certify_auto's at dim 1 and at dim 2."""
    return [
        check_corollary_curves(C3, DiagonalIsogeny([1, 2])),
        check_theorem_main(C3, DiagonalIsogeny([3, 1])),
        check_theorem_weak(C3, DiagonalIsogeny([2, 1])),
        check_theorem_a(C3, [157, 167]),
        check_corollary_identity(C3, n=2),
        check_corollary_identity(C3, p=3),
        check_theorem_main(_untransverse(C3), DiagonalIsogeny([2, 1])),
        certify_auto(C3, DiagonalIsogeny([3, 3])),
        certify_auto(T3, DiagonalIsogeny([2, 2, 2])),
    ]


def test_verify_accepts_inconclusive():
    for cert in _inconclusive_examples():
        assert cert.verdict == INCONCLUSIVE, cert
        assert verify_certificate(cert) == (True, [])
        assert verify_certificate(cert.to_dict()) == (True, [])


def test_verify_leaves_inconclusive_values_free():
    # an Inconclusive verdict claims nothing: its reasons, hypothesis,
    # multipliers and witness may read anything
    cert = check_theorem_main(C3, DiagonalIsogeny([3, 1]))
    for edit in (_set("reasons", ["bogus"]), _set("hypotheses", "transverse_input", True),
                 _set("inputs", "alphas", [0]), _set("witness", {"any": 1})):
        assert verify_certificate(_tampered(cert, edit)) == (True, [])


def test_verify_rejects_flag_tampering():
    cert = check_corollary_curves(C3, DiagonalIsogeny([2, 1])).to_dict()
    cert["hypotheses"]["transverse_input"] = False
    ok, problems = verify_certificate(cert)
    assert not ok
    assert any("hypothesis" in p for p in problems)


def test_verify_rejects_witness_tampering():
    cert = check_corollary_curves(C3, DiagonalIsogeny([1, 2])).to_dict()
    cert["verdict"] = CERTIFIED  # promote a failing check by hand
    ok, problems = verify_certificate(cert)
    assert not ok

    cert = check_corollary_curves(C3, DiagonalIsogeny([2, 1])).to_dict()
    cert["witness"][0]["d_j"] = 8  # lie about the table entry
    ok, problems = verify_certificate(cert)
    assert not ok

    cert = check_corollary_curves(C3, DiagonalIsogeny([2, 1])).to_dict()
    del cert["witness"][1]  # drop a component
    ok, problems = verify_certificate(cert)
    assert not ok
    assert any("every component" in p for p in problems)


def test_verify_rejects_input_tampering():
    cert = check_theorem_a(C3, [167, 167]).to_dict()
    cert["inputs"]["multidegrees"][1]["deg"] = 500  # now threshold is larger
    ok, problems = verify_certificate(cert)
    assert not ok

    cert = check_theorem_main(C3, DiagonalIsogeny([2, 1])).to_dict()
    cert["inputs"]["alphas"] = [3, 1]  # gcd(9, 9) != 1
    ok, problems = verify_certificate(cert)
    assert not ok


def test_verify_rejects_weak_prime_at_most_dimfactorial_times_degree():
    # hand-built claim: dim 2, total degree 6, primes {7}; 7 > 6 but
    # 7 <= 2! * 6 = 12, so the claim must be rejected
    fake = {
        "criterion": "TheoremWeak",
        "verdict": CERTIFIED,
        "hypotheses": {"transverse_input": True},
        "inputs": {
            "n_factors": 3,
            "dim": 2,
            "multidegrees": [{"I": [1, 1, 0], "deg": 1},
                             {"I": [1, 0, 1], "deg": 1},
                             {"I": [0, 1, 1], "deg": 1}],
            "alphas": [7, 7, 7],
        },
        "witness": {"degree_primes": [7], "bound": 12,
                    "comparisons": [{"p": 7, "satisfied": False}]},
    }
    ok, problems = verify_certificate(fake)
    assert not ok


def test_verify_rejects_weak_prime_list_tampering():
    cert = check_theorem_weak(C3, DiagonalIsogeny([29, 31])).to_dict()
    cert["witness"]["degree_primes"] = [29]  # hide a prime
    ok, problems = verify_certificate(cert)
    assert not ok


def test_verify_rejects_malformed():
    ok, problems = verify_certificate({})
    assert not ok and "malformed" in problems[0]
    ok, problems = verify_certificate({"criterion": "TheoremA"})
    assert not ok
    cert = check_theorem_a(C3, [167, 167]).to_dict()
    cert["verdict"] = "Transverse"  # not a known verdict
    ok, problems = verify_certificate(cert)
    assert not ok
    cert = check_theorem_a(C3, [167, 167]).to_dict()
    cert["criterion"] = "TheoremZ"
    ok, problems = verify_certificate(cert)
    assert not ok


def _tampered(cert, edit):
    cert = copy.deepcopy(cert.to_dict())
    edit(cert)
    return cert


def test_verify_reports_malformed_payloads_instead_of_raising():
    curves = check_corollary_curves(C3, DiagonalIsogeny([2, 1]))
    main = check_theorem_main(C3, DiagonalIsogeny([2, 1]))
    theorem_a = check_theorem_a(C3, [167, 167])
    payloads = [
        _tampered(curves, lambda c: c["witness"][0].pop("d_j")),
        _tampered(curves, lambda c: c["inputs"].update(alphas=[2])),
        _tampered(main, lambda c: c["inputs"].update(alphas=[2])),
        _tampered(theorem_a, lambda c: c["inputs"].update(primes=[167])),
        _tampered(theorem_a, lambda c: c["witness"][0].update(j="x")),
        _tampered(curves, lambda c: c.update(witness=5)),
        _tampered(curves, lambda c: c.update(hypotheses=[])),
        # a degree prime beyond the proven primality range
        _tampered(check_theorem_weak(C3, DiagonalIsogeny([29, 31])),
                  lambda c: c["inputs"].update(alphas=[29, 3317044064679887385961981])),
        # no rows and a huge factor count: refused without enumerating
        _tampered(curves, lambda c: c["inputs"].update(n_factors=10 ** 9,
                                                        multidegrees=[])),
        # a table over no factors
        {"criterion": "CorollaryIdentity", "verdict": "CertifiedTransverse",
         "hypotheses": {"transverse_input": True},
         "inputs": {"n_factors": 0, "dim": 0, "multidegrees": [{"I": [], "deg": 7}],
                    "mode": "prime", "p": 5},
         "witness": {"dim_factorial": 1, "components": []}},
    ]
    for cert in payloads:
        ok, problems = verify_certificate(cert)
        assert not ok
        assert problems[0].startswith("malformed certificate"), problems


def test_verify_refuses_negative_multidegrees():
    # no MultiDegreeTable holds -9 and -18, and gcd(alpha_j^2, -9) = 1 still
    # held, so this used to verify as (True, [])
    cert = check_theorem_main(C3, DiagonalIsogeny([2, 1]))
    assert cert.certified()

    def negate(c):
        for row in c["inputs"]["multidegrees"] + c["witness"]:
            key = "deg" if "deg" in row else "deg_I"
            row[key] = -row[key]
    bad = _tampered(cert, negate)
    assert [row["deg"] for row in bad["inputs"]["multidegrees"]] == [-9, -18]
    assert verify_certificate(bad) == (
        False, ["malformed certificate: negative multidegree at (1, 0)"])


def test_verify_refuses_numbers_that_are_not_exact_ints():
    genuine = check_theorem_a(C3, [163, 167])
    assert genuine.certified()
    assert verify_certificate(genuine) == (True, [])
    assert genuine.inputs["multidegrees"][1]["deg"] == 18

    def deg(value):
        return lambda c: c["inputs"]["multidegrees"][1].update(deg=value)

    payloads = [
        _tampered(genuine, deg(18.9)),
        _tampered(genuine, deg("18")),
        _tampered(genuine, lambda c: c["inputs"].update(dim=True)),
        _tampered(genuine, lambda c: c["inputs"]["primes"].__setitem__(0, 163.7)),
    ]
    for cert in payloads:
        ok, problems = verify_certificate(cert)
        assert not ok
        assert problems[0].startswith("malformed certificate"), problems


T3 = MultiDegreeTable(2, {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1})


def _set(*path_and_value):
    """An edit that sets the leaf at path to value."""
    *path, key, value = path_and_value

    def edit(cert):
        node = cert
        for step in path:
            node = node[step]
        node[key] = value
    return edit


def _edits(*edits):
    def edit(cert):
        for e in edits:
            e(cert)
    return edit


def _drop_row(j):
    return lambda c: c["witness"].pop(j - 1)


def _to_dim_two(c):
    c["inputs"].update(dim=2, multidegrees=[{"I": [1, 1], "deg": 1}])


COVERAGE = "witness does not cover every component exactly once"

# One tampered genuine certificate per rejection branch of the verifier,
# with the full list of problems it must report.
REJECTIONS = {
    "theorem-a-dim": (
        lambda: check_theorem_a(C3, [167, 167]), _to_dim_two,
        ["TheoremA needs dim 1, certificate has dim 2"]),
    "theorem-a-row-vs-inputs": (
        lambda: check_theorem_a(C3, [167, 167]), _set("witness", 0, "p", 163),
        ["component 1: echoed p disagrees"]),
    "theorem-a-not-prime": (
        lambda: check_theorem_a(C3, [167, 167]),
        _edits(_set("witness", 0, "p", 169), _set("inputs", "primes", 0, 169)),
        ["component 1: 169 is not prime"]),
    "theorem-a-flag-echoes": (
        lambda: check_theorem_a(C3, [167, 167]),
        _edits(_set("witness", 0, "is_prime", False), _set("witness", 1, "satisfied", 1)),
        ["component 1: echoed is_prime disagrees", "component 2: echoed satisfied disagrees"]),
    "theorem-a-no-threshold": (
        lambda: check_theorem_a(C3, [167, 167]), lambda c: c["witness"][1].pop("threshold"),
        ["malformed certificate: 'threshold'"]),
    "theorem-a-coverage": (
        lambda: check_theorem_a(C3, [167, 167]), _drop_row(2), [COVERAGE]),
    "theorem-main-J": (
        lambda: check_theorem_main(C3, DiagonalIsogeny([2, 1])),
        _set("witness", 0, "J", [2]),
        ["component 1: echoed J disagrees"]),
    "theorem-main-I-vs-J": (
        lambda: check_theorem_main(C3, DiagonalIsogeny([2, 1])),
        _set("witness", 0, "I", [0, 1]),
        ["component 1: bad index (0, 1)"]),
    "theorem-main-deg-I": (
        lambda: check_theorem_main(C3, DiagonalIsogeny([2, 1])),
        _set("witness", 1, "deg_I", 19),
        ["component 2: echoed deg_I disagrees"]),
    "theorem-main-echoes": (
        lambda: check_theorem_main(C3, DiagonalIsogeny([2, 1])),
        _edits(_set("witness", 0, "dim_factorial", 2), _set("witness", 1, "deg_alpha_j", 4),
               _set("witness", 1, "gcd", 5)),
        ["component 1: echoed dim_factorial disagrees",
         "component 2: echoed deg_alpha_j disagrees", "component 2: echoed gcd disagrees"]),
    "theorem-main-coverage": (
        lambda: check_theorem_main(C3, DiagonalIsogeny([2, 1])), _drop_row(1),
        [COVERAGE]),
    "identity-bad-index": (
        lambda: check_corollary_identity(C3, n=5), _set("witness", 0, "I", [0, 1]),
        ["component 1: bad index (0, 1)"]),
    "identity-deg-I": (
        lambda: check_corollary_identity(C3, n=5), _set("witness", 0, "deg_I", 10),
        ["component 1: echoed deg_I disagrees"]),
    "identity-gcd": (
        lambda: check_corollary_identity(C3, n=5), _set("inputs", "n", 3),
        ["component 1: gcd(n, dim! * deg_I) != 1",
         "component 2: gcd(n, dim! * deg_I) != 1"]),
    "identity-echoes": (
        lambda: check_corollary_identity(C3, n=5),
        _edits(_set("witness", 0, "dim_factorial", 7), _set("witness", 1, "gcd", 5)),
        ["component 1: echoed dim_factorial disagrees", "component 2: echoed gcd disagrees"]),
    "identity-coverage": (
        lambda: check_corollary_identity(C3, n=5), _drop_row(2), [COVERAGE]),
    "identity-p-not-prime": (
        lambda: check_corollary_identity(C3, p=5), _set("inputs", "p", 4),
        ["p = 4 is not prime"]),
    "identity-p-divides-dim-factorial": (
        lambda: check_corollary_identity(T3, p=3), _set("inputs", "p", 2),
        ["p divides dim!"]),
    "identity-p-divides-every-deg-I": (
        lambda: check_corollary_identity(C3, p=5), _set("inputs", "p", 3),
        ["component 1: p divides every deg_I with i_j = 1",
         "component 2: p divides every deg_I with i_j = 1"]),
    "identity-p-echoes": (
        lambda: check_corollary_identity(C3, p=5),
        _edits(_set("witness", "components", 0, "gcd_of_degrees", 12345),
               _set("witness", "dim_factorial", 99),
               _set("witness", "components", 1, "p_divides", True)),
        ["witness: echoed dim_factorial disagrees",
         "component 1: echoed gcd_of_degrees disagrees",
         "component 2: echoed p_divides disagrees"]),
    "identity-p-no-witness": (
        lambda: check_corollary_identity(C3, p=5), _set("witness", {}),
        ["malformed certificate: 'dim_factorial'"]),
    "identity-p-coverage": (
        lambda: check_corollary_identity(C3, p=5),
        lambda c: c["witness"]["components"].pop(), [COVERAGE]),
    "weak-echoes": (
        lambda: check_theorem_weak(C3, DiagonalIsogeny([101, 103])),
        _edits(_set("witness", "bound", 1), _set("witness", "comparisons", [])),
        ["witness: echoed bound disagrees", "witness: echoed comparisons disagrees"]),
    "weak-no-degree-primes": (
        lambda: check_theorem_weak(C3, DiagonalIsogeny([1, 1])),
        lambda c: c["witness"].pop("degree_primes"),
        ["malformed certificate: 'degree_primes'"]),
    "curves-dim": (
        lambda: check_corollary_curves(C3, DiagonalIsogeny([2, 1])),
        _edits(_to_dim_two, _set("witness", [])),
        ["CorollaryCurves needs dim 1, certificate has dim 2"]),
    "curves-j-out-of-range": (
        lambda: check_corollary_curves(C3, DiagonalIsogeny([2, 1])),
        _set("witness", 0, "j", 3),
        ["component 1: echoed j disagrees"]),
    "curves-deg-alpha-echo": (
        lambda: check_corollary_curves(C3, DiagonalIsogeny([2, 1])),
        _set("witness", 0, "deg_alpha", 9),
        ["component 1: echoed deg_alpha disagrees"]),
    "curves-gcd-echo": (
        lambda: check_corollary_curves(C3, DiagonalIsogeny([2, 1])),
        _set("witness", 1, "gcd", 3),
        ["component 2: echoed gcd disagrees"]),
    "curves-duplicate-row": (
        lambda: check_corollary_curves(C3, DiagonalIsogeny([2, 1])),
        lambda c: c["witness"].append(copy.deepcopy(c["witness"][0])),
        [COVERAGE]),
    "table-bad-index": (
        lambda: check_corollary_curves(C3, DiagonalIsogeny([2, 1])),
        _set("inputs", "multidegrees", 1, "I", [1, 1]),
        ["malformed certificate: bad multidegree index (1, 1)"]),
    "table-duplicate-index": (
        lambda: check_corollary_curves(C3, DiagonalIsogeny([2, 1])),
        _set("inputs", "multidegrees", 1, "I", [1, 0]),
        ["malformed certificate: duplicate multidegree index (1, 0)"]),
    "table-row-extra-key": (
        lambda: check_corollary_curves(C3, DiagonalIsogeny([2, 1])),
        _set("inputs", "multidegrees", 0, "note", "x"),
        ["inputs: echoed multidegrees disagrees"]),
    "table-row-order": (
        lambda: check_corollary_curves(C3, DiagonalIsogeny([2, 1])),
        lambda c: c["inputs"]["multidegrees"].reverse(),
        ["inputs: echoed multidegrees disagrees"]),
    "certified-with-reasons": (
        lambda: check_theorem_weak(C3, DiagonalIsogeny([29, 31])), _set("reasons", ["bogus"]),
        ["certificate: unexpected key 'reasons'"]),
    "unexpected-keys": (
        lambda: check_corollary_identity(C3, p=5),
        _edits(_set("hypotheses", "checked", True), _set("witness", "note", 0),
               _set("witness", "components", 1, "note", 0)),
        ["hypotheses: unexpected key 'checked'", "witness: unexpected key 'note'",
         "component 2: unexpected key 'note'"]),
    "strategy-order": (
        lambda: certify_auto(C3, DiagonalIsogeny([2, 1])),
        _set("strategy", "order", ["TheoremMain"]),
        ["strategy: echoed order disagrees"]),
    "strategy-attempt-verdict": (
        _multi_attempt,
        _set("strategy", "attempts", 0, "verdict", CERTIFIED),
        ["strategy: echoed attempts disagrees"]),
    "strategy-attempt-without-reasons": (
        _multi_attempt,
        _set("strategy", "attempts", 0, "reasons", []),
        ["malformed certificate: an Inconclusive attempt needs a non-empty list of "
         "reasons"]),
    "strategy-on-identity": (
        lambda: check_corollary_identity(C3, n=5),
        _set("strategy", {"order": [], "attempts": []}),
        ["malformed certificate: certify_auto never tries CorollaryIdentity"]),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_verify_reports_each_rejection(case):
    make, edit, problems = REJECTIONS[case]
    cert = make()
    assert cert.certified() and verify_certificate(cert) == (True, [])
    assert verify_certificate(_tampered(cert, edit)) == (False, problems)


# An Inconclusive payload is held to the keys and criterion names of a
# certified one; each case is a payload and the problems it must report.
INCONCLUSIVE_REJECTIONS = {
    "unknown-criterion": (
        lambda: {"criterion": "TheoremZ", "verdict": INCONCLUSIVE, "hypotheses": {},
                 "inputs": {"n_factors": 1, "dim": 1,
                            "multidegrees": [{"I": [1], "deg": 3}]},
                 "witness": None, "bogus": 1},
        ["unknown criterion 'TheoremZ'"]),
    "unexpected-keys": (
        lambda: _tampered(check_corollary_curves(C3, DiagonalIsogeny([1, 2])), _edits(
            _set("bogus", 1), _set("hypotheses", "checked", True),
            _set("inputs", "note", 0))),
        ["certificate: unexpected key 'bogus'", "hypotheses: unexpected key 'checked'",
         "inputs: unexpected key 'note'"]),
    "without-reasons": (
        lambda: _tampered(check_theorem_weak(C3, DiagonalIsogeny([2, 1])),
                          lambda c: c.pop("reasons")),
        ["malformed certificate: 'reasons'"]),
    "without-multipliers": (
        lambda: _tampered(check_corollary_identity(C3, p=3), lambda c: c["inputs"].pop("p")),
        ["malformed certificate: 'p'"]),
    "table-row-order": (
        lambda: _tampered(check_theorem_a(C3, [157, 167]),
                          lambda c: c["inputs"]["multidegrees"].reverse()),
        ["inputs: echoed multidegrees disagrees"]),
    "curve-criterion-at-dim-two": (
        lambda: _tampered(check_theorem_a(C3, [157, 167]), _to_dim_two),
        ["TheoremA needs dim 1, certificate has dim 2"]),
    "strategy-criterion": (
        lambda: _tampered(certify_auto(C3, DiagonalIsogeny([3, 3])),
                          _set("criterion", "TheoremMain")),
        ["malformed certificate: certify_auto ends on TheoremA when nothing certifies"]),
    "strategy-attempt-verdict": (
        lambda: _tampered(certify_auto(T3, DiagonalIsogeny([2, 2, 2])),
                          _set("strategy", "attempts", 0, "verdict", CERTIFIED)),
        ["strategy: echoed attempts disagrees"]),
}


@pytest.mark.parametrize("case", sorted(INCONCLUSIVE_REJECTIONS))
def test_verify_refuses_malformed_inconclusive_payloads(case):
    make, problems = INCONCLUSIVE_REJECTIONS[case]
    assert verify_certificate(make()) == (False, problems)


T2 = MultiDegreeTable(1, {(1, 0): 1, (0, 1): 1})
ZERO_MULTIPLIER = ["malformed certificate: multiplication by 0 is not an isogeny"]


def test_verify_refuses_curves_multiplier_zero():
    cert = check_corollary_curves(T2, DiagonalIsogeny([3, 5]))
    bad = _tampered(cert, _edits(_set("inputs", "alphas", [0, 1]),
                                 _set("witness", 0, "deg_alpha", 0),
                                 _set("witness", 1, "deg_alpha", 1)))
    assert verify_certificate(bad) == (False, ZERO_MULTIPLIER)


def test_verify_refuses_main_multipliers_zero():
    cert = check_theorem_main(T2, DiagonalIsogeny([3, 5]))
    bad = _tampered(cert, _set("inputs", "alphas", [0, 0]))
    assert verify_certificate(bad) == (False, ZERO_MULTIPLIER)


def test_verify_refuses_identity_n_zero():
    cert = check_corollary_identity(T2, n=5)
    bad = _tampered(cert, _set("inputs", "n", 0))
    assert verify_certificate(bad) == (False, ZERO_MULTIPLIER)


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaf_paths(value, path + (i,))
    else:
        yield path


def test_verify_never_raises_on_single_leaf_type_mutations():
    genuine = [cert.to_dict() for cert in _all_certified_examples()]
    assert {c["criterion"] for c in genuine} == set(AUTO_ORDER) | {"CorollaryIdentity"}
    replacements = (None, "x", [], {}, [0], 0.5, False, True)
    mutated = 0
    for cert in genuine:
        for path in _leaf_paths(cert):
            for value in replacements:
                bad = copy.deepcopy(cert)
                node = bad
                for key in path[:-1]:
                    node = node[key]
                if type(node[path[-1]]) is type(value):
                    continue
                node[path[-1]] = value
                ok, problems = verify_certificate(bad)
                assert isinstance(ok, bool)
                assert all(isinstance(p, str) for p in problems)
                mutated += 1
    assert mutated > 1000


def _nodes(node, path=()):
    yield path, node
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, value in children:
        yield from _nodes(value, path + (key,))


def _one_leaf_tamperings(payload):
    """(path, tampered copy) for each int + 1, each bool flipped, each string
    changed and one new key added to each object, the top level included."""
    for path, node in _nodes(payload):
        if isinstance(node, list):
            continue
        bad = copy.deepcopy(payload)
        parent = bad
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(node, dict):
            (parent[path[-1]] if path else bad)["new key"] = 0
            yield path + ("new key",), bad
        else:
            parent[path[-1]] = (not node if type(node) is bool else node + 1
                                if type(node) is int else node + "!")
            yield path, bad


# The only one-leaf tamperings that still verify, each free by design.  A
# TheoremMain or integer-mode CorollaryIdentity row's I is free as well,
# but no one-leaf change keeps it in the table, so the test after this one
# checks that freedom.
FREE_BY_DESIGN = {
    "strategy.attempts[k].reasons": "an Inconclusive attempt's reasons are free text",
}


def _free(path):
    if path[:2] == ("strategy", "attempts") and path[3:4] == ("reasons",):
        return "strategy.attempts[k].reasons"


def test_verify_refuses_every_one_leaf_tampering():
    genuine = [cert.to_dict() for cert in _all_certified_examples() + [_multi_attempt()]]
    assert {(c["criterion"], c["inputs"].get("mode")) for c in genuine} == {
        ("CorollaryCurves", None), ("TheoremMain", None), ("TheoremWeak", None),
        ("TheoremA", None), ("CorollaryIdentity", "integer"),
        ("CorollaryIdentity", "prime")}
    assert sum("strategy" in c for c in genuine) == 2
    tried = freed = 0
    for cert in genuine:
        assert verify_certificate(cert) == (True, [])
        with_reasons = dict(cert, reasons=["bogus"])
        for path, bad in [(("reasons",), with_reasons)] + list(_one_leaf_tamperings(cert)):
            tried += 1
            ok, problems = verify_certificate(bad)
            if ok:
                assert _free(path) in FREE_BY_DESIGN, path
                freed += 1
            else:
                assert problems
    assert tried > 250 and freed == 2  # the two reasons of _multi_attempt


def test_verify_lets_a_row_choose_any_valid_index():
    for cert in (check_theorem_main(T3, DiagonalIsogeny([1, 1, 1])),
                 check_corollary_identity(T3, n=1)):
        assert cert.witness[0]["I"] == [1, 1, 0]
        other = _tampered(cert, lambda c: c["witness"][0].update(I=[1, 0, 1]))
        if "J" in other["witness"][0]:
            other["witness"][0]["J"] = [1, 3]
        assert verify_certificate(other) == (True, [])
        other["witness"][0]["I"] = [0, 1, 1]  # i_1 = 0: not a choice for j = 1
        assert verify_certificate(other) == (
            False, ["component 1: bad index (0, 1, 1)"])


def test_verify_calls_no_checker(monkeypatch):
    payloads = [c.to_dict() for c in _all_certified_examples() + [_multi_attempt()]]

    def refuse(*args, **kwargs):
        raise AssertionError("the verifier called a checker")
    for name in dir(certificates):
        if name.startswith("check_") or name == "certify_auto":
            monkeypatch.setattr(certificates, name, refuse)
    for name in certificates.AUTO_CHECKS:
        monkeypatch.setitem(certificates.AUTO_CHECKS, name, refuse)
    for payload in payloads:
        assert verify_certificate(payload) == (True, [])


def test_to_dict_returns_fresh_containers():
    cert = check_corollary_curves(C3, DiagonalIsogeny([2, 1]))
    d = cert.to_dict()
    d["witness"][0]["d_j"] = 8
    d["hypotheses"]["transverse_input"] = False
    d["inputs"]["multidegrees"][0]["deg"] = 1
    assert verify_certificate(d)[0] is False
    assert cert.certified() and verify_certificate(cert) == (True, [])
    auto = certify_auto(C3, DiagonalIsogeny([2, 1]))
    auto.to_dict()["strategy"]["attempts"][0]["reasons"].append("bogus")
    assert verify_certificate(auto) == (True, [])


# ---------------------------------------------------------------------------
# randomized strictness and re-verification
# ---------------------------------------------------------------------------

def _random_table(rng):
    from itertools import combinations
    n = rng.randint(2, 4)
    dim = rng.randint(1, n)
    entries = {}
    for combo in combinations(range(n), dim):
        I = tuple(1 if i in combo else 0 for i in range(n))
        entries[I] = rng.randint(1, 40)
    return MultiDegreeTable(dim, entries)


def test_weak_implies_main_sampled():
    rng = random.Random(101)
    checked = 0
    for _ in range(400):
        table = _random_table(rng)
        alphas = [rng.choice([1, -1, 2, 3, 5, 7, 11, 97, 101, 997])
                  for _ in range(table.n_factors)]
        phi = DiagonalIsogeny(alphas)
        if check_theorem_weak(table, phi).certified():
            checked += 1
            assert check_theorem_main(table, phi).certified()
    assert checked > 20  # the sample must actually exercise the implication


def test_verify_random_certified_instances():
    rng = random.Random(202)
    verified = 0
    while verified < 150:
        table = _random_table(rng)
        alphas = [rng.choice([1, -1, 2, 3, 5, 7, 9, 10]) for _ in
                  range(table.n_factors)]
        phi = DiagonalIsogeny(alphas)
        cert = certify_auto(table, phi)
        if not cert.certified():
            continue
        ok, problems = verify_certificate(cert)
        assert ok, problems
        verified += 1
