"""Transversality-preservation certificates for diagonal pullbacks.

Each checker inspects purely numerical data — the multidegree table of
the subvariety and the integer multipliers of the diagonal isogeny (or a
list of primes / a single integer for the specialized criteria) — and
returns a certificate whose verdict is either "CertifiedTransverse" or
"Inconclusive".  Inconclusive never means "not transverse"; it only
means the sufficient condition tested here does not apply.

Transversality of the *input* subvariety is always an assumption, not
something these checks establish; every certificate restates the input
flag under hypotheses.transverse_input, and a certificate whose flag is
false certifies nothing.

The criteria:

  TheoremA            dim-1 input; every |p_j| prime and >= deg(C) * N * 3^(N-1)
  TheoremMain         for every j some position set J of size dim with j in J
                      and gcd(alpha_j^2, dim! * deg_{I_J}) = 1
  TheoremWeak         every prime dividing deg(phi) exceeds dim! * deg(V)
  CorollaryIdentity   [n] on every factor; integer mode: for every j some I
                      with i_j = 1 and gcd(n, dim! * deg_I) = 1; prime mode:
                      p does not divide dim! nor, for any j, all deg_I with
                      i_j = 1
  CorollaryCurves     dim-1 input; gcd(alpha_j^2, d_j) = 1 for every j

verify_certificate re-derives a claim from the echoed inputs by integer
arithmetic alone, without this module's checkers: a certified payload is
compared whole with what its inputs imply, which has exactly these keys.
An Inconclusive payload claims nothing: it has the same keys and names,
but its reasons, hypothesis value, multipliers and witness are free.

  top level    criterion, verdict, hypotheses, inputs, witness, and
               strategy from certify_auto; reasons if and only if
               Inconclusive
  hypotheses   transverse_input, true
  inputs       n_factors, dim, multidegrees (rows of I and deg in index
               order), then primes, alphas, or mode with n or p
  witness      the checker's row for each component j = 1..N in order, or
               for TheoremWeak and prime mode the checker's object
  strategy     order: AUTO_ORDER, without CURVES_ONLY unless dim is 1, cut
               after the criterion (the last, if Inconclusive); attempts:
               one per name, each earlier one Inconclusive, the last the
               criterion's with its verdict, and reasons [] if certified
"""

import copy
import json
from math import factorial, gcd

from .arith import is_prime, prime_factors, require_int
from .products import (MultiDegreeTable, SubvarietyPresentation, _table_of,
                       exact_int, read_multidegree_rows)

CERTIFIED = "CertifiedTransverse"
INCONCLUSIVE = "Inconclusive"


class TransversalityCertificate:
    def __init__(self, criterion, verdict, hypotheses, inputs, witness,
                 reasons=(), strategy=None):
        self.criterion = criterion
        self.verdict = verdict
        self.hypotheses = hypotheses
        self.inputs = inputs
        self.witness = witness
        self.reasons = list(reasons)
        self.strategy = strategy

    def certified(self):
        return self.verdict == CERTIFIED

    def to_dict(self):
        """The JSON payload, in fresh containers that the caller may edit."""
        out = {"criterion": self.criterion, "verdict": self.verdict,
               "hypotheses": self.hypotheses, "inputs": self.inputs,
               "witness": self.witness}
        if self.reasons:
            out["reasons"] = self.reasons
        if self.strategy is not None:
            out["strategy"] = self.strategy
        return copy.deepcopy(out)

    def __repr__(self):
        return "TransversalityCertificate(%s, %s)" % (self.criterion, self.verdict)


def _inputs_echo(V, extra):
    table = _table_of(V)
    return {"n_factors": table.n_factors, "dim": table.dim,
            "multidegrees": table.rows(), **extra}


def _hypotheses(V):
    """The hypotheses block, and the reasons list it starts with: an input
    not flagged transverse is never certified."""
    flag = V.transverse if isinstance(V, SubvarietyPresentation) else True
    reasons = [] if flag else ["input subvariety is not flagged transverse"]
    return {"transverse_input": flag}, reasons


def _conclude(criterion, hypotheses, inputs, witness, reasons):
    """Certified exactly when no reason stands against it."""
    verdict = INCONCLUSIVE if reasons else CERTIFIED
    return TransversalityCertificate(criterion, verdict, hypotheses, inputs,
                                     witness, reasons)


def _check_arity(table, count, what):
    if count != table.n_factors:
        raise ValueError("%s has %d components, subvariety lives in %d factors"
                         % (what, count, table.n_factors))


def check_theorem_a(C, primes):
    """Prime multipliers all of absolute value >= deg(C) * N * 3^(N-1)."""
    table = _table_of(C)
    if table.dim != 1:
        raise ValueError("TheoremA applies to curves (dim 1), got dim %d" % table.dim)
    primes = [require_int(p, "prime") for p in primes]
    _check_arity(table, len(primes), "prime vector")
    hypotheses, reasons = _hypotheses(C)
    n = table.n_factors
    threshold = table.total_degree() * n * 3 ** (n - 1)
    witness = []
    for j, p in enumerate(primes, start=1):
        prime_ok = is_prime(p)
        size_ok = abs(p) >= threshold
        witness.append({"j": j, "p": p, "is_prime": prime_ok,
                        "threshold": threshold, "satisfied": prime_ok and size_ok})
        if not prime_ok:
            reasons.append("component %d: %d is not prime" % (j, p))
        elif not size_ok:
            reasons.append("component %d: |%d| < threshold %d" % (j, p, threshold))
    return _conclude("TheoremA", hypotheses,
                     _inputs_echo(C, {"primes": primes}), witness, reasons)


def _coprime_index(table, j, m, bang):
    """The first I in index_order with i_j = 1 and gcd(m, bang * deg_I) = 1,
    or None."""
    for I in table.index_order():
        if I[j - 1] == 1 and gcd(m, bang * table.get(I)) == 1:
            return I
    return None


def check_theorem_main(V, phi):
    """Per component j, a size-dim position set J containing j whose
    multidegree entry is coprime to alpha_j^2 after the dim! factor."""
    table = _table_of(V)
    _check_arity(table, phi.n_factors, "isogeny")
    hypotheses, reasons = _hypotheses(V)
    bang = factorial(table.dim)
    witness = []
    for j in range(1, table.n_factors + 1):
        deg_a = phi.alphas[j - 1] ** 2
        I = _coprime_index(table, j, deg_a, bang)
        if I is None:
            reasons.append(
                "component %d: no position set J of size %d containing it has "
                "gcd(alpha_j^2 = %d, %d * deg_I) = 1" % (j, table.dim, deg_a, bang))
        else:
            J = [k for k, i in enumerate(I, start=1) if i]
            witness.append({"j": j, "J": J, "I": list(I), "deg_I": table.get(I),
                            "dim_factorial": bang, "deg_alpha_j": deg_a, "gcd": 1})
    return _conclude("TheoremMain", hypotheses,
                     _inputs_echo(V, {"alphas": list(phi.alphas)}), witness, reasons)


def check_theorem_weak(V, phi):
    """Every prime dividing deg(phi) exceeds dim! * deg(V)."""
    table = _table_of(V)
    _check_arity(table, phi.n_factors, "isogeny")
    hypotheses, reasons = _hypotheses(V)
    bound = factorial(table.dim) * table.total_degree()
    primes = phi.factor_degree_primes()
    witness = {"degree_primes": primes, "bound": bound,
               "comparisons": [{"p": p, "satisfied": p > bound} for p in primes]}
    for p in primes:
        if p <= bound:
            reasons.append("prime %d dividing deg(phi) is <= bound %d" % (p, bound))
    return _conclude("TheoremWeak", hypotheses,
                     _inputs_echo(V, {"alphas": list(phi.alphas)}), witness, reasons)


def check_corollary_identity(V, n=None, p=None):
    """Multiplication by the same integer on every factor.

    Integer mode (n): per component j an index I with i_j = 1 and
    gcd(n, dim! * deg_I) = 1.  Prime mode (p): p prime, not dividing
    dim!, and for no j dividing every deg_I with i_j = 1.
    """
    if (n is None) == (p is None):
        raise ValueError("give exactly one of n (integer mode) or p (prime mode)")
    table = _table_of(V)
    hypotheses, reasons = _hypotheses(V)
    nf = table.n_factors
    bang = factorial(table.dim)
    if n is not None:
        n = require_int(n, "n")
        if n == 0:
            raise ValueError("multiplication by 0 is not an isogeny")
        witness = []
        for j in range(1, nf + 1):
            I = _coprime_index(table, j, n, bang)
            if I is None:
                reasons.append("component %d: no index I with i_j = 1 and "
                               "gcd(%d, %d * deg_I) = 1" % (j, n, bang))
            else:
                witness.append({"j": j, "I": list(I), "deg_I": table.get(I),
                                "dim_factorial": bang, "gcd": 1})
        return _conclude("CorollaryIdentity", hypotheses,
                         _inputs_echo(V, {"mode": "integer", "n": n}), witness, reasons)
    p = require_int(p, "p")
    if not is_prime(p):
        raise ValueError("prime mode needs a prime, got %d" % p)
    rows = []
    if bang % abs(p) == 0:
        reasons.append("p = %d divides dim! = %d" % (p, bang))
    for j in range(1, nf + 1):
        g = gcd(*(table.get(I) for I in table.index_order() if I[j - 1] == 1))
        divides = (g % abs(p) == 0)  # p | gcd, noting gcd 0 means all entries 0
        rows.append({"j": j, "gcd_of_degrees": g, "p_divides": divides})
        if divides:
            reasons.append("component %d: p = %d divides every deg_I with i_j = 1"
                           % (j, p))
    return _conclude("CorollaryIdentity", hypotheses,
                     _inputs_echo(V, {"mode": "prime", "p": p}),
                     {"dim_factorial": bang, "components": rows}, reasons)


def check_corollary_curves(C, phi):
    """Curves: gcd(alpha_j^2, d_j) = 1 for every component j."""
    table = _table_of(C)
    if table.dim != 1:
        raise ValueError("CorollaryCurves applies to curves (dim 1), got dim %d"
                         % table.dim)
    _check_arity(table, phi.n_factors, "isogeny")
    hypotheses, reasons = _hypotheses(C)
    n = table.n_factors
    witness = []
    for j in range(1, n + 1):
        I = tuple(1 if k == j - 1 else 0 for k in range(n))
        d_j = table.get(I)
        deg_a = phi.alphas[j - 1] ** 2
        g = gcd(deg_a, d_j)
        witness.append({"j": j, "d_j": d_j, "deg_alpha": deg_a, "gcd": g})
        if g != 1:
            reasons.append("component %d: gcd(alpha_j^2 = %d, d_j = %d) = %d != 1"
                           % (j, deg_a, d_j, g))
    return _conclude("CorollaryCurves", hypotheses,
                     _inputs_echo(C, {"alphas": list(phi.alphas)}), witness, reasons)


# The criteria certify_auto tries, in order; the multipliers are
# TheoremA's prime vector.
AUTO_CHECKS = {
    "CorollaryCurves": check_corollary_curves,
    "TheoremMain": check_theorem_main,
    "TheoremWeak": check_theorem_weak,
    "TheoremA": lambda V, phi: check_theorem_a(V, list(phi.alphas)),
}
AUTO_ORDER = tuple(AUTO_CHECKS)
CURVES_ONLY = ("CorollaryCurves", "TheoremA")


def certify_auto(V, phi):
    """Try the criteria in the fixed order CorollaryCurves (curves only),
    TheoremMain, TheoremWeak, TheoremA with the multipliers as the prime
    vector (curves only); return the first certifying certificate, or the
    last attempt with every attempt's reasons if none certifies."""
    table = _table_of(V)
    attempts = []
    cert = None
    for name, check in AUTO_CHECKS.items():
        if name in CURVES_ONLY and table.dim != 1:
            continue
        cert = check(V, phi)
        attempts.append({"criterion": name, "verdict": cert.verdict,
                         "reasons": cert.reasons})
        if cert.certified():
            break
    cert.strategy = {"order": [a["criterion"] for a in attempts],
                     "attempts": attempts}
    return cert


# -- independent verification --------------------------------------------


def verify_certificate(cert):
    """(ok, problems) for a certificate or its dict form (to_dict or JSON).

    A certified payload is compared whole with what its inputs imply (the
    keys are in the module docstring): each key beyond those, and each
    value whose JSON differs, an int read as an exact int, is one problem.
    Free by design are an Inconclusive strategy attempt's reasons, a
    non-empty list of strings, and the index I of a TheoremMain or
    integer-mode CorollaryIdentity row, which must be in the table with
    i_j = 1 and from which the rest of the row is rebuilt.  An Inconclusive
    payload is held to the same keys, names and table, its other values
    free (module docstring).

    A malformed payload gives (False, ["malformed certificate: ..."]),
    never an exception: a missing key, a number that is not an exact int
    (bool, float, str) or is beyond ellprod.arith's proven range, a
    multiplier (alpha_j, prime or n) of 0, a multiplier vector of the wrong
    length, or a table that products.read_multidegree_rows refuses.
    """
    if isinstance(cert, TransversalityCertificate):
        cert = cert.to_dict()
    try:
        return _reverify(cert)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return False, ["malformed certificate: %s" % exc]


# A value _diff leaves alone: certified witness rows, compared one by one,
# and what an Inconclusive payload leaves free.
_FREE = object()


def _diff(where, actual, expected, fail):
    """Fail for each key of the object actual that expected lacks and for
    each value whose JSON differs from expected's, reading an int as an
    exact int; a key actual lacks raises KeyError.  A nested object is
    compared the same way under its own key; _FREE is skipped."""
    for key in actual:
        if key not in expected:
            fail("%s: unexpected key %r" % (where, key))
    for key, value in expected.items():
        echoed = actual[key]
        if type(value) is dict:
            _diff(key, echoed, value, fail)
        elif value is not _FREE and json.dumps(
                exact_int(echoed) if type(value) is int else echoed,
                sort_keys=True) != json.dumps(value, sort_keys=True):
            fail("%s: echoed %s disagrees" % (where, key))


def _strategy(criterion, verdict, dim, attempts):
    """certify_auto's strategy when it ends on criterion with verdict at
    dim; each Inconclusive attempt keeps its reasons, which must be a
    non-empty list of strings."""
    order = [c for c in AUTO_ORDER if dim == 1 or c not in CURVES_ONLY]
    if criterion not in order:
        raise ValueError("certify_auto never tries %s" % criterion)
    if verdict == INCONCLUSIVE and criterion != order[-1]:
        raise ValueError("certify_auto ends on %s when nothing certifies" % order[-1])
    order = order[:order.index(criterion) + 1]
    last = [] if verdict == INCONCLUSIVE else [
        {"criterion": criterion, "verdict": CERTIFIED, "reasons": []}]
    reasons = [attempt["reasons"] for attempt in attempts[:len(order) - len(last)]]
    if not all(type(r) is list and r and all(type(s) is str for s in r) for r in reasons):
        raise ValueError("an Inconclusive attempt needs a non-empty list of reasons")
    return {"order": order, "attempts": [
        {"criterion": c, "verdict": INCONCLUSIVE, "reasons": r} for c, r in zip(order, reasons)
    ] + last}


def _reverify(cert):
    criterion, verdict = cert["criterion"], cert["verdict"]
    hypotheses, inputs, witness = cert["hypotheses"], cert["inputs"], cert["witness"]
    dim, nf = exact_int(inputs["dim"]), exact_int(inputs["n_factors"])
    table = MultiDegreeTable(dim, read_multidegree_rows(inputs["multidegrees"], nf, dim))
    if verdict not in (CERTIFIED, INCONCLUSIVE):
        return False, ["unknown verdict %r" % verdict]
    claims = verdict == CERTIFIED  # an Inconclusive payload leaves its values _FREE
    if claims and hypotheses.get("transverse_input") is not True:
        return False, ["certified verdict without the transversality hypothesis"]
    if criterion in CURVES_ONLY and dim != 1:
        return False, ["%s needs dim 1, certificate has dim %d" % (criterion, dim)]
    mode = inputs["mode"] if criterion == "CorollaryIdentity" else None
    if criterion == "CorollaryIdentity" and mode not in ("integer", "prime"):
        return False, ["unknown CorollaryIdentity mode %r" % (mode,)]
    if criterion not in AUTO_ORDER + ("CorollaryIdentity",):
        return False, ["unknown criterion %r" % (criterion,)]
    entries, bang = table.entries, factorial(dim)
    problems = []
    fail = problems.append
    shape = _FREE
    key = "p" if mode == "prime" else {"TheoremA": "primes", "CorollaryIdentity": "n"}.get(
        criterion, "alphas")
    if not claims:
        extra = {"mode": mode, key: _FREE} if mode else {key: _FREE}
    elif mode == "prime":
        p = exact_int(inputs["p"])
        if not is_prime(p):
            return False, ["p = %d is not prime" % p]
        if bang % abs(p) == 0:
            fail("p divides dim!")
        extra = {"mode": mode, "p": p}
        shape = {"dim_factorial": bang, "components": _FREE}
    else:  # the multipliers, with each alpha_j as its degree alpha_j^2
        ms = [exact_int(m) for m in ([inputs[key]] * nf if mode else inputs[key])]
        if 0 in ms:
            raise ValueError("multiplication by 0 is not an isogeny")
        if len(ms) != nf:
            raise ValueError("%d %s for %d factors" % (len(ms), key, nf))
        extra = {"mode": mode, "n": ms[0]} if mode else {key: ms}
        ms = [a * a for a in ms] if key == "alphas" else ms

    def want(j, row):  # row j as it should read, once its condition is checked
        if mode == "prime":
            g = gcd(*(d for I, d in entries.items() if I[j - 1] == 1))
            if g % abs(p) == 0:  # gcd 0 means all entries 0
                fail("component %d: p divides every deg_I with i_j = 1" % j)
            return {"j": j, "gcd_of_degrees": g, "p_divides": False}
        m = ms[j - 1]
        if criterion == "TheoremA":
            threshold = table.total_degree() * nf * 3 ** (nf - 1)
            if not is_prime(m):
                fail("component %d: %d is not prime" % (j, m))
            if abs(m) < threshold:
                fail("component %d: |%d| < threshold %d" % (j, m, threshold))
            return {"j": j, "p": m, "is_prime": True, "threshold": threshold,
                    "satisfied": True}
        if criterion == "CorollaryCurves":
            d_j = entries[tuple(int(k == j - 1) for k in range(nf))]
            if gcd(m, d_j) != 1:
                fail("component %d: gcd(alpha_j^2, d_j) != 1" % j)
            return {"j": j, "d_j": d_j, "deg_alpha": m, "gcd": 1}
        I = tuple(exact_int(i) for i in row["I"])  # free: any I with i_j = 1
        if I not in entries or I[j - 1] != 1:
            return fail("component %d: bad index %r" % (j, I))
        if gcd(m, bang * entries[I]) != 1:
            fail("component %d: gcd(%s, dim! * deg_I) != 1"
                 % (j, "n" if mode else "alpha_j^2"))
        out = {"j": j, "J": [k for k, i in enumerate(I, start=1) if i], "I": list(I),
               "deg_I": entries[I], "dim_factorial": bang, "deg_alpha_j": m, "gcd": 1}
        if mode:  # CorollaryIdentity's rows name neither J nor deg_alpha_j
            del out["J"], out["deg_alpha_j"]
        return out

    if claims and criterion == "TheoremWeak":
        primes = sorted({q for a in extra["alphas"] for q in prime_factors(a)})
        bound = bang * table.total_degree()
        for q in primes:
            if q <= bound:
                fail("prime %d dividing deg(phi) is <= dim! * deg(V) = %d" % (q, bound))
        shape = {"degree_primes": primes, "bound": bound,
                 "comparisons": [{"p": q, "satisfied": True} for q in primes]}
    expected = {"criterion": criterion, "verdict": verdict,
                "hypotheses": {"transverse_input": True if claims else _FREE},
                "inputs": {"n_factors": nf, "dim": dim,
                           "multidegrees": table.rows(), **extra},
                "witness": shape}
    if not claims:
        expected["reasons"] = _FREE
    if "strategy" in cert:
        expected["strategy"] = _strategy(criterion, verdict, dim, cert["strategy"]["attempts"])
    _diff("certificate", cert, expected, fail)
    if claims and criterion != "TheoremWeak":
        rows = witness["components"] if mode == "prime" else witness
        if len(rows) != nf:
            fail("witness does not cover every component exactly once")
            rows = []
        for j, row in enumerate(rows, start=1):
            row_want = want(j, row)
            if row_want is not None:
                _diff("component %d" % j, row, row_want, fail)
    return (not problems), problems
