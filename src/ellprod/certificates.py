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

verify_certificate re-derives every claim of a certificate from the
echoed inputs using nothing but integer arithmetic, so a certificate can
be checked at a desk without trusting this module's checkers.
"""

import json
from math import factorial, gcd

from .arith import is_prime, prime_factors, require_int
from .products import (SubvarietyPresentation, _table_of, exact_int,
                       read_multidegree_rows)

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
        out = {
            "criterion": self.criterion,
            "verdict": self.verdict,
            "hypotheses": self.hypotheses,
            "inputs": self.inputs,
            "witness": self.witness,
        }
        if self.reasons:
            out["reasons"] = self.reasons
        if self.strategy is not None:
            out["strategy"] = self.strategy
        return out

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
    """Re-derive a certificate's claim from its echoed inputs.

    Accepts the dict form (TransversalityCertificate.to_dict or parsed
    JSON).  Returns (ok, problems); a malformed payload, including a
    number that is not an exact int (bool, float and str are refused) or
    one beyond the proven range of ellprod.arith, gives (False,
    ["malformed certificate: ..."]) instead of an exception, as do a
    multiplier (alpha_j, prime or n) of 0 and a multidegree table that
    products.read_multidegree_rows refuses (an index out of shape,
    repeated or missing, or a negative degree).  Uses only integer arithmetic
    — primality and factoring from ellprod.arith, gcds, factorials —
    independently of the checkers above, and checks every value that a
    certified witness echoes.  An Inconclusive certificate asserts nothing
    and is accepted as long as it is well-formed.
    """
    if isinstance(cert, TransversalityCertificate):
        cert = cert.to_dict()
    try:
        return _reverify(cert)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        return False, ["malformed certificate: %s" % exc]


def _reverify(cert):
    criterion = cert["criterion"]
    verdict = cert["verdict"]
    hypotheses = cert["hypotheses"]
    inputs = cert["inputs"]
    witness = cert["witness"]
    dim = exact_int(inputs["dim"])
    nf = exact_int(inputs["n_factors"])
    entries = read_multidegree_rows(inputs["multidegrees"], nf, dim)
    if verdict not in (CERTIFIED, INCONCLUSIVE):
        return False, ["unknown verdict %r" % verdict]
    if verdict == INCONCLUSIVE:
        return True, []
    if hypotheses.get("transverse_input") is not True:
        return False, ["certified verdict without the transversality hypothesis"]
    bang = factorial(dim)
    total = bang * sum(entries.values())

    problems = []
    fail = problems.append

    def multiplier(value):
        m = exact_int(value)
        if m == 0:
            raise ValueError("multiplication by 0 is not an isogeny")
        return m

    def vector(key, what):
        values = [multiplier(v) for v in inputs[key]]
        if len(values) != nf:
            fail("%s vector length %d != %d factors" % (what, len(values), nf))
        return values

    def components(rows):
        """The witness rows with their j, then the check that the rows
        cover every component exactly once."""
        js = []
        for row in rows:
            j = exact_int(row["j"])
            js.append(j)
            yield j, row
        if sorted(js) != list(range(1, nf + 1)):
            fail("witness does not cover every component exactly once")

    def echoes(j, row, **values):
        """Fail for each value that row, component j's or for j = 0 the
        witness itself, does not echo as its JSON (an int as an exact int)."""
        for key, value in values.items():
            echoed = exact_int(row[key]) if type(value) is int else row[key]
            if json.dumps(echoed, sort_keys=True) != json.dumps(value, sort_keys=True):
                fail("%s: echoed %s disagrees"
                     % ("component %d" % j if j else "witness", key))

    if criterion == "TheoremA":
        if dim != 1:
            fail("TheoremA needs dim 1, certificate has dim %d" % dim)
        primes = vector("primes", "prime")
        threshold = total * nf * 3 ** (nf - 1)
        for j, row in components(witness):
            p = exact_int(row["p"])
            if not 1 <= j <= nf or p != primes[j - 1]:
                fail("witness row for j=%d does not match inputs" % j)
                continue
            if not is_prime(p):
                fail("component %d: %d is not prime" % (j, p))
            if abs(p) < threshold:
                fail("component %d: |%d| < threshold %d" % (j, p, threshold))
            if exact_int(row["threshold"]) != threshold:
                fail("component %d: echoed threshold disagrees (%s != %d)"
                     % (j, row["threshold"], threshold))
            echoes(j, row, is_prime=True, satisfied=True)
    elif criterion == "TheoremMain":
        alphas = vector("alphas", "alpha")
        for j, row in components(witness):
            J = [exact_int(k) for k in row["J"]]
            I = tuple(exact_int(i) for i in row["I"])
            if len(J) != dim or j not in J:
                fail("component %d: J=%r is not a size-%d set containing j"
                     % (j, J, dim))
                continue
            if I != tuple(1 if k + 1 in J else 0 for k in range(nf)):
                fail("component %d: I does not match J" % j)
                continue
            if I not in entries or exact_int(row["deg_I"]) != entries[I]:
                fail("component %d: deg_I does not match the table" % j)
                continue
            if gcd(alphas[j - 1] ** 2, bang * entries[I]) != 1:
                fail("component %d: gcd(alpha_j^2, dim! * deg_I) != 1" % j)
            echoes(j, row, dim_factorial=bang, deg_alpha_j=alphas[j - 1] ** 2, gcd=1)
    elif criterion == "TheoremWeak":
        alphas = vector("alphas", "alpha")
        primes = sorted({p for a in alphas for p in prime_factors(a)})
        bound = bang * total
        for p in primes:
            if p <= bound:
                fail("prime %d dividing deg(phi) is <= dim! * deg(V) = %d" % (p, bound))
        echoed = [exact_int(p) for p in witness["degree_primes"]]
        if echoed != primes:
            fail("echoed degree_primes %r != recomputed %r" % (echoed, primes))
        echoes(0, witness, bound=bound,
               comparisons=[{"p": p, "satisfied": p > bound} for p in primes])
    elif criterion == "CorollaryIdentity":
        mode = inputs["mode"]
        if mode == "integer":
            n = multiplier(inputs["n"])
            for j, row in components(witness):
                I = tuple(exact_int(i) for i in row["I"])
                if not 1 <= j <= nf or I not in entries or I[j - 1] != 1:
                    fail("component %d: bad index %r" % (j, I))
                    continue
                if exact_int(row["deg_I"]) != entries[I]:
                    fail("component %d: deg_I does not match the table" % j)
                    continue
                if gcd(n, bang * entries[I]) != 1:
                    fail("component %d: gcd(n, dim! * deg_I) != 1" % j)
                echoes(j, row, dim_factorial=bang, gcd=1)
        elif mode == "prime":
            p = exact_int(inputs["p"])
            if not is_prime(p):
                return False, ["p = %d is not prime" % p]
            if bang % abs(p) == 0:
                fail("p divides dim!")
            echoes(0, witness, dim_factorial=bang)
            for j, row in components(witness["components"]):
                g = gcd(*(d for I, d in entries.items() if I[j - 1] == 1))
                echoes(j, row, gcd_of_degrees=g)
                if g % abs(p) == 0:
                    fail("component %d: p divides every deg_I with i_j = 1" % j)
                else:  # a certified row echoes p_divides false
                    echoes(j, row, p_divides=False)
        else:
            fail("unknown CorollaryIdentity mode %r" % mode)
    elif criterion == "CorollaryCurves":
        if dim != 1:
            fail("CorollaryCurves needs dim 1, certificate has dim %d" % dim)
        alphas = vector("alphas", "alpha")
        for j, row in components(witness):
            if not 1 <= j <= nf:
                fail("witness names component %d outside 1..%d" % (j, nf))
                continue
            I = tuple(1 if k == j - 1 else 0 for k in range(nf))
            d_j = entries[I]
            echoes(j, row, d_j=d_j, deg_alpha=alphas[j - 1] ** 2, gcd=1)
            if gcd(alphas[j - 1] ** 2, d_j) != 1:
                fail("component %d: gcd(alpha_j^2, d_j) != 1" % j)
    else:
        fail("unknown criterion %r" % criterion)
    return (not problems), problems
