"""Integer number theory for the certificates, the isogenies and the
finite-field oracle: each answer is exact, and an input out of range
raises ValueError instead of getting a guess.  Also the constructors'
strict int and rational readers and the one place that lifts the
interpreter's int->str digit limit, for printing exact integers in full."""

import sys
from contextlib import contextmanager
from fractions import Fraction

# Miller-Rabin with the 13 prime bases 2..41 proves primality below
# MR_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
# 2017).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981
TRIAL_LIMIT = 10 ** 6


def require_int(v, name):
    """v if it is an int, not a bool; TypeError, never a truncation."""
    if type(v) is not int:
        raise TypeError("%s must be an int, got %r" % (name, v))
    return v


def require_rational(v, name):
    """v if it is an int (not a bool) or a Fraction; TypeError for a float
    (never its binary fraction) or any other type.  Text is not parsed
    either; it gets the ValueError of malformed numeric text."""
    if type(v) is not int and not isinstance(v, Fraction):
        error = ValueError if isinstance(v, str) else TypeError
        raise error("%s must be an int or a Fraction, got %r" % (name, v))
    return v


def is_prime(n):
    """Is |n| prime?  Proven for |n| < MR_LIMIT; ValueError above."""
    n = abs(require_int(n, "n"))
    if n >= MR_LIMIT:
        raise ValueError("primality of %d is beyond the proven range of the "
                         "13-base Miller-Rabin test (< %d)" % (n, MR_LIMIT))
    if n < 2:
        return False
    for a in MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n):
    """Sorted distinct primes dividing |n|, by trial division up to
    TRIAL_LIMIT and is_prime on the cofactor left; [] for +-1.

    ValueError for 0, and for a cofactor that is composite or too large
    for is_prime.
    """
    n = abs(require_int(n, "n"))
    if n == 0:
        raise ValueError("0 has no finite prime factorization")
    primes = []
    d = 2
    while d <= TRIAL_LIMIT and d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        if not is_prime(n):
            raise ValueError("cofactor %d has no prime factor up to %d and is "
                             "composite" % (n, TRIAL_LIMIT))
        primes.append(n)
    return primes


@contextmanager
def unlimited_int_str():
    """Lift the interpreter's int->str digit limit (Python 3.10.7 on) inside
    the block and restore it after; callers bound the lengths themselves."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
