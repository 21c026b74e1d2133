"""Seeded job lists for the three benchmark workloads.

Everything here is plain data built from the seed with the benchmark's
own integer arithmetic; nothing imports ellprod, so the lists can be
generated and tested without the program.  The same (seed, seconds)
always gives byte-identical lists (see ``dumps``).

A list is made of blocks.  Every block has the same composition of job
classes with freshly drawn inputs, and the number of blocks follows
from ``--seconds`` alone (never from how fast the program is), so a run
always completes its whole list and the job-time distribution keeps its
shape from one commit to the next.
"""

import json
import random

# Curve coefficients are drawn with 32 <= |A|, |B| <= 63 (all of six
# bits) so that a job's coefficient sizes, and so its cost, depend on its
# class and hardly on the seed.
COEFF_MIN, COEFF_MAX = 32, 63

# Exhaustive oracle primes (the oracle scans every tuple for p <= 31).
EXHAUSTIVE_PRIMES = (13, 17, 19, 23, 29, 31)
# From p = 17 on, #E(F_p) >= p + 1 - 2 sqrt(p) > 9 >= #E[alpha] for
# |alpha| <= 3, so a scan cannot find every tuple on the excluded locus.
NONVACUOUS_PRIMES = (17, 19, 23, 29, 31)
# Sampled oracle primes near 100 and near 1009.
PRIMES_NEAR_100 = tuple(range(101, 150))
PRIMES_NEAR_1009 = tuple(range(1009, 1110))
# oracle-scan draws each prime from the few smallest good ones of its
# range: a scan's cost grows with p (as p^2 when exhaustive), and a wide
# draw would make a job's cost depend on the seed more than on the program.
ORACLE_PRIME_CHOICES = 3

# preimage-fresh: one job per entry and block.  Single-slot isogenies of
# moderate degree and two-slot ones; classes slower than about 1 s at the
# parent ([5,5], [7,7], [3,3] with n = 2, ...) are left out.  [4,1] with
# n = 2 is the class of median cost and comes twice, so that the median
# job falls inside one class rather than between two.
PREIMAGE_CLASSES = (
    ((1, 3), 1), ((1, 3), 2), ((3, 1), 1), ((3, 1), 2),
    ((2, 2), 1), ((2, 2), 2), ((2, 3), 1), ((2, 3), 2),
    ((3, 2), 1), ((4, 1), 1), ((4, 1), 2), ((4, 1), 2), ((1, 4), 1),
    ((1, 4), 2), ((5, 1), 1), ((5, 1), 2), ((1, 5), 1),
)
PREIMAGE_BLOCK_S = 1.7
# The warm-up fills the symbolic division-polynomial cache up to the
# largest multiplier and touches both curve shapes.
PREIMAGE_WARMUP = (((1, 5), 1), ((4, 1), 2), ((2, 3), 2))

# oracle-scan: preimages built in set-up, |alpha| <= 3, ORACLE_PREIMAGES
# per class.  In every block each class has three jobs: one exhaustive
# prime, that plus one prime near 100, that plus one prime near 1009, all
# drawn afresh; block b checks the class's preimage b mod ORACLE_PREIMAGES.
ORACLE_CLASSES = (
    ((2, 1), 1), ((1, 2), 2), ((-2, 1), 2), ((3, 1), 1),
    ((1, 3), 2), ((1, -3), 1), ((2, 2), 1), ((3, 2), 1),
)
ORACLE_BLOCK_S = 2.4
ORACLE_PREIMAGES = 4

CLI_BLOCK_S = 2.6
# cli-cold: the isogenies of the two preimage and the two oracle jobs of
# block b are entry b mod 4 (signs drawn), so that every seed has the
# same mix of job costs.
CLI_PREIMAGE_ALPHAS = (((2, 1), (1, 2)), ((1, 3), (3, 1)), ((3, 2), (2, 2)), ((2, 2), (1, 3)))
CLI_ORACLE_ALPHAS = (((2, 1), (1, 3)), ((1, 2), (3, 1)), ((3, 1), (2, 1)), ((1, 3), (1, 2)))

# Trial division in certify costs about 3 ms at 10^9 and 120 ms at 10^12;
# the parent does not finish primes of 10^13 or more in bounded time.
CERT_PRIME_LOG10 = (9.0, 12.0)


def dumps(lists):
    """Canonical text of a job list, for byte-identity checks."""
    return json.dumps(lists, sort_keys=True, separators=(",", ":"))


def blocks_for(seconds, block_s):
    return max(1, round(seconds / block_s))


# -- number theory (the benchmark's own, independent of ellprod) ---------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def discriminant(A, B):
    return -16 * (4 * A ** 3 + 27 * B ** 2)


def is_good_prime(p, curves, alphas):
    """p reduces the curves well and keeps the multipliers separable."""
    if not is_prime(p) or p in (2, 3):
        return False
    if any(discriminant(A, B) % p == 0 for A, B in curves):
        return False
    return all(a % p for a in alphas)


def good_primes(candidates, curves, alphas):
    return [p for p in candidates if is_good_prime(p, curves, alphas)]


# -- drawing inputs -------------------------------------------------------


def _coeff(rng):
    return rng.choice((-1, 1)) * rng.randint(COEFF_MIN, COEFF_MAX)


def _curve(rng):
    while True:
        A, B = _coeff(rng), _coeff(rng)
        if discriminant(A, B):
            return [A, B]


class _PairSource:
    """Curve pairs that never repeat within one job list."""

    def __init__(self, rng):
        self.rng = rng
        self.seen = set()

    def draw(self):
        while True:
            pair = [_curve(self.rng), _curve(self.rng)]
            key = tuple(map(tuple, pair))
            if key not in self.seen:
                self.seen.add(key)
                return pair


def _prime_between(rng, lo, hi):
    while True:
        n = rng.randrange(lo, hi) | 1
        if is_prime(n):
            return n


# -- preimage-fresh -------------------------------------------------------


def preimage_fresh(seed, seconds):
    """Warm-up and timed jobs: one generate_preimage call each."""
    rng = random.Random("preimage-fresh:%d" % seed)
    pairs = _PairSource(rng)

    def job(alphas, n):
        curves = pairs.draw()
        return {"curves": curves, "n": n, "alphas": list(alphas),
                "check_primes": good_primes(EXHAUSTIVE_PRIMES, curves, alphas)}

    warmup = [job(a, n) for a, n in PREIMAGE_WARMUP]
    timed = []
    for _ in range(blocks_for(seconds, PREIMAGE_BLOCK_S)):
        block = [job(a, n) for a, n in PREIMAGE_CLASSES]
        rng.shuffle(block)
        timed.extend(block)
    return {"warmup": warmup, "timed": timed}


# -- oracle-scan -----------------------------------------------------------


def oracle_scan(seed, seconds):
    """Preimages to build in set-up, and oracle jobs over them."""
    rng = random.Random("oracle-scan:%d" % seed)
    pairs = _PairSource(rng)
    preimages = []
    timed = []

    def add_preimage(alphas, n):
        curves = pairs.draw()
        preimages.append({"curves": curves, "n": n, "alphas": list(alphas)})
        return len(preimages) - 1, curves

    def pick(candidates, curves, alphas):
        return rng.choice(good_primes(candidates, curves, alphas)[:ORACLE_PRIME_CHOICES])

    w, curves = add_preimage(*ORACLE_CLASSES[0])
    warmup = [{"pre": w, "primes": [pick(NONVACUOUS_PRIMES, curves, ORACLE_CLASSES[0][0])]}]
    built = [[add_preimage(alphas, n) for _ in range(ORACLE_PREIMAGES)]
             for alphas, n in ORACLE_CLASSES]
    for b in range(blocks_for(seconds, ORACLE_BLOCK_S)):
        block = []
        for (alphas, n), pres in zip(ORACLE_CLASSES, built):
            idx, curves = pres[b % ORACLE_PREIMAGES]
            for extra in ((), PRIMES_NEAR_100, PRIMES_NEAR_1009):
                primes = [pick(NONVACUOUS_PRIMES, curves, alphas)]
                if extra:
                    primes.append(pick(extra, curves, alphas))
                block.append({"pre": idx, "primes": primes})
        rng.shuffle(block)
        timed.extend(block)
    return {"preimages": preimages, "warmup": warmup, "timed": timed}


# -- cli-cold --------------------------------------------------------------


def _variety(curves, n):
    return {"curves": [{"A": A, "B": B} for A, B in curves],
            "equations": ["y2 - x1^%d" % n if n > 1 else "y2 - x1"],
            "dim": 1,
            "multidegrees": [{"I": [1, 0], "deg": 9}, {"I": [0, 1], "deg": 6 * n}],
            "transverse": True}


def _alpha(rng, top):
    return rng.choice((-1, 1)) * rng.randint(1, top)


def _signed(rng, alphas):
    return [rng.choice((-1, 1)) * a for a in alphas]


def _cli_block(rng, pairs, b, files):
    """One block of desk-sized CLI invocations.

    Each job: argv after ``python -m ellprod.cli``, the exit codes it may
    return, and the kind of output check to run on it.
    """
    names = []
    for n in (1, 2):
        curves = pairs.draw()
        name = "v%d_%d.json" % (b, n)
        files[name] = {"variety": _variety(curves, n), "curves": curves, "n": n}
        names.append(name)
    jobs = []

    def add(argv, expect, check, **extra):
        job = {"argv": argv, "expect": expect, "check": check}
        job.update(extra)
        jobs.append(job)

    for name in names:
        alphas = [_alpha(rng, 5), _alpha(rng, 5)]
        add(["certify", "--variety", name, "--isogeny", json.dumps(alphas)],
            [0, 1], "certify")
    # Four primes per block, one from each quarter of the log range and
    # paired as (first, last) and (second, third), so that the cost of a
    # block's trial divisions, and of each of its two jobs, does not
    # depend on the seed.
    lo, hi = CERT_PRIME_LOG10
    exps = [lo + (hi - lo) * (k + rng.random()) / 4 for k in (0, 3, 1, 2)]
    for k in range(3):
        name = names[k % 2]
        if k == 2:
            # a composite with a small factor: Inconclusive
            primes = [_prime_between(rng, 1000, 2000) * _prime_between(rng, 1000, 2000),
                      _prime_between(rng, 10 ** 9, 10 ** 10)]
            expect = [1]
        else:
            primes, expect = [], [0]
            for e in exps[2 * k:2 * k + 2]:
                start = int(10 ** e)
                primes.append(_prime_between(rng, start, start + 10 ** 6))
        add(["certify", "--variety", name, "--criterion", "theorem-a",
             "--primes", json.dumps(primes)], expect, "certify")
    for name in names:
        alphas = [_alpha(rng, 7), _alpha(rng, 7)]
        add(["degree", "--variety", name, "--isogeny", json.dumps(alphas)],
            [0], "degree", variety=name, alphas=alphas)
    for name, alphas in zip(names, CLI_PREIMAGE_ALPHAS[b % 4]):
        alphas = _signed(rng, alphas)
        add(["preimage", "--variety", name, "--isogeny", json.dumps(alphas)],
            [0], "preimage", variety=name, alphas=alphas)
    repeat = dict(jobs[-2])
    for k, name in enumerate(names):
        curves = files[name]["curves"]
        argv = ["constants", "--curves",
                json.dumps([{"A": A, "B": B} for A, B in curves])]
        if k:
            argv.append("--better")
        add(argv, [0], "numbers")
    add(["bounds", "--kind", "c0", "--d1", str(rng.randint(1, 12)),
         "--d2", str(rng.randint(1, 12)), "--m", str(rng.randint(0, 6)),
         "--method", rng.choice(("double_sum", "harmonic"))], [0], "numbers")
    add(["bounds", "--kind", "zhang", "--n-factors", str(rng.randint(2, 4)),
         "--h2q", "%.3f" % rng.uniform(0, 5), "--c3", "%.3f" % rng.uniform(0, 30)],
        [0], "numbers")
    add(["bounds", "--kind", "bezout", "--deg-pre", str(rng.randint(1, 500)),
         "--h2-pre", "%.3f" % rng.uniform(0, 9), "--deg-b", str(rng.randint(1, 9)),
         "--h2-b", "%.3f" % rng.uniform(0, 9), "--dim-b", str(rng.randint(1, 2)),
         "--n-factors", "2", "--deg-phi", str(rng.randint(1, 400))], [0], "numbers")
    add(["bounds", "--kind", "galateau-lambda", "--n-factors",
         str(rng.randint(2, 5)), "--k", str(rng.randint(0, 4))], [0], "numbers")
    add(["bounds", "--kind", "essential-minimum", "--n-factors", "2", "--r", "2",
         "--dl", str(rng.randint(1, 4)), "--alpha", str(rng.randint(2, 9)),
         "--degc", str(rng.randint(1, 30)), "--mode", rng.choice(("smart", "naive"))],
        [0], "numbers")
    for name, alphas in zip(names, CLI_ORACLE_ALPHAS[b % 4]):
        curves = files[name]["curves"]
        alphas = _signed(rng, alphas)
        primes = good_primes(NONVACUOUS_PRIMES, curves, alphas)[:2]
        add(["oracle", "--variety", name, "--isogeny", json.dumps(alphas),
             "--primes", json.dumps(primes)], [0], "oracle")
    errors = (
        ["preimage", "--variety", names[0], "--isogeny", "[0,1]"],
        ["degree", "--variety", names[1], "--isogeny", "[2,"],
        ["certify", "--variety", names[0], "--criterion", "theorem-a"],
        ["oracle", "--variety", names[1], "--isogeny", "[1,1]", "--primes", "[4]"],
        ["bounds", "--kind", "volume"],
        ["preimage", "--variety", "missing.json", "--isogeny", "[1,1]"],
    )
    for argv in rng.sample(errors, 2):
        add(argv, [2], "error")
    # one job per block repeats (the first preimage job), so that
    # byte-identical output of repeated invocations is checked
    jobs.append(repeat)
    return jobs


def cli_cold(seed, seconds):
    """Variety files to write in set-up, and CLI invocations."""
    rng = random.Random("cli-cold:%d" % seed)
    pairs = _PairSource(rng)
    files = {}
    curves = pairs.draw()
    files["warmup.json"] = {"variety": _variety(curves, 1), "curves": curves, "n": 1}
    warmup = [{"argv": ["degree", "--variety", "warmup.json", "--isogeny", "[2,1]"],
               "expect": [0], "check": "degree", "variety": "warmup.json",
               "alphas": [2, 1]}]
    timed = []
    for b in range(blocks_for(seconds, CLI_BLOCK_S)):
        block = _cli_block(rng, pairs, b, files)
        rng.shuffle(block)
        timed.extend(block)
    return {"files": files, "warmup": warmup, "timed": timed}


GENERATORS = {
    "preimage-fresh": preimage_fresh,
    "oracle-scan": oracle_scan,
    "cli-cold": cli_cold,
}
