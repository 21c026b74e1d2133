"""Compare the oracle of two checkouts in one process, job by job.

Usage, from anywhere:

    python3 tools/oracle_ab.py PARENT_DIR [--seed N] [--rounds R]

It imports the ``src/ellprod`` of PARENT_DIR and of the checkout this
file belongs to as two packages, builds the ``oracle-scan`` job list of
the benchmark for the seed (``perfbench/joblists.py``, 20 s of jobs, as
the benchmark runs it) and each tree's preimages for it, and runs every
job as the benchmark does: per prime, a fresh context, the maps check of
each factor, then the membership scan.  Each round runs both trees on
each job, one right after the other, and flips which tree goes first
from one round to the next; every report of the two trees must be equal,
else it exits nonzero.  It prints, as JSON, the summed per-job least
times of each tree over the rounds and their ratio (this checkout over
the parent), overall, per prime class of the job (exhaustive only, or
with a prime near 100 or near 1009) and per isogeny class.

Fresh-process benchmark runs spread too widely to resolve a 5-10%
change in the oracle; the least of several interleaved runs per job, in
one process, does better: against the checkout itself, five rounds read
0.99-1.01 overall and 0.97-1.03 per class on a 2-core machine, where
they take about 10 s.
"""

import argparse
import importlib
import importlib.util
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(HERE, "perfbench"))

import joblists  # noqa: E402

TREES = ("parent", "change")


def _load(root, name):
    """The ellprod package of the checkout at root, imported as name."""
    src = os.path.join(os.path.abspath(root), "src", "ellprod")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"), submodule_search_locations=[src])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(name + "." + m)
            for m in ("curves", "isogenies", "oracle", "preimages", "products")}


def _preimage(tree, spec):
    E1, E2 = (tree["curves"].WeierstrassCurve(A, B) for A, B in spec["curves"])
    return tree["preimages"].generate_preimage(
        tree["products"].make_cn_curve(E1, E2, spec["n"]),
        tree["isogenies"].DiagonalIsogeny(spec["alphas"]))


def _scan(oracle, pre, primes):
    """One oracle-scan job: its reports and its wall time in seconds."""
    t0 = time.perf_counter()
    reports = []
    for p in primes:
        field = oracle.PrimeFieldCtx(p, pre.system)
        for idx, alpha in enumerate(pre.isogeny.alphas):
            reports.append(oracle.verify_maps_vs_group_law(field, idx, alpha))
        reports.append(oracle.verify_preimage_membership(field, pre))
    return reports, time.perf_counter() - t0


def _prime_class(primes):
    if primes[-1] in joblists.PRIMES_NEAR_1009:
        return "near 1009"
    return "near 100" if primes[-1] in joblists.PRIMES_NEAR_100 else "exhaustive"


def _ratios(best, jobs, key):
    """Summed least times per tree and their ratio, per key of a job."""
    groups = {}
    for i, job in enumerate(jobs):
        group = groups.setdefault(key(job), {tree: 0.0 for tree in TREES})
        for tree in TREES:
            group[tree] += best[tree][i]
    return {k: {"parent_ms": round(1e3 * g["parent"], 2),
                "change_ms": round(1e3 * g["change"], 2),
                "ratio": round(g["change"] / g["parent"], 4)}
            for k, g in groups.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the checkout to compare against")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    lists = joblists.oracle_scan(args.seed, 20)
    trees = {"parent": _load(args.parent, "ellprod_parent"),
             "change": _load(HERE, "ellprod_change")}
    pres = {tree: [_preimage(mods, spec) for spec in lists["preimages"]]
            for tree, mods in trees.items()}
    jobs = lists["timed"]
    for job in lists["warmup"]:
        for tree in TREES:
            _scan(trees[tree]["oracle"], pres[tree][job["pre"]], job["primes"])
    best = {tree: [float("inf")] * len(jobs) for tree in TREES}
    for r in range(args.rounds):
        order = TREES if r % 2 == 0 else TREES[::-1]
        for i, job in enumerate(jobs):
            reports = {}
            for tree in order:
                reports[tree], elapsed = _scan(trees[tree]["oracle"],
                                               pres[tree][job["pre"]], job["primes"])
                best[tree][i] = min(best[tree][i], elapsed)
            if reports["parent"] != reports["change"]:
                sys.exit("job %d (primes %s): the reports differ" % (i, job["primes"]))
    alphas = {i: "[%d,%d]" % tuple(spec["alphas"]) for i, spec in enumerate(lists["preimages"])}
    print(json.dumps({
        "seed": args.seed, "rounds": args.rounds, "jobs": len(jobs),
        "reports_equal": True,
        "overall": _ratios(best, jobs, lambda job: "all")["all"],
        "by_prime_class": _ratios(best, jobs, lambda job: _prime_class(job["primes"])),
        "by_isogeny_class": _ratios(best, jobs, lambda job: alphas[job["pre"]]),
    }, indent=1))


if __name__ == "__main__":
    main()
