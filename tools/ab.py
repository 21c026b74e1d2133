"""Compare two checkouts in one process, job by job, on a benchmark workload.

Usage, from anywhere:

    python3 tools/ab.py PARENT_DIR --workload {oracle-scan,preimage-fresh}
                        [--seed N] [--rounds R]

It imports the ``src/ellprod`` of PARENT_DIR and of the checkout this
file belongs to as two packages, builds the workload's job list for the
seed (``perfbench/joblists.py``, 20 s of jobs, as the benchmark runs it)
and runs every job as the benchmark does:

oracle-scan     each tree's preimages are built once; a job is, per
                prime, a fresh context, the maps check of each factor,
                then the membership scan.  The reports must be equal.
preimage-fresh  a job is one generate_preimage call, on curve objects
                made afresh for each call (untimed), so that no maps
                carry over from one call to the next.  The equation and
                excluded-locus texts must be equal.

Each round runs both trees on each job, one right after the other, and
flips which tree goes first from one round to the next; if the outputs
of the two trees differ, it exits nonzero.  It prints, as JSON, the
summed per-job least times of each tree over the rounds and their ratio
(this checkout over the parent), overall and per job class: per prime
class (exhaustive only, or with a prime near 100 or near 1009) and per
isogeny class for oracle-scan, per (alphas, n) class for preimage-fresh.

Fresh-process benchmark runs spread too widely to resolve a 5-10%
change; the least of several interleaved runs per job, in one process,
does better: against the checkout itself, five rounds of oracle-scan
read 0.99-1.01 overall and 0.97-1.03 per class on a 2-core machine,
where they take about 10 s.
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


def _inputs(tree, spec):
    """generate_preimage's arguments for a job spec, on new curve objects."""
    E1, E2 = (tree["curves"].WeierstrassCurve(A, B) for A, B in spec["curves"])
    return (tree["products"].make_cn_curve(E1, E2, spec["n"]),
            tree["isogenies"].DiagonalIsogeny(spec["alphas"]))


def _prime_class(primes):
    if primes[-1] in joblists.PRIMES_NEAR_1009:
        return "near 1009"
    return "near 100" if primes[-1] in joblists.PRIMES_NEAR_100 else "exhaustive"


class OracleScan:
    def __init__(self, trees, seed):
        lists = joblists.oracle_scan(seed, 20)
        self.pres = {name: [self._preimage(tree, spec) for spec in lists["preimages"]]
                     for name, tree in trees.items()}
        self.warmup, self.jobs = lists["warmup"], lists["timed"]
        alphas = ["[%d,%d]" % tuple(spec["alphas"]) for spec in lists["preimages"]]
        self.classes = {
            "by_prime_class": lambda job: _prime_class(job["primes"]),
            "by_isogeny_class": lambda job: alphas[job["pre"]],
        }

    @staticmethod
    def _preimage(tree, spec):
        return tree["preimages"].generate_preimage(*_inputs(tree, spec))

    def run(self, name, tree, job):
        """The job's reports and its wall time in seconds."""
        oracle, pre = tree["oracle"], self.pres[name][job["pre"]]
        t0 = time.perf_counter()
        reports = []
        for p in job["primes"]:
            field = oracle.PrimeFieldCtx(p, pre.system)
            for idx, alpha in enumerate(pre.isogeny.alphas):
                reports.append(oracle.verify_maps_vs_group_law(field, idx, alpha))
            reports.append(oracle.verify_preimage_membership(field, pre))
        return reports, time.perf_counter() - t0

    @staticmethod
    def describe(job):
        return "primes %s" % job["primes"]


class PreimageFresh:
    def __init__(self, trees, seed):
        lists = joblists.preimage_fresh(seed, 20)
        self.warmup, self.jobs = lists["warmup"], lists["timed"]
        self.classes = {
            "by_class": lambda job: "[%d,%d] n=%d" % (*job["alphas"], job["n"]),
        }

    def run(self, name, tree, job):
        """The job's equation and excluded-locus texts and the wall time in
        seconds of its generate_preimage call."""
        args = _inputs(tree, job)
        t0 = time.perf_counter()
        pre = tree["preimages"].generate_preimage(*args)
        elapsed = time.perf_counter() - t0
        return ([str(eq) for eq in pre.equations],
                [str(row["t"]) for row in pre.excluded_locus]), elapsed

    @staticmethod
    def describe(job):
        return "%s, n=%d on %s" % (job["alphas"], job["n"], job["curves"])


WORKLOADS = {"oracle-scan": OracleScan, "preimage-fresh": PreimageFresh}


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
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = {"parent": _load(args.parent, "ellprod_parent"),
             "change": _load(HERE, "ellprod_change")}
    work = WORKLOADS[args.workload](trees, args.seed)
    jobs = work.jobs
    for job in work.warmup:
        for name in TREES:
            work.run(name, trees[name], job)
    best = {name: [float("inf")] * len(jobs) for name in TREES}
    for r in range(args.rounds):
        order = TREES if r % 2 == 0 else TREES[::-1]
        for i, job in enumerate(jobs):
            outputs = {}
            for name in order:
                outputs[name], elapsed = work.run(name, trees[name], job)
                best[name][i] = min(best[name][i], elapsed)
            if outputs["parent"] != outputs["change"]:
                sys.exit("job %d (%s): the outputs differ" % (i, work.describe(job)))
    report = {"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
              "jobs": len(jobs), "outputs_equal": True,
              "overall": _ratios(best, jobs, lambda job: "all")["all"]}
    report.update({label: _ratios(best, jobs, key) for label, key in work.classes.items()})
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
