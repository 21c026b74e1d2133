"""Compare two checkouts in one process, job by job, on a benchmark workload.

Usage, from anywhere:

    python3 tools/ab.py PARENT_DIR --workload {cli-cold,oracle-scan,preimage-fresh}
                        [--seed N] [--rounds R]

It imports the ``src/ellprod`` of PARENT_DIR and of the checkout this
file belongs to as two packages, builds the workload's job list for the
seed (``perfbench/joblists.py``, 20 s of jobs, as the benchmark runs it)
and runs it through the benchmark's own job class of the workload
(``perfbench/workloads.py``): ``setup`` once per tree, with ``ellprod``
bound to that tree's package and the working directory at that tree's
root, then ``run`` per job, timed.

oracle-scan     a job is, per prime, a fresh context, the maps check of
                each factor, then the membership scan of a preimage
                built in set-up.  Its output is the list of reports.
preimage-fresh  a job is one generate_preimage call.  Its inputs are
                built afresh before each call (untimed), so that no maps
                carry over.  Its output is compared as the equation and
                excluded-locus texts.
cli-cold        a job is one fresh ``python -m ellprod.cli``, which runs
                its own tree's ``src``.  Its output is the exit code,
                stdout and stderr.  The second process of a pair wins by
                2-8% whichever tree it runs, so give an even number of
                rounds, at least 2.

Each round runs both trees on each job, one right after the other, and
flips which tree goes first from one round to the next.  It prints, as
JSON, the summed per-job least times of each tree over the rounds and
their ratio (this checkout over the parent), overall and per job class:
per prime class (exhaustive only, or with a prime near 100 or near 1009)
and per isogeny class for oracle-scan, per (alphas, n) class for
preimage-fresh, per subcommand for cli-cold.  Where the two trees'
outputs of a job differ, it still times every job, runs the benchmark's
check once (untimed) on the change's output of each such job, reports
``differing_jobs`` and the first three of them (index, job, check
problems) beside ``"outputs_equal": false``, and exits 1.

Fresh-process benchmark runs spread too widely to resolve a 5-10%
change; the least of several interleaved runs per job, in one process,
does better: against the checkout itself, five rounds of oracle-scan
read 0.99-1.01 overall and 0.97-1.03 per class on a 2-core machine,
where they take about 10 s.
"""

import argparse
import importlib.util
import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(HERE, "perfbench"))

import joblists  # noqa: E402
import workloads  # noqa: E402

TREES = ("parent", "change")


def _load(root, name):
    """The ellprod package of the checkout at root, imported as name."""
    src = os.path.join(root, "src", "ellprod")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"), submodule_search_locations=[src])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _prime_class(primes):
    if primes[-1] in joblists.PRIMES_NEAR_1009:
        return "near 1009"
    return "near 100" if primes[-1] in joblists.PRIMES_NEAR_100 else "exhaustive"


def _classes(workload, lists):
    """The job classes of the ratios: label -> class of a job."""
    if workload == "oracle-scan":
        alphas = ["[%d,%d]" % tuple(spec["alphas"]) for spec in lists["preimages"]]
        return {"by_prime_class": lambda job: _prime_class(job["primes"]),
                "by_isogeny_class": lambda job: alphas[job["pre"]]}
    if workload == "preimage-fresh":
        return {"by_class": lambda job: "[%d,%d] n=%d" % (*job["alphas"], job["n"])}
    return {"by_subcommand": lambda job: job["argv"][0]}


def _compared(workload, out):
    """A job's output as the two trees' outputs are compared."""
    if workload != "preimage-fresh":
        return out
    return ([str(eq) for eq in out.equations],
            [str(row["t"]) for row in out.excluded_locus])


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


def _compare(args, lists, workdir):
    """Set up both trees, time every job; the least times per job and the
    check problems of the change's output of each job whose outputs differ."""
    work = workloads.WORKLOADS[args.workload]
    roots = {"parent": os.path.abspath(args.parent), "change": HERE}
    packages, ctxs = {}, {}
    for name in TREES:
        packages[name] = sys.modules["ellprod"] = _load(roots[name], "ellprod_" + name)
        os.chdir(roots[name])  # workloads.child_env() reads the tree's src from here
        os.mkdir(os.path.join(workdir, name))
        ctxs[name] = work.setup(lists, os.path.join(workdir, name))
    jobs = lists["timed"]
    best = {name: [float("inf")] * len(jobs) for name in TREES}
    differing = {}
    for r in range(args.rounds):
        for i, job in enumerate(jobs):
            outputs = {}
            for name in TREES if r % 2 == 0 else TREES[::-1]:
                if args.workload == "preimage-fresh":
                    package = packages[name]
                    ctxs[name].inputs[i] = workloads._inputs(
                        job, package.products, package.curves, package.isogenies)
                t0 = time.perf_counter()
                outputs[name] = work.run(ctxs[name], i)
                best[name][i] = min(best[name][i], time.perf_counter() - t0)
            if i not in differing and (_compared(args.workload, outputs["parent"])
                                       != _compared(args.workload, outputs["change"])):
                differing[i] = work.check(ctxs["change"], i, outputs["change"])
    return best, differing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="root of the checkout to compare against")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    lists = joblists.GENERATORS[args.workload](args.seed, 20)
    with tempfile.TemporaryDirectory() as workdir:
        best, differing = _compare(args, lists, workdir)
    jobs = lists["timed"]
    report = {"workload": args.workload, "seed": args.seed, "rounds": args.rounds,
              "jobs": len(jobs), "outputs_equal": not differing,
              "differing_jobs": len(differing),
              "first_differing": [{"index": i, "job": jobs[i], "check_problems": differing[i]}
                                  for i in sorted(differing)[:3]],
              "overall": _ratios(best, jobs, lambda job: "all")["all"]}
    report.update({label: _ratios(best, jobs, key)
                   for label, key in _classes(args.workload, lists).items()})
    print(json.dumps(report, indent=1))
    if differing:
        sys.exit(1)


if __name__ == "__main__":
    main()
