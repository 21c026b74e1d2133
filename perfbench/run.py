"""ellprod benchmark: three closed-loop workloads, one client each.

Run from the root of a checkout (ellprod is loaded from ./src):

    python3 perfbench/run.py --workload preimage-fresh --seed 1 --seconds 20 --trace 0

The workloads, their rationale and the metrics are described in
perfbench/rationale.json; BENCHMARK.json lists the metrics.  Times are
wall times rescaled to a fixed machine speed (see machine.py); the raw
wall times are kept in the result file.

With --trace 0 a run reports the end-to-end metrics.  With --trace 1 it
first runs the same arguments untraced in a child process, then runs the
job list again with every public ellprod function wrapped (tracing.py),
and reports the per-layer metrics and the tracing overhead (traced minus
untraced end-to-end figures).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A result file with the machine, the
per-job samples and the failures, and for traced runs the spans, goes to
.perfbench_out/ under the checkout.  Exit code 2 if the checkout holds
no ellprod sources.
"""

import argparse
import gc
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import joblists
import machine
import tracing
import workloads

OUT_DIR = ".perfbench_out"
# Set-up is timed in this many fresh processes.
SETUP_SAMPLES = {"preimage-fresh": 4, "oracle-scan": 3, "cli-cold": 9}
# Fresh processes per reading of the cli import breakdown.
IMPORT_SAMPLES = 7
# Reference readings taken between set-up samples.
SETUP_REF_READINGS = 3


def declared_metrics():
    """The metric lists of BENCHMARK.json, at the root of the checkout."""
    with open("BENCHMARK.json") as fh:
        return json.load(fh)


def percentile(values, q):
    """The q-th percentile (q in 1..99) by the exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1]


def setup_only(args):
    """In a fresh process: time set-up from before ``import ellprod``."""
    t0 = time.perf_counter()
    lists = joblists.GENERATORS[args.workload](args.seed, args.seconds)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        workloads.WORKLOADS[args.workload].setup(lists, workdir)
        print(time.perf_counter() - t0)


def _python(argv, env):
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable] + argv, env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return time.perf_counter() - t0, proc


def setup_samples(args, wl, env):
    """Set-up seconds measured in fresh processes, each rescaled by the
    workload's reference readings taken just before and just after it."""
    ref = wl.reference
    out = []
    before = [ref.read() for _ in range(SETUP_REF_READINGS)]
    for _ in range(SETUP_SAMPLES[args.workload]):
        if args.workload == "cli-cold":
            code = ("import time; t0 = time.perf_counter(); import ellprod.cli; "
                    "print(time.perf_counter() - t0)")
            _, proc = _python(["-c", code], env)
        else:
            _, proc = _python([os.path.abspath(__file__), "--workload", args.workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--setup-only"], env)
        after = [ref.read() for _ in range(SETUP_REF_READINGS)]
        out.append(float(proc.stdout.split()[-1])
                   * ref.nominal_ms / statistics.median(before + after))
        before = after
    return out


def import_breakdown(env):
    """Interpreter start, import of ellprod.cli and its mpmath share, in raw
    wall ms, each the median over fresh processes."""
    start = [_python(["-c", "pass"], env)[0] for _ in range(IMPORT_SAMPLES)]
    full = [_python(["-c", "import ellprod.cli"], env)[0] for _ in range(IMPORT_SAMPLES)]
    mp = []
    for _ in range(IMPORT_SAMPLES):
        _, proc = _python(["-X", "importtime", "-c", "import ellprod.cli"], env)
        found = re.search(r"^import time:\s*\d+ \|\s*(\d+) \|\s*mpmath$", proc.stderr, re.M)
        mp.append(int(found.group(1)) / 1e3 if found else 0.0)
    s, f = statistics.median(start), statistics.median(full)
    return {"cli.interp_start_ms": s * 1e3, "cli.import_ms": (f - s) * 1e3,
            "cli.import.mpmath_ms": statistics.median(mp)}


def run_jobs(wl, ctx, jobs, tracer):
    """The timed loop: one client, next job after the previous completes.

    Returns raw wall seconds per job, the (job index, ms) readings of the
    workload's reference taken before some of the jobs, and the failures."""
    durations, refs, failures = [], [], []
    for i in range(len(jobs)):
        gc.collect()
        if i % wl.reference.every == 0:
            refs.append((i, wl.reference.read()))
        if tracer is not None:
            tracer.phase, tracer.job = "job", i
        out, error = None, None
        t0 = time.perf_counter()
        try:
            out = wl.run(ctx, i)
        except Exception as exc:  # a job that raises is a failed job
            error = "%s: %s" % (type(exc).__name__, exc)
        dt = time.perf_counter() - t0
        durations.append(dt)
        if tracer is not None:
            tracer.phase = "check"
        if error:
            problems = [error]
        else:
            try:
                problems = wl.check(ctx, i, out)
            except Exception as exc:  # output not of the expected shape
                problems = ["output check raised %s: %s" % (type(exc).__name__, exc)]
        if tracer is not None:
            tracer.job = None
        if dt > workloads.JOB_CAP_S:
            problems.append("took %.1f s, over the %.0f s cap" % (dt, workloads.JOB_CAP_S))
        if problems:
            failures.append({"job": i, "spec": jobs[i], "problems": problems[:3]})
    return durations, refs, failures


def summarize(seconds):
    return {"jobs_per_s": len(seconds) / sum(seconds),
            "job_p50_ms": statistics.median(seconds) * 1e3,
            "job_p90_ms": percentile(seconds, 90) * 1e3}


def measure(args, wl):
    """One run: set-up, the timed list, and what the result file records."""
    t0 = time.perf_counter()
    lists = joblists.GENERATORS[args.workload](args.seed, args.seconds)
    workdir = tempfile.mkdtemp(dir=os.path.abspath(OUT_DIR))
    try:
        ctx = wl.setup(lists, workdir)
        own_setup = time.perf_counter() - t0
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            ctx.trace_dir = workdir
        durations, refs, failures = run_jobs(wl, ctx, lists["timed"], tracer)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
        peak_mb = resource.getrusage(who).ru_maxrss / 1024
        records = None
        if tracer is not None:
            tracer.uninstall()
            parts = [(tracer.records(), None)]
            for i in range(len(durations)):
                path = os.path.join(workdir, "job%d.json" % i)  # a CLI child's spans
                if os.path.exists(path):
                    with open(path) as fh:
                        parts.append((json.load(fh), i))
            records = tracing.merge_records(parts)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    scaled = [d * s for d, s in zip(durations, wl.reference.scales(refs, len(durations)))]
    return {"durations": durations, "refs": refs, "scaled": scaled, "failures": failures,
            "own_setup": own_setup, "peak_mb": peak_mb, "records": records}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "ellprod", "cli.py")):
        print("perfbench: no ellprod sources under %s; run from the root of a "
              "checkout" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.setup_only:
        setup_only(args)
        return 0

    env = workloads.child_env()
    wl = workloads.WORKLOADS[args.workload]
    result = {"machine": machine.info(), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds}
    if args.trace:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", args.workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", "0"],
                              env=env, capture_output=True, text=True, timeout=170)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            return 1
        with open(os.path.join(OUT_DIR, "%s-seed%d-trace0.json" % (args.workload, args.seed))) as fh:
            untraced = json.load(fh)
        result["untraced"] = {"rescaled": untraced["all_metrics"], "raw": untraced["raw"]}
    else:
        samples = setup_samples(args, wl, env)

    run = measure(args, wl)
    figures = summarize(run["scaled"])
    result.update({"jobs": len(run["durations"]), "failures": run["failures"],
                   "job_ms": [d * 1e3 for d in run["durations"]],
                   "ref_ms": run["refs"], "raw": summarize(run["durations"])})
    stem = os.path.join(OUT_DIR, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    if args.trace:
        metrics = tracing.layer_metrics(run["records"], sum(run["durations"]))
        metrics.update(import_breakdown(env))
        base = result["untraced"]["rescaled"]
        for k in ("jobs_per_s", "job_p50_ms", "job_p90_ms"):
            metrics["trace.overhead.%s" % k] = figures[k] - base[k]
        # start-up plus imports over the untraced p50, both raw wall ms
        metrics["share.cli.start_import"] = (
            (metrics["cli.interp_start_ms"] + metrics["cli.import_ms"])
            / result["untraced"]["raw"]["job_p50_ms"] if args.workload == "cli-cold" else 0.0)
        metrics["jobs.timed"] = len(run["durations"])
        metrics["machine.reference_ms"] = statistics.median(ms for _, ms in run["refs"])
        tracing.write_records(stem + "-spans.json", run["records"])
        kind = "per_layer"
    else:
        metrics = dict(figures, setup_s=statistics.median(samples),
                       peak_rss_mb=run["peak_mb"])
        result["setup_samples_s"] = samples
        result["own_setup_s"] = run["own_setup"]
        kind = "end_to_end"
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                         for m in declared_metrics()[kind]}
    result["all_metrics"] = metrics
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1)

    for f in run["failures"][:5]:
        print("FAILED job %d: %s" % (f["job"], "; ".join(f["problems"])))
    print("%s seed %d: %d jobs, rescaled %s; raw %s" % (
        args.workload, args.seed, len(run["durations"]),
        ", ".join("%s=%.4g" % kv for kv in figures.items()),
        ", ".join("%s=%.4g" % kv for kv in result["raw"].items())))
    print(json.dumps({"correct": not run["failures"], "attempted": len(run["durations"]),
                      "failed": len(run["failures"]), "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
