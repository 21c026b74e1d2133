"""Time the oracle at the largest prime it accepts, and read its peak
memory, the table that README's "Oracle scale policy" keeps.

Usage, from the root of a checkout (its ``src`` is imported):

    python3 tools/large_primes.py

At p = MAX_P - 1 = 131071 on C_3 = {y2 = x1^3} in E x E, E: y^2 = x^3 + 1,
for the isogenies [3,2] and [5,5], it runs two fresh child processes per
case.  Both build the context's point and image tables of both factors;
one then runs the membership scan alone, the other the maps check of
both factors (verify_factor_maps, which checks the two factors of [5,5]
on E x E once) and then the scan, each check REPEATS times on the same
context.  It prints, in seconds of wall time, the time of the tables and
the least time of the maps check and of the scan alone and after the
maps check, and the peak RSS of each child (from os.wait4), in MB.  The
preimage is built before any timer starts.  Every check in a child
asserts its report is ok, so a failing case exits nonzero.  It takes 10
to 20 seconds on a 2-core machine; CI runs it on one Python version as a
smoke step that gates nothing on timing.  Compare two checkouts by
running it in each, in alternating order.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from ellprod import oracle  # noqa: E402
from ellprod.curves import WeierstrassCurve  # noqa: E402
from ellprod.isogenies import DiagonalIsogeny  # noqa: E402
from ellprod.preimages import generate_preimage  # noqa: E402
from ellprod.products import make_cn_curve  # noqa: E402

CASES = ((3, 2), (5, 5))
# single runs of a check spread by about a third, so each is timed this
# often and the least time is reported
REPEATS = 3


def _least(check):
    """The least wall time, in seconds, of REPEATS calls of check()."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        check()
        times.append(time.perf_counter() - t0)
    return min(times)


def _child(alphas, maps_first):
    """Run one case in this process; print its timings as JSON."""
    pre = generate_preimage(make_cn_curve(WeierstrassCurve(0, 1), WeierstrassCurve(0, 1), 3),
                            DiagonalIsogeny(alphas))
    ctx = oracle.PrimeFieldCtx(oracle.MAX_P - 1, pre.system)
    out = {}
    t0 = time.perf_counter()
    for idx, alpha in enumerate(alphas):
        ctx.image_table(idx, alpha)  # builds the point list first
    out["tables"] = time.perf_counter() - t0

    def maps():
        assert all(rep["ok"] for rep in oracle.verify_factor_maps(ctx, alphas))

    def membership():
        assert oracle.verify_preimage_membership(ctx, pre)["ok"]

    if maps_first:
        out["maps"] = _least(maps)
    out["membership"] = _least(membership)
    print(json.dumps(out))


def _run(alphas, maps_first):
    """One case in a fresh child: its timings and its peak RSS in MB."""
    args = [sys.executable, os.path.abspath(__file__), "--child",
            "%d,%d" % alphas] + (["--maps-first"] if maps_first else [])
    proc = subprocess.Popen(args, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit("case [%d,%d] failed with exit code %d" % (alphas + (proc.returncode,)))
    result = json.loads(out)
    result["rss_mb"] = usage.ru_maxrss / 1024  # KB on Linux
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--maps-first", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        _child(tuple(map(int, args.child.split(","))), args.maps_first)
        return
    print("| C_3 at p = %d | tables | maps | membership alone / after maps "
          "| peak RSS alone / after maps |" % (oracle.MAX_P - 1))
    print("|---|---|---|---|---|")
    for alphas in CASES:
        alone, after = _run(alphas, False), _run(alphas, True)
        print("| [%d,%d] | %.2f s | %.2f s | %.3f / %.3f s | %.0f / %.0f MB |" % (
            alphas + (alone["tables"], after["maps"], alone["membership"],
                      after["membership"], alone["rss_mb"], after["rss_mb"])))


if __name__ == "__main__":
    main()
